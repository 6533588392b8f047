"""Exception types and the record base shared across the package."""

from operator import attrgetter


BRIEF_LIMIT = 40


def brief(value) -> str:
    """A bad input as an error message names it: its repr, or past BRIEF_LIMIT
    characters (a string's own, else its repr's) the first of them and the count."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= BRIEF_LIMIT:
        return repr(value)
    head = repr(text[:BRIEF_LIMIT]) if text is value else text[:BRIEF_LIMIT]
    return f"{head}... ({len(text)} characters)"


class K3AutoError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(K3AutoError):
    """Arithmetic attempted between elements of different field contexts."""


class ZeroPolynomialError(K3AutoError):
    """An operation that needs a nonzero (or nonconstant) polynomial got one."""


class InvalidPlaceError(K3AutoError):
    """A finite place needs a monic squarefree generator of degree >= 1."""


class LatticeError(K3AutoError):
    """Malformed Gram matrix or unusable lattice input."""


class LatticeExprError(K3AutoError):
    """Unparseable lattice expression."""


class InvalidModelError(K3AutoError):
    """Weierstrass data with identically vanishing discriminant."""


class InconsistentValuationsError(K3AutoError):
    """A valuation triple that matches no row of the fiber-type table."""


class PatternError(K3AutoError):
    """Malformed eigenvalue pattern (wrong rank, bad block, ...)."""


class ParseError(K3AutoError):
    """Text input rejected by one of the small expression grammars."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class Record:
    """Base of the ``__slots__`` records, whose ``__init__`` checks its
    arguments and sets each slot with ``object.__setattr__``.  Values of one
    class with equal ``_fields`` are equal and hash alike, the repr is
    ``Name(field=value, ...)``, and assigning an attribute raises
    AttributeError.  A slot outside ``_fields`` holds a value derived from
    them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
