"""Exact scalars and dense univariate polynomials over Q and Q(sqrt(d)).

Scalars are rationals or elements x + y*sqrt(d) of a quadratic extension,
stored with `fractions.Fraction` parts so every operation is exact.
Polynomials are dense coefficient tuples (lowest degree first, no trailing
zeros).  Squarefree structure is exposed through Yun decomposition and a
gcd-free basis; irreducible factorization is deliberately avoided, places
of the affine line are represented by monic squarefree generators instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    ContextMismatchError,
    InvalidPlaceError,
    ZeroPolynomialError,
)

Rationalish = Union[int, Fraction]


# Squarefreeness of d is checked by trial division up to sqrt(|d|), so |d|
# is capped: at 10^10 the worst case (a prime) takes about 10^5 steps.
MAX_ABS_D = 10 ** 10


def _is_squarefree_int(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class FieldContext:
    """Ground field: the rationals, or Q(sqrt(d)) for squarefree d != 1 with
    |d| <= MAX_ABS_D (a squarefree d > 1 is never a square).

    Two contexts are interchangeable exactly when they are equal; arithmetic
    between elements of unequal contexts raises ContextMismatchError.
    """

    d: int | None = None

    def __post_init__(self):
        if self.d is not None:
            if abs(self.d) > MAX_ABS_D:
                raise ValueError(f"|d| must be at most {MAX_ABS_D}, got {self.d}")
            if self.d == 1 or not _is_squarefree_int(self.d):
                raise ValueError(f"d must be squarefree and not a square, got {self.d}")

    @property
    def is_quadratic(self) -> bool:
        return self.d is not None

    def element(self, x: Rationalish, y: Rationalish = 0) -> "FieldElement":
        x = Fraction(x)
        y = Fraction(y)
        if y and not self.is_quadratic:
            raise ValueError("rational context has no sqrt generator")
        return FieldElement(self, x, y)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def generator(self) -> "FieldElement":
        """The element w with w^2 = d."""
        if not self.is_quadratic:
            raise ValueError("rational context has no sqrt generator")
        return self.element(0, 1)

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


RATIONALS = FieldContext()


@dataclass(frozen=True)
class FieldElement:
    """x + y*sqrt(d), exact.  y stays 0 in a rational context."""

    context: FieldContext
    x: Fraction
    y: Fraction = Fraction(0)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.context != self.context:
                raise ContextMismatchError(
                    f"mixed contexts {self.context} and {other.context}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.element(other)
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_zero(self) -> bool:
        return not self.x and not self.y

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.context, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.context, -self.x, -self.y)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.context, self.x - o.x, self.y - o.y)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.y and not o.y:
            return FieldElement(self.context, self.x * o.x)
        d = self.context.d or 0
        return FieldElement(
            self.context,
            self.x * o.x + d * self.y * o.y,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.context, self.x, -self.y)

    def norm(self) -> Fraction:
        """Field norm x^2 - d*y^2 (equals x^2 in the rational case)."""
        d = self.context.d or 0
        return self.x * self.x - d * self.y * self.y

    def inverse(self) -> "FieldElement":
        n = self.norm()
        if not n:
            # with d squarefree non-square, norm vanishes only at zero
            raise ZeroDivisionError("element is not invertible")
        conj = self.conjugate()
        return FieldElement(self.context, conj.x / n, conj.y / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def sort_key(self):
        return (self.x, self.y)

    def __str__(self) -> str:
        if not self.y:
            return str(self.x)
        if self.y == 1:
            w = "w"
        elif self.y == -1:
            w = "-w"
        else:
            w = f"{self.y}*w"
        if not self.x:
            return w
        sign = " + " if self.y > 0 else " - "
        mag = w.lstrip("-")
        return f"({self.x}{sign}{mag})"

    def __repr__(self) -> str:
        return f"FieldElement({self})"


class _Omega:
    """Valuation of the zero polynomial: compares above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __ge__(self, other):
        return True

    def __gt__(self, other):
        return not isinstance(other, _Omega)

    def __le__(self, other):
        return isinstance(other, _Omega)

    def __lt__(self, other):
        return False

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        return self

    def __repr__(self):
        return "OMEGA"


OMEGA = _Omega()


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial in t over a FieldContext."""

    context: FieldContext
    coefficients: tuple[FieldElement, ...]

    def __post_init__(self):
        coeffs = list(self.coefficients)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def make(cls, context: FieldContext, coeffs: Iterable) -> "Poly":
        """Build from a low-to-high iterable of elements / ints / Fractions."""
        out = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.context != context:
                    raise ContextMismatchError("coefficient from another context")
                out.append(c)
            else:
                out.append(context.element(c))
        return cls(context, tuple(out))

    @classmethod
    def constant(cls, context: FieldContext, value) -> "Poly":
        return cls.make(context, [value])

    @classmethod
    def variable(cls, context: FieldContext) -> "Poly":
        return cls.make(context, [0, 1])

    @classmethod
    def zero(cls, context: FieldContext) -> "Poly":
        return cls(context, ())

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coefficients) <= 1

    def leading_coefficient(self) -> FieldElement:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def coefficient(self, k: int) -> FieldElement:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return self.context.zero()

    def _check(self, other: "Poly") -> "Poly":
        if isinstance(other, Poly):
            if other.context != self.context:
                raise ContextMismatchError("mixed polynomial contexts")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Poly.make(self.context, [other])
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coefficients), len(o.coefficients))
        return Poly(
            self.context,
            tuple(self.coefficient(i) + o.coefficient(i) for i in range(n)),
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.context, tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly.zero(self.context)
        zero = self.context.zero()
        out = [zero] * (len(self.coefficients) + len(o.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a.is_zero:
                continue
            for j, b in enumerate(o.coefficients):
                out[i + j] = out[i + j] + a * b
        return Poly(self.context, tuple(out))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if not isinstance(c, FieldElement):
            c = self.context.element(c)
        return Poly(self.context, tuple(x * c for x in self.coefficients))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.constant(self.context, 1)
        # square-and-multiply without a product by 1 or a square after the top bit
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d = o.degree
        if self.degree < d:
            return Poly.zero(self.context), self
        zero = self.context.zero()
        rem = list(self.coefficients)
        inv = o.leading_coefficient().inverse()
        body = o.coefficients[:-1]
        quot = [zero] * (len(rem) - d)
        for top in range(len(rem) - 1, d - 1, -1):
            c = rem[top]
            if c.is_zero:
                continue
            factor = c * inv
            quot[top - d] = factor
            shift = top - d
            for i, oc in enumerate(body):
                if not oc.is_zero:
                    rem[shift + i] = rem[shift + i] - factor * oc
        return Poly(self.context, tuple(quot)), Poly(self.context, tuple(rem[:d]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        lc = self.leading_coefficient()
        if lc == self.context.one():
            return self
        return self.scale(lc.inverse())

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly.zero(self.context)
        return Poly(
            self.context,
            tuple(
                self.coefficients[i] * i for i in range(1, len(self.coefficients))
            ),
        )

    def evaluate(self, value: FieldElement) -> FieldElement:
        acc = self.context.zero()
        for c in reversed(self.coefficients):
            acc = acc * value + c
        return acc

    def sort_key(self):
        return (self.degree, tuple(c.sort_key() for c in reversed(self.coefficients)))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        one = self.context.one()
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c.is_zero:
                continue
            if k == 0:
                var = ""
            elif k == 1:
                var = "t"
            else:
                var = f"t^{k}"
            if not var:
                body = str(c)
                negative = False
            elif c == one:
                body, negative = var, False
            elif c == -one:
                body, negative = var, True
            else:
                s = str(c)
                negative = s.startswith("-")
                body = f"{s.lstrip('-')}*{var}" if not s.startswith("(") else f"{s}*{var}"
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                if not var and body.startswith("-"):
                    negative, body = True, body.lstrip("-")
                parts.append((" - " if negative else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(p, 0) is monic p."""
    if p.context != q.context:
        raise ContextMismatchError("mixed polynomial contexts")
    if p.is_zero and q.is_zero:
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def is_squarefree(p: Poly) -> bool:
    """No repeated roots; requires a nonzero polynomial."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefreeness of 0 is undefined")
    if p.is_constant:
        return True
    return poly_gcd(p, p.derivative()).is_constant


def squarefree_decompose(p: Poly) -> tuple[FieldElement, list[tuple[Poly, int]]]:
    """Yun decomposition p = content * prod f_i^{m_i} (f_i monic, squarefree,
    pairwise coprime, characteristic zero).  Needs degree >= 1."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    if p.is_constant:
        raise ZeroPolynomialError("cannot decompose a constant polynomial")
    content = p.leading_coefficient()
    a = p.monic()
    g = poly_gcd(a, a.derivative())
    if g.is_constant:
        return content, [(a, 1)]
    c = a // g
    d = a.derivative() // g - c.derivative()
    factors: list[tuple[Poly, int]] = []
    i = 1
    while not c.is_constant:
        f = poly_gcd(c, d)
        if not f.is_constant:
            factors.append((f, i))
        c = c // f
        d = d // f - c.derivative()
        i += 1
    return content, factors


def gcdfree_basis(polys: Sequence[Poly]) -> tuple[list[Poly], list[list[int]]]:
    """Gcd-free basis of nonzero polynomials, plus the exponent matrix.

    The generators are monic, squarefree, nonconstant and pairwise coprime
    by construction (Yun's factors are monic, and so are exact quotients of
    monic polynomials), so nothing checks them again.  Every input equals
    its leading coefficient times the product of basis elements raised to
    the matching exponent row, and distinct roots of one basis element
    cannot be told apart by valuations of the inputs.
    """
    if not polys:
        raise ZeroPolynomialError("empty input list")
    context = polys[0].context
    for p in polys:
        if p.context != context:
            raise ContextMismatchError("mixed polynomial contexts")
        if p.is_zero:
            raise ZeroPolynomialError("zero polynomial in gcd-free basis input")

    basis: list[Poly] = []
    for p in polys:
        if p.is_constant:
            continue
        _, factors = squarefree_decompose(p)
        for f, _m in factors:
            new_basis: list[Poly] = []
            for b in basis:
                g = poly_gcd(f, b)
                if g.is_constant:
                    new_basis.append(b)
                    continue
                rest = b // g
                if not rest.is_constant:
                    new_basis.append(rest)
                new_basis.append(g)
                f = f // g
            if not f.is_constant:
                new_basis.append(f)
            basis = new_basis

    basis.sort(key=lambda q: q.sort_key())
    exponents = [[_finite_valuation(p, b) for b in basis] for p in polys]
    return basis, exponents


@dataclass(frozen=True)
class Place:
    """A closed point of the affine line, given by its monic squarefree
    generator, or the place at infinity (generator None); the generator's
    degree counts geometric points.  A plain record: the fiber analysis
    takes its places from ``gcdfree_basis``, and ``valuation`` checks a
    place a caller passes in."""

    generator: Poly | None

    @property
    def degree(self) -> int:
        """Number of geometric points over this place."""
        if self.generator is None:
            return 1
        return self.generator.degree

    def __str__(self) -> str:
        return "infinity" if self.generator is None else str(self.generator)


def _finite_valuation(p: Poly, generator: Poly) -> int:
    v = 0
    while True:
        q, r = divmod(p, generator)
        if not r.is_zero:
            return v
        v += 1
        p = q


def valuation(p: Poly, place: Place):
    """Largest m with generator^m dividing p; OMEGA for the zero polynomial.

    The place is checked first, even for p = 0: a generator that is not
    monic, squarefree and of degree >= 1 raises InvalidPlaceError, and so
    does infinity, whose valuations the surface layer reads from degrees
    (4k - deg a, 6k - deg b, 12k - deg Delta).
    """
    g = place.generator
    if g is None:
        raise InvalidPlaceError("valuation at infinity is handled by the surface layer")
    if g.is_constant:
        raise InvalidPlaceError("finite place needs degree >= 1")
    if g.leading_coefficient() != g.context.one():
        raise InvalidPlaceError("finite place generator must be monic")
    if not is_squarefree(g):
        raise InvalidPlaceError("finite place generator must be squarefree")
    if p.is_zero:
        return OMEGA
    if p.context != g.context:
        raise ContextMismatchError("polynomial and place from different contexts")
    return _finite_valuation(p, g)
