"""Exact scalars and dense univariate polynomials over Q and Q(sqrt(d)).

Scalars are rationals or elements x + y*sqrt(d) of a quadratic extension,
stored with `fractions.Fraction` parts so every operation is exact.
Polynomials are dense coefficient tuples (lowest degree first, no trailing
zeros).  Squarefree structure is exposed through Yun decomposition and a
gcd-free basis; irreducible factorization is deliberately avoided, places
of the affine line are represented by monic squarefree generators instead.

Most gcds the fiber analysis asks for are 1, and Euclid on Fraction
coefficients pays for coefficient growth to find that out.  ``poly_gcd``
therefore first reduces both inputs modulo one prime p of MODULAR_PRIMES
(sending sqrt(d) to a square root of d mod p); when the images are coprime
over F_p, so are the inputs, and the gcd is 1.  Otherwise Euclid runs as
before.  The shortcut only ever returns the answer Euclid would return, so
the result cannot depend on the prime: only the running time does.
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


# Primes p = 3 mod 4 just below 2^62, largest first.  p = 3 mod 4 makes
# d^((p+1)/4) a square root of d whenever d is a square mod p.  Written out
# so that importing the module searches for nothing.
MODULAR_PRIMES = (
    4611686018427387847, 4611686018427387787, 4611686018427387751,
    4611686018427387631, 4611686018427387587, 4611686018427387323,
    4611686018427387271, 4611686018427387139, 4611686018427387131,
    4611686018427387127, 4611686018427387091, 4611686018427386923,
    4611686018427386911, 4611686018427386903, 4611686018427386887,
    4611686018427386707,
)


def _reduce_mod(p: Poly, prime: int, root: int) -> list[int] | None:
    """Image of p in F_prime[t] under sqrt(d) -> root, lowest degree first;
    None when prime divides a denominator or the leading coefficient maps
    to 0."""
    image = []
    for c in p.coefficients:
        value = 0
        for q, scale in ((c.x, 1), (c.y, root)):
            if q:
                if q.denominator % prime == 0:
                    return None
                value += q.numerator * scale * pow(q.denominator, -1, prime)
        image.append(value % prime)
    return image if image[-1] else None


def _coprime_mod(a: list[int], b: list[int], prime: int) -> bool:
    """Whether gcd(a, b) = 1 in F_prime[t], for nonzero a and b given lowest
    degree first without leading zeros."""
    while len(b) > 1:
        n = len(b) - 1
        inv = pow(b[-1], -1, prime)
        r = list(a)
        for top in range(len(r) - 1, n - 1, -1):
            c = r[top] * inv % prime
            if c:
                shift = top - n
                for i in range(n):
                    r[shift + i] = (r[shift + i] - c * b[i]) % prime
        del r[n:]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return len(b) == 1


def _coprime_modulo_a_prime(p: Poly, q: Poly) -> bool:
    """True when the images of p and q modulo the first usable prime of
    MODULAR_PRIMES are coprime.  A prime is usable when d is a nonzero
    square mod p (in a quadratic field), p divides no denominator and both
    leading coefficients survive.  False also when no prime is usable."""
    d = p.context.d
    for prime in MODULAR_PRIMES:
        root = 0
        if d is not None:
            root = pow(d, (prime + 1) // 4, prime)
            if d % prime == 0 or root * root % prime != d % prime:
                continue
        a = _reduce_mod(p, prime, root)
        b = _reduce_mod(q, prime, root)
        if a is not None and b is not None:
            return _coprime_mod(a, b, prime)
    return False


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(p, 0) is monic p.

    Two nonconstant inputs are first mapped to F_l[t] for the first usable
    prime l of MODULAR_PRIMES, sqrt(d) going to a square root of d mod l.
    If the images are coprime, so are p and q, and the gcd is 1: both
    leading coefficients survive, so the Sylvester matrix of the images is
    the image of that of p and q, and the resultant of the images, nonzero
    because they are coprime, is the image of Res(p, q), which is therefore
    nonzero.  In every other case Euclid decides, so the answer never
    depends on the prime.
    """
    if p.context != q.context:
        raise ContextMismatchError("mixed polynomial contexts")
    if p.is_zero and q.is_zero:
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if not p.is_constant and not q.is_constant and _coprime_modulo_a_prime(p, q):
        return Poly.constant(p.context, 1)
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

    Each generator carries its exponent row (one entry per input) through
    the refinement, so no exponent is found by division.  When a Yun factor
    f of multiplicity m of input i meets a generator b, g = gcd(f, b) gets
    b's row plus m in column i, the cofactor b/g keeps b's row, and what is
    left of f after every generator becomes a new one with m in column i.
    """
    if not polys:
        raise ZeroPolynomialError("empty input list")
    context = polys[0].context
    for p in polys:
        if p.context != context:
            raise ContextMismatchError("mixed polynomial contexts")
        if p.is_zero:
            raise ZeroPolynomialError("zero polynomial in gcd-free basis input")

    basis: list[tuple[Poly, list[int]]] = []
    for i, p in enumerate(polys):
        if p.is_constant:
            continue
        _, factors = squarefree_decompose(p)
        for f, m in factors:
            refined: list[tuple[Poly, list[int]]] = []
            for b, row in basis:
                g = poly_gcd(f, b)
                if g.is_constant:
                    refined.append((b, row))
                    continue
                rest = b // g
                if not rest.is_constant:
                    refined.append((rest, row))
                split = row.copy()
                split[i] += m
                refined.append((g, split))
                f = f // g
            if not f.is_constant:
                fresh = [0] * len(polys)
                fresh[i] = m
                refined.append((f, fresh))
            basis = refined

    basis.sort(key=lambda entry: entry[0].sort_key())
    exponents = [[row[i] for _, row in basis] for i in range(len(polys))]
    return [b for b, _ in basis], exponents


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
    v = 0
    while True:
        p, r = divmod(p, g)
        if not r.is_zero:
            return v
        v += 1
