"""Exact scalars and dense univariate polynomials over Q and Q(sqrt(d)).

A polynomial is stored as integer vectors over one denominator,
(xs + ys*w)/den with w^2 = d (FLINT's fmpq_poly layout), and its
arithmetic runs on Python ints, and so do its text and the order of the
fiber places.  There is no scalar type: a constant is a polynomial of
degree 0.  Fractions meet the vectors only at the API edge: ``Poly.make``
takes ints, Fractions or (x, y) pairs, ``Poly.coefficient`` gives a
read-only ``Coefficient`` pair.
Squarefree structure comes from Yun decomposition; there is no irreducible
factorization, places of the affine line are monic squarefree generators.
``poly_gcd`` is a modular gcd (Encarnacion, J. Symbolic Comput. 20, 1995)
on word-size primes generated on demand, and its only algorithm: a trial
division proves every answer, so no result depends on a prime, and its
quotients are the cofactors (``_gcd_cofactors``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import count, repeat
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ContextMismatchError,
    InvalidPlaceError,
    Record,
    ZeroPolynomialError,
)

# Squarefreeness of d is checked by trial division up to sqrt(|d|), so |d|
# is capped: at 10^10 the worst case (a prime) takes about 10^5 steps.
MAX_ABS_D = 10 ** 10


def _is_squarefree_int(n: int) -> bool:
    return n != 0 and all(n % (k * k) for k in range(2, isqrt(abs(n)) + 1))


class FieldContext(Record):
    """Ground field: the rationals, or Q(sqrt(d)) for squarefree d != 1 with
    |d| <= MAX_ABS_D (a squarefree d > 1 is never a square).

    Two contexts are interchangeable exactly when they are equal; arithmetic
    between polynomials of unequal contexts raises ContextMismatchError.
    """

    __slots__ = _fields = ("d",)

    def __init__(self, d: int | None = None):
        if d is not None:
            if abs(d) > MAX_ABS_D:
                raise ValueError(f"|d| must be at most {MAX_ABS_D}, got {d}")
            if d == 1 or not _is_squarefree_int(d):
                raise ValueError(f"d must be squarefree and not a square, got {d}")
        object.__setattr__(self, "d", d)

    @property
    def is_quadratic(self) -> bool:
        return self.d is not None

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


RATIONALS = FieldContext()


class Coefficient(NamedTuple):
    """Coefficient x + y*w of a polynomial as two Fractions: a read-only
    view, with no arithmetic and no context."""

    x: Fraction
    y: Fraction


@total_ordering
class _Omega:
    """Valuation of the zero polynomial: compares above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __add__(self, other):
        return self

    __radd__ = __sub__ = __add__

    def __repr__(self):
        return "OMEGA"


OMEGA = _Omega()


class Poly(Record):
    """Dense polynomial in t over a FieldContext: coefficient k is
    (xs[k] + ys[k]*w)/den.  The form is normal, so equal polynomials have
    equal fields: no trailing zero pair, ys empty when no coefficient has a
    w part (always over Q) and else as long as xs, den > 0 and coprime to
    the entries.  Arithmetic and ``str`` run on these ints; a constant is a
    Poly of degree 0, and a coefficient is read out as Fractions only on
    request (``coefficient``)."""

    __slots__ = _fields = ("context", "xs", "ys", "den")

    def __init__(self, context: FieldContext, xs: tuple[int, ...], ys: tuple[int, ...] = (),
                 den: int = 1):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "den", den)

    @classmethod
    def make(cls, context: FieldContext, coeffs: Iterable) -> "Poly":
        """Build from a low-to-high iterable of ints, Fractions or (x, y)
        pairs of them, each x + y*w."""
        cs = [tuple(map(Fraction, c)) if isinstance(c, tuple) else (Fraction(c), 0) for c in coeffs]
        if not context.is_quadratic and any(y for _, y in cs):
            raise ValueError("rational context has no sqrt generator")
        den = lcm(*(q.denominator for c in cs for q in c))
        return _poly(context, [x.numerator * den // x.denominator for x, _ in cs],
                     [y.numerator * den // y.denominator for _, y in cs], den)

    @classmethod
    def constant(cls, context: FieldContext, value: int | Fraction) -> "Poly":
        return _poly(context, [value.numerator], [], value.denominator)

    @classmethod
    def monomial(cls, context: FieldContext, k: int) -> "Poly":
        """t^k."""
        return cls(context, (0,) * k + (1,))

    @classmethod
    def variable(cls, context: FieldContext) -> "Poly":
        return cls.monomial(context, 1)

    @classmethod
    def zero(cls, context: FieldContext) -> "Poly":
        return cls(context, ())

    @property
    def is_zero(self) -> bool:
        return not self.xs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.xs) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.xs) <= 1

    @property
    def coefficients(self) -> tuple[Coefficient, ...]:
        return tuple(map(self.coefficient, range(len(self.xs))))

    def leading_coefficient(self) -> "Poly":
        """The top coefficient, as a constant."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return _poly(self.context, [self.xs[-1]], [self.ys[-1]] if self.ys else [], self.den)

    def coefficient(self, k: int) -> Coefficient:
        x, y = (self.xs[k], self.ys[k] if self.ys else 0) if 0 <= k < len(self.xs) else (0, 0)
        return Coefficient(Fraction(x, self.den), Fraction(y, self.den))

    def _check(self, other: "Poly") -> "Poly":
        if isinstance(other, Poly):
            if other.context != self.context:
                raise ContextMismatchError("mixed polynomial contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.context, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return poly_sum(self.context, ((1, self), (1, o)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.context, tuple(-x for x in self.xs), tuple(-y for y in self.ys), self.den)

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return poly_sum(self.context, ((1, self), (-1, o)))

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        return _product(self, o)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        """self times c: an int, a Fraction or a constant Poly."""
        return _product(self, self._check(c))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.monomial(self.context, 0)
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
        """Division by m = other/lc, whose leading entry is its den L: keeps
        scale*self = quotient*m + remainder on the integer vectors, scaling
        all three by L/gcd(top, L) when a top entry is not a multiple of L."""
        o = self._check(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        n, m = o.degree, o.monic()
        if self.degree < n:
            return Poly.zero(self.context), self
        lead, d, bx, by = m.den, self.context.d or 0, m.xs[:-1], m.ys[:-1]
        rx, ry = list(self.xs), list(self.ys) or ([0] * len(self.xs) if by else [])
        qx, qy, scale = [0] * (len(rx) - n), [0] * (len(rx) - n) if ry else [], 1
        for top in range(len(rx) - 1, n - 1, -1):
            cx, cy = rx[top], ry[top] if ry else 0
            if not cx and not cy:
                continue
            g = gcd(cx, cy, lead)
            if g != lead:
                s = lead // g
                rx, ry, qx, qy = ([s * v for v in vec] for vec in (rx, ry, qx, qy))
                scale *= s
            fx, fy = cx // g, cy // g
            qx[top - n] = fx
            for i, b in enumerate(bx, top - n):
                rx[i] -= fx * b
            if ry:
                qy[top - n] = fy
                for i, b in enumerate(bx, top - n):
                    ry[i] -= fy * b
                for i, b in enumerate(by, top - n):
                    rx[i] -= d * fy * b
                    ry[i] -= fx * b
        den = scale * self.den
        quotient = _poly(self.context, [lead * v for v in qx], [lead * v for v in qy], den)
        if m is not o:
            quotient = _product(quotient, o._inverse_lc())
        return quotient, _poly(self.context, rx[:n], ry[:n], den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero

    def _inverse_lc(self) -> "Poly":
        """1/lc = den*(x - y*w)/(x^2 - d*y^2) for lc = (x + y*w)/den."""
        x, y = self.xs[-1], self.ys[-1] if self.ys else 0
        return _poly(self.context, [self.den * x], [-self.den * y],
                     x * x - (self.context.d or 0) * y * y)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        if self.xs[-1] == self.den and not (self.ys and self.ys[-1]):
            return self
        return _product(self, self._inverse_lc())

    def derivative(self) -> "Poly":
        return _poly(self.context, [i * x for i, x in enumerate(self.xs)][1:],
                     [i * y for i, y in enumerate(self.ys)][1:], self.den)

    def evaluate(self, value) -> "Poly":
        """The constant self(value), for an int, a Fraction or a constant Poly."""
        return self % (Poly.variable(self.context) - value)

    def __str__(self) -> str:
        """Terms from the top, each coefficient as ``_scalar_text`` writes
        it, with its sign outside and a 1 before a power of t left out."""
        parts = []
        for k in range(self.degree, -1, -1):
            x, y = self.xs[k], self.ys[k] if self.ys else 0
            if x or y:
                text = _scalar_text(x, y, self.den)
                body = text[text[0] == "-":]
                if k:
                    var = "t" if k == 1 else f"t^{k}"
                    body = var if body == "1" else f"{body}*{var}"
                parts.append((" - " if text[0] == "-" else " + ") + body)
        text = "".join(parts)  # the first sign is written without spaces
        return ("-" if text[1] == "-" else "") + text[3:] if text else "0"

    def __repr__(self) -> str:
        return f"Poly({self})"


def _scalar_text(x: int, y: int, den: int) -> str:
    """(x + y*w)/den, den > 0, as the parser reads it: n or n/m for a
    rational, w or n/m*w for a pure w part, (a + b*w) for both."""
    def ratio(n: int) -> str:
        g = gcd(n, den)
        return str(n // g) if g == den else f"{n // g}/{den // g}"

    if not y:
        return ratio(x)
    w = "w" if abs(y) == den else f"{ratio(abs(y))}*w"
    return f"({ratio(x)} {'+' if y > 0 else '-'} {w})" if x else w if y > 0 else f"-{w}"


def poly_sum(context: FieldContext, terms: Sequence[tuple[int, Poly]]) -> Poly:
    """The sum of n*p over (n, p), n an int: each vector is added in, times
    n and scaled to the lcm of the denominators, and the sum normalised once."""
    den, xs, ys = lcm(*[p.den for _, p in terms]), [], []
    for n, p in terms:
        s = n * den // p.den
        for acc, v in ((xs, p.xs), (ys, p.ys)):
            acc.extend(repeat(0, len(v) - len(acc)))
            for k, c in enumerate(v):
                acc[k] += s * c
    return _poly(context, xs, ys, den)


def _poly(context: FieldContext, xs: list[int], ys: list[int], den: int) -> Poly:
    """(xs + ys*w)/den in normal form, from fresh lists and den != 0."""
    if any(ys):
        xs += [0] * (len(ys) - len(xs))
        ys += [0] * (len(xs) - len(ys))
        while not xs[-1] and not ys[-1]:
            del xs[-1], ys[-1]
    else:
        ys = []
        while xs and not xs[-1]:
            xs.pop()
        if not xs:
            return Poly(context, ())
    g = gcd(den, *xs, *ys) * (1 if den > 0 else -1)
    if g != 1:
        xs, ys, den = [x // g for x in xs], [y // g for y in ys], den // g
    return Poly(context, tuple(xs), tuple(ys), den)


def _product(p: Poly, q: Poly) -> Poly:
    """p*q with w^2 = d by Kronecker substitution: each vector becomes its
    value at t = 2^(8*size), 2^(8*size-1) being above every entry of the
    product, the parts are combined as integers, and their base-2^(8*size)
    digits, read through bytes offset to be nonnegative, are the result."""
    if not p.xs or not q.xs:
        return Poly(p.context, ())
    d = p.context.d or 0
    if len(q.xs) == 1 or len(p.xs) == 1:  # a constant times a vector, entry by entry
        c, v = (q, p) if len(q.xs) == 1 else (p, q)
        cx, cy, pairs = c.xs[0], c.ys[0] if c.ys else 0, list(zip(v.xs, v.ys or repeat(0)))
        return _poly(p.context, [cx * x + d * cy * y for x, y in pairs],
                     [cy * x + cx * y for x, y in pairs], p.den * q.den)
    size = (max(map(abs, p.xs + p.ys)) * max(map(abs, q.xs + q.ys))
            * min(len(p.xs), len(q.xs)) * (1 + abs(d))).bit_length() // 8 + 1
    half, n = 1 << (8 * size - 1), len(p.xs) + len(q.xs) - 1
    step = half.to_bytes(size, "little")

    def pack(v):
        data = b"".join((c + half).to_bytes(size, "little") for c in v)
        return int.from_bytes(data, "little") - int.from_bytes(step * len(v), "little")

    def unpack(x):
        data = (x + int.from_bytes(step * n, "little")).to_bytes(n * size, "little")
        return [int.from_bytes(data[i:i + size], "little") - half for i in range(0, n * size, size)]

    px, py, qx, qy = pack(p.xs), pack(p.ys), pack(q.xs), pack(q.ys)
    ys = unpack(px * qy + py * qx) if p.ys or q.ys else []
    return _poly(p.context, unpack(px * qx + d * py * qy), ys, p.den * q.den)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2, 3, 5 and 7 for odd n above 7, with
    n - 1 = 2^s * (n >> s), exact below 3,215,031,751 (Pomerance, Selfridge
    and Wagstaff, 1980)."""
    s = (n - 1 & 1 - n).bit_length() - 1
    return all(pow(a, n >> s, n) in (1, n - 1) or n - 1 in [pow(a, n >> j, n) for j in range(1, s)]
               for a in (2, 3, 5, 7))


# Primes counting down from 2^30, each searched for once, when a gcd first
# needs it: a residue below 2^30 is a one-digit int.  Those p = 3 mod 4, where
# d^((p+1)/4) is a square root of d whenever d is a square mod p, serve every
# field but Q(sqrt(-1)), as -1 is a square modulo none of them; it takes the
# p = 5 mod 8 (key 8), where ``_square_roots_mod`` uses Atkin's formula.
_PRIMES: dict[int, list[int]] = {4: [], 8: []}


def modular_primes(d: int | None) -> Iterator[int]:
    """The primes for Q(sqrt(d)) in order, kept in ``_PRIMES`` and extended
    as far as the caller reads; entry i depends only on entry i - 1, so
    concurrent callers store one value."""
    step = 8 if d == -1 else 4
    primes = _PRIMES[step]
    for i in count():
        if i == len(primes):
            n = primes[i - 1] - step if i else 2**30 - step // 2 + 1
            while not _is_prime(n):
                n -= step
            primes[i:i + 1] = [n]
        yield primes[i]


@lru_cache(maxsize=1024)
def _square_roots_mod(d: int, prime: int) -> tuple[int, ...]:
    """Square roots of d modulo a prime = 3 mod 4 or = 5 mod 8 (Atkin, 1992);
    none if d is no nonzero square."""
    if prime % 4 == 3:
        r = pow(d, (prime + 1) // 4, prime)
    else:
        v = pow(2 * d, prime // 8, prime)
        r = d * v * (2 * d * v * v - 1) % prime
    return (r, prime - r) if d % prime and r * r % prime == d % prime else ()


def _image(p: Poly, prime: int, root: int) -> list[int] | None:
    """Image of den*p in F_prime[t] under w -> root, lowest degree first;
    None when prime divides den or the leading coefficient maps to 0."""
    image = [(x + y * root) % prime for x, y in zip(p.xs, p.ys or repeat(0))]
    return image if image[-1] and p.den % prime else None


def _gcd_mod(a: list[int], b: list[int], prime: int) -> list[int]:
    """Monic gcd in F_prime[t] of nonzero a, b (low degree first, no leading zeros)."""
    while b:
        n, inv, r = len(b) - 1, pow(b[-1], -1, prime), list(a)
        for top in range(len(r) - 1, n - 1, -1):
            c = r[top] % prime * inv % prime
            if c:
                for i, v in enumerate(b[:n], top - n):
                    r[i] -= c * v
        r = [v % prime for v in r[:n]]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def _cofactor_mod(a: list[int], g: list[int], prime: int) -> list[int]:
    """Monic a / g in F_prime[t] for a monic g dividing a: each quotient
    coefficient takes the place of the top entry it eliminates."""
    n, r, inv = len(g) - 1, list(a), pow(a[-1], -1, prime)
    for top in range(len(r) - 1, n - 1, -1):
        c = r[top] = r[top] % prime
        for i, v in enumerate(g[:n], top - n):
            r[i] -= c * v
    return [c * inv % prime for c in r[n:]]


def _reconstruct(context: FieldContext, residues: list[int], modulus: int) -> Poly | None:
    """The polynomial whose xs then ys, over one denominator at most
    sqrt(modulus/2), are congruent to residues: each residue times the
    denominator so far is lifted to the n/e with |n|, e <= sqrt(modulus/2)
    (Wang, Guy and Davenport, SIGSAM Bull. 16, 1982), else None."""
    bound, nums, den = isqrt(modulus // 2), [], 1
    for u in residues:
        r0, r1, s0, s1 = modulus, u * den % modulus, 0, 1
        while r1 > bound:
            quo = r0 // r1
            r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
        if abs(s1) * den > bound or gcd(r1, s1) != 1:
            return None
        nums = [v * abs(s1) for v in nums] + [r1 if s1 > 0 else -r1]
        den *= abs(s1)
    half = len(nums) // 2 if context.is_quadratic else len(nums)
    return _poly(context, nums[:half], nums[half:], den)


def _modular_gcd(p: Poly, q: Poly) -> Poly:
    """(g, p/g, q/g) for the monic gcd g of nonconstant p and q, deg p >=
    deg q, from their images modulo ``modular_primes(d)``.

    A prime l is usable when d is a nonzero square r^2 mod l, l divides no
    denominator and both leading coefficients survive w -> r.  Then the
    image gcd has degree >= deg gcd(p, q) (subresultants map to those of
    the images), so an image gcd of 1 proves the inputs coprime.  Else the
    gcds under w -> r and w -> -r, when of one degree, give the x and y
    parts of gcd(p, q) mod l.  When that degree is more than half of
    deg q, the parts of the monic cofactor q/gcd are lifted instead (Brown,
    J. ACM 18, 1971), as they are smaller.  The parts of the lowest degree
    seen are combined by Chinese remaindering and lifted to a candidate
    when the number of primes combined is a power of two, so all the lifts
    cost at most twice the last.  A candidate gcd counts only if it divides
    p and q (a cofactor: if it divides q and its quotient divides p); then
    deg candidate <= deg gcd <= deg image, and the monic candidate of the
    image's degree is the gcd.  The quotients of those trial divisions are
    the cofactors returned, so no caller divides by g again.
    Unlucky primes are finitely many, and d is a square modulo infinitely
    many primes of its supply, so the supply reaches it."""
    d, degree = p.context.d, len(q.xs) + 1
    for prime in modular_primes(d):
        roots, images = (0,) if d is None else _square_roots_mod(d, prime), []
        for r in roots:
            a, b = _image(p, prime, r), _image(q, prime, r)
            if a is None or b is None:
                break
            images.append((_gcd_mod(a, b, prime), b))
            if len(images[-1][0]) == 1:
                return Poly.monomial(p.context, 0), p, q
        sizes = {len(g) for g, _ in images}
        if not images or len(images) < len(roots) or len(sizes) > 1 or min(sizes) > degree:
            continue
        if min(sizes) < degree:
            degree, modulus, residues, used = min(sizes), 1, repeat(0), 0
            cofactor = 2 * degree > len(q.xs) + 1
        images = [_cofactor_mod(b, g, prime) if cofactor else g for g, b in images]
        if d is not None:
            half, inv = (prime + 1) // 2, pow(2 * roots[0], -1, prime)
            images = [[(u + v) * half for u, v in zip(*images)],
                      [(u - v) * inv for u, v in zip(*images)]]
        c = pow(modulus, -1, prime)
        residues = [u + modulus * ((v - u) * c % prime)
                    for u, v in zip(residues, [v for g in images for v in g])]
        modulus, used = modulus * prime, used + 1
        if used & (used - 1):
            continue
        candidate = _reconstruct(p.context, residues, modulus)
        if candidate is not None and cofactor:
            g, rest = divmod(q, candidate)
            q_g = candidate.scale(q.leading_coefficient())  # q/gcd, as candidate is monic
            candidate = g.monic() if rest.is_zero else None
        if candidate is not None:
            p_g, rest = divmod(p, candidate)
            if rest.is_zero and not cofactor:
                q_g, rest = divmod(q, candidate)
            if rest.is_zero:
                return candidate, p_g, q_g


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd, proved by a trial division; gcd(p, 0) is monic p."""
    return _gcd_cofactors(p, q)[0]


def _gcd_cofactors(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, p/g, q/g) for g = ``poly_gcd(p, q)``: the quotients are those of
    the trial divisions that prove g, and coprime inputs give (1, p, q)."""
    if p.context != q.context:
        raise ContextMismatchError("mixed polynomial contexts")
    if p.is_zero and q.is_zero:
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if p.is_zero or q.is_zero:
        return ((q if p.is_zero else p).monic(),
                *(r if r.is_zero else r.leading_coefficient() for r in (p, q)))
    if p.is_constant or q.is_constant:
        return Poly.monomial(p.context, 0), p, q
    if p.degree >= q.degree:
        return _modular_gcd(p, q)
    g, q_g, p_g = _modular_gcd(q, p)
    return g, p_g, q_g


def is_squarefree(p: Poly) -> bool:
    """No repeated roots; requires a nonzero polynomial."""
    if p.is_zero:
        raise ZeroPolynomialError("squarefreeness of 0 is undefined")
    return poly_gcd(p, p.derivative()).is_constant


def squarefree_decompose(p: Poly) -> tuple[Poly, list[tuple[Poly, int]]]:
    """Yun decomposition p = content * prod f_i^{m_i} (content the leading
    coefficient as a constant; f_i monic, squarefree, pairwise coprime,
    characteristic zero).  Needs degree >= 1."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    if p.is_constant:
        raise ZeroPolynomialError("cannot decompose a constant polynomial")
    return p.leading_coefficient(), _yun(p)


def _yun(p: Poly) -> list[tuple[Poly, int]]:
    """The (f_i, m_i) of ``squarefree_decompose`` for a nonconstant p; each
    step's c/f and d/f come with its gcd f (``_gcd_cofactors``)."""
    a = p.monic()
    g, c, d = _gcd_cofactors(a, a.derivative())
    if g.is_constant:
        return [(a, 1)]
    factors: list[tuple[Poly, int]] = []
    for i in count(1):
        if c.is_constant:
            return factors
        f, c, d = _gcd_cofactors(c, d - c.derivative())
        if not f.is_constant:
            factors.append((f, i))


def gcdfree_basis(polys: Sequence[Poly]) -> tuple[list[Poly], list[list[int]]]:
    """Gcd-free basis of nonzero polynomials, plus the exponent matrix.

    The generators are monic, squarefree, nonconstant and pairwise coprime
    by construction, so nothing checks them again.  Every input is its
    leading coefficient times the product of the generators raised to its
    exponent row.  Each generator carries its row through the refinement:
    when a Yun factor f of multiplicity m of input i meets a generator b,
    g = gcd(f, b) gets b's row plus m in column i, the cofactor b/g keeps
    b's row, and what is left of f becomes a new one with m in column i.
    No command reaches it (fiber places come from Yun factors); it stays as
    the tests' oracle and for perfbench's tracer, which binds it by name."""
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
        for f, m in _yun(p):
            refined: list[tuple[Poly, list[int]]] = []
            for b, row in basis:
                g = poly_gcd(f, b)
                if g.is_constant:
                    refined.append((b, row))
                    continue
                rest, f = b // g, f // g
                if not rest.is_constant:
                    refined.append((rest, row))
                refined.append((g, [e + m if j == i else e for j, e in enumerate(row)]))
            if not f.is_constant:
                refined.append((f, [m if j == i else 0 for j in range(len(polys))]))
            basis = refined

    basis = place_order(basis)
    exponents = [[row[i] for _, row in basis] for i in range(len(polys))]
    return [b for b, _ in basis], exponents


def place_order(places: list[tuple]) -> list[tuple]:
    """Tuples headed by distinct monic generators in the fiber order:
    degree, then (x, y) of each coefficient from the top, over one
    denominator (the order of the Fraction pairs)."""
    den = lcm(*[b.den for b, *_ in places])

    def key(entry):
        b, s = entry[0], den // entry[0].den
        return len(b.xs), [(s * x, s * y) for x, y in zip(b.xs[::-1], b.ys[::-1] or repeat(0))]

    return sorted(places, key=key)


class Place(NamedTuple):
    """A closed point of the affine line, given by its monic squarefree
    generator, or the place at infinity (generator None); the generator's
    degree counts geometric points.  Unchecked: ``valuation`` checks a
    place a caller passes in, the fiber analysis takes its places from
    Yun factors, squarefree by construction."""

    generator: Poly | None

    @property
    def degree(self) -> int:
        """Number of geometric points over this place."""
        return 1 if self.generator is None else self.generator.degree

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
    if g.monic() != g:
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
