"""Elliptic surfaces y^2 = x^3 + a(t) x + b(t) over an exact ground field.

The discriminant convention is Delta = 4a^3 + 27b^2 (no extra unit).  Fiber
types at finite places come from the valuation triple (v_a, v_b, v_Delta)
through the residue-characteristic-zero table.  At infinity the triple is
read from degrees: (4k - deg a, 6k - deg b, 12k - deg Delta), where k is
minimal with deg a <= 4k and deg b <= 6k (and k >= 1); these are the
valuations at u = 0 after the coordinate flip u = 1/t with a, b rescaled by
u^{4k}, u^{6k} (``flip_model``); a zero coefficient has valuation OMEGA.
Euler numbers obey sum(degree * e) = 12k exactly when the model is
relatively minimal; a failed match is reported, never silently repaired.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import (
    ContextMismatchError,
    InconsistentValuationsError,
    InvalidModelError,
    Record,
)
from .polyfield import (OMEGA, FieldContext, Place, Poly, _gcd_cofactors, _poly, _yun, place_order,
                        poly_sum)

NON_MINIMAL = "NON_MINIMAL"

_IN_RE = re.compile(r"I(0|[1-9][0-9]*)(\*?)")  # one spelling per type: fullmatch it
_FIXED_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


def is_multiplicative(symbol: str) -> bool:
    """I_n for some n >= 0 (the only types that admit multiple fibers)."""
    m = _IN_RE.fullmatch(symbol)
    return bool(m) and not m.group(2)


def fiber_euler_number(symbol: str) -> int:
    """e(I_n) = n, e(I_n*) = n + 6, and the fixed additive values."""
    if symbol in _FIXED_EULER:
        return _FIXED_EULER[symbol]
    m = _IN_RE.fullmatch(symbol)
    if not m:
        raise ValueError(f"unknown fiber type {symbol!r}")
    n = int(m.group(1))
    return n + 6 if m.group(2) else n


def _check_valuations(v_a, v_b, v_delta) -> None:
    for name, v in (("v_a", v_a), ("v_b", v_b), ("v_delta", v_delta)):
        if v is not OMEGA and not (isinstance(v, int) and v >= 0):
            raise InconsistentValuationsError(f"{name} must be a nonnegative integer or OMEGA")
    if v_delta is OMEGA:
        raise InconsistentValuationsError("identically vanishing discriminant")


def minimalize_at_place(v_a, v_b, v_delta) -> tuple[object, object, int, int]:
    """Strip (4, 6, 12) while both thresholds are met; returns the reduced
    triple and the number of steps."""
    _check_valuations(v_a, v_b, v_delta)
    steps = 0
    while v_a >= 4 and v_b >= 6:
        if v_delta < 12:
            raise InconsistentValuationsError(
                f"triple ({v_a}, {v_b}, {v_delta}) cannot come from 4a^3 + 27b^2"
            )
        v_a, v_b, v_delta = v_a - 4, v_b - 6, v_delta - 12
        steps += 1
    return v_a, v_b, v_delta, steps


def kodaira_type_from_valuations(v_a, v_b, v_delta) -> str:
    """Fiber type of a (local) Weierstrass equation from its valuation
    triple; NON_MINIMAL when a (4, 6, 12)-reduction still applies."""
    _check_valuations(v_a, v_b, v_delta)

    def require(condition: bool, symbol: str) -> str:
        if not condition:
            raise InconsistentValuationsError(
                f"triple ({v_a}, {v_b}, {v_delta}) matches no fiber-type row"
            )
        return symbol

    if v_a >= 4 and v_b >= 6:
        return require(v_delta >= 12, NON_MINIMAL)
    if v_delta == 0:
        return require(v_a == 0 or v_b == 0, "I0")
    if v_a == 0:
        return require(v_b == 0, f"I{v_delta}")
    # now v_a >= 1 (possibly OMEGA) and v_delta >= 1
    if v_b == 1:
        return require(v_delta == 2, "II")
    if v_a == 1:
        return require(v_delta == 3, "III")
    if v_b == 2:
        return require(v_delta == 4, "IV")
    if v_a == 2 and v_b == 3:
        return require(v_delta >= 6, f"I{v_delta - 6}*")
    if v_a == 2 or v_b == 3:
        return require(v_delta == 6, "I0*")
    if v_b == 4:
        return require(v_delta == 8, "IV*")
    if v_a == 3:
        return require(v_delta == 9, "III*")
    if v_b == 5:
        return require(v_delta == 10, "II*")
    raise InconsistentValuationsError(
        f"triple ({v_a}, {v_b}, {v_delta}) matches no fiber-type row"
    )


class WeierstrassModel(Record):
    """y^2 = x^3 + a(t) x + b(t) with 4a^3 + 27b^2 not identically zero.
    The discriminant is computed once, by ``__post_init__`` (which
    perfbench's tracer wraps on the class), and kept as ``delta``."""

    __slots__ = ("a", "b", "delta")
    _fields = ("a", "b")

    def __init__(self, a: Poly, b: Poly):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self.__post_init__()

    def __post_init__(self):
        if self.a.context != self.b.context:
            raise ContextMismatchError("a and b over different contexts")
        delta = poly_sum(self.a.context, ((4, self.a ** 3), (27, self.b ** 2)))
        if delta.is_zero:
            raise InvalidModelError("discriminant 4a^3 + 27b^2 vanishes identically")
        object.__setattr__(self, "delta", delta)

    @property
    def context(self) -> FieldContext:
        return self.a.context

    @property
    def k(self) -> int:
        """Minimal k >= 1 with deg a <= 4k and deg b <= 6k (a zero
        polynomial, of degree -1, bounds nothing)."""
        return max(1, -(-self.a.degree // 4), -(-self.b.degree // 6))


def discriminant(model: WeierstrassModel) -> Poly:
    return model.delta


def j_map(model: WeierstrassModel) -> tuple[Poly, Poly]:
    """J = 4a^3 / (4a^3 + 27b^2) in lowest terms, denominator monic."""
    _, num, den = _gcd_cofactors(4 * model.a ** 3, model.delta)
    return num // den.leading_coefficient(), den.monic()


def flip_model(model: WeierstrassModel) -> WeierstrassModel:
    """The same surface in the coordinate u = 1/t: coefficients reversed
    after padding a to degree 4k and b to degree 6k.  Its fiber at u = 0 is
    the fiber at infinity that ``analyze_fibers`` reads from degrees."""
    k = model.k

    def reverse(p: Poly, length: int) -> Poly:
        pad = [0] * (length + 1 - len(p.xs))
        ys = [*p.ys, *pad][::-1] if p.ys else []
        return _poly(p.context, [*p.xs, *pad][::-1], ys, p.den)

    return WeierstrassModel(reverse(model.a, 4 * k), reverse(model.b, 6 * k))


class KodairaFiber(NamedTuple):
    """Classified fiber over one place.  Valuations are those of the model
    as given; the type is read off after (4, 6, 12)-minimalization."""

    place: Place
    kodaira_type: str
    v_a: object
    v_b: object
    v_delta: int
    minimalization_steps: int

    @property
    def degree(self) -> int:
        return self.place.degree

    @property
    def euler(self) -> int:
        """The minimal v(Delta): in residue characteristic 0 a minimal
        fiber's Euler number is its v(Delta) (Ogg, Amer. J. Math. 89, 1967),
        as each row of ``kodaira_type_from_valuations`` requires."""
        return self.v_delta - 12 * self.minimalization_steps

    @property
    def is_singular(self) -> bool:
        return self.kodaira_type != "I0"

    def as_record(self) -> dict:
        return {
            "place": str(self.place),
            "degree": self.degree,
            "type": self.kodaira_type,
            "v_a": None if self.v_a is OMEGA else self.v_a,
            "v_b": None if self.v_b is OMEGA else self.v_b,
            "v_delta": self.v_delta,
            "euler": self.euler,
        }


class FiberAnalysis(NamedTuple):
    k: int
    fibers: tuple[KodairaFiber, ...]
    surface: str  # coarse class read from k: "rational", "K3" or "other(k=...)"
    relatively_minimal: bool
    euler_total: int  # sum of degree * euler over the fibers

    @property
    def expected_euler(self) -> int:
        return 12 * self.k

    def as_report(self) -> dict:
        return {**self._asdict(), "expected_euler": self.expected_euler,
                "fibers": [f.as_record() for f in self.fibers]}


def _classify(place: Place, v_a, v_b, v_delta: int) -> KodairaFiber:
    ra, rb, rd, steps = minimalize_at_place(v_a, v_b, v_delta)
    symbol = kodaira_type_from_valuations(ra, rb, rd)
    return KodairaFiber(place, symbol, v_a, v_b, v_delta, steps)


def _finite_places(a: Poly, b: Poly, delta: Poly) -> list[tuple]:
    """(generator, v_a, v_b, v_Delta) of each place on a, b or Delta, in
    ``place_order``, from Yun factors: b's or a's for a = 0 or b = 0.  Else
    a = g*a1 and b = g*b1 for g = gcd(a, b), and Delta = g^2*E with E =
    4a*a1^2 + 27b1^2 (Tate's first step; E = Delta for g = 1).  A place off
    g lies on exactly one of a1, b1 and E, with its Yun multiplicity there;
    only g's Yun factors, rows (m, m, 2m), are split by those that meet them."""
    if a.is_zero:
        return place_order([(f, OMEGA, m, 2 * m) for f, m in _yun(b)])
    if b.is_zero:
        return place_order([(f, m, OMEGA, 3 * m) for f, m in _yun(a)])
    g, a1, b1 = _gcd_cofactors(a, b)
    e = delta if g.is_constant else poly_sum(a.context, ((4, a * a1 ** 2), (27, b1 ** 2)))
    places, on_g = [], [] if g.is_constant else [(h, m, m, 2 * m) for h, m in _yun(g)]
    for i, p in enumerate((a1, b1, e)):
        for f, m in [] if p.is_constant else _yun(p):
            split = []
            for h, *row in on_g:
                s, h, f = _gcd_cofactors(h, f)
                split += [(s, *(v + m if j == i else v for j, v in enumerate(row))), (h, *row)]
            on_g = [piece for piece in split if not piece[0].is_constant]
            if not f.is_constant:
                places.append((f, *(m if j == i else 0 for j in range(3))))
    return place_order(places + on_g)


def analyze_fibers(model: WeierstrassModel) -> FiberAnalysis:
    """Classify the fiber over every finite place (``_finite_places``, in
    ``place_order``) and over infinity, with exact Euler bookkeeping.

    Finite valuations are sums of Yun multiplicities (OMEGA for a zero a or
    b); at infinity they are 4k - deg a, 6k - deg b and 12k - deg Delta."""
    k = model.k
    polys = (model.a, model.b, model.delta)
    places = _finite_places(*polys) if any(not p.is_constant for p in polys) else []
    at_infinity = [OMEGA if p.is_zero else w * k - p.degree for p, w in zip(polys, (4, 6, 12))]
    fibers = (*(_classify(Place(g), *v) for g, *v in places), _classify(Place(None), *at_infinity))
    minimal = all(f.minimalization_steps == 0 for f in fibers)
    analysis = FiberAnalysis(k, fibers, {1: "rational", 2: "K3"}.get(k, f"other(k={k})"), minimal,
                             sum(f.degree * f.euler for f in fibers))
    if minimal and analysis.euler_total != analysis.expected_euler:
        raise InconsistentValuationsError(
            "internal error: Euler sum differs from 12k on a minimal model")
    return analysis


class FiberConfiguration(Record):
    """A multiset of fibers with multiplicities: entries are
    (multiplicity, type, count).  Multiple fibers (multiplicity > 1)
    exist only for the I_n types; they leave ``euler_total`` unchanged."""

    __slots__ = ("entries", "euler_total")
    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, str, int], ...]):
        total = 0
        for mult, symbol, count in entries:
            # fiber_euler_number raises ValueError on an unknown type
            total += count * fiber_euler_number(symbol)
            if mult < 1 or count < 1:
                raise ValueError("multiplicity and count must be positive")
            if mult > 1 and not is_multiplicative(symbol):
                raise ValueError(
                    f"multiplicity {mult} on type {symbol}: only I_n fibers "
                    "can be multiple"
                )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "euler_total", total)

    def __str__(self) -> str:
        parts = []
        for mult, symbol, count in self.entries:
            tag = f"{mult}x{symbol}" if mult > 1 else symbol
            parts.append(tag if count == 1 else f"{count}*{tag}")
        return " + ".join(parts)


class EulerCheck(NamedTuple):
    passed: bool
    total: int
    expected: int


def config_euler_check(config: FiberConfiguration, expected: int) -> EulerCheck:
    """Compare the configuration's Euler sum with an expected total."""
    total = config.euler_total
    return EulerCheck(total == expected, total, expected)
