"""Exact scalar and polynomial layer.

Derived expectations (gcd triviality, squarefree splittings) are checked
against sympy as an independent implementation before being asserted.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
import sympy
from helpers import (
    CONTEXTS,
    QI,
    load_perfbench,
    random_coefficient,
    random_nonzero_poly,
    sympy_domain,
    sympy_poly,
)

from k3auto import parsing, polyfield
from k3auto.ellsurf import WeierstrassModel, analyze_fibers
from k3auto.errors import (
    ContextMismatchError,
    InvalidPlaceError,
    ParseError,
    ZeroPolynomialError,
)
from k3auto.parsing import parse_poly
from k3auto.polyfield import (
    OMEGA,
    FieldContext,
    Place,
    Poly,
    RATIONALS,
    gcdfree_basis,
    is_squarefree,
    poly_gcd,
    squarefree_decompose,
    valuation,
)

Q = RATIONALS
QW3 = FieldContext(d=-3)

_T = sympy.Symbol("t")


def to_sympy(p: Poly):
    d = p.context.d
    w = sympy.sqrt(d) if d is not None else 0
    return sympy.expand(
        sum(
            (sympy.Rational(c.x) + sympy.Rational(c.y) * w) * _T ** k
            for k, c in enumerate(p.coefficients)
        )
    )


def test_rational_field_arithmetic():
    # constants are polynomials of degree 0
    a = Poly.constant(Q, Fraction(2, 3))
    b = Poly.constant(Q, Fraction(-1, 6))
    assert (a + b).coefficient(0).x == Fraction(1, 2)
    assert (a * b).coefficient(0).x == Fraction(-1, 9)
    assert (a // b).coefficient(0).x == -4
    assert (a - a).is_zero


def test_quadratic_field_arithmetic():
    w = parse_poly("w", QW3)
    assert (w * w).coefficient(0).x == -3
    s = Poly.make(QW3, [(0, Fraction(2, 9))])
    # the constant with s^2 = -4/27
    assert (s * s).coefficient(0).x == Fraction(-4, 27)
    assert (s * s).coefficient(0).y == 0
    e = Poly.make(QW3, [(Fraction(1, 2), Fraction(-3, 7))])
    one = Poly.constant(QW3, 1)
    assert e * (one // e) == one


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Poly.constant(QW3, 1) // Poly.zero(QW3)


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        Poly.constant(Q, 1) + Poly.constant(QW3, 1)
    with pytest.raises(ContextMismatchError):
        Poly.variable(Q) * Poly.variable(QW3)


def test_context_validation():
    with pytest.raises(ValueError):
        FieldContext(d=4)  # square
    with pytest.raises(ValueError):
        FieldContext(d=12)  # not squarefree
    with pytest.raises(ValueError):
        Poly.make(Q, [(1, 1)])  # no generator over Q


def test_poly_divmod_identity():
    import random

    rng = random.Random(1101)
    for _ in range(200):
        p = Poly.make(Q, [rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        q = Poly.make(Q, [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        if q.is_zero:
            continue
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.is_zero or rem.degree < q.degree


def test_poly_power_multiplies_only_as_needed(monkeypatch):
    p = parse_poly("2*t^3 - w*t + 1/3", QW3)
    product = Poly.constant(QW3, 1)
    for n in range(10):
        assert p ** n == product
        product = product * p
    assert Poly.zero(Q) ** 0 == Poly.constant(Q, 1)
    with pytest.raises(ValueError):
        p ** -1

    calls = []
    mul = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for n, expected in ((2, 1), (3, 2), (0, 0), (1, 0), (8, 3)):
        calls.clear()
        p ** n
        assert len(calls) == expected, n


def test_poly_gcd_matches_sympy():
    cases = [
        ("t^3 - t", "t^2 - 1"),
        ("(t - 1)^2 * (t + 2)", "(t - 1) * (t + 5)"),
        ("t^4 + 2*t^2 + 1", "t^2 + 1"),
    ]
    for left, right in cases:
        p, q = parse_poly(left, Q), parse_poly(right, Q)
        g = poly_gcd(p, q)
        expected = sympy.gcd(to_sympy(p), to_sympy(q), _T)
        assert to_sympy(g) == sympy.monic(expected, _T)
        assert (p % g).is_zero and (q % g).is_zero


def _euclid(p, q):
    """Plain Euclid, the reference the modular shortcut must agree with."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _spy_image_gcds(monkeypatch, primes=()):
    """The (prime, image gcd) pairs poly_gcd computes, appended as it runs;
    the given primes are tried first, then the generated supply."""
    calls = []
    gcd_mod = polyfield._gcd_mod

    def spy(a, b, prime):
        image = gcd_mod(a, b, prime)
        calls.append((prime, image))
        return image

    monkeypatch.setattr(polyfield, "modular_primes",
                        lambda d: itertools.chain(primes, GENERATED_PRIMES(d)))
    monkeypatch.setattr(polyfield, "_gcd_mod", spy)
    return calls


GENERATED_PRIMES = polyfield.modular_primes


def _first_usable_prime(d):
    """The first generated prime modulo which d is a nonzero square."""
    return next(l for l in GENERATED_PRIMES(d) if d is None or pow(d, l // 2, l) == 1)


def test_poly_gcd_matches_euclid_and_sympy_on_seeded_pairs(monkeypatch):
    # half of the pairs share a random factor; the other half are almost
    # always coprime, which the first image gcd settles
    images = _spy_image_gcds(monkeypatch)
    rng = random.Random(2024)
    certified = 0
    for context in CONTEXTS:
        domain = sympy_domain(context)
        for i in range(24):
            p, q = (random_nonzero_poly(rng, context) for _ in range(2))
            if i % 2:
                common = random_nonzero_poly(rng, context, max_degree=3)
                p, q = p * common, q * common
            images.clear()
            g = poly_gcd(p, q)
            assert g == _euclid(p, q), (p, q)
            expected = sympy_poly(p, domain).gcd(sympy_poly(q, domain)).monic()
            assert sympy_poly(g, domain) == expected, (p, q)
            certified += [image for _, image in images[:1]] == [[1]]
    assert certified >= 24
    # shared factors with 64-bit coefficients and a w part need several
    # primes, and those with 400-bit ones more: the primes decide both, over
    # Q(sqrt(-1)) too, whose primes are the p = 5 mod 8.
    # Cofactors of degree >= 3 keep the image gcd at most half the degree
    # of either input, so the gcd itself is lifted
    def cofactor():
        while True:
            f = random_nonzero_poly(rng, context, max_degree=4)
            if f.degree >= 3:
                return f

    for context in (QW3, FieldContext(d=5), QI):
        domain = sympy_domain(context)
        used = []
        for bits in (64, 400):
            def big():
                return rng.getrandbits(bits) - 2 ** (bits - 1)
            common = Poly.make(context, [(big(), big()) for _ in range(3)])
            p, q = cofactor() * common, cofactor() * common
            images.clear()
            g = poly_gcd(p, q)
            assert g == _euclid(p, q), (p, q)
            assert common.monic().divides(g) and g.ys
            expected = sympy_poly(p, domain).gcd(sympy_poly(q, domain)).monic()
            assert sympy_poly(g, domain) == expected, (p, q)
            used.append(len({prime for prime, _ in images}))
        assert 3 <= used[0] < used[1], used


LADDER_B = ("(123456789012345678901234567890123456789/97*t^6"
            " - 98765432109876543210987654321*w*t^3"
            " + 55555555555555555555555555/7*t + 1234567890123456789*w)")


@pytest.mark.parametrize("d", [5, -3, -1])
def test_poly_gcd_lifts_the_cofactor_of_a_large_shared_factor(monkeypatch, d):
    # p = B^4 * (t^2 + 1) and p' share B^3, of degree 18 with coefficients
    # of hundreds of bits; the image gcd has more than half the degree of
    # p', so the cofactor p'/B^3, of degree 7, is lifted instead
    context = FieldContext(d=d)
    p = parse_poly(f"{LADDER_B}^4 * (t^2 + 1)", context)
    cofactors = []
    cofactor_mod = polyfield._cofactor_mod
    monkeypatch.setattr(polyfield, "_cofactor_mod",
                        lambda *args: cofactors.append(cofactor_mod(*args)) or cofactors[-1])
    g = poly_gcd(p, p.derivative())
    assert g == parse_poly(f"{LADDER_B}^3", context).monic() == _euclid(p, p.derivative())
    assert cofactors and {len(c) - 1 for c in cofactors} == {7}
    domain = sympy_domain(context)
    expected = sympy_poly(p, domain).gcd(sympy_poly(p.derivative(), domain)).monic()
    assert sympy_poly(g, domain) == expected


@pytest.mark.parametrize("d, primes", [(None, (103, 107, 127)), (-3, (103, 107, 127)),
                                       (5, (139, 179, 199))])
def test_unlucky_prime_is_outvoted(monkeypatch, d, primes):
    # modulo the first prime l, t + l and t + 2l both map to t, so the image
    # gcd t^2 * (shared) has degree 3, one above the gcd; its lift (q itself,
    # from the cofactor 1) does not divide p, and the next usable prime, of
    # degree 2, starts the residues afresh
    context = FieldContext(d=d)
    shared = "t - w" if d else "t - 1"
    p, q = (parse_poly(f"t * ({shared}) * (t + {k * primes[0]})", context) for k in (1, 2))
    images = _spy_image_gcds(monkeypatch, primes)
    g = poly_gcd(p, q)
    assert g == _euclid(p, q) == parse_poly(f"t * ({shared})", context)
    domain = sympy_domain(context)
    assert sympy_poly(g, domain) == sympy_poly(p, domain).gcd(sympy_poly(q, domain)).monic()
    assert [len(image) - 1 for prime, image in images if prime == primes[0]][0] == 3
    assert len(images[-1][1]) - 1 == 2


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % k for k in range(2, isqrt(n) + 1))


def test_modular_primes_are_primes_3_mod_4():
    # Miller-Rabin against trial division on every odd n from 9 to 9999 first:
    # a test that rejected every prime = 5 mod 8 would leave the generator
    # for Q(sqrt(-1)) searching forever
    odd = range(9, 10000, 2)
    assert [n for n in odd if polyfield._is_prime(n)] == \
        [n for n in odd if _is_prime_by_trial_division(n)]
    # then the primes = 3 mod 4 and, for Q(sqrt(-1)) alone, = 5 mod 8
    for d, start, step in ((None, 2 ** 30 - 1, 4), (5, 2 ** 30 - 1, 4), (-1, 2 ** 30 - 3, 8)):
        oracle = (n for n in range(start, 0, -step) if _is_prime_by_trial_division(n))
        first = list(itertools.islice(polyfield.modular_primes(d), 20))
        assert first == list(itertools.islice(oracle, 20)), d
    # strong pseudoprimes = 3 mod 4 to the bases 2, to 2 and 3, and to all
    # four: Miller-Rabin rejects the first two kinds, and is exact only
    # below the third
    for n, bases in ((2047, 1), (42799, 1), (90751, 1), (1530787, 2), (3116107, 2),
                     (3215031751, 4)):
        assert not _is_prime_by_trial_division(n)
        passed = [pow(a, n // 2, n) in (1, n - 1) for a in (2, 3, 5, 7)]
        assert passed == [True] * bases + [False] * (4 - bases), n
        assert polyfield._is_prime(n) == (bases == 4)
    assert 3215031751 > 2 ** 31
    # = 5 mod 8, n - 1 = 4 * (n >> 2): a Fermat pseudoprime to the base 2,
    # and strong pseudoprimes to the base 2 (2^(n >> 2) is not +-1, its square
    # is -1) and to 2 and 3
    for n, bases in ((341, 0), (3277, 1), (1373653, 2)):
        assert not _is_prime_by_trial_division(n) and pow(2, n - 1, n) == 1
        passed = [pow(a, n >> 2, n) in (1, n - 1) or pow(a, n >> 1, n) == n - 1
                  for a in (2, 3, 5, 7)]
        assert passed == [True] * bases + [False] * (4 - bases), n
        assert not polyfield._is_prime(n)
    assert pow(2, 3277 >> 2, 3277) not in (1, 3276)


def test_importing_polyfield_generates_no_prime():
    code = "import k3auto.polyfield as p, k3auto.cli; print(sum(map(len, p._PRIMES.values())))"
    src = str(Path(polyfield.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.stdout == "0\n", result.stderr


def _primes_used(monkeypatch, primes, p, q):
    """(gcd, the primes whose images were computed, in order) with the given
    primes tried before the generated supply."""
    images = _spy_image_gcds(monkeypatch, primes)
    g = poly_gcd(p, q)
    return g, list(dict.fromkeys(prime for prime, _ in images))


def test_certificate_skips_prime_dividing_a_denominator(monkeypatch):
    p = parse_poly("t^2 + 1/7", Q)
    q = parse_poly("t + 1", Q)
    g, used = _primes_used(monkeypatch, (7, 11), p, q)
    assert g == Poly.constant(Q, 1) and used == [11]
    g, used = _primes_used(monkeypatch, (7,), p, q)
    assert g == Poly.constant(Q, 1) and used == [_first_usable_prime(None)]


def test_certificate_needs_d_a_nonzero_square(monkeypatch):
    # -3 is 0 mod 3 and a non-residue mod 11, a square mod 7 (2^2 = 4 = -3);
    # 5 is a non-residue mod 7 and a square mod 11 (4^2 = 16 = 5).  Mod 11
    # the Q(sqrt(5)) images share the root 4 (16 + 16 + 1 = 33), so the
    # next usable prime decides, and finds the gcd 1
    qr5 = FieldContext(d=5)
    for context, primes, expected in ((QW3, (3, 11, 7), [7]),
                                      (qr5, (7, 11), [11, _first_usable_prime(5)])):
        p = parse_poly("t^2 + w*t + 1", context)
        q = parse_poly("t - w", context)
        g, used = _primes_used(monkeypatch, primes, p, q)
        assert g == _euclid(p, q) and used == expected
    p, q = parse_poly("t^2 + w", QW3), parse_poly("t + 2", QW3)
    g, used = _primes_used(monkeypatch, (3, 11), p, q)
    assert g == Poly.constant(QW3, 1) and used == [_first_usable_prime(-3)]


def test_certificate_skips_prime_killing_a_leading_coefficient(monkeypatch):
    # modulo 7, (7t + 1)(t + 1) and (7t + 1)(t + 2) map to the coprime
    # t + 1 and t + 2, although they share 7t + 1: the degree drop is what
    # rules 7 out
    p = parse_poly("(7*t + 1) * (t + 1)", Q)
    q = parse_poly("(7*t + 1) * (t + 2)", Q)
    shared = parse_poly("t + 1/7", Q)
    first = _first_usable_prime(None)
    for primes, expected in (((7,), [first]), ((7, 11), [11, first])):
        for left, right in ((p, q), (q, p)):
            g, used = _primes_used(monkeypatch, primes, left, right)
            assert g == shared and used == expected


def test_cofactor_counts_only_if_it_divides_the_smaller_input(monkeypatch):
    # gcd (t + 1)(t + 2) has degree 2 > 3/2, so q's cofactor t + 3 is lifted.
    # A wrong lift t + 4 leaves q = (t^2 + 2t + 3)(t + 4) - 6: its quotient
    # divides p, and only the remainder rules it out
    p = parse_poly("(t^2 + 2*t + 3) * (t + 1) * (t + 2)", Q)
    q = parse_poly("(t + 1) * (t + 2) * (t + 3)", Q)
    reconstruct, wrong = polyfield._reconstruct, [parse_poly("t + 4", Q)]
    monkeypatch.setattr(polyfield, "_reconstruct",
                        lambda *args: wrong.pop() if wrong else reconstruct(*args))
    assert poly_gcd(p, q) == parse_poly("(t + 1) * (t + 2)", Q) == _euclid(p, q)
    assert not wrong


def test_reconstruction_bounds_the_common_denominator():
    # 1/1009 and 1/1013 each lift modulo one 30-bit prime l (both below
    # sqrt(l/2) ~ 23170), but their common denominator does not: a lift whose
    # denominator outgrows the bound is refused, as a wrong lift of this kind,
    # for B^20 * (t^2 + 1) and its derivative over Q(sqrt(-3)), made its trial
    # division ~50x dearer than the right one's; two primes lift it
    l, m = itertools.islice(GENERATED_PRIMES(None), 2)
    residues = [pow(e, -1, l * m) for e in (1009, 1013)]
    assert polyfield._reconstruct(Q, [u % l for u in residues], l) is None
    expected = Poly.make(Q, [Fraction(1, 1009), Fraction(1, 1013)])
    assert polyfield._reconstruct(Q, residues, l * m) == expected


def test_generic_discriminant_is_squarefree():
    # 4 + 27*(t^11 - 1)^2 shares no root with its derivative
    delta = parse_poly("4 + 27*(t^11 - 1)^2", Q)
    g = poly_gcd(delta, delta.derivative())
    assert g.is_constant
    assert sympy.gcd(to_sympy(delta), sympy.diff(to_sympy(delta), _T), _T) == 1
    assert is_squarefree(delta)


def test_squarefree_decompose_squared_factor():
    # 27*(t^11 - 1)^2 -> content 27, single factor with multiplicity 2
    p = parse_poly("27*(t^11 - 1)^2", Q)
    content, factors = squarefree_decompose(p)
    assert content == Poly.constant(Q, 27)
    assert factors == [(parse_poly("t^11 - 1", Q), 2)]
    sym = sympy.sqf_list(to_sympy(p))
    assert sym[0] == 27 and len(sym[1]) == 1 and sym[1][0][1] == 2


def test_squarefree_decompose_mixed_multiplicities():
    p = parse_poly("(t - 1)^2 * (t^2 + 1)^3 * 5", Q)
    content, factors = squarefree_decompose(p)
    assert content == Poly.constant(Q, 5)
    assert factors == [
        (parse_poly("t - 1", Q), 2),
        (parse_poly("t^2 + 1", Q), 3),
    ]
    product = content
    for f, m in factors:
        product = product * f ** m
    assert product == p


def test_squarefree_decompose_rejects_constants():
    with pytest.raises(ZeroPolynomialError):
        squarefree_decompose(Poly.constant(Q, 3))
    with pytest.raises(ZeroPolynomialError):
        squarefree_decompose(Poly.zero(Q))


def test_gcdfree_basis_splits_shared_factors():
    p = parse_poly("t^2 - 1", Q)
    q = parse_poly("t^3 - t", Q)
    basis, exps = gcdfree_basis([p, q])
    assert basis == [parse_poly("t", Q), parse_poly("t^2 - 1", Q)]
    assert exps == [[0, 1], [1, 1]]
    for i, b in enumerate(basis):
        for c in basis[i + 1:]:
            assert poly_gcd(b, c).is_constant
    # inputs reassemble from leading coefficient and basis powers
    for poly, row in zip([p, q], exps):
        acc = poly.leading_coefficient()
        for b, e in zip(basis, row):
            acc = acc * b ** e
        assert acc == poly


def test_gcdfree_basis_keeps_unrelated_factors_whole():
    # no irreducible factorization: t^11 - 1 stays a single degree-11 element
    b_poly = parse_poly("t^11 - 1", Q)
    delta = parse_poly("27*(t^11 - 1)^2", Q)
    basis, exps = gcdfree_basis([b_poly, delta])
    assert basis == [b_poly]
    assert exps == [[1], [2]]


def test_gcdfree_basis_special_member():
    s = Poly.make(QW3, [(0, Fraction(2, 9))])
    b = parse_poly("t^11 - s", QW3, bindings={"s": s})
    delta = parse_poly("27 * t^11 * (t^11 - 2*s)", QW3, bindings={"s": s})
    basis, _ = gcdfree_basis([b, delta])
    assert basis == [
        parse_poly("t", QW3),
        parse_poly("t^11 - 2*s", QW3, bindings={"s": s}),
        parse_poly("t^11 - s", QW3, bindings={"s": s}),
    ]


def test_gcdfree_basis_carries_exponents_through_a_split():
    # the second input splits the first's generator t^2 - 1 with
    # multiplicity 2: t - 1 gets the row [3, 2], t + 1 keeps [3, 0]
    polys = [parse_poly("(t^2 - 1)^3", Q), parse_poly("(t - 1)^2 * (t + 2)", Q)]
    basis, exps = gcdfree_basis(polys)
    assert basis == [parse_poly(s, Q) for s in ("t - 1", "t + 1", "t + 2")]
    assert exps == [[3, 3, 0], [2, 0, 1]]
    for poly, row in zip(polys, exps):
        assert row == [valuation(poly, Place(b)) for b in basis]


def test_gcdfree_basis_rejects_bad_input():
    with pytest.raises(ZeroPolynomialError):
        gcdfree_basis([])
    with pytest.raises(ZeroPolynomialError):
        gcdfree_basis([Poly.zero(Q)])


def test_valuation_counts_repeated_division():
    delta = parse_poly("27*(t^11 - 1)^2", Q)
    at_one = Place(parse_poly("t - 1", Q))
    assert valuation(delta, at_one) == 2
    whole = Place(parse_poly("t^11 - 1", Q))
    assert valuation(delta, whole) == 2
    assert valuation(parse_poly("t + 5", Q), at_one) == 0


def test_valuation_of_zero_is_omega():
    place = Place(parse_poly("t", Q))
    v = valuation(Poly.zero(Q), place)
    assert v is OMEGA
    assert v >= 4 and v >= 10 ** 9
    assert not (v == 0)
    assert v - 4 is OMEGA


def test_valuation_rejects_infinity():
    with pytest.raises(InvalidPlaceError):
        valuation(Poly.variable(Q), Place(None))


def test_place_validation():
    # valuation checks the place a caller passes in before anything else,
    # so a bad place is rejected even when p is zero
    bad_places = [
        parse_poly("2*t - 2", Q),  # not monic
        parse_poly("(t - 1)^2", Q),  # not squarefree
        Poly.constant(Q, 1),  # degree 0
    ]
    for bad in bad_places:
        for p in (parse_poly("t - 1", Q), Poly.zero(Q)):
            with pytest.raises(InvalidPlaceError):
                valuation(p, Place(bad))
    assert Place(None).degree == 1
    assert Place(parse_poly("t^11 - 1", Q)).degree == 11


def test_poly_gcd_contract_errors():
    with pytest.raises(ZeroPolynomialError):
        poly_gcd(Poly.zero(Q), Poly.zero(Q))
    assert poly_gcd(parse_poly("3*t - 3", Q), Poly.zero(Q)) == parse_poly("t - 1", Q)


def test_parse_poly_basics():
    p = parse_poly("t^11 - 1", Q)
    assert p.degree == 11
    assert p.coefficient(0) == (-1, 0)
    assert p.coefficient(11) == (1, 0)
    q = parse_poly("4 + 27*(t - s)^2", Q, bindings={"s": 1})
    assert q == parse_poly("27*t^2 - 54*t + 31", Q)


def test_parse_poly_quadratic_generator():
    b = parse_poly("t^11 - (2/9)*w", QW3)
    assert b.coefficient(0) == (0, Fraction(-2, 9))
    with pytest.raises(ParseError):
        parse_poly("w + t", Q)


def test_parse_poly_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("t^2 + q", Q)
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse_poly("t^2 +", Q)
    assert err.value.position == 5
    # a bound constant must share the parser's context
    with pytest.raises(ParseError) as err:
        parse_poly("t + s", Q, bindings={"s": Poly.make(QW3, [(0, 1)])})
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("(t + 1", Q)
    with pytest.raises(ParseError):
        parse_poly("1/0 + t", Q)
    # MAX_DEGREE caps every exponent and every product's degree: the error
    # points at the exponent or at the '*'
    cap = parsing.MAX_DEGREE
    for text, position in ((f"1 + t^{cap + 1}", 6), (f"2^{cap + 1}", 2),
                           (f"(t^2 + 1)^{cap // 2 + 1}", 10),
                           (f"t^{cap} * t", len(f"t^{cap} "))):
        with pytest.raises(ParseError) as err:
            parse_poly(text, Q)
        assert err.value.position == position, text
    assert parse_poly(f"t^{cap - 1} * t", Q) == Poly.monomial(Q, cap)
    # INT and NAME are ASCII only: other digits and letters are not tokens
    for text, position in (("t^²", 2), ("t + ١٠", 4), ("tµ", 1), ("x²", 1)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, Q)
        assert err.value.position == position, text


def test_parse_poly_sum_contract():
    # a sum is added once, after all its terms: a term's error still
    # raises with its own message and position, and signs still compose
    for text, message, position in (("(t^100 + 1) * t^51", "product exceeds the degree cap 150", 12),
                                    ("t - (2/0)", "zero denominator", 7),
                                    ("(t^2 + q)", "unbound name 'q'", 7)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, Q)
        assert err.value.position == position, text
        assert str(err.value) == f"{message} (at position {position})", text
    assert parse_poly("1 - -t", Q) == parse_poly("t + 1", Q)
    assert str(parse_poly("1 - -t", Q)) == "t + 1"
    assert parse_poly("--t", Q) == Poly.variable(Q)
    assert str(parse_poly("--t", Q)) == "t"


def test_parse_poly_coefficient_caps():
    # an INT longer than MAX_LITERAL_DIGITS is refused at its first digit; a
    # power or product whose coefficients parsing._bits estimates above
    # MAX_COEFF_BITS is refused at its exponent or '*' before it is expanded,
    # constant bases included, and so is a parsed polynomial over the budget
    digits, budget = parsing.MAX_LITERAL_DIGITS, parsing.MAX_COEFF_BITS
    product = "*".join(["2^150"] * 20)  # 2^150 counts 152 bits
    for text, message, position in (
            (f"t + {'9' * (digits + 1)}", f"integer longer than {digits} digits", 4),
            ("(((7^150)^150)^150)^150*t + 1", "power", 10),
            ("(2^100)^31*t", "power", 8),
            (product, "product", len("*".join(["2^150"] * 19))),
            ("9" * (budget * 3 // 10 + 10), "polynomial", 0)):
        if not message.startswith("integer"):
            message += f" exceeds the coefficient budget of {budget} bits"
        with pytest.raises(ParseError) as err:
            parse_poly(text, Q)
        assert str(err.value) == f"{message} (at position {position})", text[:40]
    assert parse_poly("(2^100)^29*t", Q) == Poly(Q, (0, 2 ** 2900))
    assert parse_poly("*".join(["2^150"] * 19), Q) == Poly(Q, (2 ** 2850,))
    assert parsing.Lexer("9" * digits).tokens[0] == ("INT", "9" * digits, 0)
    assert parse_poly("9" * 900 + "*t", Q).xs[1] == 10 ** 900 - 1  # 2,990 bits


def test_record_contract_of_poly_and_field_context():
    # equal fields give equal values that hash alike; a value never equals
    # the tuple of its fields; no attribute can be assigned
    p, twin = Poly(QW3, (1, 2), (0, 3), 5), parse_poly("1/5 + (2/5 + 3/5*w)*t", QW3)
    assert p == twin and hash(p) == hash(twin)
    assert p != (QW3, (1, 2), (0, 3), 5) and p != Poly(QW3, (1, 2), (0, 3))
    assert FieldContext(-3) == QW3 and hash(FieldContext(-3)) == hash(QW3)
    assert QW3 != (-3,) and FieldContext() == Q != QW3
    for value, field in ((p, "xs"), (p, "den"), (QW3, "d")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            setattr(value, "label", 1)
    assert repr(QW3) == "FieldContext(d=-3)" and repr(p) == "Poly((2/5 + 3/5*w)*t + 1/5)"


def _fibers_batch_texts():
    """The (text, context) pairs the benchmark's fibers-batch ops parse."""
    texts = []

    class Parsed(Exception):
        pass

    def record(text, context):
        texts.append((text, context))

    def stop(a, b):
        raise Parsed

    k3 = types.SimpleNamespace(polyfield=polyfield,
                               parsing=types.SimpleNamespace(parse_poly=record),
                               ellsurf=types.SimpleNamespace(WeierstrassModel=stop))
    for op in load_perfbench("workloads").fibers_batch(k3, 1).ops:
        with pytest.raises(Parsed):
            op.run()
    return texts


def test_parsing_builds_monomials_and_scalings(monkeypatch):
    # t^k is a monomial and c*t^k a scaling: parsing the fibers-batch
    # corpus makes no Poly product or power
    texts = _fibers_batch_texts()
    assert len(texts) == 96
    calls = []
    for name in ("__mul__", "__pow__"):
        method = getattr(Poly, name)
        monkeypatch.setattr(Poly, name, lambda self, other, name=name, method=method:
                            calls.append(name) or method(self, other))
    for text, context in texts:
        parse_poly(text, context)
    assert calls == []


def test_poly_str_reparses():
    samples = [
        parse_poly("t^11 - 1", Q),
        parse_poly("-t^3 + 2/9*t - 5", Q),
        parse_poly("t^11 - (2/9)*w", QW3),
        parse_poly("(1 - 2*w)*t^2 + w", QW3),
        Poly.zero(Q),
        Poly.constant(Q, Fraction(-7, 3)),
    ]
    for p in samples:
        assert parse_poly(str(p), p.context) == p


def test_fiber_op_builds_no_field_element(monkeypatch):
    # parsing, the model, the analysis and its report read and write the
    # integer vectors: no coefficient is read out as Fractions on the way
    texts = _fibers_batch_texts()
    pairs = list(zip(texts[::2], texts[1::2]))
    assert len(pairs) == 48 and all(ca == cb for (_, ca), (_, cb) in pairs)

    def reports():
        return [json.dumps(analyze_fibers(WeierstrassModel(parse_poly(a, c), parse_poly(b, c)))
                           .as_report(), sort_keys=True) for (a, c), (b, _) in pairs]

    expected = reports()

    def refuse(*_args, **_kwargs):
        raise AssertionError("coefficient read out on a fiber op")

    monkeypatch.setattr(Poly, "coefficient", refuse)
    monkeypatch.setattr(polyfield, "Coefficient", refuse)
    with pytest.raises(AssertionError):
        Poly.variable(QW3).coefficients
    assert reports() == expected


def test_tracer_reads_coefficient_bits_of_a_product():
    # the benchmark's polyfield.max_coeff_bits reads Poly.coefficients as
    # x and y Fractions: a view without them would crash every traced run,
    # and one that yields nothing would read 0
    context = FieldContext(d=5)
    p = parse_poly("(3/7 + 2*w)*t^2 + 123456789012*t - 1/4*w", context)
    product = p * parse_poly("t + 5/3*w", context)
    tracer = load_perfbench("tracing").Tracer()
    tracer._after_poly_result((), product)
    den = product.den
    expected = max(max((v // gcd(v, den)).bit_length(), (den // gcd(v, den)).bit_length())
                   for v in product.xs + product.ys)
    assert product.ys and expected == 40
    assert tracer.max_coeff_bits == expected


def _fraction_pair_key(p: Poly):
    """The place order reports had when it was read off Fraction pairs:
    degree, then (x, y) of each coefficient from the top."""
    return p.degree, tuple((c.x, c.y) for c in reversed(p.coefficients))


def _fraction_scalar_text(x: Fraction, y: Fraction) -> str:
    """x + y*w as it was rendered from its Fraction parts."""
    if not y:
        return str(x)
    w = "w" if abs(y) == 1 else f"{abs(y)}*w"
    if not x:
        return w if y > 0 else f"-{w}"
    return f"({x} {'+' if y > 0 else '-'} {w})"


def _fraction_text(p: Poly) -> str:
    """str(p) as it was rendered from Fraction coefficients."""
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if not c.x and not c.y:
            continue
        var = "" if k == 0 else "t" if k == 1 else f"t^{k}"
        s = _fraction_scalar_text(c.x, c.y)
        if not var:
            body, negative = s, False
        elif not c.y and abs(c.x) == 1:
            body, negative = var, c.x < 0
        else:
            negative = s.startswith("-")
            body = f"{s.lstrip('-')}*{var}"
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            if not var and body.startswith("-"):
                negative, body = True, body.lstrip("-")
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts) or "0"


def test_place_order_and_text_match_fraction_oracles():
    rng = random.Random(2020)
    mixed_dens = 0
    for context in CONTEXTS:
        special = [(1, 0), (-1, 0)] + ([(0, 1), (0, -1), (0, Fraction(-3, 2))]
                                       if context.is_quadratic else [])
        seen = set()
        for _ in range(60):
            # order: inputs sharing small random factors, so that the basis
            # has several monic generators of one degree
            fs = [random_nonzero_poly(rng, context, max_degree=2, span=5) for _ in range(4)]
            fs = [f for f in fs if not f.is_constant] or [Poly.variable(context)]
            inputs = [fs[0] ** 2 * fs[-1], fs[-1] * fs[len(fs) // 2], fs[len(fs) // 2] ** 3]
            basis, _ = gcdfree_basis(inputs)
            assert basis == sorted(basis, key=_fraction_pair_key)
            mixed_dens += any(b.degree == c.degree and b.den != c.den
                              for i, b in enumerate(basis) for c in basis[i + 1:])
            # text: random coefficients, with the special ones mixed in
            coeffs = []
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.4:
                    coeffs.append(rng.choice(special))
                elif rng.random() < 0.2:
                    coeffs.append(0)
                else:
                    coeffs.append(random_coefficient(rng, context))
            p = Poly.make(context, coeffs)
            for q in (p, -p, *basis):
                assert str(q) == _fraction_text(q), (str(q), _fraction_text(q))
                assert parse_poly(str(q), context) == q
                seen.add("zero" if q.is_zero else "constant" if q.is_constant
                         else "negative lead" if q.xs[-1] < 0 else "positive lead")
                for c in q.coefficients:
                    text = str(Poly.make(context, [c]))
                    assert text == _fraction_scalar_text(c.x, c.y)
                    if c.y:
                        seen.add("x and y" if c.x else "y only")
                    if text in ("1", "-1", "w", "-w"):
                        seen.add(text)
        assert {"zero", "constant", "negative lead", "positive lead", "1", "-1"} <= seen
        if context.is_quadratic:
            assert {"w", "-w", "x and y", "y only"} <= seen
    assert mixed_dens >= 10
