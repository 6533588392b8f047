"""Eigenvalue bookkeeping tests.

Traces are cross-checked against explicitly constructed cyclotomic
polynomials (trace = minus the subleading coefficient) and, at small
order, against numeric sums of the actual primitive roots.  Decomposition
enumeration is cross-checked against an independent brute force.
"""

import cmath
import itertools
import math
import random

import pytest
from sympy import cyclotomic_poly, divisors, mobius, totient
from sympy.abc import x

from k3auto import isometry
from k3auto.errors import ParseError, PatternError
from k3auto.isometry import (
    CyclotomicMultiset,
    IsometryPattern,
    LocalAction,
    char_poly_decompositions,
    completion_counts,
    lefschetz_number,
    local_curve_possible,
    weighted_multisets,
)
from k3auto.parsing import parse_pattern


def primitive_roots(d: int) -> list[complex]:
    return [
        cmath.exp(2j * cmath.pi * k / d)
        for k in range(1, d + 1)
        if math.gcd(k, d) == 1
    ]


def numeric_eigenvalues(m: CyclotomicMultiset) -> list[complex]:
    values = []
    for d, count in m.blocks:
        values.extend(primitive_roots(d) * count)
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_block_trace_matches_cyclotomic_polynomial():
    # trace of a full Phi(d) block = -(coefficient of x^(phi(d)-1))
    for d in range(1, 101):
        poly = cyclotomic_poly(d, x).as_poly(x)
        degree = poly.degree()
        block = CyclotomicMultiset.from_counts({d: 1})
        assert block.rank == degree == int(totient(d))
        expected = -int(poly.nth(degree - 1)) if degree >= 1 else 1
        assert block.trace == expected


def test_number_theory_matches_sympy():
    for n in range(1, 2001):
        assert isometry.divisors(n) == divisors(n), n
        assert isometry._phi(n) == totient(n), n
        assert isometry._mu(n) == mobius(n), n


def test_block_trace_matches_numeric_root_sums():
    for d in range(1, 31):
        total = sum(primitive_roots(d))
        block = CyclotomicMultiset.from_counts({d: 1})
        assert abs(total.real - block.trace) < 1e-9
        assert abs(total.imag) < 1e-9


def test_multiset_normalization_and_validation():
    # +1 is Phi(1) and -1 is Phi(2): one stored form, sorted by d
    m = CyclotomicMultiset.from_counts({1: 4, 2: 8, 11: 1})
    assert m.__slots__ == ("blocks",) and m.blocks == ((1, 4), (2, 8), (11, 1))
    assert CyclotomicMultiset.from_counts({11: 1, 2: 8, 1: 4, 22: 0}) == m
    assert CyclotomicMultiset.units(plus=2, minus=3).blocks == ((1, 2), (2, 3))
    assert CyclotomicMultiset.block(2, 3) == CyclotomicMultiset.units(minus=3)
    assert m.rank == 22 and m.trace == -5
    assert m.counts() == {1: 4, 2: 8, 11: 1}
    assert m.as_literal() == "1*4, -1*8, Phi(11)"
    with pytest.raises(PatternError):
        CyclotomicMultiset.from_counts({1: -1})
    with pytest.raises(PatternError):
        CyclotomicMultiset.from_counts({0: 1})
    with pytest.raises(PatternError):
        CyclotomicMultiset(blocks=((0, 1),))
    with pytest.raises(PatternError):
        CyclotomicMultiset(blocks=((11, 0),))
    with pytest.raises(PatternError):
        CyclotomicMultiset(blocks=((11, 1), (5, 1)))


def test_multiset_record_contract():
    m = CyclotomicMultiset(((1, 4), (2, 8), (11, 1)))
    twin = CyclotomicMultiset.from_counts({11: 1, 2: 8, 1: 4})
    assert m == twin and hash(m) == hash(twin)
    assert m != CyclotomicMultiset(((1, 4), (2, 8)))
    with pytest.raises(AttributeError):
        m.blocks = ()
    assert repr(m) == "CyclotomicMultiset(blocks=((1, 4), (2, 8), (11, 1)))"
    assert str(m) == m.as_literal() == "1*4, -1*8, Phi(11)"
    assert str(CyclotomicMultiset(((3, 2), (22, 1)))) == "Phi(3)*2, Phi(22)"
    assert repr(CyclotomicMultiset()) == "CyclotomicMultiset(blocks=())"
    assert str(CyclotomicMultiset()) == "(empty)"
    assert CyclotomicMultiset().as_literal() == ""


def brute_force_runs(pool, budget):
    """Every multiset of pool indices whose weights sum to budget, in
    ascending order as index tuples, each as its (item, count) runs."""
    found = [
        combo
        for size in range(budget + 1)
        for combo in itertools.combinations_with_replacement(range(len(pool)), size)
        if sum(pool[i][0] for i in combo) == budget
    ]
    return [
        tuple((pool[i][1], len(list(run))) for i, run in itertools.groupby(combo))
        for combo in sorted(found)
    ]


def test_weighted_multisets_vs_brute_force():
    rng = random.Random(1999)
    for _ in range(40):
        pool = [(rng.randint(1, 5), f"x{k}") for k in range(rng.randint(0, 5))]
        table = completion_counts(pool, 12)
        order = {item: k for k, (_, item) in enumerate(pool)}
        for budget in range(13):
            mine = weighted_multisets(pool, budget, table)
            assert mine == brute_force_runs(pool, budget)
            for runs in mine:
                assert all(count >= 1 for _, count in runs)
                indices = [order[item] for item, _ in runs]
                assert indices == sorted(set(indices))


def test_power_against_numeric_eigenvalues():
    rng = random.Random(11)
    for _ in range(60):
        counts = {}
        for d in rng.sample(range(1, 25), rng.randint(1, 4)):
            counts[d] = rng.randint(1, 2)
        m = CyclotomicMultiset.from_counts(counts)
        e = rng.randint(0, 5)
        powered = m.power(e)
        assert powered.rank == m.rank
        expected = sorted(
            (z ** e for z in numeric_eigenvalues(m)),
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        actual = numeric_eigenvalues(powered)
        assert all(abs(p - q) < 1e-7 for p, q in zip(expected, actual))


def test_power_key_cases():
    phi22 = CyclotomicMultiset.block(22)
    assert phi22.power(2).counts() == {11: 1}
    assert phi22.power(11).counts() == {2: 10}
    assert phi22.power(22).counts() == {1: 10}
    assert CyclotomicMultiset.block(11).power(11).counts() == {1: 10}
    assert CyclotomicMultiset.units(minus=5).power(2).counts() == {1: 5}


def test_lefschetz_numbers():
    order22_fixed = IsometryPattern(
        CyclotomicMultiset.units(plus=4, minus=8),
        CyclotomicMultiset.block(11),
    )
    assert lefschetz_number(order22_fixed) == -3

    involution = IsometryPattern(
        CyclotomicMultiset.units(plus=11, minus=1),
        CyclotomicMultiset.units(minus=10),
    )
    assert lefschetz_number(involution) == 2

    identity = IsometryPattern(
        CyclotomicMultiset.units(plus=12),
        CyclotomicMultiset.units(plus=10),
    )
    assert lefschetz_number(identity) == 24

    with pytest.raises(PatternError):
        lefschetz_number(
            IsometryPattern(CyclotomicMultiset.units(plus=4), CyclotomicMultiset.block(11))
        )


def test_lefschetz_of_all_plus_one_patterns_is_24():
    rng = random.Random(3)
    for _ in range(50):
        split = rng.randint(0, 22)
        pattern = IsometryPattern(
            CyclotomicMultiset.units(plus=split),
            CyclotomicMultiset.units(plus=22 - split),
        )
        assert lefschetz_number(pattern) == 24


def test_decomposition_examples():
    only = char_poly_decompositions(11, 10, allowed={11})
    assert [m.counts() for m in only] == [{11: 1}]

    rank2 = char_poly_decompositions(2, 2)
    assert [m.counts() for m in rank2] == [{1: 2}, {1: 1, 2: 1}, {2: 2}]

    twelve = char_poly_decompositions(11, 12)
    assert [m.counts() for m in twelve] == [{1: 12}, {1: 2, 11: 1}]

    assert char_poly_decompositions(11, 9, allowed={11}) == []
    assert char_poly_decompositions(22, 10, allowed={22}) == [
        CyclotomicMultiset.block(22)
    ]


def brute_force_decompositions(order: int, rank: int,
                               allowed=None) -> set[tuple[tuple[int, int], ...]]:
    ds = sorted(d for d in divisors(order) if allowed is None or d in allowed)
    phis = [int(totient(d)) for d in ds]
    found: set[tuple[tuple[int, int], ...]] = set()

    def rec(i: int, left: int, acc: list[tuple[int, int]]):
        if i == len(ds):
            if left == 0:
                found.add(tuple(acc))
            return
        for c in range(left // phis[i] + 1):
            rec(i + 1, left - c * phis[i], acc + ([(ds[i], c)] if c else []))

    rec(0, rank, [])
    return found


# None is every divisor; {5, 7} excludes every divisor of these orders, so
# rank 0 has one (empty) decomposition and every other rank none
ALLOWED_SETS = (None, {1}, {2, 11}, {11, 22, 33}, {3, 6, 66}, {5, 7})


def test_decompositions_exhaustive_vs_brute_force():
    for order in (1, 2, 3, 4, 6, 11, 12, 22, 33, 66):
        for allowed in ALLOWED_SETS:
            for rank in (*range(0, 13), 20, 22):
                mine = char_poly_decompositions(order, rank, allowed=allowed)
                assert all(m.rank == rank for m in mine)
                assert mine == sorted(mine, key=CyclotomicMultiset.sort_key)
                as_sets = {tuple(sorted(m.counts().items())) for m in mine}
                assert as_sets == brute_force_decompositions(order, rank, allowed)
                assert len(mine) == len(as_sets)  # no duplicates
    assert char_poly_decompositions(66, 0, allowed={5, 7}) == [CyclotomicMultiset()]
    assert char_poly_decompositions(66, 1, allowed={5, 7}) == []


def test_local_curve_possible():
    assert local_curve_possible({5, 7}, {2, 10}, 11) is False
    assert local_curve_possible({1}, {10}, 11) is True
    assert local_curve_possible({5, 7}, {4, 6}, 11) is True
    with pytest.raises(ValueError):
        local_curve_possible({0}, {1}, 11)
    with pytest.raises(ValueError):
        local_curve_possible({11}, {1}, 11)
    with pytest.raises(ValueError):
        local_curve_possible({1}, {2}, 1)


def test_local_actions():
    for weights in ((5, 7), (2, 10)):
        action = LocalAction(11, weights)
        assert action.omega_weight == 1
    with pytest.raises(PatternError):
        LocalAction(11, (0, 5))
    with pytest.raises(PatternError):
        LocalAction(11, (22, 5))


def test_pattern_literals_round_trip():
    text = "S: [1*4, -1*8]; T: [Phi(11)]"
    pattern = parse_pattern(text)
    assert pattern.algebraic.counts() == {1: 4, 2: 8}
    assert pattern.transcendental.counts() == {11: 1}
    assert pattern.as_literal() == text
    assert parse_pattern(pattern.as_literal()) == pattern

    def algebraic(items):
        return parse_pattern(f"S: [{items}]; T: []").algebraic

    m = algebraic("1, -1, Phi(22)*2")
    assert m.counts() == {1: 1, 2: 1, 22: 2}
    assert algebraic(m.as_literal()) == m
    assert algebraic("").rank == 0
    assert algebraic("Phi(1000000)").rank == 400000  # MAX_BLOCK_ORDER


def test_pattern_literal_errors():
    for bad, pos in (
        ("S: [2*4]; T: []", 4),
        ("S [1]; T: []", 2),
        ("S: [1]; X: []", 8),
        ("S: [1] T: []", 7),
        ("S: [Phi(0)]; T: []", 8),
        ("S: [Phi(1000001)]; T: []", 8),  # over MAX_BLOCK_ORDER
        ("S: [1*0]; T: []", 6),
        ("S: [1]; T: [] extra", 14),
    ):
        with pytest.raises(ParseError) as info:
            parse_pattern(bad)
        assert info.value.position == pos
