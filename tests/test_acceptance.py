"""Acceptance suite: the eleven headline checks, all at exact equality.

Each criterion is one test, so ``pytest -v`` shows one PASS/FAIL line per
criterion; each test also prints its own ``[PASS] criterion N`` line.
All comparisons are exact — no tolerances anywhere.
"""

import json
import random
from fractions import Fraction

import pytest

from helpers import (
    QW3,
    random_gram,
    random_model,
    random_nonzero_poly,
)

from k3auto.cli import main
from k3auto.ellsurf import (
    FiberConfiguration,
    WeierstrassModel,
    analyze_fibers,
    config_euler_check,
    discriminant,
)
from k3auto.enumerations import (
    REASON_MOD4,
    REASON_MOD8,
    RULE_WEIGHTS,
    fiber_orbit_configs,
    order22_replay,
    rank_det_cases,
)
from k3auto.isometry import lefschetz_number, local_curve_possible
from k3auto.lattice import (
    Lattice,
    brute_force_even_rank2,
    discriminant_group,
    divisor_class_solve,
    is_p_elementary,
)
from k3auto.parsing import parse_pattern, parse_poly
from k3auto.polyfield import Poly, RATIONALS, poly_gcd, squarefree_decompose

S_SPECIAL = Poly.make(QW3, [(0, Fraction(2, 9))])  # s with s^2 = -4/27


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_announcements(capsys):
    # let announce() write past pytest's capture, so every run shows one
    # PASS line per criterion
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def announce(number: int, description: str) -> None:
    line = f"[PASS] criterion {number}: {description}"
    if _CAPTURE is None:
        print(line)
    else:
        with _CAPTURE.disabled():
            print(line)


def table(analysis):
    return [[str(f.place), f.degree, f.kodaira_type] for f in analysis.fibers]


def singular_table(analysis):
    return [[str(f.place), f.degree, f.kodaira_type]
            for f in analysis.fibers if f.is_singular]


def test_criterion_01_additive_only_k3_fiber_table(capsys):
    code = main(["surface", "analyze", "--a", "0", "--b", "t^11-1"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert [[f["place"], f["degree"], f["type"]] for f in report["fibers"]] \
        == [["t^11 - 1", 11, "II"], ["infinity", 1, "II"]]
    assert report["euler_total"] == 24
    assert report["surface"] == "K3"
    announce(1, "eleven type-II fibers over t^11 - 1, type II at "
                "infinity, Euler 24, K3")


def test_criterion_02_generic_member_fiber_table():
    analysis = analyze_fibers(
        WeierstrassModel(
            Poly.constant(RATIONALS, 1), parse_poly("t^11 - 1", RATIONALS)
        )
    )
    assert singular_table(analysis) == [
        ["t^22 - 2*t^11 + 31/27", 22, "I1"],
        ["infinity", 1, "II"],
    ]
    i1_points = sum(
        f.degree for f in analysis.fibers if f.kodaira_type == "I1"
    )
    assert i1_points == 22
    assert analysis.euler_total == 24
    announce(2, "22 geometric I1 fibers plus one type II at infinity")


def test_criterion_03_special_member_fiber_table():
    a = Poly.constant(QW3, 1)
    b = parse_poly("t^11 - s", QW3, {"s": S_SPECIAL})
    model = WeierstrassModel(a, b)
    identity = discriminant(model) - parse_poly(
        "27 * t^11 * (t^11 - 2*s)", QW3, {"s": S_SPECIAL}
    )
    assert identity.is_zero  # Delta = 27 t^11 (t^11 - 2s), by subtraction
    analysis = analyze_fibers(model)
    assert table(analysis) == [
        ["t", 1, "I11"],
        ["t^11 - 4/9*w", 11, "I1"],
        ["t^11 - 2/9*w", 11, "I0"],
        ["infinity", 1, "II"],
    ]
    assert analysis.euler_total == 24
    assert str(analysis.surface) == "K3"
    announce(3, "I11 at the origin, eleven I1 fibers, type II at infinity")


def test_criterion_04_rational_quotient_surfaces():
    j1 = analyze_fibers(
        WeierstrassModel(Poly.zero(RATIONALS), parse_poly("t - 1", RATIONALS))
    )
    j2 = analyze_fibers(
        WeierstrassModel(
            Poly.constant(RATIONALS, 1), parse_poly("t - 1", RATIONALS)
        )
    )
    j3 = analyze_fibers(
        WeierstrassModel(
            Poly.constant(QW3, 1), parse_poly("t - s", QW3, {"s": S_SPECIAL})
        )
    )
    assert singular_table(j1) == [["t - 1", 1, "II"], ["infinity", 1, "II*"]]
    assert singular_table(j2) == [
        ["t^2 - 2*t + 31/27", 2, "I1"],
        ["infinity", 1, "II*"],
    ]
    assert singular_table(j3) == [
        ["t^2 - 4/9*w*t", 2, "I1"],
        ["infinity", 1, "II*"],
    ]
    # the two geometric I1 points of the third surface sit at t = 0 and t = 2s
    place_poly = next(
        f.place.generator for f in j3.fibers if f.kodaira_type == "I1"
    )
    assert place_poly.evaluate(0).is_zero
    assert place_poly.evaluate(S_SPECIAL + S_SPECIAL).is_zero
    assert (j1.euler_total, j2.euler_total, j3.euler_total) == (12, 12, 12)
    assert {str(s.surface) for s in (j1, j2, j3)} == {"rational"}
    announce(4, "fiber tables II+II*, I1+I1+II*, I1(0)+I1(2s)+II*, Euler 12")


def test_criterion_05_rank_det_case_table():
    cases = rank_det_cases()
    assert [(c.rank_m, c.det_m) for c in cases] == [
        (2, -1), (2, -11), (2, -121), (12, -1), (12, -11)
    ]
    by_pair = {(c.rank_m, c.det_m): c for c in cases}
    assert not by_pair[(2, -11)].feasible
    assert by_pair[(2, -11)].reason == REASON_MOD4
    assert not by_pair[(12, -1)].feasible
    assert by_pair[(12, -1)].reason == REASON_MOD8
    assert [c.label for c in cases if c.feasible] == ["U", "U(11)", "U + A10"]
    announce(5, "five rank/determinant cases, two killed, survivors "
                "U, U(11), U + A10")


def test_criterion_06_brute_force_rank2_eleven_divisibility():
    lattices = brute_force_even_rank2(-121, entry_bound=30)
    elementary = [lat for lat in lattices if is_p_elementary(lat, 11)]
    assert elementary, "search space must be nonempty"
    for lat in elementary:
        for row in lat.gram:
            assert all(entry % 11 == 0 for entry in row)
    announce(6, f"all {len(elementary)} even rank-2 Gram matrices with det "
                "-121 and 11-elementary group have entries divisible by 11")


def test_criterion_07_lefschetz_numbers():
    composite = parse_pattern("S: [1*4, -1*8]; T: [Phi(11)]")
    involution = parse_pattern("S: [1*11, -1]; T: [-1*10]")
    assert lefschetz_number(composite) == -3
    assert lefschetz_number(involution) == 2
    announce(7, "Lefschetz numbers -3 (composite action) and 2 (involution)")


def test_criterion_08_order22_replays_eliminate_everything():
    big = order22_replay("lemma1")
    small = order22_replay("lemma9")
    assert big.survivors == ()
    assert small.survivors == ()
    consistent = [c for c in small.candidates if c.lefschetz_consistent]
    assert len(consistent) == 1
    assert consistent[0].rule == RULE_WEIGHTS
    assert local_curve_possible({5, 7}, {2, 10}, 11) is False
    for report in (big, small):
        record = report.as_report()
        assert {"scenario", "survivors", "candidates"} <= set(record)
        json.dumps(record)  # must be serializable as-is
    announce(8, "both order-22 replays end with zero surviving patterns")


def test_criterion_09_fiber_orbit_enumerations():
    pool = ("I1", "I2", "I3", "II", "III", "IV", "I0*", "IV*", "III*", "II*")
    full = fiber_orbit_configs(24, {"I0", "II"}, {"I0", "II"}, pool)
    assert [list(c.orbit_fibers) for c in full] == [["I1", "I1"], ["I2"], ["II"]]
    filtered = fiber_orbit_configs(
        24, {"I0", "II"}, {"I0", "II"}, [s for s in pool if s != "I2"]
    )
    assert len(filtered) == 2
    refined = fiber_orbit_configs(24, {"I0", "I11"}, {"II"}, {"I1", "II"})
    assert [[list(c.fixed_fibers), list(c.orbit_fibers)] for c in refined] == [
        [["I0", "II"], ["I1", "I1"]],
        [["I0", "II"], ["II"]],
        [["I11", "II"], ["I1"]],
    ]
    quotients = [
        FiberConfiguration(((11, "I0", 1), (1, "II*", 1), (1, "II", 1))),
        FiberConfiguration(((11, "I0", 1), (1, "II*", 1), (1, "I1", 2))),
        FiberConfiguration(((11, "I1", 1), (1, "II*", 1), (1, "I1", 1))),
    ]
    checks = [config_euler_check(c, 12) for c in quotients]
    assert [c.total for c in checks] == [12, 12, 12]
    assert all(c.passed for c in checks)
    announce(9, "three orbit configurations, two after the I2 filter, "
                "three refined cases, quotient Euler sums all 12")


def test_criterion_10_section_class_solutions():
    lat = Lattice(((-2, 1), (1, 0)))
    section = divisor_class_solve(lat, [((0, 1), 1)], -2)
    orbit_sum = divisor_class_solve(lat, [((0, 1), 0)], -22)
    assert section.complete and list(section.solutions) == [(1, 0)]
    assert orbit_sum.complete and list(orbit_sum.solutions) == []
    announce(10, "unique section class (1, 0); no class with v.F = 0, "
                 "v^2 = -22")


def test_criterion_11_randomized_property_suites():
    cases = 1000

    # (a) Euler sum = 12k on random valid models
    rng = random.Random(1101)
    for i in range(cases):
        context = QW3 if i % 5 == 0 else RATIONALS
        analysis = analyze_fibers(random_model(rng, context, max_degree=5))
        withdrawn = sum(
            f.degree * f.minimalization_steps for f in analysis.fibers
        )
        assert analysis.euler_total + 12 * withdrawn == 12 * analysis.k
        if analysis.relatively_minimal:
            assert analysis.euler_total == 12 * analysis.k

    # (b) discriminant-group order = |det|
    rng = random.Random(1102)
    for _ in range(cases):
        lat, det = random_gram(rng, rng.randint(1, 5))
        assert discriminant_group(lat).order == abs(det)

    # (c) gcd / squarefree reassembly identities
    rng = random.Random(1103)
    for i in range(cases):
        context = QW3 if i % 5 == 0 else RATIONALS
        p = random_nonzero_poly(rng, context, max_degree=5)
        if p.degree == 0:
            continue
        q = p ** rng.randint(1, 3)
        content, factors = squarefree_decompose(q)
        rebuilt = Poly.constant(context, 1).scale(content)
        for factor, multiplicity in factors:
            rebuilt = rebuilt * factor ** multiplicity
        assert rebuilt == q
        g = poly_gcd(q, p)
        assert g.divides(q) and g.divides(p) and g == p.monic()

    # (d) rescaling invariance (a, b) -> (lambda^4 a, lambda^6 b)
    rng = random.Random(1104)
    lambdas = (2, -1, 3, -5, Fraction(1, 2))
    for i in range(cases):
        context = QW3 if i % 5 == 0 else RATIONALS
        model = random_model(rng, context, max_degree=4)
        lam = Poly.constant(context, rng.choice(lambdas))
        lam4 = lam * lam * lam * lam
        lam6 = lam4 * lam * lam
        scaled = WeierstrassModel(model.a.scale(lam4), model.b.scale(lam6))
        assert analyze_fibers(scaled).as_report() == \
            analyze_fibers(model).as_report()

    announce(11, f"4 randomized suites x {cases} cases, zero failures")
