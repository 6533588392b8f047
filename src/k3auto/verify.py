"""Replay suite: every externally sourced value the library is built
around, recomputed and compared against its recorded expectation.

Each scenario carries an ``anchor`` — the quoted statement of the claim it
checks — and compares a literal ``expected`` value against a freshly
computed ``actual`` with exact equality.  Reports are deterministic and
JSON-serializable for golden-file testing.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .ellsurf import (
    FiberAnalysis,
    FiberConfiguration,
    WeierstrassModel,
    analyze_fibers,
    config_euler_check,
    discriminant,
    j_map,
)
from .enumerations import (
    REASON_MOD4,
    REASON_MOD8,
    RULE_GALOIS,
    RULE_NEGATIVE_FINITE,
    RULE_WEIGHTS,
    fiber_orbit_configs,
    order22_replay,
    rank_det_cases,
)
from .errors import brief
from .isometry import LocalAction, local_curve_possible
from .lattice import Lattice, divisor_class_solve
from .parsing import parse_poly
from .polyfield import FieldContext, Poly, RATIONALS, squarefree_decompose


class ScenarioResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail"
    expected: object
    actual: object
    anchor: str

    def as_record(self) -> dict:
        return self._asdict()


class VerificationReport(NamedTuple):
    results: tuple[ScenarioResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def as_report(self) -> dict:
        return {
            "scenarios": [r.as_record() for r in self.results],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"[{r.status.upper():4}] {r.name}: {r.anchor}")
            if r.status != "pass":
                lines.append(f"       expected: {r.expected!r}")
                lines.append(f"       actual:   {r.actual!r}")
        lines.append(
            f"{sum(r.status == 'pass' for r in self.results)}"
            f"/{len(self.results)} scenarios pass"
        )
        return "\n".join(lines)


_QW3 = FieldContext(d=-3)


def _special_s():
    # s = (2/9) sqrt(-3) satisfies s^2 = -4/27
    return parse_poly("2/9*w", _QW3)


def _model(a_text: str, b_text: str, context=RATIONALS, **bindings) -> WeierstrassModel:
    return WeierstrassModel(
        parse_poly(a_text, context, bindings),
        parse_poly(b_text, context, bindings),
    )


def _table(analysis: FiberAnalysis) -> list[list]:
    return [[str(f.place), f.degree, f.kodaira_type] for f in analysis.fibers]


def _summary(analysis: FiberAnalysis) -> dict:
    return {
        "fibers": _table(analysis),
        "euler": analysis.euler_total,
        "surface": analysis.surface,
    }


def _exponent_support_mod(p: Poly, modulus: int) -> list[int]:
    ys = p.ys or (0,) * len(p.xs)
    return sorted({i % modulus for i, (x, y) in enumerate(zip(p.xs, ys)) if x or y})


def _scenario_example1() -> ScenarioResult:
    anchor = ('"y^2 = x^3 + (t^11 - 1)": singular fibers are eleven of '
              'type II over the 11th roots of unity and one of type II at '
              't = infinity; chi_topol = 24, a K3 surface')
    expected = {
        "fibers": [["t^11 - 1", 11, "II"], ["infinity", 1, "II"]],
        "euler": 24,
        "surface": "K3",
    }
    actual = _summary(analyze_fibers(_model("0", "t^11 - 1")))
    return _result("example1", expected, actual, anchor)


def _scenario_example2() -> ScenarioResult:
    anchor = ('"y^2 = x^3 + x + (t^11 - s)" at s = sqrt(-4/27): '
              '"Delta = 27 t^11 (t^11 - 2s)", a type I11 fiber at t = 0, '
              'eleven I1 fibers over t^11 = 2s, and type II at infinity')
    s = _special_s()
    m = _model("1", "t^11 - s", _QW3, s=s)
    delta_identity = discriminant(m) - parse_poly(
        "27 * t^11 * (t^11 - 2*s)", _QW3, {"s": s}
    )
    expected = {
        "delta_identity_holds": True,
        "fibers": [
            ["t", 1, "I11"],
            ["t^11 - 4/9*w", 11, "I1"],
            ["t^11 - 2/9*w", 11, "I0"],
            ["infinity", 1, "II"],
        ],
        "euler": 24,
        "surface": "K3",
    }
    actual = {"delta_identity_holds": delta_identity.is_zero}
    actual.update(_summary(analyze_fibers(m)))
    return _result("example2", expected, actual, anchor)


def _scenario_example3() -> ScenarioResult:
    anchor = ('rational elliptic surfaces: "J(1): y^2 = x^3 + (t-1)" with '
              'fibers II, II*; "J(2): y^2 = x^3 + x + (t-1)" with I1, I1, '
              'II*; "J(3): y^2 = x^3 + x + (t-s)" with I1 at 0 and 2s, '
              'II*; each with chi_topol = 12')
    s = _special_s()
    expected = {
        "j1": {
            "fibers": [["t - 1", 1, "II"], ["infinity", 1, "II*"]],
            "euler": 12,
            "surface": "rational",
        },
        "j2": {
            "fibers": [
                ["t - 1", 1, "I0"],
                ["t^2 - 2*t + 31/27", 2, "I1"],
                ["infinity", 1, "II*"],
            ],
            "euler": 12,
            "surface": "rational",
        },
        "j3": {
            "fibers": [
                ["t - 2/9*w", 1, "I0"],
                ["t^2 - 4/9*w*t", 2, "I1"],
                ["infinity", 1, "II*"],
            ],
            "euler": 12,
            "surface": "rational",
        },
    }
    actual = {
        "j1": _summary(analyze_fibers(_model("0", "t - 1"))),
        "j2": _summary(analyze_fibers(_model("1", "t - 1"))),
        "j3": _summary(analyze_fibers(_model("1", "t - s", _QW3, s=s))),
    }
    return _result("example3", expected, actual, anchor)


def _scenario_lemma1() -> ScenarioResult:
    anchor = ('"chi_topol(X^{g o iota}) = -3 by the topological Lefschetz '
              'fixed point formula ... X^{g o iota} consists of finitely '
              'many points, a contradiction"; eigenvalue pairing leaves '
              '"between 6 and 8 entries of 22nd primitive roots"')
    report = order22_replay("lemma1")
    flagged = [c for c in report.candidates if c.rule == RULE_NEGATIVE_FINITE]
    expected = {
        "survivors": 0,
        "candidates": 2,
        "rules": sorted([RULE_GALOIS, RULE_NEGATIVE_FINITE]),
        "flagged_lefschetz": [-3],
    }
    actual = {
        "survivors": len(report.survivors),
        "candidates": len(report.candidates),
        "rules": sorted(c.rule for c in report.candidates),
        "flagged_lefschetz": [c.lefschetz for c in flagged],
    }
    return _result("lemma1", expected, actual, anchor)


def _scenario_lemma2() -> ScenarioResult:
    anchor = ('"(rank(M), det(M)) = (2, -1), (2, -11), (2, -11^2), '
              '(12, -1), (12, -11)" and "M is isomorphic to either U, '
              'U(11) or U + A10"')
    cases = rank_det_cases()
    expected = {
        "pairs": [[2, -1], [2, -11], [2, -121], [12, -1], [12, -11]],
        "killed": [[[2, -11], REASON_MOD4], [[12, -1], REASON_MOD8]],
        "survivors": ["U", "U(11)", "U + A10"],
    }
    actual = {
        "pairs": [[c.rank_m, c.det_m] for c in cases],
        "killed": [
            [[c.rank_m, c.det_m], c.reason] for c in cases if not c.feasible
        ],
        "survivors": [c.label for c in cases if c.feasible],
    }
    return _result("lemma2", expected, actual, anchor)


def _scenario_prop3() -> ScenarioResult:
    anchor = ('"24 = chi_topol(X_0) + chi_topol(X_inf) + 11m"; "(X_0, '
              'X_inf) is of type (I_0, II)" and the other singular fibers '
              'are all II, all I_1, or all I_2')
    pool = ("I1", "I2", "I3", "II", "III", "IV", "I0*", "IV*", "III*", "II*")
    configs = fiber_orbit_configs(24, {"I0", "II"}, {"I0", "II"}, pool)
    expected = {
        "configs": [
            [["I0", "II"], ["I1", "I1"]],
            [["I0", "II"], ["I2"]],
            [["I0", "II"], ["II"]],
        ],
        "eulers": [24, 24, 24],
    }
    actual = {
        "configs": [
            [list(c.fixed_fibers), list(c.orbit_fibers)] for c in configs
        ],
        "eulers": [c.euler_total for c in configs],
    }
    return _result("prop3", expected, actual, anchor)


def _scenario_claim4() -> ScenarioResult:
    anchor = ('"(S.F) = 0 implies that a = 0 and hence S = b[F]. This '
              'leads to -22 = (S)^2 = (bF)^2 = 0, which is a '
              'contradiction"; the section class is the unique solution '
              'of v.F = 1, v^2 = -2')
    # basis (section, fiber) of the hyperbolic summand
    lat = Lattice(((-2, 1), (1, 0)))
    section = divisor_class_solve(lat, [((0, 1), 1)], -2)
    orbit_sum = divisor_class_solve(lat, [((0, 1), 0)], -22)
    expected = {
        "section_solutions": [[1, 0]],
        "section_complete": True,
        "orbit_solutions": [],
        "orbit_complete": True,
    }
    actual = {
        "section_solutions": [list(v) for v in section.solutions],
        "section_complete": section.complete,
        "orbit_solutions": [list(v) for v in orbit_sum.solutions],
        "orbit_complete": orbit_sum.complete,
    }
    return _result("claim4", expected, actual, anchor)


def _scenario_claim5() -> ScenarioResult:
    anchor = ('"J(t) := 4a(t)^3/(4a(t)^3 + 27b(t)^2) = 0 ... a(t) = 0"; '
              '"Delta(t) = c (t^11 - 1)^2", "b(t) = c\' (t^11 - 1)", so '
              'the equation is "y^2 = x^3 + (t^11 - 1)"')
    m = _model("0", "t^11 - 1")
    num, den = j_map(m)
    content, factors = squarefree_decompose(discriminant(m))
    expected = {
        "j_vanishes": True,
        "delta_content": "27",
        "delta_factors": [["t^11 - 1", 2]],
        "b_support_mod_11": [0],
        "surface": "K3",
    }
    actual = {
        "j_vanishes": num.is_zero and den == Poly.constant(RATIONALS, 1),
        "delta_content": str(content),
        "delta_factors": [[str(f), k] for f, k in factors],
        "b_support_mod_11": _exponent_support_mod(m.b, 11),
        "surface": analyze_fibers(m).surface,
    }
    return _result("claim5", expected, actual, anchor)


def _scenario_claim6() -> ScenarioResult:
    anchor = ('"y^2 = x^3 + x + (t^11 - s)" has "22 singular fibers of '
              'type I_1 and a singular fiber of type II if and only if '
              's != +-sqrt(-4/27)"; a(t), b(t) are semi-invariant, so '
              'their exponents are multiples of 11')
    generic = _model("1", "t^11 - 1")
    analysis = analyze_fibers(generic)
    special = analyze_fibers(_model("1", "t^11 - s", _QW3, s=_special_s()))
    i1_degree = sum(f.degree for f in analysis.fibers if f.kodaira_type == "I1")
    expected = {
        "generic_i1_count": 22,
        "generic_fibers": [
            ["t^11 - 1", 11, "I0"],
            ["t^22 - 2*t^11 + 31/27", 22, "I1"],
            ["infinity", 1, "II"],
        ],
        "euler": 24,
        "surface": "K3",
        "a_support_mod_11": [0],
        "b_support_mod_11": [0],
        "boundary_s_degenerates": True,
    }
    actual = {
        "generic_i1_count": i1_degree,
        "generic_fibers": _table(analysis),
        "euler": analysis.euler_total,
        "surface": analysis.surface,
        "a_support_mod_11": _exponent_support_mod(generic.a, 11),
        "b_support_mod_11": _exponent_support_mod(generic.b, 11),
        "boundary_s_degenerates": any(
            f.kodaira_type == "I11" for f in special.fibers
        ),
    }
    return _result("claim6", expected, actual, anchor)


def _scenario_lemma7() -> ScenarioResult:
    anchor = ('three cases: "X_0 smooth ... remaining fibers all of type '
              'II", "X_0 smooth ... all of type I_1", "X_0 of type I_11 '
              '... all of type I_1"; always "X_inf is of type II" and the '
              'action at its points is "1/11(5,7)" and "1/11(2,10)"')
    configs = fiber_orbit_configs(24, {"I0", "I11"}, {"II"}, {"I1", "II"})
    expected = {
        "configs": [
            [["I0", "II"], ["I1", "I1"]],
            [["I0", "II"], ["II"]],
            [["I11", "II"], ["I1"]],
        ],
        "omega_weights": [1, 1],
    }
    actual = {
        "configs": [
            [list(c.fixed_fibers), list(c.orbit_fibers)] for c in configs
        ],
        "omega_weights": [
            LocalAction(11, (5, 7)).omega_weight,
            LocalAction(11, (2, 10)).omega_weight,
        ],
    }
    return _result("lemma7", expected, actual, anchor)


def _scenario_lemma8() -> ScenarioResult:
    anchor = ('quotient fibrations: "(1) T_0 of type 11_I_0, T_inf of '
              'type II*, T_1 of type II; (2) ... T_1 and T_alpha^11 of '
              'type I_1; (3) T_0 of type 11_I_1 ... T_1 of type I_1" — '
              'all rational with chi_topol = 12')
    configs = [
        FiberConfiguration(((11, "I0", 1), (1, "II*", 1), (1, "II", 1))),
        FiberConfiguration(((11, "I0", 1), (1, "II*", 1), (1, "I1", 2))),
        FiberConfiguration(((11, "I1", 1), (1, "II*", 1), (1, "I1", 1))),
    ]
    checks = [config_euler_check(c, 12) for c in configs]
    expected = {
        "totals": [12, 12, 12],
        "all_pass": True,
    }
    actual = {
        "totals": [c.total for c in checks],
        "all_pass": all(c.passed for c in checks),
    }
    return _result("lemma8", expected, actual, anchor)


def _scenario_lemma9() -> ScenarioResult:
    anchor = ('"the topological Lefschetz formula shows that the only '
              'possible case is" S = diag[1, -1, zeta_11^j], T = '
              'diag[-zeta_11^j]; then "there are no a in {5,7}, b in '
              '{2,10} with a + b = 0 (mod 11)"')
    report = order22_replay("lemma9")
    consistent = [c for c in report.candidates if c.lefschetz_consistent]
    expected = {
        "candidates": 6,
        "survivors": 0,
        "lefschetz_consistent": ["S: [1, -1, Phi(11)]; T: [Phi(22)]"],
        "final_rule": RULE_WEIGHTS,
        "curve_possible": False,
    }
    actual = {
        "candidates": len(report.candidates),
        "survivors": len(report.survivors),
        "lefschetz_consistent": [c.pattern.as_literal() for c in consistent],
        "final_rule": consistent[0].rule if consistent else None,
        "curve_possible": local_curve_possible({5, 7}, {2, 10}, 11),
    }
    return _result("lemma9", expected, actual, anchor)


def _scenario_control() -> ScenarioResult:
    anchor = ('the order-11 pattern S = diag[1, 1, zeta_11^j], T = '
              'diag[zeta_11^j] is consistent with two isolated fixed '
              'points and survives every elimination rule')
    report = order22_replay("control")
    expected = {
        "survivors": 1,
        "pattern": "S: [1*2, Phi(11)]; T: [Phi(11)]",
        "lefschetz": 2,
    }
    actual = {
        "survivors": len(report.survivors),
        "pattern": report.survivors[0].pattern.as_literal()
        if report.survivors else None,
        "lefschetz": report.survivors[0].lefschetz
        if report.survivors else None,
    }
    return _result("control", expected, actual, anchor)


def _result(name: str, expected, actual, anchor: str) -> ScenarioResult:
    status = "pass" if expected == actual else "fail"
    return ScenarioResult(name, status, expected, actual, anchor)


SCENARIOS: dict[str, Callable[[], ScenarioResult]] = {
    "example1": _scenario_example1,
    "example2": _scenario_example2,
    "example3": _scenario_example3,
    "lemma1": _scenario_lemma1,
    "lemma2": _scenario_lemma2,
    "prop3": _scenario_prop3,
    "claim4": _scenario_claim4,
    "claim5": _scenario_claim5,
    "claim6": _scenario_claim6,
    "lemma7": _scenario_lemma7,
    "lemma8": _scenario_lemma8,
    "lemma9": _scenario_lemma9,
    "control": _scenario_control,
}


def run_scenarios(selector: str | None = None) -> VerificationReport:
    """Run the whole suite, or a single named scenario."""
    if selector is None or selector == "all":
        names = list(SCENARIOS)
    elif selector in SCENARIOS:
        names = [selector]
    else:
        raise ValueError(
            f"unknown scenario {brief(selector)}; known: {', '.join(SCENARIOS)}"
        )
    return VerificationReport(tuple(SCENARIOS[name]() for name in names))
