"""Fiber classification: table rows, minimalization, and the worked
surfaces whose tables are fixed expectations.

The systematic cross-check is sum(degree * euler) == 12k on relatively
minimal models, plus agreement between the fiber at infinity and the fiber
at the origin of the explicitly flipped model.
"""

from fractions import Fraction

import pytest

from k3auto import ellsurf
from k3auto.errors import InconsistentValuationsError, InvalidModelError
from k3auto.ellsurf import (
    NON_MINIMAL,
    EulerCheck,
    FiberConfiguration,
    WeierstrassModel,
    analyze_fibers,
    config_euler_check,
    discriminant,
    fiber_euler_number,
    flip_model,
    j_map,
    kodaira_type_from_valuations,
    minimalize_at_place,
)
from k3auto.parsing import parse_poly
from k3auto.polyfield import OMEGA, FieldContext, Place, Poly, RATIONALS, valuation

Q = RATIONALS
QW3 = FieldContext(d=-3)
S_SPECIAL = Poly.make(QW3, [(0, Fraction(2, 9))])


def model(a_text: str, b_text: str, context=Q, **bindings) -> WeierstrassModel:
    return WeierstrassModel(
        parse_poly(a_text, context, bindings),
        parse_poly(b_text, context, bindings),
    )


def table(analysis) -> list[tuple[str, int, str]]:
    return [(str(f.place), f.degree, f.kodaira_type) for f in analysis.fibers]


def test_euler_numbers():
    assert fiber_euler_number("I0") == 0
    assert fiber_euler_number("I11") == 11
    assert fiber_euler_number("I0*") == 6
    assert fiber_euler_number("I4*") == 10
    for symbol, e in (("II", 2), ("III", 3), ("IV", 4), ("IV*", 8), ("III*", 9), ("II*", 10)):
        assert fiber_euler_number(symbol) == e
    # only canonical spellings: ASCII digits, no leading zero, nothing after
    for symbol in ("V", "I01", "I00", "I02*", "I\u0662", "I1\n", "I1*\n", " I1", "I"):
        with pytest.raises(ValueError, match="unknown fiber type"):
            fiber_euler_number(symbol)


def test_type_table_rows():
    assert kodaira_type_from_valuations(0, 0, 0) == "I0"
    assert kodaira_type_from_valuations(0, 0, 5) == "I5"
    assert kodaira_type_from_valuations(1, 1, 2) == "II"
    assert kodaira_type_from_valuations(OMEGA, 1, 2) == "II"
    assert kodaira_type_from_valuations(1, 2, 3) == "III"
    assert kodaira_type_from_valuations(1, OMEGA, 3) == "III"
    assert kodaira_type_from_valuations(2, 2, 4) == "IV"
    assert kodaira_type_from_valuations(2, 3, 6) == "I0*"
    assert kodaira_type_from_valuations(3, 3, 6) == "I0*"
    assert kodaira_type_from_valuations(2, 4, 6) == "I0*"
    assert kodaira_type_from_valuations(2, OMEGA, 6) == "I0*"
    assert kodaira_type_from_valuations(2, 3, 9) == "I3*"
    assert kodaira_type_from_valuations(3, 4, 8) == "IV*"
    assert kodaira_type_from_valuations(OMEGA, 4, 8) == "IV*"
    assert kodaira_type_from_valuations(3, 5, 9) == "III*"
    assert kodaira_type_from_valuations(3, OMEGA, 9) == "III*"
    assert kodaira_type_from_valuations(4, 5, 10) == "II*"
    assert kodaira_type_from_valuations(OMEGA, 5, 10) == "II*"
    assert kodaira_type_from_valuations(4, 6, 12) == NON_MINIMAL
    assert kodaira_type_from_valuations(OMEGA, 7, 14) == NON_MINIMAL


def test_type_table_rejects_impossible_triples():
    for triple in ((1, 1, 3), (0, 1, 1), (1, 0, 5), (2, 3, 5), (3, 4, 9), (4, 6, 11)):
        with pytest.raises(InconsistentValuationsError):
            kodaira_type_from_valuations(*triple)
    with pytest.raises(InconsistentValuationsError):
        kodaira_type_from_valuations(-1, 0, 0)
    with pytest.raises(InconsistentValuationsError):
        kodaira_type_from_valuations(0, 0, OMEGA)


def test_minimalize():
    assert minimalize_at_place(4, 6, 12) == (0, 0, 0, 1)
    assert minimalize_at_place(8, 12, 24) == (0, 0, 0, 2)
    assert minimalize_at_place(2, 3, 7) == (2, 3, 7, 0)
    v_a, v_b, v_delta, steps = minimalize_at_place(OMEGA, 7, 14)
    assert v_a is OMEGA and (v_b, v_delta, steps) == (1, 2, 1)
    with pytest.raises(InconsistentValuationsError):
        minimalize_at_place(4, 6, 11)


def test_model_validation_and_k():
    with pytest.raises(InvalidModelError):
        model("0", "0")
    with pytest.raises(InvalidModelError):
        # 4a^3 = -27b^2 identically
        WeierstrassModel(
            parse_poly("-3*t^2", Q), parse_poly("2*t^3", Q)
        )
    assert model("0", "t - 1").k == 1
    assert model("0", "t^6 - 1").k == 1
    assert model("0", "t^7 - 1").k == 2
    assert model("t^4 + t", "0").k == 1
    assert model("t^5", "0").k == 2
    assert model("1", "1").k == 1


def test_derived_fields_stay_out_of_equality_and_repr():
    # delta and euler_total are computed once, at construction, and neither
    # is compared, hashed, shown or assignable
    m, twin = model("1", "t^11 - 1"), model("1", "t^11 - 1")
    assert m == twin and hash(m) == hash(twin) and m.delta is not twin.delta
    assert m != (m.a, m.b) and m.delta == parse_poly("27*t^22 - 54*t^11 + 31", Q)
    assert repr(m) == "WeierstrassModel(a=Poly(1), b=Poly(t^11 - 1))"
    config = FiberConfiguration(((1, "II*", 1), (1, "II", 1)))
    assert config == FiberConfiguration(entries=((1, "II*", 1), (1, "II", 1)))
    assert repr(config) == "FiberConfiguration(entries=((1, 'II*', 1), (1, 'II', 1)))"
    for value, field in ((m, "delta"), (m, "a"), (config, "euler_total")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_sixty_six_surface():
    # a = 0, b = t^11 - 1: eleven II fibers in one degree-11 place, II at
    # infinity, Euler number 24, K3
    analysis = analyze_fibers(model("0", "t^11 - 1"))
    assert table(analysis) == [("t^11 - 1", 11, "II"), ("infinity", 1, "II")]
    fiber = analysis.fibers[0]
    assert fiber.v_a is OMEGA and fiber.v_b == 1 and fiber.v_delta == 2
    assert analysis.k == 2
    assert str(analysis.surface) == "K3"
    assert analysis.euler_total == 24
    assert analysis.relatively_minimal


def test_generic_translation_surface():
    # a = 1, b = t^11 - 1: twenty-two I1 fibers in one degree-22 place
    analysis = analyze_fibers(model("1", "t^11 - 1"))
    delta = discriminant(model("1", "t^11 - 1"))
    assert table(analysis) == [
        ("t^11 - 1", 11, "I0"),
        (str(delta.monic()), 22, "I1"),
        ("infinity", 1, "II"),
    ]
    assert analysis.euler_total == 24
    assert str(analysis.surface) == "K3"


def test_special_member_surface():
    m = model("1", "t^11 - s", QW3, s=S_SPECIAL)
    # identity under s^2 = -4/27: Delta = 27 t^11 (t^11 - 2s)
    delta = discriminant(m)
    expected = parse_poly("27 * t^11 * (t^11 - 2*s)", QW3, bindings={"s": S_SPECIAL})
    assert (delta - expected).is_zero
    analysis = analyze_fibers(m)
    assert table(analysis) == [
        ("t", 1, "I11"),
        (str(parse_poly("t^11 - 2*s", QW3, bindings={"s": S_SPECIAL})), 11, "I1"),
        (str(parse_poly("t^11 - s", QW3, bindings={"s": S_SPECIAL})), 11, "I0"),
        ("infinity", 1, "II"),
    ]
    assert analysis.euler_total == 24
    assert str(analysis.surface) == "K3"


def test_rational_quotient_surfaces():
    # the three j-line companions: all rational with Euler number 12
    j1 = analyze_fibers(model("0", "t - 1"))
    assert table(j1) == [("t - 1", 1, "II"), ("infinity", 1, "II*")]
    assert j1.euler_total == 12 and str(j1.surface) == "rational"

    j2 = analyze_fibers(model("1", "t - 1"))
    assert [entry for entry in table(j2) if entry[2] != "I0"] == [
        ("t^2 - 2*t + 31/27", 2, "I1"),
        ("infinity", 1, "II*"),
    ]
    assert j2.euler_total == 12 and str(j2.surface) == "rational"

    # here Delta = 27 t (t - 2s); both roots sit in one squarefree degree-2
    # place, i.e. two geometric I1 fibers
    j3 = analyze_fibers(model("1", "t - s", QW3, s=S_SPECIAL))
    assert [entry for entry in table(j3) if entry[2] != "I0"] == [
        (str(parse_poly("t * (t - 2*s)", QW3, bindings={"s": S_SPECIAL})), 2, "I1"),
        ("infinity", 1, "II*"),
    ]
    assert j3.euler_total == 12 and str(j3.surface) == "rational"


def test_j_map():
    num, den = j_map(model("0", "t^11 - 1"))
    assert num.is_zero and den == Poly.constant(Q, 1)
    num, den = j_map(model("t", "0"))
    assert num == Poly.constant(Q, 1) and den == Poly.constant(Q, 1)
    num, den = j_map(model("1", "t - 1"))
    assert den == discriminant(model("1", "t - 1")).monic()
    assert num == Poly.constant(Q, Fraction(4, 27))


def test_non_minimal_model_reported_not_fixed():
    analysis = analyze_fibers(model("t^4", "t^6"))
    assert not analysis.relatively_minimal
    place_t = next(f for f in analysis.fibers if str(f.place) == "t")
    assert place_t.minimalization_steps == 1
    assert place_t.kodaira_type == "I0"
    assert analysis.euler_total != analysis.expected_euler


def test_fiber_analysis_reads_euler_numbers_from_valuations(monkeypatch):
    # each fiber's Euler number is its minimal v(Delta); no symbol is parsed
    calls = []
    monkeypatch.setattr(ellsurf, "fiber_euler_number", calls.append)
    report = analyze_fibers(model("1", "t^11 - 1")).as_report()
    assert calls == []
    assert [f["euler"] for f in report["fibers"]] == [0, 1, 2]
    assert report["euler_total"] == 0 * 11 + 1 * 22 + 2 * 1 == 24


def reversed_to(p: Poly, degree: int) -> Poly:
    padded = list(p.coefficients) + [0] * (degree + 1 - len(p.coefficients))
    return Poly.make(p.context, padded[::-1])


def test_flip_matches_infinity_fiber():
    models = [
        model("0", "t^11 - 1"),
        model("1", "t^11 - 1"),
        model("0", "t - 1"),
        model("1", "t - 1"),
        model("1", "t - s", QW3, s=S_SPECIAL),
        model("1", "t^11 - s", QW3, s=S_SPECIAL),
    ]
    for m in models:
        flipped = flip_model(m)
        assert flip_model(flipped) == m
        # discriminants flip along with the model
        assert discriminant(flipped) == reversed_to(discriminant(m), 12 * m.k)
        # the infinity fiber is the flipped model's fiber at the origin
        origin = Place(Poly.monomial(m.context, 1))
        triple = minimalize_at_place(
            valuation(flipped.a, origin),
            valuation(flipped.b, origin),
            valuation(discriminant(flipped), origin),
        )
        at_inf = analyze_fibers(m).fibers[-1]
        assert at_inf.place == Place(None)
        assert kodaira_type_from_valuations(*triple[:3]) == at_inf.kodaira_type
        assert triple[2] == at_inf.v_delta and triple[3] == 0


def test_fiber_records_are_json_ready():
    analysis = analyze_fibers(model("0", "t^11 - 1"))
    record = analysis.fibers[0].as_record()
    assert record == {
        "place": "t^11 - 1",
        "degree": 11,
        "type": "II",
        "v_a": None,
        "v_b": 1,
        "v_delta": 2,
        "euler": 2,
    }


def test_fiber_configuration_rules():
    config = FiberConfiguration(((11, "I0", 1), (1, "II*", 1), (1, "II", 1)))
    assert config.euler_total == 12
    assert config_euler_check(config, 12) == EulerCheck(True, 12, 12)
    assert config_euler_check(config, 24) == EulerCheck(False, 12, 24)
    with pytest.raises(ValueError):
        FiberConfiguration(((11, "II", 1),))  # multiplicity on an additive type
    with pytest.raises(ValueError):
        FiberConfiguration(((2, "I1*", 1),))
    with pytest.raises(ValueError):
        FiberConfiguration(((0, "I1", 1),))
    assert FiberConfiguration(((11, "I1", 1),)).euler_total == 1


def test_fiber_configuration_sums_euler_numbers_once(monkeypatch):
    calls = []

    def counting(symbol):
        calls.append(symbol)
        return fiber_euler_number(symbol)

    monkeypatch.setattr(ellsurf, "fiber_euler_number", counting)
    config = FiberConfiguration(((11, "I0", 1), (1, "II*", 1), (1, "I1", 2)))
    assert calls == ["I0", "II*", "I1"]
    assert config.euler_total == config.euler_total == 12
    assert calls == ["I0", "II*", "I1"]
    with pytest.raises(ValueError, match="unknown fiber type 'I-1'"):
        FiberConfiguration(((1, "I-1", 1),))
