"""The replay suite itself: every scenario passes, reports are stable."""

import gc
import json

import pytest

from k3auto.enumerations import fiber_orbit_configs, kodaira_types_up_to, order22_replay
from k3auto.isometry import char_poly_decompositions
from k3auto.verify import SCENARIOS, VerificationReport, run_scenarios


def test_every_scenario_passes():
    report = run_scenarios()
    for result in report.results:
        assert result.status == "pass", (result.name, result.expected, result.actual)
    assert report.passed


def test_scenario_roster_and_order():
    report = run_scenarios("all")
    assert [r.name for r in report.results] == [
        "example1", "example2", "example3",
        "lemma1", "lemma2", "prop3",
        "claim4", "claim5", "claim6",
        "lemma7", "lemma8", "lemma9",
        "control",
    ]


def test_single_scenario_selection():
    report = run_scenarios("claim4")
    assert len(report.results) == 1
    assert report.results[0].name == "claim4"
    with pytest.raises(ValueError):
        run_scenarios("lemma3")


def test_records_have_fixed_shape():
    report = run_scenarios()
    for record in report.as_report()["scenarios"]:
        assert set(record) == {"name", "status", "expected", "actual", "anchor"}
        assert record["anchor"]  # never empty


def test_reports_are_byte_identical_across_runs():
    a = json.dumps(run_scenarios().as_report(), sort_keys=True, indent=2)
    b = json.dumps(run_scenarios().as_report(), sort_keys=True, indent=2)
    assert a == b
    json.loads(a)  # well-formed


def test_text_rendering():
    text = run_scenarios().to_text()
    assert text.endswith(f"{len(SCENARIOS)}/{len(SCENARIOS)} scenarios pass")
    assert "[PASS] example1" in text


def test_failure_is_rendered_with_both_sides():
    from k3auto.verify import ScenarioResult

    report = VerificationReport((
        ScenarioResult("demo", "fail", {"x": 1}, {"x": 2}, "a quoted claim"),
    ))
    assert not report.passed
    text = report.to_text()
    assert "expected" in text and "actual" in text
    assert report.as_report()["passed"] is False


FIXED = ("I0",) + kodaira_types_up_to(24)
PAPER_OPS = {
    "char_poly_decompositions.66.22": lambda: char_poly_decompositions(66, 22),
    "order22.lemma1": lambda: order22_replay("lemma1"),
    "order22.lemma9": lambda: order22_replay("lemma9"),
    "order22.control": lambda: order22_replay("control"),
    "orbits96": lambda: fiber_orbit_configs(96, FIXED, FIXED, kodaira_types_up_to(8)),
    **{f"scenario.{name}": op for name, op in SCENARIOS.items()},
}


@pytest.mark.parametrize("op", PAPER_OPS.values(), ids=PAPER_OPS.keys())
def test_paper_op_leaves_no_reference_cycle(op):
    # with the cyclic collector off, what an op allocates must be freed by
    # reference counting alone: a cycle would keep its whole result alive
    # until the next collection
    gc.disable()
    try:
        gc.collect()
        op()
        assert gc.collect() == 0
    finally:
        gc.enable()
