"""Case-enumeration tests: the five-row rank/det table, orbit
configurations under the Euler identity, and the order-22 elimination
replays.  The orbit enumerator is cross-checked against an independent
brute force over bounded type lists.
"""

import itertools

import pytest

from k3auto import enumerations
from k3auto.ellsurf import fiber_euler_number
from k3auto.enumerations import (
    REASON_MOD4,
    REASON_MOD8,
    REASON_OK,
    RULE_GALOIS,
    RULE_LEFSCHETZ,
    RULE_NEGATIVE_FINITE,
    RULE_WEIGHTS,
    OrbitConfig,
    fiber_orbit_configs,
    kodaira_types_up_to,
    order22_replay,
    rank_det_cases,
)
from k3auto.lattice import brute_force_even_rank2


def test_rank_det_table():
    cases = rank_det_cases()
    assert [(c.rank_m, c.det_m) for c in cases] == [
        (2, -1), (2, -11), (2, -121), (12, -1), (12, -11),
    ]
    by_pair = {(c.rank_m, c.det_m): c for c in cases}
    assert by_pair[(2, -11)].feasible is False
    assert by_pair[(2, -11)].reason == REASON_MOD4
    assert by_pair[(12, -1)].feasible is False
    assert by_pair[(12, -1)].reason == REASON_MOD8
    survivors = [c for c in cases if c.feasible]
    assert [c.label for c in survivors] == ["U", "U(11)", "U + A10"]
    assert all(c.reason == REASON_OK for c in survivors)
    # closed-form shape: rank N in {10, 20}, 0 <= s <= rank N / 10
    assert {(22 - c.rank_m, c.s) for c in cases} == {
        (20, 0), (20, 1), (20, 2), (10, 0), (10, 1),
    }
    assert all(c.det_m == -(11 ** c.s) for c in cases)


def test_rank_det_cases_build_each_label_lattice_once(monkeypatch):
    calls = {"build": 0, "det": 0}
    build, det = enumerations.build_lattice, enumerations.determinant_and_signature

    def counting_build(expr):
        calls["build"] += 1
        return build(expr)

    def counting_det(lat):
        calls["det"] += 1
        return det(lat)

    monkeypatch.setattr(enumerations, "build_lattice", counting_build)
    monkeypatch.setattr(enumerations, "determinant_and_signature", counting_det)
    labels = [c.label for c in rank_det_cases()]
    assert labels == ["U", None, "U(11)", None, "U + A10"]
    # one lattice per candidate label, U, U(11) and U + A10, per call
    assert calls == {"build": 3, "det": 3}


def test_rank2_mod4_rule_matches_brute_force():
    # no even rank-2 lattice of det -11 exists; det -1 and -121 do
    assert brute_force_even_rank2(-11, entry_bound=12) == []
    assert brute_force_even_rank2(-1, entry_bound=3)
    assert brute_force_even_rank2(-121, entry_bound=12)


def test_kodaira_pool():
    pool = kodaira_types_up_to(2)
    assert pool == ("I1", "I2", "II")
    assert "I0" not in kodaira_types_up_to(12)
    assert "II*" in kodaira_types_up_to(10)
    assert "I0*" in kodaira_types_up_to(6)


def test_orbit_config_euler_and_str():
    config = OrbitConfig(("I0", "II"), ("I1", "I1"), 11, 24)
    assert config.euler_total == 0 + 2 + 11 * 2
    assert str(config) == "[0: I0, inf: II, orbits: 11xI1, 11xI1]"
    with pytest.raises(ValueError, match="unknown fiber type 'V'"):
        fiber_orbit_configs(24, ["I0", "V"], ["II"], ["I1"])


def test_orbit_config_record_contract():
    config = OrbitConfig(("I0", "II"), ("I1", "I1"), 11, 24)
    twin = OrbitConfig(("I0", "II"), ("I1", "I1"), 11, 24)
    assert config == twin and hash(config) == hash(twin)
    assert config.as_record() == twin.as_record()
    assert config != OrbitConfig(("I0", "II"), ("I2",), 11, 24)
    with pytest.raises(AttributeError):
        config.orbit_size = 1
    with pytest.raises(AttributeError):
        config.label = "x"
    assert repr(config) == (
        "OrbitConfig(fixed_fibers=('I0', 'II'), orbit_fibers=('I1', 'I1'), "
        "orbit_size=11, euler_total=24)"
    )
    assert config.as_record() == {
        "fixed": ("I0", "II"), "orbits": ("I1", "I1"), "orbit_size": 11, "euler_total": 24,
    }
    bare = OrbitConfig(("I22", "II"), (), 11, 24)
    assert str(bare) == "[0: I22, inf: II]"
    assert repr(bare) == (
        "OrbitConfig(fixed_fibers=('I22', 'II'), orbit_fibers=(), "
        "orbit_size=11, euler_total=24)"
    )


def orbit_args(total_euler):
    """The arguments of the benchmark's orbits ops: I0 or any singular type
    of Euler number <= 24 at the fixed places, every type an orbit of 11
    fibers can afford in the orbits."""
    fixed = ("I0",) + kodaira_types_up_to(24)
    return total_euler, fixed, fixed, kodaira_types_up_to(total_euler // 11)


def test_orbit_configs_key_each_entry_once(monkeypatch):
    args = orbit_args(96)
    calls = []

    def counting(symbol):
        calls.append(symbol)
        return fiber_euler_number(symbol)

    monkeypatch.setattr(enumerations, "fiber_euler_number", counting)
    configs = fiber_orbit_configs(*args)
    assert len(configs) == 4216
    assert len(calls) <= sum(map(len, args[1:])) == 115


@pytest.mark.parametrize("total", (24, 48, 96))
def test_orbit_configs_sum_to_the_budget(total):
    for c in fiber_orbit_configs(*orbit_args(total)):
        recomputed = (sum(map(fiber_euler_number, c.fixed_fibers))
                      + c.orbit_size * sum(map(fiber_euler_number, c.orbit_fibers)))
        assert c.euler_total == total == recomputed
        # a plain record: its four fields rebuild it
        assert OrbitConfig(c.fixed_fibers, c.orbit_fibers, c.orbit_size, total) == c


def test_orbit_output_cap_counts_before_building(monkeypatch):
    # orbits96: 4,216 configurations, each weighted by its orbit budget
    args = orbit_args(96)
    weighted = sum(
        max(1, (96 - sum(map(fiber_euler_number, c.fixed_fibers))) // 11)
        for c in fiber_orbit_configs(*args)
    )
    monkeypatch.setattr(enumerations, "MAX_ORBIT_OUTPUT", weighted)
    assert len(fiber_orbit_configs(*args)) == 4216

    def never(*_):
        raise AssertionError("a multiset was built above the cap")

    monkeypatch.setattr(enumerations, "MAX_ORBIT_OUTPUT", weighted - 1)
    monkeypatch.setattr(enumerations, "weighted_multisets", never)
    with pytest.raises(ValueError, match="weighted by its orbit budget"):
        fiber_orbit_configs(*args)


@pytest.mark.parametrize("args, named", [
    ((3001, ["I0"], ["I0"], ["I1"], 1), "total_euler // orbit_size"),
    ((3000, ["I0"], ["I0"], [f"I{n}" for n in range(1, 101)], 1), "completion table"),
], ids=["budget", "table"])
def test_orbit_enumeration_caps(args, named):
    with pytest.raises(ValueError, match=named):
        fiber_orbit_configs(*args)


def test_main_orbit_enumeration():
    pool = kodaira_types_up_to(12)
    configs = fiber_orbit_configs(24, {"I0", "II"}, {"I0", "II"}, pool)
    assert [(c.fixed_fibers, c.orbit_fibers) for c in configs] == [
        (("I0", "II"), ("I1", "I1")),
        (("I0", "II"), ("I2",)),
        (("I0", "II"), ("II",)),
    ]
    assert all(c.euler_total == 24 for c in configs)

    # the multiplicity-2 orbit type removed: two cases remain
    narrowed = fiber_orbit_configs(
        24, {"I0", "II"}, {"I0", "II"}, [s for s in pool if s != "I2"]
    )
    assert [c.orbit_fibers for c in narrowed] == [("I1", "I1"), ("II",)]


def test_translation_orbit_enumeration():
    configs = fiber_orbit_configs(24, {"I0", "I11"}, {"II"}, {"I1", "II"})
    assert [(c.fixed_fibers, c.orbit_fibers) for c in configs] == [
        (("I0", "II"), ("I1", "I1")),
        (("I0", "II"), ("II",)),
        (("I11", "II"), ("I1",)),
    ]

    # widened fixed-fiber set: the Euler identity also admits a single
    # multiplicity-22 fiber at 0 with no free orbits at all
    widened = fiber_orbit_configs(24, {"I0", "I11", "I22"}, {"II"}, {"I1", "II"})
    assert (("I22", "II"), ()) in {
        (c.fixed_fibers, c.orbit_fibers) for c in widened
    }
    assert len(widened) == 4


def brute_force_orbit_configs(total, zero_set, inf_set, pool, orbit_size=11):
    """Independent enumeration: bound each orbit count by total/orbit_size
    and scan the full product."""
    pool = sorted(set(pool) - {"I0"})
    results = set()
    max_count = total // orbit_size
    ranges = [range(max_count // max(1, fiber_euler_number(s)) + 1) for s in pool]
    for f0 in sorted(zero_set):
        for finf in sorted(inf_set):
            for counts in itertools.product(*ranges):
                orbit_sum = sum(
                    c * fiber_euler_number(s) for c, s in zip(counts, pool)
                )
                e = (
                    fiber_euler_number(f0)
                    + fiber_euler_number(finf)
                    + orbit_size * orbit_sum
                )
                if e != total:
                    continue
                orbit = tuple(
                    sorted(
                        s for c, s in zip(counts, pool) for _ in range(c)
                    )
                )
                fixed = (f0, finf)
                if finf in zero_set and f0 in inf_set:
                    fixed = min(fixed, (finf, f0))
                results.add((fixed, orbit))
    return results


def test_orbit_enumeration_exhaustive_vs_brute_force():
    settings = [
        (24, {"I0", "II"}, {"I0", "II"}, kodaira_types_up_to(4)),
        (24, {"I0", "I11"}, {"II"}, {"I1", "II", "I2"}),
        (12, {"I0", "II"}, {"II*"}, {"I1"}, 1),
        (24, {"I0"}, {"I0"}, kodaira_types_up_to(12)),
        (22, {"I0", "I11"}, {"I0", "I11"}, {"I1", "II", "III"}),
    ]
    for setting in settings:
        mine = fiber_orbit_configs(*setting)
        want_raw = brute_force_orbit_configs(*setting)
        # normalize: brute force sorts swappable pairs lexicographically,
        # the enumerator sorts them by (euler, symbol); compare as sets of
        # unordered pairs + orbit
        norm_mine = {
            (frozenset(c.fixed_fibers), tuple(sorted(c.orbit_fibers)))
            for c in mine
        }
        norm_brute = {
            (frozenset(fixed), tuple(sorted(orbit)))
            for fixed, orbit in want_raw
        }
        assert norm_mine == norm_brute
        assert len(mine) == len(norm_mine)  # no duplicates
        assert all(c.euler_total == setting[0] for c in mine)


def test_first_replay_eliminates_everything():
    report = order22_replay("lemma1")
    assert report.scenario == "lemma1"
    assert len(report.candidates) == 2
    assert report.survivors == ()
    rules = {c.rule for c in report.candidates}
    assert rules == {RULE_NEGATIVE_FINITE, RULE_GALOIS}
    trivial = next(
        c for c in report.candidates if c.rule == RULE_NEGATIVE_FINITE
    )
    assert trivial.lefschetz == -3
    assert trivial.pattern.as_literal() == "S: [1*4, -1*8]; T: [Phi(11)]"
    blocked = next(c for c in report.candidates if c.rule == RULE_GALOIS)
    assert "between 6 and 8" in blocked.detail


def test_second_replay_unique_survivor_killed_by_weights():
    report = order22_replay("lemma9")
    assert report.expected_lefschetz == 2
    assert len(report.candidates) == 6
    assert report.survivors == ()
    assert [c.lefschetz for c in report.candidates].count(2) == 1
    consistent = [c for c in report.candidates if c.lefschetz_consistent]
    assert len(consistent) == 1
    final = consistent[0]
    assert final.rule == RULE_WEIGHTS
    assert final.pattern.as_literal() == "S: [1, -1, Phi(11)]; T: [Phi(22)]"
    assert "S: [1*11, -1]; T: [-1*10]" in final.detail
    others = [c for c in report.candidates if not c.lefschetz_consistent]
    assert all(c.rule == RULE_LEFSCHETZ for c in others)
    assert sorted(c.lefschetz for c in others) == [4, 4, 4, 6, 6]
    # four candidates with the rank-10 transcendental part, two with rank 20
    ranks = [c.pattern.transcendental.rank for c in report.candidates]
    assert sorted(ranks) == [10, 10, 10, 10, 20, 20]


def test_control_replay_survives():
    report = order22_replay("control")
    assert len(report.candidates) == 1
    assert len(report.survivors) == 1
    survivor = report.survivors[0]
    assert survivor.pattern.transcendental.counts() == {11: 1}
    assert survivor.lefschetz == 2
    assert survivor.rule is None


def test_replay_reports_are_json_shaped_and_deterministic():
    import json

    for scenario in ("lemma1", "lemma9", "control"):
        a = order22_replay(scenario).as_report()
        b = order22_replay(scenario).as_report()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert set(a) == {
            "scenario", "assumptions", "expected_lefschetz", "candidates",
            "survivors",
        }
        for c in a["candidates"]:
            assert set(c) == {
                "label", "pattern", "lefschetz", "lefschetz_consistent",
                "status", "rule", "detail",
            }
    with pytest.raises(ValueError):
        order22_replay("lemma99")
