"""End-to-end tests of the command-line driver via ``main(argv)``."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from k3auto import cli
from k3auto.cli import main
from k3auto.verify import SCENARIOS, ScenarioResult


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- lattice


def test_lattice_json(capsys):
    code, out, _ = run(capsys, ["--json", "lattice", "U(11)"])
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2
    assert report["det"] == -121
    assert report["signature"] == [1, 1]
    assert report["discriminant_group"] == [11, 11]
    assert report["discriminant_order"] == 121
    assert report["even"] is True
    assert report["eleven_elementary"] is True


def test_lattice_text(capsys):
    code, out, _ = run(capsys, ["--text", "lattice", "U + A10"])
    assert code == 0
    assert "rank 12" in out
    assert "det -11" in out
    assert "signature (1, 11)" in out
    assert "11-elementary: yes" in out


def test_lattice_bad_expression_is_usage_error(capsys):
    code, _, _ = run(capsys, ["lattice", "U + Q5"])
    assert code == 2


@pytest.mark.parametrize("argv, read", [
    # 593,526 bytes of JSON, more than any pipe buffer: the write itself fails
    (["lattice", " + ".join(["E8"] * 32)], 10),
    # a short report into a pipe closed before it is written: the flush fails
    (["--text", "lattice", "U(121)"], 0),
], ids=["json-32xE8", "text-closed-at-once"])
def test_closed_stdout_is_not_an_error(argv, read):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "k3auto.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


# --------------------------------------------------------- surface analyze


def test_surface_analyze_json(capsys):
    code, out, _ = run(
        capsys, ["surface", "analyze", "--a", "0", "--b", "t^11 - 1"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["euler_total"] == 24
    assert report["expected_euler"] == 24
    assert report["surface"] == "K3"
    assert report["relatively_minimal"] is True
    first = report["fibers"][0]
    assert first["place"] == "t^11 - 1"
    assert first["type"] == "II"
    assert first["v_a"] is None  # omega valuation serializes to null
    assert first["v_b"] == 1


def test_surface_analyze_text(capsys):
    code, out, _ = run(
        capsys, ["--text", "surface", "analyze", "--a", "0", "--b", "t^11 - 1"]
    )
    assert code == 0
    assert "surface class: K3" in out
    assert "Euler total 24" in out
    assert "t^11 - 1: degree 11, type II" in out


def test_surface_analyze_quadratic_field(capsys):
    code, out, _ = run(capsys, [
        "surface", "analyze",
        "--a", "1", "--b", "t^11 - 2/9*w", "--field", "w2=-3",
    ])
    assert code == 0
    report = json.loads(out)
    table = [(f["place"], f["type"]) for f in report["fibers"]]
    assert table == [
        ("t", "I11"),
        ("t^11 - 4/9*w", "I1"),
        ("t^11 - 2/9*w", "I0"),
        ("infinity", "II"),
    ]
    assert report["surface"] == "K3"


def test_surface_analyze_over_gaussian_rationals():
    # -1 is a square modulo no prime = 3 mod 4, so the gcds over Q(sqrt(-1))
    # need primes of another class; a subprocess with a timeout, so that a
    # supply with no usable prime fails instead of hanging the suite
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "k3auto.cli", "surface", "analyze",
                             "--a", "t^2 + 1", "--b", "(t - w)*(t + 1)", "--field", "w2=-1"],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    table = [(f["place"], f["type"]) for f in report["fibers"]]
    assert table == [
        ("t - w", "II"),
        ("t + w", "I0"),
        ("t + 1", "I0"),
        ("t^4 + 2*w*t^3 + 27/4*t^2 + (27/2 + 2*w)*t + 23/4", "I1"),
        ("infinity", "I0*"),
    ]


def test_leading_minus_polynomials_are_accepted(capsys):
    # argv normalization must keep "-3*t^2" out of argparse's flag parsing
    code, out, _ = run(
        capsys, ["surface", "analyze", "--a", "-3*t^2", "--b", "t^7 + 2*t^3"]
    )
    assert code == 0
    assert json.loads(out)["euler_total"] > 0
    # an odd run of unary minus signs, however long, reads as one sign
    code, many, _ = run(
        capsys, ["surface", "analyze", "--a", "-" * 5001 + "3*t^2", "--b", "t^7 + 2*t^3"]
    )
    assert code == 0
    assert many == out


def test_identically_singular_model_is_invalid(capsys):
    # a = -3t^2, b = 2t^3 gives 4a^3 + 27b^2 = 0 identically
    code, _, _ = run(
        capsys, ["surface", "analyze", "--a", "-3*t^2", "--b", "2*t^3"]
    )
    assert code == 3


def test_surface_analyze_parse_error(capsys):
    code, _, _ = run(capsys, ["surface", "analyze", "--a", "t +", "--b", "1"])
    assert code == 2


@pytest.mark.parametrize("field", [
    "w2=0", "w2=4", "w2=x", "d=-3", "w2=1",
    # over the |d| cap: once an OverflowError, once an unbounded trial division
    pytest.param("w2=1" + "0" * 309, id="w2=10^309"),
    "w2=1000000000000000000000000000057",
])
def test_bad_field_spec_is_usage_error(capsys, field):
    code, _, _ = run(
        capsys, ["surface", "analyze", "--a", "0", "--b", "t", "--field", field]
    )
    assert code == 2


# ------------------------------------------------------------ verify paper


def test_verify_paper_all(capsys):
    code, out, _ = run(capsys, ["verify", "paper"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["scenarios"]) == len(SCENARIOS)
    assert all(s["status"] == "pass" for s in report["scenarios"])


def test_verify_paper_single_scenario_text(capsys):
    code, out, _ = run(capsys, ["--text", "verify", "paper", "lemma9"])
    assert code == 0
    assert "[PASS] lemma9" in out
    assert out.strip().endswith("1/1 scenarios pass")


def test_verify_paper_unknown_scenario(capsys):
    code, _, _ = run(capsys, ["verify", "paper", "lemma99"])
    assert code == 2


def test_verify_paper_failure_exit_code(capsys, monkeypatch):
    broken = lambda: ScenarioResult("control", "fail", 1, 2, "anchor")
    monkeypatch.setitem(SCENARIOS, "control", broken)
    code, out, _ = run(capsys, ["verify", "paper"])
    assert code == 1
    assert json.loads(out)["passed"] is False


# -------------------------------------------------------------- enumerate


def write_scenario(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


FIBER_ORBITS = {
    "kind": "fiber_orbits",
    "total_euler": 24,
    "allowed_at_zero": ["I0", "II"],
    "allowed_at_inf": ["I0", "II"],
    "orbit_allowed": ["I1", "I2", "II"],
}


def test_enumerate_fiber_orbits(capsys, tmp_path):
    path = write_scenario(tmp_path, FIBER_ORBITS)
    code, out, _ = run(capsys, ["enumerate", path])
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "fiber_orbits"
    assert report["count"] == 3
    orbits = sorted(tuple(c["orbits"]) for c in report["configs"])
    assert orbits == [("I1", "I1"), ("I2",), ("II",)]
    assert all(c["fixed"] == ["I0", "II"] for c in report["configs"])


def test_enumerate_deep_orbit_budget(capsys, tmp_path):
    # 3000 orbits of one I1 each: one multiset of 3000 symbols, found
    # without recursing once per symbol
    path = write_scenario(tmp_path, {
        "kind": "fiber_orbits", "total_euler": 3000, "orbit_size": 1,
        "allowed_at_zero": ["I0"], "allowed_at_inf": ["I0"],
        "orbit_allowed": ["I1"],
    })
    code, out, _ = run(capsys, ["enumerate", path])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 1
    assert report["configs"][0]["orbits"] == ["I1"] * 3000


# coin-change counts: P1 has 650,131,238 configurations, P2 none, since
# every orbit type has an even Euler number and the budget is odd
BUDGET_PROBES = {
    "P1": ({"kind": "fiber_orbits", "total_euler": 400, "orbit_size": 1,
            "allowed_at_zero": ["I0"], "allowed_at_inf": ["I0"],
            "orbit_allowed": ["I1", "I2", "I3", "II", "III", "IV"]}, 2),
    "P2": ({"kind": "fiber_orbits", "total_euler": 401, "orbit_size": 1,
            "allowed_at_zero": ["I0"], "allowed_at_inf": ["I0"],
            "orbit_allowed": ["I2", "I4", "I6", "I8", "I10", "I12"]}, 0),
}


@pytest.mark.parametrize("payload, code", BUDGET_PROBES.values(), ids=BUDGET_PROBES.keys())
def test_enumerate_counts_configurations_before_building(tmp_path, payload, code):
    # a subprocess with a timeout, so that a regression that builds every
    # configuration fails instead of hanging the suite
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "k3auto.cli", "enumerate",
                             write_scenario(tmp_path, payload)],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=20)
    assert result.returncode == code
    if code:
        assert result.stderr == ("error: the configurations, each weighted by its "
                                 "orbit budget, exceed the cap 2000000\n")
    else:
        assert json.loads(result.stdout) == {"kind": "fiber_orbits", "count": 0,
                                             "configs": []}


def test_enumerate_follows_only_fixed_pairs_that_fit(capsys, tmp_path):
    # 10,000 types at each fixed place, of which only I1..I24 fit into
    # Euler number 24: the answer takes no time per (zero, inf) pair
    def config(top):
        types = [f"I{n}" for n in range(1, top + 1)]
        return {"kind": "fiber_orbits", "total_euler": 24, "allowed_at_zero": types,
                "allowed_at_inf": types, "orbit_allowed": ["I1", "I2"]}

    (tmp_path / "small").mkdir()
    _, small, _ = run(capsys, ["enumerate", write_scenario(tmp_path / "small", config(24))])
    path = write_scenario(tmp_path, config(10000))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["enumerate", path])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == small
    # I(n) + I(24 - n) with no orbit, I(n) + I(13 - n) with one I1 orbit,
    # and I1 + I1 with orbits I1 + I1 or I2
    assert json.loads(out)["count"] == 12 + 6 + 2


def test_enumerate_order22(capsys, tmp_path):
    path = write_scenario(tmp_path, {"kind": "order22", "scenario": "lemma9"})
    code, out, _ = run(capsys, ["enumerate", path])
    assert code == 0
    report = json.loads(out)
    assert report["scenario"] == "lemma9"
    assert report["survivors"] == 0
    assert len(report["candidates"]) == 6


def test_enumerate_lefschetz(capsys, tmp_path):
    path = write_scenario(tmp_path, {
        "kind": "lefschetz",
        "pattern": "S: [1*4, -1*8]; T: [Phi(11)]",
    })
    code, out, _ = run(capsys, ["enumerate", path])
    assert code == 0
    report = json.loads(out)
    assert report["lefschetz"] == -3
    assert report["pattern"] == "S: [1*4, -1*8]; T: [Phi(11)]"
    assert report["algebraic_trace"] == -4
    assert report["transcendental_trace"] == -1


def test_enumerate_lefschetz_text(capsys, tmp_path):
    path = write_scenario(tmp_path, {
        "kind": "lefschetz",
        "pattern": "S: [1*22]; T: []",
    })
    code, out, _ = run(capsys, ["--text", "enumerate", path])
    assert code == 0
    assert "= 24" in out


def test_enumerate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["enumerate", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in err


def test_enumerate_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["enumerate", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_enumerate_unknown_kind(capsys, tmp_path):
    path = write_scenario(tmp_path, {"kind": "mystery"})
    code, _, err = run(capsys, ["enumerate", path])
    assert code == 2
    assert "unknown scenario kind" in err


def test_enumerate_missing_key(capsys, tmp_path):
    path = write_scenario(tmp_path, {"kind": "lefschetz"})
    code, _, err = run(capsys, ["enumerate", path])
    assert code == 2
    assert "missing key" in err


@pytest.mark.parametrize("payload, named", [
    ([FIBER_ORBITS], "JSON object"),
    ({**FIBER_ORBITS, "orbit_size": 0}, "'orbit_size'"),
    ({**FIBER_ORBITS, "allowed_at_zero": "I0"}, "'allowed_at_zero'"),
    ({**FIBER_ORBITS, "total_euler": "24"}, "'total_euler'"),
    ({"kind": ["lefschetz"]}, "unknown scenario kind"),
    ({"kind": "lefschetz", "pattern": 5}, "'pattern'"),
    ({"kind": "order22", "scenario": ["lemma9"]}, "'scenario'"),
], ids=["list", "orbit_size_0", "allowed_string", "total_euler_string",
        "kind_list", "pattern_int", "scenario_list"])
def test_enumerate_malformed_config(capsys, tmp_path, payload, named):
    code, _, err = run(capsys, ["enumerate", write_scenario(tmp_path, payload)])
    assert code == 2
    assert named in err


def test_enumerate_rank_mismatch_pattern(capsys, tmp_path):
    path = write_scenario(tmp_path, {
        "kind": "lefschetz",
        "pattern": "S: [1*4]; T: [Phi(11)]",  # rank 14, not 22
    })
    code, _, _ = run(capsys, ["enumerate", path])
    assert code == 2


def test_huge_phi_order_is_usage_error(tmp_path):
    # the totient of a 31-digit prime is a trial division past 10^15 steps;
    # the parser rejects any d over MAX_BLOCK_ORDER first.  A subprocess with
    # a timeout, so that a regression fails instead of hanging the suite.
    path = write_scenario(tmp_path, {
        "kind": "lefschetz",
        "pattern": "S: [Phi(1000000000000000000000000000057)]; T: []",
    })
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "k3auto.cli", "enumerate", path],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: Phi order exceeds the cap 1000000 (at position 8)\n"


def test_unknown_orbit_type_error_is_hash_seed_independent(tmp_path):
    # the first unknown entry in list order is named, whatever the set
    # iteration order of the interpreter's string hashing
    path = write_scenario(tmp_path, {
        **FIBER_ORBITS, "orbit_allowed": ["V", "VI", "VII", "X1", "Q"],
    })
    src = str(Path(cli.__file__).resolve().parents[1])
    stderrs = []
    for seed in ("1", "2"):
        result = subprocess.run([sys.executable, "-m", "k3auto.cli", "enumerate", path],
                                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        stderrs.append(result.stderr)
    assert stderrs == ["error: unknown fiber type 'V'\n"] * 2


# ------------------------------------------------------- format resolution


def test_env_format_text(capsys, monkeypatch):
    monkeypatch.setenv("K3_REPORT_FORMAT", "text")
    code, out, _ = run(capsys, ["lattice", "U"])
    assert code == 0
    assert "rank 2" in out and not out.lstrip().startswith("{")


def test_env_format_invalid(capsys, monkeypatch):
    monkeypatch.setenv("K3_REPORT_FORMAT", "yaml")
    code, _, _ = run(capsys, ["lattice", "U"])
    assert code == 2


def test_format_flag_works_before_and_after_subcommand(capsys):
    for argv in (["--text", "lattice", "U"], ["lattice", "U", "--text"],
                 ["lattice", "--text", "U"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "rank 2" in out and not out.lstrip().startswith("{")


def test_explicit_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("K3_REPORT_FORMAT", "text")
    code, out, _ = run(capsys, ["--json", "lattice", "U"])
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["verify", "paper"])
    _, second, _ = run(capsys, ["verify", "paper"])
    assert first == second


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, ["surface"])
    assert code == 2


# ------------------------------------------------------------- robustness


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_lattice", broken)
    code, out, err = run(capsys, ["lattice", "U"])
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("argv", [
    # over MAX_LATTICE_RANK, checked before a Gram matrix is built
    pytest.param(["lattice", "A257"], id="rank-257"),
    pytest.param(["lattice", "A200 + D100"], id="sum-rank-300"),
    # over MAX_NESTING, which keeps every parse inside Python's recursion limit
    pytest.param(["lattice", "(" * 3000 + "U" + ")" * 3000], id="lattice-nesting"),
    pytest.param(["surface", "analyze", "--a", "(" * 3000 + "t" + ")" * 3000, "--b", "1"],
                 id="poly-nesting"),
    # over parsing.MAX_DEGREE, checked from the degrees before expanding
    pytest.param(["surface", "analyze", "--a", "0", "--b", "t^100000000"], id="power"),
    pytest.param(["surface", "analyze", "--a", "0", "--b", "(t^1000)^1000"],
                 id="nested-power"),
    pytest.param(["surface", "analyze", "--a", "0", "--b", "(t+1)^3000*(t+1)^3000"],
                 id="product-of-powers"),
    # over parsing.MAX_COEFF_BITS, checked from the operands before expanding
    pytest.param(["surface", "analyze", "--a", "1", "--b", "(((7^150)^150)^150)^150*t + 1"],
                 id="nested-constant-power"),
    *(pytest.param(["surface", "analyze", "--a", f"({'9' * n}*t^2 + 1)^75", "--b", "t^150 + 1"],
                   id=f"{n}-digit-power") for n in (40, 100, 400, 4000)),
    pytest.param(["surface", "analyze", "--a", "0", "--b", "*".join(["7^150"] * 20) + "*t + 1"],
                 id="product-of-constant-powers"),
    # each power within the budget, their product not
    pytest.param(["surface", "analyze", "--a", "*".join([f"({'9' * 35}*t^2 + 1)^25"] * 3),
                  "--b", "t^150 + 1"], id="split-power"),
    # over parsing.MAX_LITERAL_DIGITS, below the interpreter's int-to-str limit
    pytest.param(["surface", "analyze", "--a", "0", "--b", "9" * 5000 + "*t + 1"],
                 id="poly-literal"),
    pytest.param(["lattice", f"U({'9' * 5000})"], id="lattice-literal"),
])
def test_oversized_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Exceeds the limit" not in err  # the interpreter's, with no position


def test_worst_accepted_coefficients_are_answered(capsys):
    # at MAX_COEFF_BITS: one bit more in 137438953471 or 131071 is a usage
    # error; the slowest input of this shape found, about 2 s
    a, b = "(137438953471*t^2 + w)^75", "(131071*t + w)^150"
    code, out, err = run(capsys, ["surface", "analyze", "--a", a, "--b", b, "--field", "w2=-1"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["euler_total"] == 12 * report["k"] == 456
    assert [f["degree"] for f in report["fibers"]] == [1, 2, 450, 1]  # b's, a's, Delta's, infinity
    for a, b in (("(137438953472*t^2 + w)^75", b), (a, "(131072*t + w)^150")):
        code, _, err = run(capsys, ["surface", "analyze", "--a", a, "--b", b, "--field", "w2=-1"])
        assert code == 2 and "exceeds the coefficient budget" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["lattice", "A²"],
                 "error: unexpected character '²' (at position 1)\n", id="lattice"),
    pytest.param(["surface", "analyze", "--a", "1", "--b", "t^²"],
                 "error: unexpected character '²' (at position 2)\n", id="poly"),
])
def test_non_ascii_digit_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_import_loads_no_dataclasses():
    # records are named tuples and __slots__ classes and the lexer spells out
    # its character sets, so a cold start generates no code and imports no
    # dataclasses, inspect or string (-S: nothing from site-packages either)
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys, k3auto.cli; "
             "sys.exit(bool({'dataclasses', 'inspect', 'string'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe],
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0


def test_import_loads_no_sympy():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys, k3auto.cli; "
             "sys.exit(any(m.split('.')[0] == 'sympy' for m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0
