"""What the k3auto CLI answers and refuses, as one table of probes.

Each row is one command: its argv, an optional enumerate config (written
to a file whose path ends the argv) or environment, the exit code it must
give, an optional timeout, and what its stdout and stderr must hold.

    python tests/cli_probes.py

runs ``python -m k3auto.cli`` with ``src`` on the path for every row, from
any directory and on a bare Python with nothing installed, and prints
every failing row; it exits 1 if any row fails.  ``tests/test_cli.py``
runs the same rows as tier-1 tests named ``test_<group>[<case>]`` after
the row's name, in-process through ``cli.main`` when the row has no
timeout, environment or closed pipe.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
GUARD = 60  # seconds: a row with no timeout of its own still cannot hang a run
NEVER_ON_STDERR = ("Exceeds the limit", "Traceback")  # the interpreter's, with no position


class Probe(NamedTuple):
    name: str  # "group" or "group[case]"; rows with one name are one tier-1 test
    argv: tuple
    code: int = 0  # a refusal (2, 3) must print nothing on stdout
    config: str | None = None
    env: dict | None = None
    timeout: float | None = None  # a hang guard, not a timing
    read: int | None = None  # bytes read before stdout is closed
    out: str | None = None
    out_has: tuple = ()
    json: dict | None = None  # held by stdout's JSON: see `holds`
    err: str | None = None
    err_has: tuple = ()


def holds(want, got) -> bool:
    """A dict holds its keys' values, a list matches item by item, and any
    other value equals ``got`` with the same type (``True`` is not 1)."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and holds(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(holds, want, got))
    return type(got) is type(want) and got == want


def failures(row: Probe, code, out: str, err: str) -> list[str]:
    """Every way in which (code, stdout, stderr) breaks the row."""
    found = [] if code == row.code else [f"exit {code}, not {row.code}: {err[:300]!r}"]
    want_out = "" if row.out is None and row.code >= 2 else row.out
    if want_out is not None and out != want_out:
        found.append(f"stdout {out[:300]!r}, not {want_out[:300]!r}")
    found += [f"stdout lacks {s!r}" for s in row.out_has if s not in out]
    if row.json is not None:
        try:
            if not holds(row.json, json.loads(out)):
                found.append(f"stdout's JSON does not hold {row.json!r:.300}")
        except ValueError:
            found.append(f"stdout is not JSON: {out[:300]!r}")
    if row.err is not None and err != row.err:
        found.append(f"stderr {err[:300]!r}, not {row.err[:300]!r}")
    found += [f"stderr lacks {s!r}" for s in row.err_has if s not in err]
    found += [f"stderr has {s!r}" for s in NEVER_ON_STDERR if s in err]
    return found


def command(row: Probe, folder) -> list[str]:
    """The row's argv, with the path of its config written into folder."""
    if row.config is None:
        return list(row.argv)
    path = Path(folder, "config.json")
    path.write_text(row.config, encoding="utf-8")
    return [*row.argv, str(path)]


def spawn(row: Probe) -> tuple:
    """(code, stdout, stderr) of the row in a fresh interpreter; code None
    when it gives no exit, as when the filesystem encoding cannot carry its argv."""
    env = {k: v for k, v in os.environ.items() if k != "K3_REPORT_FORMAT"}
    env.update(row.env or {}, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    limit = row.timeout or GUARD
    with tempfile.TemporaryDirectory() as folder:
        try:
            proc = subprocess.Popen([sys.executable, "-m", "k3auto.cli", *command(row, folder)],
                                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        except UnicodeEncodeError as exc:
            return None, "", f"argv not passed: {exc}"
        if row.read is not None:
            head = proc.stdout.read(row.read)
            proc.stdout.close()
        try:
            out, err = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "", f"no exit within {limit} s"
    out = head if row.read is not None else out
    return proc.returncode, out.decode(), err.decode()


# generated inputs: a shared factor B with coefficients of hundreds of bits,
# a dense degree-30 G with seeded 900-bit x and y parts, and long literals
B = ("(123456789012345678901234567890123456789/97*t^6 - 98765432109876543210987654321*w*t^3"
     " + 55555555555555555555555555/7*t + 1234567890123456789*w)")
_rng = random.Random(900)
G = " + ".join(f"({_rng.getrandbits(900)} + {_rng.getrandbits(900)}*w)*t^{k}" for k in range(31))
N4000 = "9" * 4000
M1000 = "9" * 1000  # at the lexer's cap, 3,322 bits
N5000 = "9" * 5000  # over the cap, and over the interpreter's 4,300 digits
X5000 = "x" * 5000  # a name as long
E8x32 = " + ".join(["E8"] * 32)  # rank 256, 593,526 bytes of JSON
FIBER_ORBITS = {"kind": "fiber_orbits", "total_euler": 24, "allowed_at_zero": ["I0", "II"],
                "allowed_at_inf": ["I0", "II"], "orbit_allowed": ["I1", "I2", "II"]}


def orbits(total, orbit, zero=("I0",), inf=("I0",), **extra) -> str:
    """A fiber_orbits config."""
    return json.dumps({"kind": "fiber_orbits", "total_euler": total, "allowed_at_zero": list(zero),
                       "allowed_at_inf": list(inf), "orbit_allowed": list(orbit), **extra})


def analyze(a, b, field=None) -> tuple:
    return ("surface", "analyze", "--a", a, "--b", b) + (("--field", field) if field else ())


UNDER_BUDGET = "(137438953471*t^2 + w)^75", "(131071*t + w)^150"  # one more bit is refused
DEGREE_CAP = "error: power exceeds the degree cap 150 (at position {})\n"
COEFF_BUDGET = "error: {} exceeds the coefficient budget of 3000 bits (at position {})\n"
LONG_LITERAL = "error: integer longer than 1000 digits (at position {})\n"
DET_CAP = "the cap of 14000 bits at position"
TEXT_U = ("lattice U\n  rank 2, det -1, signature (1, 1)\n  even: yes\n"
          "  discriminant group: trivial (order 1)\n  11-elementary: yes\n  gram: 0 1; 1 0\n")

ROWS = [
    # ---------------------------------------------------------- lattice
    Probe("lattice_json", ("--json", "lattice", "U(11)"), json={
        "rank": 2, "det": -121, "signature": [1, 1], "discriminant_group": [11, 11],
        "discriminant_order": 121, "even": True, "eleven_elementary": True}),
    Probe("lattice_text", ("--text", "lattice", "U + A10"),
          out_has=("rank 12", "det -11", "signature (1, 11)", "11-elementary: yes")),
    Probe("lattice_report[U + A10]", ("lattice", "U + A10"), json={"det": -11, "rank": 12}),
    # |det| a power of 11 in both, so both reach the Smith form: (Z/11)^11,
    # then factors (121, 121), which is not 11-elementary
    Probe("lattice_report[U(11) + E8(11) + A10]", ("--text", "lattice", "U(11) + E8(11) + A10"),
          out_has=("11-elementary: yes",)),
    Probe("lattice_report[U(121)]", ("--text", "lattice", "U(121)"), out=(
        "lattice U(121)\n  rank 2, det -14641, signature (1, 1)\n  even: yes\n"
        "  discriminant group: Z/121 x Z/121 (order 14641)\n  11-elementary: no\n"
        "  gram: 0 121; 121 0\n")),
    # every component cyclic (gcd(|det|, M_{n-1}) = 1): no Smith form runs
    Probe("lattice_report[A10 + D5]", ("--text", "lattice", "A10 + D5"),
          out_has=("discriminant group: Z/44 (order 44)",)),
    # a zero-diagonal block with gcd 121: Smith form mod 121, s_n rebuilt from |det|
    Probe("lattice_report[U(121) + A2(3)]", ("--text", "lattice", "U(121) + A2(3)"), out=(
        "lattice U(121) + A2(3)\n  rank 4, det -395307, signature (1, 3)\n  even: yes\n"
        "  discriminant group: Z/363 x Z/1089 (order 395307)\n  11-elementary: no\n"
        "  gram: 0 121 0 0; 121 0 0 0; 0 0 -6 3; 0 0 3 -6\n")),
    # a rank-256 sum of E8s, reduced one orthogonal component at a time
    Probe("lattice_report[32xE8]", ("lattice", E8x32), timeout=10, json={"rank": 256, "det": 1}),
    Probe("lattice_bad_expression_is_usage_error", ("lattice", "U + Q5"), code=2,
          err="error: expected a lattice name at position 4\n"),
    # |det| would print past the interpreter's 4,300-digit limit: refused by
    # its bound, with the cap and a position
    Probe("lattice_det_over_cap_is_usage_error[3xU(m)]",
          ("lattice", f"U({M1000}) + U({M1000}) + U({M1000})"), code=2, timeout=10,
          err_has=(DET_CAP,)),
    Probe("lattice_det_over_cap_is_usage_error[E8(m)^5]",
          ("lattice", f"E8({M1000})({M1000})({M1000})({M1000})({M1000})"), code=2,
          err_has=(DET_CAP,)),
    Probe("lattice_det_over_cap_is_usage_error[4xU(700 digits)]",
          ("lattice", " + ".join([f"U({'9' * 700})"] * 4)), code=2,
          err_has=(DET_CAP,)),
    *(Probe(f"lattice_det_under_cap_prints[{fmt}]", (fmt, "lattice", expr), out_has=(det,), err="")
      for fmt in ("--json", "--text")
      for expr, det in ((f"U({M1000})", f"-{int(M1000) ** 2}"),
                        (f"U({M1000}) + U({M1000})", str(int(M1000) ** 4)))),
    Probe("lattice_report[U(m) + U(m)]", ("lattice", f"U({M1000}) + U({M1000})"), timeout=10,
          out_has=(str(int(M1000) ** 4),)),
    # a reader that stops early is not an error: exit 0, nothing on stderr;
    # 593,526 bytes are more than any pipe buffer, so the write itself fails
    Probe("closed_stdout_is_not_an_error[json-32xE8]", ("lattice", E8x32), read=10,
          out='{\n  "det":', err=""),
    # a short report into a pipe closed before it is written: the flush fails
    Probe("closed_stdout_is_not_an_error[text-closed-at-once]", ("--text", "lattice", "U(121)"),
          read=0, out="", err=""),

    # -------------------------------------------------- surface analyze
    Probe("surface_analyze_json", analyze("0", "t^11 - 1"), json={
        "euler_total": 24, "expected_euler": 24, "surface": "K3", "relatively_minimal": True,
        "fibers": [{"place": "t^11 - 1", "type": "II", "v_a": None, "v_b": 1}, {}]}),
    Probe("surface_analyze_text", ("--text", *analyze("0", "t^11 - 1")),
          out_has=("surface class: K3", "Euler total 24", "t^11 - 1: degree 11, type II")),
    Probe("surface_report[t^11 - 1]", analyze("1", "t^11 - 1"), json={"surface": "K3"}),
    # a quadratic field: the modular gcd certificate over Q(sqrt(-3))
    Probe("surface_analyze_quadratic_field", analyze("1", "t^11 - 2/9*w", "w2=-3"), json={
        "surface": "K3", "fibers": [
            {"place": "t", "type": "I11"}, {"place": "t^11 - 4/9*w", "type": "I1"},
            {"place": "t^11 - 2/9*w", "type": "I0"}, {"place": "infinity", "type": "II"}]}),
    # -1 is a square modulo no prime = 3 mod 4, so the gcds over Q(sqrt(-1))
    # run on the primes = 5 mod 8; a nonconstant gcd(a, b)
    Probe("surface_analyze_over_gaussian_rationals", analyze("t^2 + 1", "(t - w)*(t + 1)", "w2=-1"),
          timeout=10, json={"fibers": [
              {"place": "t - w", "type": "II"}, {"place": "t + w", "type": "I0"},
              {"place": "t + 1", "type": "I0"},
              {"place": "t^4 + 2*w*t^3 + 27/4*t^2 + (27/2 + 2*w)*t + 23/4", "type": "I1"},
              {"place": "infinity", "type": "I0*"}]}),
    # a repeated factor over Q(sqrt(5)): nontrivial gcds by the modular path
    Probe("surface_report[(t^2 - w)^2 over Q(sqrt(5))]",
          analyze("(t^2 - w)^2", "(t^2 - w)^3*(t + 1)", "w2=5"), json={"euler_total": 24}),
    # places over Q(sqrt(5)) whose generators have denominators 5, 3 and 2
    # and w parts, in an order their denominators alone would not give: the
    # fiber order and the coefficient text, read off the integer vectors
    Probe("surface_report[fiber order over Q(sqrt(5))]",
          ("--text", *analyze("(2*t + 1)*(3*t + w)", "(2*t + 1)^2*(5*t - 1)", "w2=5")), out=(
              "y^2 = x^3 + ((2*t + 1)*(3*t + w)) x + ((2*t + 1)^2*(5*t - 1))   over w^2 = 5\n"
              "  k = 1, surface class: rational, relatively minimal: yes\n"
              "  Euler total 12 (expected 12)\n"
              "  t - 1/5: degree 1, type I0, e = 0, v(a) = 0, v(b) = 1, v(delta) = 0\n"
              "  t + 1/3*w: degree 1, type I0, e = 0, v(a) = 1, v(b) = 0, v(delta) = 0\n"
              "  t + 1/2: degree 1, type III, e = 3, v(a) = 1, v(b) = 2, v(delta) = 3\n"
              "  t^3 + (5/54 + 2/27*w)*t^2 - 2/81*t + (1/54 + 10/729*w): degree 3, type I1,"
              " e = 1, v(a) = 0, v(b) = 0, v(delta) = 1\n"
              "  infinity: degree 1, type I0*, e = 6, v(a) = 2, v(b) = 3, v(delta) = 6\n")),
    # a shared factor B^(e-1) over Q(sqrt(5)), Q(sqrt(-3)) and Q(sqrt(-1)):
    # the primes decide every gcd, in bounded time
    Probe("shared_factor_in_bounded_time[B^4 over Q(sqrt(5))]",
          analyze("0", f"{B}^4*(t^2+1)", "w2=5"), timeout=10),
    Probe("shared_factor_in_bounded_time[B^20 over Q(sqrt(-3))]",
          analyze("0", f"{B}^20*(t^2+1)", "w2=-3"), timeout=10),
    Probe("shared_factor_in_bounded_time[B^4 over Q(sqrt(-1))]",
          analyze("0", f"{B}^4*(t^2+1)", "w2=-1"), timeout=10),
    # a = G^2*(t + 1), b = G^3*(t + 2): the places on gcd(a, b) come from
    # a/g, b/g and Delta/g^2, never from Delta itself
    Probe("shared_factor_in_bounded_time[G over Q(sqrt(-3))]",
          analyze(f"({G})^2*(t + 1)", f"({G})^3*(t + 2)", "w2=-3"), timeout=10),
    # a = -3t^2, b = 2t^3 gives 4a^3 + 27b^2 = 0 identically
    Probe("identically_singular_model_is_invalid", analyze("-3*t^2", "2*t^3"), code=3,
          err="error: invalid model: discriminant 4a^3 + 27b^2 vanishes identically\n"),
    Probe("surface_analyze_parse_error", analyze("t +", "1"), code=2,
          err="error: expected a value, found 'end of input' (at position 3)\n"),
    # d over the |d| cap (10^309 was once an OverflowError, the 31-digit d once an
    # unbounded trial division); a d or spec over 40 characters is named by its first 40
    *(Probe(f"bad_field_spec_is_usage_error[{spec}]", analyze("0", "t", spec), code=2)
      for spec in ("w2=0", "w2=4", "w2=x", "d=-3", "w2=1", "w2=1000000000000000000000000000057")),
    Probe("bad_field_spec_is_usage_error[w2=10^309]", analyze("0", "t", "w2=1" + "0" * 309),
          code=2, err=("error: |d| must be at most 10000000000, "
                       f"got 1{'0' * 39}... (310 characters)\n")),
    Probe("bad_field_spec_is_usage_error[w2=<5000 digits>]", analyze("0", "t", f"w2={N5000}"),
          code=2, err=("error: --field needs an integer after w2=, "
                       f"not 'w2={N5000[:37]}'... (5003 characters)\n")),
    # at MAX_COEFF_BITS: one bit more in 137438953471 or 131071 is refused;
    # the slowest input of this shape found, about 2 s
    Probe("worst_accepted_coefficients_are_answered", analyze(*UNDER_BUDGET, "w2=-1"),
          timeout=10, err="", json={"euler_total": 456, "k": 38, "fibers": [
              {"degree": 1}, {"degree": 2}, {"degree": 450}, {"degree": 1}]}),  # b, a, Delta, inf
    Probe("worst_accepted_coefficients_are_answered",
          analyze("(137438953472*t^2 + w)^75", UNDER_BUDGET[1], "w2=-1"), code=2,
          err_has=("exceeds the coefficient budget",)),
    Probe("worst_accepted_coefficients_are_answered",
          analyze(UNDER_BUDGET[0], "(131072*t + w)^150", "w2=-1"), code=2,
          err_has=("exceeds the coefficient budget",)),

    # ------------------------------------------------------ verify paper
    Probe("verify_paper_all", ("verify", "paper"),
          json={"passed": True, "scenarios": [{"status": "pass"}] * 13}),
    Probe("verify_paper_single_scenario_text", ("--text", "verify", "paper", "lemma9"), out=(
        '[PASS] lemma9: "the topological Lefschetz formula shows that the only possible case is"'
        " S = diag[1, -1, zeta_11^j], T = diag[-zeta_11^j]; then \"there are no a in {5,7},"
        ' b in {2,10} with a + b = 0 (mod 11)"\n1/1 scenarios pass\n')),
    Probe("verify_paper_unknown_scenario", ("verify", "paper", "lemma99"), code=2),

    # --------------------------------------------------------- enumerate
    Probe("enumerate_fiber_orbits", ("enumerate",), config=json.dumps(FIBER_ORBITS), json={
        "kind": "fiber_orbits", "count": 3, "configs": [
            {"fixed": ["I0", "II"], "orbits": orbits}
            for orbits in (["I1", "I1"], ["I2"], ["II"])]}),
    Probe("enumerate_report[fiber_orbits.json]",
          ("enumerate", str(ROOT / "perfbench" / "cli" / "fiber_orbits.json")), json={"count": 3}),
    # 3000 orbits of one I1 each: one multiset of 3000 symbols, found without
    # recursing once per symbol
    Probe("enumerate_deep_orbit_budget", ("enumerate",), config=orbits(3000, ["I1"], orbit_size=1),
          json={"count": 1, "configs": [{"orbits": ["I1"] * 3000}]}),
    # coin-change counts: P1 has 650,131,238 configurations, counted before any
    # is built; P2 none, since every orbit type has an even Euler number and
    # the budget is odd
    Probe("enumerate_counts_configurations_before_building[P1]", ("enumerate",),
          config=orbits(400, ["I1", "I2", "I3", "II", "III", "IV"], orbit_size=1), code=2,
          timeout=10, err=("error: the configurations, each weighted by its orbit budget, "
                           "exceed the cap 2000000\n")),
    Probe("enumerate_counts_configurations_before_building[P2]", ("enumerate",),
          config=orbits(401, ["I2", "I4", "I6", "I8", "I10", "I12"], orbit_size=1), timeout=10,
          out='{\n  "configs": [],\n  "count": 0,\n  "kind": "fiber_orbits"\n}\n'),
    # long orbits near MAX_ORBIT_OUTPUT: 13,561 configurations, weighted
    # output 1,627,320, about 14 MB of JSON, in bounded time
    Probe("enumerate_report[near the output cap]", ("enumerate",),
          config=orbits(120, ["I1", "I2", "I3", "I4"], orbit_size=1), timeout=10,
          out_has=('"count": 13561',)),
    # 10,000 types at each fixed place, of which only I1..I24 fit
    Probe("enumerate_report[10000 fixed types]", ("enumerate",), timeout=10,
          config=orbits(24, ["I1", "I2"], *[[f"I{n}" for n in range(1, 10001)]] * 2),
          json={"count": 20}),
    Probe("enumerate_order22", ("enumerate",), config='{"kind": "order22", "scenario": "lemma9"}',
          json={"scenario": "lemma9", "survivors": 0, "candidates": [{}] * 6}),
    Probe("enumerate_lefschetz", ("enumerate",),
          config='{"kind": "lefschetz", "pattern": "S: [1*4, -1*8]; T: [Phi(11)]"}',
          json={"lefschetz": -3, "pattern": "S: [1*4, -1*8]; T: [Phi(11)]",
                "algebraic_trace": -4, "transcendental_trace": -1}),
    Probe("enumerate_lefschetz_text", ("--text", "enumerate"),
          config='{"kind": "lefschetz", "pattern": "S: [1*22]; T: []"}', out_has=("= 24",)),
    Probe("enumerate_missing_file", ("enumerate", str(ROOT / "tests" / "no-such-config.json")),
          code=2, err_has=("cannot read",)),
    Probe("enumerate_invalid_json", ("enumerate",), config="{not json", code=2,
          err_has=("not valid JSON",)),
    Probe("enumerate_unknown_kind", ("enumerate",), config='{"kind": "mystery"}', code=2,
          err_has=("unknown scenario kind",)),
    Probe("enumerate_missing_key", ("enumerate",), config='{"kind": "lefschetz"}', code=2,
          err_has=("missing key",)),
    *(Probe(f"enumerate_malformed_config[{case}]", ("enumerate",), config=json.dumps(payload),
            code=2, err_has=(named,))
      for case, payload, named in (
          ("list", [FIBER_ORBITS], "JSON object"),
          ("orbit_size_0", {**FIBER_ORBITS, "orbit_size": 0}, "'orbit_size'"),
          ("allowed_string", {**FIBER_ORBITS, "allowed_at_zero": "I0"}, "'allowed_at_zero'"),
          ("total_euler_string", {**FIBER_ORBITS, "total_euler": "24"}, "'total_euler'"),
          ("kind_list", {"kind": ["lefschetz"]}, "unknown scenario kind"),
          ("pattern_int", {"kind": "lefschetz", "pattern": 5}, "'pattern'"),
          ("scenario_list", {"kind": "order22", "scenario": ["lemma9"]}, "'scenario'"))),
    # a bad value over 40 characters is named by its first 40 and its length
    Probe("enumerate_malformed_config[101-entry allowed list]", ("enumerate",), code=2,
          config=json.dumps({**FIBER_ORBITS, "allowed_at_zero": ["I0"] * 100 + [1]}),
          err=("error: config field 'allowed_at_zero' must be a list of strings, got "
               "['I0', 'I0', 'I0', 'I0', 'I0', 'I0', 'I0... (603 characters)\n")),
    Probe("enumerate_malformed_config[5000-character kind]", ("enumerate",), code=2,
          config=json.dumps({"kind": "k" * 5000}),
          err=(f"error: unknown scenario kind '{'k' * 40}'... (5000 characters); "
               "known: fiber_orbits, lefschetz, order22\n")),
    Probe("enumerate_malformed_config[40-character kind]", ("enumerate",), code=2,
          config=json.dumps({"kind": "k" * 40}),  # at the cap: repeated whole
          err=(f"error: unknown scenario kind '{'k' * 40}'; "
               "known: fiber_orbits, lefschetz, order22\n")),
    Probe("enumerate_malformed_config[5000-character total_euler]", ("enumerate",), code=2,
          config=json.dumps({**FIBER_ORBITS, "total_euler": "e" * 5000}),
          err=("error: config field 'total_euler' must be an integer >= 1, got "
               f"'{'e' * 40}'... (5000 characters)\n")),
    # a JSON integer past the interpreter's 4,300 digits, refused before int()
    Probe("enumerate_malformed_config[5000-digit total_euler]", ("enumerate",), code=2,
          config=json.dumps(FIBER_ORBITS).replace('"total_euler": 24', f'"total_euler": {N5000}'),
          err_has=("config.json: integer longer than 1000 digits\n",)),
    Probe("enumerate_rank_mismatch_pattern", ("enumerate",), code=2,  # rank 14, not 22
          config='{"kind": "lefschetz", "pattern": "S: [1*4]; T: [Phi(11)]"}'),
    # the totient of a 31-digit prime is a trial division past 10^15 steps;
    # the parser rejects any d over MAX_BLOCK_ORDER first
    Probe("huge_phi_order_is_usage_error", ("enumerate",), timeout=10,
          config=('{"kind": "lefschetz",'
                  ' "pattern": "S: [Phi(1000000000000000000000000000057)]; T: []"}'),
          code=2, err="error: Phi order exceeds the cap 1000000 (at position 8)\n"),
    # the first unknown entry in list order is named, whatever the set
    # iteration order of the interpreter's string hashing
    *(Probe("unknown_orbit_type_error_is_hash_seed_independent", ("enumerate",),
            config=json.dumps({**FIBER_ORBITS, "orbit_allowed": ["V", "VI", "VII", "X1", "Q"]}),
            env={"PYTHONHASHSEED": seed}, code=2, err="error: unknown fiber type 'V'\n")
      for seed in ("1", "2")),
    # a type not spelled canonically, or with an index longer than any
    # literal, is unknown
    Probe("unknown_fiber_type[I01]", ("enumerate",), code=2, timeout=10,
          config=orbits(24, ["I01"], inf=["II"]), err="error: unknown fiber type 'I01'\n"),
    Probe("unknown_fiber_type[I<5000 digits>]", ("enumerate",), code=2,
          config=orbits(24, ["I1"], zero=[f"I{N5000}"]),
          err=f"error: unknown fiber type 'I{N5000[:39]}'... (5001 characters)\n"),
    Probe("unknown_fiber_type[I<non-ASCII digit>]", ("enumerate",), code=2,
          config=orbits(24, ["I\u0662"]), err="error: unknown fiber type 'I\u0662'\n"),
    Probe("unknown_fiber_type[I1<newline>]", ("enumerate",), code=2,
          config=orbits(24, ["I1\n"]), err="error: unknown fiber type 'I1\\n'\n"),
    # the caps that bound an enumeration before it starts
    Probe("enumerate_caps[orbit budget]", ("enumerate",), config=orbits(3001, ["I1"], orbit_size=1),
          code=2, err="error: total_euler // orbit_size exceeds the cap 3000\n"),
    Probe("enumerate_caps[completion table]", ("enumerate",), code=2,
          config=orbits(2000, [f"I{n}" for n in range(1, 101)], orbit_size=1),
          err="error: the orbit completion table exceeds the cap 200000 entries\n"),

    # ------------------------------------------------- format resolution
    Probe("env_format_text", ("lattice", "U"), env={"K3_REPORT_FORMAT": "text"}, out=TEXT_U),
    Probe("env_format_invalid", ("lattice", "U"), env={"K3_REPORT_FORMAT": "yaml"}, code=2,
          err="error: K3_REPORT_FORMAT must be 'json' or 'text', not 'yaml'\n"),
    *(Probe("format_flag_works_before_and_after_subcommand", argv, out=TEXT_U)
      for argv in (("--text", "lattice", "U"), ("lattice", "U", "--text"),
                   ("lattice", "--text", "U"))),
    Probe("explicit_flag_overrides_env", ("--json", "lattice", "U"),
          env={"K3_REPORT_FORMAT": "text"}, json={"rank": 2}),
    Probe("missing_subcommand_is_usage_error", ("surface",), code=2),

    # -------------------------------------------------------- robustness
    # over MAX_LATTICE_RANK, checked before a Gram matrix is built
    Probe("oversized_input_is_usage_error[rank-257]", ("lattice", "A257"), code=2,
          err="error: lattice rank exceeds 256\n"),
    Probe("oversized_input_is_usage_error[sum-rank-300]", ("lattice", "A200 + D100"), code=2,
          err="error: lattice rank exceeds 256\n"),
    # over MAX_NESTING, which keeps every parse inside Python's recursion limit
    Probe("oversized_input_is_usage_error[lattice-nesting]",
          ("lattice", "(" * 3000 + "U" + ")" * 3000), code=2,
          err="error: more than 100 nested parentheses (at position 100)\n"),
    Probe("oversized_input_is_usage_error[poly-nesting]",
          analyze("(" * 3000 + "t" + ")" * 3000, "1"), code=2,
          err="error: more than 100 nested parentheses (at position 100)\n"),
    # over parsing.MAX_DEGREE, checked from the degrees before expanding
    Probe("oversized_input_is_usage_error[power]", analyze("0", "t^100000000"), code=2, timeout=10,
          err=DEGREE_CAP.format(2)),
    Probe("oversized_input_is_usage_error[nested-power]", analyze("0", "(t^1000)^1000"), code=2,
          err=DEGREE_CAP.format(3)),
    Probe("oversized_input_is_usage_error[product-of-powers]",
          analyze("0", "(t+1)^3000*(t+1)^3000"), code=2, err=DEGREE_CAP.format(6)),
    # over parsing.MAX_COEFF_BITS, estimated from the operands before a power
    # is expanded, constant bases included
    Probe("oversized_input_is_usage_error[nested-constant-power]",
          analyze("1", "(((7^150)^150)^150)^150*t + 1"), code=2, timeout=10,
          err=COEFF_BUDGET.format("power", 10)),
    *(Probe(f"oversized_input_is_usage_error[{n}-digit-power]",
            analyze(f"({'9' * n}*t^2 + 1)^75", "t^150 + 1"), code=2,
            err=COEFF_BUDGET.format("power", n + 11))
      for n in (40, 100, 400)),
    Probe("oversized_input_is_usage_error[4000-digit-power]",
          analyze(f"({N4000}*t^2 + 1)^75", "t^150 + 1"), code=2, timeout=10,
          err=LONG_LITERAL.format(1)),
    Probe("oversized_input_is_usage_error[product-of-constant-powers]",
          analyze("0", "*".join(["7^150"] * 20) + "*t + 1"), code=2,
          err=COEFF_BUDGET.format("product", 41)),
    # each power within the budget, their product not
    Probe("oversized_input_is_usage_error[split-power]",
          analyze("*".join([f"({'9' * 35}*t^2 + 1)^25"] * 3), "t^150 + 1"), code=2,
          err=COEFF_BUDGET.format("product", 48)),
    # over parsing.MAX_LITERAL_DIGITS, in any grammar, lattice names included
    Probe("oversized_input_is_usage_error[poly-literal]", analyze("0", N5000 + "*t + 1"), code=2,
          err=LONG_LITERAL.format(0)),
    Probe("oversized_input_is_usage_error[lattice-literal]", ("lattice", f"U({N5000})"), code=2,
          timeout=10, err=LONG_LITERAL.format(2)),
    *(Probe(f"oversized_input_is_usage_error[lattice-index-{name}]",
            ("lattice", f"U + {name}{N5000}"),
            code=2, err="error: index over 1000 digits at position 4\n")
      for name in ("A", "D", "A1")),
    # a message names a token of over 40 characters by its first 40 and its length
    Probe("long_input_is_named_briefly[unbound name]", analyze(f"t + {X5000}", "t"), code=2,
          err=f"error: unbound name '{X5000[:40]}'... (5000 characters) (at position 4)\n"),
    Probe("long_input_is_named_briefly[trailing input]", analyze(f"t {X5000}", "t"), code=2,
          err=f"error: trailing input '{X5000[:40]}'... (5000 characters) (at position 2)\n"),
    Probe("long_input_is_named_briefly[verify scenario]", ("verify", "paper", X5000), code=2,
          err_has=(f"error: unknown scenario '{X5000[:40]}'... (5000 characters); known: ",)),
    Probe("long_input_is_named_briefly[order22 scenario]", ("enumerate",), code=2,
          config=json.dumps({"kind": "order22", "scenario": X5000}),
          err=(f"error: unknown scenario '{X5000[:40]}'... (5000 characters); "
               "known: control, lemma1, lemma9\n")),
    Probe("non_ascii_digit_is_usage_error[lattice]", ("lattice", "A²"), code=2,
          err="error: unexpected character '²' (at position 1)\n"),
    Probe("non_ascii_digit_is_usage_error[poly]", analyze("1", "t^²"), code=2,
          err="error: unexpected character '²' (at position 2)\n"),
]


def main() -> int:
    sys.stdout.reconfigure(errors="backslashreplace")  # a row's argv may not encode
    failed = 0
    for row in ROWS:
        found = failures(row, *spawn(row))
        if found:
            failed += 1
            print(f"FAIL {row.name}: {' '.join(row.argv)[:120]}", *found, sep="\n  ")
    print(f"{len(ROWS) - failed} of {len(ROWS)} probes pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
