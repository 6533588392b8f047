"""End-to-end tests of the command-line driver.

Most of them are the rows of ``cli_probes.ROWS``: each row name
``group[case]`` becomes the test ``test_group[case]``, and rows that share
a name run in one test.  A row runs in-process through ``cli.main``
unless it has a timeout, an environment or a closed pipe, which need a
process of its own.  The tests written out below need more than a row
holds: a monkeypatched scenario or handler, a bound on in-process time, or
a comparison of two runs.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cli_probes
from k3auto import cli
from k3auto.cli import main
from k3auto.verify import SCENARIOS, ScenarioResult


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _probe_test(cases):
    def test(rows, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("K3_REPORT_FORMAT", raising=False)
        for row in rows:
            if row.timeout or row.env or row.read is not None:
                result = cli_probes.spawn(row)
            else:
                result = run(capsys, cli_probes.command(row, tmp_path))
            assert cli_probes.failures(row, *result) == []

    if list(cases) == [""]:
        return lambda capsys, monkeypatch, tmp_path: test(cases[""], capsys, monkeypatch, tmp_path)
    return pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))(test)


_GROUPS = {}
for _row in cli_probes.ROWS:
    _group, _, _case = _row.name.partition("[")
    _GROUPS.setdefault(_group, {}).setdefault(_case[:-1], []).append(_row)
for _group, _cases in _GROUPS.items():
    globals()[f"test_{_group}"] = _probe_test(_cases)


def test_probe_run_reports_an_unencodable_argv_and_goes_on(capsys, monkeypatch):
    # no filesystem encoding carries a lone surrogate, so under any locale
    # the row cannot be spawned: it fails, and the next row still runs
    bad = cli_probes.Probe("bad", ("lattice", "\ud800"), code=2)
    code, out, err = cli_probes.spawn(bad)
    assert code is None and err.startswith("argv not passed: ")
    assert cli_probes.failures(bad, code, out, err)
    good = cli_probes.Probe("good", ("lattice", "U"), json={"det": -1})
    monkeypatch.setattr(cli_probes, "ROWS", [bad, good])
    assert cli_probes.main() == 1
    assert capsys.readouterr().out.endswith("1 of 2 probes pass\n")


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


def test_verify_paper_failure_exit_code(capsys, monkeypatch):
    broken = lambda: ScenarioResult("control", "fail", 1, 2, "anchor")
    monkeypatch.setitem(SCENARIOS, "control", broken)
    code, out, _ = run(capsys, ["verify", "paper"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["verify", "paper"])
    _, second, _ = run(capsys, ["verify", "paper"])
    assert first == second


def test_enumerate_follows_only_fixed_pairs_that_fit(capsys, tmp_path):
    # 10,000 types at each fixed place, of which only I1..I24 fit into
    # Euler number 24: the answer takes no time per (zero, inf) pair
    def config(top):
        path = tmp_path / f"upto{top}.json"
        types = [f"I{n}" for n in range(1, top + 1)]
        path.write_text(cli_probes.orbits(24, ["I1", "I2"], types, types), encoding="utf-8")
        return str(path)

    _, small, _ = run(capsys, ["enumerate", config(24)])
    path = config(10000)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["enumerate", path])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == small
    # I(n) + I(24 - n) with no orbit, I(n) + I(13 - n) with one I1 orbit,
    # and I1 + I1 with orbits I1 + I1 or I2
    assert json.loads(out)["count"] == 12 + 6 + 2


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_lattice", broken)
    code, out, err = run(capsys, ["lattice", "U"])
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


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
