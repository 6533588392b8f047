"""The benchmark's CLI commands and paper reports, byte for byte.

Each command of ``perfbench/workloads.py:CLI_ROTATION`` runs through
``cli.main`` in-process from the repository root, and its stdout digest is
compared with ``perfbench/golden/cli.json``.  Each op of ``paper_reports``
(the orbit enumerations, the order-22 replays and one cyclotomic
decomposition) is compared with ``perfbench/golden/paper.json``.  Commands,
ops and digests are imported read-only from the benchmark, so this test and
the benchmark check the same thing.
"""

import types

import pytest

from helpers import PERFBENCH, load_workloads
from k3auto import cli, enumerations, isometry

workloads = load_workloads()
K3 = types.SimpleNamespace(enumerations=enumerations, isometry=isometry)
CLI_GOLDEN = workloads.load_golden("cli.json")
PAPER_GOLDEN = workloads.load_golden("paper.json")
PAPER_REPORTS = workloads.paper_reports(K3)


@pytest.mark.parametrize("argv", workloads.CLI_ROTATION, ids=" ".join)
def test_cli_stdout_matches_golden_digest(argv, capsys, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)  # the enumerate configs are relative paths
    monkeypatch.delenv("K3_REPORT_FORMAT", raising=False)
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert workloads.digest(out) == CLI_GOLDEN[" ".join(argv)]


FIBER_ORBITS = ("enumerate", "perfbench/cli/fiber_orbits.json")


def _refuse(self, *args):
    raise AssertionError("rendered a format that is not printed")


def test_json_report_renders_no_text(capsys, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)
    monkeypatch.delenv("K3_REPORT_FORMAT", raising=False)
    monkeypatch.setattr(enumerations.OrbitConfig, "__str__", _refuse)
    code = cli.main(list(FIBER_ORBITS))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert workloads.digest(out) == CLI_GOLDEN[" ".join(FIBER_ORBITS)]


def test_text_report_renders_no_json(capsys, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)
    monkeypatch.setattr(enumerations.OrbitConfig, "as_record", _refuse)
    code = cli.main(["--text", *FIBER_ORBITS])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == ("3 configuration(s)\n"
                   "  [0: I0, inf: II, orbits: 11xI1, 11xI1]\n"
                   "  [0: I0, inf: II, orbits: 11xI2]\n"
                   "  [0: I0, inf: II, orbits: 11xII]\n")


@pytest.mark.parametrize("key", sorted(PAPER_REPORTS))
def test_paper_report_matches_golden_digest(key):
    assert workloads.digest(PAPER_REPORTS[key]()) == PAPER_GOLDEN[key]
