"""Record the goldens the benchmark checks outputs against.

    python3 perfbench/record.py [fibers|cli|paper ...]

Writes perfbench/golden/{fibers,cli,paper}.json.  Run it only when a
report format changes on purpose: every later commit must reproduce these
outputs byte for byte.  ``fibers.json`` also keeps each pool model's
recorded cost (microseconds, on the machine that recorded it); the
cost-stratified sampling of fibers-batch sorts by it, so re-recording it
changes which models each seed draws.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import load_k3auto  # noqa: E402


def write(name: str, data: dict, indent: int | None = 1) -> None:
    path = os.path.join(workloads.GOLDEN_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=indent, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def record_fibers(k3) -> None:
    strata = {}
    for (field, cap), models in workloads.fiber_pool().items():
        entries = []
        for a, b in models:
            run = workloads.fiber_op_runner(k3, field, a, b)
            t0 = time.perf_counter()
            _analysis, text = run()
            cost_us = round((time.perf_counter() - t0) * 1e6)
            entries.append([workloads.digest(text), cost_us])
        strata[f"{field}/{cap}"] = entries
        print(f"fibers {field}/{cap}: {sum(e[1] for e in entries) / 1e6:.1f} s")
    write("fibers.json", {"pool_seed": workloads.FIBER_POOL_SEED, "strata": strata},
          indent=None)


def record_cli() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("K3_REPORT_FORMAT", None)
    golden = {}
    for argv in workloads.CLI_ROTATION:
        proc = subprocess.run([sys.executable, "-m", "k3auto.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, check=True)
        golden[" ".join(argv)] = workloads.digest(proc.stdout.decode())
    write("cli.json", golden)


def record_paper(k3) -> None:
    write("paper.json", {key: workloads.digest(run())
                         for key, run in workloads.paper_reports(k3).items()})


def main() -> int:
    which = sys.argv[1:] or ["fibers", "cli", "paper"]
    k3 = load_k3auto()
    if "cli" in which:
        record_cli()
    if "paper" in which:
        record_paper(k3)
    if "fibers" in which:
        record_fibers(k3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
