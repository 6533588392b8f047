"""Quick self-check of the benchmark (a minute or two).

    python3 perfbench/selfcheck.py

Runs every workload on a tiny corpus for one second, untraced and traced,
and checks that the result line has exactly the contract's keys, that the
outputs were correct, and that every metric BENCHMARK.json names is emitted
with its unit.  Then checks that the benchmark refuses to run, with a
nonzero exit and no result line, in a copy holding only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: outputs not correct: {proc.stdout.strip().splitlines()[-2]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    expected = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in expected}:
        missing = {m["name"] for m in expected} - set(got)
        extra = set(got) - {m["name"] for m in expected}
        problems.append(f"{where}: missing {sorted(missing)}, extra {sorted(extra)}")
    for m in expected:
        value = got.get(m["name"])
        if value is None:
            continue
        if value.get("unit") != m["unit"] or not isinstance(value.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} = {value}, expected unit {m['unit']}")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["ran without the k3auto sources"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            found = check_result(spec, workload, trace, proc)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    problems += check_refuses_without_sources(spec)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self-check passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
