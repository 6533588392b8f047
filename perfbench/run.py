"""k3auto benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--corpus C]

Workloads: cli-cold, fibers-batch, lattice-batch, paper-warm (see
perfbench/README.md).  All load comes from one worker process with one
client; cli-cold's worker starts one ``k3auto`` process at a time.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the workload untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run's record (versions, nproc, git SHA, seed, tail percentile).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import parse_importtime  # noqa: E402

SETUP_PROBES = 5  # fresh processes timed from spawn to ready, besides the worker
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
SCENARIOS = ("example1", "example2", "example3", "lemma1", "lemma2", "prop3",
             "claim4", "claim5", "claim6", "lemma7", "lemma8", "lemma9", "control")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
# boundaries reported with .calls and .self_ms
TIMED = (
    "parsing.parse_poly", "parsing.parse_pattern",
    "polyfield.mul", "polyfield.divmod", "polyfield.poly_gcd",
    "polyfield.squarefree_decompose", "polyfield.gcdfree_basis",
    "ellsurf.analyze_fibers",
    "lattice.build_lattice", "lattice.determinant_and_signature",
    "lattice.discriminant_group",
    "isometry.char_poly_decompositions", "isometry.lefschetz_number",
    "enumerations.fiber_orbit_configs", "enumerations.order22_replay",
    "enumerations.rank_det_cases",
)


def per_layer_units() -> dict[str, str]:
    units = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms",
             "cli.import.sympy_ms": "ms", "cli.main_ms": "ms"}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "polyfield.gcdfree_basis.basis_size": "count",
        "polyfield.is_squarefree.calls": "count",
        "polyfield.valuation.calls": "count",
        "polyfield.valuation_redundant_ratio": "ratio",
        "polyfield.max_coeff_bits": "bits",
        "ellsurf.flip_model.calls": "count",
        "ellsurf.classify.calls": "count",
        "ellsurf.delta_per_analysis": "count",
        "lattice.over_budget": "count",
        "lattice.over_budget.expr": "count",
    })
    for rank in workloads.DENSE_RANKS:
        units[f"lattice.over_budget.rank{rank}"] = "count"
    for name in SCENARIOS:
        units[f"verify.scenario.{name}_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_sha() -> str:
    """HEAD's commit from .git, read directly (no git process, nothing read
    outside the checkout); "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_cmd(args, *extra: str, importtime: bool = False) -> list[str]:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--corpus", str(args.corpus), *extra]
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def read_ready(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError("worker did not become ready in time")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("worker exited during set-up")
    return json.loads(line)


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_probe(args, importtime: bool) -> dict:
    """One fresh worker timed from spawn to ready; with ``importtime`` also
    the interpreter start-up and import breakdown."""
    err_path = os.path.join(OUT_DIR, "probe.stderr")
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(worker_cmd(args, "--setup-only", importtime=importtime),
                                cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            ready = read_ready(proc, 120)
            setup_s = time.monotonic() - t0
            proc.wait(timeout=60)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        err.seek(0)
        stderr = err.read()
    probe = {"setup_s": setup_s, "interpreter_ms": (ready["t_start"] - t0) * 1e3,
             "ready": ready}
    if importtime:
        probe.update(parse_importtime(stderr))
    return probe


def run_worker(args, traced: bool) -> tuple[float, dict, dict]:
    """Run the workload in a fresh worker; returns (set-up seconds, ready
    line, result)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(worker_cmd(args, "--trace", str(int(traced))), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = read_ready(proc, 120)
        setup_s = time.monotonic() - t0
        out, _ = proc.communicate(timeout=args.seconds + 60)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return setup_s, ready, json.loads(out.strip().splitlines()[-1])


def end_to_end(result: dict) -> tuple[dict, dict]:
    """The run's metrics, times scaled to the nominal host speed (see
    hostspeed.py; not on cli-cold, whose worker reports no host speed); the
    wall-clock figures go to the record."""
    lat = sorted(result["latencies"])
    n = len(lat)
    loop_failed = result["wrong"] + result["raised"] + sum(result["over_budget"].values())
    attempted = n + result["probe_attempted"]
    failed = loop_failed + result["probe_failed"]
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    wall = {
        "ops_per_s": (n - loop_failed) / result["elapsed_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": lat[tail_index] * 1e3,
    }
    speed = result["host_speed"]
    slowdown = speed["median_s"] / hostspeed.NOMINAL_S if speed else 1.0
    metrics = {
        "ops_per_s": wall["ops_per_s"] * slowdown,
        "latency_p50_ms": wall["latency_p50_ms"] / slowdown,
        "latency_tail_ms": wall["latency_tail_ms"] / slowdown,
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted,
    }
    record = {
        "slowdown": slowdown,
        "host_speed": result["host_speed"],
        "wall": wall,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "samples": n,
        "attempted": attempted,
        "error_rate": failed / attempted,
        "failed": failed,
        "wrong": result["wrong"],
        "raised": result["raised"],
        "probe_failed": result["probe_failed"],
        "over_budget": result["over_budget"],
        "known_defect_over_budget": result["probe_over_budget"],
        "reasons": result["reasons"],
    }
    return metrics, record


def per_layer(result: dict, probes: list[dict], cli_cold: bool, overhead: float) -> dict:
    children = result.get("children", [])
    calls: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    for child in children:
        for name, row in child["summary"].items():
            calls[name] = calls.get(name, 0) + row["calls"]
            self_ms[name] = self_ms.get(name, 0.0) + row["self_ms"]
            total_ms[name] = total_ms.get(name, 0.0) + row["total_ms"]
    basis_total = sum(c["basis_sizes"][0] for c in children)
    basis_count = sum(c["basis_sizes"][1] for c in children)
    redundant = sum(c["valuation_redundant"] for c in children)
    startup = children if cli_cold else probes

    def median_of(key: str) -> float:
        values = [s[key] for s in startup if key in s]
        return statistics.median(values) if values else 0.0

    m = {
        "cli.interpreter_ms": median_of("interpreter_ms"),
        "cli.import_ms": median_of("import_ms"),
        "cli.import.sympy_ms": median_of("import_sympy_ms"),
        "cli.main_ms": (statistics.median(c["summary"]["cli.main"]["total_ms"]
                                          for c in children if "cli.main" in c["summary"])
                        if cli_cold and children else 0.0),
    }
    for name in TIMED:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    analyses = calls.get("ellsurf.analyze_fibers", 0)
    valuations = calls.get("polyfield.valuation", 0)
    m.update({
        "polyfield.gcdfree_basis.basis_size": basis_total / basis_count if basis_count else 0.0,
        "polyfield.is_squarefree.calls": calls.get("polyfield.is_squarefree", 0),
        "polyfield.valuation.calls": valuations,
        "polyfield.valuation_redundant_ratio": redundant / valuations if valuations else 0.0,
        "polyfield.max_coeff_bits": max((c["max_coeff_bits"] for c in children), default=0),
        "ellsurf.flip_model.calls": calls.get("ellsurf.flip_model", 0),
        "ellsurf.classify.calls": calls.get("ellsurf.classify", 0),
        "ellsurf.delta_per_analysis": (
            (calls.get("ellsurf.discriminant", 0) + calls.get("ellsurf.WeierstrassModel", 0))
            / analyses if analyses else 0.0),
    })
    over: dict[str, int] = {}
    for counts in (result["over_budget"], result["probe_over_budget"]):
        for k, v in counts.items():
            if k.startswith("rank") or k in ("expr", "image"):
                over[k] = over.get(k, 0) + v
    m["lattice.over_budget"] = sum(over.values())
    m["lattice.over_budget.expr"] = over.get("expr", 0) + over.get("image", 0)
    for rank in workloads.DENSE_RANKS:
        m[f"lattice.over_budget.rank{rank}"] = over.get(f"rank{rank}", 0)
    for name in SCENARIOS:
        m[f"verify.scenario.{name}_ms"] = total_ms.get(f"verify.scenario.{name}", 0.0)
    m["trace.overhead_ratio"] = overhead
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", type=int, default=0,
                    help="input corpus; the seed only orders it (1: held out)")
    ap.add_argument("--tiny", action="store_true",
                    help="tiny corpus, for the self-check")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "k3auto", "cli.py")):
        return fail(f"no k3auto sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = bool(args.trace)

    try:
        probes = [setup_probe(args, importtime=traced)
                  for _ in range(2 if args.tiny else SETUP_PROBES)]
        setup_s, ready, result = run_worker(args, traced=False)
        metrics, record = end_to_end(result)
        if traced:
            _, _, traced_result = run_worker(args, traced=True)
            traced_metrics, _ = end_to_end(traced_result)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError) as exc:
        return fail(str(exc))
    # wall clock, not scaled: set-up moves far less with the host's load than
    # the reference block does, and scaling widened its spread (README.md)
    metrics["setup_s"] = statistics.median([p["setup_s"] for p in probes] + [setup_s])

    record.update({
        "workload": args.workload, "seed": args.seed, "corpus": args.corpus,
        "seconds": args.seconds,
        "trace": args.trace, "python": ready["python"], "sympy": ready["sympy"],
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "end_to_end": metrics,
    })
    if traced:
        overhead = traced_metrics["ops_per_s"] / metrics["ops_per_s"] if metrics["ops_per_s"] else 0.0
        units = per_layer_units()
        values = per_layer(traced_result, probes, args.workload == "cli-cold", overhead)
        record["traced_spans"] = sum(c.get("spans", 0) for c in traced_result.get("children", []))
    else:
        units = END_TO_END
        values = metrics
    out = {
        "correct": all(r["wrong"] == r["raised"] == r["probe_failed"] == 0
                       for r in ([result, traced_result] if traced else [result])),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"record": record, "result": out}, handle, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
