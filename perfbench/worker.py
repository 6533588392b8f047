"""Benchmark worker: one fresh process that sets up one workload and runs
its closed loop (one client, no threads).

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        [--trace 0|1] [--corpus C] [--setup-only] [--tiny]

Prints a ``ready`` JSON line once set up (import of k3auto, sympy included,
and the seeded corpus built), then, unless ``--setup-only``, one result JSON
line with the raw per-op latencies and counts.  ``run.py`` turns these into
metrics.  For ``cli-cold`` each op is a fresh ``k3auto`` process started
from here, one at a time.
"""

from __future__ import annotations

import time

T_START = time.monotonic()  # first statement: interpreter start-up ends here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, parse_importtime  # noqa: E402

MAX_REASONS = 5
WARMUP_S = 2.0  # untimed ops before an in-process loop


class OverBudget(BaseException):
    """Raised from SIGALRM inside an op that ran past its budget; derives
    from BaseException so no ``except Exception`` in the code under test
    swallows it."""


class Budget:
    """Per-op time budget on the real-time interval timer."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, _signum, _frame):
        if self.armed:
            self.armed = False
            raise OverBudget()

    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_k3auto():
    import k3auto.cli  # noqa: F401  (pulls in every module, sympy included)

    names = ("polyfield", "parsing", "ellsurf", "lattice", "isometry",
             "enumerations", "verify", "cli")
    return types.SimpleNamespace(**{n: sys.modules[f"k3auto.{n}"] for n in names})


MAKE_WORKLOAD = {
    "fibers-batch": workloads.fibers_batch,
    "lattice-batch": workloads.lattice_batch,
    "paper-warm": workloads.paper_warm,
}


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.wrong = 0
        self.raised = 0
        self.over_budget: dict[str, int] = {}
        self.probe_over_budget: dict[str, int] = {}
        self.probe_attempted = 0
        self.probe_failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str):
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(reason)

    def as_dict(self) -> dict:
        return {
            "latencies": self.latencies,
            "wrong": self.wrong,
            "raised": self.raised,
            "over_budget": self.over_budget,
            "probe_over_budget": self.probe_over_budget,
            "probe_attempted": self.probe_attempted,
            "probe_failed": self.probe_failed,
            "reasons": self.reasons,
        }


def run_op(op: workloads.Op, budget: Budget) -> tuple[object, str | None, float]:
    """Run one op under its budget: (output, error or None, seconds)."""
    out, error = None, None
    t0 = time.perf_counter()
    try:
        budget.arm()
        out = op.run()
    except OverBudget:
        error = "over budget"
    except Exception as exc:  # a raising op is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    finally:
        budget.disarm()
    return out, error, time.perf_counter() - t0


def budget_key(op: workloads.Op) -> str:
    return f"rank{op.rank}" if op.kind == "dense" else op.kind


def warm_up(work, seconds: float) -> None:
    """Untimed ops, in loop order, before the timed loop: its first ops then
    do not pay first-call costs (allocator growth, cold caches)."""
    budget = Budget(work.budget_s)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i == 0:
        run_op(work.ops[i % len(work.ops)], budget)
        i += 1


def run_in_process(work, seconds: float, tracer: Tracer | None, speed: HostSpeed) -> Tally:
    """The closed loop: the ops of ``work`` in turn, for ``seconds`` and then
    to the end of the pass, so every op is visited equally often (a partial
    last pass would move the figures by which ops it happened to hold); the
    host's speed is sampled between ops."""
    tally = Tally()
    budget = Budget(work.budget_s)
    ops = work.ops
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i % len(ops) or i == 0:
        op = ops[i % len(ops)]
        i += 1
        root = tracer.begin_op() if tracer else -1
        out, error, latency = run_op(op, budget)
        tally.latencies.append(latency)
        if tracer:
            tracer.end_op(root)
        speed.tick()
        if error == "over budget":
            name = budget_key(op)
            tally.over_budget[name] = tally.over_budget.get(name, 0) + 1
        elif error is not None:
            tally.raised += 1
            tally.fail(f"{op.kind}: {error}")
        else:
            reason = op.check(out)
            if reason is not None:
                tally.wrong += 1
                tally.fail(f"{op.kind}: {reason}")
    return tally


def run_probe(work, tally: Tally) -> None:
    """Each probe op once, untimed.  An op over the probe budget is the known
    defect: it counts only in ``probe_over_budget``, not as attempted or
    failed.  One that ends inside the budget is attempted and checked."""
    budget = Budget(work.probe_budget_s)
    for op in work.probe:
        out, error, _ = run_op(op, budget)
        if error == "over budget":
            name = budget_key(op)
            tally.probe_over_budget[name] = tally.probe_over_budget.get(name, 0) + 1
            continue
        tally.probe_attempted += 1
        if error is None:
            error = op.check(out)
        if error is not None:
            tally.probe_failed += 1
            tally.fail(f"probe {op.kind}: {error}")


def run_cli(golden: dict, seed: int, seconds: float, traced: bool, tiny: bool) -> tuple[Tally, list]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("K3_REPORT_FORMAT", None)
    rotation = workloads.cli_rotation(seed, rounds=64)
    round_len = len(workloads.CLI_ROTATION)
    if tiny:
        rotation = [("lattice", "U + A10"), ("enumerate", "perfbench/cli/lefschetz.json")]
        round_len = len(rotation)
    tally, children = Tally(), []
    budget = workloads.BUDGET_S["cli-cold"]
    # one untimed child first, so the timed ones find the files it reads cached
    subprocess.run([sys.executable, "-m", "k3auto.cli", *rotation[0]], cwd=ROOT, env=env,
                   capture_output=True, timeout=budget)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i % round_len or i == 0:  # whole rounds
        argv = list(rotation[i % len(rotation)])
        i += 1
        key = " ".join(argv)
        out_path = os.path.join(OUT_DIR, f"cli-child-{i}.json")
        if traced:
            cmd = [sys.executable, "-X", "importtime",
                   os.path.join(HERE, "cli_child.py"), out_path, *argv]
        else:
            cmd = [sys.executable, "-m", "k3auto.cli", *argv]
        t_spawn = time.monotonic()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            tally.latencies.append(time.perf_counter() - t0)
            tally.over_budget["cli"] = tally.over_budget.get("cli", 0) + 1
            continue
        tally.latencies.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            tally.raised += 1
            tally.fail(f"{key}: exit {proc.returncode}")
        elif workloads.digest(proc.stdout.decode()) != golden[key]:
            tally.wrong += 1
            tally.fail(f"{key}: stdout differs from golden")
        if traced and os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                child = json.load(handle)
            os.remove(out_path)
            child["interpreter_ms"] = (child.pop("t_start") - t_spawn) * 1e3
            child.update(parse_importtime(proc.stderr.decode(errors="replace")))
            children.append(child)
    return tally, children


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corpus", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    k3 = load_k3auto()
    if args.workload == "cli-cold":
        work = workloads.load_golden("cli.json")
    else:
        work = MAKE_WORKLOAD[args.workload](k3, args.seed, args.tiny, args.corpus)
    import sympy

    print(json.dumps({"ready": True, "t_start": T_START,
                      "python": sys.version.split()[0], "sympy": sympy.__version__}),
          flush=True)
    if args.setup_only:
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload != "cli-cold":
        warm_up(work, WARMUP_S)
    # cli-cold is not scaled by the host's speed: like set-up, its time is
    # mostly process start and imports, which move far less with the host's
    # load than the reference block (README.md, "Host speed")
    speed = HostSpeed() if args.workload != "cli-cold" else None
    t0 = time.perf_counter()
    trace: dict = {}
    if args.workload == "cli-cold":
        tally, children = run_cli(work, args.seed, args.seconds, bool(args.trace), args.tiny)
        elapsed_s = time.perf_counter() - t0
        trace["children"] = children
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        tally = run_in_process(work, args.seconds, tracer, speed)
        elapsed_s = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
            trace["children"] = [tracer.report()]
            tracer.write_spans(os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.bin"))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run_probe(work, tally)  # after the peak RSS reading: the loop's alone
    result = tally.as_dict()
    if speed is not None:
        elapsed_s -= speed.spent_s
    result.update(elapsed_s=elapsed_s, peak_rss_mb=peak_kb / 1024,
                  host_speed=speed and speed.as_dict(), **trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
