#!/usr/bin/env python3
"""latquot benchmark: closed-loop workloads with exact-answer checks.

    python3 perfbench/run.py --workload lattice_ops --seed 1 --seconds 20 --trace 0

One caller, one thread: each operation starts only after the previous one
returned, as a library user or a shell script waits for its answer.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
of the same operations (spans are also written under ``perfbench/_work``).
Run from the root of a latquot checkout; the library is imported from
``src``.  Exits 1 on a wrong answer and 2 when the checkout has no library.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics measured by the loop rather than from spans
TRACE_EXTRAS = ("flat_geometry.deadline_hits", "trace.overhead_frac")
WORKLOADS = ("lattice_ops", "sheared_geometry", "large_n", "cli", "sheared_reproducers")
SETUP_REPEATS = 3
WARMUP_S = 1.0
# Far above every operation that completes (the slowest seen, an n = 20
# ``equals``, takes under 0.1 s), so the failure count repeats.
DEADLINE_S = 5.0
CLI_TIMEOUT_S = 30.0

OK, WRONG, RAISED, DEADLINE = "ok", "wrong", "raised", "deadline"


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def call_with_deadline(fn, limit: float):
    """Run fn() under a SIGALRM timer; return (status, seconds, result)."""
    result = None
    status = OK
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        result = fn()
    except DeadlineExceeded:
        status = DEADLINE
    except Exception as exc:  # any other error on valid input is a wrong answer
        status, result = RAISED, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, perf_counter() - t0, result


@dataclass
class Tally:
    """Outcome of a stretch of the closed loop, timed against ``clock``."""

    clock: SpeedClock
    records: list = field(default_factory=list)  # (start, seconds, completed?) per op
    failed: int = 0
    wrong: int = 0
    deadline: int = 0
    failures: Counter = field(default_factory=Counter)  # "kind:status" -> count

    def add(self, kind: str, status: str, start: float, dt: float) -> None:
        self.records.append((start, dt, status == OK))
        if status == OK:
            return
        self.failed += 1
        self.failures[f"{kind}:{status}"] += 1
        if status == DEADLINE:
            self.deadline += 1
        else:
            self.wrong += 1

    @property
    def attempted(self) -> int:
        return len(self.records)

    def latencies(self) -> list[float]:
        """Speed-normalised seconds of each completed op."""
        return [self.clock.scale(start, dt) for start, dt, ok in self.records if ok]

    def busy(self) -> float:
        """Speed-normalised seconds inside operations, failed ones included."""
        return sum(self.clock.scale(start, dt) for start, dt, _ in self.records)


class Runner:
    """Executes one op in-process, or as a ``latquot.cli`` subprocess."""

    def __init__(self, workload: str, tracer: Tracer | None = None):
        self.cli = workload == "cli"
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def __call__(self, op: workloads.Op, index: int):
        if not self.cli:
            if self.tracer is not None:
                self.tracer.op = index
            status, dt, result = call_with_deadline(op.call, DEADLINE_S)
        else:
            status, dt, result = self.run_cli(op, index)
        if status == OK and not op.check(result):
            status = WRONG
        return status, dt

    def run_cli(self, op: workloads.Op, index: int):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "latquot.cli", *op.argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *op.argv]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return DEADLINE, perf_counter() - t0, None
        dt = perf_counter() - t0
        if proc.returncode != 0:
            return RAISED, dt, proc.stdout
        if self.tracer is not None:  # the child's last stderr line holds its spans
            self.tracer.merge(json.loads(proc.stderr.decode().splitlines()[-1]), index)
        return OK, dt, proc.stdout


def run_ops(ops, runner: Runner, tally: Tally, seconds: float | None = None, count: int | None = None) -> int:
    """Closed loop over ``ops`` from index 0, for ``seconds`` or ``count`` ops."""
    end = perf_counter() + seconds if seconds is not None else math.inf
    i = 0
    while perf_counter() < end and (count is None or i < count):
        tally.clock.tick()
        op = ops[i % len(ops)]
        start = perf_counter()
        status, dt = runner(op, i)
        tally.add(op.kind, status, start, dt)
        i += 1
    tally.clock.sample()  # so the last ops have samples on both sides
    return i


def import_and_build(workload: str, seed: int, clock: SpeedClock):
    """Import latquot from scratch and build the workload's inputs; timed as set-up."""
    for name in [m for m in sys.modules if m == "latquot" or m.startswith("latquot.")]:
        del sys.modules[name]
    gc.collect()
    for _ in range(clock.window):
        clock.sample()
    t0 = perf_counter()
    lq = importlib.import_module("latquot")
    base = "sheared_geometry" if workload == "sheared_reproducers" else workload
    ops = workloads.BUILDERS[base](seed, lq, ROOT)
    elapsed = perf_counter() - t0
    for _ in range(clock.window):
        clock.sample()
    return clock.scale(t0, elapsed), lq, ops


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_clock(workload: str) -> SpeedClock:
    return SpeedClock.for_subprocesses() if workload == "cli" else SpeedClock()


def measure(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    setup_clock, clock = SpeedClock(), op_clock(workload)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, lq, ops = import_and_build(workload, seed, setup_clock)
        setup_times.append(elapsed)
    runner = Runner(workload)
    warm = Tally(clock)
    run_ops(ops, runner, warm, seconds=WARMUP_S, count=len(ops))
    tally = Tally(clock)
    if workload == "sheared_reproducers":
        # the ROADMAP item-1 blow-ups, once each, ahead of the timed loop
        lead = workloads.reproducers(lq)
        run_ops(lead, runner, tally, count=len(lead))
    run_ops(ops, runner, tally, seconds=seconds)
    tally.wrong += warm.wrong
    tally.failures.update(warm.failures)
    if workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies, busy = tally.latencies(), tally.busy()
    metrics = {
        "ops_per_s": len(latencies) / busy if busy > 0 else 0.0,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3 if latencies else 0.0,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3 if latencies else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024,
    }
    return tally, {name: metric(metrics[name], unit) for name, unit in END_TO_END.items()}


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Untraced then traced over the same ops; per-layer metrics from the spans."""
    clock = op_clock(workload)
    _, lq, ops = import_and_build(workload, seed, SpeedClock())
    warm = Tally(clock)
    # a whole pass, so lazily cached per-lattice data is equally warm in both halves
    run_ops(ops, Runner(workload), warm, count=len(ops))
    plain = Tally(clock)
    count = run_ops(ops, Runner(workload), plain, seconds=seconds / 2)
    tracer = Tracer()
    traced = Tally(clock)
    if workload != "cli":
        tracer.install(lq)
    try:
        run_ops(ops, Runner(workload, tracer), traced, count=count)
    finally:
        tracer.uninstall()
    tracer.dump(ROOT / workloads.WORKDIR / f"trace-{workload}-{seed}.jsonl")
    # self times are raw seconds; the share divides by the raw traced wall
    layer = tracer.layer_metrics(sum(dt for _, dt, _ in traced.records))
    layer[TRACE_EXTRAS[0]] = traced.deadline
    layer[TRACE_EXTRAS[1]] = traced.busy() / plain.busy() - 1 if plain.records else 0.0
    total = Tally(clock, records=plain.records + traced.records, failed=plain.failed + traced.failed,
                  wrong=warm.wrong + plain.wrong + traced.wrong,
                  failures=warm.failures + plain.failures + traced.failures)
    return total, {name: metric(value, per_layer_unit(name)) for name, value in layer.items()}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_frac")):
        return "ratio"
    if name.endswith("bits_in"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latquot" / "__init__.py").is_file():
        print(f"no latquot sources under {ROOT / 'src'}; run from a latquot checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    measure_fn = measure_traced if args.trace else measure
    tally, metrics = measure_fn(args.workload, args.seed, args.seconds)
    if tally.failures:
        print(f"failed operations: {dict(tally.failures)}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
