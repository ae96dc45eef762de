"""One benchmark process: a set-up, a timed run, a traced run or a memory pass.

run.py starts a fresh interpreter for each, so the import time and the peak
resident memory read here belong to a process that did nothing else.  The
result is one JSON object on standard output:

    python3 perfbench/worker.py --mode timed --workload sweep --seed 1 --seconds 20
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from refclock import RefClock
from tracing import COUNTS, LAYERS, AllocPeaks, NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-out"
#: a timed run has at least this many ops, so at least 10 lie beyond p75
MIN_OPS = 40


def import_package() -> float:
    """Import ioperiod from the checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ioperiod
    import ioperiod.cli  # noqa: F401  (not imported by the package itself)
    elapsed = time.perf_counter() - t0
    if not Path(ioperiod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported ioperiod from {ioperiod.__file__}, not from {SRC}")
    return elapsed


@dataclass
class OpRecord:
    key: str
    pass_index: int
    latency_s: float
    outcome: object        # workloads.Outcome, or None when the op raised
    error: str | None


def run_ops(workload, inputs, tracer, seconds=0.0, passes=None, max_ops=None, min_ops=0,
            between=None):
    """Closed loop over the pool: each op starts when the previous one returned.

    Runs whole passes over the pool, so that every run times the same mix of
    inputs: at least one pass and ``min_ops`` ops, and then passes for as
    long as the run ends nearer to ``seconds`` with one more pass than
    without it.  With ``passes`` it runs exactly that many; with ``max_ops``
    it stops after that many ops.  ``between`` is called after each op,
    outside its latency.  Returns the records and the wall time.
    """
    records: list[OpRecord] = []
    start = time.perf_counter()
    p = 0
    while (p < passes) if passes is not None else (
            p == 0 or len(records) < min_ops or _one_more(start, p, seconds)):
        ops = workload.ops(inputs, tracer.span)
        try:
            for key, op in ops:
                t0 = time.perf_counter()
                try:
                    with tracer.op():
                        outcome, error = op(), None
                except Exception as exc:   # a failed op is counted, not fatal
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                    if not any(r.error for r in records):
                        traceback.print_exc()
                records.append(OpRecord(key, p, time.perf_counter() - t0, outcome, error))
                if between is not None:
                    between()
                if max_ops is not None and len(records) >= max_ops:
                    return records, time.perf_counter() - start
        finally:
            ops.close()
        p += 1
    return records, time.perf_counter() - start


def _one_more(start: float, done: int, seconds: float) -> bool:
    """Whether one more of ``done`` equal rounds ends nearer to ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def check(workload, records: list[OpRecord]) -> dict:
    """Compare every op with its reference; period errors of the first pass."""
    from workloads import load_reference, mismatch

    reference = load_reference(workload.name)
    failures = []
    for r in records:
        reason = r.error or mismatch(r.outcome.out, reference.get(r.key))
        if reason:
            failures.append(f"{r.key}: {reason}")
    errors = [abs(r.outcome.period - r.outcome.lambda_avg) / r.outcome.lambda_avg
              for r in records
              if r.pass_index == 0 and r.outcome is not None and r.outcome.period is not None]
    return {"attempted": len(records), "failed": len(failures),
            "failures": failures[:5], "period_errors": errors}


def mode_setup(workload, inputs, args) -> dict:
    return {}


def mode_timed(workload, inputs, args) -> dict:
    """The first pass warms up and runs alone, so the peak resident memory read
    after it is the package's.  The passes after it are timed, with the
    reference kernel run after each of their ops.  Every op is checked."""
    warm, warm_s = run_ops(workload, inputs, NullTracer(), passes=1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock = RefClock(workload.REF_KERNEL)
    timed, _ = run_ops(workload, inputs, NullTracer(), seconds=args.seconds - warm_s,
                       min_ops=MIN_OPS, between=clock.sample)
    for r in timed:
        r.pass_index += 1
    return {"keys": [r.key for r in timed],
            "latencies_ms": [r.latency_s * 1e3 for r in timed],
            "ref_ms": [s * 1e3 for s in clock.samples_s],
            "peak_rss_mb": peak_rss_mb, **check(workload, warm + timed)}


def mode_traced(workload, inputs, args) -> dict:
    """Untraced and traced passes over the pool, alternating, so that machine
    drift weighs on both sides of the tracing overhead alike."""
    plain, records, n_first, rounds = [], [], 0, 0
    tracer = Tracer()
    start = time.perf_counter()
    while not rounds or _one_more(start, rounds, args.seconds):
        rounds += 1
        plain += run_ops(workload, inputs, NullTracer(), passes=1)[0]
        tracer.install()
        try:
            records += run_ops(workload, inputs, tracer, passes=1)[0]
        finally:
            tracer.uninstall()
        n_first = n_first or len(records)
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")

    first = range(n_first)      # op ids of the first traced pass
    totals = tracer.count_totals(set(first))
    self_ms = tracer.self_ms()
    op_ms = tracer.op_ms()
    traced_ms = statistics.fmean(r.latency_s for r in records) * 1e3
    untraced_ms = statistics.fmean(r.latency_s for r in plain) * 1e3
    layers = {}
    for layer in LAYERS:
        layers[f"{layer}.self_ms"] = self_ms.get(layer, 0.0) / len(records)
        layers[f"{layer}.share"] = self_ms.get(layer, 0.0) / op_ms
    for metric in COUNTS:
        layers[metric] = totals.get(metric, 0.0) / len(first)
    new_bytes = sum(records[i].outcome.new_bytes for i in first if records[i].outcome)
    parsed = totals.get("trace.parse.bytes", 0.0)
    layers["trace.parse.new_bytes_ratio"] = new_bytes / parsed if parsed else 0.0
    layers["bench.op.traced_ms"] = traced_ms
    layers["bench.op.untraced_ms"] = untraced_ms
    layers["tracing.overhead_ratio"] = traced_ms / untraced_ms - 1.0
    return {"layers": layers, "absent": tracer.absent, **check(workload, records)}


def mode_memory(workload, inputs, args) -> dict:
    """Per-call tracemalloc peaks over the first ops of the pool."""
    probe = AllocPeaks()
    probe.install()
    tracemalloc.start()
    try:
        run_ops(workload, inputs, NullTracer(), passes=1, max_ops=workload.memory_ops)
    finally:
        tracemalloc.stop()
        probe.uninstall()
    return {"peaks": {f"{layer}.peak_alloc_mb": mb for layer, mb in probe.peaks.items()},
            "absent": probe.absent}


MODES = {"setup": mode_setup, "timed": mode_timed, "traced": mode_traced,
         "memory": mode_memory}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    import_s = import_package()
    # imported after the package so that neither counts as its import time
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.mode}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        inputs = workload.build(workloads.select(workload, args.seed), workdir)
        setup_s = import_s + time.perf_counter() - t0
        result = MODES[args.mode](workload, inputs, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
