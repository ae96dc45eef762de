"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of an untraced run;
with ``--trace 1`` the per-layer metrics of a separate traced run and a
memory pass.  Each part runs in a fresh interpreter (worker.py), one thread,
closed loop.  Every metric is printed by name with its unit and sample
count; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "fine-detect", "online-tail")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "op_p75_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "period_error_median": "ratio",
}
#: set-up-only processes before and after the timed one, whose own set-up
#: makes nine; spread over the run so that one slow spell weighs less
SETUPS_AROUND = 4
#: reference samples on either side of an op that make its unit (see in_ref_units)
REF_WINDOW = 3
#: one workload's run ends within this many seconds of its start
DEADLINE_S = 170.0
#: one thread: numerical libraries must not start a pool of their own
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def worker(mode: str, args, workload: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env={**os.environ, **SINGLE_THREAD_ENV},
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} run of {workload} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} run of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, workload: str, deadline: float):
    def setup():
        return worker("setup", args, workload, deadline)["setup_s"]

    setups = [setup() for _ in range(SETUPS_AROUND)]
    timed = worker("timed", args, workload, deadline)
    setups += [timed["setup_s"]] + [setup() for _ in range(SETUPS_AROUND)]
    lat, ref = timed["latencies_ms"], timed["ref_ms"]
    rel = in_ref_units(lat, ref)
    errors = timed["period_errors"]
    attempted, failed = timed["attempted"], timed["failed"]
    p50 = statistics.median(rel)
    p75 = statistics.quantiles(rel, n=4)[2]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_ref": len(rel) / sum(rel),
        "op_p50_ref": p50,
        "op_p75_ref": p75,
        "peak_rss_mb": timed["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
        # no op returned a period: the worst possible relative error
        "period_error_median": statistics.median(errors) if errors else 1.0,
    }
    lat_q = statistics.quantiles(lat, n=4)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each in a fresh process",
        "ops_per_ref": f"{len(lat)} ops in {sum(lat) / 1e3:.2f} s of op time, "
                       f"{len(lat) / sum(lat) * 1e3:.4g}/s; one client, closed loop; "
                       f"ref = {statistics.fmean(ref):.4g} ms, mean of {len(ref)} samples",
        "op_p50_ref": f"n={len(rel)} ops; {statistics.median(lat):.4g} ms",
        "op_p75_ref": f"n={len(rel)} ops, {sum(x > p75 for x in rel)} beyond p75; "
                      f"{lat_q[2]:.4g} ms",
        "peak_rss_mb": "timed process, fresh interpreter",
        "ok_ratio": f"{attempted - failed} of {attempted} ops matched the reference; "
                    f"fail_ratio {failed / attempted:.4g}",
        "period_error_median": f"n={len(errors)} ops of the first pass returned a period",
    }
    counts = {"correct": failed == 0 and bool(errors), "attempted": attempted, "failed": failed}
    return values, counts, notes, [f"failed op {f}" for f in timed["failures"]]


def in_ref_units(latencies_ms: list[float], ref_ms: list[float]) -> list[float]:
    """Each op's latency over the mean of the reference samples around it.

    ``ref_ms[i]`` was taken right after op i.  The mean over the REF_WINDOW
    ops on either side follows the machine's slow and fast spells, which
    last seconds, while averaging out the noise of single samples.  Over 14
    runs of ``online-tail``, the IQR of op p75 over its median was 0.158 in
    ms, 0.038 with the run's mean sample as the unit, and 0.016 with this one.
    """
    return [ms / statistics.fmean(ref_ms[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, ms in enumerate(latencies_ms)]


def per_layer(args, workload: str, deadline: float):
    traced = worker("traced", args, workload, deadline)
    memory = worker("memory", args, workload, deadline)
    found = {**traced["layers"], **memory["peaks"]}
    absent = sorted(set(traced["absent"]) | set(memory["absent"]))
    values = {name: found.get(name, 0.0) for name in PER_LAYER}
    counts = {"correct": traced["failed"] == 0, "attempted": traced["attempted"],
              "failed": traced["failed"]}
    remarks = [f"failed op {f}" for f in traced["failures"]]
    remarks += [f"absent: {name}, its layer's metrics read 0" for name in absent]
    return values, counts, {}, remarks


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    units = PER_LAYER if args.trace else END_TO_END
    values, counts, notes, remarks = (per_layer if args.trace else end_to_end)(
        args, workload, deadline)
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {values[name]:>14.6g} {unit:<12}{note}")
    for remark in remarks:
        print(f"  {remark}")
    return {**counts,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ioperiod" / "__init__.py").is_file():
        print(f"error: no ioperiod package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(args, name) for name in names}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _remove_empty(ROOT / ".perfbench-work")
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": v for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


def _remove_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
