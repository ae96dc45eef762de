"""Record the reference output of every input in each workload's pool.

    python3 perfbench/record_reference.py [workload ...]

Every benchmark run compares each op's output with these files, floats to a
relative 1e-9, so run this only on a commit whose outputs are trusted and
say in the change why the reference moved.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from tracing import NullTracer
from worker import WORK_DIR, import_package, run_ops


def record(workload) -> dict:
    workdir = WORK_DIR / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workload.build(workload.pool(), workdir)
        records, wall_s = run_ops(workload, inputs, NullTracer(), passes=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [f"{r.key}: {r.error}" for r in records if r.error]
    if failed:
        raise SystemExit(f"{workload.name}: {len(failed)} ops failed, first {failed[0]}")
    print(f"{workload.name}: {len(records)} ops in {wall_s:.1f} s", file=sys.stderr)
    return {r.key: r.outcome.out for r in records}


def main(argv: list[str]) -> int:
    import_package()
    from workloads import REFERENCE_DIR, REL_TOL, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in argv or list(WORKLOADS):
        ops = record(WORKLOADS[name])
        # one op per line, so that a change to the reference reads as a diff
        lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(out)}" for key, out in ops.items())
        with open(REFERENCE_DIR / f"{name}.json", "w") as f:
            f.write(f'{{"workload": {json.dumps(name)}, "rel_tol": {REL_TOL},\n'
                    f'"ops": {{\n{lines}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
