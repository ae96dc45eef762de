"""A fixed reference computation, timed after every op to gauge the machine's speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to half from minute to minute, with load from outside the machine; process
CPU time changes with it.  Op times taken minutes apart therefore differ by
more than any useful regression bound.  The timed run runs a kernel after
each op and reports op times in units of the kernel's mean time (``ref``): a
mean, like the op times it divides, taken right beside them, so that a slow
spell weighs on both alike.  The kernels are the benchmark's own code, not
the package's, so a change to ioperiod moves the ops and leaves the unit
alone.

A slow spell slows interpreted Python and numpy on large arrays by
different amounts, so each workload names the kernel that is most like its
dominant layer (``REF_KERNEL``).  Six 30 s runs per workload on a 2-core
x86-64 virtual machine, each op divided as in run.in_ref_units, gave these
IQRs of op p75 over its median: in ms, then with the array kernel, then
with the parse kernel, then with a numpy kernel on a cache-sized array:
``sweep`` 0.089 / 0.025 / 0.104 / 0.057; ``fine-detect`` 0.040 / 0.015 /
0.052 / 0.031.  On ``online-tail`` the parse kernel took the IQR of op p75
over 14 runs from 0.158 to 0.016.  There the array kernel takes about
45 ms and the parse kernel about 7 ms.
"""
from __future__ import annotations

import json
import time

import numpy as np


def _array_kernel(x: np.ndarray, lines: list[str]) -> float:
    """Sort, gather, sum and transform 2^18 floats, larger than a core's cache."""
    z = np.cumsum(x[np.argsort(x, kind="stable")])
    return float(z[-1] + np.fft.rfft(x)[1].real)


def _parse_kernel(x: np.ndarray, lines: list[str]) -> float:
    """Decode JSON request lines into columns, as a trace parser does."""
    rank, duration, writes = [], [], 0
    for line in lines:
        rec = json.loads(line)
        rank.append(int(rec["rank"]))
        duration.append(float(rec["end"]) - float(rec["start"]))
        writes += rec["kind"] == "write"
    order = np.argsort(np.asarray(duration), kind="stable")
    return float(order[0] + rank[0] + writes)


KERNELS = {"arrays": _array_kernel, "parse": _parse_kernel}


class RefClock:
    """Its inputs are made here, not at import, so that a process's peak
    resident memory read before the first RefClock is the package's alone."""

    def __init__(self, kernel: str):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(1 << 18)
        self._lines = [json.dumps({"rank": int(r), "start": float(s), "end": float(s) + 0.5,
                                   "bytes": 1 << 20, "kind": "write"})
                       for r, s in zip(rng.integers(0, 32, 1500), rng.random(1500) * 100)]
        self._kernel = KERNELS[kernel]
        self._kernel(self._x, self._lines)   # warm-up: first-call costs are not the machine's speed
        self.samples_s: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel(self._x, self._lines)
        self.samples_s.append(time.perf_counter() - t0)
