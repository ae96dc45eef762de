"""Span tracer and allocation probe for the traced benchmark run.

Both work by replacing the module attributes through which ioperiod's
layers call each other (``ioperiod.pipeline.dft`` and so on) with wrappers,
so the package itself is unchanged.  A function that no longer exists is
reported as absent rather than failing the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


def _flagged(err: float) -> int:
    """1 when the pipeline flags the sampling error as bad sampling."""
    threshold = getattr(sys.modules["ioperiod.sampling"], "BAD_SAMPLING_THRESHOLD", 0.01)
    return int(abs(err) > threshold)


def _source_bytes(source) -> int:
    if isinstance(source, (bytes, bytearray)):
        return len(source)
    if isinstance(source, (str, os.PathLike)):
        return os.path.getsize(source)
    return 0


def _padded_n(n: int) -> int:
    """Transform length the radix-2 / Bluestein FFT runs at for n samples.

    Computed from n, not measured: a power of two runs as is, any other
    length as a power-of-two convolution of at least 2n - 1 points.
    """
    if n < 2 or n & (n - 1) == 0:
        return n
    return 1 << (2 * n - 1).bit_length()


#: (module, attribute, layer, counts taken from (args, result))
WRAPS: list[tuple[str, str, str, Callable | None]] = [
    ("ioperiod.pipeline", "merge_bandwidth", "trace.merge",
     lambda a, r: {"trace.merge.breakpoints": len(r.times)}),
    ("ioperiod.pipeline", "discretize", "sampling.discretize",
     lambda a, r: {"sampling.discretize.samples": r.n}),
    ("ioperiod.pipeline", "sampling_error", "sampling.error",
     lambda a, r: {"sampling.flagged": _flagged(r)}),
    ("ioperiod.pipeline", "dft", "spectral.dft",
     lambda a, r: {"spectral.dft.n": r.n, "spectral.dft.padded_n": _padded_n(r.n)}),
    ("ioperiod.pipeline", "detect", "detection.detect",
     lambda a, r: {"detection.detect.bins_scored": len(a[0].frequencies) - 1,
                   "detection.detect.candidates_kept": len(r.candidates),
                   "detection.detect.harmonics_suppressed": len(r.suppressed_harmonics)}),
    ("ioperiod.pipeline", "compute_metrics", "metrics.compute",
     lambda a, r: {"metrics.compute.periods_used": r.periods_used or 0}),
    ("ioperiod.pipeline", "analyze_signal", "pipeline.analyze",
     lambda a, r: {"pipeline.analyze.calls": 1}),
    ("ioperiod.online", "parse_trace", "trace.parse",
     lambda a, r: {"trace.parse.requests": len(r), "trace.parse.bytes": _source_bytes(a[0])}),
    ("ioperiod.online", "on_new_data", "online.watch",
     lambda a, r: {"online.window_s": r.window[1] - r.window[0]}),
    ("ioperiod.online", "analyze_trace", "pipeline.analyze", None),
    ("ioperiod.synth", "generate", "synth.generate",
     lambda a, r: {"synth.generate.requests": len(r[0])}),
    ("ioperiod.synth", "analyze_trace", "pipeline.analyze", None),
    ("ioperiod.cli", "parse_trace", "trace.parse",
     lambda a, r: {"trace.parse.requests": len(r), "trace.parse.bytes": _source_bytes(a[0])}),
    ("ioperiod.cli", "analyze_trace", "pipeline.analyze", None),
]

#: spans the benchmark opens around its own calls into the package
BENCH_SPANS = {
    "synth.sweep": "synth.sweep",    # the sweep loop around generate and analyze
    "cli.main": "cli.detect",        # argument parsing and result output
    "online.watch": "online.watch",  # the watcher's own reads between analyses
    "bench.op": "bench",
    "bench.append": "bench",
}
SPAN_LAYER = {f"{m.removeprefix('ioperiod.')}.{a}": layer for m, a, layer, _ in WRAPS}
SPAN_LAYER.update(BENCH_SPANS)

#: layers whose self time is reported, in report order
LAYERS = ("trace.parse", "trace.merge", "sampling.discretize", "sampling.error",
          "spectral.dft", "detection.detect", "metrics.compute", "pipeline.analyze",
          "online.watch", "synth.generate", "synth.sweep", "cli.detect")

#: layers whose allocation peak the memory pass measures
ALLOC_LAYERS = ("trace.merge", "sampling.discretize", "spectral.dft")

#: counts taken at the wrapped calls: name -> unit, per op of the first pass
COUNTS = {
    "trace.parse.requests": "count/op",
    "trace.parse.bytes": "B/op",
    "trace.merge.breakpoints": "count/op",
    "sampling.discretize.samples": "count/op",
    "sampling.flagged": "count/op",
    "spectral.dft.n": "count/op",
    "spectral.dft.padded_n": "computed/op",
    "detection.detect.bins_scored": "count/op",
    "detection.detect.candidates_kept": "count/op",
    "detection.detect.harmonics_suppressed": "count/op",
    "metrics.compute.periods_used": "count/op",
    "pipeline.analyze.calls": "count/op",
    "online.window_s": "s",
    "synth.generate.requests": "count/op",
}

#: every per-layer metric: name -> unit.  Times are per op over every traced op.
PER_LAYER: dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_ms"] = "ms/op"
    PER_LAYER[f"{_layer}.share"] = "ratio"
PER_LAYER.update(COUNTS)
PER_LAYER.update({
    "trace.parse.new_bytes_ratio": "ratio",
    "bench.op.traced_ms": "ms/op",
    "bench.op.untraced_ms": "ms/op",
    "tracing.overhead_ratio": "ratio",
})
PER_LAYER.update({f"{layer}.peak_alloc_mb": "MB" for layer in ALLOC_LAYERS})


def _patch(targets, make_wrapper) -> tuple[list, list[str]]:
    """Replace each (module, attribute) with make_wrapper(fn, name, layer, counter).

    Returns the originals to restore and the names that were not found.
    """
    originals, absent = [], []
    for module_name, attr, layer, counter in targets:
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        name = f"{module_name.removeprefix('ioperiod.')}.{attr}"
        setattr(module, attr, make_wrapper(fn, name, layer, counter))
        originals.append((module, attr, fn))
    return originals, absent


def _restore(originals) -> None:
    for module, attr, fn in originals:
        setattr(module, attr, fn)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for an op's root
    op: int


class NullTracer:
    """Stand-in for the untraced runs: opens no spans."""

    def op(self):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Records a span per wrapped call, in memory, plus counts per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, float]] = []    # (op, metric, value)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals: list = []

    def install(self) -> None:
        self._originals, self.absent = _patch(WRAPS, self._wrap)

    def uninstall(self) -> None:
        _restore(self._originals)
        self._originals = []

    @contextlib.contextmanager
    def op(self):
        """Root span of one op; ops are numbered from 0 in the order run."""
        self._op += 1
        with self.span("bench.op"):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts.extend((self._op, k, v) for k, v in counter(args, result).items())
            return result
        return traced

    def self_ms(self) -> dict[str, float]:
        """Total self time per layer: span duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, covered):
            out[SPAN_LAYER[s.name]] += (s.end - s.start - c) * 1e3
        return out

    def op_ms(self) -> float:
        """Total duration of the ops' root spans."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0) * 1e3

    def count_totals(self, ops: set[int]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for op, metric, value in self.counts:
            if op in ops:
                out[metric] += value
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


class AllocPeaks:
    """Largest tracemalloc peak of a single call, per layer, in MB."""

    def __init__(self):
        self.peaks: dict[str, float] = {}
        self.absent: list[str] = []
        self._originals: list = []

    def install(self) -> None:
        targets = [w for w in WRAPS if w[2] in ALLOC_LAYERS]
        self._originals, self.absent = _patch(targets, self._wrap)

    def uninstall(self) -> None:
        _restore(self._originals)
        self._originals = []

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
                self.peaks[layer] = max(self.peaks.get(layer, 0.0), peak)
        return measured
