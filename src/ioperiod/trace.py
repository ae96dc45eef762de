"""Trace data model: per-rank timed I/O requests and the merged bandwidth signal.

A trace file is line-delimited JSON, one request per line with fields
``rank`` (int), ``start`` (finite number, seconds), ``end`` (finite number,
seconds, not before ``start``), ``bytes`` (int), ``kind`` ("read"|"write").
Integers are JSON integers within the int64 range, never booleans or
fractions.  An optional first line holding
``"meta": true`` carries free-form string metadata.  Appends are always whole
lines; readers tolerate a trailing partial line (online tailing) by ignoring
it.
"""
from __future__ import annotations

import io
import json
import os
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

KINDS = ("read", "write")
_KIND_CODE = {"read": 0, "write": 1}
_CODE_KIND = {0: "read", 1: "write"}


class TraceParseError(ValueError):
    """A non-trailing line of the trace file could not be parsed."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TraceValidationError(ValueError):
    """A request violates the data-model invariants (negative duration, ...)."""


@dataclass(frozen=True)
class IoRequest:
    """One timed byte transfer issued by a single rank."""

    rank: int
    start: float
    end: float
    bytes: int
    kind: str

    def __post_init__(self):
        if self.rank < 0:
            raise TraceValidationError(f"negative rank {self.rank}")
        if self.end < self.start:
            raise TraceValidationError(
                f"negative duration: end {self.end} < start {self.start}"
            )
        if self.bytes < 0:
            raise TraceValidationError(f"negative byte count {self.bytes}")
        if self.kind not in KINDS:
            raise TraceValidationError(f"unknown kind {self.kind!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Immutable, columnar collection of I/O requests plus string metadata."""

    __slots__ = ("rank", "start", "end", "nbytes", "kind_code", "metadata")

    def __init__(self, rank, start, end, nbytes, kind_code, metadata=None):
        rank = np.ascontiguousarray(rank, dtype=np.int64)
        start = np.ascontiguousarray(start, dtype=np.float64)
        end = np.ascontiguousarray(end, dtype=np.float64)
        nbytes = np.ascontiguousarray(nbytes, dtype=np.int64)
        kind_code = np.ascontiguousarray(kind_code, dtype=np.int8)
        n = rank.shape[0]
        if not (start.shape[0] == end.shape[0] == nbytes.shape[0] == kind_code.shape[0] == n):
            raise ValueError("column length mismatch")
        if np.any(rank < 0):
            raise TraceValidationError("negative rank")
        if np.any(end < start):
            raise TraceValidationError("negative duration request")
        if np.any(nbytes < 0):
            raise TraceValidationError("negative byte count")
        for arr in (rank, start, end, nbytes, kind_code):
            arr.setflags(write=False)
        self.rank = rank
        self.start = start
        self.end = end
        self.nbytes = nbytes
        self.kind_code = kind_code
        self.metadata = dict(metadata or {})

    @classmethod
    def from_requests(cls, requests: Iterable[IoRequest], metadata=None) -> "Trace":
        reqs = list(requests)
        return cls(
            [r.rank for r in reqs],
            [r.start for r in reqs],
            [r.end for r in reqs],
            [r.bytes for r in reqs],
            [_KIND_CODE[r.kind] for r in reqs],
            metadata=metadata,
        )

    def __len__(self) -> int:
        return self.rank.shape[0]

    def __iter__(self) -> Iterator[IoRequest]:
        for i in range(len(self)):
            yield IoRequest(
                int(self.rank[i]),
                float(self.start[i]),
                float(self.end[i]),
                int(self.nbytes[i]),
                _CODE_KIND[int(self.kind_code[i])],
            )

    @property
    def t_min(self) -> float:
        return float(self.start.min())

    @property
    def t_max(self) -> float:
        return float(self.end.max())

    @property
    def length(self) -> float:
        """Trace length L(T) = max(end) - min(start); 0 for empty traces."""
        if len(self) == 0:
            return 0.0
        return self.t_max - self.t_min

    @property
    def volume(self) -> int:
        """Total transferred bytes V(T), as an exact integer.

        The 32-bit halves of the byte counts are summed apart, so neither
        int64 sum can wrap (below 2^31 requests); the total itself may
        exceed the int64 range.
        """
        high = int((self.nbytes >> 32).sum())
        low = int((self.nbytes & 0xFFFFFFFF).sum())
        return (high << 32) + low


def _iter_complete_lines(source) -> Iterator[str]:
    """Yield whole lines of a path/stream, dropping an unterminated tail."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            data = f.read()
    elif isinstance(source, bytes):
        data = source
    elif isinstance(source, io.TextIOBase):
        data = source.read().encode()
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode()
    # appends are whole lines, so anything after the last newline is a
    # partial write from a concurrent producer
    last_nl = data.rfind(b"\n")
    if last_nl < 0:
        return
    for line in data[:last_nl].split(b"\n"):
        yield line.decode("utf-8", errors="replace")


#: JSON number types a time may have; bool is excluded by exact type tests
_TIME_TYPES = (float, int)
_FLOAT_MAX = sys.float_info.max
_INT64_MAX = np.iinfo(np.int64).max


def _record_error(rank, start, end, nbytes, kind, lineno: int) -> ValueError:
    """The error for a record whose fields failed ``parse_trace``'s test."""
    for name, value in (("rank", rank), ("bytes", nbytes)):
        if type(value) is not int:
            return TraceParseError(f"{name} must be an integer, got {value!r}", lineno)
    for name, value in (("start", start), ("end", end)):
        if type(value) not in _TIME_TYPES:
            return TraceParseError(f"{name} must be a number, got {value!r}", lineno)
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return TraceParseError(f"{name} must be finite, got {value!r}", lineno)
    if kind not in KINDS:
        return TraceParseError(f"unknown kind {kind!r}", lineno)
    if end < start:
        return TraceValidationError(f"line {lineno}: negative duration")
    if nbytes < 0:
        return TraceValidationError(f"line {lineno}: negative byte count")
    if rank < 0:
        return TraceValidationError(f"line {lineno}: negative rank")
    name, value = ("rank", rank) if rank > _INT64_MAX else ("bytes", nbytes)
    return TraceParseError(f"{name} {value} exceeds the 64-bit integer range", lineno)


def parse_trace(source, kind_filter: str = "both") -> Trace:
    """Parse a line-delimited trace from a path, stream, or bytes.

    Preserves append order, applies the read/write filter, and ignores a
    trailing partial line so it is safe to call on a file that is still
    being appended to.
    """
    if kind_filter not in KINDS + ("both",):
        raise ValueError(f"unknown kind filter {kind_filter!r}")
    rank, start, end, nbytes, kind_code = [], [], [], [], []
    metadata: dict = {}
    for lineno, line in enumerate(_iter_complete_lines(source), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"invalid JSON: {exc.msg}", lineno) from exc
        if not isinstance(rec, dict):
            raise TraceParseError("record is not an object", lineno)
        if rec.get("meta"):
            metadata.update({k: str(v) for k, v in rec.items() if k != "meta"})
            continue
        try:
            r = rec["rank"]
            s = rec["start"]
            e = rec["end"]
            b = rec["bytes"]
            kind = rec["kind"]
        except KeyError as exc:
            raise TraceParseError(f"missing field {exc}", lineno) from exc
        # one chained test keeps the per-line cost flat; _record_error then
        # says which field failed
        if not (type(r) is int and type(b) is int
                and type(s) in _TIME_TYPES and type(e) in _TIME_TYPES
                and 0 <= r <= _INT64_MAX and 0 <= b <= _INT64_MAX
                and -_FLOAT_MAX <= s <= e <= _FLOAT_MAX and kind in KINDS):
            raise _record_error(r, s, e, b, kind, lineno)
        if kind_filter != "both" and kind != kind_filter:
            continue
        rank.append(r)
        start.append(s)
        end.append(e)
        nbytes.append(b)
        kind_code.append(_KIND_CODE[kind])
    return Trace(rank, start, end, nbytes, kind_code, metadata=metadata)


def write_trace(trace: Trace, dest: IO[str] | str | os.PathLike) -> None:
    """Write a trace in the line-delimited file format (metadata line first)."""
    own = isinstance(dest, (str, os.PathLike))
    f = open(dest, "w") if own else dest
    try:
        if trace.metadata:
            f.write(json.dumps({"meta": True, **trace.metadata}) + "\n")
        for i in range(len(trace)):
            f.write(json.dumps({
                "rank": int(trace.rank[i]),
                "start": float(trace.start[i]),
                "end": float(trace.end[i]),
                "bytes": int(trace.nbytes[i]),
                "kind": _CODE_KIND[int(trace.kind_code[i])],
            }) + "\n")
    finally:
        if own:
            f.close()


class BandwidthSignal:
    """Piecewise-constant application-level bandwidth over time.

    ``values[i]`` holds on ``[times[i], times[i+1])``; the signal is zero
    outside ``[times[0], times[-1])``.
    """

    __slots__ = ("times", "values")

    def __init__(self, times, values):
        times = np.ascontiguousarray(times, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if times.shape[0] < 2 or values.shape[0] != times.shape[0] - 1:
            raise ValueError("need n breakpoint times and n-1 piece values")
        if np.any(np.diff(times) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("bandwidth must be non-negative")
        times.setflags(write=False)
        values.setflags(write=False)
        self.times = times
        self.values = values

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def value_at(self, t) -> np.ndarray:
        """Bandwidth at time(s) t; right-continuous at breakpoints, 0 outside."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.times, t, side="right") - 1
        valid = (idx >= 0) & (idx < self.values.shape[0])
        out = np.where(valid, self.values[np.clip(idx, 0, self.values.shape[0] - 1)], 0.0)
        return out

    def integral(self, t_lo: float | None = None, t_hi: float | None = None) -> float:
        """Exact integral of the signal over [t_lo, t_hi] (defaults: domain)."""
        lo = self.times[0] if t_lo is None else t_lo
        hi = self.times[-1] if t_hi is None else t_hi
        if hi <= lo:
            return 0.0
        left = np.maximum(self.times[:-1], lo)
        right = np.minimum(self.times[1:], hi)
        overlap = np.maximum(right - left, 0.0)
        return float(np.dot(overlap, self.values))

    @property
    def volume(self) -> float:
        return self.integral()


def request_rates(
    trace: Trace, *, unit_volume: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, end and uniform rate bytes/(end-start) of each request.

    Zero-duration requests with zero bytes are dropped; with nonzero bytes
    they have no defined rate and are rejected, as is a trace with no
    request of positive duration.

    With ``unit_volume=True`` byte counts are first divided by the exact
    integer total volume, so the rates integrate to 1.  Because the
    division (c*b)/(c*V) rounds identically for any integer scale c,
    downstream dimensionless results are bit-for-bit independent of a
    uniform byte-count rescaling.
    """
    if len(trace) == 0:
        raise TraceValidationError("cannot merge an empty trace")
    dur = trace.end - trace.start
    zero_dur = dur == 0.0
    if np.any(zero_dur & (trace.nbytes > 0)):
        raise TraceValidationError("zero-duration request with nonzero bytes")
    keep = ~zero_dur
    if not np.any(keep):
        raise TraceValidationError("no requests with positive duration")
    if unit_volume:
        total = trace.volume
        if total <= 0:
            raise TraceValidationError("cannot normalize a zero-volume trace")
        b = trace.nbytes[keep] / total
    else:
        b = trace.nbytes[keep].astype(np.float64)
    return trace.start[keep], trace.end[keep], b / dur[keep]


def merge_bandwidth(trace: Trace, *, unit_volume: bool = False) -> BandwidthSignal:
    """Merge per-rank requests into one application-level bandwidth signal.

    Each request contributes its uniform rate (see ``request_rates``, which
    also gives the meaning of ``unit_volume``) over its interval;
    overlapping contributions sum.  This is the exact breakpoint signal;
    the analysis samples its grid straight from the requests instead.
    """
    start, end, rates = request_rates(trace, unit_volume=unit_volume)
    times = np.concatenate([start, end])
    deltas = np.concatenate([rates, -rates])
    # sorting by (time, delta) fixes the accumulation order, making the
    # merge bitwise independent of the request order in the trace
    order = np.lexsort((deltas, times))
    times = times[order]
    deltas = deltas[order]
    uniq, first = np.unique(times, return_index=True)
    sums = np.add.reduceat(deltas, first)
    bw = np.cumsum(sums)[:-1]
    np.maximum(bw, 0.0, out=bw)  # clamp float residue of cancelling rates
    return BandwidthSignal(uniq, bw)
