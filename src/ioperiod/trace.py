"""Trace data model: per-rank timed I/O requests.

A trace file is line-delimited JSON, one request per line with fields
``rank`` (int), ``start`` (finite number, seconds), ``end`` (finite number,
seconds, not before ``start``), ``bytes`` (int, 0 when ``end`` equals
``start``), ``kind`` ("read"|"write").
Integers are JSON integers within the int64 range, never booleans or
fractions.  An optional first line holding
``"meta": true`` carries free-form string metadata.  Appends are always whole
lines; readers tolerate a trailing partial line (online tailing) by ignoring
it.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
from typing import IO, Iterator

import numpy as np

KINDS = ("read", "write")
_KIND_CODE = {"read": 0, "write": 1}
_INT64_MAX = np.iinfo(np.int64).max


class TraceParseError(ValueError):
    """A non-trailing line of the trace file could not be parsed."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TraceValidationError(ValueError):
    """A request violates the data-model invariants (negative duration, ...)."""


def _integer_column(values, what: str, dtype=None) -> np.ndarray:
    """``values`` as an array of an integral dtype, checked before any cast
    (which would cut 5.7 to 5, or wrap a kind code of 256 to 0 as int8)."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "biu":
        raise TraceValidationError(f"{what} must be integers, not {arr.dtype}")
    return arr if dtype is None else np.ascontiguousarray(arr, dtype=dtype)


def exact_sum(values: np.ndarray) -> int:
    """The exact sum of non-negative int64 values: one int64 sum when it
    cannot wrap, else the sums of their 32-bit halves (exact below 2^31)."""
    if values.shape[0] == 0 or int(values.max()) <= _INT64_MAX // values.shape[0]:
        return int(values.sum())
    high = int((values >> 32).sum())
    low = int((values & 0xFFFFFFFF).sum())
    return (high << 32) + low


class Trace:
    """Immutable, columnar collection of I/O requests plus string metadata.

    Request i is one timed byte transfer: ``rank[i]`` moved ``nbytes[i]``
    bytes over ``[start[i], end[i]]``, finite times with ``start[i] <=
    end[i]``, and no bytes when they are equal, as a rate needs a
    duration; ``kind_code[i]`` is 0 for a read and 1 for a write.
    """

    __slots__ = ("rank", "start", "end", "nbytes", "kind_code", "metadata", "_volume",
                 "_t_min", "_t_max")

    def __init__(self, rank, start, end, nbytes, kind_code, metadata=None):
        rank = _integer_column(rank, "ranks", np.int64)
        start = np.ascontiguousarray(start, dtype=np.float64)
        end = np.ascontiguousarray(end, dtype=np.float64)
        nbytes = _integer_column(nbytes, "byte counts", np.int64)
        kind_code = _integer_column(kind_code, "kind codes")
        if kind_code.size and (kind_code.min() < 0 or kind_code.max() > 1):
            bad = kind_code[(kind_code < 0) | (kind_code > 1)][0]
            raise TraceValidationError(f"unknown kind code {bad}; expected 0 (read) or 1 (write)")
        kind_code = np.ascontiguousarray(kind_code, dtype=np.int8)
        n = rank.shape[0]
        if not (start.shape[0] == end.shape[0] == nbytes.shape[0] == kind_code.shape[0] == n):
            raise ValueError("column length mismatch")
        if np.any(rank < 0):
            raise TraceValidationError("negative rank")
        # one pass: NaN fails the comparison too
        if not np.all(start <= end):
            for name, col in (("start", start), ("end", end)):
                if np.isnan(col).any():
                    raise TraceValidationError(f"{name} time is NaN")
            raise TraceValidationError("negative duration request")
        if n:
            # with start <= end, the earliest start and the latest end bound
            # every time
            self._t_min = float(start.min())
            self._t_max = float(end.max())
            if self._t_min == -np.inf:
                raise TraceValidationError("start time is -inf")
            if self._t_max == np.inf:
                raise TraceValidationError("end time is inf")
        if np.any(nbytes < 0):
            raise TraceValidationError("negative byte count")
        zero = start == end
        if zero.any() and nbytes[zero].any():
            raise TraceValidationError("zero-duration request with nonzero bytes")
        for arr in (rank, start, end, nbytes, kind_code):
            arr.setflags(write=False)
        self.rank = rank
        self.start = start
        self.end = end
        self.nbytes = nbytes
        self.kind_code = kind_code
        self.metadata = dict(metadata or {})
        self._volume = None

    def __len__(self) -> int:
        return self.rank.shape[0]

    @property
    def t_min(self) -> float:
        """The earliest start, kept from the checks; an empty trace has
        none, so reading it raises AttributeError."""
        return self._t_min

    @property
    def t_max(self) -> float:
        """The latest end, kept from the checks; absent as ``t_min`` is."""
        return self._t_max

    @property
    def length(self) -> float:
        """Trace length L(T) = max(end) - min(start); 0 for empty traces."""
        if len(self) == 0:
            return 0.0
        return self.t_max - self.t_min

    @property
    def volume(self) -> int:
        """Total transferred bytes V(T), as an exact integer (``exact_sum``);
        it may exceed the int64 range.  Computed on first read, then kept:
        the columns cannot change.
        """
        if self._volume is None:
            self._volume = exact_sum(self.nbytes)
        return self._volume


#: bytes of whole lines decoded at once; the strings of one block are all
#: that is held besides the file's bytes
_BLOCK_BYTES = 1 << 16


def _iter_complete_lines(source) -> Iterator[str]:
    """Yield whole lines of a path/stream, dropping an unterminated tail."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            data = f.read()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode()
    # appends are whole lines, so anything after the last newline is a
    # partial write from a concurrent producer
    end = data.rfind(b"\n") + 1
    lo = 0
    while lo < end:
        # a block of whole lines of about _BLOCK_BYTES; a newline byte is
        # never part of a UTF-8 sequence, so one decode of the block gives
        # the strings a decode of each line would
        hi = data.find(b"\n", min(lo + _BLOCK_BYTES, end) - 1) + 1
        yield from data[lo:hi - 1].decode("utf-8", errors="replace").split("\n")
        lo = hi


#: JSON number types a time may have; bool is excluded by exact type tests
_TIME_TYPES = (float, int)
_FLOAT_MAX = sys.float_info.max
#: the C scanner behind ``json.loads``, which reads a value at an index
_scan_once = json.JSONDecoder().scan_once
#: what ``json.loads`` accepts after a value
_JSON_SPACE = " \t\r\n"


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
    if end == start and nbytes:
        return TraceValidationError(f"line {lineno}: zero-duration request with nonzero bytes")
    name, value = ("rank", rank) if rank > _INT64_MAX else ("bytes", nbytes)
    return TraceParseError(f"{name} {value} exceeds the 64-bit integer range", lineno)


def parse_trace(source, kind_filter: str = "both", first_line: int = 1) -> Trace:
    """Parse a line-delimited trace from a path, stream, or bytes.

    Preserves append order, applies the read/write filter, and ignores a
    trailing partial line so it is safe to call on a file that is still
    being appended to.  Errors number the lines from ``first_line``, so
    a caller parsing a file's tail can count them from the file's start.
    """
    if kind_filter not in KINDS + ("both",):
        raise ValueError(f"unknown kind filter {kind_filter!r}")
    rank, start, end, nbytes, kind_code = [], [], [], [], []
    metadata: dict = {}
    for lineno, line in enumerate(_iter_complete_lines(source), start=first_line):
        # the scanner takes a record with none of json.loads' Python
        # layers; a line it does not read whole (blank, leading space, BOM,
        # bad JSON) goes to json.loads, whose result or error is the same
        try:
            rec, stop = _scan_once(line, 0)
            whole = stop == len(line) or not line[stop:].strip(_JSON_SPACE)
        except (StopIteration, ValueError, RecursionError):
            whole = False
        if not whole:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"invalid JSON: {exc.msg}", lineno) from exc
            except ValueError as exc:  # an integer past int()'s digit limit
                raise TraceParseError(f"invalid JSON: {exc}", lineno) from exc
            except RecursionError as exc:
                raise TraceParseError("invalid JSON: nested too deeply", lineno) from exc
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
                and -_FLOAT_MAX <= s <= e <= _FLOAT_MAX and kind in KINDS
                and (s < e or not b)):
            raise _record_error(r, s, e, b, kind, lineno)
        if kind_filter != "both" and kind != kind_filter:
            continue
        rank.append(r)
        start.append(s)
        end.append(e)
        nbytes.append(b)
        kind_code.append(_KIND_CODE[kind])
    return Trace(rank, start, end, nbytes, kind_code, metadata=metadata)


@contextlib.contextmanager
def open_output(dest: IO[str] | str | os.PathLike) -> Iterator[IO[str]]:
    """A path opened for writing, closed on exit, or a given stream as it
    is, left open.  Files get no newline translation, as ``csv`` needs."""
    if not isinstance(dest, (str, os.PathLike)):
        yield dest
        return
    with open(dest, "w", newline="") as f:
        yield f


#: rows formatted and written at once; one block's text is all that is
#: held besides the trace
_BLOCK_ROWS = 1 << 14
#: one request line, spelled as ``json.dumps`` spells the record: it
#: writes a finite float as its repr, and a Trace holds only finite times
_LINE = '{"rank": %d, "start": %r, "end": %r, "bytes": %d, "kind": "%s"}\n'


def write_trace(trace: Trace, dest: IO[str] | str | os.PathLike) -> None:
    """Write a trace in the line-delimited file format (metadata line
    first), one ``write`` per block of ``_BLOCK_ROWS`` request lines."""
    with open_output(dest) as f:
        if trace.metadata:
            f.write(json.dumps({"meta": True, **trace.metadata}) + "\n")
        for lo in range(0, len(trace), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            kinds = map(KINDS.__getitem__, trace.kind_code[block].tolist())
            f.write("".join([_LINE % row for row in zip(
                trace.rank[block].tolist(), trace.start[block].tolist(),
                trace.end[block].tolist(), trace.nbytes[block].tolist(), kinds)]))
