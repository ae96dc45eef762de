"""Trace data model: per-rank timed I/O requests.

A trace file is line-delimited JSON, one request per line with fields
``rank`` (int), ``start`` (finite number, seconds), ``end`` (finite number,
seconds, not before ``start``), ``bytes`` (int, 0 when ``end`` equals
``start`` as float64 values), ``kind`` ("read"|"write").
Integers are JSON integers within the int64 range, never booleans or
fractions.  An optional first line holding
``"meta": true`` carries free-form string metadata.  Appends are always whole
lines; readers tolerate a trailing partial line (online tailing) by ignoring
it.

A block of lines is read on two paths with one outcome.  Every run of
``_RUN_LINES`` or more lines that hold a request in the order of keys of
``write_trace``'s own template ``_LINE``, with one optional space after
each ``:`` and ``,``, as ``json.dumps`` writes with its default or compact
separators, is proved by one regex built from that template and read in
bulk: one split gives the values, ``float``, the cast ``json`` makes,
converts the times, and numpy's C parser the integers, which the regex
keeps within int64.  Every other line, and a run with a line that breaks a
rule, goes through ``json`` one line at a time, which names the line of an
error.
"""
from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import re
import sys
from typing import IO, Iterator

import numpy as np

KINDS = ("read", "write")
_KIND_CODE = {"read": 0, "write": 1}
#: what a kind filter may keep: one kind, or both
KIND_FILTERS = KINDS + ("both",)
_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


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
        if n:
            if rank.min() < 0:
                raise TraceValidationError("negative rank")
            # one pass settles a trace of positive durations; NaN fails it too
            positive = np.less(start, end).all()
            if not positive and not np.all(start <= end):
                for name, col in (("start", start), ("end", end)):
                    if np.isnan(col).any():
                        raise TraceValidationError(f"{name} time is NaN")
                raise TraceValidationError("negative duration request")
            # with start <= end, the earliest start and the latest end bound
            # every time
            self._t_min = float(start.min())
            self._t_max = float(end.max())
            if self._t_min == -np.inf:
                raise TraceValidationError("start time is -inf")
            if self._t_max == np.inf:
                raise TraceValidationError("end time is inf")
            if nbytes.min() < 0:
                raise TraceValidationError("negative byte count")
            if not positive:
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


#: JSON number types a time may have; bool is excluded by exact type tests
_TIME_TYPES = (float, int)
_FLOAT_MAX = sys.float_info.max
#: the C scanner behind ``json.loads``, which reads a value at an index
_scan_once = json.JSONDecoder().scan_once
#: what ``json.loads`` accepts after a value
_JSON_SPACE = " \t\r\n"


def _record_error(rank, start, end, nbytes, kind, lineno: int) -> ValueError:
    """The error for a record whose fields failed ``_Rows._feed_lines``' test:
    a JSON value of the wrong type or range, or else the request rule of
    ``Trace`` that the one-row trace breaks, in ``Trace``'s words."""
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
    for name, value in (("rank", rank), ("bytes", nbytes)):
        if not _INT64_MIN <= value <= _INT64_MAX:
            return TraceParseError(f"{name} {value} exceeds the 64-bit integer range", lineno)
    try:
        Trace([rank], [start], [end], [nbytes], [_KIND_CODE[kind]])
    except TraceValidationError as exc:
        return TraceValidationError(f"line {lineno}: {exc}")
    # integer times with end < start, rounded to one float, and no bytes
    return TraceValidationError(f"line {lineno}: negative duration request")


#: one request line, spelled as ``json.dumps`` spells the record: it
#: writes a finite float as its repr, and a Trace holds only finite times
_LINE = '{"rank": %d, "start": %r, "end": %r, "bytes": %d, "kind": "%s"}\n'
#: what each part of ``_LINE`` matches in a file: an unsigned integer of 18
#: digits at most, so within int64; a time that ``float`` reads as ``json``
#: reads it, that is a number with a fraction or an exponent, or an integer
#: of 15 digits at most, which float64 holds exactly, other than -0, which
#: ``json`` reads as the integer 0; a kind; and a line end, CRLF too
_SPELLING = {"%d": rb"(?:0|[1-9][0-9]{0,17}+)",
             "%r": rb"(?:-?(?:0|[1-9][0-9]*+)(?:\.[0-9]++(?:[eE][-+]?[0-9]++)?|[eE][-+]?[0-9]++)"
                   rb"|-?[1-9][0-9]{0,14}+|0)",
             '"%s"': b'"(?:%s)"' % "|".join(KINDS).encode(), "\n": rb"\r?\n"}
#: the fewest lines ``_Rows.feed`` reads in bulk.  A run's numpy calls, and
#: the line loop's call for the lines around it, cost about 25 us, and bulk
#: saves about 0.8 us a line, regex included.  With another writer's line
#: after every k lines of a file, 32, 40 or 48 parsed k = 63 faster than 64
#: does, but none was faster at every k of 40, 63, 64 and 96
_RUN_LINES = 64


def _run_regex(template: str) -> re.Pattern:
    """A regex for a run of whole lines, each holding the tokens of the
    ``%`` template ``template`` in its order, with one optional space after
    each ``:`` and ``,`` and none anywhere else: the spellings of
    ``json.dumps``, with its default or compact separators, and so of
    ``write_trace``.  It begins with the template's first character, so a
    search skips at C speed to where that stands, and a lookbehind puts it
    at a line start.  Each quantifier is possessive, so a line that fails
    is tried once.  Allowing any spaces and tabs between every two tokens,
    where no JSON writer's defaults put them, cost about 0.15 us a line
    more (Python 3.11, Xeon VM), a fifth of what bulk reading saves."""
    tokens = re.findall(r'"%s"|%[drs]|"[^"]*"|[^ ]', template)
    head, *rest = (_SPELLING.get(tok) or re.escape(tok.encode()) + rb" ?+" * (tok in (":", ","))
                   for tok in tokens)
    rest = b"".join(rest)
    return re.compile(rb"(?m)%s(?<=^%s)%s(?:%s%s)*+" % (head, head, rest, head, rest))


#: a run of whole lines holding a request in ``write_trace``'s order of keys
_RUN = _run_regex(_LINE)
#: the separators ``_Rows._feed_run`` splits a run's tokens at
_SEPARATORS = bytes.maketrans(b'{}":,', b"     ")
#: bytes read at once, then up to the end of the line they stop in; one
#: block's strings are all that is held besides the columns
_BLOCK_BYTES = 1 << 16
#: the columns' dtypes, in ``Trace``'s argument order
_DTYPES = (np.int64, np.float64, np.float64, np.int64, np.int8)


class _Rows:
    """The rows of the whole lines of a trace file parsed so far: growable
    columns whose capacity doubles, so a block copies only its own rows,
    the counts of rows and lines, the exact integer volume, the metadata,
    the bytes ``read`` consumed (``offset``) and the last whole line they
    end with, and, for each ``read`` that brought rows, its first row and
    the running maximum of ``end`` up to it."""

    def __init__(self, kind_filter: str):
        if kind_filter not in KIND_FILTERS:
            raise ValueError(f"unknown kind filter {kind_filter!r}")
        self.kind_filter = kind_filter
        self.rows = 0
        self.lines = 0
        self.volume = 0
        self.metadata: dict = {}
        self.offset = 0
        self.last_line = b""
        self.first_row: list[int] = []
        self.max_end: list[float] = []   # nondecreasing
        self._columns = [np.empty(0, dtype) for dtype in _DTYPES]

    def read(self, stream) -> int:
        """Parse the whole lines of a binary or text stream a block at a
        time, up to its end or a partial line; return the bytes they take."""
        consumed, rows = 0, self.rows
        while True:
            block = stream.read(_BLOCK_BYTES) + stream.readline()
            if isinstance(block, str):
                block = block.encode()
            if b"\n" in block:
                consumed += (cut := self.feed(block))
                self.last_line = block[block.rfind(b"\n", 0, cut - 1) + 1:cut]
            # appends are whole lines, so anything after the last newline
            # is a partial write from a concurrent producer
            if not block.endswith(b"\n"):
                break
        self.offset += consumed
        if self.rows > rows:
            t_max = float(self._columns[2][rows:self.rows].max())
            self.first_row.append(rows)
            self.max_end.append(max(t_max, self.max_end[-1]) if self.max_end else t_max)
        return consumed

    def feed(self, data: bytes) -> int:
        """Parse the whole lines of ``data``, at least one; return the bytes they take.

        Each run of ``_RUN_LINES`` or more lines holding a request as
        ``write_trace`` writes it, or with compact separators, is read in bulk;
        the lines between such runs, and a run with a line that breaks a
        request rule, are read one at a time.  Only ``data`` decides, so
        every feed of ``_RUN_LINES`` or more lines looks for runs.
        """
        cut = data.rfind(b"\n") + 1
        lines = data.count(b"\n", 0, cut)
        pos = 0
        if lines >= _RUN_LINES:
            for run in _RUN.finditer(data, 0, cut):
                first, last = run.span()
                if (first, last) != (0, cut) and data.count(b"\n", first, last) < _RUN_LINES:
                    continue
                if first > pos:
                    self._feed_lines(data[pos:first])
                # the line loop raises the error of the run's first bad line
                if not self._feed_run(data[first:last]):
                    self._feed_lines(data[first:last])
                pos = last
        if cut > pos:
            self._feed_lines(data[pos:cut])
        return cut

    def _feed_run(self, data: bytes) -> bool:
        """Add the rows of lines that ``_RUN`` matched, unless one breaks a
        request rule; return whether it added them.  The regex leaves
        nothing to check but the times' order and range: ``float`` reads
        each time as ``json`` does, and numpy's C parse reads the integers,
        which the regex bounds."""
        # the keys and values of a line, ten tokens
        tokens = data.translate(_SEPARATORS).split()
        start = np.array(list(map(float, tokens[3::10])))
        end = np.array(list(map(float, tokens[5::10])))
        # exact only because _SPELLING["%d"] admits unsigned integers of 18
        # digits at most, within int64: past it, fromstring clamps silently
        nbytes = np.fromstring(b" ".join(tokens[7::10]), np.int64, sep=" ")
        if not (np.all((start < end) | ((start == end) & (nbytes == 0)))
                and np.isfinite(start).all() and np.isfinite(end).all()):
            return False
        rank = np.fromstring(b" ".join(tokens[1::10]), np.int64, sep=" ")
        # "read" is 0 and "write" 1, as their lengths less 4 are
        kind_code = np.array(list(map(len, tokens[9::10])), np.int8) - 4
        self.lines += kind_code.shape[0]
        columns = rank, start, end, nbytes, kind_code
        if self.kind_filter != "both":
            keep = kind_code == _KIND_CODE[self.kind_filter]
            columns = [col[keep] for col in columns]
        self.volume += exact_sum(columns[3])
        self._append(*columns)
        return True

    def _feed_lines(self, data: bytes) -> None:
        """Parse whole lines, ``data`` ending with a newline, one at a time."""
        kind_filter, metadata = self.kind_filter, self.metadata
        rank, start, end, nbytes, kind_code = [], [], [], [], []
        # a newline byte is never part of a UTF-8 sequence, so one decode of
        # the lines gives the strings a decode of each line would
        lines = data[:-1].decode("utf-8", errors="replace").split("\n")
        for lineno, line in enumerate(lines, start=self.lines + 1):
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
            # says which field failed.  Integer times, which may round onto each
            # other, are also compared as the float64 values Trace stores
            if not (type(r) is int and type(b) is int
                    and type(s) in _TIME_TYPES and type(e) in _TIME_TYPES
                    and 0 <= r <= _INT64_MAX and 0 <= b <= _INT64_MAX
                    and -_FLOAT_MAX <= s <= e <= _FLOAT_MAX and kind in KINDS
                    and (s < e and (type(s) is float is type(e) or float(s) != float(e))
                         or not b)):
                raise _record_error(r, s, e, b, kind, lineno)
            if kind_filter != "both" and kind != kind_filter:
                continue
            rank.append(r)
            start.append(s)
            end.append(e)
            nbytes.append(b)
            kind_code.append(_KIND_CODE[kind])
        self.lines = lineno
        self.volume += sum(nbytes)   # exact: Python integers
        self._append(rank, start, end, nbytes, kind_code)

    def _append(self, *values: list) -> None:
        """Copy rows, a list or array per column, onto the columns' end."""
        rows = self.rows + len(values[0])
        if rows > self._columns[0].shape[0]:
            capacity = max(rows, 2 * self._columns[0].shape[0])
            grown = [np.empty(capacity, dtype) for dtype in _DTYPES]
            for old, col in zip(self._columns, grown):
                col[:self.rows] = old[:self.rows]
            self._columns = grown
        for col, new in zip(self._columns, values):
            col[self.rows:rows] = new
        self.rows = rows

    def trace(self, lo: float = -math.inf) -> Trace:
        """Without a copy, the rows from the first ``read`` whose running
        maximum ``end`` is past ``lo`` (the last read's if none is; every
        row if that is the first read or no read brought rows), as a Trace
        carrying the volume V of every row.  The rows left out end by
        ``lo``, so they cover no sample of a window from ``lo`` and neither
        lie in it nor straddle it: with V kept, an analysis of the view is
        bit for bit one of every row."""
        i = min(bisect.bisect_right(self.max_end, lo), len(self.max_end) - 1)
        first = self.first_row[i] if i > 0 else 0
        trace = Trace(*(col[first:self.rows] for col in self._columns),
                      metadata=self.metadata)
        trace._volume = self.volume
        return trace


def parse_trace(source, kind_filter: str = "both") -> Trace:
    """Parse a line-delimited trace from a path, stream, or bytes.

    Preserves append order, applies the read/write filter, and ignores a
    trailing partial line so it is safe to call on a file that is still
    being appended to.
    """
    rows = _Rows(kind_filter)
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            rows.read(f)
    else:
        rows.read(io.BytesIO(source) if isinstance(source, bytes) else source)
    return rows.trace()


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
