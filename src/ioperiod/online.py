"""Online prediction: watch a growing trace file and re-run detection as
data arrives, shrinking the analysis window once a dominant frequency has
been found repeatedly.  ``watch`` and ``replay`` both feed a ``_Tail``,
which parses each appended whole line once and copies its rows onto the
end of growable columns.  Each analysis chooses its window first and reads
only the rows of the appends that can reach it, so once the window has
adapted an append costs O(its own lines + the window), not O(session).
Every append is logged at DEBUG on the ``ioperiod`` logger, and a truncated
or replaced file at WARNING (a ``UserWarning`` if ``logging`` is not loaded).
"""
from __future__ import annotations

import bisect
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .detection import DEFAULT_TOLERANCE, DEFAULT_Z_MIN
from .pipeline import AnalysisResult, analyze_trace, check_analysis_args
from .trace import KINDS, Trace, parse_trace

#: consecutive dominant findings required before the window is adapted
ADAPT_AFTER = 3
#: the adapted window keeps this many multiples of the last found period
WINDOW_PERIODS = 3
#: a window is never shorter than this many sampling bins
MIN_WINDOW_BINS = 3


def _log():
    """The ``ioperiod`` logger when it logs at DEBUG, else None.

    Only a program that has imported ``logging`` can have configured a
    logger, so the package does not import it: that would cost every user
    about 0.5 MB of resident memory and a few ms at import.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("ioperiod")
    return log if log.isEnabledFor(logging.DEBUG) else None


@dataclass(frozen=True)
class PredictionRecord:
    """One online analysis: what was looked at and what came out."""

    analysis: AnalysisResult
    dominant_streak: int

    @property
    def window(self) -> tuple[float, float]:
        return self.analysis.window

    @property
    def trigger_time(self) -> float:
        """The trace time of the analysis, the end of its window."""
        return self.analysis.window[1]

    @property
    def has_dominant(self) -> bool:
        return self.analysis.has_dominant

    @property
    def period(self) -> float | None:
        return self.analysis.period

    def to_dict(self) -> dict:
        out = self.analysis.to_dict()
        out["trigger_time"] = self.trigger_time
        out["dominant_streak"] = self.dominant_streak
        return out


def _window_and_reason(
    previous: PredictionRecord | None,
    now: float,
    fs: float,
    fixed_window: float | None,
) -> tuple[tuple[float, float], str]:
    """The window of an analysis at trace time ``now`` and why it was
    chosen: "full", "fixed", "adapted" or "min-bins guard"."""
    lo, reason = 0.0, "full"
    if fixed_window is not None:
        lo, reason = max(0.0, now - fixed_window), "fixed"
    elif previous is not None and previous.dominant_streak >= ADAPT_AFTER:
        lo, reason = max(0.0, now - WINDOW_PERIODS * previous.period), "adapted"
    # guard against a spuriously high frequency collapsing the window
    guard = max(0.0, now - MIN_WINDOW_BINS / fs)
    if guard < lo:
        lo, reason = guard, "min-bins guard"
    return (lo, now), reason


def on_new_data(
    previous: PredictionRecord | None,
    trace_snapshot: Trace,
    now: float,
    fs: float,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    fixed_window: float | None = None,
) -> PredictionRecord:
    """Analyze a consistent snapshot of the trace at trace time ``now``.

    ``previous`` is the last analysis completed when this one triggers, or
    None; once it ends a streak of three consecutive analyses with a
    dominant frequency (its ``dominant_streak``), the window shrinks to
    three times its period.
    """
    window = _window_and_reason(previous, now, fs, fixed_window)[0]
    analysis = analyze_trace(trace_snapshot, fs, window=window, tolerance=tolerance,
                             z_min=z_min)
    streak = previous.dominant_streak + 1 if previous is not None else 1
    return PredictionRecord(analysis, streak if analysis.has_dominant else 0)


#: the tail's columns, in ``Trace``'s argument order, and their dtypes
_COLUMNS = (("rank", np.int64), ("start", np.float64), ("end", np.float64),
            ("nbytes", np.int64), ("kind_code", np.int8))


class _Tail:
    """The byte offset and count of the whole lines of a growing trace
    consumed so far, and the rows one parse of them would give.

    The rows sit in growable columns whose capacity doubles, so an append
    copies only its own rows.  For each append that brought rows the tail
    keeps its first row and the running maximum of ``end`` up to it, and it
    keeps the exact integer volume V, ``t_max`` and the metadata as running
    values.  ``view(lo)`` leaves out the appends whose rows all end at or
    before ``lo``: such rows cover no sample of a window starting at ``lo``
    and neither lie inside it nor straddle it, so with V kept whole an
    analysis of the view is bit for bit one of every row.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.reset()

    def reset(self) -> None:
        self.offset = 0
        self.lines = 0
        self.rows = 0
        self.volume = 0
        self.metadata: dict = {}
        # fresh columns, so rows under an earlier view are never overwritten
        self._columns = [np.empty(0, dtype) for _, dtype in _COLUMNS]
        self._first_row: list[int] = []   # per append that brought rows
        self._max_end: list[float] = []   # nondecreasing, one per such append
        self.fed = (0, 0, 0.0)   # bytes, lines, seconds of the last logged feed

    @property
    def t_max(self) -> float:
        """The latest end time of any row; the tail must hold rows."""
        return self._max_end[-1]

    def feed(self, data: bytes) -> bool:
        """Consume the whole lines of ``data``, the bytes past ``offset``;
        return whether there were any.  Errors count lines from the start."""
        start = time.perf_counter() if _log() else None
        end = data.rfind(b"\n") + 1
        lines = data.count(b"\n", 0, end)
        if end:
            new = parse_trace(data[:end], kind_filter=self.kind, first_line=self.lines + 1)
            if len(new):
                self._append(new)
            self.metadata.update(new.metadata)
            self.offset += end
            self.lines += lines
        if start is not None:
            self.fed = (len(data), lines, time.perf_counter() - start)
        return end > 0

    def _append(self, new: Trace) -> None:
        rows = self.rows + len(new)
        if rows > self._columns[0].shape[0]:
            capacity = max(rows, 2 * self._columns[0].shape[0])
            grown = [np.empty(capacity, dtype) for _, dtype in _COLUMNS]
            for old, col in zip(self._columns, grown):
                col[:self.rows] = old[:self.rows]
            self._columns = grown
        for (name, _), col in zip(_COLUMNS, self._columns):
            col[self.rows:rows] = getattr(new, name)
        self._first_row.append(self.rows)
        self._max_end.append(max(new.t_max, self._max_end[-1]) if self._max_end
                             else new.t_max)
        self.volume += new.volume
        self.rows = rows

    def view(self, lo: float) -> Trace:
        """The rows from the first append whose running maximum ``end`` is
        past ``lo``, or the last append's when none is, without a copy, as
        a Trace carrying the whole tail's volume.  The newest append is
        always in the view, so the sampler's checks, such as its rejection
        of a zero-duration request with bytes, see every row at the append
        that brings it."""
        i = min(bisect.bisect_right(self._max_end, lo), len(self._max_end) - 1)
        first = self._first_row[i] if i >= 0 else 0
        view = Trace(*(col[first:self.rows] for col in self._columns),
                     metadata=self.metadata)
        view._volume = self.volume   # the whole tail's, not the view's own
        return view


def _predict(
    previous: PredictionRecord | None,
    tail: _Tail,
    now: float,
    fs: float,
    tolerance: float,
    z_min: float,
    fixed_window: float | None,
) -> PredictionRecord:
    """``on_new_data`` at trace time ``now`` over the rows of ``tail`` that
    can reach the window it will choose; logs the append at DEBUG."""
    window, reason = _window_and_reason(previous, now, fs, fixed_window)
    view = tail.view(window[0])
    log = _log()
    start = time.perf_counter() if log else None
    record = on_new_data(previous, view, now, fs, tolerance=tolerance, z_min=z_min,
                         fixed_window=fixed_window)
    if log is None:
        return record
    analysis_s = time.perf_counter() - start
    if reason == "adapted":
        reason = (f"adapted after a streak of {previous.dominant_streak} "
                  f"with period {previous.period:.6g} s")
    elif reason == "fixed":
        reason = f"fixed at {fixed_window:g} s"
    read, lines, parse_s = tail.fed
    log.debug("append: read %d bytes, %d lines; %d rows kept, %d analysed; "
              "window (%.6g, %.6g) %s; parse %.3f ms, analysis %.3f ms",
              read, lines, tail.rows, len(view), *window, reason,
              parse_s * 1e3, analysis_s * 1e3)
    return record


def _check_args(fs, tolerance, z_min, kind, fixed_window, poll_interval=1.0,
                idle_timeout=None):
    """Raise ValueError on an argument no analysis or poll could use."""
    check_analysis_args(fs, tolerance, z_min)
    if kind not in KINDS + ("both",):
        raise ValueError(f"unknown kind filter {kind!r}")
    if fixed_window is not None and not fixed_window > 0:
        raise ValueError(f"fixed window must be positive, got {fixed_window}")
    if not 0 < poll_interval < math.inf:
        # idle time is counted in poll intervals, so 0 would never time out
        raise ValueError(f"poll interval must be positive and finite, got {poll_interval}")
    if idle_timeout is not None and not idle_timeout >= 0:
        raise ValueError(f"idle timeout must be non-negative, got {idle_timeout}")


def replay(
    snapshots: Iterable[tuple[str, float]],
    fs: float,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    kind: str = "both",
    fixed_window: float | None = None,
) -> list[PredictionRecord]:
    """Replay a scripted append schedule of (trace text so far, trigger time).

    A snapshot that extends the text consumed so far is parsed from where
    the last one stopped; any other snapshot is parsed from the start.
    Deterministic: identical schedules produce identical records.
    """
    _check_args(fs, tolerance, z_min, kind, fixed_window)
    tail = _Tail(kind)
    consumed = b""
    records: list[PredictionRecord] = []
    for text, now in snapshots:
        data = text.encode()
        if not data.startswith(consumed):
            tail.reset()
        tail.feed(data[tail.offset:])
        consumed = data[:tail.offset]
        records.append(_predict(records[-1] if records else None, tail, now, fs,
                                tolerance, z_min, fixed_window))
    return records


def watch(
    path: str | os.PathLike,
    fs: float,
    poll_interval: float = 1.0,
    idle_timeout: float | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    kind: str = "both",
    fixed_window: float | None = None,
    _sleep=time.sleep,
) -> Iterator[PredictionRecord]:
    """Tail a trace file and yield a PredictionRecord per detected append.

    Only whole lines are consumed, so a writer flushing mid-line is safe,
    and each is parsed once.  A file that shrinks below what was consumed
    (truncation) or is replaced by another file (rotation, seen by its
    inode) resets the analysis state with a warning: a WARNING record on
    the ``ioperiod`` logger once the program has imported ``logging``,
    else a ``UserWarning``.  With an
    ``idle_timeout`` the generator returns after that many seconds without
    growth; otherwise it polls forever.  Bad arguments raise ValueError
    before the first poll.
    """
    _check_args(fs, tolerance, z_min, kind, fixed_window, poll_interval, idle_timeout)
    tail = _Tail(kind)
    last = None           # the latest record: all the next one reads
    file_id = None        # (device, inode) of the file last read
    idle = 0.0
    while True:
        data = b""        # bytes past the tail's offset; None: truncated or replaced
        try:
            with open(path, "rb") as f:
                st = os.fstat(f.fileno())
                if tail.offset and (st.st_size < tail.offset
                                    or (st.st_dev, st.st_ino) != file_id):
                    data = None
                elif st.st_size > tail.offset:
                    f.seek(tail.offset)
                    data = f.read(st.st_size - tail.offset)
                file_id = (st.st_dev, st.st_ino)
        except FileNotFoundError:
            if tail.offset:
                data = None
        if data is None:
            message = f"{os.fspath(path)} was truncated or replaced; restarting analysis state"
            if (logging := sys.modules.get("logging")) is None:
                warnings.warn(message)
            else:
                logging.getLogger("ioperiod").warning(message)
            last = None
            tail.reset()
            continue
        if tail.feed(data):
            if tail.rows:
                last = _predict(last, tail, tail.t_max, fs, tolerance, z_min,
                                fixed_window)
                yield last
            idle = 0.0
            continue
        idle += poll_interval
        if idle_timeout is not None and idle >= idle_timeout:
            return
        _sleep(poll_interval)
