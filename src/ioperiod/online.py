"""Online prediction: watch a growing trace file and re-run detection as
data arrives, shrinking the analysis window once a dominant frequency has
been found repeatedly.  ``watch`` and ``replay`` both drive a ``_Tail``,
which holds a session's rows, its last record and its analysis arguments,
parses each appended whole line once and copies its rows onto the end of
growable columns.  Each append chooses its window once and analyses only
the rows of the appends that can reach it, so once the window has adapted
an append costs O(its own lines + the window), not O(session).  Every
restart forgets the rows and the last record alike (``_Tail.reset``).  Each
analysis is logged at DEBUG on the ``ioperiod`` logger, and a truncated or
replaced file at WARNING (a ``UserWarning`` if ``logging`` is not loaded).
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


def _logger():
    """The ``ioperiod`` logger, or None if the program has not imported
    ``logging`` and so cannot have configured it.  The package does not
    import it: that would cost every user about 0.5 MB of resident memory
    and a few ms at import."""
    logging = sys.modules.get("logging")
    return None if logging is None else logging.getLogger("ioperiod")


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
    """The window of an analysis at trace time ``now`` and why, as logged:
    "full", "fixed at W s", "adapted after a streak of N with period P s"
    (``WINDOW_PERIODS`` periods, once ``previous``, the last record, ends a
    streak of ``ADAPT_AFTER`` dominant findings) or "min-bins guard"."""
    lo, reason = 0.0, "full"
    if fixed_window is not None:
        lo, reason = max(0.0, now - fixed_window), f"fixed at {fixed_window:g} s"
    elif previous is not None and previous.dominant_streak >= ADAPT_AFTER:
        lo = max(0.0, now - WINDOW_PERIODS * previous.period)
        reason = (f"adapted after a streak of {previous.dominant_streak} "
                  f"with period {previous.period:.6g} s")
    # guard against a spuriously high frequency collapsing the window
    guard = max(0.0, now - MIN_WINDOW_BINS / fs)
    if guard < lo:
        lo, reason = guard, "min-bins guard"
    return (lo, now), reason


#: the tail's columns, in ``Trace``'s argument order, and their dtypes
_COLUMNS = (("rank", np.int64), ("start", np.float64), ("end", np.float64),
            ("nbytes", np.int64), ("kind_code", np.int8))


class _Tail:
    """An online session: the byte offset and count of the whole lines of a
    growing trace consumed so far, the rows one parse of them would give,
    the last record and the arguments of every analysis.

    The rows sit in growable columns whose capacity doubles, so an append
    copies only its own rows.  For each append that brought rows the tail
    keeps its first row and the running maximum of ``end`` up to it, and it
    keeps the exact integer volume V, ``t_max`` and the metadata as running
    values.  ``view(lo)`` leaves out the appends whose rows all end at or
    before ``lo``: such rows cover no sample of a window starting at ``lo``
    and neither lie inside it nor straddle it, so with V kept whole an
    analysis of the view is bit for bit one of every row.
    """

    def __init__(self, fs: float, tolerance: float, z_min: float, kind: str,
                 fixed_window: float | None):
        check_analysis_args(fs, tolerance, z_min)
        if kind not in KINDS + ("both",):
            raise ValueError(f"unknown kind filter {kind!r}")
        if fixed_window is not None and not fixed_window > 0:
            raise ValueError(f"fixed window must be positive, got {fixed_window}")
        self.fs, self.tolerance, self.z_min = fs, tolerance, z_min
        self.kind, self.fixed_window = kind, fixed_window
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
        self.fed = (0, 0, 0.0)   # bytes, lines, seconds of the last feed
        self.last: PredictionRecord | None = None   # all the next analysis reads

    @property
    def t_max(self) -> float:
        """The latest end time of any row; the tail must hold rows."""
        return self._max_end[-1]

    def feed(self, data: bytes) -> bool:
        """Consume the whole lines of ``data``, the bytes past ``offset``;
        return whether there were any.  Errors count lines from the start."""
        start = time.perf_counter()
        end = data.rfind(b"\n") + 1
        lines = data.count(b"\n", 0, end)
        if end:
            new = parse_trace(data[:end], kind_filter=self.kind, first_line=self.lines + 1)
            if len(new):
                self._append(new)
            self.metadata.update(new.metadata)
            self.offset += end
            self.lines += lines
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
        a Trace carrying the whole tail's volume; never empty, as the
        newest append is always in it."""
        i = min(bisect.bisect_right(self._max_end, lo), len(self._max_end) - 1)
        first = self._first_row[i] if i >= 0 else 0
        view = Trace(*(col[first:self.rows] for col in self._columns),
                     metadata=self.metadata)
        view._volume = self.volume   # the whole tail's, not the view's own
        return view

    def predict(self, now: float) -> PredictionRecord:
        """Analyze the rows at trace time ``now`` in the window the last
        record calls for, keep the record and log the append at DEBUG."""
        last = self.last
        window, reason = _window_and_reason(last, now, self.fs, self.fixed_window)
        view = self.view(window[0])
        start = time.perf_counter()
        analysis = analyze_trace(view, self.fs, window=window, tolerance=self.tolerance,
                                 z_min=self.z_min)
        analysis_s = time.perf_counter() - start
        streak = last.dominant_streak + 1 if last is not None else 1
        self.last = PredictionRecord(analysis, streak if analysis.has_dominant else 0)
        log = _logger()
        if log is not None and log.isEnabledFor(10):   # logging.DEBUG
            read, lines, parse_s = self.fed
            log.debug("append: read %d bytes, %d lines; %d rows kept, %d analysed; "
                      "window (%.6g, %.6g) %s; parse %.3f ms, analysis %.3f ms",
                      read, lines, self.rows, len(view), *window, reason,
                      parse_s * 1e3, analysis_s * 1e3)
        return self.last


def replay(
    snapshots: Iterable[tuple[str, float]],
    fs: float,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    kind: str = "both",
    fixed_window: float | None = None,
) -> list[PredictionRecord]:
    """Replay a scripted append schedule of (trace text so far, trigger time).

    Only the text past the whole lines consumed so far is encoded and
    parsed.  A snapshot that does not extend them restarts the session as a
    truncated or replaced file does in ``watch``, with no last record.
    Deterministic: identical schedules produce identical records.
    """
    tail = _Tail(fs, tolerance, z_min, kind, fixed_window)
    consumed = ""   # the whole lines fed so far
    records: list[PredictionRecord] = []
    for text, now in snapshots:
        if not text.startswith(consumed):
            tail.reset()
            consumed = ""
        tail.feed(text[len(consumed):].encode())
        # ``text`` itself, not a copy, when the snapshot ends with a newline
        consumed = text[:text.rfind("\n") + 1]
        records.append(tail.predict(now))
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
    """Tail a trace file and yield a PredictionRecord per append that brings rows.

    Only whole lines are consumed, so a writer flushing mid-line is safe,
    and each is parsed once.  A file that shrinks below what was consumed
    (truncation) or is replaced by another file (rotation, seen by its
    inode) resets the analysis state with a warning: a WARNING record on
    the ``ioperiod`` logger once the program has imported ``logging``,
    else a ``UserWarning``.  With an ``idle_timeout`` the generator returns
    after that many seconds without growth; otherwise it polls forever.
    Bad arguments raise ValueError before the first poll.
    """
    if not 0 < poll_interval < math.inf:
        # idle time is counted in poll intervals, so 0 would never time out
        raise ValueError(f"poll interval must be positive and finite, got {poll_interval}")
    if idle_timeout is not None and not idle_timeout >= 0:
        raise ValueError(f"idle timeout must be non-negative, got {idle_timeout}")
    tail = _Tail(fs, tolerance, z_min, kind, fixed_window)
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
            if (log := _logger()) is None:
                warnings.warn(message)
            else:
                log.warning(message)
            tail.reset()
            continue
        rows = tail.rows
        if tail.feed(data):
            # metadata or filtered-out rows alone would repeat the last record
            if tail.rows > rows:
                yield tail.predict(tail.t_max)
            idle = 0.0
            continue
        idle += poll_interval
        if idle_timeout is not None and idle >= idle_timeout:
            return
        _sleep(poll_interval)
