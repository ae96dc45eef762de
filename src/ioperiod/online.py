"""Online prediction: watch a growing trace file and re-run detection as
data arrives, shrinking the analysis window once a dominant frequency has
been found repeatedly.  ``watch`` and ``replay`` both drive a ``_Tail``,
which holds a session's rows, its last record and its analysis arguments,
and parses each appended whole line once into ``parse_trace``'s growable
columns.  Each append chooses its window once and analyses only
the rows of the appends that can reach it, so once the window has adapted
an append costs O(its own lines + the window), not O(session).  Every
restart forgets the rows and the last record alike (``_Tail.reset``).  Each
analysis is logged at DEBUG on the ``ioperiod`` logger, and a truncated or
replaced file at WARNING (a ``UserWarning`` if ``logging`` is not loaded).
"""
from __future__ import annotations

import io
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

from .detection import DEFAULT_TOLERANCE, DEFAULT_Z_MIN
from .pipeline import AnalysisResult, analyze_trace, check_analysis_args
from .sampling import snap_floor
from .trace import _Rows

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
    fixed_window: float | None,
) -> tuple[tuple[float, float], str]:
    """The window of an analysis at trace time ``now`` and why, as logged:
    "full", "fixed at W s" or "adapted after a streak of N with period P s"
    (``WINDOW_PERIODS`` periods, once ``previous``, the last record, ends a
    streak of ``ADAPT_AFTER`` dominant findings).  A fixed window holds at
    least ``MIN_WINDOW_BINS`` samples (``_Tail`` checks it), and an adapted
    one at least ``WINDOW_PERIODS`` periods of 2 samples or more."""
    lo, reason = 0.0, "full"
    if fixed_window is not None:
        lo, reason = max(0.0, now - fixed_window), f"fixed at {fixed_window:g} s"
    elif previous is not None and previous.dominant_streak >= ADAPT_AFTER:
        lo = max(0.0, now - WINDOW_PERIODS * previous.period)
        reason = (f"adapted after a streak of {previous.dominant_streak} "
                  f"with period {previous.period:.6g} s")
    return (lo, now), reason


class _Tail:
    """An online session: the rows of the whole lines of a growing trace
    consumed so far (``parsed``, which also keeps their byte offset and
    chooses the rows each window reads), the last record and the arguments
    of every analysis."""

    def __init__(self, fs: float, tolerance: float, z_min: float, kind: str,
                 fixed_window: float | None):
        check_analysis_args(fs, tolerance, z_min)
        # samples counted as _grid_size counts them; NaN fails the first test
        if fixed_window is not None and not (fixed_window > 0 and snap_floor(
                min(fixed_window * fs, MIN_WINDOW_BINS)) == MIN_WINDOW_BINS):
            raise ValueError(f"fixed window must hold at least {MIN_WINDOW_BINS} samples "
                             f"at {fs:g} Hz, got {fixed_window} s")
        self.fs, self.tolerance, self.z_min = fs, tolerance, z_min
        self.kind, self.fixed_window = kind, fixed_window
        self.reset()

    def reset(self) -> None:
        # fresh columns, so rows under an earlier view are never overwritten
        self.parsed = _Rows(self.kind)
        self.fed = (0, 0, 0.0)   # bytes, lines, seconds of the last feed
        self.last: PredictionRecord | None = None   # all the next analysis reads

    def feed(self, stream) -> bool:
        """Consume the whole lines of a binary stream of the bytes past
        ``parsed.offset``; return whether there were any."""
        start = time.perf_counter()
        lines = self.parsed.lines
        consumed = self.parsed.read(stream)
        self.fed = (consumed, self.parsed.lines - lines, time.perf_counter() - start)
        return consumed > 0

    def predict(self, now: float) -> PredictionRecord:
        """Analyze the rows at trace time ``now`` in the window the last
        record calls for, keep the record and log the append at DEBUG."""
        last = self.last
        window, reason = _window_and_reason(last, now, self.fixed_window)
        view = self.parsed.trace(window[0])
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
                      read, lines, self.parsed.rows, len(view), *window, reason,
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
    parsed.  A snapshot that does not extend the whole text consumed so far
    restarts the session with no last record, even where ``watch``, which
    checks only the last line read, would not.
    Deterministic: identical schedules produce identical records.
    """
    tail = _Tail(fs, tolerance, z_min, kind, fixed_window)
    consumed = ""   # the whole lines fed so far
    records: list[PredictionRecord] = []
    for text, now in snapshots:
        if not text.startswith(consumed):
            tail.reset()
            consumed = ""
        tail.feed(io.BytesIO(text[len(consumed):].encode()))
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
    (truncation), is replaced by another file (rotation, seen by its
    inode) or holds other bytes where the last line read was (an in-place
    rewrite) resets the analysis state with a warning: a WARNING record on
    the ``ioperiod`` logger once the program has imported ``logging``,
    else a ``UserWarning``.  Reading all it consumed on every poll would
    cost O(file), so, unlike ``replay``, it takes a rewrite that leaves the
    last line read in place for growth.  With an ``idle_timeout`` it returns
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
    idle = 0              # polls slept through without growth
    while True:
        parsed = tail.parsed
        rows, offset, last = parsed.rows, parsed.offset, parsed.last_line
        fed = lost = False   # lost: the file was truncated or replaced
        try:
            with open(path, "rb") as f:
                st = os.fstat(f.fileno())
                f.seek(offset - len(last))
                if offset and (st.st_size < offset
                               or (st.st_dev, st.st_ino) != file_id
                               or f.read(len(last)) != last):
                    lost = True
                elif st.st_size > offset:
                    fed = tail.feed(f)
                file_id = (st.st_dev, st.st_ino)
        except FileNotFoundError:
            lost = offset > 0
        if lost:
            message = f"{os.fspath(path)} was truncated or replaced; restarting analysis state"
            if (log := _logger()) is None:
                warnings.warn(message)
            else:
                log.warning(message)
            tail.reset()
            continue
        if fed:
            # metadata or filtered-out rows alone would repeat the last record
            if parsed.rows > rows:
                yield tail.predict(parsed.max_end[-1])
            idle = 0
            continue
        # a product, not a running sum: ten 0.1 s polls make 1.0 s
        if idle_timeout is not None and idle * poll_interval >= idle_timeout:
            return
        _sleep(poll_interval)
        idle += 1
