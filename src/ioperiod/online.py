"""Online prediction: watch a growing trace file and re-run detection as
data arrives, shrinking the analysis window once a dominant frequency has
been found repeatedly.  ``watch`` and ``replay`` both feed a ``_Tail``,
which parses each appended whole line once.
"""
from __future__ import annotations

import math
import os
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


@dataclass(frozen=True)
class PredictionRecord:
    """One online analysis: what was looked at and what came out."""

    trigger_time: float
    window: tuple[float, float]
    analysis: AnalysisResult
    dominant_streak: int

    @property
    def has_dominant(self) -> bool:
        return self.analysis.has_dominant

    @property
    def period(self) -> float | None:
        return self.analysis.period

    def to_dict(self) -> dict:
        out = self.analysis.to_dict()
        out["trigger_time"] = self.trigger_time
        out["window"] = list(self.window)
        out["dominant_streak"] = self.dominant_streak
        return out


def _choose_window(
    previous: PredictionRecord | None,
    now: float,
    fs: float,
    fixed_window: float | None,
) -> tuple[float, float]:
    lo = 0.0
    if fixed_window is not None:
        lo = max(0.0, now - fixed_window)
    elif previous is not None and previous.dominant_streak >= ADAPT_AFTER:
        lo = max(0.0, now - WINDOW_PERIODS * previous.period)
    # guard against a spuriously high frequency collapsing the window
    lo = min(lo, max(0.0, now - MIN_WINDOW_BINS / fs))
    return lo, now


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
    window = _choose_window(previous, now, fs, fixed_window)
    analysis = analyze_trace(trace_snapshot, fs, window=window, tolerance=tolerance,
                             z_min=z_min)
    streak = previous.dominant_streak + 1 if previous is not None else 1
    return PredictionRecord(
        trigger_time=now, window=window, analysis=analysis,
        dominant_streak=streak if analysis.has_dominant else 0,
    )


class _Tail:
    """The byte offset and count of the whole lines of a growing trace
    consumed so far, and in ``trace`` what one parse of them would give."""

    def __init__(self, kind: str):
        self.kind = kind
        self.reset()

    def reset(self) -> None:
        self.offset = 0
        self.lines = 0
        self.trace = Trace([], [], [], [], [])

    def feed(self, data: bytes) -> bool:
        """Consume the whole lines of ``data``, the bytes past ``offset``;
        return whether there were any.  Errors count lines from the start."""
        end = data.rfind(b"\n") + 1
        if end == 0:
            return False
        new = parse_trace(data[:end], kind_filter=self.kind, first_line=self.lines + 1)
        old = self.trace
        self.trace = Trace(
            *(np.concatenate((getattr(old, col), getattr(new, col)))
              for col in ("rank", "start", "end", "nbytes", "kind_code")),
            metadata={**old.metadata, **new.metadata})
        self.offset += end
        self.lines += data.count(b"\n", 0, end)
        return True


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
        records.append(
            on_new_data(records[-1] if records else None, tail.trace, now, fs,
                        tolerance=tolerance, z_min=z_min, fixed_window=fixed_window)
        )
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
    inode) resets the analysis state with a warning.  With an
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
            warnings.warn(f"{os.fspath(path)} was truncated or replaced; "
                          "restarting analysis state")
            last = None
            tail.reset()
            continue
        if tail.feed(data):
            if len(tail.trace) > 0:
                last = on_new_data(
                    last, tail.trace, tail.trace.t_max, fs, tolerance=tolerance,
                    z_min=z_min, fixed_window=fixed_window,
                )
                yield last
            idle = 0.0
            continue
        idle += poll_interval
        if idle_timeout is not None and idle >= idle_timeout:
            return
        _sleep(poll_interval)
