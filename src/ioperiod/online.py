"""Online prediction: watch a growing trace file and re-run detection as
data arrives, shrinking the analysis window once a dominant frequency has
been found repeatedly."""
from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .detection import DEFAULT_TOLERANCE, DEFAULT_Z_MIN
from .pipeline import AnalysisResult, analyze_trace
from .trace import Trace, parse_trace

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


def _dominant_streak(history: Sequence[PredictionRecord]) -> int:
    streak = 0
    for rec in reversed(history):
        if not rec.has_dominant:
            break
        streak += 1
    return streak


def _choose_window(
    history: Sequence[PredictionRecord],
    now: float,
    fs: float,
    fixed_window: float | None,
) -> tuple[float, float]:
    lo = 0.0
    if fixed_window is not None:
        lo = max(0.0, now - fixed_window)
    elif _dominant_streak(history) >= ADAPT_AFTER:
        last_period = history[-1].period
        if last_period is not None:
            lo = max(0.0, now - WINDOW_PERIODS * last_period)
    # guard against a spuriously high frequency collapsing the window
    lo = min(lo, max(0.0, now - MIN_WINDOW_BINS / fs))
    return lo, now


def on_new_data(
    history: Sequence[PredictionRecord],
    trace_snapshot: Trace,
    now: float,
    fs: float,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    fixed_window: float | None = None,
) -> PredictionRecord:
    """Analyze a consistent snapshot of the trace at trace time ``now``.

    ``history`` must contain only analyses already completed when this one
    triggers; after three consecutive completed analyses with a dominant
    frequency, the window shrinks to three times the last found period.
    """
    window = _choose_window(history, now, fs, fixed_window)
    analysis = analyze_trace(trace_snapshot, fs, window=window, tolerance=tolerance,
                             z_min=z_min)
    streak = _dominant_streak(history) + 1 if analysis.has_dominant else 0
    return PredictionRecord(
        trigger_time=now, window=window, analysis=analysis, dominant_streak=streak
    )


def replay(
    snapshots: Iterable[tuple[str, float]],
    fs: float,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    kind: str = "both",
    fixed_window: float | None = None,
) -> list[PredictionRecord]:
    """Replay a scripted append schedule of (trace text so far, trigger time).

    Deterministic: identical schedules produce identical records.
    """
    records: list[PredictionRecord] = []
    for text, now in snapshots:
        trace = parse_trace(text.encode(), kind_filter=kind)
        records.append(
            on_new_data(records, trace, now, fs, tolerance=tolerance,
                        z_min=z_min, fixed_window=fixed_window)
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

    Only whole lines are consumed, so a writer flushing mid-line is safe.
    Truncation resets the analysis state with a warning.  With an
    ``idle_timeout`` the generator returns after that many seconds without
    growth; otherwise it polls forever.
    """
    records: list[PredictionRecord] = []
    consumed = 0          # bytes of whole lines already analyzed
    idle = 0.0
    while True:
        try:
            size = os.path.getsize(path)
        except FileNotFoundError:
            size = 0
        if size < consumed:
            warnings.warn(f"{os.fspath(path)} was truncated; restarting analysis state")
            records = []
            consumed = 0
        if size > consumed:
            with open(path, "rb") as f:
                data = f.read(size)
            last_nl = data.rfind(b"\n")
            if last_nl + 1 > consumed:
                consumed = last_nl + 1
                trace = parse_trace(data[:consumed], kind_filter=kind)
                if len(trace) > 0:
                    now = trace.t_max
                    rec = on_new_data(
                        records, trace, now, fs, tolerance=tolerance,
                        z_min=z_min, fixed_window=fixed_window,
                    )
                    records.append(rec)
                    yield rec
                idle = 0.0
                continue
        idle += poll_interval
        if idle_timeout is not None and idle >= idle_timeout:
            return
        _sleep(poll_interval)
