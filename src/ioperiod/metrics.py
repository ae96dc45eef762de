"""Characterization metrics: substantial-I/O threshold, R_IO, B_IO,
per-period volume/time deviations, and the periodicity score.

All metrics are evaluated on the discretized grid (one time-unit = one
sampling bin), so they are reproducible bit-for-bit given the trace, the
sampling frequency, and the window.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .sampling import SampledSignal, snap_floor


@dataclass(frozen=True)
class MetricsReport:
    threshold: float | None
    r_io: float
    b_io: float | None
    sigma_vol: float | None
    sigma_time: float | None
    data_per_period: float | None
    score: float | None
    periods_used: int | None

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(sampled: SampledSignal, f_d: float | None = None) -> MetricsReport:
    """Assemble the full metrics report for one analysis window.

    A bin is substantial I/O when strictly above the threshold V(T)/L(T),
    the mean sample, so a constant signal has R_IO = 0; B_IO is the mean of
    the substantial bins.  The window is cut into periods of 1/f_d from its
    first sample and the trailing partial period is dropped: sigma_vol is
    the population std of the per-period volumes over their maximum,
    sigma_time the RMS deviation of each period's substantial fraction from
    R_IO, the score 1 - sigma_vol - sigma_time, and data per period the
    substantial volume over L(T)*f_d.

    The threshold, B_IO and the data per period are in the units of the
    samples.  Without a dominant frequency (or with fewer than two full
    periods) the per-period metrics are reported absent.
    """
    samples = sampled.samples
    n = sampled.n
    total = float(samples.sum())
    if total == 0.0:
        return MetricsReport(None, 0.0, None, None, None, None, None, None)
    threshold = total / n
    mask = samples > threshold
    n_sub = np.count_nonzero(mask)
    r_io = n_sub / n
    sub_sum = float(samples[mask].sum())
    b_io = sub_sum / n_sub if n_sub else None
    lf = snap_floor(sampled.duration * f_d) if f_d is not None and f_d > 0 else None
    if lf is None or lf < 2:
        return MetricsReport(threshold, r_io, b_io, None, None, None, None, None)
    bounds = _period_bounds(n, sampled.ts * f_d, lf)
    counts = np.diff(bounds)
    # reduceat sums up to the next index given, so it gets the starts of the
    # periods that hold a sample: an empty period lies between two of them
    # and adds nothing; sample 0 is in period 0, so there is always one
    held = counts > 0
    starts = bounds[:-1][held]
    vols = np.zeros(lf)
    vols[held] = np.add.reduceat(samples[:bounds[-1]], starts)
    sub_counts = np.zeros(lf)
    sub_counts[held] = np.add.reduceat(mask[:bounds[-1]], starts, dtype=np.intp)
    vmax = vols.max()
    sv = 0.0 if vmax == 0.0 else float((vols / vmax).std())
    st = float(np.sqrt(np.mean((sub_counts / np.maximum(counts, 1) - r_io) ** 2)))
    v_s = sampled.ts * sub_sum
    return MetricsReport(
        threshold=threshold,
        r_io=r_io,
        b_io=b_io,
        sigma_vol=sv,
        sigma_time=st,
        data_per_period=v_s / (sampled.duration * f_d),
        score=1.0 - sv - st,
        periods_used=lf,
    )


def _period_bounds(n: int, step: float, lf: int) -> np.ndarray:
    """The first sample of each of periods 0..lf, clipped to n.

    Sample i lies in period snap_floor(i * step), which never decreases as
    i grows, so period p holds the samples [b_p, b_p+1).  ceil(p / step) is
    within a sample or two of b_p; each bound is then moved until sample
    b_p - 1 lies before period p and sample b_p in it (or b_p = n).
    """
    p = np.arange(lf + 1)
    b = np.minimum(np.ceil(p / step), n)
    while True:
        late = (b > 0) & (snap_floor((b - 1) * step) >= p)
        early = (b < n) & (snap_floor(b * step) < p)
        if not (late.any() or early.any()):
            return b.astype(np.intp)
        b += early
        b -= late
