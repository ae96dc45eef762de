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


def compute_metrics(
    sampled: SampledSignal,
    f_d: float | None = None,
    volume_scale: float = 1.0,
) -> MetricsReport:
    """Assemble the full metrics report for one analysis window.

    A bin is substantial I/O when strictly above the threshold V(T)/L(T),
    the mean sample, so a constant signal has R_IO = 0; B_IO is the mean of
    the substantial bins.  The window is cut into periods of 1/f_d from its
    first sample and the trailing partial period is dropped: sigma_vol is
    the population std of the per-period volumes over their maximum,
    sigma_time the RMS deviation of each period's substantial fraction from
    R_IO, the score 1 - sigma_vol - sigma_time, and data per period the
    substantial volume over L(T)*f_d.

    ``volume_scale`` converts byte-unit outputs back to real units when the
    analysis ran on a volume-normalized signal.  Without a dominant
    frequency (or with fewer than two full periods) the per-period metrics
    are reported absent.
    """
    samples = sampled.samples
    if float(samples.sum()) == 0.0:
        return MetricsReport(None, 0.0, None, None, None, None, None, None)
    threshold = float(samples.mean())
    mask = samples > threshold
    r_io = float(mask.mean())
    substantial = samples[mask]
    b_io = float(substantial.mean()) * volume_scale if mask.any() else None
    lf = snap_floor(sampled.duration * f_d) if f_d is not None and f_d > 0 else None
    if lf is None or lf < 2:
        return MetricsReport(threshold * volume_scale, r_io, b_io, None, None, None, None, None)
    idx = snap_floor(np.arange(sampled.n) * (sampled.ts * f_d))
    keep = idx < lf
    idx = idx[keep]
    vols = np.bincount(idx, weights=samples[keep], minlength=lf)
    counts = np.bincount(idx, minlength=lf)
    sub_counts = np.bincount(idx, weights=mask[keep].astype(np.float64), minlength=lf)
    vmax = vols.max()
    sv = 0.0 if vmax == 0.0 else float((vols / vmax).std())
    st = float(np.sqrt(np.mean((sub_counts / np.maximum(counts, 1) - r_io) ** 2)))
    v_s = sampled.ts * float(substantial.sum())
    return MetricsReport(
        threshold=threshold * volume_scale,
        r_io=r_io,
        b_io=b_io,
        sigma_vol=sv,
        sigma_time=st,
        data_per_period=v_s / (sampled.duration * f_d) * volume_scale,
        score=1.0 - sv - st,
        periods_used=lf,
    )
