"""Discretization of the bandwidth signal and its abstraction error.

The continuous application bandwidth, the summed rates of the requests, is
point-sampled at a fixed rate over a time window straight from the requests
(``sample_requests``); the relative volume mismatch between the
zero-order-hold reconstruction and the continuous signal (``volume_error``)
quantifies how faithful the discretization is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import Trace, request_rates

#: |sampling_error| beyond this value indicates the signal was under-sampled
#: and the analysis should not be trusted.
BAD_SAMPLING_THRESHOLD = 0.01

#: most samples one analysis window may hold (window x fs).  At the bound
#: one DFT + detect takes about 75 + 14 ms (0.9 s + 15 ms at the prime
#: length 2097143) with a tracemalloc peak of 62 MB besides the samples
#: (numpy 2.4, one core of a 2-core Xeon VM).
MAX_SAMPLES = 1 << 21


class SamplingQualityWarning(UserWarning):
    """Raised as a warning when the abstraction error flags bad sampling."""


class NoVolumeError(ValueError):
    """The window contains no I/O volume, so the error ratio is undefined."""


def snap_floor(x: float) -> int:
    """floor() that forgives values a hair below an integer (float products)."""
    n = math.floor(x)
    if x - n > 1.0 - 1e-9:
        n += 1
    return n


def _snap_floor_array(x: np.ndarray) -> np.ndarray:
    n = np.floor(x)
    n += (x - n) > (1.0 - 1e-9)
    return n.astype(np.int64)


@dataclass(frozen=True)
class SampledSignal:
    """Evenly spaced bandwidth samples: samples[n] taken at t0 + n*ts."""

    t0: float
    ts: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.ts <= 0:
            raise ValueError("sampling interval must be positive")

    @property
    def fs(self) -> float:
        return 1.0 / self.ts

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Length of the covered window, n*ts."""
        return self.n * self.ts

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n) * self.ts


def _grid_size(t_lo: float, t_hi: float, fs: float) -> tuple[int, float]:
    """Sample count and interval of the grid t_lo + arange(n)/fs on a window."""
    if not 0.0 < fs < math.inf:
        raise ValueError("sampling frequency must be positive and finite")
    if not t_lo < t_hi:
        raise ValueError("empty sampling window")
    span = (t_hi - t_lo) * fs
    n = snap_floor(min(span, MAX_SAMPLES + 1))
    if n > MAX_SAMPLES:
        raise ValueError(
            f"window of {t_hi - t_lo:.6g} s at {fs:.6g} Hz needs {span:.4g} samples, "
            f"more than the limit of {MAX_SAMPLES}; lower the sampling frequency "
            "or shorten the window"
        )
    if n < 1:
        raise ValueError("window shorter than one sampling interval")
    return n, 1.0 / fs


def sample_requests(
    trace: Trace,
    fs: float,
    window: tuple[float, float] | None = None,
) -> tuple[tuple[float, float], SampledSignal, float]:
    """Point-sample the unit-volume bandwidth of a trace straight from its requests.

    Sample i, at t_i = t0 + i*ts, is the summed rate (``request_rates``) of
    every request j with start_j <= t_i < end_j.  Windows reaching beyond
    the requests sample zeros there.
    The window defaults to the span of the requests with positive duration.

    Returns the window, the samples, and V_0, the exact volume of the
    unit-volume signal over the covered window [t0, t0 + n*ts), for
    ``volume_error``.
    """
    start, end, rate = request_rates(trace)
    win = window if window is not None else (float(start.min()), float(end.max()))
    t_lo = win[0]
    n, ts = _grid_size(t_lo, win[1], fs)
    grid = t_lo + np.arange(n) * ts
    overlap = np.minimum(end, t_lo + n * ts) - np.maximum(start, t_lo)
    np.maximum(overlap, 0.0, out=overlap)
    # summed over every request in sorted order, so V_0 is independent of
    # request order
    v_0 = float(np.sort(rate * overlap).sum())
    # only a request that ends past the first sample and starts by the last
    # can cover one.  Gathering those costs about one search over the whole
    # trace, so it pays when at most half of the requests are near (a short
    # online window over a long trace), not for a whole-trace window.
    near = (end > grid[0]) & (start <= grid[-1])
    if 2 * np.count_nonzero(near) <= near.size:
        start, end, rate = start[near], end[near], rate[near]
    # each request covers the samples [first, stop); searchsorted on the
    # grid itself puts an instant equal to start inside, one equal to end out
    first = np.searchsorted(grid, start)
    stop = np.searchsorted(grid, end)
    # bincount adds in input order; ordering by rate fixes that order
    # whatever the request order or the gather (equal rates are equal
    # values).  Requests that cover no sample are left out rather than
    # added and cancelled.
    covering = np.flatnonzero(first < stop)
    order = covering[np.argsort(rate[covering])]
    weights = rate[order]
    steps = (np.bincount(first[order], weights, minlength=n + 1)
             - np.bincount(stop[order], weights, minlength=n + 1))
    # float even when no request covers a sample (bincount then gives ints)
    samples = np.cumsum(steps[:n], dtype=np.float64)
    np.maximum(samples, 0.0, out=samples)  # clamp float residue of cancelling rates
    return win, SampledSignal(t0=float(t_lo), ts=ts, samples=samples), v_0


def volume_error(sampled: SampledSignal, v_0: float) -> float:
    """Relative volume mismatch (V_s - V_0) / V_0 of the discretization.

    V_s is the zero-order-hold volume of the samples and V_0 the exact
    integral of the continuous signal over the covered window.
    """
    v_s = sampled.ts * float(sampled.samples.sum())
    if v_0 == 0.0:
        raise NoVolumeError("no I/O volume in the sampled window")
    return (v_s - v_0) / v_0

