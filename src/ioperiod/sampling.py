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


def _covering_candidates(start, end, t_lo, fs, n, lo, hi):
    """Indices of the requests that can cover a sample of the grid
    t_lo + arange(n)/fs, or None when every request can.

    A request covers sample i when start <= g_i < end, where g_i =
    fl(t_lo + fl(i * ts)), ts = fl(1/fs), is the grid instant as computed.
    The map c(x) = fl(fl(x - t_lo) * fs) is monotone, so such a request has
    c(start) <= c(g_i) <= c(end).  To bound |c(g_i) - i|, let eps = 2^-53:
    each rounding is a factor (1 + a), |a| <= eps, and a subnormal product
    or quotient is also off by up to 2^-1075 (sums are exact there), under
    4 eps once scaled by fs < 2^1024.  Then

    - the relative roundings of ts, i * ts, the subtraction and the
      product give at most 4.01 eps * i;
    - the subnormal parts of ts and i * ts give at most 4.01 eps * (i + 1);
    - rounding t_lo + i * ts gives at most 1.01 eps * (|t_lo| fs + i + 1);
    - a subnormal c(g_i) adds under eps.

    For 0 <= i < n that totals under eps * (1.01 |t_lo| fs + 10.1 n), and
    delta = 16 eps * (|t_lo| fs + n) exceeds it even as computed.  So
    c(start) - delta <= i <= c(end) + delta; i is an exact float and
    rounding is monotone, so the computed ceil and floor keep i between:

        max(ceil(c(start) - delta), 0) <= min(floor(c(end) + delta), n - 1)

    holds for every covering request, and a request failing it covers
    nothing.  A huge time offset only widens delta; once delta reaches a
    whole sample the test is not worth its passes and every request is
    searched.  ``lo`` and ``hi`` are scratch columns of the requests' length.
    """
    delta = (abs(float(t_lo)) * fs + n) * 2.0 ** -49
    if not delta < 1.0:
        return None
    np.subtract(start, t_lo, out=lo)
    np.multiply(lo, fs, out=lo)
    np.subtract(lo, delta, out=lo)
    np.ceil(lo, out=lo)
    np.maximum(lo, 0.0, out=lo)
    np.subtract(end, t_lo, out=hi)
    np.multiply(hi, fs, out=hi)
    np.add(hi, delta, out=hi)
    np.floor(hi, out=hi)
    np.minimum(hi, n - 1, out=hi)
    candidate = lo <= hi
    if candidate.all():
        return None
    return np.flatnonzero(candidate)


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
    # two scratch columns hold every per-request intermediate below
    lo = np.maximum(start, t_lo)
    hi = np.minimum(end, t_lo + n * ts)
    np.subtract(hi, lo, out=hi)
    np.maximum(hi, 0.0, out=hi)
    np.multiply(rate, hi, out=hi)
    # summed over every request in sorted order, so V_0 is independent of
    # request order
    hi.sort()
    v_0 = float(hi.sum())
    candidate = _covering_candidates(start, end, t_lo, fs, n, lo, hi)
    if candidate is not None:
        start, end, rate = start[candidate], end[candidate], rate[candidate]
    grid = t_lo + np.arange(n) * ts
    # each request covers the samples [first, stop); searchsorted on the
    # grid itself puts an instant equal to start inside, one equal to end out
    first = np.searchsorted(grid, start)
    stop = np.searchsorted(grid, end)
    # bincount adds in input order; ordering by rate fixes that order
    # whatever the request order or the selection (equal rates are equal
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

