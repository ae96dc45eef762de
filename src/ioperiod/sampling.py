"""Discretization of the bandwidth signal and its abstraction error.

The continuous application bandwidth, the summed rates of the requests, is
point-sampled at a fixed rate over a time window straight from the requests
(``sample_requests``); the relative volume mismatch between the
zero-order-hold reconstruction and the continuous signal (``volume_error``)
quantifies how faithful the discretization is.

``sample_requests`` reads the requests once, a block at a time, for those
that can cover a sample, the exact integer bytes of those inside the window
and those straddling its edges.  V_0 is the inside bytes over the volume
plus the straddlers' shares; only requests covering a sample get a rate,
and only those rates are checked for overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import Trace, TraceValidationError, exact_sum

#: |sampling_error| beyond this value indicates the signal was under-sampled
#: and the analysis should not be trusted.
BAD_SAMPLING_THRESHOLD = 0.01

#: most samples one analysis window may hold (window x fs).  At the bound
#: one DFT + detect takes about 55 + 11 ms and raises peak RSS by 60 MB;
#: 630 + 11 ms and 305 MB at the prime length 2097143, and 480 + 14 ms and
#: 145 MB at 2 x 1048573, an even length with a large prime factor
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


#: requests worked at once by ``sample_requests``: a block's scratch stays in cache
_BLOCK = 1 << 15


def _scan(trace: Trace, t_lo, fs, n, w_hi):
    """One pass over the requests, ``_BLOCK`` rows at a time: the start, end
    and byte columns of those that can cover a sample of the grid
    t_lo + arange(n)/fs (the trace's own when all can), the exact byte total
    of those wholly inside [t_lo, w_hi], and the indices of those straddling
    an edge.  Rejects a zero-duration request with bytes.

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
    searched.
    """
    lo, hi = np.empty((2, min(len(trace), _BLOCK)))
    delta = (abs(float(t_lo)) * fs + n) * 2.0 ** -49
    candidates = [] if delta < 1.0 else None
    straddlers, inside_bytes = [np.empty(0, np.intp)], 0
    for a in range(0, len(trace), _BLOCK):
        s, e, b = (col[a:a + _BLOCK] for col in (trace.start, trace.end, trace.nbytes))
        lo, hi = lo[:s.shape[0]], hi[:s.shape[0]]
        zero = s == e
        if zero.any() and b[zero].any():
            raise TraceValidationError("zero-duration request with nonzero bytes")
        if candidates is not None:
            np.subtract(s, t_lo, out=lo)
            np.multiply(lo, fs, out=lo)
            np.subtract(lo, delta, out=lo)
            np.ceil(lo, out=lo)
            np.maximum(lo, 0.0, out=lo)
            np.subtract(e, t_lo, out=hi)
            np.multiply(hi, fs, out=hi)
            np.add(hi, delta, out=hi)
            np.floor(hi, out=hi)
            np.minimum(hi, n - 1, out=hi)
            candidates.append(np.flatnonzero(lo <= hi) + a)
        inside = (s >= t_lo) & (e <= w_hi)
        if inside.all():   # then none straddles
            inside_bytes += exact_sum(b)
            continue
        inside_bytes += exact_sum(b[inside])
        # overlapping the window without lying inside it
        straddlers.append(np.flatnonzero((s < w_hi) & (e > t_lo) & ~inside) + a)
    columns = trace.start, trace.end, trace.nbytes
    if candidates is not None:
        candidates = np.concatenate(candidates)
        if candidates.shape[0] < len(trace):
            columns = tuple(col[candidates] for col in columns)
    return columns, inside_bytes, np.concatenate(straddlers)


def sample_requests(
    trace: Trace,
    fs: float,
    window: tuple[float, float] | None = None,
) -> tuple[tuple[float, float], SampledSignal, float]:
    """Point-sample the unit-volume bandwidth of a trace straight from its requests.

    Sample i, at t_i = t0 + i*ts, is the summed rate bytes/(V*(end-start)),
    V the exact integer volume, of every request with start <= t_i < end.
    The window defaults to the span of the requests with positive duration.

    Returns the window, the samples, and V_0, the volume of the unit-volume
    signal over the covered window [t0, t0 + n*ts], for ``volume_error``:
    the integer bytes of the requests wholly inside it over V, plus the
    sorted terms (bytes/V)*(overlap/duration) of those straddling an edge.
    """
    volume = trace.volume
    if volume == 0:   # an empty trace too
        raise TraceValidationError("cannot normalize a zero-volume trace")
    if window is None:
        positive = trace.start < trace.end
        if not positive.any():
            raise TraceValidationError("no requests with positive duration")
        window = (float(trace.start[positive].min()), float(trace.end[positive].max()))
    t_lo = window[0]
    n, ts = _grid_size(t_lo, window[1], fs)
    w_hi = t_lo + n * ts
    (start, end, nbytes), inside_bytes, straddler = _scan(trace, t_lo, fs, n, w_hi)
    grid = t_lo + np.arange(n) * ts
    # each request covers the samples [first, stop); searchsorted on the
    # grid itself puts an instant equal to start inside, one equal to end out
    first = np.searchsorted(grid, start)
    stop = np.searchsorted(grid, end)
    # only the requests that cover a sample get a rate
    covering = np.flatnonzero(first < stop)
    dur = end[covering] - start[covering]
    # rates are >= 0: their sum is finite only if each rate is, and it
    # bounds every sample, which sums the rates of overlapping requests
    with np.errstate(over="ignore"):  # an overflow is reported just below
        rate = nbytes[covering] / volume / dur
        rate_sum = rate.sum()
    if not np.isfinite(rate_sum):
        raise TraceValidationError(
            f"requests as short as {float(dur.min())!r} s have byte rates "
            "past the float range")
    # bincount adds in input order; ordering by rate fixes that order
    # whatever the request order or the selection (equal rates are equal
    # values)
    order = np.argsort(rate)
    weights = rate[order]
    order = covering[order]
    steps = (np.bincount(first[order], weights, minlength=n + 1)
             - np.bincount(stop[order], weights, minlength=n + 1))
    # float even when no request covers a sample (bincount then gives ints)
    samples = np.cumsum(steps[:n], dtype=np.float64)
    np.maximum(samples, 0.0, out=samples)  # clamp float residue of cancelling rates
    # a straddler's share, overlap/duration, is at most 1, so no term
    # overflows; requests wholly outside add exactly 0
    s, e = trace.start[straddler], trace.end[straddler]
    share = (np.minimum(e, w_hi) - np.maximum(s, t_lo)) / (e - s)
    terms = np.sort(trace.nbytes[straddler] / volume * share)
    v_0 = inside_bytes / volume + float(terms.sum())
    return window, SampledSignal(t0=float(t_lo), ts=ts, samples=samples), v_0


def volume_error(sampled: SampledSignal, v_0: float) -> float:
    """Relative volume mismatch (V_s - V_0) / V_0 of the discretization.

    V_s is the zero-order-hold volume of the samples and V_0 the exact
    integral of the continuous signal over the covered window.
    """
    v_s = sampled.ts * float(sampled.samples.sum())
    if v_0 == 0.0:
        raise NoVolumeError("no I/O volume in the sampled window")
    return (v_s - v_0) / v_0

