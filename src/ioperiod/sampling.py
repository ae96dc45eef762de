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

#: most samples one analysis window may hold (window x fs).  The bound is
#: 11-smooth, so no transform grid exceeds it.  One DFT + detect at the
#: bound takes 85-120 ms and raises peak RSS by 90 MB.  At the prime
#: 2097143 and at 2097141 = 3 x 349 x 2003, ``rfft`` at the full length runs
#: Bluestein: 700-880 ms and 362 MB; sampled again at 2^21 points (a
#: 1000-request trace), the second sampling, DFT and detect take 110-150 ms
#: and 106 MB (numpy 2.4, one core of a 2-core x86-64 VM).
MAX_SAMPLES = 1 << 21


class SamplingQualityWarning(UserWarning):
    """Raised as a warning when the abstraction error flags bad sampling."""


def snap_floor(x):
    """floor() that forgives values a hair below an integer (float
    products): a Python int for a number, an int64 array for an array."""
    n = np.floor(x)
    n += (x - n) > 1.0 - 1e-9
    return n.astype(np.int64) if isinstance(n, np.ndarray) else int(n)


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


def _grid_size(t_lo: float, t_hi: float, fs: float) -> int:
    """Sample count of the grid t_lo + arange(n)/fs on a window."""
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
    return n


#: requests worked at once by ``sample_requests``: a block's scratch stays in cache
_BLOCK = 1 << 15


def _scan(trace: Trace, t_lo, fs, n, w_hi):
    """One pass over the requests, ``_BLOCK`` rows at a time: the start, end
    and byte columns of those that can cover a sample of the grid
    t_lo + arange(n)/fs (the trace's own when all can), the exact byte total
    of those wholly inside [t_lo, w_hi], the indices of those straddling an
    edge, and the bound delta below.

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

    For 0 <= i < n that totals E < eps * (1.01 |t_lo| fs + 10.1 n), and
    delta = 16 eps * (|t_lo| fs + n) exceeds 1.5 E even as computed.  So
    c(start) - delta <= i <= c(end) + delta; i is an exact float and
    rounding is monotone, so the computed ceil keeps i between, and

        max(ceil(c(start) - delta), 0) <= min(c(end) + delta, n - 1)

    holds for every covering request; a request failing it covers nothing.
    The left side is an integer, so c(end) + delta needs no floor, and the
    clamps to [0, n - 1] are applied only to the few requests that pass
    the rest.  A huge time offset only widens delta, and the test still
    keeps every covering request.

    The inside bytes are summed from the rows themselves: the trace's
    volume, less the bytes of the rows outside, would count the rows that a
    view (``_Rows.trace``) leaves out but whose bytes its volume still holds.
    """
    delta = (abs(float(t_lo)) * fs + n) * 2.0 ** -49
    lo, hi = np.empty((2, min(len(trace), _BLOCK)))
    candidates = []
    straddlers, inside_bytes = [np.empty(0, np.intp)], 0
    # the trace's earliest start settles the start side of every block, with
    # no pass over a block's starts
    starts_inside = trace.t_min >= t_lo
    for a in range(0, len(trace), _BLOCK):
        s, e, b = (col[a:a + _BLOCK] for col in (trace.start, trace.end, trace.nbytes))
        lo, hi = lo[:s.shape[0]], hi[:s.shape[0]]
        np.subtract(s, t_lo, out=lo)
        np.multiply(lo, fs, out=lo)
        np.subtract(lo, delta, out=lo)
        np.ceil(lo, out=lo)
        np.subtract(e, t_lo, out=hi)
        np.multiply(hi, fs, out=hi)
        np.add(hi, delta, out=hi)
        c = np.flatnonzero(lo <= hi)
        c = c[(lo[c] <= n - 1) & (hi[c] >= 0.0)]
        candidates.append(c + a)
        if starts_inside and e.max() <= w_hi:   # then none straddles
            inside_bytes += exact_sum(b)
            continue
        inside = (s >= t_lo) & (e <= w_hi)
        inside_bytes += exact_sum(b[inside])
        # overlapping the window without lying inside it
        straddlers.append(np.flatnonzero((s < w_hi) & (e > t_lo) & ~inside) + a)
    columns = trace.start, trace.end, trace.nbytes
    candidates = np.concatenate(candidates)
    if candidates.shape[0] < len(trace):
        columns = tuple(col[candidates] for col in columns)
    return columns, inside_bytes, np.concatenate(straddlers), delta


def _grid_index(x, t_lo, fs, ts, n, delta):
    """``np.searchsorted(grid, x)``, m = #{i : g_i < x}, for the grid g_i =
    t_lo + i * ts, i < n, of ``_scan`` and its bound delta < 1/2, by
    arithmetic: m is k or k + 1 for k = min(max(ceil(c(x) - delta), 0),
    n - 1), so m = k + (g_k < x).  g_k is computed for these k alone, with
    the same roundings as the grid, so the grid itself is never built.

    With ``_scan``'s error E < delta / 1.5 < 1/3 and v = c(x) - delta, as
    an exact real whose rounding fl(v) the code takes the ceil of:

    - if m < n, g_m >= x gives m + E > c(g_m) >= c(x), so m > v; m is an
      exact float, so m >= fl(v), m >= ceil(fl(v)) and m >= k.  If m = n,
      m > n - 1 >= k.
    - if m >= 2, g_{m-1} < x gives m - 1 < c(x) + E < v + 0.84, so v > 0.16
      and ceil(fl(v)) >= 0.  Were m >= k + 2, then k < n - 1, so k =
      ceil(fl(v)) and fl(v) <= k < v - 0.16; but fl(v) < n - 1 means v <
      n - 1 < 2^21 (n <= ``MAX_SAMPLES``), which rounds by under 2^-31.  So
      m <= k + 1, as it is when m < 2.
    """
    v = np.subtract(x, t_lo)
    np.multiply(v, fs, out=v)
    np.subtract(v, delta, out=v)
    np.ceil(v, out=v)
    np.clip(v, 0, n - 1, out=v)
    k = v.astype(np.intp)
    np.multiply(v, ts, out=v)   # g_k, k as an exact float
    np.add(v, t_lo, out=v)
    k += v < x
    return k


def sample_requests(
    trace: Trace,
    fs: float,
    window: tuple[float, float] | None = None,
) -> tuple[tuple[float, float], SampledSignal, float]:
    """Point-sample the unit-volume bandwidth of a trace straight from its requests.

    The grid starts at the window's start and holds the samples that fit
    before its end (``_sample_grid``).  The window defaults to the span of
    the requests with positive duration.  Returns the window, the samples
    and V_0 (for ``volume_error``).
    """
    if trace.volume == 0:   # an empty trace too
        raise TraceValidationError("cannot normalize a zero-volume trace")
    if window is None:
        # a volume needs a request with bytes, which Trace gives a duration
        positive = trace.start < trace.end
        window = (float(trace.start[positive].min()), float(trace.end[positive].max()))
    n = _grid_size(window[0], window[1], fs)
    return (window, *_sample_grid(trace, window[0], fs, n))


def _sample_grid(trace: Trace, t_lo: float, fs: float, n: int) -> tuple[SampledSignal, float]:
    """The n samples of the unit-volume bandwidth of a trace with volume,
    1 <= n <= ``MAX_SAMPLES``, at t_i = t_lo + i*ts, ts = 1/fs.

    Sample i is the summed rate bytes/(V*(end-start)), V the exact integer
    volume, of every request with start <= t_i < end.  Returns the samples
    and V_0, the volume of the unit-volume signal over the covered window
    [t_lo, t_lo + n*ts]: the integer bytes of the requests wholly inside it
    over V, plus the sorted terms (bytes/V)*(overlap/duration) of those
    straddling an edge.
    """
    volume = trace.volume
    ts = 1.0 / fs
    w_hi = t_lo + n * ts
    (start, end, nbytes), inside_bytes, straddler, delta = _scan(trace, t_lo, fs, n, w_hi)
    # each request covers the samples [first, stop): the index of its start
    # and end on the grid itself, so an instant equal to start is inside,
    # one equal to end out; arithmetic finds it within one sample, and from
    # half a sample of delta on the kept requests are searched on the n-point
    # grid, built on that branch alone
    if delta < 0.5:
        first = _grid_index(start, t_lo, fs, ts, n, delta)
        stop = _grid_index(end, t_lo, fs, ts, n, delta)
    else:
        grid = t_lo + np.arange(n) * ts
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
    # float even when no request covers a sample (bincount then gives ints)
    steps = np.bincount(first[order], weights, minlength=n + 1).astype(np.float64, copy=False)
    steps -= np.bincount(stop[order], weights, minlength=n + 1)
    samples = np.cumsum(steps[:n], out=steps[:n])
    np.maximum(samples, 0.0, out=samples)  # clamp float residue of cancelling rates
    # a straddler's share, overlap/duration, is at most 1, so no term
    # overflows; requests wholly outside add exactly 0
    s, e = trace.start[straddler], trace.end[straddler]
    share = (np.minimum(e, w_hi) - np.maximum(s, t_lo)) / (e - s)
    terms = np.sort(trace.nbytes[straddler] / volume * share)
    v_0 = inside_bytes / volume + float(terms.sum())
    return SampledSignal(t0=float(t_lo), ts=ts, samples=samples), v_0


def volume_error(sampled: SampledSignal, v_0: float) -> float | None:
    """Relative volume mismatch (V_s - V_0) / V_0 of the discretization.

    V_s is the zero-order-hold volume of the samples and V_0 the exact
    integral of the continuous signal over the covered window.  None when
    V_0 = 0: a window without I/O volume has no error ratio.
    """
    if v_0 == 0.0:
        return None
    v_s = sampled.ts * float(sampled.samples.sum())
    return (v_s - v_0) / v_0

