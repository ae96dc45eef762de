"""Independent reference implementations used only to check the library.

Everything here is deliberately slow and literal: the brute-force DFT
evaluates the defining sum, the bandwidth, window volume and sampling
error scan the requests one by one, the trace reader decodes and loads
each line on its own, and the grid sampler searches every request.  None
of it imports library internals; it uses only the package's public names.
"""
import json
import sys

import numpy as np

from ioperiod import TraceParseError, TraceValidationError
from ioperiod.sampling import SampledSignal, snap_floor
from ioperiod.trace import request_rates


def brute_dft(x, chunk=256):
    """Direct O(N^2) evaluation of X_k = sum_n x_n e^{-2pi i k n / N}.

    Evaluated in chunks of output bins so the (N, N) exponent matrix never
    has to exist at once (N=7605 would need ~925 MB).
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    idx = np.arange(n)
    out = np.empty(n, dtype=np.complex128)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        k = np.arange(lo, hi)[:, None]
        out[lo:hi] = (np.exp(-2j * np.pi * k * idx[None, :] / n) @ x)
    return out


def brute_bandwidth_at(requests, t):
    """Sum of bytes/(end-start) over all requests whose [start, end) covers t."""
    total = 0.0
    for start, end, nbytes in requests:
        if start <= t < end:
            total += nbytes / (end - start)
    return total


def brute_window_volume(requests, lo, hi):
    """Volume the requests move inside [lo, hi), each at its uniform rate."""
    total = 0.0
    for start, end, nbytes in requests:
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            total += nbytes / (end - start) * overlap
    return total


def brute_sampling_error(requests, t0, ts, n):
    """(V_s - V_0) / V_0 for n point samples taken every ts from t0."""
    v_s = ts * sum(brute_bandwidth_at(requests, t0 + i * ts) for i in range(n))
    v_0 = brute_window_volume(requests, t0, t0 + n * ts)
    return (v_s - v_0) / v_0


def population_std(values):
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean()
    return float(np.sqrt(np.mean((values - mean) ** 2)))


def brute_candidates(adjusted, n, tolerance, z_min):
    """Per-bin Z-score candidate filter over a single-sided spectrum.

    ``adjusted`` holds the adjusted amplitudes of bins 0..n//2.  Returns
    None when every non-DC amplitude is equal (no Z-score exists), else
    ``(mean, std, z, cut, kept)``: the mean and population std of bins
    1..n//2, the Z-score of each of those bins (bin k at index k-1), the cut
    tolerance * max(z over 1 <= k < n/2), falling back to all bins when none
    is below n/2, and the list of bins k with z >= cut and z >= z_min.
    """
    amps = [float(a) for a in adjusted[1:]]
    mean = sum(amps) / len(amps)
    std = (sum((a - mean) ** 2 for a in amps) / len(amps)) ** 0.5
    if std == 0.0:
        return None
    z = [(a - mean) / std for a in amps]
    pool = [z[k - 1] for k in range(1, len(amps) + 1) if k < n / 2] or z
    cut = tolerance * max(pool)
    kept = [k for k in range(1, len(amps) + 1) if z[k - 1] >= cut and z[k - 1] >= z_min]
    return mean, std, z, cut, kept


def loads_per_line(data, kind_filter="both", first_line=1):
    """Columns and metadata of trace-file bytes, read line by line.

    Each whole line is decoded on its own and read by ``json.loads``, and
    each field is checked in turn; errors carry the same types and messages
    as ``parse_trace``'s.  Returns ``({column: list}, metadata)``.
    """
    last_nl = data.rfind(b"\n")
    raw_lines = data[:last_nl].split(b"\n") if last_nl >= 0 else []
    columns = {"rank": [], "start": [], "end": [], "nbytes": [], "kind_code": []}
    metadata = {}
    for lineno, raw in enumerate(raw_lines, start=first_line):
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"invalid JSON: {exc.msg}", lineno) from exc
        except ValueError as exc:
            raise TraceParseError(f"invalid JSON: {exc}", lineno) from exc
        except RecursionError as exc:
            raise TraceParseError("invalid JSON: nested too deeply", lineno) from exc
        if not isinstance(rec, dict):
            raise TraceParseError("record is not an object", lineno)
        if rec.get("meta"):
            metadata.update({k: str(v) for k, v in rec.items() if k != "meta"})
            continue
        for field in ("rank", "start", "end", "bytes", "kind"):
            if field not in rec:
                raise TraceParseError(f"missing field {field!r}", lineno)
        rank, start, end, nbytes, kind = (rec[f] for f in ("rank", "start", "end", "bytes", "kind"))
        for name, value in (("rank", rank), ("bytes", nbytes)):
            if type(value) is not int:
                raise TraceParseError(f"{name} must be an integer, got {value!r}", lineno)
        for name, value in (("start", start), ("end", end)):
            if type(value) not in (float, int):
                raise TraceParseError(f"{name} must be a number, got {value!r}", lineno)
            if not abs(value) <= sys.float_info.max:
                raise TraceParseError(f"{name} must be finite, got {value!r}", lineno)
        if kind not in ("read", "write"):
            raise TraceParseError(f"unknown kind {kind!r}", lineno)
        if end < start:
            raise TraceValidationError(f"line {lineno}: negative duration")
        if nbytes < 0:
            raise TraceValidationError(f"line {lineno}: negative byte count")
        if rank < 0:
            raise TraceValidationError(f"line {lineno}: negative rank")
        for name, value in (("rank", rank), ("bytes", nbytes)):
            if value > 2 ** 63 - 1:
                raise TraceParseError(f"{name} {value} exceeds the 64-bit integer range", lineno)
        if kind_filter in ("both", kind):
            for column, value in zip(columns.values(),
                                     (rank, start, end, nbytes, int(kind == "write"))):
                column.append(value)
    return columns, metadata


def sample_every_request(trace, fs, window=None):
    """``sample_requests`` with every request searched on the sample grid.

    The same window, grid, summation order and V_0, with no selection of
    the requests near the window; the sampler must match it bit for bit.
    """
    start, end, rate = request_rates(trace)
    win = window if window is not None else (float(start.min()), float(end.max()))
    t_lo = win[0]
    n, ts = snap_floor((win[1] - t_lo) * fs), 1.0 / fs
    grid = t_lo + np.arange(n) * ts
    first = np.searchsorted(grid, start)
    stop = np.searchsorted(grid, end)
    covering = np.flatnonzero(first < stop)
    order = covering[np.argsort(rate[covering])]
    weights = rate[order]
    steps = (np.bincount(first[order], weights, minlength=n + 1)
             - np.bincount(stop[order], weights, minlength=n + 1))
    samples = np.cumsum(steps[:n], dtype=np.float64)
    np.maximum(samples, 0.0, out=samples)
    overlap = np.minimum(end, t_lo + n * ts) - np.maximum(start, t_lo)
    np.maximum(overlap, 0.0, out=overlap)
    v_0 = float(np.sort(rate * overlap).sum())
    return win, SampledSignal(t0=float(t_lo), ts=ts, samples=samples), v_0
