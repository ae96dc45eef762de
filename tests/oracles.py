"""Independent reference implementations used only to check the library.

Everything here is deliberately slow and literal: the brute-force DFT
evaluates the defining sum, and the bandwidth, window volume and sampling
error scan the requests one by one.  None of it imports library internals.
"""
import numpy as np


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
