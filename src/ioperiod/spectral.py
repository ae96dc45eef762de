"""DFT of a sampled signal: single-sided spectrum and cosine reconstruction.

The transform is ``numpy.fft``, which handles any length.  The sample counts
encountered in practice (one per sampling interval of the analysis window)
are almost never powers of two, and the signal is transformed at exactly
that length: zero-padding would move the frequency bins off the 1/window
grid that the downstream analysis relies on.

Where ``np.fft.rfft`` would run Bluestein's algorithm over n complex points
(n has a prime factor p > sqrt(n)), ``dft`` takes one of two shorter paths:

- an even n from 640 samples up is packed into n/2 complex points, whose
  FFT plus an O(n) untangle step gives the bins (the standard real-FFT
  packing);
- an FFT of L = q*p points, the odd n itself or the packed n/2, with q >= 3
  and L >= 4096 runs as a p x q grid (Good-Thomas), so Bluestein runs at
  length p on q columns.

Every other length, prime n and n = 2p or 4p among them, stays on ``rfft``
or on the packing alone: below those floors, or at q = 2, the shorter path
measured no faster.
"""
from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from .sampling import SampledSignal, snap_floor
from .trace import open_output


@dataclass(frozen=True)
class Spectrum:
    """Single-sided DFT spectrum of a real sampled signal.

    Bins cover k in [0, n//2] at frequencies k*fs/n.  ``amplitudes`` are the
    raw |X_k|; ``adjusted_amplitudes`` double every bin that has a conjugate
    partner (1 <= k < n/2, plus the odd-n top bin) so they read as
    single-sided cosine amplitudes.  The DC bin and, for even n, the Nyquist
    bin are not doubled.
    """

    fs: float
    n: int
    t0: float
    frequencies: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    adjusted_amplitudes: np.ndarray

    def __post_init__(self):
        for name in ("frequencies", "amplitudes", "phases", "adjusted_amplitudes"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def bin_width(self) -> float:
        """Spacing of the frequency grid, fs/n = 1/window length."""
        return self.fs / self.n

    def to_csv(self, dest: IO[str] | str | os.PathLike, amplitude_scale: float = 1.0) -> None:
        """Write one row per bin, amplitudes times ``amplitude_scale``."""
        with open_output(dest) as f:
            writer = csv.writer(f)
            writer.writerow(("k", "f_k", "amplitude", "adjusted_amplitude", "phase"))
            writer.writerows(zip(
                range(self.frequencies.shape[0]), self.frequencies.tolist(),
                (self.amplitudes * amplitude_scale).tolist(),
                (self.adjusted_amplitudes * amplitude_scale).tolist(),
                self.phases.tolist()))


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 2 with multiplicity, in ascending order."""
    factors, f = [], 2
    while f * f <= n:
        if n % f:
            f += 1
        else:
            factors.append(f)
            n //= f
    return factors + [n]


def _cost(n: int) -> float:
    """pocketfft's cost guess for n points; factors past 5 weigh 1.1x."""
    return n * sum(f if f <= 5 else 1.1 * f for f in _prime_factors(n))


def _good_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n (pocketfft's good_size_cmplx)."""
    odd = [1]  # the odd 11-smooth numbers below 2n
    for p in (3, 5, 7, 11):
        for q in odd[:]:
            while (q := q * p) < 2 * n:
                odd.append(q)
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


def _rfft_is_bluestein(n: int) -> bool:
    """Whether numpy's rfft plans n points as Bluestein (pocketfft_r's rule)."""
    if n < 50 or _prime_factors(n)[-1] ** 2 <= n:
        return False
    return 3 * _cost(_good_size(2 * n - 1)) < 0.5 * _cost(n)


#: shortest even n that ``dft`` packs, and shortest FFT (the odd n, or the
#: packed n/2) that it splits; below them the simpler path was as fast or
#: faster.  Timeit minima, numpy 2.4 on a 2-core x86-64 VM: rfft 27 against
#: packed 31 us at n = 478, 42 against 40 us at n = 650-700; split against
#: unsplit time 1.24-1.34 at odd n of 1000-1500, 0.71-0.78 at 3500-4000, and
#: 0.95-1.01 on halves of 4000-5000 points.
_PACKED_FLOOR = 640
_SPLIT_FLOOR = 4096


@functools.lru_cache(maxsize=1024)
def _plan(n: int) -> tuple[bool, int]:
    """How ``dft`` transforms n samples, decided once per length: whether it
    packs an even n into n/2 complex points, and the prime p by which it
    splits the FFT it runs (0 for none).  Only lengths that ``rfft`` runs as
    Bluestein leave ``rfft``.  The FFT of L points splits when
    L >= ``_SPLIT_FLOOR`` and q = L/p >= 3, p the largest prime factor of n;
    at q = 2 two Bluestein transforms of p points do the work of one of 2p,
    plus the gather, and measured 1.2-1.5x slower."""
    packed = n % 2 == 0
    if not _rfft_is_bluestein(n) or (packed and n < _PACKED_FLOOR):
        return False, 0
    length = n // 2 if packed else n
    p = _prime_factors(n)[-1]
    return packed, p if length >= _SPLIT_FLOOR and length // p >= 3 else 0


def _pfa_fft(z: np.ndarray, p: int) -> np.ndarray:
    """``np.fft.fft`` of n = q*p points, for a prime p > sqrt(n), as a p x q
    FFT with no twiddle factors (Good-Thomas: p and q are coprime).  The grid
    holds z[(j1*q + j2*p) mod n] at (j1, j2), and X_k = B[k mod p, k mod q]."""
    n = z.shape[0]
    q = n // p
    rows = np.arange(0, n, q)  # j1*q, and also (k mod p)*q as k runs
    grid = np.fft.fft2(np.take(z, np.add.outer(rows, np.arange(0, n, p)), mode="wrap"))
    return grid.ravel()[np.resize(rows, n) + np.resize(np.arange(q), n)]


def _packed_rfft(samples: np.ndarray, p: int) -> np.ndarray:
    """``rfft`` of an even-length signal from the m = n/2-point FFT Z of its
    pairs x_2j + i x_2j+1, split by p unless p is 0: X_k = W_k + A_k (Z_k - W_k),
    W_k = conj(Z_{m-k}), A_k = (1 - i e^{-i pi k/m}) / 2; X_0 and X_m are
    exact reals, as in rfft."""
    m = samples.shape[0] // 2
    pairs = samples.view(np.complex128)
    z = _pfa_fft(pairs, p) if p else np.fft.fft(pairs)
    z = np.append(z, z[0])  # Z_m = Z_0
    w = z[::-1].conj()
    theta = np.arange(m + 1) * (math.pi / m)
    bins = w + 0.5 * (1.0 - np.sin(theta) - 1j * np.cos(theta)) * (z - w)
    bins[0], bins[m] = z[0].real + z[0].imag, z[0].real - z[0].imag
    return bins


def dft(sampled: SampledSignal) -> Spectrum:
    """Transform a sampled signal into its single-sided spectrum."""
    n = sampled.n
    if n < 2:
        raise ValueError("need at least 2 samples")
    half = n // 2
    packed, p = _plan(n)
    if packed:
        bins = _packed_rfft(sampled.samples, p)
    elif p:
        bins = _pfa_fft(sampled.samples, p)[:half + 1]
        bins[0] = bins[0].real  # exactly real, as rfft leaves it
    else:
        bins = np.fft.rfft(sampled.samples)  # bins 0..n//2, no padding
    amplitudes = np.abs(bins)
    phases = np.arctan2(bins.imag, bins.real)
    phases[phases == -math.pi] = math.pi  # phase in (-pi, pi]
    adjusted = 2.0 * amplitudes
    adjusted[0] = amplitudes[0]  # DC has no conjugate partner
    if n % 2 == 0:
        adjusted[half] = amplitudes[half]  # nor has the Nyquist bin
    return Spectrum(
        fs=sampled.fs,
        n=n,
        t0=sampled.t0,
        frequencies=np.arange(half + 1) * (sampled.fs / n),
        amplitudes=amplitudes,
        phases=phases,
        adjusted_amplitudes=adjusted,
    )


def reconstruct(spectrum: Spectrum, selected_bins, times) -> np.ndarray:
    """Sum the cosine components of the selected bins at the given times.

    Times are quantized to sample indices (zero-order hold), so selecting
    every bin at the original sample instants reproduces the input samples.
    """
    n = spectrum.n
    half = n // 2
    bins = sorted(set(int(k) for k in np.atleast_1d(np.asarray(selected_bins))))
    for k in bins:
        if k < 0 or k > half:
            raise ValueError(f"bin {k} out of range [0, {half}]")
    t = np.asarray(times, dtype=np.float64)
    idx = snap_floor((t - spectrum.t0) * spectrum.fs)
    out = np.zeros_like(t, dtype=np.float64)
    for k in bins:
        amp = spectrum.adjusted_amplitudes[k] / n
        out += amp * np.cos(2.0 * np.pi * k * idx / n + spectrum.phases[k])
    return out
