"""DFT of a sampled signal: single-sided spectrum and cosine reconstruction.

The transform is ``numpy.fft.rfft`` at exactly the sample count it is
given: zero-padding would move the frequency bins off the 1/window grid
that the downstream analysis relies on.  Its speed depends on that count:
a length with no prime factor above 11 is fastest, and one with a prime
factor above its square root runs as Bluestein's algorithm, several times
slower.  ``_good_size`` gives the next 11-smooth length, at which
``pipeline._transform`` samples a long window a second time: its spectrum
describes that grid, with the bin frequencies of the requested one.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from .sampling import SampledSignal, _rounding_bound
from .trace import open_output


@dataclass(frozen=True)
class Spectrum:
    """Single-sided DFT spectrum of a real sampled signal.

    Bins k in [0, n//2] of the n samples at rate fs from t0, at k*fs/n; but
    when ``pipeline._transform`` moves N samples at rate F to m =
    ``_good_size(N)`` points, n = m and fs = F*m/N while the frequencies
    stay k*F/N, so the bins above N//2 lie past the requested Nyquist F/2.
    ``amplitudes`` are the raw |X_k|; ``adjusted_amplitudes`` double every
    bin that has a conjugate partner (1 <= k < n/2, plus the odd-n top bin)
    so they read as single-sided cosine amplitudes.  The DC bin and, for
    even n, the Nyquist bin are not doubled.
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

    def to_csv(self, dest: IO[str] | str | os.PathLike) -> None:
        """Write one row per bin."""
        with open_output(dest) as f:
            writer = csv.writer(f)
            writer.writerow(("k", "f_k", "amplitude", "adjusted_amplitude", "phase"))
            writer.writerows(zip(
                range(self.frequencies.shape[0]), self.frequencies.tolist(),
                self.amplitudes.tolist(), self.adjusted_amplitudes.tolist(),
                self.phases.tolist()))


def _good_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n (pocketfft's good_size_cmplx)."""
    odd = [1]  # the odd 11-smooth numbers below 2n
    for p in (3, 5, 7, 11):
        for q in odd[:]:
            while (q := q * p) < 2 * n:
                odd.append(q)
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


def dft(sampled: SampledSignal) -> Spectrum:
    """Transform a sampled signal into its single-sided spectrum."""
    n = sampled.n
    if n < 2:
        raise ValueError("need at least 2 samples")
    half = n // 2
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

    Times are quantized to sample indices (zero-order hold): a time whose
    grid coordinate (t - t0)*fs lies within the sampler's rounding bound
    (``sampling._rounding_bound``) below i takes sample i, so selecting
    every bin at the sample instants reproduces the samples at any t0.
    """
    n = spectrum.n
    half = n // 2
    bins = sorted(set(int(k) for k in np.atleast_1d(np.asarray(selected_bins))))
    for k in bins:
        if k < 0 or k > half:
            raise ValueError(f"bin {k} out of range [0, {half}]")
    x = (np.asarray(times, dtype=np.float64) - spectrum.t0) * spectrum.fs
    idx = np.floor(x + _rounding_bound(spectrum.t0, spectrum.fs, n))
    out = np.zeros_like(x, dtype=np.float64)
    for k in bins:
        amp = spectrum.adjusted_amplitudes[k] / n
        out += amp * np.cos(2.0 * np.pi * k * idx / n + spectrum.phases[k])
    return out
