"""DFT of a sampled signal: single-sided spectrum and cosine reconstruction.

The transform is ``numpy.fft``, which handles any length.  The sample counts
encountered in practice (one per sampling interval of the analysis window)
are almost never powers of two, and the signal is transformed at exactly
that length: zero-padding would move the frequency bins off the 1/window
grid that the downstream analysis relies on.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .sampling import SampledSignal, _snap_floor_array


def fft(x) -> np.ndarray:
    """Unnormalized complex DFT of a real or complex vector, any length >= 1."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] == 0:
        raise ValueError("empty input")
    return np.fft.fft(x)


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

    def rows(self) -> Iterable[dict]:
        for k in range(self.frequencies.shape[0]):
            yield {
                "k": k,
                "f_k": float(self.frequencies[k]),
                "amplitude": float(self.amplitudes[k]),
                "adjusted_amplitude": float(self.adjusted_amplitudes[k]),
                "phase": float(self.phases[k]),
            }

    def to_csv(self, dest: IO[str] | str | os.PathLike, amplitude_scale: float = 1.0) -> None:
        own = isinstance(dest, (str, os.PathLike))
        f = open(dest, "w", newline="") if own else dest
        try:
            writer = csv.DictWriter(
                f, fieldnames=["k", "f_k", "amplitude", "adjusted_amplitude", "phase"]
            )
            writer.writeheader()
            for row in self.rows():
                row["amplitude"] *= amplitude_scale
                row["adjusted_amplitude"] *= amplitude_scale
                writer.writerow(row)
        finally:
            if own:
                f.close()


def dft(sampled: SampledSignal) -> Spectrum:
    """Transform a sampled signal into its single-sided spectrum."""
    n = sampled.n
    if n < 2:
        raise ValueError("need at least 2 samples")
    half = n // 2
    bins = np.fft.rfft(sampled.samples)  # bins 0..n//2, no padding
    amplitudes = np.abs(bins)
    phases = np.arctan2(bins.imag, bins.real)
    phases = np.where(phases == -math.pi, math.pi, phases)  # phase in (-pi, pi]
    adjusted = amplitudes.copy()
    adjusted[1:] *= 2.0
    if n % 2 == 0:
        adjusted[half] = amplitudes[half]  # Nyquist bin has no conjugate partner
    k = np.arange(half + 1, dtype=np.float64)
    return Spectrum(
        fs=sampled.fs,
        n=n,
        t0=sampled.t0,
        frequencies=k * (sampled.fs / n),
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
    idx = _snap_floor_array((t - spectrum.t0) * spectrum.fs)
    out = np.zeros_like(t, dtype=np.float64)
    for k in bins:
        amp = spectrum.adjusted_amplitudes[k] / n
        out += amp * np.cos(2.0 * np.pi * k * idx / n + spectrum.phases[k])
    return out
