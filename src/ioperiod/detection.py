"""Dominant-frequency extraction: Z-score outliers, harmonic suppression,
and confidence classification."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .spectral import Spectrum

DEFAULT_TOLERANCE = 0.8
DEFAULT_Z_MIN = 3.0


class Confidence(str, Enum):
    HIGH = "high"
    MODERATE = "moderate"
    LOW = "low"
    NO_CANDIDATE = "no_candidate"


@dataclass(frozen=True)
class Candidate:
    k: int
    frequency: float
    amplitude: float
    zscore: float


@dataclass(frozen=True)
class CandidateSet:
    entries: tuple[Candidate, ...]
    mean_amplitude: float
    std_amplitude: float

    def __len__(self) -> int:
        return len(self.entries)

    def frequencies(self) -> tuple[float, ...]:
        return tuple(c.frequency for c in self.entries)


@dataclass(frozen=True)
class PeriodicityResult:
    """Outcome of the dominant-frequency search on one spectrum."""

    frequency: float | None
    period: float | None
    confidence: Confidence
    candidates: CandidateSet
    suppressed_harmonics: tuple[float, ...] = field(default_factory=tuple)

    def to_dict(self, amplitude_scale: float = 1.0) -> dict:
        return {
            "frequency_hz": self.frequency,
            "period_s": self.period,
            "confidence": self.confidence.value,
            "candidates": [
                {
                    "k": c.k,
                    "frequency_hz": c.frequency,
                    "amplitude": c.amplitude * amplitude_scale,
                    "zscore": c.zscore,
                }
                for c in self.candidates.entries
            ],
            "suppressed": list(self.suppressed_harmonics),
        }


#: the result when there is nothing to score: no spectrum, or a degenerate one
NO_CANDIDATE_RESULT = PeriodicityResult(
    None, None, Confidence.NO_CANDIDATE,
    CandidateSet(entries=(), mean_amplitude=math.nan, std_amplitude=0.0))


def _zscore_array(spectrum: Spectrum) -> tuple[float, float, np.ndarray] | None:
    """Mean, population std and Z-scores of the non-DC adjusted amplitudes;
    None when Z-scores are undefined: fewer than two non-DC bins, or all equal."""
    amps = spectrum.adjusted_amplitudes[1:]
    if amps.shape[0] < 2:
        return None
    mean = float(amps.mean())
    std = float(amps.std())
    if std == 0.0:
        return None
    return mean, std, (amps - mean) / std


def _passing(k: np.ndarray, z: np.ndarray, spectrum_n: int, tolerance: float,
             z_min: float) -> np.ndarray:
    """Mask of the bins whose Z-score is >= tolerance * max(z) and >= z_min.

    The maximum is taken over k < n/2 (all bins if none is below it).
    """
    below_nyquist = k < spectrum_n / 2
    pool = z[below_nyquist] if below_nyquist.any() else z
    cut = tolerance * float(pool.max())
    return (z >= cut) & (z >= z_min)


def _candidates(spectrum: Spectrum, z: np.ndarray, idx: np.ndarray) -> tuple[Candidate, ...]:
    """Candidate objects for the non-DC bins at positions ``idx`` of ``z``."""
    freqs = spectrum.frequencies[1:][idx].tolist()
    amps = spectrum.adjusted_amplitudes[1:][idx].tolist()
    return tuple(
        Candidate(k=i + 1, frequency=f, amplitude=a, zscore=zi)
        for i, f, a, zi in zip(idx.tolist(), freqs, amps, z[idx].tolist())
    )


def suppress_harmonics(
    candidates: CandidateSet, bin_width: float
) -> tuple[CandidateSet, tuple[float, ...]]:
    """Drop candidates that are power-of-two multiples of a surviving one.

    A candidate f_j is a harmonic of a kept f_i when f_j = 2^m * f_i (m >= 1)
    within half a bin width; survivors are the lowest member of each chain.
    """
    tol = bin_width / 2.0
    kept: list[Candidate] = []
    suppressed: list[float] = []
    for c in sorted(candidates.entries, key=lambda c: c.frequency):
        is_harmonic = False
        for base in kept:
            if base.frequency <= 0:
                continue
            mult = 2.0 * base.frequency
            while mult <= c.frequency + tol:
                if abs(c.frequency - mult) <= tol:
                    is_harmonic = True
                    break
                mult *= 2.0
            if is_harmonic:
                break
        if is_harmonic:
            suppressed.append(c.frequency)
        else:
            kept.append(c)
    kept_set = CandidateSet(
        entries=tuple(sorted(kept, key=lambda c: c.k)),
        mean_amplitude=candidates.mean_amplitude,
        std_amplitude=candidates.std_amplitude,
    )
    return kept_set, tuple(suppressed)


def classify(
    candidates: CandidateSet, suppressed: tuple[float, ...] = ()
) -> PeriodicityResult:
    """Map the post-suppression candidate count to a confidence class.

    One candidate is a high-confidence dominant frequency; with two, the
    higher-amplitude one wins (ties break toward the lower frequency, whose
    longer period is the more actionable); three or more mean the signal is
    probably not periodic.
    """
    n = len(candidates)
    if n == 0:
        return PeriodicityResult(None, None, Confidence.NO_CANDIDATE, candidates, suppressed)
    if n == 1:
        f = candidates.entries[0].frequency
        return PeriodicityResult(f, 1.0 / f, Confidence.HIGH, candidates, suppressed)
    if n == 2:
        best = min(candidates.entries, key=lambda c: (-c.amplitude, c.frequency))
        return PeriodicityResult(
            best.frequency, 1.0 / best.frequency, Confidence.MODERATE, candidates, suppressed
        )
    return PeriodicityResult(None, None, Confidence.LOW, candidates, suppressed)


def detect(
    spectrum: Spectrum,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
) -> PeriodicityResult:
    """Full extraction chain: Z-scores, candidate filter, harmonic
    suppression, confidence classification.

    Every non-DC bin k in [1, n/2] is Z-scored against the mean and
    population standard deviation of the adjusted amplitudes; a bin is a
    candidate when its Z-score is >= tolerance * max(z) over k < n/2 (the
    even-n Nyquist bin excluded) and >= z_min.  Scores are computed on
    arrays; Candidate objects are made only for the bins that pass.

    A degenerate spectrum (fewer than two non-DC bins, or all amplitudes
    equal, e.g. a constant signal) yields ``NO_CANDIDATE_RESULT``.
    """
    scores = _zscore_array(spectrum)
    if scores is None:
        return NO_CANDIDATE_RESULT
    mean, std, z = scores
    k = np.arange(1, z.shape[0] + 1)
    idx = np.flatnonzero(_passing(k, z, spectrum.n, tolerance, z_min))
    cands = CandidateSet(entries=_candidates(spectrum, z, idx), mean_amplitude=mean,
                         std_amplitude=std)
    kept, suppressed = suppress_harmonics(cands, spectrum.bin_width)
    return classify(kept, suppressed)
