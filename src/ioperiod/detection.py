"""Dominant-frequency extraction: Z-score outliers, harmonic suppression,
and confidence classification."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

    @property
    def strongest(self) -> Candidate | None:
        """The highest-amplitude candidate, ties toward the lower frequency
        (whose longer period is the more actionable); None when empty."""
        return min(self.entries, key=lambda c: (-c.amplitude, c.frequency), default=None)


@dataclass(frozen=True)
class PeriodicityResult:
    """Outcome of the dominant-frequency search on one spectrum."""

    confidence: Confidence
    candidates: CandidateSet
    suppressed_harmonics: tuple[float, ...] = ()

    @property
    def has_dominant(self) -> bool:
        """Whether the confidence is high or moderate."""
        return self.confidence in (Confidence.HIGH, Confidence.MODERATE)

    @property
    def frequency(self) -> float | None:
        """The strongest candidate's frequency when there is a dominant one."""
        return self.candidates.strongest.frequency if self.has_dominant else None

    @property
    def period(self) -> float | None:
        return None if (f := self.frequency) is None else 1.0 / f

    def to_dict(self) -> dict:
        return {
            "frequency_hz": self.frequency,
            "period_s": self.period,
            "confidence": self.confidence.value,
            "candidates": [
                {
                    "k": c.k,
                    "frequency_hz": c.frequency,
                    "amplitude": c.amplitude,
                    "zscore": c.zscore,
                }
                for c in self.candidates.entries
            ],
            "suppressed": list(self.suppressed_harmonics),
        }


#: the result when there is nothing to score: no spectrum, or a degenerate one
NO_CANDIDATE_RESULT = PeriodicityResult(
    Confidence.NO_CANDIDATE, CandidateSet(entries=(), mean_amplitude=math.nan, std_amplitude=0.0))


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


def _passing(z: np.ndarray, spectrum_n: int, tolerance: float, z_min: float) -> np.ndarray:
    """Mask of the bins k = 1, 2, ... of ``z`` whose Z-score is >= tolerance *
    max(z) and >= z_min; the maximum is over k < n/2, the first (n - 1) // 2
    bins (all bins if none is below it)."""
    pool = z[:(spectrum_n - 1) // 2] if spectrum_n > 2 else z
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


def suppress_harmonics(candidates: CandidateSet) -> tuple[CandidateSet, tuple[float, ...]]:
    """Drop candidates that are power-of-two multiples of a surviving one.

    A candidate at bin k_j is a harmonic of a kept lower bin k_i when
    k_j = 2^m * k_i (m >= 1): k_i divides k_j with a power-of-two quotient.
    Survivors are the lowest member of each chain; the suppressed
    frequencies come in ascending order.
    """
    kept: list[Candidate] = []
    suppressed: list[float] = []
    for c in sorted(candidates.entries, key=lambda c: c.k):
        if any(c.k % base.k == 0 and (q := c.k // base.k) & (q - 1) == 0 for base in kept):
            suppressed.append(c.frequency)
        else:
            kept.append(c)
    return replace(candidates, entries=tuple(kept)), tuple(suppressed)


def classify(
    candidates: CandidateSet, suppressed: tuple[float, ...] = ()
) -> PeriodicityResult:
    """Map the post-suppression candidate count to a confidence class.

    One candidate is a high-confidence dominant frequency; with two, the
    strongest wins (``CandidateSet.strongest``); three or more mean the
    signal is probably not periodic.
    """
    confidence = (Confidence.NO_CANDIDATE, Confidence.HIGH,
                  Confidence.MODERATE, Confidence.LOW)[min(len(candidates), 3)]
    return PeriodicityResult(confidence, candidates, suppressed)


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
    idx = np.flatnonzero(_passing(z, spectrum.n, tolerance, z_min))
    cands = CandidateSet(entries=_candidates(spectrum, z, idx), mean_amplitude=mean,
                         std_amplitude=std)
    kept, suppressed = suppress_harmonics(cands)
    return classify(kept, suppressed)
