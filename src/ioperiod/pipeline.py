"""End-to-end analysis of one trace window: sample, DFT, dominant-frequency
detection, metrics.

The sampled signal fed to the detector is normalized to unit total volume
(the exact integer byte total divides every byte count).  This conditions
the numerics and makes every dimensionless output bit-for-bit invariant
under a uniform integer rescaling of the byte counts; byte-unit outputs are
rescaled back before reporting.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from .detection import (
    DEFAULT_TOLERANCE,
    DEFAULT_Z_MIN,
    CandidateSet,
    Confidence,
    PeriodicityResult,
    detect,
)
from .metrics import MetricsReport, compute_metrics
from .sampling import (
    BAD_SAMPLING_THRESHOLD,
    NoVolumeError,
    SampledSignal,
    SamplingQualityWarning,
    discretize,
    sample_requests,
    sampling_error,
    volume_error,
)
from .spectral import Spectrum, dft
from .trace import BandwidthSignal, Trace


@dataclass(frozen=True)
class AnalysisResult:
    """One detection run over a window: periodicity, metrics, sampling error."""

    result: PeriodicityResult
    metrics: MetricsReport | None
    sampling_error: float | None
    spectrum: Spectrum | None
    window: tuple[float, float]
    no_data: bool
    volume_scale: float = 1.0

    @property
    def frequency(self) -> float | None:
        return self.result.frequency

    @property
    def period(self) -> float | None:
        return self.result.period

    @property
    def confidence(self) -> Confidence:
        return self.result.confidence

    @property
    def has_dominant(self) -> bool:
        return self.confidence in (Confidence.HIGH, Confidence.MODERATE)

    def to_dict(self) -> dict:
        out = self.result.to_dict(amplitude_scale=self.volume_scale)
        out["metrics"] = self.metrics.to_dict() if self.metrics else None
        out["sampling_error"] = self.sampling_error
        out["window"] = list(self.window)
        out["no_data"] = self.no_data
        return out


def _empty_result(window: tuple[float, float], err: float | None = None) -> AnalysisResult:
    empty = CandidateSet(entries=(), mean_amplitude=float("nan"), std_amplitude=0.0)
    return AnalysisResult(
        result=PeriodicityResult(None, None, Confidence.NO_CANDIDATE, empty),
        metrics=None,
        sampling_error=err,
        spectrum=None,
        window=window,
        no_data=True,
    )


def analyze_signal(
    signal: BandwidthSignal,
    fs: float,
    window: tuple[float, float] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    volume_scale: float = 1.0,
) -> AnalysisResult:
    """Run detection and metrics on a bandwidth signal over one window."""
    win = window if window is not None else signal.domain
    sampled = discretize(signal, fs, window=win)
    try:
        err = sampling_error(signal, sampled)
    except NoVolumeError:
        err = None
    return _analyze_sampled(sampled, err, win, tolerance, z_min, volume_scale)


def analyze_trace(
    trace: Trace,
    fs: float,
    window: tuple[float, float] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
    kind: str = "both",
) -> AnalysisResult:
    """Run the full pipeline on a trace; empty input yields a no-data result.

    The grid is sampled straight from the requests; the result equals
    ``analyze_signal`` on ``merge_bandwidth(trace, unit_volume=True)`` up to
    float rounding.
    """
    selected = trace.filter_kind(kind)
    if len(selected) == 0 or selected.volume == 0:
        win = window if window is not None else (0.0, 0.0)
        return _empty_result(win)
    win, sampled, v_0 = sample_requests(selected, fs, window)
    try:
        err = volume_error(sampled, v_0)
    except NoVolumeError:
        err = None
    return _analyze_sampled(sampled, err, win, tolerance, z_min, float(selected.volume))


def _analyze_sampled(
    sampled: SampledSignal,
    err: float | None,
    win: tuple[float, float],
    tolerance: float,
    z_min: float,
    volume_scale: float,
) -> AnalysisResult:
    """DFT, detection and metrics of one sampled window."""
    if err is not None and abs(err) > BAD_SAMPLING_THRESHOLD:
        warnings.warn(
            f"abstraction error {err:.3g} exceeds {BAD_SAMPLING_THRESHOLD}; "
            "the signal is under-sampled and the analysis is unreliable "
            "(raise the sampling frequency)",
            SamplingQualityWarning,
            stacklevel=3,
        )
    if sampled.n < 2 or float(sampled.samples.sum()) == 0.0:
        # nothing to transform, but the sampling verdict still stands
        return _empty_result(win, err)
    spectrum = dft(sampled)
    result = detect(spectrum, tolerance=tolerance, z_min=z_min)
    # characterize against the strongest candidate even when confidence is
    # too low to commit to a dominant frequency; the metrics then say how
    # far from periodic the signal is
    metrics_freq = result.frequency
    if metrics_freq is None and len(result.candidates) > 0:
        metrics_freq = max(result.candidates.entries, key=lambda c: c.amplitude).frequency
    report = compute_metrics(sampled, metrics_freq, volume_scale=volume_scale)
    return AnalysisResult(
        result=result,
        metrics=report,
        sampling_error=err,
        spectrum=spectrum,
        window=win,
        no_data=False,
        volume_scale=volume_scale,
    )
