"""End-to-end analysis of one trace window: sample, DFT, dominant-frequency
detection, metrics.

``analyze_trace`` is the one analysis path; every front end (``detect``,
``predict``, ``replay``, ``bench``) calls it on a parsed or generated
trace.  The grid is point-sampled straight from the requests
(``sampling.sample_requests``), normalized to unit total volume (the exact
integer byte total divides every byte count).  This conditions the numerics
and makes every dimensionless output bit-for-bit invariant under a uniform
integer rescaling of the byte counts; byte-unit outputs are rescaled back
before reporting.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .detection import (
    DEFAULT_TOLERANCE,
    DEFAULT_Z_MIN,
    NO_CANDIDATE_RESULT,
    Confidence,
    PeriodicityResult,
    detect,
)
from .metrics import MetricsReport, compute_metrics
from .sampling import (
    BAD_SAMPLING_THRESHOLD,
    SampledSignal,
    SamplingQualityWarning,
    _sample_grid,
    sample_requests,
    volume_error,
)
from .spectral import Spectrum, _good_size, dft
from .trace import Trace


@dataclass(frozen=True)
class AnalysisResult:
    """One detection run over a window: periodicity, metrics, sampling error."""

    result: PeriodicityResult
    metrics: MetricsReport | None
    sampling_error: float | None
    spectrum: Spectrum | None
    window: tuple[float, float]
    volume_scale: float = 1.0

    @property
    def no_data(self) -> bool:
        return self.spectrum is None

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
        return self.result.has_dominant

    def to_dict(self) -> dict:
        out = self.result.to_dict(amplitude_scale=self.volume_scale)
        out["metrics"] = self.metrics.to_dict() if self.metrics else None
        out["sampling_error"] = self.sampling_error
        out["window"] = list(self.window)
        out["no_data"] = self.no_data
        return out


def _empty_result(window: tuple[float, float], err: float | None = None) -> AnalysisResult:
    return AnalysisResult(
        result=NO_CANDIDATE_RESULT,
        metrics=None,
        sampling_error=err,
        spectrum=None,
        window=window,
    )


#: fewest samples whose grid ``_transform`` moves to an 11-smooth length.
#: Mean time over 80 lengths that are not 11-smooth (40 near 34000), with
#: a 2.3k-request trace: ``rfft`` 0.46 ms against 0.44 ms for the second
#: sampling and the smooth transform near n = 5000, 0.73 against 0.43 ms
#: near 8192, 5.1 against 1.3 ms near 34000 (numpy 2.4, one core of a
#: 2-core x86-64 VM).  The second sampling costs about 0.1 us more per
#: request, so at the floor a trace of nearly n requests about ties.
_SMOOTH_FLOOR = 8192


def _transform(trace: Trace, sampled: SampledSignal) -> Spectrum:
    """The spectrum of the requested grid of a trace, bin k at k*fs/n.

    numpy's ``rfft`` of a length with a prime factor above 11 runs slower
    than at the next 11-smooth length m = ``_good_size(n)``, up to ten
    times when it runs Bluestein's algorithm.  So a grid of n samples, n
    not 11-smooth, n >= ``_SMOOTH_FLOOR`` and more than the trace's
    requests, is transformed at m points instead: the same covered span
    [t0, t0 + n*ts] sampled a second time, at fs*m/n.  Its bins keep the
    spacing fs/n as the requested grid computes it, so each frequency and
    period is the one an exact-length transform reports.  Every other grid
    is transformed as it is: with as many requests as samples, the second
    sampling costs more than the transform saves.
    """
    n = sampled.n
    if n < _SMOOTH_FLOOR or len(trace) >= n or (m := _good_size(n)) == n:
        return dft(sampled)
    fs = sampled.fs * m / n
    if fs == math.inf:   # fs was within 1.6% of the float range
        return dft(sampled)
    # the grid is built from its count, not from a window: m samples of a
    # window (t0, t0 + m/fs) can come out one short at a large t0
    grid, _ = _sample_grid(trace, sampled.t0, fs, m)
    return replace(dft(grid), frequencies=np.arange(m // 2 + 1) * (sampled.fs / n))


def check_analysis_args(fs: float, tolerance: float, z_min: float,
                        window: tuple[float, float] | None = None) -> None:
    """Raise ValueError unless fs is positive and finite, tolerance is in
    (0, 1], z_min is non-negative and a window has finite bounds with
    LO < HI (NaN fails each test)."""
    if not 0 < fs < math.inf:
        raise ValueError(f"sampling frequency must be positive and finite, got {fs}")
    if not 0 < tolerance <= 1:
        raise ValueError(f"tolerance must be in (0, 1], got {tolerance}")
    if not z_min >= 0:
        raise ValueError(f"z_min must be non-negative, got {z_min}")
    if window is not None and not -math.inf < window[0] < window[1] < math.inf:
        raise ValueError(f"window needs finite bounds with LO < HI, got {window[0]} {window[1]}")


def analyze_trace(
    trace: Trace,
    fs: float,
    window: tuple[float, float] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
) -> AnalysisResult:
    """Run the full pipeline on a trace; empty input yields a no-data result.

    Checks every argument first, the window too (``check_analysis_args``),
    so that a trace with no volume never echoes a bad one.  Samples the
    unit-volume bandwidth with ``sample_requests``, checks the sampling
    with ``volume_error`` (warning past ``BAD_SAMPLING_THRESHOLD``), then
    runs ``_transform``, ``detect`` and ``compute_metrics``.  The request
    kind is chosen when parsing (``parse_trace(kind_filter=...)``).
    """
    check_analysis_args(fs, tolerance, z_min, window)
    volume = float(trace.volume)
    if volume == 0.0:
        return _empty_result(window if window is not None else (0.0, 0.0))
    win, sampled, v_0 = sample_requests(trace, fs, window)
    err = volume_error(sampled, v_0)
    if err is not None and abs(err) > BAD_SAMPLING_THRESHOLD:
        warnings.warn(
            f"abstraction error {err:.3g} exceeds {BAD_SAMPLING_THRESHOLD}; "
            "the signal is under-sampled and the analysis is unreliable "
            "(raise the sampling frequency)",
            SamplingQualityWarning,
            stacklevel=2,
        )
    if sampled.n < 2 or float(sampled.samples.sum()) == 0.0:
        # nothing to transform, but the sampling verdict still stands
        return _empty_result(win, err)
    spectrum = _transform(trace, sampled)
    result = detect(spectrum, tolerance=tolerance, z_min=z_min)
    # characterize against the strongest candidate even when confidence is
    # too low to commit to a dominant frequency; the metrics then say how
    # far from periodic the signal is
    strongest = result.candidates.strongest
    report = compute_metrics(sampled, strongest and strongest.frequency, volume_scale=volume)
    return AnalysisResult(
        result=result,
        metrics=report,
        sampling_error=err,
        spectrum=spectrum,
        window=win,
        volume_scale=volume,
    )
