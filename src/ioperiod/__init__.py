"""Periodicity detection for application I/O phases.

Treats bandwidth-over-time as a signal, discretizes it, takes the DFT, and
extracts a dominant period with confidence metrics.  Includes a
semi-synthetic trace generator and benchmark harness, plus online
prediction over growing trace files.
"""
from .detection import (
    Candidate,
    CandidateSet,
    Confidence,
    DegenerateSpectrumError,
    PeriodicityResult,
    classify,
    detect,
    find_candidates,
    suppress_harmonics,
    zscores,
)
from .metrics import (
    InsufficientPeriodsError,
    MetricsReport,
    SubstantialIo,
    compute_metrics,
    data_per_period,
    periodicity_score,
    sigma_time,
    sigma_vol,
    substantial_io,
)
from .online import PredictionRecord, on_new_data, replay, watch
from .pipeline import AnalysisResult, analyze_trace
from .sampling import (
    BAD_SAMPLING_THRESHOLD,
    NoVolumeError,
    SampledSignal,
    SamplingQualityWarning,
    discretize,
    sampling_error,
)
from .spectral import Spectrum, dft, fft, reconstruct
from .synth import (
    GroundTruth,
    PhaseTemplate,
    SynthConfig,
    SynthConfigError,
    bundled_phase_templates,
    detection_error,
    generate,
    sweep,
    sweep_to_csv,
)
from .trace import (
    BandwidthSignal,
    IoRequest,
    Trace,
    TraceParseError,
    TraceValidationError,
    merge_bandwidth,
    parse_trace,
    write_trace,
)

__version__ = "0.1.0"
