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
    PeriodicityResult,
    classify,
    detect,
    suppress_harmonics,
)
from .metrics import MetricsReport, compute_metrics
from .online import PredictionRecord, on_new_data, replay, watch
from .pipeline import AnalysisResult, analyze_trace
from .sampling import (
    BAD_SAMPLING_THRESHOLD,
    SampledSignal,
    SamplingQualityWarning,
)
from .spectral import Spectrum, dft, reconstruct
from .synth import (
    GroundTruth,
    SynthConfig,
    SynthConfigError,
    bundled_phase_templates,
    detection_error,
    generate,
    sweep,
    sweep_to_csv,
)
from .trace import (
    Trace,
    TraceParseError,
    TraceValidationError,
    parse_trace,
    write_trace,
)

__version__ = "0.1.0"
