"""Detect the I/O period of a semi-synthetic application trace.

Generates a 20-iteration trace (compute gap plus write phase, 32 processes)
and runs the full offline pipeline: point sampling straight from the
requests, DFT, Z-score candidate filtering, and the characterization
metrics.
"""
import ioperiod as iop

templates = iop.bundled_phase_templates(count=10, request_bytes=16_000_000, seed=1)
config = iop.SynthConfig(
    iterations=20,
    compute_mean=11.0,
    compute_std=2.0,
    templates=tuple(templates),
    seed=42,
)
trace, truth = iop.generate(config)
print(f"generated {len(trace)} requests, {trace.volume / 1e9:.1f} GB "
      f"over {trace.length:.1f} s")
print(f"ground-truth mean iteration length: {truth.lambda_avg:.2f} s")

analysis = iop.analyze_trace(trace, fs=1.0, window=(0.0, trace.t_max))
print(f"\nconfidence: {analysis.confidence.value}")
print(f"detected period: {analysis.period:.2f} s "
      f"({analysis.frequency * 1000:.3f} mHz)")
print(f"detection error: {iop.detection_error(analysis.period, truth):.2%}")

m = analysis.metrics
print(f"\nR_IO (time share of substantial I/O): {m.r_io:.2f}")
print(f"B_IO (characteristic bandwidth):       {m.b_io / 1e9:.2f} GB/s")
print(f"sigma_vol / sigma_time: {m.sigma_vol:.3f} / {m.sigma_time:.3f}")
print(f"periodicity score: {m.score:.3f}")
print(f"data per period: {m.data_per_period / 1e9:.1f} GB")
