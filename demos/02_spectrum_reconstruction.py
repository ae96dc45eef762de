"""Look inside the frequency-domain step: spectrum of a pulse train and the
signal rebuilt from its strongest components.

A noiseless train of twenty write bursts (10 s apart, 2 s long) puts all of
its energy on multiples of 0.1 Hz; rebuilding from the offset bin plus the
fundamental already traces the envelope of the original signal.
"""
import numpy as np

import ioperiod as iop
from ioperiod.sampling import sample_requests

period, duty, pulses = 10.0, 0.2, 20
starts = np.arange(pulses) * period
# columns: rank, start, end, bytes, kind code (1 = write)
trace = iop.Trace(np.zeros(pulses, dtype=np.int64), starts, starts + duty * period,
                  np.full(pulses, 2 * 10 ** 9), np.ones(pulses, dtype=np.int8))
_, unit, _ = sample_requests(trace, fs=5.0, window=(0.0, pulses * period))
# the sampler gives unit-volume bandwidth; scale it back to bytes/s
sampled = iop.SampledSignal(unit.t0, unit.ts, unit.samples * trace.volume)
spectrum = iop.dft(sampled)

order = np.argsort(spectrum.adjusted_amplitudes[1:])[::-1] + 1
print("strongest non-offset bins:")
for k in order[:4]:
    print(f"  k={k:3d}  f={spectrum.frequencies[k]:.3f} Hz  "
          f"period={1 / spectrum.frequencies[k]:6.2f} s  "
          f"amplitude={spectrum.adjusted_amplitudes[k]:.3g}")

rebuilt = iop.reconstruct(spectrum, [0, order[0]], sampled.times)
rms = np.sqrt(np.mean((rebuilt - sampled.samples) ** 2))
print(f"\noffset + fundamental rebuild, RMS residual: "
      f"{rms / sampled.samples.max():.1%} of peak")

everything = iop.reconstruct(spectrum, np.arange(spectrum.n // 2 + 1),
                             sampled.times)
print(f"all bins rebuild, max error: "
      f"{np.abs(everything - sampled.samples).max():.3g}")

result = iop.detect(spectrum)
print(f"\ndetection on this spectrum: {result.confidence.value}, "
      f"period {result.period:.2f} s")
if result.suppressed_harmonics:
    print("suppressed harmonics:",
          ", ".join(f"{f:.3f} Hz" for f in result.suppressed_harmonics))
