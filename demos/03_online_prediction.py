"""Online prediction over a growing trace file.

Simulates an application appending one 8.1-second iteration at a time and
replays the analysis that a live watcher would run at each append.  After
three consecutive dominant findings the analysis window shrinks from the
whole history to three periods, so later detections react faster.
"""
import io

import numpy as np

import ioperiod as iop

period, phase_len = 8.1, 2.0


def trace_until(now):
    buf = io.StringIO()
    n_pulses = int(now // period) + 1
    starts = np.arange(n_pulses) * period
    # columns: rank, start, end, bytes, kind code (1 = write)
    trace = iop.Trace(np.zeros(n_pulses, dtype=np.int64), starts, starts + phase_len,
                      np.full(n_pulses, 10 ** 9), np.ones(n_pulses, dtype=np.int8))
    iop.write_trace(trace, buf)
    return buf.getvalue()


triggers = [24.3, 32.4, 40.5, 47.4, 55.5]
schedule = [(trace_until(t), t) for t in triggers]
records = iop.replay(schedule, fs=10.0)

print(f"{'trigger':>8} {'window':>16} {'period':>8} {'confidence':>12} streak")
for rec in records:
    lo, hi = rec.window
    period_str = f"{rec.period:.2f}" if rec.period else "-"
    print(f"{rec.trigger_time:8.1f} [{lo:6.2f}, {hi:6.2f}] {period_str:>8} "
          f"{rec.analysis.confidence.value:>12} {rec.dominant_streak:4d}")

adapted = records[3]
print(f"\nafter three dominant findings the window start jumped to "
      f"{adapted.window[0]:.1f} s = {adapted.trigger_time} - 3 x "
      f"{records[2].period:.1f}")
