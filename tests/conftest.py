import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ioperiod import Trace
from ioperiod.trace import KINDS


def make_trace(rows, metadata=None):
    """Build a Trace from (rank, start, end, bytes[, kind]) tuples."""
    kinds = [KINDS.index(row[4] if len(row) > 4 else "write") for row in rows]
    return Trace([row[0] for row in rows], [row[1] for row in rows],
                 [row[2] for row in rows], [int(row[3]) for row in rows], kinds,
                 metadata=metadata)


def trace_text(rows, meta=None):
    """Render rows in the line-delimited trace file format."""
    lines = []
    if meta:
        lines.append(json.dumps({"meta": True, **meta}))
    for row in rows:
        kind = row[4] if len(row) > 4 else "write"
        lines.append(json.dumps({
            "rank": row[0], "start": row[1], "end": row[2],
            "bytes": int(row[3]), "kind": kind,
        }))
    return "\n".join(lines) + "\n"


#: trace lines whose numbers a trace must not hold, keyed by test id
HOSTILE_RECORDS = {
    "end-infinity": '{"rank": 0, "start": 0.0, "end": Infinity, "bytes": 1, "kind": "read"}',
    "bytes-infinity": '{"rank": 0, "start": 0.0, "end": 1.0, "bytes": Infinity, "kind": "read"}',
    "start-nan": '{"rank": 0, "start": NaN, "end": 1.0, "bytes": 1, "kind": "read"}',
    "start-bool": '{"rank": 0, "start": true, "end": 1.0, "bytes": 1, "kind": "read"}',
    "fractional-bytes": '{"rank": 0, "start": 0.0, "end": 1.0, "bytes": 5.7, "kind": "read"}',
    # past the decoder's recursion limit
    "deep-nesting": "[" * 100_000,
    # past int()'s limit on the digits of a decimal string
    "bytes-5000-digits": '{"rank": 0, "start": 0.0, "end": 1.0, "bytes": ' + "9" * 5000
                         + ', "kind": "read"}',
}


def pulse_train(period, n_pulses, duty=0.2, nbytes=10 ** 9, t0=0.0):
    """Trace of evenly spaced single-rank bursts: one per period."""
    rows = []
    for j in range(n_pulses):
        start = t0 + j * period
        rows.append((0, start, start + duty * period, nbytes))
    return make_trace(rows)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# verdict lines recorded by the acceptance tests, echoed after the run so
# they are visible even when every test passes under output capture
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
