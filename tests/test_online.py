"""Online prediction: window adaptation, scripted replay, file tailing."""
import gc
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import trace_text

from ioperiod import (
    TraceParseError,
    TraceValidationError,
    analyze_trace,
    online,
    parse_trace,
    replay,
    watch,
)
from ioperiod.online import ADAPT_AFTER, MIN_WINDOW_BINS, WINDOW_PERIODS, _choose_window


def pulse_rows(n_pulses, period=8.1, phase_len=2.0, nbytes=10 ** 9):
    return [(0, j * period, j * period + phase_len, nbytes) for j in range(n_pulses)]


def watch_appends(path, chunks, **kwargs):
    """Records of ``watch`` on ``path`` while each idle poll appends the next chunk."""
    path.write_bytes(b"")
    pending = list(chunks)

    def append(_):
        if pending:
            with open(path, "ab") as f:
                f.write(pending.pop(0).encode())

    return list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.03,
                      _sleep=append, **kwargs))


def dumps(records):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in records]


def pulse_schedule(triggers, period=8.1, phase_len=2.0):
    """One snapshot per trigger time, holding all pulses started by then."""
    snapshots = []
    for now in triggers:
        n_pulses = int(now // period) + 1
        snapshots.append((trace_text(pulse_rows(n_pulses, period, phase_len)), now))
    return snapshots


class TestWindowAdaptation:
    def test_first_prediction_uses_full_window(self):
        snapshots = pulse_schedule([24.3])
        (rec,) = replay(snapshots, fs=10.0)
        assert rec.window == (0.0, 24.3)

    def test_streak_shrinks_window(self):
        triggers = [24.3, 32.4, 40.5, 47.4]
        records = replay(pulse_schedule(triggers), fs=10.0)
        assert [r.has_dominant for r in records[:3]] == [True, True, True]
        # the first three analyses all land on exactly 8.1 s
        assert records[2].period == pytest.approx(8.1, abs=1e-12)
        lo, hi = records[3].window
        assert hi == 47.4
        assert lo == 47.4 - WINDOW_PERIODS * records[2].period
        assert lo == pytest.approx(23.1, abs=1e-9)

    def test_streak_resets_on_non_dominant(self):
        triggers = [24.3, 32.4, 40.5, 47.4]
        snapshots = pulse_schedule(triggers)
        # third snapshot carries no I/O volume: analysis finds nothing
        empty = trace_text([(0, 0.0, 40.5, 0)])
        snapshots[2] = (empty, 40.5)
        records = replay(snapshots, fs=10.0)
        assert not records[2].has_dominant
        assert records[2].dominant_streak == 0
        # the broken streak means the fourth analysis keeps the full window
        assert records[3].window == (0.0, 47.4)

    def test_fixed_window_overrides_adaptation(self):
        triggers = [24.3, 32.4, 40.5, 47.4]
        records = replay(pulse_schedule(triggers), fs=10.0, fixed_window=30.0)
        assert records[3].window == (47.4 - 30.0, 47.4)

    def test_window_of_min_bins_is_analyzed(self):
        # 3 samples leave one non-DC bin: no candidate rather than an error
        window = MIN_WINDOW_BINS / 10.0
        records = replay(pulse_schedule([17.2, 25.3]), fs=10.0, fixed_window=window)
        assert [r.analysis.spectrum.n for r in records] == [MIN_WINDOW_BINS] * 2
        assert not any(r.has_dominant for r in records)

    def test_min_window_guard(self):
        # a spuriously short period must not collapse the window below
        # MIN_WINDOW_BINS sampling intervals
        history = []

        class FakeRecord:
            has_dominant = True
            dominant_streak = ADAPT_AFTER
            period = 0.001

        history = [FakeRecord()] * ADAPT_AFTER
        lo, hi = _choose_window(history, now=100.0, fs=1.0, fixed_window=None)
        assert hi - lo >= MIN_WINDOW_BINS / 1.0

    def test_replay_is_deterministic(self):
        snapshots = pulse_schedule([24.3, 32.4, 40.5, 47.4])
        runs = [replay(snapshots, fs=10.0) for _ in range(3)]
        dicts = [[json.dumps(r.to_dict(), sort_keys=True) for r in run] for run in runs]
        assert dicts[0] == dicts[1] == dicts[2]


class TestWatch:
    def test_single_append_yields_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(trace_text(pulse_rows(4)))
        records = list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.02,
                             _sleep=lambda s: None))
        assert len(records) == 1
        assert records[0].has_dominant

    def test_incremental_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        chunks = [trace_text(pulse_rows(n)) for n in (3, 4, 5)]
        path.write_text(chunks[0])
        pending = chunks[1:]

        def fake_sleep(_):
            if pending:
                path.write_text(pending.pop(0))

        records = list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.03,
                             _sleep=fake_sleep))
        assert len(records) == 3
        assert [r.trigger_time for r in records] == [
            pytest.approx(2 * 8.1 + 2.0),
            pytest.approx(3 * 8.1 + 2.0),
            pytest.approx(4 * 8.1 + 2.0),
        ]

    def test_partial_line_not_consumed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        full = trace_text(pulse_rows(4))
        # first write ends mid-line; the remainder arrives on the next poll
        cut = full.rindex('{"rank"') + 10
        path.write_text(full[:cut])
        pending = [full]

        def fake_sleep(_):
            if pending:
                path.write_text(pending.pop(0))

        records = list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.03,
                             _sleep=fake_sleep))
        # first snapshot holds 3 whole lines, the second all 4
        assert len(records) == 2
        assert records[0].trigger_time < records[1].trigger_time

    def test_truncation_resets_with_warning(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(trace_text(pulse_rows(5)))
        shorter = [trace_text(pulse_rows(3))]

        def fake_sleep(_):
            if shorter:
                path.write_text(shorter.pop(0))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = list(watch(path, fs=10.0, poll_interval=0.01,
                                 idle_timeout=0.03, _sleep=fake_sleep))
        assert any("truncated" in str(w.message) for w in caught)
        assert len(records) == 2

    def test_no_appends_no_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        records = list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.02,
                             _sleep=lambda s: None))
        assert records == []


    @pytest.mark.parametrize("replacement_rows", [
        [(1, s, e, b) for _, s, e, b in pulse_rows(3)],
        pulse_rows(4, period=9.0),
    ], ids=["same-size", "larger"])
    def test_rotation_resets_with_warning(self, tmp_path, replacement_rows):
        path = tmp_path / "trace.jsonl"
        path.write_text(trace_text(pulse_rows(3)))
        replacement = tmp_path / "rotated.jsonl"
        replacement.write_text(trace_text(replacement_rows))
        assert replacement.stat().st_size >= path.stat().st_size
        pending = [replacement]

        def fake_sleep(_):
            if pending:
                os.replace(pending.pop(), path)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = list(watch(path, fs=10.0, poll_interval=0.01,
                                 idle_timeout=0.03, _sleep=fake_sleep))
        assert any("replaced" in str(w.message) for w in caught)
        assert len(records) == 2
        # the second record sees the new file alone, with no history
        text = trace_text(replacement_rows)
        assert dumps(records[1:]) == dumps(
            replay([(text, parse_trace(text.encode()).t_max)], fs=10.0))

    def test_each_byte_parsed_once(self, tmp_path, monkeypatch):
        received = []

        def counting_parse(source, *args, **kwargs):
            received.append(len(source))
            return parse_trace(source, *args, **kwargs)

        monkeypatch.setattr(online, "parse_trace", counting_parse)
        chunks = [trace_text([row]) for row in pulse_rows(12)]
        # one append ends mid-line; the next completes the line
        cut = len(chunks[5]) // 2
        chunks[5:6] = [chunks[5][:cut], chunks[5][cut:]]
        path = tmp_path / "trace.jsonl"
        records = watch_appends(path, chunks)
        assert len(records) == 12
        assert len(received) == 12
        assert sum(received) == path.stat().st_size

    @pytest.mark.parametrize("bad_line, error", [
        ("not json", TraceParseError),
        ('{"rank": 0, "start": 2.0, "end": 1.0, "bytes": 1, "kind": "read"}',
         TraceValidationError),
    ], ids=["parse", "validation"])
    def test_error_names_line_counted_from_file_start(self, tmp_path, bad_line, error):
        rows = pulse_rows(6)
        chunks = [trace_text(rows[:2], meta={"job": "7"}), trace_text(rows[2:4]),
                  trace_text(rows[4:5]) + bad_line + "\n" + trace_text(rows[5:])]
        path = tmp_path / "trace.jsonl"
        with pytest.raises(error, match="^line 7: ") as tailed:
            watch_appends(path, chunks)
        with pytest.raises(error) as whole:
            parse_trace(path)
        assert str(tailed.value) == str(whole.value)

    def test_metadata_of_first_append_survives(self, tmp_path, monkeypatch):
        analyzed = []

        def capture(trace, *args, **kwargs):
            analyzed.append(trace)
            return analyze_trace(trace, *args, **kwargs)

        monkeypatch.setattr(online, "analyze_trace", capture)
        rows = pulse_rows(5)
        chunks = [trace_text(rows[:2], meta={"job": "42"})] + [trace_text([r]) for r in rows[2:]]
        path = tmp_path / "trace.jsonl"
        assert len(watch_appends(path, chunks)) == 4
        assert [t.metadata for t in analyzed] == [{"job": "42"}] * 4
        # the tail holds what one parse of the whole file gives
        whole = parse_trace(path)
        for col in ("rank", "start", "end", "nbytes", "kind_code"):
            np.testing.assert_array_equal(getattr(analyzed[-1], col), getattr(whole, col))

    def test_replay_matches_watch(self, tmp_path):
        rows = pulse_rows(9)
        chunks = [trace_text(rows[:3])] + [trace_text([r]) for r in rows[3:]]
        watched = watch_appends(tmp_path / "trace.jsonl", chunks)
        snapshots, text = [], ""
        for chunk in chunks:
            text += chunk
            snapshots.append((text, parse_trace(text.encode()).t_max))
        replayed = replay(snapshots, fs=10.0)
        assert any(r.window[0] > 0 for r in replayed)  # the window adapted
        assert dumps(watched) == dumps(replayed)

    def test_memory_stays_flat_over_a_session(self, tmp_path):
        # only the last record is kept, so 100 more appends add their parsed
        # columns (five numbers each), not their records (about 6 KB each
        # with a 263-sample window)
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"")
        records = watch(path, fs=10.0, poll_interval=0.0, idle_timeout=0.0,
                        fixed_window=26.3, _sleep=lambda s: None)
        sizes = []
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for j, row in enumerate(pulse_rows(200)):
                    with open(path, "a") as f:
                        f.write(trace_text([row]))
                    next(records)
                    if j + 1 in (100, 200):
                        gc.collect()
                        sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            records.close()
        assert sizes[1] - sizes[0] < 100 * 1024

    @pytest.mark.parametrize("kwargs", [
        {"fs": -1.0}, {"fs": float("nan")}, {"tolerance": 5.0}, {"tolerance": 0.0},
        {"z_min": -1.0}, {"poll_interval": -1.0}, {"idle_timeout": -5.0},
        {"fixed_window": -2.0}, {"kind": "readwrite"},
    ], ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
    def test_bad_arguments_raise_before_first_poll(self, tmp_path, kwargs):
        path = tmp_path / "trace.jsonl"
        path.write_text(trace_text(pulse_rows(4)))

        def no_sleep(_):
            raise AssertionError("watch polled")

        records = watch(path, **{"fs": 10.0, "idle_timeout": 0.0, **kwargs}, _sleep=no_sleep)
        with pytest.raises(ValueError):
            next(records)


class TestKindFilter:
    """``kind`` selects requests at parse time in both online front ends."""

    reads = [row + ("read",) for row in pulse_rows(6)]
    mixed = sorted(reads + [(1, s + 4.0, s + 5.0, 3 * 10 ** 8, "write")
                            for _, s, *_ in reads], key=lambda row: row[1])

    def test_replay(self):
        def schedule(rows):
            return [(trace_text([r for r in rows if r[1] < now]), now)
                    for now in (24.3, 32.4, 40.5, 47.4)]

        want = dumps(replay(schedule(self.reads), fs=10.0))
        assert dumps(replay(schedule(self.mixed), fs=10.0, kind="read")) == want
        assert dumps(replay(schedule(self.mixed), fs=10.0)) != want

    def test_watch(self, tmp_path):
        def run(rows, **kwargs):
            path = tmp_path / "trace.jsonl"
            path.write_text(trace_text(rows))
            return dumps(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.02,
                                    _sleep=lambda s: None, **kwargs))

        want = run(self.reads)
        assert len(want) == 1
        assert run(self.mixed, kind="read") == want
