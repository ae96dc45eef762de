"""Online prediction: window adaptation, scripted replay, file tailing."""
import gc
import json
import logging
import os
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ioperiod.online import (
    ADAPT_AFTER,
    MIN_WINDOW_BINS,
    WINDOW_PERIODS,
    PredictionRecord,
    _window_and_reason,
)


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
        class FakeRecord:
            has_dominant = True
            dominant_streak = ADAPT_AFTER
            period = 0.001

        (lo, hi), reason = _window_and_reason(FakeRecord(), now=100.0, fs=1.0,
                                              fixed_window=None)
        assert hi - lo >= MIN_WINDOW_BINS / 1.0
        assert reason == "min-bins guard"

    def test_window_chosen_once_per_record(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _window_and_reason(*args, **kwargs)

        monkeypatch.setattr(online, "_window_and_reason", counting)
        replayed = replay(pulse_schedule([24.3, 32.4, 40.5, 47.4, 55.5]), fs=10.0)
        assert replayed[-1].window[0] > 0   # the window adapted
        assert len(calls) == len(replayed) == 5
        del calls[:]
        rows = pulse_rows(9)
        watched = watch_appends(tmp_path / "trace.jsonl",
                                [trace_text(rows[:3])] + [trace_text([r]) for r in rows[3:]])
        assert len(calls) == len(watched) == 7

    def test_replay_is_deterministic(self):
        snapshots = pulse_schedule([24.3, 32.4, 40.5, 47.4])
        runs = [replay(snapshots, fs=10.0) for _ in range(3)]
        dicts = [[json.dumps(r.to_dict(), sort_keys=True) for r in run] for run in runs]
        assert dicts[0] == dicts[1] == dicts[2]


BAD_ANALYSIS_ARGS = [{"fs": -1.0}, {"fs": float("nan")}, {"tolerance": 5.0},
                     {"tolerance": 0.0}, {"z_min": -1.0}, {"fixed_window": -2.0},
                     {"kind": "readwrite"}]
BAD_POLL_ARGS = [{"poll_interval": -1.0}, {"poll_interval": 0.0}, {"idle_timeout": -5.0}]


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

    def test_truncation_resets_with_warning(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="ioperiod")
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
        assert len(records) == 2
        # once logging is loaded the message is a record on the ioperiod
        # logger, at WARNING, and not also a UserWarning
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"{path} was truncated or replaced; restarting analysis state")]
        assert not [w for w in caught if w.category is UserWarning]

    def test_no_appends_no_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        records = list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.02,
                             _sleep=lambda s: None))
        assert records == []


    @pytest.mark.parametrize("replacement_rows, logging_loaded", [
        ([(1, s, e, b) for _, s, e, b in pulse_rows(3)], True),
        (pulse_rows(4, period=9.0), True),
        (pulse_rows(4, period=9.0), False),
    ], ids=["same-size", "larger", "larger-without-logging"])
    def test_rotation_resets_with_warning(self, tmp_path, caplog, monkeypatch,
                                          replacement_rows, logging_loaded):
        caplog.set_level(logging.WARNING, logger="ioperiod")
        if not logging_loaded:
            # a program that never imported logging gets a UserWarning instead
            monkeypatch.setitem(sys.modules, "logging", None)
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
        monkeypatch.undo()
        assert len(records) == 2
        message = f"{path} was truncated or replaced; restarting analysis state"
        user_warnings = [str(w.message) for w in caught if w.category is UserWarning]
        if logging_loaded:
            assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
                ("WARNING", message)]
            assert user_warnings == []
        else:
            assert caplog.records == []
            assert user_warnings == [message]
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

    @pytest.mark.parametrize("kept", [2, 5])
    def test_replay_restarts_as_watch_does(self, tmp_path, kept):
        # the streak found on the old text must not carry over to the new
        rows = pulse_rows(9, period=10.0, phase_len=1.0)
        texts = [trace_text(rows[:n]) for n in range(2, 10)] + [trace_text(rows[:kept])]
        replayed = replay([(text, parse_trace(text.encode()).t_max) for text in texts],
                          fs=10.0)
        assert replayed[-2].dominant_streak >= ADAPT_AFTER
        assert replayed[-1].dominant_streak == 1
        assert replayed[-1].window == (0.0, rows[kept - 1][2])
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"")
        pending = texts[:-1] + ["", texts[-1]]   # "" truncates the file

        def rewrite(_):
            if pending:
                path.write_text(pending.pop(0))

        watched = list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.03,
                             _sleep=rewrite))
        assert dumps(watched) == dumps(replayed)

    def test_replay_encodes_only_new_text(self):
        encoded = []

        class Snapshot(str):
            def encode(self, *args, **kwargs):
                encoded.append(len(self))
                return super().encode(*args, **kwargs)

        snapshots = pulse_schedule([24.3, 32.4, 40.5, 47.4])
        # a snapshot cut mid-line reads the whole lines before the cut, here
        # those of the snapshot before it
        longer = snapshots[2][0]
        cut = (longer[:longer.rindex('{"rank"') + 10], snapshots[1][1])
        records = replay([(Snapshot(text), now) for text, now in
                          snapshots[:2] + [cut] + snapshots[2:]], fs=10.0)
        assert encoded == []   # no snapshot was encoded whole
        assert dumps(records) == dumps(replay(snapshots[:2] + snapshots[1:], fs=10.0))

    @pytest.mark.parametrize("row", [(0, 0.0, 0.0, 0), (0, -1.0, 0.0, 10)],
                             ids=["zero-volume", "volume"])
    def test_window_ending_at_time_zero_is_an_error(self, tmp_path, row):
        # the window (0, now) is empty at now = 0, whatever the trace's volume
        path = tmp_path / "trace.jsonl"
        path.write_text(trace_text([row]))
        with pytest.raises(ValueError, match="window needs finite bounds with LO < HI, got 0.0 0.0"):
            list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.02,
                       _sleep=lambda s: None))

    @pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
    def test_append_without_rows_makes_no_record(self, tmp_path):
        # metadata, or rows the kind filter drops, bring nothing to analyse:
        # a record for them would repeat the last one and raise its streak
        rows = pulse_rows(30)
        extra = [trace_text([(0, 300.0 + j, 301.0 + j, 10 ** 9, "read")]) for j in range(3)]
        chunks = [trace_text([row]) for row in rows]
        records = watch_appends(tmp_path / "a.jsonl", chunks, kind="write")
        padded = watch_appends(tmp_path / "b.jsonl", chunks + extra
                               + [json.dumps({"meta": True, "job": "1"}) + "\n"], kind="write")
        assert len(records) == 30
        assert dumps(padded) == dumps(records)

    def test_memory_stays_flat_over_a_session(self, tmp_path):
        # only the last record is kept, so 100 more appends add their parsed
        # columns (five numbers each), not their records (about 6 KB each
        # with a 263-sample window)
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"")
        records = watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.0,
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

    @pytest.mark.parametrize("front_end, kwargs", [
        pytest.param(front_end, kwargs, id=("" if front_end == "watch" else "replay-")
                     + "{}={}".format(*next(iter(kwargs.items()))))
        for front_end, bad in [("watch", BAD_ANALYSIS_ARGS + BAD_POLL_ARGS),
                               ("replay", BAD_ANALYSIS_ARGS)]
        for kwargs in bad])
    def test_bad_arguments_raise_before_first_poll(self, tmp_path, front_end, kwargs):
        path = tmp_path / "trace.jsonl"
        path.write_text(trace_text(pulse_rows(4)))

        def no_sleep(_):
            raise AssertionError("watch polled")

        def no_snapshots():
            raise AssertionError("replay read a snapshot")
            yield

        with pytest.raises(ValueError):
            if front_end == "watch":
                next(watch(path, **{"fs": 10.0, "idle_timeout": 0.0, **kwargs},
                           _sleep=no_sleep))
            else:
                replay(no_snapshots(), **{"fs": 10.0, **kwargs})


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



def assert_same_records(got, want):
    """Records equal field for field and bit for bit, spectra included."""
    assert dumps(got) == dumps(want)
    for g, w in zip(got, want):
        assert g.window == w.window and g.dominant_streak == w.dominant_streak
        gs, ws = g.analysis.spectrum, w.analysis.spectrum
        assert (gs is None) == (ws is None)
        if gs is not None:
            for field in ("frequencies", "amplitudes", "phases"):
                np.testing.assert_array_equal(getattr(gs, field), getattr(ws, field))


def full_trace_records(schedule, kind, fixed_window):
    """The analysis of one parse of the text so far, in the window the last
    record calls for, per step of a schedule of (text so far, trigger time).
    A text that does not extend the one before it restarts, forgetting the
    last record, in both front ends: a snapshot in ``replay``, an emptied
    file in ``watch``.  A trigger time of None is the trace's last end, as
    in ``watch``, and a step that adds no rows then makes no record."""
    records, previous, before, rows = [], None, "", 0
    for text, now in schedule:
        if not text.startswith(before):
            previous, rows = None, 0
        before = text
        trace = parse_trace(text.encode(), kind_filter=kind)
        if now is None:
            if len(trace) == rows:
                continue
            rows, now = len(trace), trace.t_max
        window = _window_and_reason(previous, now, 10.0, fixed_window)[0]
        analysis = analyze_trace(trace, 10.0, window=window)
        streak = previous.dominant_streak + 1 if previous is not None else 1
        previous = PredictionRecord(analysis, streak if analysis.has_dominant else 0)
        records.append(previous)
    return records


@st.composite
def append_sessions(draw):
    """The appends of a periodic multi-rank session: late rows out of time
    order, meta lines and zero-byte zero-duration rows among them, a point
    where the text restarts, in the second half so that a streak has often
    been found by then, and each append's trigger delay, kind filter and
    fixed window."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    period = draw(st.sampled_from([2.5, 4.0, 5.3]))
    ranks = draw(st.integers(1, 3))
    kinds = ["write"] + list(rng.choice(["read", "write"], ranks - 1))
    rows = []
    for j in range(draw(st.integers(9, 16))):
        for r in range(ranks):
            start = j * period + rng.uniform(0, 0.3)
            rows.append((r, start, start + rng.uniform(0.3, 1.0),
                         int(rng.integers(1, 10 ** 9)), str(kinds[r])))
    lines = [trace_text([row]) for row in rows]
    last, moment = rows[-1][2], rng.uniform(0, rows[-1][2])
    # ending far before, and far after, the window of the last appends
    for row in [(0, 0.1, 0.4, 7 * 10 ** 8, "write"),
                (1, last, last + 11.0 * period, 10 ** 8, "read")]:
        lines.insert(len(lines) - draw(st.integers(0, 3 * ranks)), trace_text([row]))
    lines.insert(draw(st.integers(0, len(lines))), trace_text([(0, moment, moment, 0, "read")]))
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, json.dumps({"meta": True, "at": str(at)}) + "\n")
    cuts = sorted(rng.choice(np.arange(1, len(lines)), replace=False,
                             size=draw(st.integers(len(lines) // 3, len(lines) - 1))))
    chunks = ["".join(lines[a:b]) for a, b in zip([0] + cuts, cuts + [len(lines)])]
    restart = draw(st.none() | st.integers(len(chunks) // 2, len(chunks) - 1))
    delays = draw(st.lists(st.sampled_from([0.0, 0.0, 0.7, 30.0]), min_size=len(chunks),
                           max_size=len(chunks)))
    kind = draw(st.sampled_from(["both", "both", "read", "write"]))
    fixed_window = draw(st.sampled_from([None, None, 0.3, 7.5]))
    return chunks, restart, delays, kind, fixed_window


class TestWindowedTail:
    """An append's analysis reads only the rows that can reach its window,
    and its record is bit for bit that of an analysis of every row."""

    @staticmethod
    def analyzed_lengths(monkeypatch):
        lengths = []

        def counting(trace, *args, **kwargs):
            lengths.append(len(trace))
            return analyze_trace(trace, *args, **kwargs)

        monkeypatch.setattr(online, "analyze_trace", counting)
        return lengths

    def test_records_equal_full_trace_analysis(self, monkeypatch):
        lengths, shortened = self.analyzed_lengths(monkeypatch), []

        @settings(max_examples=40, deadline=None)
        @given(append_sessions())
        def check(session):
            chunks, restart, delays, kind, fixed_window = session
            # replay: a snapshot that does not extend the text restarts it
            snapshots, text = [], ""
            for j, chunk in enumerate(chunks):
                text = chunk if j == restart else text + chunk
                # a window must end after time 0, so a snapshot of only
                # metadata lines triggers at 1 s
                ends = [rec["end"] for rec in map(json.loads, text.splitlines()) if "end" in rec]
                snapshots.append((text, max(ends, default=1.0) + delays[j]))
            del lengths[:]
            got = replay(snapshots, fs=10.0, kind=kind, fixed_window=fixed_window)
            assert_same_records(got, full_trace_records(snapshots, kind, fixed_window))
            shortened.append(any(
                n < len(parse_trace(text.encode(), kind_filter=kind))
                for n, (text, _) in zip(lengths, snapshots)))
            # watch: a truncation empties the file and restarts the analysis
            schedule, pending, text = [], [], ""
            for j, chunk in enumerate(chunks):
                if j == restart:
                    schedule.append(("", None))
                    pending.append(None)
                    text = ""
                text += chunk
                schedule.append((text, None))
                pending.append(chunk)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "trace.jsonl"
                path.write_bytes(b"")

                def step(_):
                    if pending:
                        chunk = pending.pop(0)
                        with open(path, "a" if chunk else "w") as f:
                            f.write(chunk or "")

                watched = list(watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.05,
                                     kind=kind, fixed_window=fixed_window, _sleep=step))
            assert_same_records(watched, full_trace_records(schedule, kind, fixed_window))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check()
        # the sessions exercise views shorter than the trace: about four in
        # five analyse one at some append
        assert sum(shortened) > len(shortened) // 4

    def test_rows_analysed_stay_bounded_over_a_long_session(self, monkeypatch):
        lengths = self.analyzed_lengths(monkeypatch)
        period, ranks, iterations = 4.0, 4, 420
        rows = [[(r, j * period + 0.1 * r, j * period + 0.1 * r + 1.0, 10 ** 8)
                 for r in range(ranks)] for j in range(iterations)]
        snapshots, text = [], ""
        for iteration in rows:
            text += trace_text(iteration)
            snapshots.append((text, iteration[-1][2]))
        records = replay(snapshots, fs=10.0)
        adapted = [n for previous, n in zip(records, lengths[1:])
                   if previous.dominant_streak >= ADAPT_AFTER]
        assert len(adapted) > 0.9 * iterations
        # the rows of the last WINDOW_PERIODS + 1 iterations, not the session's
        assert max(adapted) <= 2 * (WINDOW_PERIODS + 1) * ranks
        assert lengths[-1] < ranks * iterations / 50

    @pytest.mark.parametrize("at", [1.0, 75.0], ids=["before-window", "in-window"])
    def test_zero_duration_row_with_bytes_fails_its_append(self, tmp_path, at):
        chunks = [trace_text([row]) for row in pulse_rows(12)]
        bad = 10   # the append that brings the bad row, and only it
        chunks.insert(bad, trace_text([(1, at, at, 5)]))
        snapshots, text = [], ""
        for chunk in chunks:
            text += chunk
            snapshots.append((text, max(json.loads(line)["end"] for line in text.splitlines())))
        # the parse rejects the row, whatever window an analysis would take
        with pytest.raises(TraceValidationError,
                           match=f"^line {bad + 1}: zero-duration request") as whole:
            parse_trace(snapshots[bad][0].encode())
        before = replay(snapshots[:bad], fs=10.0)
        assert before[-1].window[0] > 1.0   # the window had adapted past the row
        with pytest.raises(TraceValidationError) as replayed:
            replay(snapshots, fs=10.0)
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"")
        pending, watched = list(chunks), []

        def append(_):
            with open(path, "a") as f:
                f.write(pending.pop(0))

        with pytest.raises(TraceValidationError) as tailed:
            for record in watch(path, fs=10.0, poll_interval=0.01, idle_timeout=0.03,
                                _sleep=append):
                watched.append(record)
        assert str(replayed.value) == str(tailed.value) == str(whole.value)
        assert dumps(watched) == dumps(before)

    def test_debug_log_line_per_append(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="ioperiod")
        rows = pulse_rows(9)
        chunks = [trace_text(rows[:3])] + [trace_text([r]) for r in rows[3:]]
        records = watch_appends(tmp_path / "trace.jsonl", chunks)
        lines = [r.getMessage() for r in caplog.records if r.name == "ioperiod"]
        assert len(lines) == len(records) == 7
        assert lines[0].startswith(f"append: read {len(chunks[0])} bytes, 3 lines; "
                                   "3 rows kept, 3 analysed; window (0, 18.2) full; parse ")
        assert "ms, analysis " in lines[0]
        assert " full; " in lines[2]
        assert "window (16.7, 42.5) adapted after a streak of 3 with period 8.6 s;" in lines[3]
        assert "9 rows kept, 4 analysed" in lines[-1]

    def test_no_log_records_below_debug(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="ioperiod")
        records = watch_appends(tmp_path / "trace.jsonl", [trace_text(pulse_rows(4))])
        assert len(records) == 1
        assert not [r for r in caplog.records if r.name == "ioperiod"]
