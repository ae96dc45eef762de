"""Trace parsing, validation, and the bandwidth merged from the requests."""
import builtins
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HOSTILE_RECORDS, make_trace, trace_text
from oracles import brute_bandwidth_at, loads_per_line

from ioperiod import (
    Trace,
    TraceParseError,
    TraceValidationError,
    analyze_trace,
    parse_trace,
    write_trace,
)
from ioperiod import SampledSignal, dft, sweep_to_csv
from ioperiod import trace as trace_module
from ioperiod.sampling import sample_requests
from ioperiod.synth import SWEEP_FIELDS
from ioperiod.trace import KINDS


#: lines that are no record on their own: blank, not JSON, not an object,
#: two halves of one object, nested past the recursion limit, an integer
#: past int()'s digit limit
ODD_LINES = [b"", b"  ", b"\t\r", b"\xc2\xa0", b"not json", b"[1, 2]", b'{"a":[', b"1]}",
             b"[" * 3000, b'{"rank": 0, "bytes": ' + b"9" * 4400 + b"}"]
FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["read", "write", "1.0"]), st.lists(st.integers(), max_size=2),
)


@st.composite
def trace_lines(draw):
    """One line of a trace file, as bytes without its newline."""
    choice = draw(st.sampled_from(["record", "record", "record", "bad field", "meta", "odd"]))
    if choice == "odd":
        return draw(st.sampled_from(ODD_LINES))
    if choice == "meta":
        line = json.dumps({"meta": draw(st.sampled_from([True, 1, False])),
                           draw(st.sampled_from(["app", "job"])): draw(FIELD_VALUES)})
    else:
        start = draw(st.floats(0.0, 1e4))
        record = {"rank": draw(st.integers(0, 7)), "start": start,
                  "end": start + draw(st.floats(0.0, 10.0)),
                  "bytes": draw(st.integers(0, 10 ** 12)),
                  "kind": draw(st.sampled_from(["read", "write"]))}
        if choice == "bad field":
            record.update(draw(st.dictionaries(st.sampled_from(list(record)), FIELD_VALUES,
                                               min_size=1)))
            if draw(st.booleans()):
                del record[draw(st.sampled_from(list(record)))]
        line = json.dumps(record, separators=draw(st.sampled_from([(", ", ": "), (",", ":")])))
    # JSON and non-JSON whitespace, CRLF endings, a BOM, invalid UTF-8
    lead = draw(st.sampled_from([b"", b"", b" ", b"\t", b"\xef\xbb\xbf", b"\xff"]))
    trail = draw(st.sampled_from([b"", b"", b"\r", b" \t", b"\xc2\xa0", b"\xe2\x82"]))
    return lead + line.encode() + trail


@st.composite
def trace_files(draw):
    """Trace-file bytes: whole lines, then maybe an unterminated tail."""
    lines = draw(st.lists(trace_lines(), max_size=8))
    tail = draw(st.sampled_from([b"", b'{"rank": 0, "st', b"\r"]))
    return b"".join(line + b"\n" for line in lines) + tail


class TestParsing:
    def test_single_record(self):
        text = trace_text([(0, 0.0, 2.0, 4_000_000_000)])
        trace = parse_trace(text.encode())
        assert len(trace) == 1
        assert trace.length == 2.0
        assert trace.volume == 4_000_000_000

    def test_empty_stream(self):
        trace = parse_trace(b"")
        assert len(trace) == 0
        assert trace.volume == 0
        assert trace.length == 0.0

    def test_partial_tail_line_ignored(self):
        text = trace_text([(0, 0.0, 1.0, 100), (1, 1.0, 2.0, 200)])
        truncated = text + '{"rank": 2, "start": 2.0, "en'
        trace = parse_trace(truncated.encode())
        assert len(trace) == 2

    def test_metadata_line(self):
        text = trace_text([(0, 0.0, 1.0, 100)], meta={"app": "ior"})
        trace = parse_trace(text.encode())
        assert trace.metadata["app"] == "ior"

    def test_invalid_json_reports_line_number(self):
        text = trace_text([(0, 0.0, 1.0, 100)]) + "not json\n"
        with pytest.raises(TraceParseError) as exc:
            parse_trace(text.encode())
        assert exc.value.line_number == 2

    def test_missing_field(self):
        with pytest.raises(TraceParseError):
            parse_trace(b'{"rank": 0, "start": 0.0}\n')

    def test_unknown_kind(self):
        with pytest.raises(TraceParseError):
            parse_trace(b'{"rank":0,"start":0,"end":1,"bytes":1,"kind":"scan"}\n')

    def test_negative_duration_rejected(self):
        with pytest.raises(TraceValidationError):
            parse_trace(b'{"rank":0,"start":2.0,"end":1.0,"bytes":1,"kind":"read"}\n')

    @pytest.mark.parametrize("kind_filter", ["both", "write"])
    def test_zero_duration_with_bytes_names_its_line(self, kind_filter):
        # checked before the kind filter, as a negative duration is
        text = trace_text([(0, 0.0, 1.0, 100), (0, 0.5, 0.5, 0), (1, 2.0, 2.0, 7, "read")])
        with pytest.raises(TraceValidationError,
                           match="^line 3: zero-duration request with nonzero bytes$"):
            parse_trace(text.encode(), kind_filter=kind_filter)

    def test_negative_bytes_rejected(self):
        with pytest.raises(TraceValidationError):
            parse_trace(b'{"rank":0,"start":0.0,"end":1.0,"bytes":-5,"kind":"read"}\n')

    @pytest.mark.parametrize("line", HOSTILE_RECORDS.values(), ids=HOSTILE_RECORDS.keys())
    def test_hostile_numbers_name_the_line(self, line):
        text = trace_text([(0, 0.0, 1.0, 100)]) + line + "\n"
        with pytest.raises(TraceParseError) as exc:
            parse_trace(text.encode())
        assert exc.value.line_number == 2

    @given(st.dictionaries(
        st.sampled_from(["rank", "start", "end", "bytes", "kind"]),
        st.one_of(
            st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(["read", "write", "1.0"]), st.lists(st.integers(), max_size=2),
        ),
    ))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_fields_parse_or_raise_with_line(self, fields):
        record = {"rank": 0, "start": 0.0, "end": 1.0, "bytes": 1, "kind": "read"}
        record.update(fields)
        text = trace_text([(0, 0.0, 1.0, 100)]) + json.dumps(record) + "\n"
        try:
            trace = parse_trace(text.encode())
        except (TraceParseError, TraceValidationError) as exc:
            assert "line 2" in str(exc)
        else:
            assert len(trace) == 2
            assert np.all(np.isfinite(trace.start)) and np.all(np.isfinite(trace.end))
            assert trace.nbytes[1] == record["bytes"]

    @given(trace_files(), st.sampled_from(["both", "read", "write"]), st.integers(1, 99),
           st.sampled_from([1, 7, 64, trace_module._BLOCK_BYTES]))
    @settings(max_examples=300, deadline=None)
    def test_matches_line_by_line_loads(self, data, kind_filter, first_line, block_bytes):
        # small blocks start the search for a block's end inside lines and
        # UTF-8 sequences, and hold one line or several
        def parse():
            with mock.patch.object(trace_module, "_BLOCK_BYTES", block_bytes):
                return parse_trace(data, kind_filter, first_line)

        try:
            want = loads_per_line(data, kind_filter, first_line)
        except (TraceParseError, TraceValidationError) as exc:
            with pytest.raises(type(exc)) as got:
                parse()
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        trace = parse()
        columns, metadata = want
        for name, values in columns.items():
            got = getattr(trace, name)
            assert np.array_equal(got, np.asarray(values, dtype=got.dtype))
        assert trace.metadata == metadata

    def test_kind_filter(self):
        text = trace_text([(0, 0.0, 1.0, 100, "read"), (0, 1.0, 2.0, 200, "write")])
        assert parse_trace(text.encode(), kind_filter="read").volume == 100
        assert parse_trace(text.encode(), kind_filter="write").volume == 200
        assert parse_trace(text.encode()).volume == 300

    def test_text_stream_source(self):
        text = trace_text([(0, 0.0, 1.0, 100)])
        trace = parse_trace(io.StringIO(text))
        assert len(trace) == 1

    def test_roundtrip_through_file(self, tmp_path):
        trace = make_trace(
            [(0, 0.0, 1.5, 123), (3, 0.5, 2.5, 456, "read")],
            metadata={"run": "42"},
        )
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        back = parse_trace(path)
        assert len(back) == 2
        assert back.volume == trace.volume
        assert back.metadata == {"run": "42"}
        assert list(back.kind_code) == list(trace.kind_code)


#: the package's writers, each given a destination
WRITERS = {
    "write_trace": lambda dest: write_trace(
        make_trace([(0, 0.0, 1.5, 123)], metadata={"run": "42"}), dest),
    "Spectrum.to_csv": lambda dest: dft(SampledSignal(0.0, 1.0, [1.0, 0.0, 2.0, 5.0])).to_csv(
        dest, amplitude_scale=3.0),
    "sweep_to_csv": lambda dest: sweep_to_csv([{"noise": "low", **dict.fromkeys(SWEEP_FIELDS, 1)}],
                                              dest),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_writer_closes_only_the_file_it_opens(tmp_path, monkeypatch, write):
    stream = io.StringIO()
    write(stream)
    assert not stream.closed and stream.getvalue()
    opened = []
    real_open = open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(builtins, "open", recording_open)
    write(tmp_path / "out")
    monkeypatch.undo()
    assert len(opened) == 1 and opened[0].closed
    # the same text, with no newline translation
    assert (tmp_path / "out").read_bytes() == stream.getvalue().encode()


#: finite times the writer must spell as json.dumps does: signed zeros,
#: subnormals, values that repr writes in exponent form (>= 1e16 or < 1e-4)
#: and everything else finite
TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-4,
                     9.999999999999999e-05, 1.7976931348623157e308]),
    st.floats(-2.3e-308, 2.3e-308),
    st.floats(1e16, 1e300) | st.floats(-1e300, -1e16),
    st.floats(-1e-4, 1e-4),
    st.floats(allow_nan=False, allow_infinity=False),
)
INT64_MAX = 2 ** 63 - 1


@st.composite
def trace_rows(draw):
    """Rows of a valid trace: (rank, start, end, bytes, kind)."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        start, end = sorted([draw(TIMES), draw(TIMES)])
        # a request without duration moves no bytes
        nbytes = draw(st.integers(0, INT64_MAX)) if start < end else 0
        rows.append((draw(st.integers(0, INT64_MAX)), start, end, nbytes,
                     draw(st.sampled_from(KINDS))))
    return rows


class TestWriteTrace:
    @given(trace_rows(),
           st.none() | st.dictionaries(st.text().filter(lambda k: k != "meta"), st.text()),
           st.sampled_from([1, 2, 5, trace_module._BLOCK_ROWS]))
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_per_row(self, rows, meta, block_rows):
        trace = make_trace(rows, meta)
        buf = io.StringIO()
        with mock.patch.object(trace_module, "_BLOCK_ROWS", block_rows):
            write_trace(trace, buf)
        assert buf.getvalue() == (trace_text(rows, meta) if rows or meta else "")
        back = parse_trace(buf.getvalue().encode())
        for name in ("rank", "start", "end", "nbytes", "kind_code"):
            # bit for bit, so -0.0 must come back as -0.0
            assert getattr(back, name).tobytes() == getattr(trace, name).tobytes(), name
        assert back.metadata == (meta or {})
        if rows:
            assert back.t_min == min(row[1] for row in rows)
            assert back.t_max == max(row[2] for row in rows)

    def test_writes_one_block_of_rows_at_a_time(self):
        rows = [(j % 3, float(j), j + 0.5, 10 * j, KINDS[j % 2]) for j in range(10)]
        meta = {"run": "7"}

        class RecordingStream:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        stream = RecordingStream()
        with mock.patch.object(trace_module, "_BLOCK_ROWS", 3):
            write_trace(make_trace(rows, meta), stream)
        assert "".join(stream.writes) == trace_text(rows, meta)
        # the metadata line, then blocks of 3, 3, 3 and 1 request lines
        assert [text.count("\n") for text in stream.writes] == [1, 3, 3, 3, 1]
        assert all(text.endswith("\n") for text in stream.writes)


class TestRequestModel:
    def test_request_validation(self):
        with pytest.raises(TraceValidationError):
            Trace([-1], [0.0], [1.0], [1], [0])
        with pytest.raises(TraceValidationError):
            Trace([0], [1.0], [0.0], [1], [0])
        with pytest.raises(TraceValidationError):
            Trace([0], [0.0], [1.0], [-1], [0])
        # kind codes are 0 (read) and 1 (write); as int8, 256 would wrap to 0
        for code in ([2], [-1], np.array([256]), [0.5]):
            with pytest.raises(TraceValidationError, match="kind code"):
                Trace([0], [0.0], [1.0], [1], code)

    @pytest.mark.parametrize("rank, nbytes, what", [
        ([1.7], [5], "ranks"),
        ([1], [5.7], "byte counts"),
        ([1], np.array([5.0]), "byte counts"),
        (["1"], [5], "ranks"),
    ], ids=["fractional-rank", "fractional-bytes", "float-bytes", "string-rank"])
    def test_rank_and_bytes_must_be_integers(self, rank, nbytes, what):
        # cast unchecked, 1.7 would become rank 1 and 5.7 would become 5 bytes
        with pytest.raises(TraceValidationError, match=f"{what} must be integers"):
            Trace(rank, [0.0], [1.0], nbytes, [0])

    @pytest.mark.parametrize("start, end, message", [
        (np.nan, 5.0, "start time is NaN"),
        (1.0, np.nan, "end time is NaN"),
        (-np.inf, 5.0, "start time is -inf"),
        (1.0, np.inf, "end time is inf"),
        # start <= end gives an infinite start an infinite end
        (np.inf, np.inf, "end time is inf"),
        (1.0, -np.inf, "negative duration request"),
    ], ids=["start-nan", "end-nan", "start-minus-inf", "end-inf", "start-inf", "end-minus-inf"])
    def test_non_finite_times_rejected(self, start, end, message):
        # a file cannot hold these times, so neither may a Trace: a NaN
        # request's bytes would drop out of the analysis without a word
        with pytest.raises(TraceValidationError, match=f"^{message}$"):
            Trace([0, 0, 0], [0.0, start, 2.0], [1.0, end, 3.0], [10, 10 ** 6, 10], [1, 1, 1])

    def test_trace_columns_are_immutable(self):
        trace = make_trace([(0, 0.0, 1.0, 10)])
        with pytest.raises(ValueError):
            trace.nbytes[0] = 99

    def test_volume_is_exact_integer(self):
        # large counts that would lose precision as float64
        big = 2 ** 53 + 1
        trace = make_trace([(0, 0.0, 1.0, big), (0, 1.0, 2.0, 1)])
        assert trace.volume == big + 1

    @pytest.mark.parametrize("extra", [0, 1], ids=["one-sum", "halves"])
    def test_volume_at_the_int64_bound(self, extra):
        # at max <= INT64_MAX // len one int64 sum cannot wrap; one byte
        # more per request and the total passes 2^63 - 1
        count = 3
        each = (2 ** 63 - 1) // count + extra
        trace = make_trace([(0, float(j), j + 1.0, each) for j in range(count)])
        assert trace.volume == count * each

    def test_volume_beyond_int64_is_exact(self):
        # three requests of 2^62 bytes: each is a valid int64, the total is not
        rows = [(0, j * 10.0, j * 10.0 + 2.0, 2 ** 62) for j in range(3)]
        trace = parse_trace(trace_text(rows).encode())
        assert trace.volume == 3 * 2 ** 62
        analysis = analyze_trace(trace, fs=1.0)
        unit = analyze_trace(make_trace([row[:3] + (1,) for row in rows]), fs=1.0)
        assert not analysis.no_data
        assert analysis.confidence == unit.confidence
        assert analysis.period == unit.period
        assert analysis.sampling_error == unit.sampling_error


def bandwidth_at(trace, t):
    """Merged bandwidth of the trace in bytes/s at instant t: one sample at t."""
    _, sampled, _ = sample_requests(trace, 1.0, (t, t + 1.0))
    return sampled.samples[0] * trace.volume


def window_volume(trace, window):
    """Bytes the merged bandwidth moves over a window, from V_0."""
    return sample_requests(trace, 1.0, window)[2] * trace.volume


class TestMergeBandwidth:
    """The application bandwidth summed from per-rank requests, read
    through ``sample_requests`` and scaled back to bytes by the volume."""

    def test_single_request(self):
        trace = make_trace([(0, 0.0, 2.0, 4_000_000_000)])
        assert bandwidth_at(trace, 0.0) == pytest.approx(2e9)
        assert bandwidth_at(trace, 1.999) == pytest.approx(2e9)
        assert bandwidth_at(trace, 2.0) == 0.0

    def test_two_overlapping_requests(self):
        # 4 GB over [0,2] and 2 GB over [1,3]: 2, 3, 1 GB/s on the pieces
        trace = make_trace([(0, 0.0, 2.0, 4_000_000_000), (1, 1.0, 3.0, 2_000_000_000)])
        assert bandwidth_at(trace, 0.5) == pytest.approx(2e9)
        assert bandwidth_at(trace, 1.5) == pytest.approx(3e9)
        assert bandwidth_at(trace, 2.5) == pytest.approx(1e9)

    def test_identical_concurrent_requests(self):
        p, b = 8, 1000
        trace = make_trace([(k, 0.0, 1.0, b) for k in range(p)])
        assert bandwidth_at(trace, 0.3) == pytest.approx(p * b)

    def test_zero_duration_zero_bytes_dropped(self):
        trace = make_trace([(0, 0.0, 1.0, 10), (0, 0.5, 0.5, 0)])
        assert window_volume(trace, (0.0, 1.0)) == pytest.approx(10)

    def test_zero_duration_nonzero_bytes_rejected(self):
        # a Trace cannot hold the request, so no sampler ever meets it
        with pytest.raises(TraceValidationError, match="zero-duration request with nonzero bytes"):
            make_trace([(0, 0.0, 1.0, 10), (0, 0.5, 0.5, 10)])

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceValidationError):
            sample_requests(make_trace([]), 1.0)

    def test_unit_volume_integrates_to_one(self):
        trace = make_trace([(0, 0.0, 2.0, 300), (1, 1.0, 4.0, 700)])
        _, _, v_0 = sample_requests(trace, 1.0, (0.0, 4.0))
        assert v_0 == pytest.approx(1.0, rel=1e-12)

    @given(st.lists(
        st.tuples(
            st.integers(0, 7),
            st.floats(0.0, 50.0),
            st.floats(0.01, 10.0),
            st.integers(1, 10 ** 9),
        ),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=60, deadline=None)
    def test_volume_conserved(self, rows):
        trace = make_trace([(r, s, s + d, b) for r, s, d, b in rows])
        # a window of whole seconds covering every request
        assert window_volume(trace, (0.0, 61.0)) == pytest.approx(trace.volume, rel=1e-9)

    @given(st.lists(
        st.tuples(st.floats(0.0, 20.0), st.floats(0.1, 5.0), st.integers(1, 10 ** 6)),
        min_size=2, max_size=20,
    ), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_order_independent_bitwise(self, rows, rand):
        reqs = [(0, s, s + d, b) for s, d, b in rows]
        shuffled = list(reqs)
        rand.shuffle(shuffled)
        _, a, a_v_0 = sample_requests(make_trace(reqs), 10.0, (0.0, 25.0))
        _, b, b_v_0 = sample_requests(make_trace(shuffled), 10.0, (0.0, 25.0))
        assert np.array_equal(a.samples, b.samples)
        assert a_v_0 == b_v_0

    def test_matches_pointwise_oracle(self, rng):
        rows = [
            (int(rng.integers(0, 4)), float(rng.uniform(0, 10)),
             float(rng.uniform(0.1, 3)), int(rng.integers(1, 10 ** 6)))
            for _ in range(25)
        ]
        reqs = [(s, s + d, b) for _, s, d, b in rows]
        trace = make_trace([(r, s, s + d, b) for r, s, d, b in rows])
        for t in rng.uniform(-1, 15, 50):
            assert bandwidth_at(trace, t) == pytest.approx(
                brute_bandwidth_at(reqs, t), rel=1e-9, abs=1e-6)
