"""Trace parsing, validation, and the bandwidth merged from the requests."""
import builtins
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HOSTILE_RECORDS, make_trace, trace_text
from oracles import brute_bandwidth_at, first_broken_rule, loads_per_line

import ioperiod
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
from ioperiod.synth import SWEEP_FIELDS, SynthConfig, bundled_phase_templates, generate
from ioperiod.trace import KIND_FILTERS, KINDS


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
def request_rows(draw):
    """A (rank, start, end, bytes) row, legal or with one field breaking a
    request rule: a negative rank or byte count, a NaN or infinite time, a
    negative duration, or bytes over a zero duration."""
    start = draw(st.sampled_from([0.0, 1.0, 2.5]))
    end = start + draw(st.sampled_from([0.0, 0.5, 1.0, 1.0]))
    row = [draw(st.integers(0, 3)), start, end, draw(st.integers(1, 100)) if end > start else 0]
    if draw(st.integers(0, 2)) == 0:
        field = draw(st.integers(0, 3))
        row[field] = draw([
            st.just(-1),
            st.sampled_from([np.nan, -np.inf, np.inf, 9.0]),
            st.sampled_from([np.nan, -np.inf, np.inf, 0.0, start]),
            st.sampled_from([-1, 7]),
        ][field])
    return tuple(row)


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


#: a request line with each value given as its text
SPELLED = '{"rank": %s, "start": %s, "end": %s, "bytes": %s, "kind": "%s"}'
#: lines to put among runs of request lines: in write_trace's order of
#: keys but breaking a request rule; with a rank or byte count of 18
#: digits, the most the bulk path takes, or of 19, within int64 or past it;
#: with integer times of 15 digits, the most it takes, or of 16; with
#: spaces it refuses (a tab, two spaces, a space before punctuation or
#: after a brace), which only the line loop reads; or lines it never takes
ODD_LINES_AMONG_RUNS = {
    "start-1e999": SPELLED % (3, "1e999", "2.5", 10, "read"),
    "start-minus-1e999": SPELLED % (3, "-1e999", "2.5", 0, "write"),
    "end-1E400": SPELLED % (3, "1.5", "1E400", 10, "write"),
    "negative-duration": SPELLED % (3, "2.5", "1.5", 10, "read"),
    "zero-duration-bytes": SPELLED % (3, "1.5", "1.5E0", 10, "write"),
    "signed-zero-duration-bytes": SPELLED % (3, "0.0", "-0.0", 10, "read"),
    "zero-duration": SPELLED % (3, "-0.0", "0e0", 0, "read"),
    "rank-18-digits": SPELLED % (10 ** 18 - 1, "1.5", "2.5", 10, "write"),
    "bytes-19-digits": SPELLED % (3, "1.5", "2.5", 2 ** 63 - 1, "read"),
    "rank-past-int64": SPELLED % (2 ** 63, "1.5", "2.5", 10, "read"),
    "bytes-past-int64": SPELLED % (3, "1.5", "2.5", 10 ** 19, "write"),
    "rank-leading-zero": SPELLED % ("03", "1.5", "2.5", 10, "read"),
    "integer-times-15-digits": SPELLED % (3, 10 ** 15 - 2, 10 ** 15 - 1, 10, "write"),
    "integer-negative-duration": SPELLED % (3, 5, 4, 0, "read"),
    # equal as float64, and end < start as integers
    "integer-times-16-digits": SPELLED % (3, 2 ** 53 + 1, 2 ** 53, 0, "read"),
    # the integer -0 is 0, so its time is +0.0
    "integer-minus-zero": SPELLED % (3, "-0", "0.5", 10, "read"),
    "meta": '{"meta": true, "job": "7"}',
    "compact": '{"rank":3,"start":1.5,"end":2.5,"bytes":10,"kind":"read"}',
    "spaced": '{ "rank" :3 ,\t"start":1.5 , "end" : 2.5,"bytes":10, "kind":"read" } ',
    "doubled-spaces": '{"rank":  3, "start": 1.5,  "end": 2.5, "bytes": 10, "kind": "read"}',
    "keys-reordered": '{"start": 1.5, "rank": 3, "end": 2.5, "bytes": 10, "kind": "read"}',
    "blank": "",
    "bom": "\ufeff" + SPELLED % (3, "1.5", "2.5", 10, "read"),
    "bad-json": (SPELLED % (3, "1.5", "2.5", 10, "read"))[:-1],
}
#: the spellings of request lines that the bulk path takes: write_trace's,
#: which is json.dumps' with its default separators, compact separators,
#: and integer times; it takes one space after a colon or a comma, or none
RUN_SPELLINGS = ("write_trace", "compact", "integer")
#: separators of valid JSON that the bulk path refuses, so a file written
#: with them is read line by line: spaces before punctuation, a tab
REFUSED_SEPARATORS = {"spaced": (" , ", " : "), "tab-after-colon": (", ", ":\t")}


def request_lines(n: int, seed: int, spelling: str) -> list[str]:
    """``n`` valid request lines, each ending in a newline, in ``spelling``."""
    rng = np.random.default_rng(seed)
    if spelling == "integer":
        start = rng.integers(0, 10 ** 15 - 10, n)
    else:
        start = rng.uniform(0.0, 1e4, n)
    end = start + rng.choice([0, 1, 3], n)
    nbytes = np.where(start < end, rng.integers(1, 10 ** 12, n), 0)
    trace = Trace(rng.integers(0, 8, n), start, end, nbytes, rng.integers(0, 2, n))
    if spelling == "write_trace":
        buf = io.StringIO()
        write_trace(trace, buf)
        return buf.getvalue().splitlines(keepends=True)
    return [json.dumps({"rank": int(rank), "start": s.item(), "end": e.item(), "bytes": int(b),
                        "kind": KINDS[code]}, separators=(",", ":")) + "\n"
            for rank, s, e, b, code in zip(trace.rank, start, end, nbytes, trace.kind_code)]


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

    @pytest.mark.parametrize("rank, start, end, nbytes", [
        (-1, 0.0, 1.0, 5), (0, 2.0, 1.0, 5), (0, 0.0, 1.0, -5), (0, 1.0, 1.0, 5),
        (-1, 2.0, 1.0, -5),
    ], ids=["negative-rank", "negative-duration", "negative-bytes", "zero-duration-bytes",
            "three-rules"])
    def test_request_rules_are_stated_by_trace(self, rank, start, end, nbytes):
        # parse_trace adds the line number to Trace's own message for the row
        with pytest.raises(TraceValidationError) as want:
            Trace([rank], [start], [end], [nbytes], [0])
        line = json.dumps({"rank": rank, "start": start, "end": end, "bytes": nbytes,
                           "kind": "read"})
        with pytest.raises(TraceValidationError) as got:
            parse_trace(line.encode() + b"\n")
        assert str(got.value) == f"line 1: {want.value}"

    @pytest.mark.parametrize("start, end, nbytes, rule", [
        # end < start as integers, one float64 (2**53) as Trace stores them
        (b"9007199254740993", b"9007199254740992", 0, "negative duration request"),
        (b"9007199254740993", b"9007199254740992", 5, "zero-duration request with nonzero bytes"),
        # start < end as numbers, one float64 too
        (b"9007199254740992.0", b"9007199254740993", 5,
         "zero-duration request with nonzero bytes"),
        (b"9007199254740992", b"9007199254740993", 5, "zero-duration request with nonzero bytes"),
    ], ids=["0-negative duration request", "5-zero-duration request with nonzero bytes",
            "float-start-integer-end", "integer-start-integer-end"])
    def test_integer_times_that_round_together_name_the_line(self, start, end, nbytes, rule):
        line = (b'{"rank":0,"start":%s,"end":%s,"bytes":%d,"kind":"read"}\n'
                % (start, end, nbytes))
        with pytest.raises(TraceValidationError, match=f"^line 1: {rule}$"):
            parse_trace(line)

    def test_integer_times_that_stay_apart_are_accepted(self):
        # exact in float64 below 2**53, and apart above it when a float
        # lies between them
        trace = parse_trace(b'{"rank":0,"start":9007199254740991,"end":9007199254740992,'
                            b'"bytes":5,"kind":"read"}\n'
                            b'{"rank":0,"start":9007199254740992,"end":9007199254740994,'
                            b'"bytes":5,"kind":"read"}\n'
                            b'{"rank":0,"start":9007199254740993,"end":9007199254740993,'
                            b'"bytes":0,"kind":"read"}\n')
        assert trace.start.tolist() == [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53]
        assert trace.end.tolist() == [2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 53]

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

    @given(trace_files(), st.sampled_from(["both", "read", "write"]),
           st.sampled_from([1, 7, 64, trace_module._BLOCK_BYTES]))
    @settings(max_examples=300, deadline=None)
    def test_matches_line_by_line_loads(self, data, kind_filter, block_bytes):
        # small blocks end reads inside lines, CRLFs, UTF-8 sequences and the
        # trailing partial line, and hold one line or several; bytes and a
        # file path are both read a block at a time
        try:
            want = loads_per_line(data, kind_filter)
        except (TraceParseError, TraceValidationError) as exc:
            want = exc
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(trace_module, "_BLOCK_BYTES", block_bytes):
            path = os.path.join(tmp, "trace.jsonl")
            with open(path, "wb") as f:
                f.write(data)
            for source in (data, path):
                if isinstance(want, Exception):
                    with pytest.raises(type(want)) as got:
                        parse_trace(source, kind_filter)
                    assert type(got.value) is type(want) and str(got.value) == str(want)
                    continue
                trace = parse_trace(source, kind_filter)
                columns, metadata = want
                for name, values in columns.items():
                    got = getattr(trace, name)
                    assert np.array_equal(got, np.asarray(values, dtype=got.dtype))
                assert trace.metadata == metadata

    @pytest.mark.parametrize("odd", ODD_LINES_AMONG_RUNS.values(),
                             ids=ODD_LINES_AMONG_RUNS.keys())
    @given(st.integers(trace_module._RUN_LINES, 3 * trace_module._RUN_LINES),
           st.integers(0, 2 ** 32 - 1), st.data(), st.sampled_from(RUN_SPELLINGS),
           st.sampled_from(KIND_FILTERS), st.booleans(),
           st.sampled_from([8192, 12288, trace_module._BLOCK_BYTES]))
    @settings(max_examples=25, deadline=None)
    def test_request_runs_match_line_by_line_loads(self, odd, n, seed, data, spelling,
                                                   kind_filter, crlf, block_bytes):
        # runs of request lines around one line that the bulk path may not
        # take, in blocks that end inside the runs
        lines = request_lines(n, seed, spelling)
        lines.insert(data.draw(st.integers(0, n)), odd + "\n")
        text = "".join(lines).encode()
        if crlf:
            text = text.replace(b"\n", b"\r\n")
        try:
            want = loads_per_line(text, kind_filter)
        except (TraceParseError, TraceValidationError) as exc:
            want = exc
        with mock.patch.object(trace_module, "_BLOCK_BYTES", block_bytes):
            if isinstance(want, Exception):
                with pytest.raises(type(want)) as got:
                    parse_trace(text, kind_filter)
                assert type(got.value) is type(want) and str(got.value) == str(want)
                assert getattr(got.value, "line_number", None) == getattr(want, "line_number", None)
                return
            trace = parse_trace(text, kind_filter)
        columns, metadata = want
        for name, values in columns.items():
            got = getattr(trace, name)
            assert got.tobytes() == np.asarray(values, dtype=got.dtype).tobytes(), name
        assert trace.volume == sum(columns["nbytes"])
        assert trace.metadata == metadata

    @pytest.mark.parametrize("spelling", RUN_SPELLINGS)
    def test_request_lines_are_read_in_bulk(self, monkeypatch, spelling):
        # only the line whose keys stand in another order goes line by line
        n = 2 * trace_module._RUN_LINES
        lines = request_lines(n, 7, spelling)
        odd = '{"start": 1.0, "rank": 0, "end": 2.0, "bytes": 5, "kind": "read"}\n'
        lines.insert(n // 2, odd)
        by_line = []
        feed_lines = trace_module._Rows._feed_lines

        def recording_feed_lines(rows, data):
            by_line.append(data)
            feed_lines(rows, data)

        monkeypatch.setattr(trace_module._Rows, "_feed_lines", recording_feed_lines)
        trace = parse_trace("".join(lines).encode())
        assert by_line == [odd.encode()]
        columns, _ = loads_per_line("".join(lines).encode())
        assert len(trace) == n + 1 and trace.start[n // 2] == 1.0
        assert trace.volume == sum(columns["nbytes"])

    @pytest.mark.parametrize("odd", [None, ODD_LINES_AMONG_RUNS["end-1E400"]],
                             ids=["valid", "end-1E400"])
    def test_below_run_lines_every_line_is_read_one_at_a_time(self, monkeypatch, odd):
        # a feed of fewer than _RUN_LINES lines never looks for runs
        lines = request_lines(3 * trace_module._RUN_LINES, 7, "write_trace")
        if odd is not None:
            lines.insert(100, odd + "\n")
        text = "".join(lines).encode()

        def parse():
            try:
                return parse_trace(text)
            except (TraceParseError, TraceValidationError) as exc:
                return exc

        want = parse()
        monkeypatch.setattr(trace_module, "_RUN_LINES", len(lines) + 1)
        monkeypatch.setattr(trace_module._Rows, "_feed_run",
                            lambda rows, data: pytest.fail("read in bulk"))
        got = parse()
        if odd is not None:
            assert type(got) is type(want) and str(got) == str(want)
            assert got.line_number == want.line_number == 101
            return
        for name in ("rank", "start", "end", "nbytes", "kind_code"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.volume == want.volume and got.metadata == want.metadata

    @pytest.mark.parametrize("value", [10 ** 18, 2 ** 63 - 1, 10 ** 19])
    @pytest.mark.parametrize("field", ["rank", "bytes"])
    def test_run_regex_refuses_integers_of_19_digits(self, field, value):
        # numpy parses a run's integers exactly only within int64, and
        # clamps past it without a word; 18 digits are the most it is given
        def line(n):
            rank, nbytes = (n, 10) if field == "rank" else (3, n)
            return (SPELLED % (rank, "1.5", "2.5", nbytes, "read") + "\n").encode()

        assert trace_module._RUN.search(line(value)) is None
        assert trace_module._RUN.fullmatch(line(10 ** 18 - 1))

    @pytest.mark.parametrize("spelling", RUN_SPELLINGS)
    def test_bulk_path_gets_integers_of_18_digits_at_most(self, monkeypatch, spelling):
        by_bulk = []
        feed_run = trace_module._Rows._feed_run

        def recording_feed_run(rows, data):
            by_bulk.append(data)
            return feed_run(rows, data)

        monkeypatch.setattr(trace_module._Rows, "_feed_run", recording_feed_run)
        run = trace_module._RUN_LINES
        for odd in ODD_LINES_AMONG_RUNS.values():
            lines = request_lines(2 * run, 7, spelling)
            lines.insert(run, odd + "\n")
            with contextlib.suppress(TraceParseError, TraceValidationError):
                parse_trace("".join(lines).encode())
        integers = re.findall(rb'"(?:rank|bytes)": ?-?([0-9]+)', b"".join(by_bulk))
        # the 18-digit rank among the lines shows the bound is reached
        assert integers and max(map(len, integers)) == 18

    @pytest.mark.parametrize("separators", REFUSED_SEPARATORS.values(),
                             ids=REFUSED_SEPARATORS.keys())
    @pytest.mark.parametrize("bad", [False, True], ids=["valid", "negative-duration"])
    def test_a_file_in_a_refused_spelling_is_read_line_by_line(self, monkeypatch,
                                                                separators, bad):
        def spell(record):
            return json.dumps(record, separators=separators) + "\n"

        run = trace_module._RUN_LINES
        lines = [spell({"meta": True, "job": "7"})] + [
            spell(json.loads(line)) for line in request_lines(3 * run, 7, "write_trace")]
        if bad:
            lines.insert(2 * run, spell({"rank": 3, "start": 2.5, "end": 1.5, "bytes": 10,
                                         "kind": "read"}))
        text = "".join(lines).encode()
        try:
            want = loads_per_line(text)
        except (TraceParseError, TraceValidationError) as exc:
            want = exc
        monkeypatch.setattr(trace_module._Rows, "_feed_run",
                            lambda rows, data: pytest.fail("read in bulk"))
        rows = trace_module._Rows("both")
        rows.feed("".join(lines[:run + 1]).encode())
        rest = "".join(lines[run + 1:]).encode()
        if bad:
            with pytest.raises(type(want)) as got:
                rows.feed(rest)
            assert str(got.value) == str(want) and "line 129" in str(want)
            return
        rows.feed(rest)
        trace = rows.trace()
        columns, metadata = want
        for name, values in columns.items():
            got = getattr(trace, name)
            assert got.tobytes() == np.asarray(values, dtype=got.dtype).tobytes(), name
        assert trace.volume == sum(columns["nbytes"])
        assert trace.metadata == metadata == {"job": "7"}

    def test_short_runs_are_read_line_by_line(self, monkeypatch):
        # runs shorter than _RUN_LINES cost less in the line loop
        lines = request_lines(3 * trace_module._RUN_LINES, 7, "write_trace")
        odd = '{"start": 1.0, "rank": 0, "end": 2.0, "bytes": 5, "kind": "read"}\n'
        short = trace_module._RUN_LINES - 1
        for at in range(short, len(lines), short + 1):
            lines.insert(at, odd)
        by_bulk = []
        feed_run = trace_module._Rows._feed_run

        def recording_feed_run(rows, data):
            by_bulk.append(data)
            return feed_run(rows, data)

        monkeypatch.setattr(trace_module._Rows, "_feed_run", recording_feed_run)
        trace = parse_trace("".join(lines).encode())
        assert by_bulk == []
        assert len(trace) == len(lines)

    def test_view_keeps_the_reads_that_reach_its_start(self):
        # three reads whose running maximum end goes 10, 10, 30: the second
        # ends at 8, so a view from past 8 but before 10 keeps it
        reads = [[(0, 0.0, 10.0, 1)], [(1, 2.0, 8.0, 2)],
                 [(0, 20.0, 30.0, 4), (1, 25.0, 26.0, 8)]]
        rows = trace_module._Rows("both")
        for read in reads:
            rows.read(io.BytesIO(trace_text(read).encode()))
        assert rows.max_end == [10.0, 10.0, 30.0]
        every, third = [0.0, 2.0, 20.0, 25.0], [20.0, 25.0]
        for view, starts in ((rows.trace(9.5), every), (rows.trace(10.0), third),
                             (rows.trace(50.0), third), (rows.trace(), every)):
            assert view.start.tolist() == starts
            assert view.volume == 15
        # rows fed without a read are indexed by no read: the view is every row
        fed = trace_module._Rows("both")
        for read in reads:
            fed.feed(trace_text(read).encode())
        assert fed.first_row == fed.max_end == []
        assert fed.trace().start.tolist() == every and fed.trace().volume == 15

    def test_every_feed_of_a_run_or_more_looks_for_runs(self, monkeypatch):
        run = trace_module._RUN_LINES
        lines = request_lines(4 * run, 7, "write_trace")
        reordered = [json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines]
        feeds = [lines[:run - 1], lines[run:2 * run], reordered[:run], lines[2 * run:]]
        by_bulk = []
        feed_run = trace_module._Rows._feed_run

        def recording_feed_run(rows, data):
            by_bulk.append(data.count(b"\n"))
            return feed_run(rows, data)

        monkeypatch.setattr(trace_module._Rows, "_feed_run", recording_feed_run)
        rows = trace_module._Rows("both")
        for feed in feeds:
            rows.feed("".join(feed).encode())
        # too few lines to look for runs; a run; none; a run again
        assert by_bulk == [run, 2 * run]
        columns, _ = loads_per_line("".join(sum(feeds, [])).encode())
        trace = rows.trace()
        for name, values in columns.items():
            assert getattr(trace, name).tobytes() == np.asarray(
                values, dtype=getattr(trace, name).dtype).tobytes(), name

    def test_a_stream_begun_in_another_spelling_is_read_in_bulk_later(self, monkeypatch):
        # a first read in another order of keys must not keep the rest of
        # the stream off the bulk path
        run = trace_module._RUN_LINES
        lines = request_lines(100 + 3 * run, 11, "write_trace")
        reordered = [json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines[:100]]
        by_bulk = []
        feed_run = trace_module._Rows._feed_run

        def recording_feed_run(rows, data):
            by_bulk.append(data.count(b"\n"))
            return feed_run(rows, data)

        monkeypatch.setattr(trace_module._Rows, "_feed_run", recording_feed_run)
        rows = trace_module._Rows("both")
        rows.read(io.BytesIO("".join(reordered).encode()))
        rows.read(io.BytesIO("".join(lines[100:]).encode()))
        assert by_bulk == [3 * run]
        columns, _ = loads_per_line("".join(reordered + lines[100:]).encode())
        trace = rows.trace()
        for name, values in columns.items():
            assert getattr(trace, name).tobytes() == np.asarray(
                values, dtype=getattr(trace, name).dtype).tobytes(), name

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
#: ranks and byte counts of at most 18 digits, which the parser's bulk path
#: reads, and of any size int64 holds, each with its edges
INTEGERS = (st.sampled_from([0, 1, 10 ** 17, 10 ** 18 - 1]) | st.integers(0, 10 ** 18 - 1),
            st.sampled_from([10 ** 18, INT64_MAX]) | st.integers(0, INT64_MAX))


@st.composite
def trace_rows(draw):
    """Rows of a valid trace: (rank, start, end, bytes, kind), often
    enough of them for the parser's bulk path."""
    rows = []
    integers = draw(st.sampled_from(INTEGERS))
    for _ in range(draw(st.integers(0, 2 * trace_module._RUN_LINES))):
        start, end = sorted([draw(TIMES), draw(TIMES)])
        # a request without duration moves no bytes
        nbytes = draw(integers) if start < end else 0
        rows.append((draw(integers), start, end, nbytes, draw(st.sampled_from(KINDS))))
    return rows


#: peak resident memory a parse may add, per byte of the columns it gives
PARSE_RSS_PER_COLUMN_BYTE = 3
#: and on top of that: a block's strings and lists, a Trace's check
#: temporaries, and pages rounded up where the kernel backs them with huge ones
PARSE_RSS_SLACK = 8 << 20
#: a child that reports the rise of its peak resident set (VmHWM, which,
#: unlike getrusage's maxrss, starts afresh at exec) over its post-import
#: peak while it parses the file, or watches it for one poll
MEASURE_RSS = """
import sys
from ioperiod import parse_trace, watch

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))

mode, path = sys.argv[1:]
before = peak()
if mode == "parse":
    parse_trace(path)
else:
    (record,) = watch(path, fs=1.0, idle_timeout=0)
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
class TestParseMemory:
    """A parse holds a small multiple of its columns, not of the file.

    Peak resident memory is read in a fresh interpreter: tracemalloc does
    not see numpy's buffers, and this process's peak is already past it.
    """

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        """A generated file of 224,000 rows (23 MB) and its column bytes."""
        config = SynthConfig(iterations=2, templates=tuple(bundled_phase_templates()))
        trace, _ = generate(config)
        path = tmp_path_factory.mktemp("memory") / "trace.jsonl"
        write_trace(trace, path)
        return path, sum(col.nbytes for col in (
            trace.rank, trace.start, trace.end, trace.nbytes, trace.kind_code))

    @pytest.mark.parametrize("mode", ["parse", "watch"])
    def test_peak_rss_rise_is_a_small_multiple_of_the_columns(self, trace_file, mode):
        path, column_bytes = trace_file
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(ioperiod.__file__)),
             os.environ.get("PYTHONPATH", "")]))
        rise = int(subprocess.run([sys.executable, "-c", MEASURE_RSS, mode, str(path)],
                                  env=env, capture_output=True, text=True, check=True).stdout)
        assert rise <= PARSE_RSS_PER_COLUMN_BYTE * column_bytes + PARSE_RSS_SLACK, (
            f"{mode}: peak RSS rose {rise / 2 ** 20:.1f} MiB for "
            f"{column_bytes / 2 ** 20:.1f} MiB of columns")


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
        assert back.volume == sum(row[3] for row in rows)
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

    @pytest.mark.parametrize("rows, message", [
        # row 2 breaks the bytes rule and row 3 the rank rule: rank comes first
        ([(0, 0.0, 1.0, 5), (0, 1.0, 2.0, -5), (-1, 2.0, 3.0, 5)], "negative rank"),
        ([(0, np.nan, 1.0, 5), (-1, 2.0, 3.0, 5)], "negative rank"),
        ([(0, 0.0, 1.0, -5), (0, 2.0, 1.0, 5)], "negative duration request"),
        ([(0, 2.0, 1.0, 5), (0, 0.0, np.nan, 5)], "end time is NaN"),
        ([(0, 0.0, np.nan, 5), (0, np.nan, 1.0, 5)], "start time is NaN"),
        ([(0, 1.0, 1.0, 5), (0, -np.inf, 1.0, 5)], "start time is -inf"),
        ([(0, 0.0, 1.0, -5), (0, 0.0, np.inf, 5)], "end time is inf"),
        ([(0, 1.0, 1.0, 5), (0, 0.0, 1.0, -5)], "negative byte count"),
        ([(0, 0.0, 1.0, 5), (0, 1.0, 1.0, 0), (0, 2.0, 2.0, 5)],
         "zero-duration request with nonzero bytes"),
        # one rule broken among rows of positive duration
        ([(0, 0.0, 1.0, 5), (-1, 1.0, 2.0, 5)], "negative rank"),
        ([(0, 0.0, 1.0, 5), (0, 1.0, 2.0, -5)], "negative byte count"),
        ([(0, 0.0, 1.0, 5), (0, -np.inf, 2.0, 5)], "start time is -inf"),
        ([(0, 0.0, np.inf, 5), (0, 1.0, 2.0, 5)], "end time is inf"),
    ], ids=["bytes-then-rank", "nan-and-rank", "bytes-and-duration", "duration-and-nan-end",
            "nan-end-and-nan-start", "zero-duration-and-minus-inf", "bytes-and-inf",
            "zero-duration-and-bytes", "zero-duration-after-a-legal-one", "only-rank",
            "only-bytes", "only-minus-inf", "only-inf"])
    def test_first_rule_in_order_names_the_error(self, rows, message):
        with pytest.raises(TraceValidationError, match=f"^{message}$"):
            make_trace(rows)

    @given(st.lists(request_rows(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_rules_are_checked_in_order(self, rows):
        message = first_broken_rule(rows)
        if message is not None:
            with pytest.raises(TraceValidationError, match=f"^{message}$"):
                make_trace(rows)
            return
        trace = make_trace(rows)
        assert trace.t_min == min(row[1] for row in rows)
        assert trace.t_max == max(row[2] for row in rows)

    def test_zero_duration_rows_without_bytes_are_accepted(self):
        trace = make_trace([(0, 5.0, 5.0, 0), (1, 1.0, 2.0, 10), (0, 7.0, 7.0, 0),
                            (2, 0.5, 0.5, 0)])
        assert (trace.t_min, trace.t_max) == (0.5, 7.0)
        only = make_trace([(0, 3.0, 3.0, 0)])
        assert (only.t_min, only.t_max, only.volume) == (3.0, 3.0, 0)

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
