"""End-to-end command-line behavior, and what a user runs from a shell:
the console-script entry point, the package import and the demos."""
import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from conftest import HOSTILE_RECORDS, trace_text

from ioperiod import Trace, spectral, write_trace
from ioperiod.cli import main
from ioperiod.sampling import MAX_SAMPLES

REPO = Path(__file__).resolve().parents[1]
#: the environment of a fresh interpreter that imports the package from this checkout
FRESH_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}


def write_pulses(path, n_pulses=7, period=10.0, phase_len=2.0):
    rows = [(0, j * period, j * period + phase_len, 10 ** 9) for j in range(n_pulses)]
    path.write_text(trace_text(rows))
    return path


class TestDetect:
    def test_json_output(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl")
        assert main(["detect", str(trace), "--freq", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["confidence"] == "high"
        assert out["period_s"] == pytest.approx(10.0, rel=0.05)
        assert out["metrics"]["score"] == pytest.approx(1.0, abs=0.05)

    def test_text_output(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl")
        assert main(["detect", str(trace), "--freq", "10", "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "confidence: high" in text
        assert "period:" in text

    def test_csv_output_to_file(self, tmp_path):
        trace = write_pulses(tmp_path / "t.jsonl")
        out = tmp_path / "result.csv"
        assert main(["detect", str(trace), "--freq", "10",
                     "--format", "csv", "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["confidence"] == "high"

    def test_spectrum_export(self, tmp_path):
        trace = write_pulses(tmp_path / "t.jsonl")
        spec = tmp_path / "spec.csv"
        assert main(["detect", str(trace), "--freq", "10",
                     "--spectrum-out", str(spec)]) == 0
        rows = list(csv.DictReader(spec.open()))
        assert rows[0]["k"] == "0"
        assert len(rows) > 100

    @pytest.mark.parametrize("rows, window", [
        ([], []),
        ([(0, 0.0, 1.0, 0), (0, 2.0, 3.0, 0)], []),
        ([(0, 0.0, 1.0, 100)], ["--window", "5", "9"]),
    ], ids=["empty", "zero-volume", "window-without-io"])
    def test_no_spectrum_warns(self, tmp_path, capsys, rows, window):
        # no I/O in the window, so no spectrum: detect says why on stderr
        # and still prints its result
        path = tmp_path / "t.jsonl"
        path.write_text(trace_text(rows))
        exported = tmp_path / "detect.csv"
        assert main(["detect", str(path), *window, "--spectrum-out", str(exported)]) == 0
        assert not exported.exists()
        captured = capsys.readouterr()
        assert json.loads(captured.out)["no_data"] is True
        assert captured.err == ("warning: no I/O in the analysis window, so no spectrum; "
                                f"{exported} not written\n")

    def test_empty_trace_is_no_data(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["detect", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["no_data"] is True
        assert out["confidence"] == "no_candidate"

    # bytes / volume / duration overflows for one request, or two finite
    # rates overlap past the float range: no NaN may reach the output
    @pytest.mark.parametrize("short", [
        [(0, 0.0, 5e-324, 1)],
        [(0, 0.0, 4e-309, 1000), (1, 0.0, 4e-309, 1000)],
    ], ids=["one-rate", "overlapping-rates"])
    def test_subnormal_duration_exits_with_error(self, tmp_path, capsys, short):
        rows = short + [(0, 1.0, 2.0, 10), (0, 3.0, 4.0, 10), (0, 5.0, 6.0, 10)]
        path = tmp_path / "subnormal.jsonl"
        path.write_text(trace_text(rows))
        assert main(["detect", str(path), "--freq", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["detect", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", HOSTILE_RECORDS.values(), ids=HOSTILE_RECORDS.keys())
    def test_hostile_numbers_exit_with_line(self, tmp_path, capsys, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(trace_text([(0, 0.0, 1.0, 100)]) + line + "\n")
        assert main(["detect", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")

    def test_huge_window_states_the_sample_bound(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl")
        assert main(["detect", str(trace), "--window", "0", "1e13"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(MAX_SAMPLES) in err

    def test_three_sample_trace_is_no_candidate(self, tmp_path, capsys):
        path = tmp_path / "short.jsonl"
        path.write_text(trace_text([(0, 0.0, 0.1, 100), (0, 0.1, 0.3, 50)]))
        spec = tmp_path / "spec.csv"
        assert main(["detect", str(path), "--freq", "10", "--spectrum-out", str(spec)]) == 0
        assert json.loads(capsys.readouterr().out)["confidence"] == "no_candidate"
        assert len(list(csv.DictReader(spec.open()))) == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["detect", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_window_flag(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl")
        assert main(["detect", str(trace), "--freq", "10",
                     "--window", "0", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["window"] == [0.0, 50.0]


class TestGenerateAndBench:
    def test_generate_writes_trace_and_truth(self, tmp_path, capsys):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "synth.jsonl"
        truth = tmp_path / "truth.json"
        payloads = {}
        for iterations in (5, 1):
            assert main(["generate", "--out", str(out), "--truth", str(truth),
                         "--iterations", str(iterations), "--request-bytes", "16000000",
                         "--seed", "3"]) == 0
            assert out.exists()
            payloads[iterations] = json.loads(truth.read_text(), parse_constant=reject)
            assert len(payloads[iterations]["iteration_starts"]) == iterations
            assert "nan" not in capsys.readouterr().err
        assert payloads[5]["lambda_avg"] > 0
        # one iteration has no mean length: null, not NaN
        assert payloads[1]["lambda_avg"] is None

    def test_generate_then_detect(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        assert main(["generate", "--out", str(out), "--request-bytes",
                     "16000000", "--seed", "3"]) == 0
        capsys.readouterr()
        with pytest.warns(Warning):
            # coarse request size trips the under-sampling flag at 1 Hz
            assert main(["detect", str(out), "--freq", "1"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["confidence"] in ("high", "moderate")
        assert result["period_s"] == pytest.approx(22.0, rel=0.1)

    def test_generate_rejects_bad_config(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "x.jsonl"),
                     "--noise", "none", "--iterations", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "bench"])
    @pytest.mark.parametrize("config", ['[1, 2]', '{"bogus": 1}', '{"processes": "x"}'],
                             ids=["list", "unknown-key", "mistyped"])
    def test_bad_config_exits_with_error(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(config)
        assert main([command, "--out", str(tmp_path / "out"), "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["generate", "bench"])
    def test_negative_seed_exits_with_error(self, tmp_path, capsys, command):
        assert main([command, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
    @pytest.mark.parametrize("config, flags", [
        ('{"iterations": 5}', ["--iterations", "5"]),
        ('{"seed": 5}', ["--seed", "5"]),
        ('{"noise": "high"}', ["--noise", "high"]),
    ], ids=["iterations", "seed", "noise"])
    def test_bench_config_overrides_flags(self, tmp_path, config, flags):
        # the sweep's seed and its one noise cell follow the config as the flags do
        path = tmp_path / "config.json"
        path.write_text(config)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--repetitions", "1", "--config", str(path),
                     "--out", str(a)]) == 0
        assert main(["bench", "--repetitions", "1", *flags, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("field", ["compute_mean", "desync_mean"])
    def test_generate_too_large_a_time_names_the_field(self, tmp_path, capsys, field):
        # request times near 1e300 round each end onto its start
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: 1e300, "iterations": 2}))
        assert main(["generate", "--out", str(tmp_path / "x.jsonl"), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
    def test_bench_default_grid_errors_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["bench", "--repetitions", "3", "--out", str(out),
                     "--seed", "2"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert max(float(r["error"]) for r in rows) < 0.01

    @pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
    def test_bench_custom_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["bench", "--repetitions", "2", "--noise", "none,low",
                     "--compute-std-grid", "0,3.3", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2 * 2 * 2
        assert {r["noise"] for r in rows} == {"none", "low"}


class TestPredict:
    def test_predict_streams_json_lines(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl", n_pulses=5)
        assert main(["predict", str(trace), "--freq", "10",
                     "--watch-interval", "0.01", "--idle-timeout", "0.02"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["confidence"] == "high"
        assert "trigger_time" in record

    def test_log_level_debug_logs_each_append_to_stderr(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl", n_pulses=5)
        argv = ["predict", str(trace), "--freq", "10", "--watch-interval", "0.01",
                "--idle-timeout", "0.02"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert main(argv + ["--log-level", "debug"]) == 0
        out, err = capsys.readouterr()
        assert len(out.strip().split("\n")) == 1
        (line,) = err.strip().split("\n")
        assert line.startswith("DEBUG ioperiod: append: read ")
        assert "; 5 rows kept, 5 analysed; window (0, 42) full; " in line
        # the command's handler goes when it returns
        assert logging.getLogger("ioperiod").handlers == []


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["predict", "t.jsonl", "--window", "0", "1"],
        ["bench", "--window", "0", "1"],
        ["bench", "--kind", "read"],
    ], ids=["predict-window", "bench-window", "bench-kind"])
    def test_flag_the_command_does_not_read_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


#: flags outside their range, by test id; each command would otherwise run
OUT_OF_RANGE = {
    "detect-freq-negative": ["detect", "TRACE", "--freq", "-1"],
    "detect-freq-nan": ["detect", "TRACE", "--freq", "nan"],
    "detect-freq-zero": ["detect", "TRACE", "--freq", "0"],
    "bench-freq-negative": ["bench", "--freq", "-1", "--repetitions", "1"],
    "detect-tolerance-above-1": ["detect", "TRACE", "--tolerance", "5"],
    "detect-tolerance-zero": ["detect", "TRACE", "--tolerance", "0"],
    "bench-tolerance-nan": ["bench", "--tolerance", "nan", "--repetitions", "1"],
    "detect-z-min-negative": ["detect", "TRACE", "--z-min", "-1"],
    "predict-freq-nan": ["predict", "TRACE", "--freq", "nan", "--idle-timeout", "0.02"],
    "predict-tolerance-above-1": ["predict", "TRACE", "--tolerance", "1.5",
                                  "--idle-timeout", "0.02"],
    "predict-z-min-negative": ["predict", "TRACE", "--z-min", "-3", "--idle-timeout", "0.02"],
    "predict-idle-timeout-negative": ["predict", "TRACE", "--idle-timeout", "-5"],
    "predict-watch-interval-negative": ["predict", "TRACE", "--watch-interval", "-1",
                                        "--idle-timeout", "0.02"],
    "predict-watch-interval-zero": ["predict", "TRACE", "--watch-interval", "0",
                                    "--idle-timeout", "1"],
    "predict-watch-interval-nan": ["predict", "TRACE", "--watch-interval", "nan",
                                   "--idle-timeout", "0.02"],
    "predict-fixed-window-negative": ["predict", "TRACE", "--fixed-window", "-2",
                                      "--idle-timeout", "0.02"],
    "predict-fixed-window-below-3-samples": ["predict", "TRACE", "--fixed-window", "0.2",
                                             "--idle-timeout", "0.02"],
    "generate-request-bytes-zero": ["generate", "--out", "TRACE", "--request-bytes", "0"],
    "bench-request-bytes-zero": ["bench", "--request-bytes", "0", "--repetitions", "1"],
    "bench-request-bytes-negative": ["bench", "--request-bytes", "-1", "--repetitions", "1"],
    # one iteration has no mean length to score a detection against
    "bench-iterations-one": ["bench", "--iterations", "1", "--repetitions", "1"],
    # generator values must be finite: a NaN compute_std used to hang the draw
    "generate-compute-std-nan": ["generate", "--out", "TRACE", "--compute-std", "nan"],
    "generate-compute-mean-inf": ["generate", "--out", "TRACE", "--compute-mean", "inf"],
    "generate-desync-mean-nan": ["generate", "--out", "TRACE", "--desync-mean", "nan"],
    "bench-compute-mean-grid-nan": ["bench", "--compute-mean-grid", "nan", "--repetitions", "1"],
    "detect-window-nan": ["detect", "TRACE", "--window", "nan", "5"],
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_flag_exits_with_error(tmp_path, capsys, argv):
    trace = write_pulses(tmp_path / "t.jsonl", n_pulses=5)
    assert main([str(trace) if a == "TRACE" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""  # rejected before any record or row is written


@pytest.mark.parametrize("window", [["nan", "3"], ["0", "inf"], ["5", "1"], ["2", "2"],
                                    ["-inf", "3"], ["-1e3", "60"]],
                         ids=["nan", "infinity", "reversed", "empty",
                              "minus-infinity", "negative-exponent-accepted"])
@pytest.mark.parametrize("pulses", [0, 5], ids=["metadata-only", "pulses"])
def test_bad_window_exits_with_error(tmp_path, capsys, pulses, window):
    # analyze_trace checks the window before a trace with no volume returns
    # early; -inf and -1e3 are bounds, not flags
    path = tmp_path / "t.jsonl"
    if pulses:
        write_pulses(path, n_pulses=pulses)
    else:
        path.write_text(trace_text([], meta={"job": "1"}))
    code = main(["detect", str(path), "--window", *window])
    captured = capsys.readouterr()
    if window[0] == "-1e3":
        # a good window: the analysis runs
        assert "window needs" not in captured.err
        assert code == 0
        return
    assert code == 1
    assert captured.err.startswith("error: window needs finite bounds with LO < HI, got ")
    assert captured.out == ""


#: the flags of the generated trace the console checks share
SYNTH_FLAGS = ["--iterations", "4", "--request-bytes", "16000000"]


@pytest.fixture(scope="module")
def console(tmp_path_factory):
    """The trace files the console checks share, as paths by name: synth,
    a generated trace; inf, synth with line 100's end spelled as infinity;
    round, one line whose integer times round onto each other; and epoch,
    30 one-second pulses every 10 s from 1.7e9 s."""
    work = tmp_path_factory.mktemp("console")
    files = {name: str(work / f"{name}.jsonl") for name in ("synth", "inf", "round", "epoch")}
    assert main(["generate", "--out", files["synth"], *SYNTH_FLAGS]) == 0
    lines = Path(files["synth"]).read_text().splitlines(keepends=True)
    lines[99] = re.sub(r'"end": [^,]*', '"end": 1e999', lines[99], count=1)
    Path(files["inf"]).write_text("".join(lines))
    Path(files["round"]).write_text('{"rank": 0, "start": 9007199254740992.0, '
                                    '"end": 9007199254740993, "bytes": 5, "kind": "read"}\n')
    start = 1.7e9 + 10.0 * np.arange(30)
    write_trace(Trace(np.zeros(30, int), start, start + 1.0, np.full(30, 10 ** 8),
                      np.ones(30, int)), files["epoch"])
    return files


def strict_json_lines(text):
    """The records of JSON-lines output, which must be strict JSON: NaN or
    Infinity is an error."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    lines = text.splitlines()
    assert lines, "no output"
    return [json.loads(line, parse_constant=reject) for line in lines]


def test_generate_spells_json_dumps_and_repeats(console, tmp_path):
    synth = Path(console["synth"])
    for n, line in enumerate(synth.read_text().splitlines(), 1):
        assert line == json.dumps(json.loads(line)), (n, line)
    # the same seed writes the same file
    again = tmp_path / "synth-again.jsonl"
    assert main(["generate", "--out", str(again), *SYNTH_FLAGS]) == 0
    assert again.read_bytes() == synth.read_bytes()


def _respell(spelling):
    """A file transform that spells each line's record as ``spelling(n, record)``."""
    return lambda text: "".join(spelling(n, json.loads(line)) + "\n"
                                for n, line in enumerate(text.splitlines()))


#: pairs of transforms of the generated trace file that detect reads alike, by test id
SAME_OUTPUT = {
    "crlf": (lambda text: text, lambda text: text.replace("\n", "\r\n")),
    # every other line compact, read in bulk, and every 50th with its keys
    # in another order, read line by line
    "mixed": (lambda text: text, _respell(
        lambda n, record: json.dumps(record, sort_keys=True) if n % 50 == 0
        else json.dumps(record, separators=(",", ":")) if n % 2 else json.dumps(record))),
    # valid JSON that the bulk path refuses, so read line by line
    "spaced": (lambda text: text, _respell(
        lambda n, record: json.dumps(record, separators=(" , ", " : ")))),
    "tab": (lambda text: text, _respell(
        lambda n, record: json.dumps(record, separators=(", ", ":\t")))),
    # a file cut mid-line reads as the file without its last line
    "cut-mid-line": (lambda text: "".join(text.splitlines(keepends=True)[:-1]),
                     lambda text: text[:-30]),
}


@pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
@pytest.mark.parametrize("reference, variant", SAME_OUTPUT.values(), ids=SAME_OUTPUT.keys())
def test_equivalent_files_detect_alike(console, tmp_path, reference, variant):
    text = Path(console["synth"]).read_text()
    outputs = []
    for name, transform in (("reference", reference), ("variant", variant)):
        trace = tmp_path / f"{name}.jsonl"
        trace.write_bytes(transform(text).encode())
        out = tmp_path / f"{name}.json"
        assert main(["detect", str(trace), "--freq", "1", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    strict_json_lines(outputs[0].decode())


@pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
def test_detect_text_output_of_generated_trace(console):
    assert main(["detect", console["synth"], "--freq", "1", "--format", "text"]) == 0


@pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
def test_negative_exponent_window_bound_is_a_value(console, capsys):
    assert main(["detect", console["synth"], "--freq", "1", "--window", "-1e1", "1e2"]) == 0
    (result,) = strict_json_lines(capsys.readouterr().out)
    assert result["window"] == [-10.0, 100.0]


# the window holds 2302 = 2*1151 samples at 30 Hz, 4145 = 5*829 at 54 Hz
# and 30704 = 16*19*101 at 400 Hz, none 11-smooth; only the last exceeds
# the trace's 27,904 requests, so only it is transformed at the next
# 11-smooth length.  Either way bin k reads k*freq/n, and the DC bin is
# exactly real, so its phase is 0 or pi.
@pytest.mark.parametrize("freq, n, m", [(30, 2302, 2302), (54, 4145, 4145), (400, 30704, 30720)],
                         ids=["30hz-half-length", "54hz-grid", "400hz-smooth-grid"])
def test_spectrum_out_length_takes_its_plan(console, tmp_path, freq, n, m):
    exported = tmp_path / "spectrum.csv"
    assert main(["detect", console["synth"], "--freq", str(freq),
                 "--spectrum-out", str(exported)]) == 0
    rows = list(csv.DictReader(exported.open()))
    assert spectral._good_size(n) != n
    assert len(rows) == m // 2 + 1
    assert float(rows[1]["f_k"]) == freq / n
    assert float(rows[0]["phase"]) in (0.0, math.pi)


@pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
def test_predict_debug_log_names_each_window(console, capsys):
    assert main(["predict", console["synth"], "--freq", "1", "--watch-interval", "0.01",
                 "--idle-timeout", "0.02", "--log-level", "debug"]) == 0
    out, err = capsys.readouterr()
    assert re.search(r"window \(.*\) full", err)
    strict_json_lines(out)


def test_epoch_times(console, capsys):
    # detect finds the period; predict measures its windows from trace
    # time 0, so it needs --fixed-window (CONSOLE_ERRORS has it without)
    assert main(["detect", console["epoch"], "--freq", "10"]) == 0
    (result,) = strict_json_lines(capsys.readouterr().out)
    assert abs(result["period_s"] - 10.0) < 0.1
    assert main(["predict", console["epoch"], "--freq", "10", "--idle-timeout", "0",
                 "--fixed-window", "60"]) == 0
    records = strict_json_lines(capsys.readouterr().out)
    assert len(records) == 1 and records[0]["period_s"] == 10.0
    assert records[0]["window"] == [1700000231.0, 1700000291.0]


#: errors on the shared trace files, by test id: (argv, naming a file as
#: {name}; stderr pattern; exit code)
CONSOLE_ERRORS = {
    # an infinite end spelled as write_trace spells a record, inside a run read in bulk
    "infinite-end-in-bulk-run": (["detect", "{inf}", "--freq", "1"],
                                 r"^error: line 100: end must be finite", 1),
    "integer-times-round-onto-each-other": (["detect", "{round}"],
                                            r"^error: line 1: zero-duration", 1),
    "epoch-predict-without-fixed-window": (
        ["predict", "{epoch}", "--freq", "10", "--idle-timeout", "0"], r"^error: window of", 1),
    # a fixed window of fewer than 3 samples is not widened
    "fixed-window-below-3-samples": (
        ["predict", "{epoch}", "--fixed-window", "0.2", "--freq", "10", "--idle-timeout", "0"],
        r"^error: fixed window", 1),
}


@pytest.mark.parametrize("argv, pattern, code", CONSOLE_ERRORS.values(),
                         ids=CONSOLE_ERRORS.keys())
def test_console_error(console, capsys, argv, pattern, code):
    # main returns rather than raising, so no traceback reaches the user
    assert main([arg.format(**console) for arg in argv]) == code
    assert re.search(pattern, capsys.readouterr().err, re.MULTILINE)


#: generator values that an endless draw once met, by test id: (flags, stderr pattern)
ENDLESS_DRAWS = {
    "compute-std-nan": (["--compute-std", "nan"], r"^error: "),
    # noise over a trace too long to fill with bursts
    "noise-over-a-long-trace": (["--noise", "low", "--compute-mean", "1e12", "--iterations", "2",
                                 "--request-bytes", "16000000"], r"^error: .*compute_mean"),
}


@pytest.mark.parametrize("flags, pattern", ENDLESS_DRAWS.values(), ids=ENDLESS_DRAWS.keys())
def test_generator_error_does_not_hang(tmp_path, flags, pattern):
    # in a subprocess, so that a hang fails the test rather than blocking the run
    done = subprocess.run([sys.executable, "-m", "ioperiod.cli", "generate",
                           "--out", str(tmp_path / "out.jsonl"), *flags],
                          env=FRESH_ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert re.search(pattern, done.stderr, re.MULTILINE)
    assert "Traceback" not in done.stderr


def test_console_script_is_cli_main():
    # the tests drive cli.main; the installed ioperiod command is this entry point
    with open(REPO / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["scripts"] == {"ioperiod": "ioperiod.cli:main"}


def test_package_imports_neither_logging_nor_argparse():
    # pytest imports logging itself, so only a fresh interpreter can check this
    done = subprocess.run(
        [sys.executable, "-c",
         "import ioperiod, sys; assert not {'logging','argparse'} & set(sys.modules)"],
        env=FRESH_ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_0(tmp_path, demo):
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=FRESH_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
