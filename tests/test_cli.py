"""End-to-end command-line behavior."""
import csv
import json
import logging

import pytest

from conftest import HOSTILE_RECORDS, trace_text

from ioperiod.cli import main
from ioperiod.sampling import MAX_SAMPLES


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
    def test_bench_config_overrides_flags(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"iterations": 5}')
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--repetitions", "1", "--config", str(config),
                     "--out", str(a)]) == 0
        assert main(["bench", "--repetitions", "1", "--iterations", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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


class TestSpectrumCommand:
    def test_spectrum_csv(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl")
        assert main(["spectrum", str(trace), "--freq", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].strip() == "k,f_k,amplitude,adjusted_amplitude,phase"
        assert len(lines) > 100
        # same sampler and amplitude scale as detect, so the same bytes
        spectrum, exported = tmp_path / "spectrum.csv", tmp_path / "detect.csv"
        window = ["--window", "1", "63.5"]
        assert main(["spectrum", str(trace), "--freq", "10", *window,
                     "--out", str(spectrum)]) == 0
        assert main(["detect", str(trace), "--freq", "10", *window,
                     "--spectrum-out", str(exported)]) == 0
        assert spectrum.read_bytes() == exported.read_bytes()

    @pytest.mark.parametrize("rows, window", [
        ([], []),
        ([(0, 0.0, 1.0, 0), (0, 2.0, 3.0, 0)], []),
        ([(0, 0.0, 1.0, 100)], ["--window", "5", "9"]),
    ], ids=["empty", "zero-volume", "window-without-io"])
    def test_no_spectrum_exits_with_error(self, tmp_path, capsys, rows, window):
        path = tmp_path / "t.jsonl"
        path.write_text(trace_text(rows))
        spectrum, exported = tmp_path / "spectrum.csv", tmp_path / "detect.csv"
        assert main(["spectrum", str(path), *window, "--out", str(spectrum)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        # where detect writes no spectrum either: it says why on stderr and
        # still prints its result
        assert main(["detect", str(path), *window, "--spectrum-out", str(exported)]) == 0
        assert not exported.exists()
        captured = capsys.readouterr()
        assert json.loads(captured.out)["no_data"] is True
        assert captured.err == ("warning: no I/O in the analysis window, so no spectrum; "
                                f"{exported} not written\n")


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
        ["spectrum", "t.jsonl", "--tolerance", "0.5"],
        ["spectrum", "t.jsonl", "--z-min", "2"],
    ], ids=["predict-window", "bench-window", "bench-kind", "spectrum-tolerance",
            "spectrum-z-min"])
    def test_flag_the_command_does_not_read_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


#: flags outside their range, by test id; each command would otherwise run
OUT_OF_RANGE = {
    "detect-freq-negative": ["detect", "TRACE", "--freq", "-1"],
    "detect-freq-nan": ["detect", "TRACE", "--freq", "nan"],
    "spectrum-freq-zero": ["spectrum", "TRACE", "--freq", "0"],
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
@pytest.mark.parametrize("command", ["detect", "spectrum"])
def test_bad_window_exits_with_error(tmp_path, capsys, command, pulses, window):
    # analyze_trace checks the window before a trace with no volume returns
    # early; -inf and -1e3 are bounds, not flags
    path = tmp_path / "t.jsonl"
    if pulses:
        write_pulses(path, n_pulses=pulses)
    else:
        path.write_text(trace_text([], meta={"job": "1"}))
    code = main([command, str(path), "--window", *window])
    captured = capsys.readouterr()
    if window[0] == "-1e3":
        # a good window: the analysis runs, and only spectrum fails, for
        # want of I/O, on the metadata-only trace
        assert "window needs" not in captured.err
        assert code == (1 if command == "spectrum" and not pulses else 0)
        return
    assert code == 1
    assert captured.err.startswith("error: window needs finite bounds with LO < HI, got ")
    assert captured.out == ""
