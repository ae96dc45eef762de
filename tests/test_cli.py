"""End-to-end command-line behavior."""
import csv
import json

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

    def test_env_var_default(self, tmp_path, capsys, monkeypatch):
        trace = write_pulses(tmp_path / "t.jsonl")
        monkeypatch.setenv("IOPERIOD_FREQ", "10")
        assert main(["detect", str(trace)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["period_s"] == pytest.approx(10.0, rel=0.05)

    def test_window_flag(self, tmp_path, capsys):
        trace = write_pulses(tmp_path / "t.jsonl")
        assert main(["detect", str(trace), "--freq", "10",
                     "--window", "0", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["window"] == [0.0, 50.0]


class TestGenerateAndBench:
    def test_generate_writes_trace_and_truth(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        truth = tmp_path / "truth.json"
        assert main(["generate", "--out", str(out), "--truth", str(truth),
                     "--iterations", "5", "--request-bytes", "16000000",
                     "--seed", "3"]) == 0
        assert out.exists()
        payload = json.loads(truth.read_text())
        assert len(payload["iteration_starts"]) == 5
        assert payload["lambda_avg"] > 0

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
        # where detect writes no spectrum either
        assert main(["detect", str(path), *window, "--spectrum-out", str(exported)]) == 0
        assert not exported.exists()


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


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])
        assert exc.value.code == 2
