"""Checks of the benchmark itself, apart from the package's test suite.

    python3 -m pytest perfbench -q

The slow tests run the benchmark's command line with one-second runs: every
count and the quality metric must repeat exactly for one seed, and every
metric must still be produced for another seed.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END, REF_WINDOW, WORKLOADS, in_ref_units  # noqa: E402
from tracing import COUNTS, PER_LAYER, Span, Tracer, _patch  # noqa: E402
from workloads import mismatch  # noqa: E402


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == list(PER_LAYER if trace else END_TO_END)
    return res


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_self_time_subtracts_the_time_children_cover():
    tracer = Tracer()
    tracer.spans = [
        Span("bench.op", 0.0, 10.0, -1, 0),
        Span("cli.main", 1.0, 9.0, 0, 0),
        Span("cli.parse_trace", 2.0, 4.0, 1, 0),
        Span("cli.analyze_trace", 4.0, 8.5, 1, 0),
        Span("pipeline.dft", 5.0, 8.0, 3, 0),
    ]
    self_ms = tracer.self_ms()
    assert self_ms["bench"] == pytest.approx(2e3)
    assert self_ms["cli.detect"] == pytest.approx(1.5e3)
    assert self_ms["trace.parse"] == pytest.approx(2e3)
    assert self_ms["pipeline.analyze"] == pytest.approx(1.5e3)
    assert self_ms["spectral.dft"] == pytest.approx(3e3)
    assert tracer.op_ms() == pytest.approx(10e3)


def test_a_slow_spell_moves_op_times_and_their_unit_alike():
    lat = [10.0 + i % 4 for i in range(40)]
    ref = [2.0] * 40
    # from op 20 on, ops and reference samples both run 30% slower
    slow = [1.3 if i >= 20 else 1.0 for i in range(40)]
    rel = in_ref_units([x * f for x, f in zip(lat, slow)], [x * f for x, f in zip(ref, slow)])
    base = in_ref_units(lat, ref)
    assert base == pytest.approx([x / 2.0 for x in lat])
    assert rel[:20 - REF_WINDOW] == pytest.approx(base[:20 - REF_WINDOW])
    assert rel[20 + REF_WINDOW:] == pytest.approx(base[20 + REF_WINDOW:])


def test_a_removed_function_is_reported_absent():
    originals, absent = _patch([("ioperiod.pipeline", "no_such_stage", "x", None),
                                ("ioperiod.no_such_module", "f", "x", None)],
                               lambda fn, name, layer, counter: fn)
    assert originals == []
    assert absent == ["ioperiod.pipeline.no_such_stage", "ioperiod.no_such_module.f"]


def test_reference_comparison_tolerance():
    ref = {"confidence": "high", "ks": [10], "period": 22.0, "score": None}
    assert mismatch(dict(ref, period=22.0 * (1 + 5e-10)), ref) is None
    assert "period" in mismatch(dict(ref, period=22.0 * (1 + 5e-9)), ref)
    assert "ks" in mismatch(dict(ref, ks=[11]), ref)
    assert "score" in mismatch(dict(ref, score=0.5), ref)
    assert mismatch(ref, None) == "no reference output recorded"


def test_fails_without_the_package():
    bare = ROOT / ".perfbench-work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("sweep", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_metrics_exist_for_another(workload):
    traced = [result(workload, 3, 1) for _ in range(2)]
    for name in COUNTS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name
    timed = [result(workload, 3, 0) for _ in range(2)]
    quality = [r["metrics"]["period_error_median"]["value"] for r in timed]
    assert quality[0] == quality[1] > 0
    result(workload, 4, 0)
    result(workload, 4, 1)
