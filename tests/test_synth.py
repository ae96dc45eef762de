"""Semi-synthetic trace generation, templates, and the sweep harness."""
import hashlib
import io
import re
from dataclasses import replace

import numpy as np
import pytest

from ioperiod import (
    GroundTruth,
    SynthConfig,
    SynthConfigError,
    bundled_phase_templates,
    detection_error,
    generate,
    sweep,
    sweep_to_csv,
)
from ioperiod.trace import Trace, parse_trace, write_trace

COARSE = 16_000_000  # big requests keep template construction fast


@pytest.fixture(scope="module")
def templates():
    return tuple(bundled_phase_templates(count=4, request_bytes=COARSE, seed=1))


class TestTemplates:
    def test_duration_range(self):
        for tmpl in bundled_phase_templates(count=20, request_bytes=COARSE, seed=7):
            assert 10.4 <= tmpl.t_max <= 14.7

    def test_aggregate_bandwidth(self):
        # 32 processes writing 3.5 GB each in about 11 s: near 10 GB/s
        for tmpl in bundled_phase_templates(count=10, request_bytes=COARSE, seed=3):
            bandwidth = tmpl.volume / tmpl.t_max
            assert bandwidth == pytest.approx(10e9, rel=0.15)

    def test_default_request_count(self):
        (tmpl,) = bundled_phase_templates(count=1, seed=0)
        per_process = np.bincount(tmpl.rank)
        # 3.5 GB in 1 MB requests per process
        assert np.all(per_process == 3_500_000_000 // 1_000_000)
        assert tmpl.rank.max() + 1 == 32
        assert tmpl.volume == 32 * 3_500_000_000
        assert np.all(tmpl.kind_code == 1)  # writes

    def test_volume_exact_with_remainder(self):
        # 3.5 GB is no whole number of these requests: the last one per
        # process carries the remainder
        request_bytes = 16_000_007
        assert 3_500_000_000 % request_bytes
        (tmpl,) = bundled_phase_templates(count=1, request_bytes=request_bytes, seed=0)
        assert tmpl.volume == 32 * 3_500_000_000


class TestConfigValidation:
    def test_rejects_bad_parameters(self, templates):
        with pytest.raises(SynthConfigError):
            SynthConfig(iterations=0, templates=templates)
        with pytest.raises(SynthConfigError):
            SynthConfig(compute_mean=-1.0, templates=templates)
        with pytest.raises(SynthConfigError):
            SynthConfig(noise="deafening", templates=templates)

    def test_rejects_negative_seed(self, templates):
        with pytest.raises(SynthConfigError, match="seed"):
            SynthConfig(seed=-1, templates=templates)

    @pytest.mark.parametrize("field, value", [
        ("iterations", True), ("iterations", 2.5), ("processes", "x"), ("seed", 1.0),
        ("compute_std", float("nan")), ("compute_mean", float("inf")),
        ("desync_mean", float("nan")), ("compute_mean", False), ("compute_std", "1"),
    ])
    def test_rejects_wrong_types_naming_the_field(self, templates, field, value):
        # a NaN compute_std used to hang the truncated-normal draw for ever
        with pytest.raises(SynthConfigError, match=f"^{field} must be "):
            SynthConfig(templates=templates, **{field: value})

    def test_accepts_numpy_numbers(self, templates):
        config = SynthConfig(iterations=np.int64(3), compute_std=np.float64(1.5),
                             templates=templates)
        assert generate(config)[1].iteration_starts.shape == (3,)

    def test_rejects_empty_template_library(self):
        with pytest.raises(SynthConfigError):
            generate(SynthConfig(templates=()))

    def test_rejects_undersized_templates(self, templates):
        with pytest.raises(SynthConfigError):
            generate(SynthConfig(processes=64, templates=templates))
        with pytest.raises(SynthConfigError, match="has 0 processes"):
            generate(SynthConfig(templates=(parse_trace(b""),)))

    def test_rejects_template_without_rows_for_the_first_ranks(self, templates):
        # rank.max() + 1 = 4 processes are enough for 2, but no row has rank 0 or 1
        wide = Trace([3], [0.0], [1.0], [5], [1])
        with pytest.raises(SynthConfigError, match=r"^template 1 has no rows for ranks 0\.\.1$"):
            generate(SynthConfig(processes=2, templates=(templates[0], wide)))


class TestGenerate:
    def test_deterministic_for_fixed_seed(self, templates):
        config = SynthConfig(iterations=5, compute_std=3.0, noise="low",
                             desync_mean=1.0, templates=templates, seed=42)
        t1, g1 = generate(config)
        t2, g2 = generate(config)
        assert np.array_equal(t1.start, t2.start)
        assert np.array_equal(t1.nbytes, t2.nbytes)
        assert np.array_equal(g1.iteration_starts, g2.iteration_starts)

    def test_narrow_template_columns_give_the_same_trace(self, templates):
        # Trace casts int32 ranks and byte counts to the int64 columns the
        # generator's 8-byte block views
        narrow = tuple(Trace(t.rank.astype(np.int32), t.start, t.end,
                             t.nbytes.astype(np.int32), t.kind_code) for t in templates)
        config = SynthConfig(iterations=5, compute_std=3.0, templates=templates, seed=4)
        want, _ = generate(config)
        got, _ = generate(SynthConfig(iterations=5, compute_std=3.0, templates=narrow, seed=4))
        for col in ("rank", "start", "end", "nbytes", "kind_code"):
            np.testing.assert_array_equal(getattr(got, col), getattr(want, col))

    def test_recorded_templates_give_the_same_trace(self, templates, tmp_path):
        # a template written as a trace file and parsed back is a template as
        # it is; its request kinds (written as reads here) are ignored
        recorded = []
        for i, tmpl in enumerate(templates):
            path = tmp_path / f"phase-{i}.jsonl"
            write_trace(Trace(tmpl.rank, tmpl.start, tmpl.end, tmpl.nbytes,
                              np.zeros(len(tmpl), dtype=np.int8)), path)
            recorded.append(parse_trace(path))
        params = dict(iterations=5, processes=20, compute_std=3.0, desync_mean=1.0,
                      noise="low", seed=4)
        want, want_truth = generate(SynthConfig(templates=templates, **params))
        got, got_truth = generate(SynthConfig(templates=tuple(recorded), **params))
        for col in ("rank", "start", "end", "nbytes", "kind_code"):
            np.testing.assert_array_equal(getattr(got, col), getattr(want, col))
        assert got_truth.phase_bounds == want_truth.phase_bounds
        assert got_truth.lambda_avg == want_truth.lambda_avg

    @pytest.mark.parametrize("desync_mean", [0.0, 2.0])
    def test_phase_bounds_end_at_the_latest_end_of_their_rows(self, templates, desync_mean):
        trace, truth = generate(SynthConfig(iterations=6, compute_std=3.0, processes=20,
                                            desync_mean=desync_mean, templates=templates,
                                            seed=11))
        # phases do not overlap, so a row's phase is the last one started
        # by the row's start
        phase = np.searchsorted(truth.iteration_starts, trace.start, side="right") - 1
        for j, (io_start, io_end) in enumerate(truth.phase_bounds):
            assert io_start == truth.iteration_starts[j]
            assert io_end == trace.end[phase == j].max()

    @pytest.mark.parametrize("desync_mean", [0.0, 2.0])
    def test_wider_templates_give_the_trace_of_their_first_ranks(self, templates, desync_mean):
        # a template of 32 ranks drawn for 20 processes gives what the same
        # template cut to ranks 0-19 gives
        cut = tuple(Trace(*(col[t.rank < 20] for col in (t.rank, t.start, t.end, t.nbytes,
                                                          t.kind_code))) for t in templates)
        params = dict(iterations=6, processes=20, compute_std=3.0, desync_mean=desync_mean,
                      seed=12)
        want, want_truth = generate(SynthConfig(templates=cut, **params))
        got, got_truth = generate(SynthConfig(templates=templates, **params))
        for col in ("rank", "start", "end", "nbytes", "kind_code"):
            np.testing.assert_array_equal(getattr(got, col), getattr(want, col))
        assert got_truth.phase_bounds == want_truth.phase_bounds

    def test_degenerate_distributions_give_fixed_spacing(self, templates):
        # sigma=0 and no desync: iteration starts exactly t_cpu + phase apart
        config = SynthConfig(iterations=6, compute_mean=11.0, compute_std=0.0,
                             templates=templates, seed=5)
        _, truth = generate(config)
        gaps = np.diff(truth.iteration_starts)
        phase_lens = [e - s for s, e in truth.phase_bounds[:-1]]
        assert np.allclose(gaps, 11.0 + np.asarray(phase_lens))
        assert truth.lambda_avg == pytest.approx(gaps.mean())

    def test_iterations_do_not_overlap(self, templates):
        config = SynthConfig(iterations=8, compute_std=6.0, templates=templates,
                             seed=9)
        _, truth = generate(config)
        bounds = truth.phase_bounds
        for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
            assert s1 >= e0

    def test_desync_stretches_phases(self, templates):
        base = SynthConfig(iterations=5, templates=templates, seed=3)
        shifted = SynthConfig(iterations=5, desync_mean=5.0, templates=templates,
                              seed=3)
        _, g0 = generate(base)
        _, g1 = generate(shifted)
        len0 = np.mean([e - s for s, e in g0.phase_bounds])
        len1 = np.mean([e - s for s, e in g1.phase_bounds])
        assert len1 > len0

    def test_noise_adds_background_volume(self, templates):
        quiet = SynthConfig(iterations=5, templates=templates, seed=3)
        noisy = SynthConfig(iterations=5, noise="high", templates=templates, seed=3)
        vol_quiet = generate(quiet)[0].volume
        vol_noisy = generate(noisy)[0].volume
        assert vol_noisy > vol_quiet
        # noise bursts run at 1 GB/s for half of each burst interval
        trace, truth = generate(noisy)
        span = trace.t_max
        extra = vol_noisy - vol_quiet
        assert extra / span == pytest.approx(0.5e9, rel=0.25)

    @pytest.mark.parametrize("field", ["compute_mean", "desync_mean"])
    @pytest.mark.parametrize("value", [1e12, 1e308])
    def test_noise_over_too_long_a_trace_names_the_field(self, templates, field, value):
        # 1e12 s of noise is ~4.5e11 bursts, an error before any is laid;
        # 1e308 overflows the trace's end to inf
        config = SynthConfig(iterations=2, noise="low", templates=templates, **{field: value})
        match = f"{field} {re.escape(f'{value:g}')} .*too large: noise"
        with pytest.raises(SynthConfigError, match=match):
            generate(config)

    # sha256 of the five trace columns, the phase bounds and lambda_avg,
    # recorded from the generator before it wrote phases into preallocated
    # columns; any change to the generated bytes shows here
    @pytest.mark.parametrize("params, rows, digest", [
        (dict(desync_mean=0.0, noise="none", processes=32, compute_std=3.3, seed=5),
         55808, "ca036ac287d2d87070c0685a7873a3d720f6473eb14fdf06b8b3718de4a74261"),
        (dict(desync_mean=2.0, noise="none", processes=32, compute_std=0.0, seed=6),
         55808, "e769f116cec4ed6b5fc8092992975a17eaaeecdcc407b36beed584927d2cae86"),
        (dict(desync_mean=0.0, noise="high", processes=32, compute_std=6.05, seed=7),
         55879, "cede6641f82c84c028046149105369e01ce956e18677e124c9a5f7b57c2a3234"),
        (dict(desync_mean=2.0, noise="high", processes=32, compute_std=14.3, seed=8),
         55936, "bf384d3ed881098fac0b7f12a37364277ec5898b246cbca9069e28072054cf18"),
        (dict(desync_mean=0.0, noise="low", processes=7, compute_std=3.3, seed=9),
         12285, "8d6a2df105485130075c7f030551f7803edfc6d2792fc02cfba038182d54c014"),
        (dict(desync_mean=2.0, noise="high", processes=20, compute_std=0.0, seed=10),
         34982, "faab9a3965181e56fc7bff4f61f5220070a0a3859151861760048499e56d3a73"),
    ], ids=["plain", "desync", "noise", "desync-noise", "rank-subset", "subset-desync-noise"])
    def test_golden_digest(self, templates, params, rows, digest):
        trace, truth = generate(SynthConfig(iterations=8, templates=templates, **params))
        h = hashlib.sha256()
        for col in (trace.rank, trace.start, trace.end, trace.nbytes, trace.kind_code):
            h.update(col.tobytes())
        h.update(np.asarray(truth.phase_bounds, dtype=np.float64).tobytes())
        h.update(np.float64(truth.lambda_avg).tobytes())
        assert len(trace) == rows
        assert h.hexdigest() == digest

    def test_io_time_fraction(self):
        truth = GroundTruth(
            iteration_starts=np.array([0.0, 10.0]),
            phase_bounds=((0.0, 4.0), (10.0, 14.0)),
            lambda_avg=10.0,
        )
        assert truth.io_time_fraction(20.0) == pytest.approx(0.4)

    @pytest.mark.filterwarnings("ignore::ioperiod.SamplingQualityWarning")
    def test_generated_trace_is_detectable(self, templates):
        from ioperiod import analyze_trace
        config = SynthConfig(iterations=20, templates=templates, seed=0)
        trace, truth = generate(config)
        analysis = analyze_trace(trace, fs=1.0, window=(0.0, trace.t_max))
        assert analysis.has_dominant
        assert detection_error(analysis.period, truth) < 0.01


class TestDetectionError:
    def test_exact_match(self):
        truth = GroundTruth(np.array([0.0, 10.0]), ((0.0, 1.0), (10.0, 11.0)), 10.0)
        assert detection_error(10.0, truth) == 0.0
        assert detection_error(20.0, truth) == pytest.approx(1.0)
        assert detection_error(None, truth) is None

    def test_one_iteration_truth_scores_nothing(self):
        # one iteration has a NaN mean length: an error, not a NaN score
        truth = GroundTruth(np.array([0.0]), ((0.0, 1.0),), float("nan"))
        with pytest.raises(ValueError, match="must be positive"):
            detection_error(10.0, truth)

    def test_published_example_ratio(self):
        # a 25.73 s detection against a real 27.38 s mean is off by 6%
        truth = GroundTruth(np.array([0.0, 27.38]), ((0.0, 1.0), (27.38, 28.0)),
                            27.38)
        assert detection_error(25.73, truth) == pytest.approx(0.0603, abs=5e-4)


class TestSweep:
    def test_grid_shape_and_reproducibility(self, templates):
        base = SynthConfig(iterations=10, templates=templates)
        grid = {"noise": ["none", "low"], "compute_std": [0.0, 3.0]}
        rows1 = sweep(grid, repetitions=2, base=base, seed=4)
        rows2 = sweep(grid, repetitions=2, base=base, seed=4)
        assert len(rows1) == 2 * 2 * 2
        assert rows1 == rows2
        assert {r["noise"] for r in rows1} == {"none", "low"}

    def test_seed_defaults_to_the_base_seed(self, templates):
        base = SynthConfig(iterations=10, templates=templates)
        grid = {"noise": ["none"]}
        assert sweep(grid, 1, replace(base, seed=5)) == sweep(grid, 1, base, seed=5)

    @pytest.mark.parametrize("iterations, grid", [(1, {"noise": ["none"]}),
                                                  (10, {"iterations": [5, 1]})],
                             ids=["base", "grid"])
    def test_one_iteration_cell_rejected(self, templates, iterations, grid):
        base = SynthConfig(iterations=iterations, templates=templates)
        with pytest.raises(SynthConfigError, match=">= 2 iterations"):
            sweep(grid, repetitions=1, base=base)

    def test_csv_round_trip(self, templates):
        base = SynthConfig(iterations=10, templates=templates)
        rows = sweep({"noise": ["none"]}, repetitions=2, base=base, seed=4)
        buf = io.StringIO()
        sweep_to_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("noise,repetition,lambda_avg,lambda_detected")
        assert len(lines) == 3

    def test_errors_small_without_variability(self, templates):
        base = SynthConfig(iterations=20, templates=templates)
        rows = sweep({"compute_std": [0.0]}, repetitions=3, base=base, seed=8)
        for row in rows:
            assert row["error"] is not None and row["error"] < 0.01
            assert row["confidence"] == "high"
