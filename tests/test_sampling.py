"""Discretization and the volume-based abstraction error."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_trace
from oracles import brute_bandwidth_at

from ioperiod import (
    BandwidthSignal,
    NoVolumeError,
    TraceValidationError,
    discretize,
    merge_bandwidth,
    sampling_error,
)
from ioperiod.sampling import MAX_SAMPLES, sample_requests, snap_floor, volume_error


class TestSnapFloor:
    def test_plain_floor(self):
        assert snap_floor(3.7) == 3
        assert snap_floor(4.0) == 4

    def test_forgives_float_product_residue(self):
        # a span-times-rate product landing a hair under the integer must
        # still count the full bin
        just_below = float(np.nextafter(7605.0, 0.0))
        assert snap_floor(just_below) == 7605
        assert snap_floor(76.05 * 100) == 7605

    def test_does_not_round_up_genuine_fractions(self):
        assert snap_floor(7604.9) == 7604


class TestDiscretize:
    def test_constant_signal(self):
        signal = BandwidthSignal([0.0, 2.0], [2e9])
        sampled = discretize(signal, fs=1.0)
        assert sampled.n == 2
        assert np.allclose(sampled.samples, [2e9, 2e9])

    def test_window_count_matches_product(self):
        # 76.05 s at 100 Hz gives 7605 samples (3803 single-sided bins)
        signal = BandwidthSignal([0.0, 76.05], [1.0])
        sampled = discretize(signal, fs=100.0)
        assert sampled.n == 7605
        assert sampled.n // 2 + 1 == 3803

    def test_point_sampling_misses_short_burst(self):
        signal = BandwidthSignal([0.25, 0.75], [8.0])
        sampled = discretize(signal, fs=1.0, window=(0.0, 2.0))
        assert np.all(sampled.samples == 0.0)

    def test_mean_mode_preserves_volume(self):
        signal = BandwidthSignal([0.25, 0.75], [8.0])
        sampled = discretize(signal, fs=1.0, window=(0.0, 2.0), mode="mean")
        assert sampled.ts * sampled.samples.sum() == pytest.approx(4.0)

    def test_mean_mode_matches_per_bin_integral(self, rng):
        times = np.cumsum(rng.uniform(0.05, 2.0, 41))
        values = rng.uniform(0.0, 5.0, 40)
        signal = BandwidthSignal(times, values)
        fs = 3.0
        window = (times[0] - 2.0, times[-1] + 1.5)
        sampled = discretize(signal, fs, window=window, mode="mean")
        edges = window[0] + np.arange(sampled.n + 1) / fs
        want = [
            fs * sum(v * max(0.0, min(hi, b) - max(lo, a))
                     for a, b, v in zip(times[:-1], times[1:], values))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        assert np.allclose(sampled.samples, want, rtol=0.0, atol=1e-12 * values.max())

    def test_mean_mode_memory_is_linear(self):
        # a dense pieces x bins overlap matrix would take 80 MB here
        signal = BandwidthSignal(np.arange(2001) * 0.5, np.ones(2000))
        tracemalloc.start()
        try:
            sampled = discretize(signal, fs=5.0, window=(0.0, 1000.0), mode="mean")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sampled.n == 5000
        assert peak < 5 * 2 ** 20

    def test_sample_count_is_bounded(self):
        signal = BandwidthSignal([0.0, 1.0], [1.0])
        trace = make_trace([(0, 0.0, 1.0, 10)])
        window = (0.0, (MAX_SAMPLES + 1) / 10.0)
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            discretize(signal, fs=10.0, window=window)
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            sample_requests(trace, 10.0, window)
        assert discretize(signal, fs=10.0, window=(0.0, MAX_SAMPLES / 10.0)).n == MAX_SAMPLES

    def test_window_beyond_domain_samples_zero(self):
        signal = BandwidthSignal([0.0, 1.0], [5.0])
        sampled = discretize(signal, fs=1.0, window=(0.0, 4.0))
        assert list(sampled.samples) == [5.0, 0.0, 0.0, 0.0]

    def test_invalid_arguments(self):
        signal = BandwidthSignal([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            discretize(signal, fs=0.0)
        with pytest.raises(ValueError):
            discretize(signal, fs=1.0, window=(1.0, 1.0))
        with pytest.raises(ValueError):
            discretize(signal, fs=1.0, mode="median")

    def test_times_property(self):
        signal = BandwidthSignal([0.0, 1.0], [1.0])
        sampled = discretize(signal, fs=4.0)
        assert np.allclose(sampled.times, [0.0, 0.25, 0.5, 0.75])


class TestSamplingError:
    def test_constant_aligned_signal_is_exact(self):
        signal = BandwidthSignal([0.0, 4.0], [3.0])
        sampled = discretize(signal, fs=2.0)
        assert sampling_error(signal, sampled) == pytest.approx(0.0, abs=1e-12)

    def test_fully_missed_burst(self):
        # every sample lands outside the burst, so V_s = 0 against V_0 = 4
        signal = BandwidthSignal([0.25, 0.75], [8.0])
        sampled = discretize(signal, fs=1.0, window=(0.0, 2.0))
        assert sampling_error(signal, sampled) == pytest.approx(-1.0)

    def test_window_without_volume(self):
        signal = BandwidthSignal([0.25, 0.75], [8.0])
        sampled = discretize(signal, fs=1.0, window=(1.0, 3.0))
        with pytest.raises(NoVolumeError):
            sampling_error(signal, sampled)

    def test_under_sampling_grows_error(self):
        # short bursts relative to the sampling interval distort the volume
        trace = make_trace([(0, j + 0.45, j + 0.55, 1000) for j in range(20)])
        signal = merge_bandwidth(trace)
        coarse = discretize(signal, fs=1.0, window=(0.0, 20.0))
        fine = discretize(signal, fs=100.0, window=(0.0, 20.0))
        assert abs(sampling_error(signal, coarse)) > 0.03
        assert abs(sampling_error(signal, fine)) <= 0.01

    @given(st.floats(0.5, 20.0), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_aligned_piecewise_constant_error_zero(self, scale, fs):
        # breakpoints on the sampling grid: zero-order hold is exact
        times = np.arange(5) / fs
        values = scale * np.array([1.0, 3.0, 0.5, 2.0])
        signal = BandwidthSignal(times, values)
        sampled = discretize(signal, fs=float(fs))
        assert sampling_error(signal, sampled) == pytest.approx(0.0, abs=1e-12)


@st.composite
def request_sets(draw):
    """Requests, a sampling rate and a window (None: the requests' span).

    Times are drawn either on the sampling grid, exactly as the samplers
    compute its instants, or on a millisecond grid around the window, so
    boundaries land on sample instants and requests straddle or miss the
    window.
    """
    fs = draw(st.sampled_from([0.5, 1.0, 3.0, 10.0]))
    ts = 1.0 / fs
    t_lo = draw(st.sampled_from([0.0, -2.5, 7.3]))
    t_hi = t_lo + draw(st.floats(2.0 * ts, 20.0))

    def instant():
        return draw(st.one_of(
            st.integers(-10, int(25 * fs)).map(lambda i: t_lo + i * ts),
            st.integers(-10_000, 30_000).map(lambda ms: t_lo + ms / 1000),
        ))

    rows = []
    for _ in range(draw(st.integers(1, 25))):
        start, end = sorted((instant(), instant()))
        nbytes = draw(st.integers(0, 10 ** 9)) if end > start else 0
        rows.append((draw(st.integers(0, 3)), start, end, nbytes))
    assume(any(end > start and nbytes > 0 for _, start, end, nbytes in rows))
    window = draw(st.one_of(st.none(), st.just((t_lo, t_hi))))
    return rows, fs, window


class TestSampleRequests:
    """The request sampler against the breakpoint merge and the oracle."""

    @staticmethod
    def reference(rows, fs, window):
        signal = merge_bandwidth(make_trace(rows), unit_volume=True)
        return signal, discretize(signal, fs, window=window)

    @given(request_sets())
    @settings(max_examples=100, deadline=None)
    def test_matches_merge_and_oracle(self, case):
        rows, fs, window = case
        try:
            signal, want = self.reference(rows, fs, window)
        except ValueError as exc:   # a span shorter than one interval
            with pytest.raises(ValueError, match=str(exc)):
                sample_requests(make_trace(rows), fs, window)
            return
        win, got, v_0 = sample_requests(make_trace(rows), fs, window)
        assert win == (window if window is not None else signal.domain)
        assert (got.t0, got.ts, got.n) == (want.t0, want.ts, want.n)
        peak = signal.values.max()
        assert np.allclose(got.samples, want.samples, rtol=0.0, atol=1e-12 * peak)
        volume = sum(nbytes for *_, nbytes in rows)
        requests = [(start, end, nbytes / volume) for _, start, end, nbytes in rows]
        oracle = [brute_bandwidth_at(requests, t) for t in got.times]
        assert np.allclose(got.samples, oracle, rtol=0.0, atol=1e-12 * peak)
        # volumes carry the merge's rounding, which scales with peak x window
        scale = peak * want.duration
        want_v_0 = signal.integral(want.t0, want.t0 + want.duration)
        assert v_0 == pytest.approx(want_v_0, rel=0.0, abs=1e-12 * scale)
        if want_v_0 > 1e-9 * scale:   # not just the merge's cancellation residue
            want_err = sampling_error(signal, want)
            assert volume_error(got, v_0) == pytest.approx(
                want_err, rel=0.0, abs=1e-12 * scale * (2.0 + abs(want_err)) / want_v_0)

    @given(request_sets(), st.randoms(), st.integers(2, 1000))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_invariant_under_order_and_byte_scale(self, case, rand, scale):
        rows, fs, window = case
        try:
            _, base, base_v_0 = sample_requests(make_trace(rows), fs, window)
        except ValueError:   # a span shorter than one interval
            assume(False)
        shuffled = list(rows)
        rand.shuffle(shuffled)
        scaled = [(rank, start, end, nbytes * scale) for rank, start, end, nbytes in rows]
        for variant in (shuffled, scaled):
            _, got, v_0 = sample_requests(make_trace(variant), fs, window)
            assert np.array_equal(got.samples, base.samples)
            assert v_0 == base_v_0

    @pytest.mark.parametrize("rows", [
        [(0, 0.5, 0.5, 10), (0, 0.0, 1.0, 10)],   # zero duration with bytes
        [(0, 0.5, 0.5, 0)],                       # no positive duration
        [(0, 0.0, 1.0, 0), (1, 0.5, 2.0, 0)],     # zero volume
        [],
    ])
    def test_rejects_what_the_merge_rejects(self, rows):
        trace = make_trace(rows)
        with pytest.raises(TraceValidationError):
            merge_bandwidth(trace, unit_volume=True)
        with pytest.raises(TraceValidationError):
            sample_requests(trace, 1.0, (0.0, 2.0))

    def test_window_without_volume(self):
        trace = make_trace([(0, 0.25, 0.75, 8)])
        _, sampled, v_0 = sample_requests(trace, 1.0, (1.0, 3.0))
        assert not sampled.samples.any()
        with pytest.raises(NoVolumeError):
            volume_error(sampled, v_0)
