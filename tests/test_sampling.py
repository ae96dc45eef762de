"""Discretization and the volume-based abstraction error."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_trace
from oracles import (
    brute_bandwidth_at,
    brute_sampling_error,
    brute_window_volume,
    sample_every_request,
)

from ioperiod import Trace, TraceValidationError, sampling
from ioperiod.sampling import (
    MAX_SAMPLES,
    sample_requests,
    snap_floor,
    volume_error,
)


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
        sampled = sample_requests(make_trace([(0, 0.0, 2.0, 4 * 10 ** 9)]), fs=1.0)[1]
        assert sampled.n == 2
        assert np.allclose(sampled.samples * 4e9, [2e9, 2e9])

    def test_window_count_matches_product(self):
        # 76.05 s at 100 Hz gives 7605 samples (3803 single-sided bins)
        sampled = sample_requests(make_trace([(0, 0.0, 76.05, 7605)]), fs=100.0)[1]
        assert sampled.n == 7605
        assert sampled.n // 2 + 1 == 3803

    def test_point_sampling_misses_short_burst(self):
        sampled = sample_requests(make_trace([(0, 0.25, 0.75, 4)]), 1.0, (0.0, 2.0))[1]
        assert np.all(sampled.samples == 0.0)

    def test_sample_count_is_bounded(self):
        trace = make_trace([(0, 0.0, 1.0, 10)])
        window = (0.0, (MAX_SAMPLES + 1) / 10.0)
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            sample_requests(trace, 10.0, window)
        assert sample_requests(trace, 10.0, (0.0, MAX_SAMPLES / 10.0))[1].n == MAX_SAMPLES

    def test_window_beyond_domain_samples_zero(self):
        sampled = sample_requests(make_trace([(0, 0.0, 1.0, 5)]), 1.0, (0.0, 4.0))[1]
        assert list(sampled.samples * 5) == [5.0, 0.0, 0.0, 0.0]

    def test_invalid_arguments(self):
        trace = make_trace([(0, 0.0, 1.0, 1)])
        with pytest.raises(ValueError):
            sample_requests(trace, fs=0.0)
        with pytest.raises(ValueError):
            sample_requests(trace, fs=1.0, window=(1.0, 1.0))

    def test_times_property(self):
        sampled = sample_requests(make_trace([(0, 0.0, 1.0, 1)]), fs=4.0)[1]
        assert np.allclose(sampled.times, [0.0, 0.25, 0.5, 0.75])


class TestSamplingError:
    @staticmethod
    def error(rows, fs, window=None):
        _, sampled, v_0 = sample_requests(make_trace(rows), fs, window)
        return volume_error(sampled, v_0)

    def test_constant_aligned_signal_is_exact(self):
        assert self.error([(0, 0.0, 4.0, 12)], fs=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_fully_missed_burst(self):
        # every sample lands outside the burst, so V_s = 0 against V_0 = 4
        assert self.error([(0, 0.25, 0.75, 4)], 1.0, (0.0, 2.0)) == pytest.approx(-1.0)

    def test_window_without_volume(self):
        assert self.error([(0, 0.25, 0.75, 4)], 1.0, (1.0, 3.0)) is None

    def test_under_sampling_grows_error(self):
        # short bursts relative to the sampling interval distort the volume
        rows = [(0, j + 0.45, j + 0.55, 1000) for j in range(20)]
        assert abs(self.error(rows, 1.0, (0.0, 20.0))) > 0.03
        assert abs(self.error(rows, 100.0, (0.0, 20.0))) <= 0.01

    @given(st.floats(0.5, 20.0), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_aligned_piecewise_constant_error_zero(self, scale, fs):
        # breakpoints on the sampling grid: zero-order hold is exact
        times = np.arange(5) / fs
        values = scale * np.array([1.0, 3.0, 0.5, 2.0])
        rows = [(0, times[i], times[i + 1], round(1e6 * values[i] / fs)) for i in range(4)]
        assert self.error(rows, float(fs)) == pytest.approx(0.0, abs=1e-12)


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


@st.composite
def windowed_requests(draw):
    """Requests over [off, off + 100 s], a sampling rate, and a window: the
    default, a short one that most requests miss, or one reaching past them
    all.  Offsets reach 1e15 s, where a float's spacing exceeds a sample
    interval at the higher rates.  Instants are drawn on the sampling grid
    too, computed as the sampler computes it, so edges meet samples."""
    fs = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0, 150.0]))
    ts = 1.0 / fs
    off = draw(st.sampled_from([0.0, 1e9, 3.7e12, 1e15]))
    shape = draw(st.sampled_from(["default", "short", "past"]))
    # the grid starts at the window's start; the default window starts at
    # the first request, which starts at off and every other one after it
    if shape == "short":
        rel = draw(st.floats(-5.0, 100.0))
    elif shape == "past":
        rel = draw(st.floats(-50.0, -1.0))
    else:
        rel = 0.0
    t_lo = off + rel

    def instant(lo, hi):
        # seconds past off, or the grid instant nearest such a time
        grid = st.integers(math.floor((lo - rel) * fs), math.ceil((hi - rel) * fs))
        return draw(st.one_of(st.floats(lo, hi).map(lambda x: off + x),
                              grid.map(lambda i: t_lo + i * ts)))

    rows = [(0, off, off + draw(st.floats(1.0, 8.0)), draw(st.integers(1, 10 ** 9)))]
    for _ in range(draw(st.integers(0, 60))):
        start = instant(0.0, 100.0)
        end = max(start, instant(start - off, start - off + 8.0))
        rows.append((draw(st.integers(0, 3)), start, end,
                     draw(st.integers(1, 10 ** 9)) if end > start else 0))
    if shape == "default":
        window = None
    elif shape == "short":
        window = (t_lo, t_lo + draw(st.floats(max(3 * ts, 1.0), 3 * ts + 10.0)))
    else:
        window = (t_lo, instant(110.0, 150.0))
    return rows, fs, window


class TestSampleRequests:
    """The request sampler against the brute-force oracles."""

    @given(request_sets())
    @settings(max_examples=100, deadline=None)
    def test_matches_merge_and_oracle(self, case):
        rows, fs, window = case
        spans = [(start, end) for _, start, end, _ in rows if end > start]
        want_win = window if window is not None else (
            min(start for start, _ in spans), max(end for _, end in spans))
        want_n = snap_floor((want_win[1] - want_win[0]) * fs)
        if want_n < 1:   # a span shorter than one interval
            with pytest.raises(ValueError, match="shorter than one sampling interval"):
                sample_requests(make_trace(rows), fs, window)
            return
        win, got, v_0 = sample_requests(make_trace(rows), fs, window)
        assert win == want_win
        assert (got.t0, got.ts, got.n) == (want_win[0], 1.0 / fs, want_n)
        volume = sum(nbytes for *_, nbytes in rows)
        requests = [(start, end, nbytes / volume) for _, start, end, nbytes in rows]
        # the bandwidth is piecewise constant and peaks where a request starts
        peak = max(brute_bandwidth_at(requests, start) for start, _, _ in requests)
        oracle = [brute_bandwidth_at(requests, t) for t in got.times]
        assert np.allclose(got.samples, oracle, rtol=0.0, atol=1e-12 * peak)
        # volumes carry rounding that scales with peak x window
        scale = peak * got.duration
        want_v_0 = brute_window_volume(requests, got.t0, got.t0 + got.duration)
        assert v_0 == pytest.approx(want_v_0, rel=0.0, abs=1e-12 * scale)
        if want_v_0 > 1e-9 * scale:   # not just rounding residue
            want_err = brute_sampling_error(requests, got.t0, got.ts, got.n)
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

    @staticmethod
    def assert_matches_every_request(trace, fs, window):
        want_win, want, want_v_0 = sample_every_request(trace, fs, window)
        win, got, v_0 = sample_requests(trace, fs, window)
        assert win == want_win
        assert (got.t0, got.ts, got.n) == (want.t0, want.ts, want.n)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert np.float64(v_0).tobytes() == np.float64(want_v_0).tobytes()

    @given(windowed_requests())
    @settings(max_examples=200, deadline=None)
    def test_matches_sampling_every_request(self, case):
        rows, fs, window = case
        try:
            sample_requests(make_trace(rows), fs, window)
        except ValueError:   # a span shorter than one interval
            assume(False)
        self.assert_matches_every_request(make_trace(rows), fs, window)

    @pytest.mark.parametrize("block", [1, 3, 7])
    @given(case=windowed_requests())
    @settings(max_examples=40, deadline=None)
    def test_matches_sampling_every_request_across_blocks(self, block, case):
        # blocks far smaller than a trace put every kind of request (inside,
        # straddling, outside, candidate or not) on a block's edge
        rows, fs, window = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_BLOCK", block)
            try:
                sample_requests(make_trace(rows), fs, window)
            except ValueError:   # a span shorter than one interval
                assume(False)
            self.assert_matches_every_request(make_trace(rows), fs, window)

    def test_trace_of_several_blocks(self, rng):
        # 100,000 requests fill four blocks; the window lies inside the trace
        # so its edges cut requests of every block
        count = 100_000
        assert count > 3 * sampling._BLOCK
        start = rng.uniform(0.0, 5000.0, count)
        end = start + rng.exponential(2.0, count)
        end[::997] = start[::997]   # zero-duration requests...
        nbytes = rng.integers(1, 10 ** 9, count)
        nbytes[::997] = 0           # ...move no bytes
        trace = Trace(rng.integers(0, 64, count), start, end, nbytes, np.ones(count, np.int8))
        for fs in (0.5, 10.0):
            self.assert_matches_every_request(trace, fs, (1234.5, 3210.25))

    def test_short_window_over_long_trace(self):
        # 3 of 400 requests reach into the window: the others are left out
        rows = [(j % 4, 2.5 * j, 2.5 * j + 1.0 + 0.1 * (j % 3), 10 ** 6 * (1 + j % 5))
                for j in range(400)]
        self.assert_matches_every_request(make_trace(rows), 10.0, (500.3, 507.6))

    def test_offset_beyond_one_sample_of_rounding(self):
        # at 1e15 s and 10 Hz the grid's rounding bound is about 18 samples,
        # so the kept requests are searched rather than indexed; the
        # covering test still leaves most requests out, and the result is
        # still exact
        rows = [(j % 4, 1e15 + 2.5 * j, 1e15 + 2.5 * j + 1.0 + 0.125 * (j % 3), 10 ** 6)
                for j in range(40)]
        trace = make_trace(rows)
        t_lo = 1e15 + 30.0
        (start, _, _), _, _, delta = sampling._scan(trace, t_lo, 10.0, 180, t_lo + 18.0)
        assert delta >= 0.5
        assert 0 < start.shape[0] < len(trace)
        self.assert_matches_every_request(trace, 10.0, (1e15 + 30.0, 1e15 + 48.0))

    def test_window_holding_every_request_has_unit_volume(self):
        # the old sum of per-request volumes gave 0.9999999999999999 here
        rows = [(0, 2.13, 4.98, 41), (0, 3.1, 4.53, 50), (0, 4.98, 7.28, 42)]
        assert sample_requests(make_trace(rows), 1.0, (0.0, 10.0))[2] == 1.0

    def test_subnormal_request_covering_no_sample_is_accepted(self):
        # [0, 5e-324) holds no sample of the grid -0.5, 0.5: its rate is
        # never formed, and its byte counts in V_0 as an integer
        rows = [(0, 0.0, 5e-324, 1), (0, 1.0, 2.0, 10)]
        _, sampled, v_0 = sample_requests(make_trace(rows), 1.0, (-0.5, 1.5))
        assert list(sampled.samples) == [0.0, 0.0]
        assert v_0 == 1 / 11 + 10 / 11 * 0.5
        _, sampled, v_0 = sample_requests(make_trace(rows), 1.0, (-0.5, 2.5))
        assert list(sampled.samples) == [0.0, 0.0, 10 / 11]
        assert v_0 == 1.0

    def test_inside_bytes_beyond_int64_are_exact(self):
        # two of three requests of 2^62 bytes lie inside the window: their
        # 2^63 bytes pass the int64 range, and V_0 is still exactly 2/3
        rows = [(0, j * 10.0, j * 10.0 + 2.0, 2 ** 62) for j in range(3)]
        assert sample_requests(make_trace(rows), 1.0, (0.0, 15.0))[2] == 2 / 3

    @pytest.mark.parametrize("rows", [
        [(0, 0.5, 0.5, 10), (0, 0.0, 1.0, 10)],   # zero duration with bytes
        [(0, 0.5, 0.5, 0)],                       # no positive duration
        [(0, 0.0, 1.0, 0), (1, 0.5, 2.0, 0)],     # zero volume
        [],
        [(0, 0.0, 5e-324, 1), (0, 1.0, 2.0, 10)],  # subnormal duration: no finite rate
    ])
    def test_rejects_what_the_merge_rejects(self, rows):
        with pytest.raises(TraceValidationError):
            sample_requests(make_trace(rows), 1.0, (0.0, 2.0))

    def test_window_without_volume(self):
        trace = make_trace([(0, 0.25, 0.75, 8)])
        _, sampled, v_0 = sample_requests(trace, 1.0, (1.0, 3.0))
        assert not sampled.samples.any()
        assert volume_error(sampled, v_0) is None


@st.composite
def grid_times(draw):
    """A sampling rate, a window start t_lo with |t_lo|·fs from 0 to just
    past 2^48, where ``_scan``'s bound delta reaches half a sample, a sample
    count n, and times on the grid's instants, one ulp either side of them,
    and past its ends."""
    fs = draw(st.sampled_from([0.5, 1.0, 3.0, 10.0, 150.0]))
    n = draw(st.integers(1, 300))
    scaled = draw(st.one_of(st.integers(0, 1000).map(float),
                            st.floats(0.0, 2.0 ** 48 * 1.01),
                            st.floats(2.0 ** 48 - 2000.0, 2.0 ** 48 + 10.0)))
    t_lo = draw(st.sampled_from([1.0, -1.0])) * scaled / fs
    ts = 1.0 / fs
    grid = t_lo + np.arange(n) * ts
    times = []
    for _ in range(draw(st.integers(1, 20))):
        i = draw(st.integers(-2, n + 1))
        x = grid[i] if 0 <= i < n else t_lo + i * ts
        times.append(float(np.nextafter(x, draw(st.sampled_from([-np.inf, x, np.inf])))))
    return fs, t_lo, n, times


class TestGridIndex:
    @given(grid_times())
    @settings(max_examples=300, deadline=None)
    def test_equals_a_search_of_the_grid(self, case):
        fs, t_lo, n, times = case
        ts = 1.0 / fs
        w_hi = t_lo + n * ts
        grid = t_lo + np.arange(n) * ts
        x = np.asarray(times)
        # the bound _scan takes for this grid; from half a sample on
        # sample_requests searches instead
        delta = sampling._scan(make_trace([(0, t_lo, w_hi, 1)]), t_lo, fs, n, w_hi)[3]
        if delta < 0.5:
            got = sampling._grid_index(x, t_lo, fs, ts, n, delta)
            assert np.array_equal(got, np.searchsorted(grid, x))
        # on both sides of the switch, requests that start or end at these
        # times are sampled as a search over every request samples them
        rows = [row for t in times
                for row in ((0, t - ts / 2, t, 10 ** 6), (1, t, t + ts / 2, 3 * 10 ** 6))]
        TestSampleRequests.assert_matches_every_request(
            make_trace(rows), fs, (t_lo, t_lo + (n + 0.5) * ts))


class TestScan:
    @pytest.mark.parametrize("window", [(500.3, 507.6), (-3.0, 4.0), (990.0, 1010.0)])
    def test_candidates_lie_near_the_window(self, window):
        # requests of 1 s every 2.5 s, most covering a sample coordinate
        # outside the window: only those within a sample of it are kept
        rows = [(0, 2.5 * j, 2.5 * j + 1.0, 10 ** 6) for j in range(400)]
        trace, fs = make_trace(rows), 10.0
        n, ts = sampling._grid_size(window[0], window[1], fs)
        w_hi = window[0] + n * ts
        (start, end, _), _, _, delta = sampling._scan(trace, window[0], fs, n, w_hi)
        assert delta < 0.5
        assert 0 < start.shape[0] < len(trace)
        assert np.all(end >= window[0] - ts) and np.all(start <= w_hi + ts)
