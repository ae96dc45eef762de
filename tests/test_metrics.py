"""Substantial-I/O split, per-period deviation metrics, and the score, all
read from ``compute_metrics``."""
import numpy as np
import pytest

from oracles import per_period_metrics, population_std

from ioperiod import SampledSignal, compute_metrics


def sampled(values, fs=1.0):
    return SampledSignal(t0=0.0, ts=1.0 / fs, samples=np.asarray(values, float))


def periodic_signal(period_bins, n_periods, duty_bins, rate=4.0):
    one = np.zeros(period_bins)
    one[:duty_bins] = rate
    return sampled(np.tile(one, n_periods))


class TestSubstantialIo:
    def test_constant_signal_has_no_substantial_bins(self):
        # threshold equals the mean, and the comparison is strict
        report = compute_metrics(sampled([3.0] * 10), f_d=0.5)
        assert report.threshold == 3.0
        assert report.r_io == 0.0
        assert report.b_io is None

    def test_half_on_half_off(self):
        rate = 6.0
        report = compute_metrics(sampled([rate, 0.0] * 5))
        assert report.threshold == pytest.approx(rate / 2)
        assert report.r_io == pytest.approx(0.5)
        assert report.b_io == pytest.approx(rate)

    def test_sixty_percent_duty(self):
        assert compute_metrics(periodic_signal(10, 4, 6), f_d=0.1).r_io == pytest.approx(0.6)


class TestSigmaVol:
    def test_perfectly_periodic_is_zero(self):
        report = compute_metrics(periodic_signal(10, 5, 3), f_d=0.1)
        assert report.sigma_vol == pytest.approx(0.0)

    def test_two_periods_hand_value(self):
        # volumes 10 and 5 normalize to {1, 0.5}: population std 0.25
        s = sampled([10.0] + [0.0] * 9 + [5.0] + [0.0] * 9)
        assert compute_metrics(s, f_d=0.1).sigma_vol == pytest.approx(0.25)
        assert population_std([1.0, 0.5]) == pytest.approx(0.25)

    def test_concentration_approaches_bound(self):
        # all volume in one of many periods: std of one 1 among zeros
        n_periods = 50
        values = np.zeros(n_periods * 4)
        values[0] = 8.0
        sv = compute_metrics(sampled(values), f_d=0.25).sigma_vol
        assert 0.1 < sv <= 0.5
        assert sv == pytest.approx(population_std([1.0] + [0.0] * (n_periods - 1)))

    def test_needs_two_periods(self):
        # 10 s at f_d = 0.19 Hz holds 1.9 periods, at 0.2 Hz exactly two
        s = sampled([1.0, 0.0] * 5)
        short = compute_metrics(s, f_d=0.19)
        assert short.periods_used is None
        assert short.sigma_vol is short.sigma_time is short.score is None
        assert short.data_per_period is None
        assert short.r_io == pytest.approx(0.5)
        assert compute_metrics(s, f_d=0.2).periods_used == 2

    def test_trailing_partial_period_discarded(self):
        # 25 bins at f_d=0.1: two full periods, the 5-bin tail is dropped
        values = np.zeros(25)
        values[0] = values[10] = 4.0
        values[20:] = 100.0  # garbage in the tail must not matter
        report = compute_metrics(sampled(values), f_d=0.1)
        assert report.periods_used == 2
        assert report.sigma_vol == pytest.approx(0.0)
        # only the tail is substantial (R_IO 0.2), and no full period holds any
        assert report.sigma_time == pytest.approx(0.2)


class TestSigmaTime:
    def test_identical_phases_is_zero(self):
        s = periodic_signal(10, 4, 6)
        assert compute_metrics(s, f_d=0.1).sigma_time == pytest.approx(0.0)

    def test_hand_rms(self):
        # threshold and R_IO are both 0.6; period fractions {0.4, 0.8}
        # deviate from R_IO by 0.2 each: RMS deviation 0.2
        report = compute_metrics(sampled([1.0] * 4 + [0.0] * 6 + [1.0] * 8 + [0.0] * 2),
                                 f_d=0.1)
        assert report.threshold == pytest.approx(0.6)
        assert report.r_io == pytest.approx(0.6)
        assert report.sigma_time == pytest.approx(0.2)

    def test_grows_with_burst_scatter(self, rng):
        # same duty per period vs bursts scattered non-periodically
        regular = periodic_signal(20, 10, 5)
        values = np.zeros(200)
        on = rng.choice(200, size=50, replace=False)
        values[on] = 4.0
        scattered = sampled(values)
        assert (compute_metrics(scattered, f_d=0.05).sigma_time
                > compute_metrics(regular, f_d=0.05).sigma_time)


class TestDataPerPeriod:
    def test_arithmetic(self):
        # 100 GB of substantial volume over 100 s at 0.1 Hz: 10 GB/period
        s = sampled([2e9] * 50 + [0.0] * 50)
        assert compute_metrics(s, f_d=0.1).data_per_period == pytest.approx(100e9 / 10)

    def test_zero_substantial_volume(self):
        assert compute_metrics(sampled([5.0] * 10), f_d=0.5).data_per_period == 0.0


class TestScore:
    def test_bounds(self):
        # score = 1 - sigma_vol - sigma_time
        assert compute_metrics(periodic_signal(10, 5, 3), f_d=0.1).score == 1.0
        # volumes {4, 8} give sigma_vol 0.25, hand_rms gives sigma_time 0.2
        s = sampled([1.0] * 4 + [0.0] * 6 + [1.0] * 8 + [0.0] * 2)
        assert compute_metrics(s, f_d=0.1).score == pytest.approx(0.55)
        # volumes {10, 5}: sigma_vol 0.25, and one burst per period
        s = sampled([10.0] + [0.0] * 9 + [5.0] + [0.0] * 9)
        assert compute_metrics(s, f_d=0.1).score == pytest.approx(0.75)


class TestComputeMetrics:
    def test_full_report(self):
        report = compute_metrics(periodic_signal(10, 5, 3), f_d=0.1)
        assert report.sigma_vol == pytest.approx(0.0)
        assert report.sigma_time == pytest.approx(0.0)
        assert report.score == pytest.approx(1.0)
        assert report.periods_used == 5
        assert report.r_io == pytest.approx(0.3)

    def test_without_frequency_only_global_metrics(self):
        report = compute_metrics(periodic_signal(10, 5, 3), f_d=None)
        assert report.r_io == pytest.approx(0.3)
        assert report.sigma_vol is None
        assert report.score is None

    def test_insufficient_periods_reported_absent(self):
        report = compute_metrics(periodic_signal(10, 5, 3), f_d=0.01)
        assert report.sigma_vol is None
        assert report.periods_used is None

    def test_volume_scale_applies_to_byte_units(self):
        plain = compute_metrics(periodic_signal(10, 5, 3), f_d=0.1)
        scaled = compute_metrics(periodic_signal(10, 5, 3), f_d=0.1,
                                 volume_scale=1000.0)
        assert scaled.threshold == pytest.approx(1000 * plain.threshold)
        assert scaled.b_io == pytest.approx(1000 * plain.b_io)
        assert scaled.data_per_period == pytest.approx(1000 * plain.data_per_period)
        # dimensionless outputs must not change
        assert scaled.r_io == plain.r_io
        assert scaled.sigma_vol == plain.sigma_vol
        assert scaled.score == plain.score

    def test_all_zero_signal(self):
        report = compute_metrics(sampled(np.zeros(10)), f_d=0.5)
        assert report.r_io == 0.0
        assert report.score is None
        assert [k for k, v in report.to_dict().items() if v is not None] == ["r_io"]

    def test_matches_per_period_oracle(self, rng):
        # windows of 2.1 to 12.9 periods: the trailing partial period varies
        cases = []
        for _ in range(200):
            n = int(rng.integers(26, 300))  # at least two bins per period
            fs = float(rng.uniform(0.5, 50.0))
            cases.append((n, fs, fs / (n / rng.uniform(2.1, 12.9)), rng.uniform(0.1, 1.0)))
        # f_d above fs/2, so some periods hold no sample, and one detect
        # window at fs = 150 holding about 10 periods
        cases += [(40, 1.0, 0.7, 0.5), (41, 2.0, 1.9, 0.5), (30, 1.0, 2.5, 0.5),
                  (34_519, 150.0, 0.0435, 0.5)]
        for n, fs, f_d, duty in cases:
            values = rng.exponential(size=n) * (rng.random(n) < duty)
            s = sampled(values, fs=fs)
            if not values.any():
                continue
            got = compute_metrics(s, f_d).to_dict()
            want = per_period_metrics(values, s.ts, f_d)
            assert {k: got[k] for k in want} == pytest.approx(want, rel=1e-9, abs=1e-12)
