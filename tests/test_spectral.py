"""DFT correctness against a brute-force oracle, spectrum conventions,
and cosine reconstruction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_dft, good_size

from ioperiod import SampledSignal, Spectrum, dft, reconstruct, spectral
from ioperiod.sampling import MAX_SAMPLES


def _sampled(values, fs=1.0, t0=0.0):
    return SampledSignal(t0=t0, ts=1.0 / fs, samples=np.asarray(values, float))


def _bins(spec):
    """The complex DFT bins 0..n//2 that a spectrum's amplitudes and phases hold."""
    return spec.amplitudes * np.exp(1j * spec.phases)


class TestFft:
    # 106 = 2*53, 478 = 2*239, 1018 = 2*509 and 2018 = 2*1009 have a prime
    # factor above their square root: rfft runs them as Bluestein
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 16, 31, 32, 100, 128,
                                   106, 478, 1018, 2018])
    def test_matches_oracle(self, n, rng):
        x = rng.normal(size=n)
        got = _bins(dft(_sampled(x)))
        want = brute_dft(x)[:n // 2 + 1]
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(got - want).max() / scale < 1e-12

    def test_large_prime_factor_length(self, rng):
        # 7605 = 3^2 * 5 * 13^2: a length with odd prime factors, at real size
        x = rng.normal(size=7605)
        got = _bins(dft(_sampled(x)))
        want = brute_dft(x)[:7605 // 2 + 1]
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-9

    def test_good_size_is_the_next_11_smooth_length(self):
        lengths = [*range(1, 5001), *range(33_700, 34_701), *range(2**21 - 1000, 2**21)]
        assert [spectral._good_size(n) for n in lengths] == [good_size(n) for n in lengths]
        # it is the smallest such length, and MAX_SAMPLES is one, so no
        # window of up to MAX_SAMPLES samples is transformed at more
        assert spectral._good_size(MAX_SAMPLES) == MAX_SAMPLES

    # dft runs rfft at every length, 34379 = 31*1109 and 34446 = 2*3*5741
    # as Bluestein
    @pytest.mark.parametrize("n", [106, 478, 2018, 1019, 34379, 34446])
    def test_dc_and_nyquist_phases_are_exact(self, n, rng):
        # rfft gives these bins an imaginary part of exactly 0.0, so their
        # phase is 0 or pi; a rounding residue would show in the CSV
        for offset in (5.0, -5.0):
            spec = dft(_sampled(rng.normal(size=n) + offset))
            assert spec.phases[0] == (0.0 if offset > 0 else math.pi)
            if n % 2 == 0:
                assert spec.phases[n // 2] in (0.0, math.pi)

    @given(st.integers(2, 128))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, n):
        # each raw amplitude times its adjusted one counts the bin and its
        # conjugate partner: the energy of the full two-sided spectrum
        rng = np.random.default_rng(n + 2)
        x = rng.normal(size=n)
        spec = dft(_sampled(x))
        time_energy = float(np.sum(x ** 2))
        freq_energy = float(np.sum(spec.amplitudes * spec.adjusted_amplitudes)) / n
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)


class TestSpectrum:
    def test_constant_signal_is_dc_only(self):
        c = 3.5
        spec = dft(_sampled([c] * 8))
        assert spec.amplitudes[0] == pytest.approx(8 * c)
        assert np.all(spec.amplitudes[1:] < 1e-9 * 8 * c)

    def test_single_tone(self):
        n = 16
        x = np.cos(2 * np.pi * np.arange(n) / n)
        spec = dft(_sampled(x))
        assert spec.amplitudes[1] == pytest.approx(n / 2)
        others = np.delete(spec.amplitudes[1:], 0)
        assert np.all(others < 1e-9)

    def test_frequency_grid(self):
        spec = dft(_sampled(np.zeros(10), fs=5.0))
        assert np.allclose(spec.frequencies, np.arange(6) * 0.5)

    def test_adjusted_amplitudes_even_n(self):
        # interior bins double; DC and the Nyquist bin do not
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        spec = dft(_sampled(x))
        assert spec.adjusted_amplitudes[0] == pytest.approx(spec.amplitudes[0])
        assert np.allclose(spec.adjusted_amplitudes[1:6], 2 * spec.amplitudes[1:6])
        assert spec.adjusted_amplitudes[6] == pytest.approx(spec.amplitudes[6])

    def test_adjusted_amplitudes_odd_n(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=11)
        spec = dft(_sampled(x))
        assert np.allclose(spec.adjusted_amplitudes[1:], 2 * spec.amplitudes[1:])

    def test_cosine_at_a_million_points(self):
        # closed form: c + a*cos(2 pi k0 i / n + phi) has X_0 = n*c and
        # X_k0 = (n*a/2) e^{i phi}; every other bin is zero
        n, k0, c, a, phi = 1_000_001, 12_345, 0.75, 2.0, 0.6
        i = np.arange(n, dtype=np.int64)
        x = c + a * np.cos(2 * np.pi * ((k0 * i) % n) / n + phi)
        spec = dft(_sampled(x))
        assert spec.adjusted_amplitudes[k0] == pytest.approx(n * a, rel=1e-9)
        assert spec.phases[k0] == pytest.approx(phi, abs=1e-9)
        assert spec.amplitudes[0] == pytest.approx(n * c, rel=1e-9)
        assert np.delete(spec.amplitudes, [0, k0]).max() < 1e-9 * n * a

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            dft(_sampled([1.0]))

    def test_csv_export(self, tmp_path):
        spec = dft(_sampled([1.0, 2.0, 3.0, 4.0]))
        path = tmp_path / "spec.csv"
        spec.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,f_k,amplitude,adjusted_amplitude,phase"
        assert len(lines) == 4  # header + bins 0..2
        # each value as the spectrum holds it, in its units
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        np.testing.assert_array_equal(rows, np.column_stack([
            np.arange(3), spec.frequencies, spec.amplitudes, spec.adjusted_amplitudes,
            spec.phases]))


class TestReconstruct:
    @pytest.mark.parametrize("n, fs, t0", [
        *(pytest.param(n, 2.0, 5.0, id=str(n)) for n in (2, 3, 8, 17, 50)),
        # far from time 0 the grid's rounding exceeds a fixed forgiveness
        *(pytest.param(1000, 5.0, t0, id=f"1000-at-{t0:g}") for t0 in (1.7e9, 1e12)),
    ])
    def test_all_bins_round_trip(self, n, fs, t0, rng):
        x = rng.normal(size=n)
        sampled = _sampled(x, fs=fs, t0=t0)
        spec = dft(sampled)
        back = reconstruct(spec, np.arange(n // 2 + 1), sampled.times)
        assert np.abs(back - x).max() / max(np.abs(x).max(), 1.0) < 1e-9

    def test_dc_only_gives_mean(self, rng):
        x = rng.normal(size=20)
        sampled = _sampled(x)
        spec = dft(sampled)
        back = reconstruct(spec, [0], sampled.times)
        assert np.allclose(back, x.mean())

    def test_zero_order_hold_between_samples(self):
        x = np.array([0.0, 4.0, 0.0, 4.0])
        sampled = _sampled(x)
        spec = dft(sampled)
        # a time inside a sampling interval snaps to that interval's sample
        mid = reconstruct(spec, np.arange(3), [1.4])
        at_sample = reconstruct(spec, np.arange(3), [1.0])
        assert mid[0] == pytest.approx(at_sample[0])

    def test_top_component_plus_offset(self):
        # dominant-cosine readback: offset bin plus the fundamental of a
        # 7-pulse train spanning 76.05 s at 100 Hz lands at 0.092 Hz
        fs, span, pulses = 100.0, 76.05, 7
        period = span / pulses
        t = np.arange(int(span * fs) + 1) / fs
        x = ((t % period) < 0.2 * period).astype(float)
        sampled = _sampled(x[:7605], fs=fs)
        spec = dft(sampled)
        k_fund = np.argmax(spec.adjusted_amplitudes[1:]) + 1
        assert k_fund == pulses
        assert spec.frequencies[k_fund] == pytest.approx(0.092, abs=5e-4)
        back = reconstruct(spec, [0, k_fund], sampled.times)
        # offset equals the duty cycle, the cosine rides on top of it
        assert back.mean() == pytest.approx(x[:7605].mean(), rel=1e-6)

    def test_out_of_range_bin_rejected(self):
        spec = dft(_sampled([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            reconstruct(spec, [3], [0.0])
