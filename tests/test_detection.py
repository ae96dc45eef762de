"""Z-score outlier filtering, harmonic suppression, and confidence classes."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_trace
from oracles import brute_candidates, population_std

from ioperiod import (
    Candidate,
    CandidateSet,
    Confidence,
    Spectrum,
    SynthConfig,
    Trace,
    analyze_trace,
    bundled_phase_templates,
    classify,
    detect,
    generate,
    suppress_harmonics,
)
from ioperiod.detection import DEFAULT_TOLERANCE, DEFAULT_Z_MIN, _passing, _zscore_array
from ioperiod.sampling import sample_requests, snap_floor


def make_spectrum(adjusted, fs=1.0, n=None):
    """Hand-built single-sided spectrum from adjusted amplitudes (k=0 first)."""
    adjusted = np.asarray(adjusted, dtype=np.float64)
    if n is None:
        n = 2 * (adjusted.shape[0] - 1)
    k = np.arange(adjusted.shape[0], dtype=np.float64)
    return Spectrum(
        fs=fs, n=n, t0=0.0,
        frequencies=k * fs / n,
        amplitudes=adjusted / 2.0,
        phases=np.zeros_like(adjusted),
        adjusted_amplitudes=adjusted,
    )


def cand(f, amp, k=1, z=5.0):
    return Candidate(k=k, frequency=f, amplitude=amp, zscore=z)


def frequencies(candidates):
    return tuple(c.frequency for c in candidates.entries)


def cset(*entries):
    return CandidateSet(entries=tuple(entries), mean_amplitude=1.0, std_amplitude=1.0)


def passing(z, spectrum_n, tolerance=DEFAULT_TOLERANCE, z_min=DEFAULT_Z_MIN):
    """Bins k = 1, 2, ... whose Z-scores ``z`` pass the candidate filter."""
    mask = _passing(np.array(z, dtype=np.float64), spectrum_n, tolerance, z_min)
    return (np.flatnonzero(mask) + 1).tolist()


class TestZscores:
    def test_hand_computed_vector(self):
        # non-DC amplitudes [0, 0, 0, 10]: mean 2.5, population std 4.33
        spec = make_spectrum([99.0, 0.0, 0.0, 0.0, 10.0])
        _, std, z = _zscore_array(spec)
        assert z[:3] == pytest.approx([-0.577, -0.577, -0.577], abs=5e-4)
        assert z[3] == pytest.approx(1.732, abs=5e-4)
        assert std == pytest.approx(population_std([0, 0, 0, 10]))

    def test_dc_bin_excluded(self):
        spec = make_spectrum([1e9, 1.0, 2.0, 3.0, 4.0])
        mean, _, _ = _zscore_array(spec)
        assert mean == pytest.approx(2.5)

    def test_degenerate_spectrum(self):
        assert _zscore_array(make_spectrum([5.0, 2.0, 2.0, 2.0, 2.0])) is None

    def test_uses_population_std(self, rng):
        amps = rng.uniform(0, 10, 9)
        spec = make_spectrum(np.concatenate([[0.0], amps]))
        _, std, _ = _zscore_array(spec)
        assert std == pytest.approx(population_std(amps))


class TestFindCandidates:
    def test_unique_outlier(self):
        assert passing([1.0, 1.0, 5.0, 1.0], spectrum_n=10) == [3]

    def test_z_min_gate(self):
        # the relative tolerance alone would keep the max, but z < 3 drops it
        assert passing([2.9, 1.0], spectrum_n=10) == []

    def test_tolerance_band_keeps_near_max(self):
        assert passing([10.0, 8.5, 7.0], spectrum_n=10, tolerance=0.8) == [1, 2]

    def test_nyquist_bin_excluded_from_max(self):
        # n=8: bin 4 is the Nyquist bin; its large z must not set the bar
        assert passing([4.0, 1.0, 1.0, 9.0], spectrum_n=8) == [1, 4]


class TestSuppressHarmonics:
    def test_single_octave(self):
        kept, suppressed = suppress_harmonics(
            cset(cand(0.01, 2.0, k=1), cand(0.02, 1.0, k=2)))
        assert frequencies(kept) == (0.01,)
        assert suppressed == (0.02,)

    def test_singleton_unchanged(self):
        kept, suppressed = suppress_harmonics(cset(cand(0.09, 1.0, k=7)))
        assert frequencies(kept) == (0.09,)
        assert suppressed == ()

    def test_full_chain_collapses(self):
        kept, suppressed = suppress_harmonics(
            cset(cand(0.01, 3.0, k=1), cand(0.02, 2.0, k=2), cand(0.04, 1.0, k=4)))
        assert frequencies(kept) == (0.01,)
        assert suppressed == (0.02, 0.04)

    def test_non_power_of_two_multiple_survives(self):
        kept, suppressed = suppress_harmonics(
            cset(cand(0.01, 2.0, k=1), cand(0.03, 1.0, k=3)))
        assert frequencies(kept) == (0.01, 0.03)
        assert suppressed == ()

    @pytest.mark.parametrize("bins, kept_bins", [([3, 6, 12, 18], [3, 18]),
                                                 ([5, 10, 11], [5, 11])],
                             ids=["3-6-12-18", "5-10-11"])
    def test_harmonic_bins_are_power_of_two_multiples(self, bins, kept_bins):
        # 18 = 6 * 3 and 11 is no multiple of 5: both survive
        kept, suppressed = suppress_harmonics(
            cset(*(cand(0.01 * k, 1.0, k=k) for k in bins)))
        assert [c.k for c in kept.entries] == kept_bins
        assert suppressed == tuple(0.01 * k for k in bins if k not in kept_bins)


class TestClassify:
    def test_single_candidate_high(self):
        result = classify(cset(cand(0.09, 1.0, k=7)))
        assert result.confidence == Confidence.HIGH
        assert result.frequency == pytest.approx(0.09)
        assert result.period == pytest.approx(1 / 0.09)

    def test_two_candidates_moderate_amplitude_wins(self):
        # two close peaks: the stronger, lower one gives a period of 8.29 s
        result = classify(cset(cand(0.1206, 5.0, k=201), cand(0.1326, 4.0, k=221)))
        assert result.confidence == Confidence.MODERATE
        assert result.frequency == pytest.approx(0.1206)
        assert result.period == pytest.approx(8.29, abs=0.005)

    def test_two_candidates_distant_peaks(self):
        result = classify(cset(cand(1 / 25.73, 7.0, k=2), cand(0.16, 3.0, k=9)))
        assert result.confidence == Confidence.MODERATE
        assert result.period == pytest.approx(25.73, abs=0.005)

    def test_amplitude_tie_breaks_to_lower_frequency(self):
        result = classify(cset(cand(0.1, 5.0, k=1), cand(0.3, 5.0, k=3)))
        assert result.frequency == pytest.approx(0.1)

    def test_three_candidates_low_no_frequency(self):
        result = classify(cset(cand(0.1, 1.0, k=1), cand(0.2, 1.0, k=2),
                               cand(0.3, 1.0, k=3)))
        assert result.confidence == Confidence.LOW
        assert result.frequency is None
        assert result.period is None

    def test_three_candidates_amplitude_tie_strongest_is_lower_frequency(self):
        result = classify(cset(cand(0.1, 2.0, k=1), cand(0.3, 5.0, k=3),
                               cand(0.2, 5.0, k=2)))
        assert result.confidence == Confidence.LOW and result.frequency is None
        assert result.candidates.strongest.frequency == 0.2

    def test_zero_candidates(self):
        result = classify(cset())
        assert result.confidence == Confidence.NO_CANDIDATE
        assert result.frequency is None

    @pytest.mark.parametrize("n_candidates", [0, 1, 2, 3])
    def test_dominant_exactly_for_high_and_moderate(self, n_candidates):
        # 0, 1, 2 and 3 candidates give each of the four confidences
        result = classify(cset(*(cand(0.1 * (j + 1), 1.0, k=j + 1)
                                 for j in range(n_candidates))))
        assert result.confidence == [Confidence.NO_CANDIDATE, Confidence.HIGH,
                                     Confidence.MODERATE, Confidence.LOW][n_candidates]
        assert result.has_dominant == (n_candidates in (1, 2))
        assert result.has_dominant == (result.frequency is not None)


class TestDetect:
    def test_full_chain_on_spectrum(self):
        # one strong bin plus its octave: harmonic suppressed, High
        adjusted = np.full(51, 0.1)
        adjusted[0] = 40.0
        adjusted[5] = 10.0
        adjusted[10] = 9.0
        spec = make_spectrum(adjusted, fs=1.0, n=100)
        result = detect(spec)
        assert result.confidence == Confidence.HIGH
        assert result.frequency == pytest.approx(spec.frequencies[5])
        assert result.suppressed_harmonics == (pytest.approx(spec.frequencies[10]),)

    def test_degenerate_spectrum_no_candidate(self):
        spec = make_spectrum(np.full(9, 2.0))
        result = detect(spec)
        assert result.confidence == Confidence.NO_CANDIDATE

    @pytest.mark.parametrize("n", [2, 3])
    def test_window_of_one_non_dc_bin_no_candidate(self, n):
        # 2 or 3 samples leave one non-DC bin, which has no Z-score
        trace = make_trace([(0, 0.0, 0.1, 100), (0, 0.1, 0.3, 50)])
        analysis = analyze_trace(trace, fs=10.0, window=(0.0, n / 10.0))
        assert analysis.confidence == Confidence.NO_CANDIDATE
        assert not analysis.no_data and analysis.spectrum.n == n

    @pytest.mark.parametrize("window", [(math.nan, 5.0), (0.0, math.inf), (2.0, 2.0)])
    @pytest.mark.parametrize("rows", [[], [(0, 0.0, 1.0, 0)], [(0, 0.0, 1.0, 100)]],
                             ids=["empty", "zero-volume", "volume"])
    def test_bad_window_rejected_with_or_without_volume(self, rows, window):
        # a trace with no volume returns early, after the window is checked
        with pytest.raises(ValueError, match="window needs finite bounds with LO < HI"):
            analyze_trace(make_trace(rows), fs=10.0, window=window)

    def test_low_confidence_metrics_use_the_strongest_candidate(self):
        # bursts every 10, 7 and 3 s on three ranks; a low tolerance keeps
        # many candidates, the strongest neither the first nor the last
        rows = [(r, t, t + 1.0, 100) for r, p in enumerate((10.0, 7.0, 3.0))
                for t in np.arange(0.0, 119.0, p)]
        trace = make_trace(rows)
        analysis = analyze_trace(trace, fs=10.0, tolerance=0.3)
        assert analysis.confidence == Confidence.LOW and analysis.frequency is None
        strongest = analysis.result.candidates.strongest
        assert strongest not in (analysis.result.candidates.entries[0],
                                 analysis.result.candidates.entries[-1])
        _, sampled, _ = sample_requests(trace, 10.0)
        assert analysis.metrics.periods_used == snap_floor(
            sampled.duration * strongest.frequency)

    def test_result_serialization(self):
        adjusted = np.full(51, 0.1)
        adjusted[5] = 10.0
        spec = make_spectrum(adjusted, fs=1.0, n=100)
        out = detect(spec).to_dict(amplitude_scale=2.0)
        assert out["confidence"] == "high"
        assert out["candidates"][0]["amplitude"] == pytest.approx(20.0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("noise", ["none", "high"])
class TestAnalyzeTraceInvariance:
    """What a generated trace's analysis may not depend on."""

    @staticmethod
    def generated(noise, seed):
        templates = tuple(bundled_phase_templates(processes=8, seed=0))
        trace, _ = generate(SynthConfig(processes=8, compute_std=3.3, noise=noise, seed=seed,
                                        templates=templates))
        return trace

    def test_time_offset(self, noise, seed):
        # epoch timestamps, and later ones, keep the period and its class
        trace = self.generated(noise, seed)
        base = analyze_trace(trace, 10.0)
        for offset in (1.7e9, 1e12):
            shifted = analyze_trace(Trace(trace.rank, trace.start + offset, trace.end + offset,
                                          trace.nbytes, trace.kind_code), 10.0)
            assert shifted.period == pytest.approx(base.period, rel=1e-9)
            assert shifted.confidence == base.confidence

    def test_rank_relabelling(self, noise, seed):
        trace = self.generated(noise, seed)
        relabel = np.random.default_rng(seed).permutation(int(trace.rank.max()) + 1)
        relabelled = Trace(relabel[trace.rank], trace.start, trace.end, trace.nbytes,
                           trace.kind_code)
        assert analyze_trace(relabelled, 10.0).to_dict() == analyze_trace(trace, 10.0).to_dict()


@st.composite
def spectra(draw):
    """Adjusted amplitudes on a small integer ladder times a power of two.

    Sums of such values are exact, so the library and the oracle agree on
    the mean and on every equality of amplitudes: ties at the maximum sit
    exactly at the cut when tolerance is 1, and a flat spectrum is exactly
    degenerate.
    """
    m = draw(st.integers(2, 40))  # non-DC bins, n//2
    n = 2 * m + draw(st.integers(0, 1))
    levels = draw(st.lists(st.integers(0, 12), min_size=m, max_size=m))
    if draw(st.integers(0, 7)) == 0:
        levels = [levels[0]] * m  # degenerate
    elif draw(st.booleans()):
        levels[draw(st.integers(0, m - 1))] = max(levels)  # tie at the maximum
    if n % 2 == 0 and draw(st.booleans()):
        levels[-1] = 12 + draw(st.integers(1, 50))  # spike at the Nyquist bin
    scale = 2.0 ** draw(st.integers(-20, 20))
    dc = draw(st.integers(0, 100))
    adjusted = [float(v) * scale for v in [dc] + levels]
    tolerance = draw(st.sampled_from([0.5, 0.8, 1.0]))
    z_min = draw(st.sampled_from([0.0, 1.0, 3.0]))
    return adjusted, n, tolerance, z_min


def _clear_of(z, bar):
    return abs(z - bar) > 1e-9 * max(1.0, abs(bar))


class TestAgainstPerBinOracle:
    @given(spectra())
    @settings(max_examples=300, deadline=None)
    def test_detect_matches_oracle(self, case):
        adjusted, n, tolerance, z_min = case
        spec = make_spectrum(adjusted, n=n)
        result = detect(spec, tolerance=tolerance, z_min=z_min)
        want = brute_candidates(adjusted, n, tolerance, z_min)
        if want is None:
            assert _zscore_array(spec) is None
            assert result.confidence == Confidence.NO_CANDIDATE
            assert result.frequency is None and result.suppressed_harmonics == ()
            assert len(result.candidates) == 0
            assert math.isnan(result.candidates.mean_amplitude)
            assert result.candidates.std_amplitude == 0.0
            return
        mean, std, z, cut, kept = want
        # a bin within rounding of a bar may fall either side of it in either
        # implementation; a tie with the maximum at tolerance 1 may not
        assume(all(_clear_of(zk, cut) or (tolerance == 1.0 and zk == cut) for zk in z))
        assume(all(_clear_of(zk, z_min) for zk in z))

        _, _, got_z = _zscore_array(spec)
        assert got_z.tolist() == pytest.approx(z, rel=0, abs=1e-12)
        assert passing(got_z, n, tolerance=tolerance, z_min=z_min) == kept

        oracle_set = CandidateSet(
            entries=tuple(Candidate(k=k, frequency=float(spec.frequencies[k]),
                                    amplitude=adjusted[k], zscore=z[k - 1]) for k in kept),
            mean_amplitude=mean, std_amplitude=std,
        )
        expect = classify(*suppress_harmonics(oracle_set))
        assert [c.k for c in result.candidates.entries] == [c.k for c in expect.candidates.entries]
        assert [c.zscore for c in result.candidates.entries] == pytest.approx(
            [c.zscore for c in expect.candidates.entries], rel=0, abs=1e-12)
        assert result.confidence == expect.confidence
        assert result.frequency == expect.frequency
        assert result.suppressed_harmonics == expect.suppressed_harmonics
        assert result.candidates.mean_amplitude == pytest.approx(mean, rel=1e-12)
        assert result.candidates.std_amplitude == pytest.approx(std, rel=1e-12)
