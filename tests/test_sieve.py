import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multcorr.sieve
from multcorr import (
    PrimeSet,
    ShiftSet,
    SieveConfig,
    SignSeries,
    SeriesSample,
    empirical_density,
    correlation,
    running_average,
    shifted_parities,
    shifted_sign,
    sieve_parities,
)
from multcorr.sieve import series_windows

from oracles import omega_oracle, primes_upto


def test_parities_single_prime_window():
    bits = sieve_parities(PrimeSet([2]), 1, 9)
    assert bits.tolist() == [0, 1, 0, 0, 0, 1, 0, 1]


def test_parities_empty_prime_set():
    assert not sieve_parities(PrimeSet(), 5, 500).any()


def test_parities_reject_bad_range():
    with pytest.raises(ValueError):
        sieve_parities(PrimeSet([2]), 9, 9)
    with pytest.raises(ValueError):
        sieve_parities(PrimeSet([2]), 0, 5)
    with pytest.raises(ValueError):
        sieve_parities(PrimeSet([2]), 1, 2**63 + 10)


def test_parities_match_pointwise_at_random_offsets():
    pset = PrimeSet([2, 3, 5, 7])
    lo, hi = 10**6, 10**6 + 2**20
    bits = sieve_parities(pset, lo, hi)
    rng = random.Random(8)
    for _ in range(1000):
        n = rng.randrange(lo, hi)
        assert bits[n - lo] == omega_oracle(pset, n) % 2


@given(
    st.sets(st.sampled_from(primes_upto(30)), max_size=3).map(PrimeSet),
    st.sets(st.integers(0, 8), max_size=3).map(ShiftSet),
    st.integers(1, 3000),
)
@settings(max_examples=25)
def test_shifted_parities_match_pointwise(pset, shifts, lo):
    out = shifted_parities(pset, shifts, lo, lo + 40)
    for i in (0, 7, 39):
        expected = 1 if shifted_sign(pset, shifts, lo + i) == -1 else 0
        assert out[i] == expected


class TestRunningAverage:
    def test_empty_shift_set_is_exactly_one(self):
        series = running_average(PrimeSet([2, 3]), ShiftSet(), SieveConfig(x_max=1000))
        assert series.final.signed_sum == 1000

    def test_empty_prime_set_is_exactly_one(self):
        series = running_average(PrimeSet(), ShiftSet([0, 3]), SieveConfig(x_max=1000))
        assert series.final.average == 1

    def test_single_prime_near_third(self):
        series = running_average(PrimeSet([2]), ShiftSet([0]), SieveConfig(x_max=1 << 20))
        assert abs(series.final.average - Fraction(1, 3)) < Fraction(1, 1000)

    def test_sample_positions(self):
        cfg = SieveConfig(x_max=1050, sample_stride=300)
        series = running_average(PrimeSet([3]), ShiftSet([0, 1]), cfg)
        assert [s.x for s in series] == [300, 600, 900, 1050]

    def test_small_signed_sums_match_pointwise(self):
        # With H={0,2} and segment 64 each window spans 62 values of n: stride
        # 62 samples the last integer of a window, 63 the first of the next, 61
        # both sides of a boundary, and 200 leaves windows without a sample.
        pset, shifts = PrimeSet([2, 5]), ShiftSet([0, 2])
        for stride in (50, 61, 62, 63, 200):
            for threads in (1, 3):
                cfg = SieveConfig(x_max=400, sample_stride=stride, segment_length=64)
                series = running_average(pset, shifts, cfg, threads=threads)
                assert [s.x for s in series] == [*range(stride, 400, stride), 400]
                for sample in series:
                    expected = sum(shifted_sign(pset, shifts, n) for n in range(1, sample.x + 1))
                    assert sample.signed_sum == expected

    def test_segment_independence(self):
        pset, shifts = PrimeSet([2, 3]), ShiftSet([0, 4, 6])
        reference = None
        for seg in (7, 64, 1000, 1 << 22):
            cfg = SieveConfig(x_max=5000, segment_length=seg, sample_stride=777)
            series = running_average(pset, shifts, cfg)
            if reference is None:
                reference = series
            else:
                assert series == reference

    def test_threaded_merge_identical(self):
        pset, shifts = PrimeSet([2, 3, 5]), ShiftSet([0, 1, 2])
        cfg = SieveConfig(x_max=200_000, segment_length=4096, sample_stride=17_000)
        assert running_average(pset, shifts, cfg, threads=4) == running_average(
            pset, shifts, cfg, threads=1
        )

    def test_thread_count_past_the_windows(self, monkeypatch):
        # Three windows and 64 threads asked for on a 2-CPU machine: the pool
        # gets 2 workers, and threads=1 sieves in the calling thread.
        pool_sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(multcorr.sieve, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(multcorr.sieve.os, "cpu_count", lambda: 2)
        pset, shifts = PrimeSet([2, 3, 5]), ShiftSet([0, 1, 2])
        cfg = SieveConfig(x_max=300, segment_length=102, sample_stride=7)
        assert running_average(pset, shifts, cfg, threads=64) == running_average(
            pset, shifts, cfg, threads=1
        )
        assert pool_sizes == [2]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            running_average(PrimeSet([2]), ShiftSet([0]), SieveConfig(x_max=10), threads=threads)

    def test_rejects_segment_below_shift_span(self):
        with pytest.raises(ValueError, match="segment_length"):
            running_average(
                PrimeSet([2]), ShiftSet([0, 100]), SieveConfig(x_max=10, segment_length=50)
            )

    def test_rejects_overwide_range(self):
        with pytest.raises(ValueError, match="width"):
            running_average(PrimeSet([2]), ShiftSet([0, 9]), SieveConfig(x_max=2**63 - 5))

    def test_zero_correlation_fluctuation(self):
        series = running_average(PrimeSet([3]), ShiftSet([1, 2]), SieveConfig(x_max=10**5))
        assert abs(series.final.average) < Fraction(5, 100)


class TestSeriesWindows:
    def test_windows_concatenate_to_the_running_average(self):
        pset, shifts = PrimeSet([2, 3, 5]), ShiftSet([0, 1, 4])
        for stride in (None, 1, 60, 61, 997, 5000, 5001):
            for threads in (1, 3):
                cfg = SieveConfig(x_max=5000, segment_length=65, sample_stride=stride)
                windows = list(series_windows(pset, shifts, cfg, threads))
                assert all(xs.dtype == sums.dtype == np.int64 and len(xs) for xs, sums in windows)
                xs = np.concatenate([xs for xs, _ in windows]).tolist()
                sums = np.concatenate([sums for _, sums in windows]).tolist()
                series = running_average(pset, shifts, cfg, threads=threads)
                assert list(zip(xs, sums)) == [(s.x, s.signed_sum) for s in series]

    def test_one_window_sieved_per_window_taken(self, monkeypatch):
        calls = []
        sieve = multcorr.sieve.shifted_parities

        def recording(*args):
            calls.append(args[2:])
            return sieve(*args)

        monkeypatch.setattr(multcorr.sieve, "shifted_parities", recording)
        cfg = SieveConfig(x_max=1000, segment_length=100, sample_stride=10)
        windows = series_windows(PrimeSet([2]), ShiftSet([0]), cfg)
        assert calls == []
        xs, _ = next(windows)
        assert calls == [(1, 101)] and xs.tolist() == list(range(10, 101, 10))
        assert len(list(windows)) == 9 and len(calls) == 10

    def test_pool_sieves_at_most_one_window_per_worker_ahead(self, monkeypatch):
        submitted = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(multcorr.sieve, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(multcorr.sieve.os, "cpu_count", lambda: 3)
        cfg = SieveConfig(x_max=1000, segment_length=100, sample_stride=10)
        windows = series_windows(PrimeSet([2]), ShiftSet([0]), cfg, threads=3)
        xs, _ = next(windows)
        assert len(submitted) == 4 and xs.tolist() == list(range(10, 101, 10))
        assert len(list(windows)) == 9 and len(submitted) == 10

    def test_impossible_counts_rejected(self, monkeypatch):
        # a parity array of 3s makes the block sums count three -1 signs per n
        def threes(pset, shifts, lo, hi):
            return np.full(hi - lo, 3, dtype=np.uint8)

        monkeypatch.setattr(multcorr.sieve, "shifted_parities", threes)
        cfg = SieveConfig(x_max=100, sample_stride=10)
        with pytest.raises(ValueError, match="impossible signed sums"):
            list(series_windows(PrimeSet([2]), ShiftSet([0]), cfg))

    @pytest.mark.parametrize(
        "shifts,cfg,threads,match",
        [
            ([0], SieveConfig(x_max=10), 0, "threads"),
            ([0, 100], SieveConfig(x_max=10, segment_length=50), 1, "segment_length"),
            ([0, 9], SieveConfig(x_max=2**63 - 5), 1, "width"),
        ],
    )
    def test_arguments_checked_before_the_generator_is_returned(self, shifts, cfg, threads, match):
        with pytest.raises(ValueError, match=match):
            series_windows(PrimeSet([2]), ShiftSet(shifts), cfg, threads)


class TestEmpiricalDensity:
    def test_empty_prime_set_is_zero(self):
        assert empirical_density(PrimeSet(), ShiftSet([0, 5]), 1234) == 0

    def test_average_identity(self):
        pset, shifts = PrimeSet([2, 7]), ShiftSet([0, 3])
        for x in (10, 997, 4096):
            series = running_average(pset, shifts, SieveConfig(x_max=x))
            density = empirical_density(pset, shifts, x)
            assert series.final.average == 1 - 2 * density

    def test_converges_to_exact_value(self):
        measured = empirical_density(PrimeSet([2]), ShiftSet([0, 4, 6]), 10**6)
        assert abs(measured - Fraction(1, 6)) < Fraction(1, 100)

    def test_matches_correlation_value(self):
        pset, shifts = PrimeSet([2, 3]), ShiftSet([0])
        measured = 1 - 2 * empirical_density(pset, shifts, 10**6)
        assert abs(measured - correlation(pset, shifts).value) < Fraction(1, 100)


class TestSeriesTypes:
    def test_average_range_and_parity(self):
        sample = SeriesSample(5, 3)
        assert sample.average == Fraction(3, 5)

    def test_rejects_impossible_sum(self):
        with pytest.raises(ValueError):
            SignSeries((SeriesSample(5, 2),))  # parity mismatch
        with pytest.raises(ValueError):
            SignSeries((SeriesSample(5, 7),))  # |sum| > x

    def test_rejects_unordered_positions(self):
        with pytest.raises(ValueError):
            SignSeries((SeriesSample(10, 0), SeriesSample(10, 0)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SieveConfig(x_max=0)
        with pytest.raises(ValueError):
            SieveConfig(x_max=10, segment_length=0)
        with pytest.raises(ValueError):
            SieveConfig(x_max=10, sample_stride=0)


def test_parity_array_is_uint8_and_sized():
    out = shifted_parities(PrimeSet([2]), ShiftSet([0, 1]), 1, 101)
    assert out.dtype == np.uint8 and out.shape == (100,)
