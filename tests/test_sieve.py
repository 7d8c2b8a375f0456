import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multcorr.sieve
from multcorr import (
    BudgetError,
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


def strided_parities(pset, lo, hi):
    """The sieve as first written, kept as the oracle: every prime power below
    hi flips its multiples in a zeroed window, one stride each."""
    bits = np.zeros(hi - lo, dtype=np.uint8)
    for p in pset:
        pk = p
        while pk < hi:
            start = (lo + pk - 1) // pk * pk
            if start < hi:
                bits[start - lo :: pk] ^= 1
            pk *= p
    return bits


def copied_shifted_parities(pset, shifts, lo, hi):
    """Shifted parities XORed into a copy of the oracle window."""
    bits = strided_parities(pset, lo, hi + shifts.max_shift)
    out = np.zeros(hi - lo, dtype=np.uint8)
    for h in shifts:
        out ^= bits[h : h + hi - lo]
    return out


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


class TestPresievedPattern:
    def test_primes_below_ten_thousand_tile_the_smallest_powers(self):
        pattern, rest = multcorr.sieve._pattern(PrimeSet(primes_upto(10**4)))
        assert len(pattern) == 16 * 9 * 5 * 7 * 11
        assert dict(rest)[2] == 32 and dict(rest)[11] == 121 and dict(rest)[13] == 13
        assert not pattern.flags.writeable

    def test_matches_the_strided_sieve(self):
        # random P from the primes below 200, windows shorter than, as long
        # as and longer than the period, on and off a period boundary
        rng = random.Random(10)
        small = primes_upto(200)
        for _ in range(60):
            pset = PrimeSet(rng.sample(small, rng.randint(1, 12)))
            period = len(multcorr.sieve._pattern(pset)[0])
            lo = rng.choice([1, period, 2 * period, rng.randrange(1, 2**40 + 4), 2**40 + 3])
            if rng.random() < 0.5:
                lo = lo // period * period or period  # a period boundary
            for m in (1, period - 1, period, period + 1, 2 * period + 7, rng.randrange(1, 5000)):
                hi = lo + m
                assert np.array_equal(sieve_parities(pset, lo, hi), strided_parities(pset, lo, hi))

    @pytest.mark.parametrize(
        "primes,anchors",
        [
            ([], [10**6]),
            ([65537], [65537, 7 * 65537]),  # period 1
            ([2, 65537], [65536, 65537, 3 * 65537]),
            ([3, 1048583], [1048583, 2 * 1048583]),
            ([2], [2**16, 2**17, 3 * 2**17, 5 * 2**16]),  # 2**16 tiled, 2**17 flipped
        ],
    )
    def test_matches_pointwise_across_the_uncovered_powers(self, primes, anchors):
        pset = PrimeSet(primes)
        for anchor in anchors:
            lo, hi = anchor - 150, anchor + 150
            bits = sieve_parities(pset, lo, hi)
            assert bits.tolist() == [omega_oracle(pset, n) % 2 for n in range(lo, hi)]

    def test_shifted_parities_across_xor_blocks(self):
        block = multcorr.sieve._XOR_BLOCK
        pset = PrimeSet([2, 3, 5, 7, 13, 101])
        for shifts in ([0, 1], [0, 1, 5], [2, 3, 40], [3, 200]):
            hset = ShiftSet(shifts)
            for lo, m in ((1, 3 * block + 5), (10**9 + 7, block), (999, block - 1), (5, 17)):
                got = shifted_parities(pset, hset, lo, lo + m)
                assert np.array_equal(got, copied_shifted_parities(pset, hset, lo, lo + m))

    def test_shared_patterns_under_concurrent_windows(self):
        # more prime sets than the cache holds, sieved by more threads than
        # cores with a short switch interval: a pattern evicted or built by
        # one thread while another reads it must not change any window
        rng = random.Random(11)
        psets = [PrimeSet(rng.sample(primes_upto(60), 4)) for _ in range(12)]
        jobs = [(psets[i % 12], rng.randrange(1, 10**9)) for i in range(96)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda job: sieve_parities(job[0], job[1], job[1] + 3000), jobs))
        finally:
            sys.setswitchinterval(interval)
        for (pset, lo), bits in zip(jobs, got):
            assert np.array_equal(bits, strided_parities(pset, lo, lo + 3000))

    @pytest.mark.parametrize("shifts", [[4], [0, 1, 7]])
    def test_consecutive_results_do_not_alias(self, shifts):
        pset, hset = PrimeSet([2, 3]), ShiftSet(shifts)
        first = shifted_parities(pset, hset, 1, 1001)
        kept = first.copy()
        second = shifted_parities(pset, hset, 1, 1001)
        assert not np.shares_memory(first, second)
        second ^= 1
        assert np.array_equal(first, kept)


class TestFlipBlocks:
    """Short powers flip one block at a time, long powers once over the
    window, and powers at least the window length in one scatter."""

    PSET = PrimeSet(primes_upto(10**4))

    def assert_strided(self, lo, m, pset=PSET):
        assert np.array_equal(sieve_parities(pset, lo, lo + m), strided_parities(pset, lo, lo + m))

    @pytest.mark.parametrize("lo", [1, 9 * 10**7 + 5, 2**40 + 3])
    def test_windows_across_block_edges(self, lo):
        block = multcorr.sieve._FLIP_BLOCK
        for m in (1000, block - 1, block, block + 1, 3 * block + 12345):
            self.assert_strided(lo, m)

    def test_lo_next_to_a_multiple_of_the_first_power_not_short(self):
        t = multcorr.sieve._SHORT_POWER
        assert t & (t - 1) == 0  # a power of 2, so a prime power of PSET
        for c in (1, 7, 43945):
            for lo in (c * t - 1, c * t + 1):
                for m in (t - 1, t, t + 1, multcorr.sieve._FLIP_BLOCK + 3):
                    self.assert_strided(lo, m)

    @pytest.mark.parametrize("pk", [7919, 3**13, 2**21])
    def test_window_as_long_as_a_power(self, pk):
        # the power has one multiple in the window, at its first or last
        # entry, or two when the window is one longer
        for c in (1, 45):
            for lo in (c * pk - 1, c * pk, c * pk + 1):
                for m in (pk - 1, pk, pk + 1):
                    self.assert_strided(lo, m)

    def test_two_powers_at_least_the_window_length_divide_one_n(self):
        m = 64
        least = max(m, multcorr.sieve._SHORT_POWER)
        powers = [
            p**k for p in self.PSET for k in range(1, 42) if least <= p**k < 2 * 10**12
        ]
        n = next(n for n in itertools.count(10**12) if sum(n % pk == 0 for pk in powers) >= 2)
        for lo in (n - m + 1, n - 17, n):
            self.assert_strided(lo, m)
            assert sieve_parities(self.PSET, lo, lo + m)[n - lo] == omega_oracle(self.PSET, n) % 2

    def test_two_threads_match_one_across_windows(self):
        cfg = SieveConfig(x_max=6 * 10**6, segment_length=(1 << 20) + 3, sample_stride=99991)
        shifts = ShiftSet([0, 1, 6])
        one = running_average(self.PSET, shifts, cfg, threads=1)
        assert running_average(self.PSET, shifts, cfg, threads=2) == one
        assert len(one) == 61


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

    def test_sample_cap_raises_before_sieving(self, monkeypatch):
        def unsieved(*args, **kwargs):
            raise AssertionError("sieved past the sample cap")

        monkeypatch.setattr(multcorr.sieve, "series_windows", unsieved)
        cfg = SieveConfig(x_max=10**12, sample_stride=1)
        with pytest.raises(BudgetError, match=r"MAX_SAMPLES = 4194304"):
            running_average(PrimeSet([2]), ShiftSet([0]), cfg)

    def test_sample_cap_boundary(self, monkeypatch):
        # stride 10 samples x = 10, 20, ..., 100; stride 9 samples 9, ..., 99 and 100
        monkeypatch.setattr(multcorr.sieve, "MAX_SAMPLES", 10)
        pset, shifts = PrimeSet([2]), ShiftSet([0])
        assert len(running_average(pset, shifts, SieveConfig(x_max=100, sample_stride=10))) == 10
        with pytest.raises(BudgetError, match="12 samples exceed the cap of MAX_SAMPLES = 10"):
            running_average(pset, shifts, SieveConfig(x_max=100, sample_stride=9))

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
