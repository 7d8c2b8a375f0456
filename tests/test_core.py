import copy
import inspect
import math
import pickle
import random
import sys
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import multcorr.core as core
from multcorr import (
    MAX_INPUT,
    BudgetError,
    PrimeSet,
    ShiftSet,
    exceptional_primes,
    is_prime,
    liouville,
    omega,
    primes_from,
    shifted_sign,
)

from oracles import factorize, omega_oracle, primes_upto, shifted_sign_oracle, sign_oracle

SMALL_PRIMES = primes_upto(50)

prime_sets = st.sets(st.sampled_from(SMALL_PRIMES), max_size=6).map(PrimeSet)
shift_sets = st.sets(st.integers(0, 20), max_size=4).map(ShiftSet)


def test_is_prime_agrees_with_sieve():
    # every n below 41**2 that survives the trial division by the bases is
    # prime, and each larger n is decided by the fewest bases that suffice
    table = set(primes_upto(10**6))
    assert [n for n in range(10**6) if is_prime.__wrapped__(n)] == sorted(table)


# psi_k (OEIS A014233) with a nontrivial factor of each
PSI = [
    (2047, 23),
    (1_373_653, 829),
    (25_326_001, 2251),
    (3_215_031_751, 151),
    (2_152_302_898_747, 6763),
    (3_474_749_660_383, 1303),
    (341_550_071_728_321, 10_670_053),
    (341_550_071_728_321, 10_670_053),
    (3_825_123_056_546_413_051, 149_491),
    (3_825_123_056_546_413_051, 149_491),
    (3_825_123_056_546_413_051, 149_491),
    (318_665_857_834_031_151_167_461, 399_165_290_221),
]
PRIME_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


@pytest.mark.parametrize("k", range(1, 13))
def test_psi_k_fools_the_first_k_bases(k):
    psi, factor = PSI[k - 1]
    assert 1 < factor < psi and psi % factor == 0
    assert all(strong_probable_prime(psi, a) for a in PRIME_BASES[:k])
    if k < 12:
        # the bases tried at psi_k include base k + 1, which exposes it
        assert not is_prime(psi)
    else:
        # psi_12 fools all twelve bases: is_prime is exact only below it,
        # which is past every input the package accepts, and refuses it
        assert psi > MAX_INPUT
        with pytest.raises(ValueError, match="exact only below psi_12 = 318665857834031151167461"):
            is_prime(psi)


def test_is_prime_near_each_psi_k():
    for psi, _ in PSI:
        for n in range(psi - 200, psi + 201):
            if n >= PSI[-1][0]:
                with pytest.raises(ValueError, match="psi_12"):
                    is_prime(n)
            else:
                expected = n > 1 and all(strong_probable_prime(n, a) for a in PRIME_BASES)
                assert is_prime(n) == expected


def test_primes_from_is_strictly_above_start():
    gen = primes_from(10)
    assert [next(gen) for _ in range(3)] == [11, 13, 17]
    assert next(primes_from(1)) == 2
    assert next(primes_from(13)) == 17


@pytest.mark.parametrize("start", [0, 1, 2, 3])
def test_primes_from_small_starts_match_sieve(start):
    expected = [p for p in primes_upto(2 * 10**6) if p > start]
    assert list(islice(primes_from(start), len(expected))) == expected


@pytest.mark.parametrize("start", [65_535, 65_536, 131_071, 1_048_573, 1_999_000])
def test_primes_from_across_segment_boundaries(start):
    # A segment covers 2**16 integers, so each range crosses several segment
    # boundaries, and the base-prime table regrows along the way.
    expected = [p for p in primes_upto(start + 300_000) if p > start]
    assert list(islice(primes_from(start), len(expected))) == expected


@pytest.mark.parametrize("start", [10**13, 2**63 - 5000, 2**64 + 10])
def test_primes_from_above_base_prime_cap(start):
    # Past the base-prime cap squared every survivor is confirmed by is_prime.
    expected = [n for n in range(start + 1, start + 3000) if is_prime(n)]
    assert list(islice(primes_from(start), len(expected))) == expected


class TestPrimeSet:
    def test_sorts_input(self):
        assert PrimeSet([5, 2, 3]).primes == (2, 3, 5)

    def test_empty_allowed(self):
        assert len(PrimeSet()) == 0

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeSet([2, 9])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            PrimeSet([3, 3])

    def test_symmetric_difference(self):
        a, b = PrimeSet([2, 3]), PrimeSet([3, 5])
        assert a.symmetric_difference(b) == PrimeSet([2, 5])


class TestShiftSet:
    def test_sorts_input(self):
        assert ShiftSet([6, 0, 4]).shifts == (0, 4, 6)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShiftSet([1, 1])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            ShiftSet([-1, 2])


@pytest.mark.parametrize(
    "cls,view,members", [(PrimeSet, "primes", (2, 3, 5)), (ShiftSet, "shifts", (0, 4, 6))]
)
class TestSetsAreTuples:
    def test_equal_and_hash_like_the_plain_tuple(self, cls, view, members):
        s = cls(reversed(members))
        assert isinstance(s, tuple) and s == members and hash(s) == hash(members)
        assert {members: "plain"}[s] == "plain"
        assert getattr(s, view) is s

    def test_copy_and_pickle_keep_the_type(self, cls, view, members):
        s = cls(members)
        for copied in (copy.copy(s), pickle.loads(pickle.dumps(s))):
            assert type(copied) is cls and copied == s

    def test_slices_and_sums_are_plain_tuples(self, cls, view, members):
        s = cls(members)
        assert type(s[1:]) is tuple and s[1:] == members[1:]
        assert type(s + s) is tuple and type(s + (7,)) is tuple

    def test_numpy_integers_become_ints(self, cls, view, members):
        s = cls(np.array(members[::-1], dtype=np.int64))
        assert s == members and all(type(m) is int for m in s)

    @pytest.mark.parametrize("bad", [3.9, 4.0, "7"])
    def test_non_integers_rejected(self, cls, view, members, bad):
        with pytest.raises(TypeError):
            cls([*members, bad])


class TestOmega:
    def test_examples(self):
        assert omega(PrimeSet([2, 3]), 12) == 3
        assert omega(PrimeSet(), 10**6) == 0
        value = omega(PrimeSet([3]), 54)
        assert value == omega_oracle([3], 54) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            omega(PrimeSet([2]), 0)
        with pytest.raises(ValueError):
            omega(PrimeSet([2]), -5)

    def test_rejects_overwide(self):
        with pytest.raises(ValueError):
            omega(PrimeSet([2]), MAX_INPUT + 1)

    @given(prime_sets, st.integers(1, 10**4))
    def test_matches_factorization_oracle(self, pset, n):
        assert omega(pset, n) == omega_oracle(pset, n)

    @given(prime_sets, st.integers(1, 10**6))
    def test_bounded_by_log2(self, pset, n):
        assert omega(pset, n) <= math.log2(n) + 1e-9


class TestLiouville:
    def test_examples(self):
        assert liouville(PrimeSet(primes_upto(50)), 8) == -1
        assert liouville(PrimeSet([2]), 9) == 1
        value = liouville(PrimeSet([2, 5]), 40)
        assert value == sign_oracle([2, 5], 40) == 1

    @given(prime_sets, st.integers(1, 10**4), st.integers(1, 10**4))
    def test_completely_multiplicative(self, pset, m, n):
        assert liouville(pset, m * n) == liouville(pset, m) * liouville(pset, n)

    @given(prime_sets, prime_sets, st.integers(1, 10**4))
    def test_symmetric_difference_group_law(self, p1, p2, n):
        assert liouville(p1.symmetric_difference(p2), n) == liouville(p1, n) * liouville(p2, n)


class TestShiftedSign:
    def test_examples(self):
        assert shifted_sign(PrimeSet([2]), ShiftSet([0, 1]), 2) == -1
        assert shifted_sign(PrimeSet([2, 7]), ShiftSet(), 123) == 1
        value = shifted_sign(PrimeSet([3]), ShiftSet([1, 2]), 7)
        assert value == shifted_sign_oracle([3], [1, 2], 7) == 1

    def test_rejects_shifted_overflow(self):
        with pytest.raises(ValueError):
            shifted_sign(PrimeSet([2]), ShiftSet([0, 10]), MAX_INPUT - 5)

    @given(prime_sets, shift_sets, st.integers(1, 10**4))
    def test_matches_oracle(self, pset, shifts, n):
        assert shifted_sign(pset, shifts, n) == shifted_sign_oracle(pset, shifts, n)

    @given(prime_sets, prime_sets, shift_sets, shift_sets, st.integers(1, 10**4))
    def test_four_corner_group_law(self, p1, p2, h1, h2, n):
        lhs = shifted_sign(p1.symmetric_difference(p2), h1.symmetric_difference(h2), n)
        rhs = (
            shifted_sign(p1, h1, n)
            * shifted_sign(p1, h2, n)
            * shifted_sign(p2, h1, n)
            * shifted_sign(p2, h2, n)
        )
        assert lhs == rhs


class TestExceptionalPrimes:
    def test_examples(self):
        assert exceptional_primes(ShiftSet([0, 4, 6])) == PrimeSet([2, 3])
        assert exceptional_primes(ShiftSet([0, 1])) == PrimeSet()
        assert exceptional_primes(ShiftSet([0, 6, 10, 15])) == PrimeSet([2, 3, 5])

    def test_empty_for_small_sets(self):
        assert exceptional_primes(ShiftSet()) == PrimeSet()
        assert exceptional_primes(ShiftSet([9])) == PrimeSet()

    def test_matches_factorization_of_random_differences(self):
        rng = random.Random(7)
        for _ in range(300):
            d = rng.randrange(1, 10**6)
            assert exceptional_primes(ShiftSet([0, d])) == PrimeSet(factorize(d))

    def test_semiprime_with_factors_near_two_to_the_thirty(self):
        rng = random.Random(11)
        for _ in range(3):
            p, q = (next(primes_from(rng.randrange(2**30 - 2**20, 2**30))) for _ in range(2))
            assert exceptional_primes(ShiftSet([0, p * q])) == PrimeSet({p, q})
            assert exceptional_primes(ShiftSet([5, 5 + 12 * p * q])) == PrimeSet({2, 3, p, q})

    def test_semiprimes_near_two_to_the_sixty_four_factor_within_the_step_cap(self):
        # The largest primes below 2**32 make the hardest differences below
        # 2**64: their smallest prime factor is as large as it can be.
        rng = random.Random(13)
        pairs = [(4294967291, 4294967279)]
        for _ in range(4):
            starts = (rng.randrange(2**32 - 2**24, 2**32 - 50) for _ in range(2))
            pairs.append(tuple(next(primes_from(start)) for start in starts))
        for p, q in pairs:
            assert p * q < 2**64
            assert exceptional_primes(ShiftSet([0, p * q])) == PrimeSet({p, q})

    def test_products_of_two_primes_past_trial_division(self):
        ps = [p for p in primes_upto(1300) if p > core._TRIAL_PRIMES[-1]]
        for i, p in enumerate(ps):
            for q in ps[i:]:
                assert core._prime_factors(p * q) == set(factorize(p * q))

    def test_pollard_brent_retraces_an_overshot_batch(self):
        # the batched gcd for 1031 * 1039 overshoots to n, so the walk is
        # retraced one step at a time
        lines, first = inspect.getsourcelines(core._pollard_brent)
        retrace = first + next(i for i, line in enumerate(lines) if "retrace" in line) + 1
        hit = set()

        def local(frame, event, arg):
            hit.add(frame.f_lineno)
            return local

        def calls(frame, event, arg):
            return local if frame.f_code is core._pollard_brent.__code__ else None

        old = sys.gettrace()
        sys.settrace(calls)
        try:
            assert core._prime_factors(1031 * 1039) == {1031, 1039}
        finally:
            sys.settrace(old)
        assert retrace in hit

    def test_prime_cofactor_past_psi_12_meets_the_step_cap(self, monkeypatch):
        # 2**89 - 1 is prime and past psi_12, where is_prime refuses to answer
        monkeypatch.setattr(core, "POLLARD_STEPS", 1 << 10)
        with pytest.raises(BudgetError, match="89-bit cofactor"):
            exceptional_primes(ShiftSet([0, 3 * (2**89 - 1)]))

    def test_cofactors_past_four_times_the_cap_bits_are_refused_before_the_walk(self, monkeypatch):
        # with a cap of 2**10 steps the widest cofactor walked has 40 bits;
        # 1031 is the least prime past trial division, found in a few steps
        monkeypatch.setattr(core, "POLLARD_STEPS", 1 << 10)
        q, r = (next(primes_from(2**bits // 1031 - 1000)) for bits in (40, 41))
        assert (1031 * q).bit_length() == 40 and (1031 * r).bit_length() == 41
        assert exceptional_primes(ShiftSet([0, 1031 * q])) == PrimeSet([1031, q])
        with pytest.raises(BudgetError, match="41-bit cofactor.*POLLARD_STEPS"):
            exceptional_primes(ShiftSet([0, 1031 * r]))
        # a 40-bit cofactor is still walked: this one's two 20-bit factors
        # take the walk past the cap
        with pytest.raises(BudgetError, match="40-bit cofactor.*took the cap"):
            exceptional_primes(ShiftSet([0, 1048387 * 1048391]))

    def test_cofactors_past_sixty_four_bits_are_refused_before_the_walk(self):
        # an 86-bit prime is within 4 log2(POLLARD_STEPS) = 88 bits, but any
        # cofactor of 2**64 or more makes a span wider than MAX_INPUT, so it
        # meets the width message, not the in-walk "took the cap" one
        with pytest.raises(BudgetError, match="86-bit cofactor.*could take.*past 64 bits"):
            exceptional_primes(ShiftSet([0, 38685626227668133590597803]))

    def test_sixty_one_bit_difference_is_fast(self):
        t0 = time.perf_counter()
        assert exceptional_primes(ShiftSet([0, 2**61 - 1])) == PrimeSet([2**61 - 1])
        assert exceptional_primes(ShiftSet([0, 2**62])) == PrimeSet([2])
        assert time.perf_counter() - t0 < 1.0

    @given(shift_sets)
    def test_members_divide_some_difference(self, shifts):
        hs = shifts.shifts
        diffs = [b - a for i, a in enumerate(hs) for b in hs[i + 1 :]]
        for p in exceptional_primes(shifts):
            assert any(d % p == 0 for d in diffs)
