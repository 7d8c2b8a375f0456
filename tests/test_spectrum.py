import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multcorr import (
    BudgetError,
    PrimeSet,
    ShiftSet,
    SieveConfig,
    construct_prime_set,
    correlation,
    describe_spectrum,
    is_prime,
    local_density,
    running_average,
    set_density,
    truncated_correlation,
)

from multcorr.spectrum import _greedy
from oracles import primes_upto

ORACLE_PRIMES = primes_upto(10**6)


def fraction_greedy(target, eps, floor, avoid, budget, shifts):
    """The greedy scan on Fraction arithmetic over an independent prime table,
    with the closed-form factor of a prime dividing no difference: the
    reference the integer greedy must reproduce prime for prime."""
    d = len(shifts)
    diffs = list(shifts.differences())
    current = Fraction(1)
    chosen = []
    scanned = 0
    gen = iter(p for p in ORACLE_PRIMES if p > floor)
    while current - target > eps:
        scanned += 1
        if scanned > budget:
            raise BudgetError(
                f"target {target} not reached within a budget of {budget} primes "
                f"(current product {current})"
            )
        p = next(gen)
        if p in avoid or any(x % p == 0 for x in diffs):
            continue
        factor = 1 - Fraction(2 * d, p + 1)
        if factor <= 0:
            continue
        if current * factor >= target:
            current *= factor
            chosen.append(p)
    return chosen, current

prime_sets = st.sets(st.sampled_from(primes_upto(30)), max_size=4).map(PrimeSet)
shift_sets = st.sets(st.integers(0, 20), max_size=4).map(ShiftSet)


class TestCorrelation:
    def test_empty_prime_set(self):
        assert correlation(PrimeSet(), ShiftSet([0, 7])).value == 1

    def test_vanishing_factor(self):
        assert correlation(PrimeSet([3]), ShiftSet([1, 2])).value == 0

    def test_single_prime(self):
        assert correlation(PrimeSet([2]), ShiftSet([0])).value == Fraction(1, 3)

    def test_two_primes(self):
        corr = correlation(PrimeSet([2, 3]), ShiftSet([0, 4, 6]))
        assert corr.value == Fraction(1, 9)
        assert corr.factors == ((2, Fraction(2, 3)), (3, Fraction(1, 6)))

    def test_empty_shift_set_gives_one(self):
        assert correlation(PrimeSet([2, 5]), ShiftSet()).value == 1

    @given(prime_sets, shift_sets)
    def test_consistency_with_set_density(self, pset, shifts):
        assert correlation(pset, shifts).value == 1 - 2 * set_density(pset, shifts)

    @given(prime_sets, st.integers(0, 30))
    def test_single_shift_euler_product(self, pset, h):
        expected = Fraction(1)
        for p in pset:
            expected *= 1 - Fraction(2, p + 1)
        assert correlation(pset, ShiftSet([h])).value == expected

    @given(prime_sets, shift_sets)
    def test_bounded_and_factor_product(self, pset, shifts):
        corr = correlation(pset, shifts)
        assert abs(corr.value) <= 1
        product = Fraction(1)
        for _, f in corr.factors:
            product *= f
        assert corr.value == product

    def test_adjoining_a_prime_multiplies_its_factor(self):
        shifts = ShiftSet([0, 2])
        base = correlation(PrimeSet([3, 7]), shifts).value
        extended = correlation(PrimeSet([3, 5, 7]), shifts).value
        assert extended == base * (1 - 2 * local_density(5, shifts))


class TestTruncatedCorrelation:
    def test_zero_tail_is_degenerate(self):
        box = truncated_correlation(PrimeSet([2, 3]), Fraction(0), ShiftSet([0]))
        assert box.radius == 0
        assert box.center == correlation(PrimeSet([2, 3]), ShiftSet([0])).value

    def test_radius_formula(self):
        box = truncated_correlation(PrimeSet([2, 3]), Fraction(1, 100), ShiftSet([0, 1]))
        assert box.radius == Fraction(1, 25)

    def test_rejects_negative_tail(self):
        with pytest.raises(ValueError):
            truncated_correlation(PrimeSet([2]), Fraction(-1, 10), ShiftSet([0]))

    def test_brackets_the_full_set_average(self):
        full = [p for p in range(2, 10**4) if is_prime(p) and p % 4 == 3]
        finite = PrimeSet([p for p in full if p <= 100])
        tail = sum((Fraction(1, p + 1) for p in full if p > 100), Fraction(0))
        box = truncated_correlation(finite, tail, ShiftSet([0]))
        sieved = running_average(
            PrimeSet(full), ShiftSet([0]), SieveConfig(x_max=10**7)
        ).final.average
        assert sieved in box


class TestSpectrum:
    def test_single_shift(self):
        desc = describe_spectrum(ShiftSet([0]))
        assert (desc.floor, desc.witness) == (Fraction(1, 3), 2)
        assert (desc.lo, desc.hi) == (0, 1)

    def test_pair_of_shifts(self):
        desc = describe_spectrum(ShiftSet([0, 1]))
        assert (desc.floor, desc.witness) == (Fraction(-1, 3), 2)
        assert (desc.lo, desc.hi) == (Fraction(-1, 3), 1)

    def test_zero_floor(self):
        desc = describe_spectrum(ShiftSet([0, 4, 6]))
        assert (desc.floor, desc.witness) == (0, 5)
        assert (desc.lo, desc.hi) == (0, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            describe_spectrum(ShiftSet())

    @given(shift_sets.filter(lambda s: len(s) > 0))
    @settings(max_examples=25)
    def test_floor_below_every_scanned_factor(self, shifts):
        desc = describe_spectrum(shifts)
        for p in primes_upto(200):
            assert desc.floor <= 1 - 2 * local_density(p, shifts)
        assert desc.floor == 1 - 2 * local_density(desc.witness, shifts)


class TestConstruct:
    def test_target_one_is_empty_set(self):
        assert construct_prime_set(ShiftSet([0]), Fraction(1), Fraction(1, 10)) == PrimeSet()

    def test_positive_target(self):
        built = construct_prime_set(ShiftSet([0]), Fraction(1, 2), Fraction(1, 1000))
        achieved = correlation(built, ShiftSet([0])).value
        assert abs(achieved - Fraction(1, 2)) <= Fraction(1, 1000)

    def test_negative_target_includes_witness(self):
        built = construct_prime_set(ShiftSet([0, 1]), Fraction(-1, 4), Fraction(1, 1000))
        assert 2 in built
        achieved = correlation(built, ShiftSet([0, 1])).value
        assert abs(achieved - Fraction(-1, 4)) <= Fraction(1, 1000)

    def test_floor_keeps_primes_above(self):
        built = construct_prime_set(
            ShiftSet([0]), Fraction(3, 4), Fraction(1, 100), floor=50
        )
        assert all(p > 50 for p in built)

    def test_rejects_unattainable_targets(self):
        with pytest.raises(ValueError):
            construct_prime_set(ShiftSet([0]), Fraction(3, 2), Fraction(1, 10))
        with pytest.raises(ValueError):
            construct_prime_set(ShiftSet([0]), Fraction(-1, 10), Fraction(1, 10))
        with pytest.raises(ValueError):
            construct_prime_set(ShiftSet([0, 1]), Fraction(-1, 2), Fraction(1, 10))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            construct_prime_set(ShiftSet([0]), Fraction(1, 2), Fraction(0))

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetError):
            construct_prime_set(
                ShiftSet([0]), Fraction(577, 1000), Fraction(1, 10**9), budget=5
            )

    @pytest.mark.parametrize(
        "target, budget, message",
        [
            ("577/1000", 3, "target 577/1000 not reached within a budget of 3 primes (current product 0.666666666667)"),
            ("17/100", 30, "target 17/100 not reached within a budget of 30 primes (current product 0.172839506173)"),
        ],
    )
    def test_budget_message_text(self, target, budget, message):
        with pytest.raises(BudgetError) as info:
            construct_prime_set(ShiftSet([0]), Fraction(target), Fraction(1, 10**15), budget=budget)
        assert str(info.value) == message

    def test_integer_greedy_matches_fraction_greedy(self):
        # Every other case scans from floor 0, so the greedy meets exceptional
        # primes, which it must skip, and non-exceptional primes below the
        # span, whose factor comes from the density recursion.
        rng = random.Random(12)
        negatives = below_span = 0
        for i in range(24):
            shifts = ShiftSet([0] + rng.sample(range(1, 50), rng.randint(0, 2)))
            desc = describe_spectrum(shifts)
            eps = Fraction(1, 10 ** rng.randint(3, 5))
            span = max(shifts.differences().diffs, default=0)
            floor = 0 if i % 2 else span
            if desc.floor < 0:
                negatives += 1
                target = desc.floor * Fraction(rng.randint(100, 900), 1000)
                args = (target / desc.floor, eps, floor, frozenset({desc.witness}), 10**5, shifts)
            else:
                target = Fraction(rng.randint(150, 950), 1000)
                args = (target, eps, floor, frozenset(), 10**5, shifts)
            chosen, product = _greedy(*args)
            assert (chosen, product) == fraction_greedy(*args)
            below_span += any(p <= span for p in chosen)
        assert 6 <= negatives <= 18
        assert below_span >= 6

    def test_round_trip_random_targets(self):
        rng = random.Random(4)
        eps = Fraction(1, 1000)
        for shifts in (ShiftSet([0]), ShiftSet([0, 1]), ShiftSet([0, 4, 6])):
            lo = describe_spectrum(shifts).lo
            for _ in range(5):
                target = lo + eps + (1 - lo - eps) * Fraction(rng.randint(1, 1000), 1001)
                built = construct_prime_set(shifts, target, eps)
                achieved = correlation(built, shifts).value
                assert abs(achieved - target) <= eps
