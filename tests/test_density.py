from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multcorr import (
    PrimeSet,
    ShiftSet,
    empirical_density,
    local_density,
    local_density_trace,
    set_density,
)
from multcorr.density import _eta
from multcorr.spectrum import _factor

from oracles import primes_upto

primes_to_30 = st.sampled_from(primes_upto(30))
shift_sets = st.sets(st.integers(0, 24), max_size=5).map(ShiftSet)


def test_known_exact_values():
    assert local_density(2, ShiftSet([0, 4, 6])) == Fraction(1, 6)
    assert local_density(3, ShiftSet([0, 4, 6])) == Fraction(5, 12)
    assert local_density(7, ShiftSet([0])) == Fraction(1, 8)
    assert local_density(5, ShiftSet([0, 4, 6])) == Fraction(1, 2)
    assert local_density(3, ShiftSet([1, 2])) == Fraction(1, 2)
    assert local_density(101, ShiftSet([0, 1, 2, 3])) == Fraction(2, 51)


def test_empty_and_singleton_base_cases():
    assert local_density(5, ShiftSet()) == 0
    for p in primes_upto(30):
        for h in (0, 3, 17):
            assert local_density(p, ShiftSet([h])) == Fraction(1, p + 1)


def test_rejects_composite_modulus():
    with pytest.raises(ValueError, match="not prime"):
        local_density(6, ShiftSet([0]))


# 1287836182261 * 2575672364521: a strong pseudoprime to every prime base up
# to 41 (Sorenson & Webster 2015), so Miller-Rabin alone accepts it.
PSEUDOPRIME = 3317044064679887385961981


@pytest.mark.parametrize("compute", [local_density, local_density_trace])
def test_rejects_a_pseudoprime_past_the_input_width(compute):
    with pytest.raises(ValueError, match="exceeds the 64-bit input width"):
        compute(PSEUDOPRIME, ShiftSet([0, 1]))


def test_answers_at_the_largest_prime_below_2_63():
    p = 2**63 - 25
    assert local_density(p, ShiftSet([0, 1])) == Fraction(2, p + 1)
    assert local_density_trace(p, ShiftSet([0, 1])).kind == "split"


def traced_density(p, shifts):
    return replay(local_density_trace(p, shifts))


@pytest.mark.parametrize("compute", [local_density, traced_density])
class TestSpan:
    """The span max(H) - min(H) is checked against the 64-bit width, not max(H)."""

    def test_rejects_a_span_past_the_input_width(self, compute):
        with pytest.raises(ValueError, match="1501 bits exceeds the 64-bit input width"):
            compute(2, ShiftSet([0, 2**1500]))
        with pytest.raises(ValueError, match="64 bits exceeds the 64-bit input width"):
            compute(3, ShiftSet([5, 6, 5 + 2**63]))

    def test_answers_up_to_the_input_width(self, compute):
        assert compute(2, ShiftSet([0, 2**62])) == Fraction(2, 3 * 2**62)
        assert compute(2, ShiftSet([0, 2**63 - 1])) == Fraction(2, 3)

    def test_large_shifts_with_a_small_span(self, compute):
        assert compute(2, ShiftSet([2**1500, 2**1500 + 4])) == Fraction(1, 6)
        assert compute(2, ShiftSet([0, 4])) == Fraction(1, 6)


def test_translated_sets_are_cache_hits():
    _eta.cache_clear()
    # {0,1,3,4} splits mod 3 into {0,3} and {1,4}, which moved to 0 is {0,3}
    # again: misses for {0,1,3,4}, {0,3} and its rescale {0,1}, one hit
    local_density(3, ShiftSet([0, 1, 3, 4]))
    first = _eta.cache_info()
    assert (first.hits, first.misses) == (1, 3)
    local_density(3, ShiftSet([10, 11, 13, 14]))
    second = _eta.cache_info()
    assert second.hits > first.hits and second.misses == first.misses


def test_constant_residue_branch_both_parities():
    # all shifts share the residue class, even count: value/p
    assert local_density(2, ShiftSet([0, 2])) == Fraction(1, 3)
    # odd count: (1 - value)/p
    assert local_density(2, ShiftSet([0, 2, 4])) == Fraction(1, 6)


class TestFactor:
    """`spectrum._factor`, the per-prime factor 1 - 2 * local density."""

    @given(st.sampled_from(primes_upto(97)), shift_sets)
    def test_matches_recursion(self, p, shifts):
        num, den = _factor(p, shifts)
        assert den > 0
        assert Fraction(num, den) == 1 - 2 * local_density(p, shifts)

    def test_exceptional_prime(self):
        # 2 divides 4 and 6: the recursion gives 1 - 2/6
        assert Fraction(*_factor(2, ShiftSet([0, 4, 6]))) == Fraction(2, 3)

    def test_non_exceptional_prime_within_the_span(self):
        # 5 divides no difference of {0,4,6} but is below its span 6
        assert Fraction(*_factor(5, ShiftSet([0, 4, 6]))) == 0

    def test_prime_above_the_span(self):
        assert _factor(101, ShiftSet([0, 1, 2, 3])) == (94, 102)

    def test_empty_and_singleton(self):
        assert Fraction(*_factor(5, ShiftSet())) == 1
        assert _factor(2, ShiftSet([7])) == (1, 3)


@given(st.sampled_from(primes_upto(97)), shift_sets)
def test_value_bounds(p, shifts):
    value = local_density(p, shifts)
    assert 0 <= value <= 1
    bound = Fraction(len(shifts), p + 1)
    if bound <= 1:
        assert value <= bound


@given(st.sampled_from(primes_upto(50)), shift_sets, st.integers(0, 40))
def test_translation_invariance(p, shifts, a):
    assert local_density(p, shifts.translate(a)) == local_density(p, shifts)


class TestSetDensity:
    def test_empty_fold(self):
        assert set_density(PrimeSet(), ShiftSet([0, 3])) == 0

    def test_two_prime_fold(self):
        assert set_density(PrimeSet([2, 3]), ShiftSet([0])) == Fraction(5, 12)

    def test_half_when_factor_vanishes(self):
        assert set_density(PrimeSet([3]), ShiftSet([1, 2])) == Fraction(1, 2)

    def test_order_independent(self):
        shifts = ShiftSet([0, 2, 5])
        values = {
            set_density(PrimeSet(order), shifts) for order in permutations([2, 3, 5, 7])
        }
        assert len(values) == 1

    @given(st.sets(primes_to_30, min_size=1, max_size=4), shift_sets)
    def test_fold_matches_product_form(self, primes, shifts):
        # Oracle that does not go through the correlation product: the level
        # sets at distinct primes are independent, so the product is -1 when
        # exactly one of the accumulated set and the new prime gives -1.
        eta = Fraction(0)
        for p in primes:
            eta_p = local_density(p, shifts)
            eta = eta * (1 - eta_p) + eta_p * (1 - eta)
        assert set_density(PrimeSet(primes), shifts) == eta


def replay(trace) -> Fraction:
    """The density recomputed from a trace's recorded structure alone: an
    oracle for the value recursion in `density._eta`."""
    p = trace.prime
    if trace.kind == "empty":
        return Fraction(0)
    if trace.kind == "singleton":
        return Fraction(1, p + 1)
    if trace.kind == "split":
        return sum((replay(c) for c in trace.children), Fraction(0))
    sub = replay(trace.children[0])
    return (1 - sub) / p if trace.complemented else sub / p


class TestTrace:
    def test_replay_matches_value(self):
        for p, shifts in [(2, (0, 4, 6)), (3, (0, 4, 6)), (5, (1, 2, 3, 9)), (2, (0,))]:
            trace = local_density_trace(p, ShiftSet(shifts))
            assert replay(trace) == local_density(p, ShiftSet(shifts))

    def test_worked_example_steps(self):
        trace = local_density_trace(2, ShiftSet([0, 4, 6]))
        assert trace.kind == "rescale"
        assert trace.complemented  # odd-size shift set
        assert trace.children[0].shifts == (0, 2, 3)
        assert replay(trace) == Fraction(1, 6)
        # structure only: the CLI appends the value line
        lines = trace.lines()
        assert lines[0] == "rescale {0,4,6}: residue 0, inner {0,2,3}, (1 - value)/p"
        assert lines[-1] == "    singleton {3}: density 1/3"

    @given(st.sampled_from(primes_upto(30)), shift_sets)
    @settings(max_examples=30)
    def test_replay_property(self, p, shifts):
        assert replay(local_density_trace(p, shifts)) == local_density(p, shifts)


@pytest.mark.parametrize(
    "primes,shifts,expected",
    [
        ((2,), (0,), Fraction(1, 3)),
        ((2,), (0, 4, 6), Fraction(1, 6)),
        ((3,), (1, 2), Fraction(1, 2)),
        ((2, 3), (0,), Fraction(5, 12)),
        ((2,), (0, 2, 4), Fraction(1, 6)),
    ],
)
def test_sieve_confirms_exact_density(primes, shifts, expected):
    assert set_density(PrimeSet(primes), ShiftSet(shifts)) == expected
    measured = empirical_density(PrimeSet(primes), ShiftSet(shifts), 10**6)
    assert abs(measured - expected) <= Fraction(1, 100)
