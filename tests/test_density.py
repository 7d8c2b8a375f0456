from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multcorr import (
    PrimeSet,
    ShiftSet,
    closed_form_density,
    empirical_density,
    local_density,
    local_density_trace,
    set_density,
)

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


def test_constant_residue_branch_both_parities():
    # all shifts share the residue class, even count: value/p
    assert local_density(2, ShiftSet([0, 2])) == Fraction(1, 3)
    # odd count: (1 - value)/p
    assert local_density(2, ShiftSet([0, 2, 4])) == Fraction(1, 6)


class TestClosedForm:
    def test_non_exceptional_gives_ratio(self):
        assert closed_form_density(5, ShiftSet([0, 4, 6])) == Fraction(3, 6)
        assert closed_form_density(101, ShiftSet([0, 1, 2, 3])) == Fraction(4, 102)

    def test_exceptional_gives_none(self):
        assert closed_form_density(2, ShiftSet([0, 4, 6])) is None
        assert closed_form_density(3, ShiftSet([0, 4, 6])) is None

    @given(st.sampled_from(primes_upto(97)), shift_sets)
    def test_agrees_with_recursion(self, p, shifts):
        fast = closed_form_density(p, shifts)
        if fast is not None:
            assert fast == local_density(p, shifts)


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


class TestTrace:
    def test_replay_matches_value(self):
        for p, shifts in [(2, (0, 4, 6)), (3, (0, 4, 6)), (5, (1, 2, 3, 9)), (2, (0,))]:
            trace = local_density_trace(p, ShiftSet(shifts))
            assert trace.replay() == local_density(p, ShiftSet(shifts))

    def test_worked_example_steps(self):
        trace = local_density_trace(2, ShiftSet([0, 4, 6]))
        assert trace.kind == "rescale"
        assert trace.complemented  # odd-size shift set
        assert trace.children[0].shifts == (0, 2, 3)
        assert trace.replay() == Fraction(1, 6)
        text = "\n".join(trace.lines())
        assert "value = 1/6" in text

    @given(st.sampled_from(primes_upto(30)), shift_sets)
    @settings(max_examples=30)
    def test_replay_property(self, p, shifts):
        assert local_density_trace(p, shifts).replay() == local_density(p, shifts)


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
