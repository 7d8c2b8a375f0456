import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multcorr import (
    BudgetError,
    F2Poly,
    ShiftSet,
    closure_membership,
    family_from_generators,
    two_element_member,
)
from multcorr.gf2 import (
    derivative,
    encode,
    factor_degrees,
    poly_gcd,
    pow_t_mod,
    squarefree_part,
)

from oracles import poly_divides_oracle, poly_mul_oracle

shift_sets = st.sets(st.integers(0, 40), max_size=6).map(ShiftSet)
polys = st.integers(0, 2**48 - 1).map(F2Poly)
nonzero_polys = st.integers(1, 2**48 - 1).map(F2Poly)


class TestPolyArithmetic:
    def test_addition_is_xor(self):
        assert (F2Poly(0b110) + F2Poly(0b011)) == F2Poly(0b101)

    def test_str_rendering(self):
        assert str(F2Poly(0b111)) == "1+t+t^2"
        assert str(F2Poly(0)) == "0"
        assert str(F2Poly(0b10)) == "t"

    def test_degree_cap(self):
        with pytest.raises(BudgetError):
            F2Poly(1 << ((1 << 20) + 2))

    @given(polys, polys)
    def test_multiplication_matches_oracle(self, a, b):
        assert (a * b).bits == poly_mul_oracle(a.bits, b.bits)

    @given(polys, nonzero_polys)
    def test_divmod_reconstructs(self, a, b):
        q, r = divmod(a, b)
        assert (q * b + r) == a
        assert r.degree < b.degree or r.is_zero

    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert poly_divides_oracle(g.bits, a.bits)
        assert poly_divides_oracle(g.bits, b.bits)

    @given(polys)
    def test_derivative_of_square_vanishes(self, a):
        assert derivative(a * a).is_zero


class TestSquarefree:
    @given(nonzero_polys)
    def test_part_properties(self, f):
        s = squarefree_part(f)
        # s divides f, is squarefree, and carries every irreducible factor of f
        assert poly_divides_oracle(s.bits, f.bits)
        assert poly_gcd(s, derivative(s)) == F2Poly(1)
        c = f
        while True:
            g = poly_gcd(c, s)
            if g.degree <= 0:
                break
            c = c // g
        assert c == F2Poly(1)

    def test_square_collapses(self):
        assert squarefree_part(F2Poly(0b101)) == F2Poly(0b11)  # (1+t)^2

    @given(nonzero_polys)
    @settings(max_examples=30)
    def test_factor_degrees_sum_within_degree(self, f):
        degs = factor_degrees(f)
        if f.degree < 1:
            assert degs == set()
        else:
            assert degs and all(d >= 1 for d in degs)
            assert sum(degs) <= f.degree


class TestEncode:
    def test_examples(self):
        assert encode(ShiftSet([0, 1])) == F2Poly(0b11)
        assert encode(ShiftSet()) == F2Poly(0)
        assert encode(ShiftSet([0, 1, 2])) == F2Poly(0b111)

    @given(shift_sets, shift_sets)
    def test_symmetric_difference_homomorphism(self, h1, h2):
        assert encode(h1.symmetric_difference(h2)) == encode(h1) + encode(h2)

    @given(shift_sets, st.integers(0, 10))
    def test_translation_is_shift(self, shifts, a):
        assert encode(shifts.translate(a)).bits == encode(shifts).bits << a


class TestFamily:
    def test_single_generator(self):
        fam = family_from_generators([ShiftSet([0, 1, 2])])
        assert fam.generator == F2Poly(0b111)
        assert fam.t_valuations == (0,)

    def test_square_generator(self):
        fam = family_from_generators([ShiftSet([0, 2])])
        assert fam.generator == F2Poly(0b101)

    def test_gcd_of_two(self):
        fam = family_from_generators([ShiftSet([0, 1, 2]), ShiftSet([0, 3])])
        assert fam.generator == F2Poly(0b111)

    def test_strips_translation(self):
        fam = family_from_generators([ShiftSet([3, 4, 5])])
        assert fam.generator == F2Poly(0b111)
        assert fam.t_valuations == (3,)

    def test_rejects_all_empty(self):
        with pytest.raises(ValueError):
            family_from_generators([ShiftSet()])

    def test_constant_term_always_one(self):
        fam = family_from_generators([ShiftSet([2, 5]), ShiftSet([1, 7])])
        assert fam.generator.constant_term == 1

    @given(st.lists(shift_sets.filter(len), min_size=1, max_size=4))
    @settings(max_examples=30)
    def test_order_independent(self, sets):
        rng = random.Random(11)
        shuffled = sets[:]
        rng.shuffle(shuffled)
        assert (
            family_from_generators(sets).generator
            == family_from_generators(shuffled).generator
        )


class TestTwoElementMember:
    def test_irreducible_quadratic(self):
        fam = family_from_generators([ShiftSet([0, 1, 2])])
        member = two_element_member(fam)
        assert member == ShiftSet([0, 3])
        # literal certificate: 1 + t^3 = (1+t)(1+t+t^2)
        assert poly_divides_oracle(fam.generator.bits, 0b1001)

    def test_square_of_linear(self):
        fam = family_from_generators([ShiftSet([0, 2])])
        assert two_element_member(fam) == ShiftSet([0, 2])

    def test_linear(self):
        fam = family_from_generators([ShiftSet([0, 1])])
        assert two_element_member(fam) == ShiftSet([0, 1])

    def test_zero_generator_rejected(self):
        from multcorr.gf2 import ClosureFamily

        with pytest.raises(ValueError):
            two_element_member(ClosureFamily(F2Poly(0), ()))

    def test_degenerate_constant_generator(self):
        from multcorr.gf2 import ClosureFamily

        member = two_element_member(ClosureFamily(F2Poly(1), (0,)))
        assert member == ShiftSet([0, 1])

    def test_random_families_certified(self):
        rng = random.Random(13)
        for _ in range(25):
            sets = [
                ShiftSet(rng.sample(range(0, 65), rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))
            ]
            fam = family_from_generators(sets)
            member = two_element_member(fam)
            zero, big_d = member.shifts
            assert zero == 0 and big_d >= 1
            # recompute the divisibility certificate from scratch
            remainder = (pow_t_mod(big_d, fam.generator) + F2Poly(1)) % fam.generator
            assert remainder.is_zero
            if big_d <= 4096:
                assert poly_divides_oracle(fam.generator.bits, (1 << big_d) | 1)
            assert closure_membership(fam, member)


class TestMembership:
    def test_examples(self):
        fam = family_from_generators([ShiftSet([0, 1, 2])])
        assert closure_membership(fam, ShiftSet([0, 3]))
        assert not closure_membership(fam, ShiftSet([0, 1]))
        assert closure_membership(fam, ShiftSet())

    def test_translates_of_generators_are_members(self):
        fam = family_from_generators([ShiftSet([0, 1, 2]), ShiftSet([2, 4])])
        assert closure_membership(fam, ShiftSet([5, 6, 7]))
        assert closure_membership(fam, ShiftSet([3, 5]))

    @given(shift_sets.filter(len), st.integers(0, 30))
    @settings(max_examples=30)
    def test_generator_translates_and_sums(self, shifts, a):
        fam = family_from_generators([shifts])
        assert closure_membership(fam, shifts.translate(a))
        other = shifts.translate(a).symmetric_difference(shifts)
        assert closure_membership(fam, other)
