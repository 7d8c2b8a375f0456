import os
import random
import subprocess
import sys
import tracemalloc
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multcorr import (
    BudgetError,
    F2Poly,
    ShiftSet,
    closure_membership,
    family_from_generators,
    two_element_member,
)
from multcorr import gf2
from multcorr.gf2 import ClosureFamily, encode, factor_degrees, poly_gcd, pow_t_mod

from oracles import poly_divides_oracle, poly_mul_oracle

shift_sets = st.sets(st.integers(0, 40), max_size=6).map(ShiftSet)
polys = st.integers(0, 2**48 - 1).map(F2Poly)
nonzero_polys = st.integers(1, 2**48 - 1).map(F2Poly)


def _irreducibles(max_degree: int) -> list[int]:
    """Irreducibles up to max_degree, by trial division with the list oracle."""
    found: list[int] = []
    for f in range(2, 1 << (max_degree + 1)):
        small = (g for g in found if 2 * g.bit_length() <= f.bit_length() + 1)
        if not any(poly_divides_oracle(g, f) for g in small):
            found.append(f)
    return found


IRREDUCIBLES = _irreducibles(9)
# products of distinct irreducibles g_i raised to multiplicities b_i
factorisations = st.lists(
    st.tuples(st.sampled_from(IRREDUCIBLES), st.integers(1, 9)),
    min_size=1,
    max_size=3,
    unique_by=lambda gb: gb[0],
)


def _expand(factors) -> int:
    f = 1
    for g, b in factors:
        for _ in range(b):
            f = poly_mul_oracle(f, g)
    return f


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


class TestSquarefree:
    """The distinct irreducible factors of a polynomial, whatever their
    multiplicities."""

    @given(nonzero_polys)
    @settings(max_examples=30)
    def test_factor_degrees_sum_within_degree(self, f):
        degs = factor_degrees(f)
        if f.degree < 1:
            assert degs == set()
        else:
            assert degs and all(d >= 1 for d in degs)
            assert sum(degs) <= f.degree

    def test_brute_force_irreducible_counts(self):
        # Gauss's count of irreducibles of each degree up to 9
        counts = [sum(g.bit_length() - 1 == d for g in IRREDUCIBLES) for d in range(1, 10)]
        assert counts == [2, 1, 2, 3, 6, 9, 18, 30, 56]

    @given(factorisations)
    @settings(max_examples=60, deadline=None)
    def test_factor_degrees_match_brute_force(self, factors):
        f = F2Poly(_expand(factors))
        assert factor_degrees(f) == {g.bit_length() - 1 for g, _ in factors}


class TestEncode:
    def test_examples(self):
        assert encode(ShiftSet([0, 1])) == F2Poly(0b11)
        assert encode(ShiftSet()) == F2Poly(0)
        assert encode(ShiftSet([0, 1, 2])) == F2Poly(0b111)

    def test_cap_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="degree 100000000 exceeds the cap 1048576"):
                encode(ShiftSet([0, 10**8]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_degree_within_cap(self):
        assert encode(ShiftSet([0, 1 << 20])).degree == 1 << 20

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
        with pytest.raises(ValueError):
            two_element_member(ClosureFamily(F2Poly(0), ()))

    def test_degenerate_constant_generator(self):
        member = two_element_member(ClosureFamily(F2Poly(1), (0,)))
        assert member == ShiftSet([0, 1])

    # a generator has constant term 1, so t is never its factor; (1+t)^3 and
    # (1+t)^9 reach the loop's bound n = deg(f).bit_length()
    @given(factorisations.filter(lambda fs: all(g != 0b10 for g, _ in fs)))
    @example([(0b11, 3)])
    @example([(0b11, 9)])
    @settings(max_examples=40, deadline=None)
    def test_member_matches_brute_force_factorisation(self, factors):
        # D = (2^r - 1) * 2^n, r the lcm of the degrees, 2^n >= every b_i
        r = lcm(*(g.bit_length() - 1 for g, _ in factors))
        n = (max(b for _, b in factors) - 1).bit_length()
        fam = ClosureFamily(F2Poly(_expand(factors)), (0,))
        assert two_element_member(fam) == ShiftSet([0, ((1 << r) - 1) << n])

    @pytest.mark.parametrize("degrees", [{1}, {20001}])
    def test_wrong_factor_degrees_fail_the_certificate(self, monkeypatch, degrees):
        # 1+t+t^2 is irreducible of degree 2, so t has order 3 modulo it; for
        # odd r no power 2^n makes (2^r - 1) * 2^n a multiple of 3.  At r =
        # 20001 the message must not format D's 6000-odd digits.
        (r,) = degrees
        monkeypatch.setattr(gf2, "_factor_degrees", lambda f: degrees)
        fam = family_from_generators([ShiftSet([0, 1, 2])])
        with pytest.raises(AssertionError, match=rf"certificate failed: t\^\(\(2\^{r}-1\)"):
            two_element_member(fam)

    def test_certificate_survives_optimize_flag(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from multcorr import gf2\n"
            "from multcorr.core import ShiftSet\n"
            "gf2._factor_degrees = lambda f: {1}\n"
            "fam = gf2.family_from_generators([ShiftSet([0, 1, 2])])\n"
            "try:\n"
            "    gf2.two_element_member(fam)\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("certificate failed"), proc.stdout

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
