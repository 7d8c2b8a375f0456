"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Empirical tolerances on sieve averages are heuristic (no convergence rate is
guaranteed); the single-shift checks therefore also report the drift between
the half-range and full-range averages as a sanity signal.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from multcorr import (
    PrimeSet,
    ShiftSet,
    SieveConfig,
    construct_prime_set,
    correlation,
    describe_spectrum,
    empirical_density,
    family_from_generators,
    liouville,
    local_density,
    omega,
    running_average,
    set_density,
    shifted_parities,
    shifted_sign,
    sieve_parities,
    two_element_member,
    closure_membership,
)
from multcorr.gf2 import F2Poly, pow_t_mod

from oracles import poly_divides_oracle, primes_upto


@pytest.fixture
def report(capsys):
    def _report(number: int, ok: bool, detail: str = ""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[acceptance] criterion {number:2d}: {status}  {detail}", flush=True)
        assert ok, f"criterion {number}: {detail}"

    return _report


def test_criterion_01_worked_density_values(report):
    a = local_density(2, ShiftSet([0, 4, 6]))
    b = local_density(3, ShiftSet([0, 4, 6]))
    report(
        1,
        a == Fraction(1, 6) and b == Fraction(5, 12),
        f"eta(2,{{0,4,6}})={a} eta(3,{{0,4,6}})={b}",
    )


def test_criterion_02_singleton_law(report):
    bad = [
        (p, h)
        for p in primes_upto(100)
        for h in range(51)
        if local_density(p, ShiftSet([h])) != Fraction(1, p + 1)
    ]
    report(2, not bad, f"eta(p,{{h}})=1/(p+1) over p<=100, h<=50; failures={bad[:3]}")


def test_criterion_03_non_exceptional_closed_form(report):
    primes = primes_upto(97)
    expected = {(d, p): Fraction(d, p + 1) for d in range(1, 6) for p in primes}
    checked = 0
    bad = []
    for d in range(1, 6):
        for combo in combinations(range(31), d):
            diff_product = 1
            for i in range(d):
                for j in range(i + 1, d):
                    diff_product *= combo[j] - combo[i]
            shifts = ShiftSet(combo)
            for p in primes:
                if diff_product % p == 0:
                    continue
                checked += 1
                if local_density(p, shifts) != expected[d, p]:
                    bad.append((p, combo))
    report(3, checked > 10**6 and not bad, f"{checked} non-exceptional pairs; failures={bad[:3]}")


def test_criterion_04_vanishing_correlation(report):
    exact = correlation(PrimeSet([3]), ShiftSet([1, 2])).value
    t0 = time.perf_counter()
    series = running_average(PrimeSet([3]), ShiftSet([1, 2]), SieveConfig(x_max=10**7))
    elapsed = time.perf_counter() - t0
    average = series.final.average
    ok = exact == 0 and abs(average) <= Fraction(1, 100) and elapsed < 60
    report(4, ok, f"kappa={exact} |S(1e7)|={float(abs(average)):.2e} in {elapsed:.2f}s")


def test_criterion_05_single_shift_products(report):
    shifts = ShiftSet([0])
    details = []
    ok = True
    for primes in [(2,), (2, 3), (3, 5, 7)]:
        pset = PrimeSet(primes)
        exact = correlation(pset, shifts).value
        expected = Fraction(1)
        for p in primes:
            expected *= 1 - Fraction(2, p + 1)
        series = running_average(
            pset, shifts, SieveConfig(x_max=10**7, sample_stride=5 * 10**6)
        )
        by_x = {s.x: s.average for s in series}
        gap = abs(by_x[10**7] - exact)
        drift = abs(by_x[10**7] - by_x[5 * 10**6])
        ok = ok and exact == expected and gap <= Fraction(1, 100)
        details.append(f"P={set(primes)} gap={float(gap):.2e} drift={float(drift):.2e}")
    report(5, ok, "; ".join(details) + " (tolerance 0.01 is heuristic)")


def test_criterion_06_consistency_identity(report):
    rng = random.Random(20)
    pool = primes_upto(30)
    ok = True
    for _ in range(50):
        pset = PrimeSet(rng.sample(pool, rng.randint(0, 4)))
        shifts = ShiftSet(rng.sample(range(13), rng.randint(0, 4)))
        eta = set_density(pset, shifts)
        ok = ok and correlation(pset, shifts).value == 1 - 2 * eta
        shuffled = list(pset)
        rng.shuffle(shuffled)
        manual = Fraction(0)
        for p in shuffled:
            eta_p = local_density(p, shifts)
            manual = manual * (1 - eta_p) + eta_p * (1 - manual)
        ok = ok and manual == eta
    report(6, ok, "kappa = 1 - 2*eta and permutation-invariant fold on 50 random pairs")


def test_criterion_07_group_laws_pointwise(report):
    rng = random.Random(21)
    pool = primes_upto(50)
    top = 10**4
    ok = True
    for _ in range(100):
        p1 = PrimeSet(rng.sample(pool, rng.randint(0, 5)))
        p2 = PrimeSet(rng.sample(pool, rng.randint(0, 5)))
        h1 = ShiftSet(rng.sample(range(9), rng.randint(0, 3)))
        h2 = ShiftSet(rng.sample(range(9), rng.randint(0, 3)))
        psym = p1.symmetric_difference(p2)
        hsym = h1.symmetric_difference(h2)
        span = top + max(h1.max_shift, h2.max_shift, hsym.max_shift)
        sign1 = np.array([liouville(p1, n) for n in range(1, span + 1)], dtype=np.int8)
        sign2 = np.array([liouville(p2, n) for n in range(1, span + 1)], dtype=np.int8)
        signx = np.array([liouville(psym, n) for n in range(1, span + 1)], dtype=np.int8)
        ok = ok and bool(np.array_equal(signx[:top], (sign1 * sign2)[:top]))

        def product(arr, shifts):
            out = np.ones(top, dtype=np.int8)
            for h in shifts:
                out *= arr[h : h + top]
            return out

        lhs = product(signx, hsym)
        rhs = (
            product(sign1, h1) * product(sign1, h2) * product(sign2, h1) * product(sign2, h2)
        )
        ok = ok and bool(np.array_equal(lhs, rhs))
        if not ok:
            break
    report(7, ok, "sign and shifted-product group laws on 100 draws, all n <= 1e4")


def test_criterion_08_sieve_matches_pointwise(report):
    rng = random.Random(22)
    ok = True
    pset = PrimeSet([2, 3, 5, 7])
    lo, hi = 10**6, 10**6 + 2**20
    bits = sieve_parities(pset, lo, hi)
    for _ in range(1000):
        n = rng.randrange(lo, hi)
        ok = ok and int(bits[n - lo]) == omega(pset, n) % 2
    for primes, shifts, base in [
        ((2, 3), (0, 4, 6), 10**5),
        ((3,), (1, 2), 1),
        ((2, 3, 5, 7), (0, 1, 2), 5 * 10**4),
    ]:
        pset = PrimeSet(primes)
        hset = ShiftSet(shifts)
        lam = shifted_parities(pset, hset, base, base + 4096)
        for _ in range(1000):
            n = rng.randrange(base, base + 4096)
            expected = 1 if shifted_sign(pset, hset, n) == -1 else 0
            ok = ok and int(lam[n - base]) == expected
    report(8, ok, "sieved parities bit-exact vs pointwise at 1000 random points per config")


def test_criterion_09_spectrum_values(report):
    desc_a = describe_spectrum(ShiftSet([0, 4, 6]))
    desc_b = describe_spectrum(ShiftSet([0, 1]))
    ok = (desc_a.floor, desc_a.witness) == (0, 5)
    ok = ok and (desc_b.floor, desc_b.witness) == (Fraction(-1, 3), 2)
    for shifts, desc in [(ShiftSet([0, 4, 6]), desc_a), (ShiftSet([0, 1]), desc_b)]:
        scanned = {p: 1 - 2 * local_density(p, shifts) for p in primes_upto(1000)}
        ok = ok and min(scanned.values()) == desc.floor
        ok = ok and min(p for p, f in scanned.items() if f == desc.floor) == desc.witness
    report(9, ok, f"alpha({{0,4,6}})={desc_a.floor}@{desc_a.witness} "
                  f"alpha({{0,1}})={desc_b.floor}@{desc_b.witness}, scan to 1000 agrees")


def test_criterion_10_target_round_trip(report):
    rng = random.Random(23)
    eps = Fraction(1, 1000)
    worst = Fraction(0)
    ok = True
    for shifts in (ShiftSet([0]), ShiftSet([0, 1]), ShiftSet([0, 4, 6])):
        lo = describe_spectrum(shifts).lo
        for _ in range(20):
            target = lo + eps + (1 - lo - eps) * Fraction(rng.randint(1, 2000), 2001)
            built = construct_prime_set(shifts, target, eps)
            gap = abs(correlation(built, shifts).value - target)
            worst = max(worst, gap)
            ok = ok and gap <= eps
    report(10, ok, f"60 random targets re-evaluated within 1e-3; worst gap {float(worst):.2e}")


def test_criterion_11_closure_certificates(report):
    rng = random.Random(24)
    ok = True
    for _ in range(50):
        sets = [
            ShiftSet(rng.sample(range(65), rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        ]
        fam = family_from_generators(sets)
        member = two_element_member(fam)
        big_d = member.shifts[-1]
        ok = ok and member.shifts[0] == 0 and big_d >= 1
        remainder = (pow_t_mod(big_d, fam.generator) + F2Poly(1)) % fam.generator
        ok = ok and remainder.is_zero
        if big_d <= 1 << 14:
            ok = ok and poly_divides_oracle(fam.generator.bits, (1 << big_d) | 1)
        ok = ok and closure_membership(fam, member)
        if not ok:
            break
    report(11, ok, "50 random families: t^D+1 divisibility certificate and membership hold")


def test_criterion_12_sieve_performance_floor(report):
    pset = PrimeSet([2, 3, 5, 7])
    shifts = ShiftSet([0, 1, 2])
    cfg = SieveConfig(x_max=10**8, sample_stride=25 * 10**6)
    t0 = time.perf_counter()
    single = running_average(pset, shifts, cfg, threads=1)
    elapsed = time.perf_counter() - t0
    threaded = running_average(pset, shifts, cfg, threads=2)
    ok = elapsed < 60 and single == threaded
    report(12, ok, f"1e8 integers in {elapsed:.2f}s single-threaded; threaded sums identical")
