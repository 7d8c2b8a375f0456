"""Seeded inputs for the benchmark's workloads.

A workload is a function ``(rng, seen) -> list[Op]`` that builds one pass: a
fixed list of operation kinds whose concrete inputs are drawn from ``rng``.
The runner seeds ``rng`` from (workload, seed, pass index), so the same seed
gives the same inputs.  ``seen`` holds every input key already used in the
run, and a workload draws again on a collision, so no input repeats within a
run.

Each pass is stratified: one operation per cost stratum, in a fixed order, so
that every pass carries the same mix of work whatever the seed.  Nothing here
imports the package under test: exact factors come from the checks' own
oracle, and construct targets are placed with an independent replay of the
greedy rule over a numpy prime table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from checks import prime_factor


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``known_fault`` names the stderr text of a fault that
    makes this operation fail every time today; such an operation is counted
    as failed and is not checked."""

    argv: tuple[str, ...]
    known_fault: str | None = None


def primes_below(n: int) -> list[int]:
    """Plain sieve of Eratosthenes."""
    flags = np.ones(n, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _draw(rng: random.Random, seen: set, make):
    """Call ``make(rng)`` until it returns a (key, value) whose key is new."""
    while True:
        drawn = make(rng)
        if drawn is not None and drawn[0] not in seen:
            seen.add(drawn[0])
            return drawn[1]


# --------------------------------------------------------------------- verify

PRIMES_10K = primes_below(10**4)
VERIFY_SIZES = (350, 550, 750, 950, None)  # None: every eligible prime
VERIFY_TOL = "1/20"


def verify_pass(rng: random.Random, seen: set) -> list[Op]:
    """x near 1e8, |H| 2-4 with shifts below 64, |P| several hundred to all
    primes below 1e4 (primes whose factor is 0 are left out, so the exact
    product is a non-trivial rational)."""

    def make(r):
        hs = (0, *sorted(r.sample(range(1, 64), r.randint(1, 3))))
        return hs, hs

    ops = []
    for i, size in enumerate(VERIFY_SIZES):
        hs = _draw(rng, seen, make)
        eligible = [p for p in PRIMES_10K if prime_factor(p, hs) != 0]
        primes = eligible if size is None else sorted(rng.sample(eligible, size))
        x = 10**8 - rng.randrange(10**6)
        argv = ["verify", "-P", _csv(primes), "-H", _csv(hs), "-x", str(x), "--tol", VERIFY_TOL, "--threads", "1"]
        if i % 2:
            argv.append("--json")
        ops.append(Op(tuple(argv)))
    return ops


# --------------------------------------------------------------------- series

SERIES_PRIMES = (2, 3, 5, 7, 11, 13)
# Every operation emits 100000 or 100001 samples (x_max itself is the last),
# so the largest output is about the same size in every run.
SERIES_SAMPLES = 100_000
# (shift-set kind, JSON output, stride): two H={0} operations whose every
# sample has a closed form, three with |H| 2-3.
SERIES_KINDS = (
    ("single", False, 100),
    ("multi", True, 250),
    ("single", True, 500),
    ("multi", False, 750),
    ("multi", False, 1000),
)


def series_pass(rng: random.Random, seen: set) -> list[Op]:
    """A few small primes, about 1e5 samples per operation, CSV and JSON."""
    ops = []
    for kind, as_json, stride in SERIES_KINDS:

        def make(r):
            primes = tuple(sorted(r.sample(SERIES_PRIMES, r.randint(1, 3))))
            if kind == "single":
                hs = (0,)
            else:
                hs = (0, *sorted(r.sample(range(1, 32), r.randint(1, 2))))
            x_max = SERIES_SAMPLES * stride + r.randrange(stride)
            key = (primes, hs, x_max)
            return key, key

        primes, hs, x_max = _draw(rng, seen, make)
        argv = ["series", "-P", _csv(primes), "-H", _csv(hs), "--x-max", str(x_max)]
        argv += ["--stride", str(stride), "--threads", "1"]
        if as_json:
            argv.append("--json")
        ops.append(Op(tuple(argv)))
    return ops


# ---------------------------------------------------------------------- exact

SPECTRUM_SIZES = (20, 40, 60, 80, 100)
CONSTRUCT_EPS = (Fraction(1, 10**5), Fraction(1, 10**6))
# The greedy scan of a construct operation ends at the last prime it takes;
# targets are drawn until that prime falls in this window, so each operation
# scans a comparable stretch of integers.
SCAN_END = (150_000, 300_000)
PRIMES_SCAN = np.array(primes_below(SCAN_END[1] + 1), dtype=np.int64)


def spectrum_floor(shifts: tuple[int, ...]) -> tuple[Fraction, int]:
    """Smallest single-prime factor and its smallest witness prime."""
    diffs = [b - a for i, a in enumerate(shifts) for b in shifts[i + 1 :]]
    candidates = {}
    for p in PRIMES_SCAN.tolist():
        if p > max(diffs, default=0):
            candidates[p] = 1 - Fraction(2 * len(shifts), p + 1)
            break
        candidates[p] = prime_factor(p, shifts)
    floor = min(candidates.values())
    return floor, min(p for p, f in candidates.items() if f == floor)


def greedy_scan_end(shifts: tuple[int, ...], target: Fraction, eps: Fraction) -> int | None:
    """Last prime the construct greedy takes, replayed from its rule: scan
    primes above max difference, skip the witness for a negative target and
    take p whenever the product stays at or above the (ratio) target."""
    d = len(shifts)
    floor_prime = shifts[-1] - shifts[0]
    avoid = None
    goal = target
    if target < 0:
        alpha, avoid = spectrum_floor(shifts)
        goal = target / alpha
    current = Fraction(1)
    pos = int(np.searchsorted(PRIMES_SCAN, floor_prime, side="right"))
    last = None
    while current - goal > eps:
        # factor(p) >= goal/current  <=>  p + 1 >= 2d / (1 - goal/current)
        need = math.ceil(2 * d / (1 - goal / current)) - 1
        pos = max(pos, int(np.searchsorted(PRIMES_SCAN, need, side="left")))
        if pos < len(PRIMES_SCAN) and int(PRIMES_SCAN[pos]) == avoid:
            pos += 1
        if pos >= len(PRIMES_SCAN):
            return None
        p = int(PRIMES_SCAN[pos])
        current *= 1 - Fraction(2 * d, p + 1)
        last = p
        pos += 1
    return last


def exact_pass(rng: random.Random, seen: set) -> list[Op]:
    """Spectrum on |H| 20-100 with shifts below 1e4, and construct on small H
    with targets in the attainable interval at eps 1e-5 and 1e-6."""
    ops = []
    for size in SPECTRUM_SIZES:

        def make(r):
            hs = tuple(sorted(r.sample(range(10**4), size + r.randint(-3, 3))))
            norm = tuple(h - hs[0] for h in hs)
            return norm, hs

        hs = _draw(rng, seen, make)
        ops.append(Op(("spectrum", "-H", _csv(hs))))
    for eps in CONSTRUCT_EPS:

        def make(r):
            hs = (0, *sorted(r.sample(range(1, 50), r.randint(1, 2))))
            if r.random() < 0.25:
                alpha = spectrum_floor(hs)[0]
                if alpha >= 0:
                    return None
                target = alpha * Fraction(r.randrange(100, 900), 1000)
            else:
                target = Fraction(r.randrange(150, 950), 1000)
            target += Fraction(r.randrange(1, 1000), 10**7)
            end = greedy_scan_end(hs, target, eps)
            if end is None or not SCAN_END[0] <= end <= SCAN_END[1]:
                return None
            return (hs, target, eps), (hs, target)

        hs, target = _draw(rng, seen, make)
        ops.append(Op(("construct", "-H", _csv(hs), f"--target={target}", "--eps", str(eps))))
    return ops


# -------------------------------------------------------------------- closure

# Irreducibles of degrees 5, 7, 8 and 9: with every other factor of degree at
# most 10, the lcm of the factor degrees is 2520, so D = (2^2520 - 1) * 2^n
# stays far below the 4300-digit limit of int-to-str conversion.
CLOSURE_CORE = (0b100101, 0b10000011, 0b100011011, 0b1000010001)
CLOSURE_DEGREES = (45, 65, 85, 105, 120)
CLOSURE_OPS_PER_PASS = 35
# ROADMAP item 4: degree 133, r = 52360.  The CLI squares over the bits of D
# three times and then fails to print D.
ITEM4_GENERATOR = "9,20,23,27,37,38,45,53,61,64,70,75,78,79,81,87,92,94,110,118,129,131,133,138,140,142"
ITEM4_FAULT = "Exceeds the limit (4300 digits) for integer string conversion"


def clmul(a: int, b: int) -> int:
    """Carry-less product: multiplication of bit-packed GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _random_poly(rng: random.Random, degree: int) -> int:
    """Random polynomial of the given degree with constant term 1."""
    if degree == 1:
        return 0b11
    return (1 << degree) | (rng.getrandbits(degree - 1) << 1) | 1


def _shift_set(bits: int, offset: int) -> tuple[int, ...]:
    return tuple(i + offset for i in range(bits.bit_length()) if bits >> i & 1)


def closure_pass(rng: random.Random, seen: set) -> list[Op]:
    """Generator sets f*a and f*b (translated), where f is the product of the
    fixed core and random pieces of degree at most 10, for generator degree
    about 40-120; then the item-4 generator, which fails every time."""
    ops = []
    for i in range(CLOSURE_OPS_PER_PASS):
        degree = CLOSURE_DEGREES[i % len(CLOSURE_DEGREES)]

        def make(r):
            f = 1
            for g in CLOSURE_CORE:
                f = clmul(f, g)
            while f.bit_length() - 1 < degree - 10:
                f = clmul(f, _random_poly(r, r.randint(1, 10)))
            sets = tuple(
                _shift_set(clmul(f, _random_poly(r, r.randint(1, 8))), r.randrange(20))
                for _ in range(2)
            )
            return sets, sets

        sets = _draw(rng, seen, make)
        argv = ["closure"]
        for s in sets:
            argv += ["-G", _csv(s)]
        if i % 2:
            argv.append("--json")
        ops.append(Op(tuple(argv)))
    ops.append(Op(("closure", "-G", ITEM4_GENERATOR), known_fault=ITEM4_FAULT))
    return ops


WORKLOADS = {
    "verify": verify_pass,
    "series": series_pass,
    "exact": exact_pass,
    "closure": closure_pass,
}
