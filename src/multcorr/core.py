"""Exact pointwise arithmetic for sign functions attached to prime sets.

A completely multiplicative function taking values in {-1, +1} is determined
by the set of primes where it equals -1.  This module holds the two set types
(`PrimeSet`, `ShiftSet`) and the exact pointwise evaluators: the restricted
prime-factor count `omega`, the sign `liouville`, and the shifted product
`shifted_sign`.  Each set is a tuple of its members in increasing order,
checked once on construction, so code reads it as that tuple.

Everything here is pure and immutable; pointwise values are computed by
repeated division by the configured primes only, never by full
factorization.  Prime generation is a segmented sieve of Eratosthenes.
`exceptional_primes` is the one test of which primes divide a pairwise
difference of a shift set: it factors each difference once.

Nothing here imports numpy, so commands that never sieve parities do not
pay for loading it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from operator import index
from typing import Iterable, Iterator

# Pointwise evaluators accept inputs up to 2**63 - 1 (minus the largest shift
# for shifted products); larger arguments are rejected.
MAX_INPUT = 2**63 - 1

# Default window length of the parity sieve (`sieve.SieveConfig`); it lives
# here so that the CLI can build its parser without importing numpy.
DEFAULT_SEGMENT_LENGTH = 1 << 22
# Largest window length a sieve run accepts: a window holds one byte per
# integer, so this caps its array at 64 MiB.
MAX_SEGMENT_LENGTH = 1 << 26
# Most integers a sieve run covers, x_max + max(H), counted ceil(|H| / 32)
# times: a window's shift XORs grow with |H| (10.7 ms at |H| = 1, 91.2 ms at
# 400).  Over the primes below 10**4 `verify` sieved about 4.3e8 integers/s
# on a 2-core Xeon VM, so a run at the cap takes about 4 minutes there.
MAX_SIEVED = 10**11
# Default number of primes `spectrum.construct_prime_set` scans; it lives
# here so that the CLI can build its parser without importing `spectrum`.
DEFAULT_PRIME_BUDGET = 10**6

# `primes_from` sieves segments of this many odd numbers, with base primes up
# to at most _BASE_CAP; a survivor at or above _BASE_CAP**2 may still have a
# larger factor, so there each survivor is confirmed by `is_prime`.
_SEGMENT_ODDS = 1 << 15
_BASE_CAP = 1 << 20


class BudgetError(RuntimeError):
    """A configured resource cap was exceeded (prime budget, degree cap,
    factoring steps, window length, integers sieved)."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k (OEIS A014233): the least odd composite that is a strong pseudoprime
# to each of the first k bases, so those bases decide every n < psi_k.
_MR_PSI = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check, exact below psi_12 (about
    3.2e23), so for every 64-bit input; raises ValueError from psi_12 on.

    After trial division by the bases, n < 41**2 is prime; otherwise only
    the shortest prefix of the bases that decides n is tried.
    """
    if n >= _MR_PSI[-1]:
        raise ValueError(f"is_prime is exact only below psi_12 = {_MR_PSI[-1]}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _odd_primes_upto(limit: int) -> list[int]:
    """Odd primes <= limit by a plain sieve over the odd numbers."""
    size = (limit + 1) // 2  # index i stands for 2*i + 1
    flags = bytearray([1]) * size
    flags[0] = 0
    i = 1
    while (2 * i + 1) ** 2 <= limit:
        if flags[i]:
            q = 2 * i + 1
            first = q * q // 2
            flags[first::q] = bytes(len(range(first, size, q)))
        i += 1
    return [2 * i + 1 for i in compress(range(size), flags)]


def primes_from(start: int) -> Iterator[int]:
    """Yield primes strictly greater than `start` in increasing order.

    A segmented sieve of Eratosthenes over the odd numbers (Bays & Hudson
    1977).  Each segment is crossed off by the odd base primes up to its
    square root; the base table grows by doubling up to _BASE_CAP.  Above
    _BASE_CAP**2 the survivors are confirmed by `is_prime`, so the output is
    exact for every 64-bit value, and a ValueError ends it at psi_12.
    """
    if start < 2:
        yield 2
    lo = max(start + 1, 3) | 1  # smallest odd candidate above start
    base: list[int] = []
    base_limit = 1  # every odd prime <= base_limit is in base
    while True:
        hi = lo + 2 * _SEGMENT_ODDS  # this segment is the odd n in [lo, hi)
        need = min(isqrt(hi), _BASE_CAP)
        if need > base_limit:
            base_limit = min(max(need, 2 * base_limit), _BASE_CAP)
            base = _odd_primes_upto(base_limit)
        seg = bytearray([1]) * _SEGMENT_ODDS
        for q in base:
            first = q * q
            if first >= hi:
                break
            if first < lo:
                first = (lo + q - 1) // q * q
                if not first & 1:
                    first += q
            i = (first - lo) >> 1
            if i < _SEGMENT_ODDS:
                seg[i::q] = bytes((_SEGMENT_ODDS - 1 - i) // q + 1)
        survivors = compress(range(lo, hi, 2), seg)
        if hi > (base_limit + 1) ** 2:
            survivors = filter(is_prime, survivors)
        yield from survivors
        lo = hi


def _sorted_members(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as sorted ints, converted by operator.index so that a float
    or a string raises TypeError instead of being truncated or parsed."""
    ms = tuple(sorted(map(index, values)))
    for a, b in zip(ms, ms[1:]):
        if a == b:
            raise ValueError(f"duplicate {what} {a}")
    return ms


def _check_prime(p: int) -> None:
    """Reject p unless it is a prime of the 64-bit width, where `is_prime` is exact."""
    if p > MAX_INPUT:
        raise ValueError(f"prime {p} exceeds the 64-bit input width")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _check_span(shifts: tuple[int, ...]) -> None:
    """Reject a sorted shift set whose span max(H) - min(H) exceeds MAX_INPUT."""
    span = shifts[-1] - shifts[0] if shifts else 0
    if span > MAX_INPUT:
        raise ValueError(
            f"shift span of {span.bit_length()} bits exceeds the 64-bit input width "
            "(MAX_INPUT = 2**63 - 1)"
        )


class PrimeSet(tuple):
    """Finite sorted set of verified primes (the -1 support of the sign function).

    A tuple of its members in increasing order, so it compares and hashes
    like that plain tuple.  May be empty, which encodes the constant
    function +1.  Construction rejects duplicates, non-integers and anything
    that fails the primality check.
    """

    __slots__ = ()

    def __new__(cls, primes: Iterable[int] = ()):
        ps = _sorted_members(primes, "prime")
        for p in ps:
            _check_prime(p)
        return super().__new__(cls, ps)

    @property
    def primes(self) -> "PrimeSet":
        return self

    def __repr__(self) -> str:
        return f"PrimeSet({list(self)!r})"

    def symmetric_difference(self, other: "PrimeSet") -> "PrimeSet":
        return PrimeSet(set(self) ^ set(other))


class ShiftSet(tuple):
    """Finite sorted set of non-negative integer shifts.

    A tuple of its members in increasing order, so it compares and hashes
    like that plain tuple.  May be empty (the empty shifted product is
    identically +1).  Duplicates are rejected rather than collapsed: a
    repeated shift would silently flip the parity semantics of the product.
    """

    __slots__ = ()

    def __new__(cls, shifts: Iterable[int] = ()):
        hs = _sorted_members(shifts, "shift")
        if hs and hs[0] < 0:
            raise ValueError(f"negative shift {hs[0]}")
        return super().__new__(cls, hs)

    @property
    def shifts(self) -> "ShiftSet":
        return self

    def __repr__(self) -> str:
        return f"ShiftSet({list(self)!r})"

    @property
    def max_shift(self) -> int:
        return self[-1] if self else 0

    def translate(self, a: int) -> "ShiftSet":
        return ShiftSet(h + a for h in self)

    def symmetric_difference(self, other: "ShiftSet") -> "ShiftSet":
        return ShiftSet(set(self) ^ set(other))


def _check_argument(n: int, limit: int = MAX_INPUT) -> None:
    if n < 1:
        raise ValueError(f"argument must be a positive integer, got {n}")
    if n > limit:
        raise ValueError(f"argument {n} exceeds the supported input width")


def omega(pset: PrimeSet, n: int) -> int:
    """Number of prime factors of n, with multiplicity, restricted to pset."""
    _check_argument(n)
    count = 0
    for p in pset:
        if p > n:
            break
        while n % p == 0:
            n //= p
            count += 1
    return count


def liouville(pset: PrimeSet, n: int) -> int:
    """The +-1 sign (-1)**omega(pset, n); completely multiplicative in n."""
    return -1 if omega(pset, n) & 1 else 1


def shifted_sign(pset: PrimeSet, shifts: ShiftSet, n: int) -> int:
    """Product of liouville(pset, n + h) over all shifts h; +1 when empty."""
    _check_argument(n, MAX_INPUT - shifts.max_shift)
    sign = 1
    for h in shifts:
        sign *= liouville(pset, n + h)
    return sign


_TRIAL_PRIMES = (2, *_odd_primes_upto(1 << 10))

# Pollard-Brent steps (iterations of y -> y^2 + c) allowed per cofactor.  A
# composite below 2**64 has a prime factor p < 2**32, which the walk modulo p
# finds after about sqrt(pi * p / 2) ~ 82000 steps.  Within the cap its tail
# plus period may reach 2**20; for a random walk the chance of a longer one
# is about exp(-2**40 / (2 * p)) < exp(-128).  Cofactors past 64 bits, or
# past 4 log2(POLLARD_STEPS) bits under a smaller cap, are refused with
# BudgetError before the walk: they make a span wider than MAX_INPUT.
POLLARD_STEPS = 1 << 22


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite n without small factors (Brent 1980).

    Raises BudgetError before a round that could take the steps spent on n
    past POLLARD_STEPS, and at once for n wider than min(4 log2(POLLARD_STEPS),
    64) bits: the least prime factor p <= sqrt(n) of an n past 4 log2 of the
    cap may need about sqrt(p) ~ n**(1/4) steps, past the cap, and an n of
    2**64 or more makes the shift span wider than MAX_INPUT, which every
    exact command refuses anyway."""
    width = min(4 * (POLLARD_STEPS.bit_length() - 1), 64)
    if n.bit_length() > width:
        raise BudgetError(
            f"factoring a {n.bit_length()}-bit cofactor of a shift difference "
            f"could take more than the cap of POLLARD_STEPS = {POLLARD_STEPS} "
            f"Pollard-Brent steps (cofactors past {width} bits are refused)"
        )
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > POLLARD_STEPS:
                raise BudgetError(
                    f"factoring a {n.bit_length()}-bit cofactor of a shift difference "
                    f"took the cap of POLLARD_STEPS = {POLLARD_STEPS} Pollard-Brent steps"
                )
            steps += 2 * r  # r steps to move x, at most r more to compare
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: retrace one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"no factor found for {n}")


def _prime_factors(m: int) -> set[int]:
    """Distinct prime factors: trial division by small primes, then
    Pollard-Brent on whatever composite cofactor is left."""
    out = set()
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            out.add(p)
            while m % p == 0:
                m //= p
    pending = [m] if m > 1 else []
    while pending:
        n = pending.pop()
        # past psi_12 is_prime is not exact, and Pollard-Brent meets its cap
        if n < _MR_PSI[-1] and is_prime(n):
            out.add(n)
        else:
            f = _pollard_brent(n)
            pending += (f, n // f)
    return out


def exceptional_primes(shifts: ShiftSet) -> PrimeSet:
    """Primes dividing at least one pairwise difference of the shift set;
    every other prime has the closed-form factor 1 - 2|H|/(p+1)."""
    found: set[int] = set()
    for d in {b - a for i, a in enumerate(shifts) for b in shifts[i + 1 :]}:
        found |= _prime_factors(d)
    return PrimeSet(found)
