"""Correlation products over prime sets and the spectrum of attainable values.

The limiting average of a shifted sign product over a prime set P factors as
the product over p in P of (1 - 2 * local density at p).  `_factor` is the
one per-prime factor, in closed form for a prime above the span of H, and
`correlation` is the one fold of the factors; `set_density` derives from it
the density of the -1 level set over P as (1 - product)/2.  The module also
brackets a truncated infinite set with the tail bound 2*|H|*sum(1/(p+1)),
locates the infimum of the single-prime factors with its witness prime, and
constructs prime sets hitting a target value by a greedy scan.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .core import (
    DEFAULT_PRIME_BUDGET,
    MAX_INPUT,
    BudgetError,
    PrimeSet,
    ShiftSet,
    exceptional_primes,
    primes_from,
)
from .density import local_density


class Correlation(NamedTuple):
    """Exact correlation value together with its per-prime factors."""

    value: Fraction
    factors: tuple[tuple[int, Fraction], ...]


class CorrelationInterval(NamedTuple):
    """Certified bracket [center - radius, center + radius] for a truncation."""

    center: Fraction
    radius: Fraction

    @property
    def lower(self) -> Fraction:
        return self.center - self.radius

    @property
    def upper(self) -> Fraction:
        return self.center + self.radius

    def __contains__(self, value) -> bool:
        return self.lower <= Fraction(value) <= self.upper


class SpectrumDescription(NamedTuple):
    """Infimum of the single-prime factors, its witness, and the value interval."""

    floor: Fraction
    witness: int
    lo: Fraction
    hi: Fraction


def _factor(p: int, shifts: ShiftSet) -> tuple[int, int]:
    """Numerator and positive denominator of 1 - 2 * local_density(p, shifts).
    A prime above max(H) - min(H) divides no difference: its shifts are all
    singleton classes, and it skips the recursion for 1 - 2|H|/(p+1)."""
    if len(shifts) < 2 or p > shifts[-1] - shifts[0]:
        return p + 1 - 2 * len(shifts), p + 1
    eta = local_density(p, shifts)
    return eta.denominator - 2 * eta.numerator, eta.denominator


def correlation(pset: PrimeSet, shifts: ShiftSet) -> Correlation:
    """Exact product over p in pset of (1 - 2 * local density at p)."""
    factors = tuple((p, Fraction(*_factor(p, shifts))) for p in pset)
    value = Fraction(1)
    for _, f in factors:
        value *= f
    return Correlation(value, factors)


def set_density(pset: PrimeSet, shifts: ShiftSet) -> Fraction:
    """Exact density of the -1 level set over a finite prime set."""
    return (1 - correlation(pset, shifts).value) / 2


def truncated_correlation(
    pset: PrimeSet, tail_sum: Fraction, shifts: ShiftSet
) -> CorrelationInterval:
    """Bracket for the correlation of a set truncated to `pset`.

    `tail_sum` is a caller-supplied upper bound on sum(1/(p+1)) over the
    omitted primes; the true value lies within 2*|H|*tail_sum of the finite
    product.
    """
    tail = Fraction(tail_sum)
    if tail < 0:
        raise ValueError(f"tail_sum must be non-negative, got {tail_sum}")
    center = correlation(pset, shifts).value
    return CorrelationInterval(center, 2 * len(shifts) * tail)


def _describe(shifts: ShiftSet, exceptional: frozenset[int]) -> SpectrumDescription:
    """`describe_spectrum` given the exceptional primes of the shift set."""
    if not shifts:
        raise ValueError("spectrum needs a non-empty shift set")
    q = next(p for p in primes_from(1) if p not in exceptional)
    candidates = [(p, Fraction(*_factor(p, shifts))) for p in (*exceptional, q)]
    floor = min(f for _, f in candidates)
    witness = min(p for p, f in candidates if f == floor)
    return SpectrumDescription(floor, witness, min(floor, Fraction(0)), Fraction(1))


def describe_spectrum(shifts: ShiftSet) -> SpectrumDescription:
    """Floor and witness of the per-prime factors, and the attainable interval.

    Only finitely many primes divide a pairwise difference; for the rest the
    factor is 1 - 2|H|/(p+1), strictly increasing in p, so the smallest such
    prime is the only one that can compete with the exceptional ones.  The
    closure of attainable values is [min(floor, 0), 1].
    """
    return _describe(shifts, frozenset(exceptional_primes(shifts)))


def _greedy(
    target: Fraction,
    eps: Fraction,
    floor: int,
    avoid: frozenset[int],
    budget: int,
    shifts: ShiftSet,
) -> tuple[list[int], Fraction]:
    """Greedy scan over the primes above `floor` that are not in `avoid`.

    Includes p whenever the running product stays at or above the target;
    factors tend to 1, so the product converges onto [target, target + eps].
    The product is kept as a reduced integer fraction num/den and compared
    by cross-multiplication; den stays positive.
    """
    tn, td = target.numerator, target.denominator
    upper = target + eps
    un, ud = upper.numerator, upper.denominator
    num = den = 1
    chosen: list[int] = []
    scanned = 0
    gen = primes_from(floor)
    while num * ud > un * den:
        scanned += 1
        if scanned > budget:
            raise BudgetError(
                f"target {target} not reached within a budget of {budget} primes "
                # approximate: num and den can outgrow the int-to-str digit limit
                f"(current product {num / den:.12g})"
            )
        p = next(gen)
        if p in avoid:
            continue
        fn, fd = _factor(p, shifts)
        if fn <= 0:
            continue
        if num * fn * td >= tn * den * fd:
            g = gcd(fn, fd)
            fn, fd = fn // g, fd // g
            g1, g2 = gcd(num, fd), gcd(fn, den)
            num = (num // g1) * (fn // g2)
            den = (den // g2) * (fd // g1)
            chosen.append(p)
    return chosen, Fraction(num, den)


def construct_prime_set(
    shifts: ShiftSet,
    target: Fraction,
    eps: Fraction,
    floor: int | None = None,
    budget: int = DEFAULT_PRIME_BUDGET,
) -> PrimeSet:
    """A finite prime set whose correlation lies within eps of `target`.

    Targets in [0, 1] are reached by the greedy scan alone.  A negative
    target is reached by constructing the positive ratio target/floor while
    avoiding the witness prime, then adjoining the witness; since the witness
    factor has absolute value at most 1, the eps guarantee carries over.
    The scan skips the exceptional primes.  Raises ValueError for eps <= 0 or
    budget < 0, and BudgetError when the scan exhausts its prime budget.
    """
    target = Fraction(target)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    # the one factoring of the differences: the greedy skips these primes too
    exceptional = frozenset(exceptional_primes(shifts))
    desc = _describe(shifts, exceptional)
    if not desc.lo < target <= 1:
        raise ValueError(
            f"target {target} outside the attainable interval ({desc.lo}, 1]"
        )
    if floor is None:
        floor = shifts[-1] - shifts[0]  # the largest difference
    if floor >= MAX_INPUT:
        raise ValueError(f"no prime above floor {floor} fits the 64-bit input width")
    if target >= 0:
        chosen, _ = _greedy(target, eps, floor, exceptional, budget, shifts)
        return PrimeSet(chosen)
    ratio = target / desc.floor
    chosen, _ = _greedy(ratio, eps, floor, exceptional | {desc.witness}, budget, shifts)
    return PrimeSet(chosen + [desc.witness])
