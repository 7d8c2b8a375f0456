"""Segmented parity sieve and exact running averages of shifted sign products.

The parity of the restricted prime-factor count over a window [a, b) is
accumulated by flipping one bit at every multiple of every prime power
p**k < b with p in the configured set -- no per-element factorization, and
memory stays proportional to the window no matter how far the window sits.
The parity of the shifted product at n is the XOR of the window parities at
n+h over the shifts, taken in one pass since a window always extends max(H)
past the range of n it serves.

Averages are exact: each sample is the integer sum of +-1 terms paired with
its x, and decimal rendering is left to the output boundary.  Windows are
independent work units, so disjoint segments may be sieved concurrently and
merged in index order without changing a single bit of the result.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .core import DEFAULT_SEGMENT_LENGTH, MAX_INPUT, PrimeSet, ShiftSet


@dataclass(frozen=True)
class SieveConfig:
    """Window length, range end, and sampling cadence for a sieve run.

    `segment_length` must be at least max(H) + 1 for the shift set in use
    (checked at run time); `sample_stride` of None emits a single sample at
    x_max.
    """

    x_max: int
    segment_length: int = DEFAULT_SEGMENT_LENGTH
    sample_stride: int | None = None

    def __post_init__(self) -> None:
        if self.x_max < 1:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if self.segment_length < 1:
            raise ValueError(f"segment_length must be positive, got {self.segment_length}")
        if self.sample_stride is not None and self.sample_stride < 1:
            raise ValueError(f"sample_stride must be positive, got {self.sample_stride}")


@dataclass(frozen=True)
class SeriesSample:
    """One partial-average sample: x and the exact signed sum over n <= x."""

    x: int
    signed_sum: int

    @property
    def average(self) -> Fraction:
        return Fraction(self.signed_sum, self.x)


@dataclass(frozen=True)
class SignSeries:
    """Strictly increasing samples of exact partial averages in [-1, 1]."""

    samples: tuple[SeriesSample, ...]

    def __post_init__(self) -> None:
        prev = 0
        for s in self.samples:
            if s.x <= prev:
                raise ValueError("sample positions must be strictly increasing")
            if abs(s.signed_sum) > s.x or (s.signed_sum - s.x) % 2 != 0:
                raise ValueError(f"impossible signed sum {s.signed_sum} at x={s.x}")
            prev = s.x

    def __iter__(self):
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def final(self) -> SeriesSample:
        return self.samples[-1]


def sieve_parities(pset: PrimeSet, lo: int, hi: int) -> np.ndarray:
    """Parities of the restricted factor count over [lo, hi), one byte each.

    Entry m - lo is omega(pset, m) mod 2, produced by flipping multiples of
    every prime power below hi.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi - 1 > MAX_INPUT:
        raise ValueError(f"window end {hi} exceeds the supported input width")
    bits = np.zeros(hi - lo, dtype=np.uint8)
    for p in pset:
        pk = p
        while pk < hi:
            start = ((lo + pk - 1) // pk) * pk
            if start < hi:
                bits[start - lo :: pk] ^= 1
            pk *= p
    return bits


def shifted_parities(pset: PrimeSet, shifts: ShiftSet, lo: int, hi: int) -> np.ndarray:
    """Parities of the shifted product for n in [lo, hi).

    Sieves the window [lo, hi + max(H)) once and XOR-combines the shifted
    views; entry n - lo is 1 exactly when the shifted product at n is -1.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    m = hi - lo
    if not shifts:
        return np.zeros(m, dtype=np.uint8)
    bits = sieve_parities(pset, lo, hi + shifts.max_shift)
    out = bits[shifts.shifts[0] : shifts.shifts[0] + m].copy()
    for h in shifts.shifts[1:]:
        out ^= bits[h : h + m]
    return out


def running_average(
    pset: PrimeSet,
    shifts: ShiftSet,
    cfg: SieveConfig,
    threads: int = 1,
) -> SignSeries:
    """Exact partial averages of the shifted product at every sample point.

    Sieves [1, x_max + max(H)] once in windows of segment_length - max(H)
    values of n; the signed sum at x is x - 2 * #{n <= x : shifted product
    = -1}.  Each window [start, end) returns its sample positions and the
    running count of -1 signs from start to each of them and to the window's
    end, so the last count covers the whole window; one loop adds the count
    carried from earlier windows.  With threads = 1 the windows are sieved
    one after another in the calling thread; with more, by a pool of
    min(threads, CPU count) workers and merged in order, which cannot change
    any output value.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    maxh = shifts.max_shift
    if cfg.segment_length < maxh + 1:
        raise ValueError(
            f"segment_length {cfg.segment_length} is below max shift + 1 = {maxh + 1}"
        )
    if cfg.x_max + maxh > MAX_INPUT:
        raise ValueError(f"x_max {cfg.x_max} plus max shift exceeds the input width")

    stride = cfg.sample_stride or cfg.x_max
    sample_xs = [*range(stride, cfg.x_max, stride), cfg.x_max]
    step = cfg.segment_length - maxh

    def window(start: int) -> tuple[list[int], list[int]]:
        end = min(start + step, cfg.x_max + 1)
        lam = shifted_parities(pset, shifts, start, end)
        xs = sample_xs[bisect_left(sample_xs, start) : bisect_left(sample_xs, end)]
        cuts = [x + 1 - start for x in xs] + [end - start]
        parts = (int(np.count_nonzero(lam[a:b])) for a, b in zip([0, *cuts], cuts))
        return xs, list(accumulate(parts))

    workers = min(threads, os.cpu_count() or 1)
    samples: list[SeriesSample] = []
    negatives = 0
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for xs, counts in (pool.map if pool else map)(window, range(1, cfg.x_max + 1, step)):
            samples += (SeriesSample(x, x - 2 * (negatives + c)) for x, c in zip(xs, counts))
            negatives += counts[-1]
    return SignSeries(tuple(samples))


def empirical_density(
    pset: PrimeSet,
    shifts: ShiftSet,
    x: int,
    segment_length: int = DEFAULT_SEGMENT_LENGTH,
    threads: int = 1,
) -> Fraction:
    """Exact share of n <= x where the shifted product equals -1.

    Satisfies average == 1 - 2 * density identically at every x.
    """
    cfg = SieveConfig(x_max=x, segment_length=segment_length)
    series = running_average(pset, shifts, cfg, threads=threads)
    return Fraction(x - series.final.signed_sum, 2 * x)
