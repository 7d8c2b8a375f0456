"""Segmented parity sieve and exact running averages of shifted sign products.

The parity of the restricted prime-factor count over a window [a, b) is
accumulated by flipping one bit at every multiple of every prime power
p**k < b with p in the configured set -- no per-element factorization, and
memory stays proportional to the window no matter how far the window sits.
The smallest prime powers are pre-sieved: their flips repeat with period L,
the product of those powers (at most _PATTERN_MAX), so one cached period is
tiled over the window by doubling copies and only the remaining powers are
flipped one stride at a time, in three kinds by length.  A power at least
the window length has at most one multiple in it, so all of those multiples
are flipped by one scatter instead of one call per power.  Of the others,
the short powers (below _SHORT_POWER) write most of the flips, a few bytes
apart: over a whole window those writes would miss the cache, so the window
is tiled and flipped by them one cache-sized block at a time.  The long
powers flip once over the whole window.
The parity of the shifted product at n is the XOR of the window parities at
n+h over the shifts.  A window always extends max(H) past the range of n it
serves, so the XOR is written back into the window's own array, one block
at a time in ascending order, and the result is a view of that array.

Averages are exact: each sample is the integer sum of +-1 terms paired with
its x, and decimal rendering is left to the output boundary.  Windows are
independent work units, so disjoint segments may be sieved concurrently and
merged in index order without changing a single bit of the result.
`series_windows` yields each window's samples as int64 arrays as soon as the
window is sieved, so a caller that streams them holds memory proportional to
the segment length, not to the sample count; `running_average` collects
them into a `SignSeries` for library callers.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import DEFAULT_SEGMENT_LENGTH, MAX_INPUT, MAX_SEGMENT_LENGTH, BudgetError, PrimeSet, ShiftSet


@dataclass(frozen=True)
class SieveConfig:
    """Window length, range end, and sampling cadence for a sieve run.

    `segment_length` must be at least max(H) + 1 for the shift set in use
    (checked at run time) and at most MAX_SEGMENT_LENGTH (BudgetError);
    `sample_stride` of None emits a single sample at x_max.
    """

    x_max: int
    segment_length: int = DEFAULT_SEGMENT_LENGTH
    sample_stride: int | None = None

    def __post_init__(self) -> None:
        if self.x_max < 1:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if self.segment_length < 1:
            raise ValueError(f"segment_length must be positive, got {self.segment_length}")
        if self.segment_length > MAX_SEGMENT_LENGTH:
            raise BudgetError(
                f"segment_length {self.segment_length} exceeds the cap of "
                f"MAX_SEGMENT_LENGTH = {MAX_SEGMENT_LENGTH}"
            )
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


# Most samples `running_average` materialises, at about 160 bytes each;
# longer series stream from `series_windows`.
MAX_SAMPLES = 1 << 22
# Largest period of the pre-sieved pattern: 64 KiB of parities.
_PATTERN_MAX = 1 << 16
# Values of n per block of the in-place shift XOR.
_XOR_BLOCK = 1 << 16
# Prime powers below this flip one block of _FLIP_BLOCK values at a time:
# 1 MiB of parities, which stays in a core's L2 cache while they flip it.
_SHORT_POWER = 1 << 11
_FLIP_BLOCK = 1 << 20


@lru_cache(maxsize=8)
def _pattern(pset: PrimeSet) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The parities of the smallest prime powers of pset over one period, and
    for every prime p its smallest power left to flip.

    The powers are taken in increasing order, p**k only when p**(k-1) was
    taken and the period L, their product, stays at most _PATTERN_MAX.  Entry
    r of the pattern is the parity of the taken powers dividing any n = r
    mod L.  The pattern is read-only, since concurrent windows share it.
    """
    powers = []
    for p in pset:
        pk = p
        while pk <= _PATTERN_MAX:
            powers.append((pk, p))
            pk *= p
    period = 1
    top: dict[int, int] = {}  # p -> its largest power taken
    for pk, p in sorted(powers):
        if top.get(p, 1) * p == pk and period * p <= _PATTERN_MAX:
            top[p] = pk
            period *= p
    pattern = np.zeros(period, dtype=np.uint8)
    for pk, p in powers:
        if pk <= top.get(p, 0):
            pattern[::pk] ^= 1
    pattern.flags.writeable = False
    return pattern, tuple((p, top.get(p, 1) * p) for p in pset)


def sieve_parities(pset: PrimeSet, lo: int, hi: int) -> np.ndarray:
    """Parities of the restricted factor count over [lo, hi), one byte each.

    Entry i is omega(pset, lo + i) mod 2.  The prime powers the cached
    pattern leaves over are flipped by length:

    - powers at least the window length have at most one multiple in it,
      and all of those are flipped by one scatter, which flips an entry
      twice when two such powers divide the same n;
    - short powers (the others below _SHORT_POWER) block by block: each
      block of _FLIP_BLOCK values is tiled from the pattern at its own
      phase and flipped by every short power while it is still in cache;
    - long powers (the rest) once over the whole window.

    The result is a fresh array no other call shares.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi - 1 > MAX_INPUT:
        raise ValueError(f"window end {hi} exceeds the supported input width")
    pattern, rest = _pattern(pset)
    m, period = hi - lo, len(pattern)
    short, long, single = [], [], []
    for p, pk in rest:
        while pk < hi:
            (single if pk >= m else short if pk < _SHORT_POWER else long).append(pk)
            pk *= p
    bits = np.empty(m, dtype=np.uint8)
    for a in range(0, m, _FLIP_BLOCK):
        blk = bits[a : a + _FLIP_BLOCK]
        n, phase = len(blk), (lo + a) % period
        head = min(n, period - phase)
        blk[:head] = pattern[phase : phase + head]
        filled = min(n, period)
        blk[head:filled] = pattern[: filled - head]
        while filled < n:  # blk[:filled] is whole periods from here on
            k = min(filled, n - filled)
            blk[filled : filled + k] = blk[:k]
            filled += k
        for pk in short:
            blk[-(lo + a) % pk :: pk] ^= 1
    for pk in long:
        bits[-lo % pk :: pk] ^= 1
    hits = [r for pk in single if (r := -lo % pk) < m]
    np.bitwise_xor.at(bits, np.array(hits, dtype=np.intp), 1)
    return bits


def shifted_parities(pset: PrimeSet, shifts: ShiftSet, lo: int, hi: int) -> np.ndarray:
    """Parities of the shifted product for n in [lo, hi).

    Sieves the window [lo, hi + max(H)) once and XOR-combines its shifted
    views into the same array, in ascending blocks of _XOR_BLOCK values of
    n: every read sits at or past the block being written, so nothing is
    read after it is overwritten.  Entry n - lo is 1 exactly when the
    shifted product at n is -1.  The result is a view of an array no other
    call shares.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    m = hi - lo
    if not shifts:
        return np.zeros(m, dtype=np.uint8)
    bits = sieve_parities(pset, lo, hi + shifts.max_shift)
    first, *others = shifts.shifts
    if not others:
        return bits[first : first + m]
    for i in range(0, m, _XOR_BLOCK):
        j = min(i + _XOR_BLOCK, m)
        block = bits[i + first : j + first].copy()
        for h in others:
            block ^= bits[i + h : j + h]
        bits[i:j] = block
    return bits[:m]


def series_windows(
    pset: PrimeSet,
    shifts: ShiftSet,
    cfg: SieveConfig,
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact signed sums of the shifted product, one sieve window at a time.

    Sieves [1, x_max + max(H)] once in windows of segment_length - max(H)
    values of n.  For each window [start, end) that holds a sample point it
    yields, in order, two int64 arrays: the sample points x in the window
    (the multiples of the stride below x_max, then x_max itself in the last
    window) and the signed sum over n <= x of the shifted product at each.

    Window protocol: a window counts the -1 signs in its parity array with
    one count_nonzero up to its first sample, one buffered int64 sum per
    stride-long block between consecutive samples (never an int64 copy of
    the window), and one count_nonzero over the whole window, the count
    carried into the next window.  The sum at x is (x - n) - n for n such
    signs up to x, which cannot overflow below MAX_INPUT.  Every window is
    checked to continue a strictly increasing series with |sum| <= x and
    sum = x mod 2.

    Memory depends on the segment length, not on the sample count: a window
    holds its parities and at most one sample per integer.  With threads = 1
    each window is sieved in the calling thread once the previous one has
    been consumed; with more, a pool of min(threads, CPU count) workers
    sieves at most one window per worker ahead of the consumer.  Neither can
    change any output value.

    Every argument is checked before the generator is returned, so a
    rejected call raises before anything is sieved.
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

    x_max = cfg.x_max
    stride = cfg.sample_stride or x_max
    step = cfg.segment_length - maxh

    def window(start: int) -> tuple[np.ndarray, np.ndarray, int]:
        end = min(start + step, x_max + 1)
        lam = shifted_parities(pset, shifts, start, end)
        first = (start + stride - 1) // stride * stride
        xs = np.arange(first, min(end, x_max), stride, dtype=np.int64)
        counts = np.empty(len(xs), dtype=np.int64)
        if len(xs):
            c0 = first - start + 1
            counts[0] = np.count_nonzero(lam[:c0])
            blocks = lam[c0 : c0 + (len(xs) - 1) * stride].reshape(-1, stride)
            blocks.sum(axis=1, dtype=np.int64, out=counts[1:])
            np.cumsum(counts, out=counts)
        total = np.count_nonzero(lam)
        if end > x_max:
            xs, counts = np.append(xs, x_max), np.append(counts, total)
        return xs, counts, total

    def merged(results) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        negatives = last = 0
        for xs, counts, total in results:
            if len(xs):
                counts += negatives
                sums = (xs - counts) - counts
                if (
                    xs[0] <= last
                    or np.any(xs[1:] <= xs[:-1])
                    or np.any(np.abs(sums) > xs)
                    or np.any((sums ^ xs) & 1)
                ):
                    raise ValueError(f"impossible signed sums in the window ending at x={xs[-1]}")
                last = xs[-1]
                yield xs, sums
            negatives += total

    starts = range(1, x_max + 1, step)
    workers = min(threads, os.cpu_count() or 1)
    return merged(map(window, starts) if workers == 1 else _pooled(window, starts, workers))


def _pooled(fn, items, workers: int) -> Iterator:
    """fn over items on a pool of `workers` threads, in order, with at most
    one result per worker waiting for the consumer."""
    with ThreadPoolExecutor(workers) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def running_average(
    pset: PrimeSet,
    shifts: ShiftSet,
    cfg: SieveConfig,
    threads: int = 1,
) -> SignSeries:
    """Exact partial averages of the shifted product at every sample point:
    the windows of `series_windows`, materialised as one SignSeries of at
    most MAX_SAMPLES samples (BudgetError before anything is sieved)."""
    samples = (cfg.x_max - 1) // (cfg.sample_stride or cfg.x_max) + 1
    if samples > MAX_SAMPLES:
        raise BudgetError(f"{samples} samples exceed the cap of MAX_SAMPLES = {MAX_SAMPLES}")
    return SignSeries(
        tuple(
            SeriesSample(x, s)
            for xs, sums in series_windows(pset, shifts, cfg, threads)
            for x, s in zip(xs.tolist(), sums.tolist())
        )
    )


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
