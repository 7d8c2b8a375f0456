#!/usr/bin/env python3
"""Convergence experiment: sieve averages against their exact limits.

For each configuration the exact correlation is an Euler-type product; the
sieve average S(x) has no guaranteed convergence rate, so this script samples
S(x) on a geometric grid of x, all from one sieve pass, and prints the gap
|S(x) - limit| per sample.

Usage: python scripts/convergence.py [--x-max 10000000] [--points 8] [--threads 2]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from multcorr import PrimeSet, ShiftSet, correlation
from multcorr.sieve import SieveConfig, series_windows

CONFIGS = [
    ((2,), (0,)),
    ((2, 3), (0,)),
    ((3, 5, 7), (0,)),
    ((3,), (1, 2)),
    ((2,), (0, 4, 6)),
    ((2, 3), (0, 4, 6)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x-max", type=int, default=10**7)
    ap.add_argument("--points", type=int, default=8)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    if args.points < 1:
        ap.error("--points must be at least 1")

    # one pass samples every multiple of the grid's smallest point
    stride = max(1, args.x_max >> (args.points - 1))
    below = (stride << k for k in range(args.points - 1))
    grid = [x for x in below if x < args.x_max] + [args.x_max]
    cfg = SieveConfig(x_max=args.x_max, sample_stride=stride)
    for primes, shifts in CONFIGS:
        pset, hset = PrimeSet(primes), ShiftSet(shifts)
        exact = correlation(pset, hset).value
        t0 = time.perf_counter()
        # keep only the grid's samples, one window at a time
        sums = {}
        for xs, window_sums in series_windows(pset, hset, cfg, threads=args.threads):
            on_grid = np.isin(xs, grid)
            sums.update(zip(xs[on_grid].tolist(), window_sums[on_grid].tolist()))
        print(f"P={set(primes)} H={set(shifts)} exact={exact} "
              f"({time.perf_counter() - t0:.2f}s for x={args.x_max:.0e})")
        for x in grid:
            average = Fraction(sums[x], x)
            gap = abs(average - exact)
            print(f"  x={x:>12,}  S(x)={float(average):+.9f}  gap={float(gap):.3e}")
        print(f"  final signed sum at x_max: {sums[args.x_max]:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
