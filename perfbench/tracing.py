"""Spans around calls into the package's public functions.

The traced run wraps each function named in ``LAYERS`` and records one span
per call: name, start, end and the span that was open when it began.  Spans
stay in memory (four flat arrays) until the run ends, when they are written
once and reduced to the per-layer table.

``cli`` and ``spectrum`` bind most of these functions with ``from .x import``,
so a wrapper replaces every binding of the same function object in every
module of the package, not just the one in its home module.  ``primes_from``
is a generator: its span covers each ``next`` call, so its time is the time
spent finding primes, not the lifetime of the generator.

A few work counts are taken at the same boundaries from each call's
arguments, and from the result of ``two_element_member``; they are computed
after the run so that the counting never falls inside a span.  Only what the
counts need is kept: a ``sieve_parities`` call keeps its prime set and window
bounds, never the parity array it returns.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = {
    "core": ("primes_from", "exceptional_primes"),
    "density": ("local_density",),
    "sieve": ("sieve_parities", "shifted_parities", "running_average"),
    "spectrum": ("correlation", "describe_spectrum", "construct_prime_set"),
    "gf2": ("family_from_generators", "two_element_member", "pow_t_mod", "closure_membership"),
    "cli": ("main", "decimal_str", "rational_str"),
}
GENERATORS = frozenset({"core.primes_from"})
# Calls whose arguments are kept for the work counts, and the one call whose
# result is kept too (it holds D, a few kB).
COUNTED = frozenset(
    {"sieve.sieve_parities", "gf2.two_element_member", "gf2.pow_t_mod", "gf2.closure_membership"}
)
KEEP_RESULT = frozenset({"gf2.two_element_member"})


def _prime_powers(pset, lo: int, hi: int) -> int:
    """Prime powers below hi with a multiple in [lo, hi): the strided flips
    sieve_parities makes for one window."""
    count = 0
    for p in pset:
        pk = p
        while pk < hi:
            count += (lo + pk - 1) // pk * pk < hi
            pk *= p
    return count


def _squarings(name: str, args, result) -> int:
    """Squarings of t^D mod f: one per bit of each exponent reduced."""
    if name == "gf2.two_element_member":
        return result.shifts[-1].bit_length()
    if name == "gf2.pow_t_mod":
        return args[0].bit_length()
    return sum(h.bit_length() for h in args[1])  # gf2.closure_membership


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._kept: list[tuple[str, tuple, object]] = []
        self.primes_yielded = 0

    # ------------------------------------------------------------ recording

    def _begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        keep = name in COUNTED
        keep_result = name in KEEP_RESULT

        if name in GENERATORS:

            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)

                def stepped():
                    while True:
                        idx = self._begin(name_id)
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._finish(idx)
                        self.primes_yielded += 1
                        yield value

                return stepped()

        else:

            def traced(*args, **kwargs):
                idx = self._begin(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._finish(idx)
                if keep:
                    self._kept.append((name, args, result if keep_result else None))
                return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in LAYERS wherever the package binds it."""
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"{package.__name__}.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    # -------------------------------------------------------------- results

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def table(self) -> dict[str, float]:
        """Calls and inclusive seconds per function, self seconds per module,
        and the work counts with their rates.

        No wrapped function calls itself through a wrapper, so summing a
        name's span durations gives inclusive time without double counting.
        A span's self time is its duration minus that of its direct children.
        """
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - children
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        inclusive = np.bincount(name, weights=dur, minlength=n)
        self_by_name = np.bincount(name, weights=own, minlength=n)

        out: dict[str, float] = {}
        module_self: Counter = Counter()
        for i, full in enumerate(self.names):
            out[f"{full}.calls"] = int(calls[i])
            out[f"{full}.s"] = float(inclusive[i])
            module_self[full.split(".")[0]] += float(self_by_name[i])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = module_self[layer]

        work: Counter = Counter()
        for full, args, result in self._kept:
            if full == "sieve.sieve_parities":
                pset, lo, hi = args
                work["sieve.ints"] += hi - lo
                work["sieve.prime_powers"] += _prime_powers(pset, lo, hi)
            else:
                work["gf2.squarings"] += _squarings(full, args, result)
        out["sieve.ints"] = work["sieve.ints"]
        out["sieve.prime_powers"] = work["sieve.prime_powers"]
        out["gf2.squarings"] = work["gf2.squarings"]
        out["core.primes_yielded"] = self.primes_yielded

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        out["sieve.ints_per_s"] = rate(out["sieve.ints"], out["sieve.sieve_parities.s"])
        out["core.primes_per_s"] = rate(out["core.primes_yielded"], out["core.primes_from.s"])
        gf2_s = sum(out[f"gf2.{f}.s"] for f in ("two_element_member", "pow_t_mod", "closure_membership"))
        out["gf2.squarings_per_s"] = rate(out["gf2.squarings"], gf2_s)
        return out
