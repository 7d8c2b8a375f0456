"""Exact natural densities of the -1 level sets of shifted sign products.

`local_density(p, H)` is the density of {n : prod over h in H of the sign of
n+h at the single prime p equals -1}, computed as an exact rational by a
recursion on the shift set:

* empty H has density 0; a singleton has density 1/(p+1);
* when the residues of H mod p are not all equal, the level set splits as a
  disjoint union over residue classes, so densities add class by class;
* when all residues equal i, the level set is a translate of p times the one
  for H1 = (H - i)/p, complemented first when |H| is odd, giving value/p or
  (1 - value)/p.  max(H1) < max(H), so this case strictly shrinks the input.

`_step` is the one place that tells the two cases apart.  `_eta` is the one
recursion that computes values; `local_density_trace` walks the same steps
and records their structure only.  The per-prime factor 1 - 2 * density and
the density over a prime set, `set_density`, live in `spectrum` next to the
correlation product they feed.

Results are memoized up to translation: shifting every element of H by a
constant translates the level set and leaves the density unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import BudgetError, ShiftSet, _check_prime

# Depth cap is a defensive bound well above what the decreasing-max argument
# allows; hitting it means an implementation bug, not a hard input.
_DEPTH_SLACK = 64

_memo: dict[tuple[int, tuple[int, ...]], Fraction] = {}


def _normalize(shifts: tuple[int, ...]) -> tuple[int, ...]:
    base = shifts[0]
    return tuple([h - base for h in shifts])


def _depth_cap(p: int, shifts: tuple[int, ...]) -> int:
    top = max(shifts) if shifts else 0
    return _DEPTH_SLACK * (1 + int(math.log(top + 1, p)))


def _step(p: int, shifts: tuple[int, ...]) -> tuple[list[tuple[int, ...]], int | None]:
    """One recursion step on two or more shifts.

    Returns the residue classes of H mod p in residue order and None when
    there are several (a split), or the single rescaled set (H - i)/p and the
    shared residue i (a rescale).
    """
    classes: dict[int, list[int]] = {}
    for h in shifts:
        classes.setdefault(h % p, []).append(h)
    if len(classes) > 1:
        return [tuple(cls) for _, cls in sorted(classes.items())], None
    i = shifts[0] % p
    return [tuple([(h - i) // p for h in shifts])], i


def _eta(p: int, shifts: tuple[int, ...], depth: int, cap: int) -> Fraction:
    if not shifts:
        return Fraction(0)
    if len(shifts) == 1:
        return Fraction(1, p + 1)
    key = (p, _normalize(shifts))
    cached = _memo.get(key)
    if cached is not None:
        return cached
    if depth > cap:
        raise BudgetError(f"density recursion exceeded depth cap {cap} at p={p}")
    children, residue = _step(p, shifts)
    if residue is None:
        # Singleton classes each add 1/(p+1): add them in one step.
        multi = [cls for cls in children if len(cls) > 1]
        value = Fraction(len(children) - len(multi), p + 1)
        for cls in multi:
            value += _eta(p, cls, depth + 1, cap)
    else:
        sub = _eta(p, children[0], depth + 1, cap)
        value = sub / p if len(shifts) % 2 == 0 else (1 - sub) / p
    _memo[key] = value
    return value


def local_density(p: int, shifts: ShiftSet) -> Fraction:
    """Exact density of the -1 level set at a single prime p."""
    _check_prime(p)
    return _eta(p, shifts.shifts, 0, _depth_cap(p, shifts.shifts))


@dataclass(frozen=True)
class DensityTrace:
    """One node of the recursion tree behind a local density value.

    `kind` is one of "empty", "singleton", "split", "rescale".  A rescale
    node records the shared residue and whether the odd-size complement was
    taken.  The tree holds structure only: the value is `local_density`'s.
    """

    kind: str
    prime: int
    shifts: tuple[int, ...]
    children: tuple["DensityTrace", ...] = ()
    residue: int = 0
    complemented: bool = False

    def lines(self, depth: int = 0) -> list[str]:
        pad = "  " * depth
        hs = "{" + ",".join(str(h) for h in self.shifts) + "}"
        p = self.prime
        if self.kind == "empty":
            out = [f"{pad}empty set: density 0"]
        elif self.kind == "singleton":
            out = [f"{pad}singleton {hs}: density 1/{p + 1}"]
        elif self.kind == "split":
            parts = " ".join(
                "{" + ",".join(str(h) for h in c.shifts) + "}" for c in self.children
            )
            out = [f"{pad}split {hs} mod {p} -> {parts}"]
        else:
            inner = "{" + ",".join(str(h) for h in self.children[0].shifts) + "}"
            op = "(1 - value)/p" if self.complemented else "value/p"
            out = [f"{pad}rescale {hs}: residue {self.residue}, inner {inner}, {op}"]
        for c in self.children:
            out.extend(c.lines(depth + 1))
        return out


def local_density_trace(p: int, shifts: ShiftSet) -> DensityTrace:
    """Recursion tree for `local_density(p, shifts)`, one node per step."""
    _check_prime(p)

    def walk(hs: tuple[int, ...], depth: int, cap: int) -> DensityTrace:
        if not hs:
            return DensityTrace("empty", p, hs)
        if len(hs) == 1:
            return DensityTrace("singleton", p, hs)
        if depth > cap:
            raise BudgetError(f"density recursion exceeded depth cap {cap} at p={p}")
        children, residue = _step(p, hs)
        kids = tuple(walk(c, depth + 1, cap) for c in children)
        if residue is None:
            return DensityTrace("split", p, hs, kids)
        return DensityTrace("rescale", p, hs, kids, residue, len(hs) % 2 == 1)

    return walk(shifts.shifts, 0, _depth_cap(p, shifts.shifts))
