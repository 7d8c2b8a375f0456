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

`_eta` is one `functools.cache` keyed on (p, H) with H moved so that its
least shift is 0: translating H translates the level set and leaves the
density unchanged.  A rescale divides the span max(H) - min(H) by p, and after
a split each class of two or more shifts shares one residue, so its next step
is a rescale; the depth is therefore at most 2 * log_p(span) + 2, about 128
for the spans below 2**63 that `core._check_span` admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .core import ShiftSet, _check_prime, _check_span


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


@cache
def _eta(p: int, shifts: tuple[int, ...]) -> Fraction:
    """Density for two or more shifts, moved so that shifts[0] == 0."""
    children, residue = _step(p, shifts)
    if residue is None:
        # Singleton classes each add 1/(p+1): add them in one step.
        multi = [cls for cls in children if len(cls) > 1]
        value = Fraction(len(children) - len(multi), p + 1)
        for cls in multi:
            value += _eta(p, tuple([h - cls[0] for h in cls]))
        return value
    # shifts[0] == 0, so the residue is 0 and the rescaled set starts at 0
    sub = _eta(p, children[0])
    return sub / p if len(shifts) % 2 == 0 else (1 - sub) / p


def local_density(p: int, shifts: ShiftSet) -> Fraction:
    """Exact density of the -1 level set at a single prime p."""
    _check_prime(p)
    hs = shifts.shifts
    _check_span(hs)
    if len(hs) < 2:
        return Fraction(len(hs), p + 1)
    return _eta(p, tuple([h - hs[0] for h in hs]))


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

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
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
            out.extend(c.lines(indent + 1))
        return out


def local_density_trace(p: int, shifts: ShiftSet) -> DensityTrace:
    """Recursion tree for `local_density(p, shifts)`, one node per step."""
    _check_prime(p)
    _check_span(shifts.shifts)

    def walk(hs: tuple[int, ...]) -> DensityTrace:
        if not hs:
            return DensityTrace("empty", p, hs)
        if len(hs) == 1:
            return DensityTrace("singleton", p, hs)
        children, residue = _step(p, hs)
        kids = tuple(walk(c) for c in children)
        if residue is None:
            return DensityTrace("split", p, hs, kids)
        return DensityTrace("rescale", p, hs, kids, residue, len(hs) % 2 == 1)

    return walk(shifts.shifts)
