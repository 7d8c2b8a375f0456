"""Polynomial arithmetic over the two-element field, bit-packed in integers.

Bit h of the integer is the coefficient of t**h, so polynomial addition is
XOR and multiplication by t is a left shift.  A finite shift set encodes as
the polynomial with one term per shift; symmetric difference of sets becomes
addition and translation becomes multiplication by a power of t.

A family of shift sets closed under symmetric difference and translation
therefore maps onto an ideal.  `family_from_generators` realizes the ideal
generator as the gcd of the t-power-stripped encodings (so the generator has
constant term 1), `two_element_member` produces a two-element set {0, D} in
the closure, and `closure_membership` decides membership by divisibility.
D = (2**r - 1) * 2**n, with r the lcm of the generator's irreducible factor
degrees; n is found by squaring t**(2**r - 1) modulo the generator until it
is 1, so the chain of squarings that finds D also certifies t**D == 1.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from typing import NamedTuple, Sequence

from .core import BudgetError, ShiftSet

DEGREE_CAP = 1 << 20

_T = 2  # the polynomial t


def _degree(a: int) -> int:
    return a.bit_length() - 1


def _mul(a: int, b: int) -> int:
    if a < b:
        a, b = b, a
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    m, n = _degree(a), _degree(b)
    if m < n:
        return 0, a
    q = 0
    for shift in range(m - n, -1, -1):
        if a >> (n + shift) & 1:
            a ^= b << shift
            q |= 1 << shift
    return q, a


def _mod(a: int, b: int) -> int:
    return _divmod(a, b)[1]


def _div(a: int, b: int) -> int:
    return _divmod(a, b)[0]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


_SPREAD = tuple(
    sum(1 << (2 * i) for i in range(8) if byte >> i & 1) for byte in range(256)
)


def _square(a: int) -> int:
    out = 0
    shift = 0
    while a:
        out |= _SPREAD[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return out


def _factor_degrees(f: int) -> set[int]:
    """Degrees of the distinct irreducible factors of a nonzero polynomial,
    by distinct-degree factorisation."""
    degs: set[int] = set()
    rem = f
    frob = _mod(_T, rem) if _degree(rem) > 0 else 0  # t^(2^d) mod rem as d grows
    d = 0
    while _degree(rem) > 0:
        d += 1
        if 2 * d > _degree(rem):
            # rem has no factor of degree below d, so it is irreducible
            degs.add(_degree(rem))
            break
        frob = _mod(_square(frob), rem)
        g = _gcd(rem, frob ^ _T)
        if _degree(g) > 0:
            degs.add(d)
            while _degree(g) > 0:  # every power of the degree-d factors
                rem = _div(rem, g)
                g = _gcd(rem, g)
            if _degree(rem) == 0:
                break
            frob = _mod(frob, rem)
    return degs


def _pow_t_mod(exponent: int, modulus: int) -> int:
    """t**exponent reduced modulo `modulus`, by left-to-right squaring."""
    if modulus == 0:
        raise ZeroDivisionError("reduction by the zero polynomial")
    if _degree(modulus) == 0:
        return 0
    result = 1
    for bit in bin(exponent)[2:] if exponent else "":
        result = _mod(_square(result), modulus)
        if bit == "1":
            result <<= 1
            if _degree(result) >= _degree(modulus):
                result ^= modulus
    return result


def _check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise BudgetError(f"degree {degree} exceeds the cap {DEGREE_CAP}")


class F2Poly:
    """Immutable dense polynomial over the two-element field.

    The coefficient of t**h is bit h of `bits`; the zero polynomial is 0.
    Degrees beyond DEGREE_CAP are rejected outright.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise ValueError("polynomial bits must be non-negative")
        _check_degree(bits.bit_length() - 1)
        self.bits = bits

    @property
    def degree(self) -> int:
        return _degree(self.bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def constant_term(self) -> int:
        return self.bits & 1

    def __add__(self, other: "F2Poly") -> "F2Poly":
        return F2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        return F2Poly(_mul(self.bits, other.bits))

    def __divmod__(self, other: "F2Poly") -> tuple["F2Poly", "F2Poly"]:
        q, r = _divmod(self.bits, other.bits)
        return F2Poly(q), F2Poly(r)

    def __floordiv__(self, other: "F2Poly") -> "F2Poly":
        return F2Poly(_div(self.bits, other.bits))

    def __mod__(self, other: "F2Poly") -> "F2Poly":
        return F2Poly(_mod(self.bits, other.bits))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, F2Poly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("F2Poly", self.bits))

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        terms = []
        for h in range(self.bits.bit_length()):
            if self.bits >> h & 1:
                terms.append("1" if h == 0 else "t" if h == 1 else f"t^{h}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"F2Poly({self})"


def poly_gcd(a: F2Poly, b: F2Poly) -> F2Poly:
    return F2Poly(_gcd(a.bits, b.bits))


def factor_degrees(a: F2Poly) -> set[int]:
    """Degrees of the distinct irreducible factors of a nonzero polynomial."""
    if a.is_zero:
        raise ValueError("the zero polynomial has no factors")
    return _factor_degrees(a.bits)


def pow_t_mod(exponent: int, modulus: F2Poly) -> F2Poly:
    return F2Poly(_pow_t_mod(exponent, modulus.bits))


class ClosureFamily(NamedTuple):
    """Generator of the ideal spanned by shift-set encodings.

    The generator has constant term 1: the lowest power of t is stripped from
    each input encoding before taking the gcd, and `t_valuations` records the
    stripped power per input (None for an empty input set).
    """

    generator: F2Poly
    t_valuations: tuple[int | None, ...]


def encode(shifts: ShiftSet) -> F2Poly:
    """Polynomial with one term t**h per shift h; the empty set encodes to 0.
    A shift past DEGREE_CAP raises BudgetError before anything is built."""
    _check_degree(shifts.max_shift)
    bits = 0
    for h in shifts:
        bits |= 1 << h
    return F2Poly(bits)


def family_from_generators(sets: Sequence[ShiftSet]) -> ClosureFamily:
    """Closure family generated by the given shift sets under symmetric
    difference and translation."""
    stripped: list[int] = []
    valuations: list[int | None] = []
    for s in sets:
        e = encode(s).bits
        if e == 0:
            valuations.append(None)
            continue
        v = (e & -e).bit_length() - 1
        valuations.append(v)
        stripped.append(e >> v)
    if not stripped:
        raise ValueError("need at least one non-empty generator set")
    return ClosureFamily(F2Poly(reduce(_gcd, stripped)), tuple(valuations))


def two_element_member(fam: ClosureFamily) -> ShiftSet:
    """A two-element member {0, D} of the closure.

    D = (2**r - 1) * 2**n with r the lcm of the irreducible factor degrees
    of the generator f.  Every irreducible factor of f divides
    t**(2**r - 1) - 1 exactly once, and squaring doubles multiplicities, so
    t**(2**r - 1) mod f is squared until it is 1, counting n: 2**n is then
    the least power of two at least the largest multiplicity.  That loop is
    the certificate: it returns only after comparing t**D mod f with 1.  No
    multiplicity exceeds deg f, so past n = deg(f).bit_length() it raises
    AssertionError (explicitly, so that -O keeps the check).
    """
    f = fam.generator.bits
    if f == 0:
        raise ValueError("zero generator: the family is empty")
    if _degree(f) == 0:
        # Degenerate full ideal: {0, 1} is certified by 1 dividing t + 1.
        return ShiftSet((0, 1))
    r = lcm(*_factor_degrees(f))
    max_n = _degree(f).bit_length()
    x = _pow_t_mod((1 << r) - 1, f)  # t^((2^r - 1) * 2^n) mod f
    n = 0
    while x != 1:
        if n == max_n:
            raise AssertionError(f"certificate failed: t^((2^{r}-1)*2^n) != 1 for n <= {max_n}")
        x = _mod(_square(x), f)
        n += 1
    return ShiftSet((0, ((1 << r) - 1) << n))


def closure_membership(fam: ClosureFamily, shifts: ShiftSet) -> bool:
    """Whether the shift set belongs to the closure.

    Membership means the generator divides the encoding once the trailing
    power of t is stripped; since the generator has constant term 1 this is
    plain divisibility, checked termwise so that members with astronomically
    large shifts (such as two_element_member outputs) never need a dense
    encoding.
    """
    f = fam.generator.bits
    if f == 0:
        raise ValueError("zero generator: the family is empty")
    acc = 0
    for h in shifts:
        acc ^= _pow_t_mod(h, f)
    return acc == 0
