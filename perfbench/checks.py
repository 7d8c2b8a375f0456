"""Independent checks of every operation's output.

Each check recomputes what the CLI printed by a route that shares no code
with the package: closed forms, counts over one period, division by prime
powers, sympy's factoring over the integers and over GF(2).  A check raises
``CheckError`` on the first disagreement.

The runner does not check in its own process: it starts this file as a
checker process (``serve``), so that parsing the large outputs and importing
sympy never count in the run process's peak RSS.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import numpy as np

SMALL_X = 200_000  # samples up to here are recounted by division
# A spectrum floor must be at most the factor of every exceptional prime
# whose period p**K is at most this.  For shifts below 1e4 that covers every
# exceptional prime below 316, where the exact workload's floors fall (at
# primes below 40 in trials); 1e6 would reach 1000 but more than triple
# the time the exact checks take.
FLOOR_PERIOD = 10**5


class CheckError(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ----------------------------------------------------------------- arithmetic


def _period(p: int, shifts: tuple[int, ...]) -> int:
    """p**K, the smallest power of p above every pairwise difference."""
    span, pk = max(shifts) - min(shifts), p
    while pk <= span:
        pk *= p
    return pk


def period_density(p: int, shifts: tuple[int, ...]) -> Fraction:
    """Density of n with sum over h of v_p(n+h) odd, by one period of p**K.

    p**K exceeds every pairwise difference, so at most one n+h is divisible
    by p**K; its valuation beyond K is that of a uniform integer, which is
    odd with probability 1/(p+1).  Only residues with some n+h divisible by p
    can have an odd sum, so the count runs over those classes mod p alone.
    """
    modulus = _period(p, shifts)
    # v_p(j*p) capped at K, for j*p below the period, by sieving the powers.
    capped = np.ones(modulus // p, dtype=np.int64)
    pj = p * p
    while pj <= modulus:
        capped[:: pj // p] += 1
        pj *= p
    # One row per shift h: the multiples m = n+h of p, for the residues n
    # with p | n+h.  Rows of shifts in the same class mod p hold the same n
    # and are summed together.
    hs = np.array(sorted(shifts, key=lambda h: -h % p), dtype=np.int64)
    classes = -hs % p
    firsts = np.flatnonzero(np.r_[True, classes[1:] != classes[:-1]])
    m = (classes[:, None] + p * np.arange(modulus // p, dtype=np.int64) + hs[:, None]) % modulus
    valuation = capped[m // p]
    odd = (np.add.reduceat(valuation, firsts, axis=0) & 1).astype(bool)
    deep = np.logical_or.reduceat(m == 0, firsts, axis=0)
    odd_deep = int(np.count_nonzero(odd & deep))
    shallow_odd = int(np.count_nonzero(odd)) - odd_deep
    deep_even = int(np.count_nonzero(deep)) - odd_deep
    return (shallow_odd + Fraction(odd_deep * p + deep_even, p + 1)) / modulus


def prime_factor(p: int, shifts: tuple[int, ...]) -> Fraction:
    """1 - 2*eta_p: the closed form when p divides no pairwise difference,
    else a count over one period."""
    if all((b - a) % p for i, a in enumerate(shifts) for b in shifts[i + 1 :]):
        return 1 - Fraction(2 * len(shifts), p + 1)
    return 1 - 2 * period_density(p, shifts)


def product_of_factors(primes, shifts) -> Fraction:
    value = Fraction(1)
    for p in primes:
        value *= prime_factor(p, shifts)
    return value


def brute_signed_sums(primes, shifts, x_max: int) -> np.ndarray:
    """S(x) for x = 1..x_max, counting the prime-power divisors of every
    n + h by division."""
    n = np.arange(1, x_max + max(shifts) + 1, dtype=np.int64)
    omega = np.zeros(len(n), dtype=np.int64)
    for p in primes:
        pk = p
        while pk <= n[-1]:
            omega += n % pk == 0
            pk *= p
    total = sum(omega[h : h + x_max] for h in shifts)
    return np.cumsum(1 - 2 * (total & 1))


def singleton_signed_sums(primes, xs: np.ndarray) -> np.ndarray:
    """S(x) for H = {0} at every x in xs, in closed form.

    With lambda(p) = -1 on P, sum over n <= x of lambda(n) equals
    sum over P-smooth m <= x of (-1)^Omega(m) * 2^omega(m) * floor(x/m):
    split n = m*k with m P-smooth and k coprime to P, and count the k by
    inclusion-exclusion; the Moebius signs cancel the parity of each divisor.
    """
    top = int(xs.max())
    smooth = [(1, 0, 0)]  # (m, Omega(m), omega(m))
    for p in primes:
        grown = []
        for m, big, small in smooth:
            k, pk = 1, p
            while m * pk <= top:
                grown.append((m * pk, big + k, small + 1))
                k, pk = k + 1, pk * p
        smooth += grown
    out = np.zeros(len(xs), dtype=np.int64)
    for m, big, small in smooth:
        out += (-1) ** big * (1 << small) * (xs // m)
    return out


# -------------------------------------------------------------------- parsing


def _flag(argv, name: str) -> str:
    for i, token in enumerate(argv):
        if token == name:
            return argv[i + 1]
        if token.startswith(name + "="):
            return token[len(name) + 1 :]
    raise KeyError(name)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


# --------------------------------------------------------------------- checks


def check_verify(argv, out: str) -> None:
    primes = _ints(_flag(argv, "-P"))
    shifts = _ints(_flag(argv, "-H"))
    x = int(_flag(argv, "-x"))
    tol = Fraction(_flag(argv, "--tol"))
    if "--json" in argv:
        res = json.loads(out)["result"]
        exact = Fraction(res["exact"]["rational"])
        sieve = Fraction(res["sieve"]["rational"])
        status = res["status"]
    else:
        got = _fields(out)
        exact, sieve, status = Fraction(got["exact"]), Fraction(got["sieve"]), got["status"]
    require(exact == product_of_factors(primes, shifts), "exact product differs")
    signed = sieve * x
    require(signed.denominator == 1, "sieve average is not S/x")
    require(abs(signed) <= x and (signed - x) % 2 == 0, "impossible signed sum")
    require(status == ("pass" if abs(sieve - exact) <= tol else "fail"), "wrong status")


def check_series(argv, out: str) -> None:
    primes = _ints(_flag(argv, "-P"))
    shifts = _ints(_flag(argv, "-H"))
    x_max = int(_flag(argv, "--x-max"))
    stride = int(_flag(argv, "--stride"))
    if "--json" in argv:
        samples = json.loads(out)["samples"]
        xs = np.array([s["x"] for s in samples], dtype=np.int64)
        sums = np.array([s["sum"] for s in samples], dtype=np.int64)
        num, den = np.array([s["average"].split("/") for s in samples], dtype=np.int64).T
        g = np.gcd(sums, xs)
        require(np.array_equal(num, sums // g) and np.array_equal(den, xs // g), "average is not S/x")
    else:
        lines = out.split("\n")
        require(lines[0] == "x,sum,average" and lines[-1] == "", "bad CSV framing")
        rows = np.array([line.split(",")[:2] for line in lines[1:-1]], dtype=np.int64)
        xs, sums = rows[:, 0], rows[:, 1]
    want = list(range(stride, x_max + 1, stride))
    if want[-1] != x_max:
        want.append(x_max)
    require(np.array_equal(xs, np.array(want, dtype=np.int64)), "sample positions differ")
    dx = np.diff(xs, prepend=0)
    ds = np.diff(sums, prepend=0)
    require(bool(np.all(np.abs(ds) <= dx)) and bool(np.all((ds - dx) % 2 == 0)), "|dS| > dx or parity")
    small = xs <= SMALL_X
    if small.any():
        brute = brute_signed_sums(primes, shifts, int(xs[small][-1]))
        require(np.array_equal(sums[small], brute[xs[small] - 1]), "small-x sums differ")
    if shifts == (0,):
        require(np.array_equal(sums, singleton_signed_sums(primes, xs)), "closed-form sums differ")


def check_spectrum(argv, out: str) -> None:
    import sympy

    shifts = _ints(_flag(argv, "-H"))
    if "--json" in argv:
        res = json.loads(out)["result"]
        alpha, witness = Fraction(res["alpha"]["rational"]), int(res["witness"])
        lo, hi = (Fraction(v) for v in res["interval"])
    else:
        got = _fields(out)
        alpha, witness = Fraction(got["alpha"]), int(got["witness"])
        lo, hi = (Fraction(v) for v in got["interval"].strip("[]").split(","))
    exceptional = set()
    for i, a in enumerate(shifts):
        for b in shifts[i + 1 :]:
            exceptional.update(sympy.factorint(b - a))
    q = 2
    while q in exceptional:
        q = sympy.nextprime(q)
    closed = 1 - Fraction(2 * len(shifts), q + 1)
    require(alpha <= closed, "floor above the closed form at the first non-exceptional prime")
    for p in exceptional:
        if _period(p, shifts) <= FLOOR_PERIOD:
            require(alpha <= 1 - 2 * period_density(p, shifts), f"floor above the factor at exceptional {p}")
    if witness == q:
        require(alpha == closed, "floor is not the factor at its witness")
    else:
        require(witness in exceptional, "witness is neither exceptional nor the first other prime")
        require(alpha == 1 - 2 * period_density(witness, shifts), "floor is not the factor at its witness")
    require(lo == min(alpha, 0) and hi == 1, "bad interval")


def check_construct(argv, out: str) -> None:
    import sympy

    shifts = _ints(_flag(argv, "-H"))
    target = Fraction(_flag(argv, "--target"))
    eps = Fraction(_flag(argv, "--eps"))
    if "--json" in argv:
        res = json.loads(out)["result"]
        primes, kappa = tuple(res["primes"]), Fraction(res["kappa"]["rational"])
    else:
        got = _fields(out)
        primes, kappa = _ints(got["primes"]), Fraction(got["kappa"])
    require(len(set(primes)) == len(primes) and all(sympy.isprime(p) for p in primes), "not distinct primes")
    value = product_of_factors(primes, shifts)
    require(value == kappa, "product differs")
    require(abs(value - target) <= eps, "product not within eps of the target")


def _poly_bits(text: str) -> int:
    bits = 0
    for term in text.split("+"):
        bits |= 1 << (0 if term == "1" else 1 if term == "t" else int(term[2:]))
    return bits


def _coeffs(bits: int) -> list[int]:
    return [int(b) for b in bin(bits)[2:]]


def check_closure(argv, out: str) -> None:
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_gcd, gf_rem

    sets = [_ints(argv[i + 1]) for i, t in enumerate(argv) if t == "-G"]
    if "--json" in argv:
        res = json.loads(out)["result"]
        generator, member, certified = res["generator"], res["member"], res["certified"]
    else:
        got = _fields(out)
        generator = got["generator"]
        member = [int(h) for h in got["member"].strip("{}").split(",")]
        certified = got["certificate"] == "ok"
    g = _coeffs(_poly_bits(generator))
    stripped = []
    for s in sets:
        e = sum(1 << h for h in s)
        stripped.append(_coeffs(e >> ((e & -e).bit_length() - 1)))
        require(gf_rem(stripped[-1], g, 2, ZZ) == [], "generator does not divide an input")
    gcd = stripped[0]
    for e in stripped[1:]:
        gcd = gf_gcd(gcd, e, 2, ZZ)
    require(gcd == g, "generator is not the gcd of the inputs")
    factors = gf_factor(g, 2, ZZ)[1]
    r = math.lcm(*(len(f) - 1 for f, _ in factors))
    n = (max(e for _, e in factors) - 1).bit_length()
    require(member == [0, ((1 << r) - 1) << n], "member is not {0, (2^r-1)*2^n}")
    require(certified, "certificate not ok")


CHECKS = {
    "verify": check_verify,
    "series": check_series,
    "spectrum": check_spectrum,
    "construct": check_construct,
    "closure": check_closure,
}


def check(argv, out: str) -> None:
    """Check one operation's stdout; output that does not parse is wrong too."""
    try:
        CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # JSON errors are ValueErrors
        raise CheckError(f"unreadable output: {exc!r}") from exc


def serve(requests, replies) -> None:
    """Checker process: keep one JSON ``[argv, stdout]`` per request line
    until the requests end, then check them all and reply with one JSON list
    of problems.

    Lines are only stored while they arrive, so the checker does not compete
    with the timed operations for the machine.
    """
    replies.write("ready\n")
    replies.flush()
    kept = list(requests)
    problems = []
    for line in kept:
        argv, out = json.loads(line)
        try:
            check(argv, out)
        except CheckError as exc:
            problems.append(f"wrong output ({exc}): {' '.join(argv)[:200]}")
    replies.write(json.dumps(problems) + "\n")


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
