"""Command-line surface: every computation with machine-readable output.

Subcommands: density, kappa, verify, spectrum, construct, closure, series.
Results always carry the exact rational as "num/den" next to a decimal
rendering (12 significant digits by default), either as plain text or as one
JSON object per invocation with --json.  Series output is CSV with header
``x,sum,average`` or JSON records, written one sieve window at a time.

Each command imports the layer it runs only when it runs, so building the
parser loads `core` alone, and numpy loads only for verify and series.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure,
3 resource cap (prime budget, degree cap, factoring steps, window length,
integers sieved).
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import DEFAULT_PRIME_BUDGET, DEFAULT_SEGMENT_LENGTH, BudgetError, PrimeSet, ShiftSet

DEFAULT_DIGITS = 12
# Significant digits a decimal rendering may ask for; the exact rational is
# always printed next to it, and far larger precisions exhaust memory.
MAX_DIGITS = 1000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit-code protocol reserves 2 for
    # verification failures, so remap usage errors to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str, what: str) -> list[int]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"invalid {what} token '{token}'") from None
    return values


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid {what} token '{text}'") from None


# Integers longer than this many bits (about 3000 digits) are written out by
# `_int_str`'s divide and conquer: the builtin str refuses past 4300 digits
# and is quadratic below that.
_STR_BITS = 10_000


def _int_str(n: int) -> str:
    """Decimal digits of n at any size, without raising the int-to-str limit.

    Splits n in two halves of bits and joins them as hi * 2**w + lo in exact
    `decimal` arithmetic, whose products are subquadratic, with the powers of
    two memoised (the method of CPython 3.12's Lib/_pylong.py).
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    two = Decimal(2)
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        if w not in powers:
            powers[w] = two**w if w <= _STR_BITS else power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def inner(n: int, w: int) -> Decimal:
        if w <= _STR_BITS:
            return Decimal(n)
        half = w >> 1
        hi = n >> half
        return inner(n - (hi << half), half) + inner(hi, w - half) * power(half)

    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])):
        digits = inner(abs(n), n.bit_length())
    return str(digits) if n > 0 else f"-{digits}"


def rational_str(q: Fraction) -> str:
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def short_rational(q: Fraction) -> str:
    """Rational without the redundant unit denominator, for compact lines."""
    return _int_str(q.numerator) if q.denominator == 1 else rational_str(q)


def _decimals(nums: Iterable[int], dens: Iterable[int], digits: int) -> Iterator[str]:
    """Each num/den correctly rounded to `digits` significant digits: the one
    decimal rendering rule."""
    divide = Context(prec=digits).divide
    return map(str, map(divide, map(Decimal, nums), map(Decimal, dens)))


def decimal_str(q: Fraction, digits: int = DEFAULT_DIGITS) -> str:
    [text] = _decimals([q.numerator], [q.denominator], digits)
    return text


def _digit_count(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") from None
    if not 1 <= digits <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must be from 1 to MAX_DIGITS = {MAX_DIGITS}, got {digits}"
        )
    return digits


def _value_fields(q: Fraction, digits: int) -> dict:
    return {"rational": rational_str(q), "decimal": decimal_str(q, digits)}


def _emit(record: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_density(args) -> int:
    from .density import local_density, local_density_trace

    shifts = ShiftSet(_parse_int_list(args.shifts, "shift"))
    value = local_density(args.prime, shifts)
    lines = [f"eta={rational_str(value)} decimal={decimal_str(value, args.digits)}"]
    record = {
        "command": "density",
        "inputs": {"p": args.prime, "H": list(shifts)},
        "result": {"eta": _value_fields(value, args.digits)},
    }
    if args.trace:
        trace = local_density_trace(args.prime, shifts).lines()
        trace.append(f"value = {rational_str(value)}")
        lines = trace + lines
        record["result"]["trace"] = trace
    _emit(record, args.json, lines)
    return 0


def _cmd_kappa(args) -> int:
    from .spectrum import correlation, truncated_correlation

    pset = PrimeSet(_parse_int_list(args.primes, "prime"))
    shifts = ShiftSet(_parse_int_list(args.shifts, "shift"))
    record = {
        "command": "kappa",
        "inputs": {"P": list(pset), "H": list(shifts)},
    }
    if args.tail_sum is None:
        corr = correlation(pset, shifts)
        lines = [f"kappa={rational_str(corr.value)} decimal={decimal_str(corr.value, args.digits)}"]
        record["result"] = {
            "kappa": _value_fields(corr.value, args.digits),
            "factors": [[p, rational_str(f)] for p, f in corr.factors],
        }
    else:
        tail = _parse_fraction(args.tail_sum, "tail-sum")
        box = truncated_correlation(pset, tail, shifts)
        lines = [
            f"center={rational_str(box.center)} radius={rational_str(box.radius)} "
            f"interval=[{rational_str(box.lower)},{rational_str(box.upper)}]"
        ]
        record["inputs"]["tail_sum"] = rational_str(tail)
        record["result"] = {
            "center": _value_fields(box.center, args.digits),
            "radius": _value_fields(box.radius, args.digits),
            "lower": rational_str(box.lower),
            "upper": rational_str(box.upper),
        }
    _emit(record, args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    from .sieve import SieveConfig, running_average
    from .spectrum import correlation

    pset = PrimeSet(_parse_int_list(args.primes, "prime"))
    shifts = ShiftSet(_parse_int_list(args.shifts, "shift"))
    tol = _parse_fraction(args.tol, "tolerance")
    if tol < 0:
        raise ValueError(f"invalid tolerance token '{args.tol}'")
    exact = correlation(pset, shifts).value
    cfg = SieveConfig(x_max=args.x, segment_length=args.segment_length)
    sieved = running_average(pset, shifts, cfg, threads=args.threads).final.average
    diff = abs(sieved - exact)
    ok = diff <= tol
    lines = [
        f"exact={rational_str(exact)} sieve={rational_str(sieved)} "
        f"diff={decimal_str(diff, args.digits)} tol={rational_str(tol)} "
        f"status={'pass' if ok else 'fail'}"
    ]
    record = {
        "command": "verify",
        "inputs": {"P": list(pset), "H": list(shifts), "x": args.x, "tol": rational_str(tol)},
        "result": {
            "exact": _value_fields(exact, args.digits),
            "sieve": _value_fields(sieved, args.digits),
            "diff": _value_fields(diff, args.digits),
            "status": "pass" if ok else "fail",
        },
    }
    _emit(record, args.json, lines)
    return 0 if ok else 2


def _cmd_spectrum(args) -> int:
    from .spectrum import describe_spectrum

    shifts = ShiftSet(_parse_int_list(args.shifts, "shift"))
    desc = describe_spectrum(shifts)
    lines = [
        f"alpha={short_rational(desc.floor)} witness={desc.witness} "
        f"interval=[{short_rational(desc.lo)},{short_rational(desc.hi)}]"
    ]
    record = {
        "command": "spectrum",
        "inputs": {"H": list(shifts)},
        "result": {
            "alpha": _value_fields(desc.floor, args.digits),
            "witness": desc.witness,
            "interval": [rational_str(desc.lo), rational_str(desc.hi)],
        },
    }
    _emit(record, args.json, lines)
    return 0


def _cmd_construct(args) -> int:
    from .spectrum import construct_prime_set, correlation

    shifts = ShiftSet(_parse_int_list(args.shifts, "shift"))
    target = _parse_fraction(args.target, "target")
    eps = _parse_fraction(args.eps, "eps")
    pset = construct_prime_set(shifts, target, eps, floor=args.floor, budget=args.budget)
    achieved = correlation(pset, shifts).value
    lines = [
        f"primes={','.join(str(p) for p in pset)} "
        f"kappa={rational_str(achieved)} decimal={decimal_str(achieved, args.digits)} "
        f"target={rational_str(target)} eps={rational_str(eps)}"
    ]
    record = {
        "command": "construct",
        "inputs": {
            "H": list(shifts),
            "target": rational_str(target),
            "eps": rational_str(eps),
        },
        "result": {
            "primes": list(pset),
            "kappa": _value_fields(achieved, args.digits),
        },
    }
    _emit(record, args.json, lines)
    return 0


def _cmd_closure(args) -> int:
    from .gf2 import family_from_generators, two_element_member

    sets = [ShiftSet(_parse_int_list(g, "shift")) for g in args.generators]
    fam = family_from_generators(sets)
    member = two_element_member(fam)  # raises unless t^D = 1 mod the generator
    member_str = "{" + ",".join(str(h) for h in member) + "}"
    lines = [f"generator={fam.generator} member={member_str} certificate=ok"]
    record = {
        "command": "closure",
        "inputs": {"generators": [list(s) for s in sets]},
        "result": {
            "generator": str(fam.generator),
            "member": list(member),
            "certified": True,
        },
    }
    _emit(record, args.json, lines)
    return 0


# One sample of the series record as json.dumps(..., sort_keys=True) writes it.
_JSON_SAMPLE = '{{"average": "{}/{}", "decimal": "{}", "sum": {}, "x": {}}}'.format
# Series rows rendered per write.
_ROWS_PER_WRITE = 1 << 16


def _pieces(windows):
    """Each window's samples in slices of at most _ROWS_PER_WRITE.  A window
    holds up to one sample per integer (--stride 1), and its text takes a few
    hundred bytes per sample while it is built, so one write per window would
    hold hundreds of MB at the default segment length."""
    for xs, sums in windows:
        for i in range(0, len(xs), _ROWS_PER_WRITE):
            yield xs[i : i + _ROWS_PER_WRITE], sums[i : i + _ROWS_PER_WRITE]


def _cmd_series(args) -> int:
    import numpy as np

    from .sieve import SieveConfig, series_windows

    pset = PrimeSet(_parse_int_list(args.primes, "prime"))
    shifts = ShiftSet(_parse_int_list(args.shifts, "shift"))
    cfg = SieveConfig(
        x_max=args.x_max,
        segment_length=args.segment_length,
        sample_stride=args.stride,
    )
    # checks every argument, so a rejected input writes nothing
    pieces = _pieces(series_windows(pset, shifts, cfg, threads=args.threads))
    write = sys.stdout.write
    if args.json:
        # json.dumps(record, sort_keys=True) of the whole record, with the
        # samples written piece by piece
        inputs = {"P": list(pset), "H": list(shifts), "x_max": args.x_max}
        write(json.dumps({"command": "series", "inputs": inputs}, sort_keys=True)[:-1])
        write(', "samples": [')
        sep = ""
        for xs, sums in pieces:
            g = np.gcd(sums, xs)
            x, s = xs.tolist(), sums.tolist()
            decimals = _decimals(s, x, args.digits)
            nums, dens = (sums // g).tolist(), (xs // g).tolist()
            write(sep + ", ".join(map(_JSON_SAMPLE, nums, dens, decimals, s, x)))
            sep = ", "
        write("]}\n")
    else:
        write("x,sum,average\n")
        for xs, sums in pieces:
            x, s = xs.tolist(), sums.tolist()
            write("".join(map("{},{},{}\n".format, x, s, _decimals(s, x, args.digits))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.add_argument(
            "--digits",
            type=_digit_count,
            default=DEFAULT_DIGITS,
            help=f"decimal digits (1 to {MAX_DIGITS})",
        )

    p = sub.add_parser("density", help="exact local density at one prime")
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("-H", "--shifts", required=True, help="comma-separated shifts")
    p.add_argument("--trace", action="store_true", help="print the recursion steps")
    common(p)
    p.set_defaults(run=_cmd_density)

    p = sub.add_parser("kappa", help="exact correlation product over a prime set")
    p.add_argument("-P", "--primes", required=True, help="comma-separated primes ('' = empty)")
    p.add_argument("-H", "--shifts", required=True)
    p.add_argument("--tail-sum", help="tail bound on sum 1/(p+1) for a truncated set")
    common(p)
    p.set_defaults(run=_cmd_kappa)

    p = sub.add_parser("verify", help="cross-check the exact value against the sieve")
    p.add_argument("-P", "--primes", required=True)
    p.add_argument("-H", "--shifts", required=True)
    p.add_argument("-x", type=int, required=True, help="sieve up to x")
    p.add_argument("--tol", required=True, help="allowed |sieve - exact|")
    p.add_argument("--segment-length", type=int, default=DEFAULT_SEGMENT_LENGTH)
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("spectrum", help="floor, witness prime, attainable interval")
    p.add_argument("-H", "--shifts", required=True)
    common(p)
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("construct", help="prime set achieving a target correlation")
    p.add_argument("-H", "--shifts", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--floor", type=int, default=None, help="scan primes above this")
    p.add_argument("--budget", type=int, default=DEFAULT_PRIME_BUDGET, help="max primes scanned")
    common(p)
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("closure", help="two-element member of a closure family")
    p.add_argument(
        "-G",
        "--generator",
        dest="generators",
        action="append",
        required=True,
        help="comma-separated shift set; repeat for several generators",
    )
    common(p)
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("series", help="running averages as CSV or JSON")
    p.add_argument("-P", "--primes", required=True)
    p.add_argument("-H", "--shifts", required=True)
    p.add_argument("--x-max", type=int, required=True)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--segment-length", type=int, default=DEFAULT_SEGMENT_LENGTH)
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(run=_cmd_series)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetError as exc:
        print(f"multcorr: resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"multcorr: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
