"""Tests of the benchmark's own oracles, checks and input generators.

    python3 -m pytest perfbench -q

Every check must accept the program's real output and reject a perturbed
one.  The operations here are small versions of the workloads' operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from multcorr import cli  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def rejects(argv, out: str) -> bool:
    try:
        checks.check(argv, out)
    except checks.CheckError:
        return True
    return False


# ---------------------------------------------------------------- oracles


def test_period_density_known_values():
    assert checks.period_density(2, (0, 4, 6)) == Fraction(1, 6)
    assert checks.period_density(5, (0,)) == Fraction(1, 6)
    assert checks.prime_factor(2, (0, 4, 6)) * checks.prime_factor(3, (0, 4, 6)) == Fraction(1, 9)
    assert checks.prime_factor(7, (0, 1)) == 1 - Fraction(4, 8)


@pytest.mark.parametrize("primes", [(2,), (3, 5), (2, 3, 7), (2, 11, 13)])
def test_singleton_closed_form_matches_count(primes):
    xs = checks.np.arange(1, 5001, dtype=checks.np.int64)
    brute = checks.brute_signed_sums(primes, (0,), 5000)
    assert checks.np.array_equal(checks.singleton_signed_sums(primes, xs), brute)


def test_brute_sums_match_pointwise_signs():
    def sign(primes, n):
        count = 0
        for p in primes:
            while n % p == 0:
                n //= p
                count += 1
        return -1 if count % 2 else 1

    primes, shifts = (2, 5), (0, 1, 3)
    want = 0
    sums = checks.brute_signed_sums(primes, shifts, 400)
    for x in range(1, 401):
        want += sign(primes, x) * sign(primes, x + 1) * sign(primes, x + 3)
        assert sums[x - 1] == want


def test_greedy_replay_predicts_the_last_prime_taken():
    for shifts, target, eps in [
        ((0, 14), Fraction(3, 10), Fraction(1, 10**5)),
        ((0, 2, 9), Fraction(61, 100), Fraction(1, 10**5)),
        ((0, 1), Fraction(-1, 5), Fraction(1, 10**4)),
    ]:
        argv = ["construct", "-H", ",".join(map(str, shifts)), f"--target={target}", "--eps", str(eps)]
        primes = json.loads(run_cli(argv + ["--json"]))["result"]["primes"]
        if target < 0:
            primes.remove(workloads.spectrum_floor(shifts)[1])
        assert workloads.greedy_scan_end(shifts, target, eps) == max(primes)


# ----------------------------------------------------------------- checks


def _replace_field(out: str, key: str, value: str) -> str:
    fields = checks._fields(out)
    fields[key] = value
    return " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"


def test_verify_check():
    argv = ["verify", "-P", "2,5,7,11", "-H", "0,4,6", "-x", "200000", "--tol", "1/20"]
    out = run_cli(argv)
    checks.check(argv, out)
    exact = Fraction(checks._fields(out)["exact"])
    off = f"{exact.numerator + 1}/{exact.denominator}"  # off by 1/den
    assert rejects(argv, _replace_field(out, "exact", off))
    sieve = Fraction(checks._fields(out)["sieve"]) * 200000
    assert rejects(argv, _replace_field(out, "sieve", f"{int(sieve) + 1}/200000"))  # parity
    record = json.loads(run_cli(argv + ["--json"]))
    checks.check(argv + ["--json"], json.dumps(record))
    record["result"]["status"] = "fail"
    assert rejects(argv + ["--json"], json.dumps(record))


@pytest.mark.parametrize("shifts", ["0", "0,3"])
def test_series_check(shifts):
    argv = ["series", "-P", "2,3", "-H", shifts, "--x-max", "300000", "--stride", "1000"]
    out = run_cli(argv)
    checks.check(argv, out)
    lines = out.split("\n")
    x, s, avg = lines[5].split(",")
    lines[5] = f"{x},{int(s) + 2},{avg}"  # one sample sum off by 2
    assert rejects(argv, "\n".join(lines))
    record = json.loads(run_cli(argv + ["--json"]))
    checks.check(argv + ["--json"], json.dumps(record))
    record["samples"][-1]["sum"] += 2
    assert rejects(argv + ["--json"], json.dumps(record))


def test_series_check_closed_form_reaches_large_x():
    argv = ["series", "-P", "3,5", "-H", "0", "--x-max", "2000000", "--stride", "500000"]
    out = run_cli(argv)
    checks.check(argv, out)
    lines = out.split("\n")
    x, s, avg = lines[-2].split(",")
    lines[-2] = f"{x},{int(s) - 2},{avg}"
    assert rejects(argv, "\n".join(lines))


def test_spectrum_check():
    argv = ["spectrum", "-H", "0,5,12,30,31,77"]
    out = run_cli(argv)
    checks.check(argv, out)
    alpha = Fraction(checks._fields(out)["alpha"])
    off = alpha + Fraction(1, alpha.denominator)
    assert rejects(argv, _replace_field(out, "alpha", str(off)))
    assert rejects(argv, _replace_field(out, "witness", "101"))


def test_spectrum_check_rejects_a_floor_above_another_exceptional_factor():
    # The floor -5/18 is at 3.  The exceptional prime 2 has factor 1/8, which
    # is below the closed form 2/9 at q = 17, so this witness passes every
    # other rule.
    argv = ["spectrum", "-H", "0,7,8,20,44,52,55"]
    out = run_cli(argv)
    checks.check(argv, out)
    assert checks._fields(out)["alpha"] == "-5/18"
    wrong = _replace_field(_replace_field(out, "alpha", "1/8"), "witness", "2")
    assert rejects(argv, _replace_field(wrong, "interval", "[0,1]"))
    assert rejects(argv, _replace_field(wrong, "interval", "[-5/18,1]"))


def test_construct_check():
    argv = ["construct", "-H", "0,14", "--target=3/10", "--eps", "1/100000"]
    out = run_cli(argv)
    checks.check(argv, out)
    kappa = Fraction(checks._fields(out)["kappa"])
    assert rejects(argv, _replace_field(out, "kappa", f"{kappa.numerator + 1}/{kappa.denominator}"))
    primes = checks._fields(out)["primes"].split(",")
    assert rejects(argv, _replace_field(out, "primes", ",".join(primes[:-1] + ["91"])))


def test_closure_check():
    ops = workloads.closure_pass(random.Random(7), set())
    argv = ops[0].argv
    out = run_cli(argv)
    checks.check(argv, out)
    member = checks._fields(out)["member"].strip("{}").split(",")
    big_d = int(member[1])
    assert rejects(argv, _replace_field(out, "member", f"{{0,{big_d + 1}}}"))  # D+1
    assert rejects(argv, _replace_field(out, "generator", "1+t"))
    record = json.loads(run_cli(list(argv) + ["--json"]))
    checks.check(list(argv) + ["--json"], json.dumps(record))
    record["result"]["member"][1] *= 2
    assert rejects(list(argv) + ["--json"], json.dumps(record))


# ------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_passes_are_seeded_and_inputs_distinct(name):
    make = workloads.WORKLOADS[name]
    first = [make(random.Random(f"{name}:5:{k}"), set()) for k in range(2)]
    again = [make(random.Random(f"{name}:5:{k}"), set()) for k in range(2)]
    assert first == again
    seen: set = set()
    argvs = [op.argv for k in range(3) for op in make(random.Random(f"{name}:5:{k}"), seen)]
    faults = [a for a in argvs if a[-1] == workloads.ITEM4_GENERATOR]
    assert len(set(argvs)) == len(argvs) - max(len(faults) - 1, 0)


def test_closure_generators_keep_d_below_the_digit_limit():
    for op in workloads.closure_pass(random.Random(3), set())[:-1]:
        argv = [a for a in op.argv if a != "--json"] + ["--json"]
        out = run_cli(argv)
        checks.check(argv, out)
        big_d = json.loads(out)["result"]["member"][1]
        assert len(str(big_d)) < 4300


def test_unreadable_output_is_wrong_output():
    assert rejects(["verify", "-P", "2", "-H", "0", "-x", "10", "--tol", "1"], "garbage\n")
    assert rejects(["series", "-P", "2", "-H", "0", "--x-max", "10", "--stride", "5", "--json"], "{")
