import contextlib
import io
import json
import random
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

import multcorr.cli
import multcorr.sieve
from multcorr import PrimeSet, ShiftSet, correlation, shifted_sign
from multcorr.cli import _int_str, decimal_str, main, rational_str, short_rational
from multcorr.core import MAX_SEGMENT_LENGTH
from fractions import Fraction

from oracles import primes_upto


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def int_str_limit(digits):
    """Python's int-to-str digit limit set to `digits` (0 lifts it) inside
    the block only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def old_decimal(q, digits):
    """The decimal rendering as it was first written, kept as the oracle."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def old_series_stdout(primes, shifts, x_max, stride, digits, as_json):
    """`multcorr series` stdout rendered one sample at a time from pointwise
    signs: a Fraction and a Decimal per sample, and one json.dumps."""
    pset, hset = PrimeSet(primes), ShiftSet(shifts)
    xs = [*range(stride, x_max, stride), x_max] if stride else [x_max]
    running, sums, sampled = 0, [], set(xs)
    for n in range(1, x_max + 1):
        running += shifted_sign(pset, hset, n)
        if n in sampled:
            sums.append(running)
    if as_json:
        samples = [
            {
                "x": x,
                "sum": s,
                "average": f"{Fraction(s, x).numerator}/{Fraction(s, x).denominator}",
                "decimal": old_decimal(Fraction(s, x), digits),
            }
            for x, s in zip(xs, sums)
        ]
        record = {
            "command": "series",
            "inputs": {"P": list(pset), "H": list(hset), "x_max": x_max},
            "samples": samples,
        }
        return json.dumps(record, sort_keys=True) + "\n"
    rows = (f"{x},{s},{old_decimal(Fraction(s, x), digits)}\n" for x, s in zip(xs, sums))
    return "x,sum,average\n" + "".join(rows)


class TestDensityCommand:
    def test_worked_values(self, capsys):
        code, out, _ = run_cli(capsys, "density", "-p", "2", "-H", "0,4,6")
        assert code == 0 and "1/6" in out
        code, out, _ = run_cli(capsys, "density", "-p", "3", "-H", "0,4,6")
        assert code == 0 and "5/12" in out
        code, out, _ = run_cli(capsys, "density", "-p", "5", "-H", "7")
        assert code == 0 and "1/6" in out

    def test_trace_replays_derivation(self, capsys):
        code, out, _ = run_cli(capsys, "density", "-p", "2", "-H", "0,4,6", "--trace")
        assert code == 0
        assert "rescale" in out and "split" in out
        assert "value = 1/6" in out

    def test_bad_shift_token_names_it(self, capsys):
        code, _, err = run_cli(capsys, "density", "-p", "2", "-H", "0,x,6")
        assert code == 1 and "'x'" in err

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "density", "-p", "4", "-H", "0")
        assert code == 1 and "not prime" in err

    def test_pseudoprime_past_the_input_width_rejected(self, capsys):
        # 1287836182261 * 2575672364521 passes Miller-Rabin to bases 2..37
        code, out, err = run_cli(capsys, "density", "-p", "3317044064679887385961981", "-H", "0,1")
        assert code == 1 and out == "" and "exceeds the 64-bit input width" in err


SPAN_PAST_64_BITS = str(2**1500)


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "-p", "2"],
        ["density", "-p", "2", "--trace"],
        ["kappa", "-P", "2"],
        ["kappa", "-P", "2", "--tail-sum", "1/100"],
        ["verify", "-P", "2", "-x", "100", "--tol", "1"],
        ["spectrum"],
        ["construct", "--target", "1/2", "--eps", "1e-2"],
    ],
)
def test_exact_commands_refuse_a_span_past_64_bits(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "-H", f"0,{SPAN_PAST_64_BITS}")
    assert code == 1 and out == ""
    assert "shift span of 1501 bits exceeds the 64-bit input width" in err
    assert "Traceback" not in err


class TestKappaCommand:
    def test_vanishing(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "-P", "3", "-H", "1,2")
        assert code == 0 and "0/1" in out

    def test_single_prime(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "-P", "2", "-H", "0")
        assert code == 0 and "1/3" in out

    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "-P", "2,3", "-H", "0,4,6")
        assert code == 0 and "1/9" in out

    def test_truncated_interval(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "-P", "2,3", "-H", "0,1", "--tail-sum", "1/100")
        assert code == 0 and "radius=1/25" in out

    def test_exact_value_past_the_digit_limit(self, capsys):
        primes = primes_upto(60_000)
        with int_str_limit(4300):
            code, out, _ = run_cli(capsys, "kappa", "-P", ",".join(map(str, primes)), "-H", "0,3")
        exact = correlation(PrimeSet(primes), ShiftSet([0, 3])).value
        with int_str_limit(0):
            expected = f"kappa={exact.numerator}/{exact.denominator} "
        assert code == 0 and out.startswith(expected) and len(expected) > 10_000


class TestVerifyCommand:
    def test_passes_within_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "-P", "2", "-H", "0", "-x", "10000000", "--tol", "0.01"
        )
        assert code == 0 and "exact=1/3" in out and "status=pass" in out

    def test_product_against_sieve(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "-P", "2,3", "-H", "0,4,6", "-x", "10000000", "--tol", "0.01"
        )
        assert code == 0 and "exact=1/9" in out and "status=pass" in out

    def test_empty_prime_set_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "-P", "", "-H", "0,5", "-x", "1000", "--tol", "0"
        )
        assert code == 0 and "exact=1/1" in out and "sieve=1/1" in out

    def test_fails_with_exit_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "-P", "2", "-H", "0", "-x", "100", "--tol", "0"
        )
        assert code == 2 and "status=fail" in out

    def test_threads_do_not_change_output(self, capsys):
        args = ["verify", "-P", "2,3", "-H", "0,2", "-x", "100000", "--tol", "0.05"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args, "--threads", "3")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "-P", "2", "-H", "0", "--x-max", "100", "--threads", "0"],
            ["verify", "-P", "2", "-H", "0", "-x", "100", "--tol", "1", "--threads", "-3"],
        ],
    )
    def test_thread_count_below_one_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "threads" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-P", "2", "-H", "0", "-x", "100", "--tol", "1"],
            ["series", "-P", "2", "-H", "0", "--x-max", "100"],
        ],
    )
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_segment_length_past_the_cap_exits_three(self, capsys, argv, fmt):
        # x is 100, so even an unchecked window would hold 100 bytes
        too_long = str(MAX_SEGMENT_LENGTH + 1)
        code, out, err = run_cli(capsys, *argv, "--segment-length", too_long, *fmt)
        assert code == 3 and out == ""
        assert f"segment_length {too_long} exceeds the cap of MAX_SEGMENT_LENGTH = 67108864" in err


class TestSpectrumCommand:
    def test_negative_floor(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "-H", "0,1")
        assert code == 0
        assert "alpha=-1/3 witness=2 interval=[-1/3,1]" in out

    def test_clamped_interval(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "-H", "0")
        assert code == 0
        assert "alpha=1/3 witness=2 interval=[0,1]" in out

    def test_factoring_cap_exit_code(self, capsys):
        # the difference is a product of two 20-digit primes, far out of
        # reach of the Pollard-Brent step cap
        t0 = time.perf_counter()
        shifts = "0,300000000000000001940000000000000002091"
        code, out, err = run_cli(capsys, "spectrum", "-H", shifts)
        assert code == 3 and out == "" and "POLLARD_STEPS" in err
        assert time.perf_counter() - t0 < 20


class TestConstructCommand:
    def test_round_trip_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "-H", "0", "--target", "1/2", "--eps", "1e-3"
        )
        assert code == 0 and "primes=" in out and "kappa=" in out

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "construct", "-H", "0", "--target", "577/1000", "--eps", "1e-9", "--budget", "3",
        )
        assert code == 3 and "resource cap" in err

    def test_budget_exit_code_with_a_product_past_the_digit_limit(self, capsys):
        # the product of 7000 factors has more digits than int-to-str allows
        code, _, err = run_cli(
            capsys,
            "construct", "-H", "0", "--target", "1/1000000000", "--eps", "1e-12",
            "--budget", "7000",
        )
        assert code == 3 and "budget of 7000 primes" in err

    def test_unattainable_target(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "-H", "0", "--target=-1/2", "--eps", "1e-3"
        )
        assert code == 1 and "outside" in err

    def test_negative_target_spelled_with_equals(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "-H", "0,1", "--target=-1/4", "--eps", "1e-3"
        )
        assert code == 0 and "primes=2," in out


class TestClosureCommand:
    def test_single_generator(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "-G", "0,1,2")
        assert code == 0
        assert "member={0,3}" in out and "certificate=ok" in out

    def test_multiple_generators(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "-G", "0,1,2", "-G", "0,3")
        assert code == 0 and "generator=1+t+t^2" in out

    def test_all_empty_rejected(self, capsys):
        code, _, err = run_cli(capsys, "closure", "-G", "")
        assert code == 1 and "non-empty" in err

    def test_unit_generator_certified(self, capsys):
        # Generator 1 generates every set, so {0,1} is a certified member.
        for argv in (["-G", "0"], ["-G", "0,1", "-G", "0,1,2"]):
            code, out, _ = run_cli(capsys, "closure", *argv)
            assert code == 0
            assert "generator=1 member={0,1} certificate=ok" in out


class TestSeriesCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "-P", "2", "-H", "0", "--x-max", "1000", "--stride", "250"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,sum,average"
        assert len(lines) == 5
        x, total, avg = lines[1].split(",")
        assert int(x) == 250 and abs(int(total)) <= 250
        assert abs(float(avg) - int(total) / 250) < 1e-9

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "series", "-P", "2,3", "-H", "0,1", "--x-max", "5000", "--stride", "1000",
            "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert json.dumps(record, sort_keys=True) == out.strip()
        assert [s["x"] for s in record["samples"]] == [1000, 2000, 3000, 4000, 5000]

    # (P, H, x_max, stride); with segment length 64 a window spans 64 - max(H)
    # values of n: 62 for H={0,2}, so stride 62 samples a window's last
    # integer and 63 the next window's first; 300 and 301 are equal to and
    # above x_max, None samples x_max alone.
    CASES = [
        ("2,5", "0,2", 400, 62),
        ("2,5", "0,2", 400, 63),
        ("3", "0", 500, 7),
        ("2,3,7", "0,1,5", 300, 1),
        ("2,3,7", "0,1,5", 300, 300),
        ("2,3,7", "0,1,5", 300, 301),
        ("5,11", "0,4", 450, None),
        ("", "0,9", 200, 13),
    ]

    @pytest.mark.parametrize("digits", [3, 20])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("primes,shifts,x_max,stride", CASES)
    def test_stdout_matches_old_rendering(
        self, capsys, primes, shifts, x_max, stride, as_json, threads, digits
    ):
        argv = ["series", "-P", primes, "-H", shifts, "--x-max", str(x_max)]
        argv += ["--segment-length", "64", "--threads", str(threads), "--digits", str(digits)]
        if stride:
            argv += ["--stride", str(stride)]
        if as_json:
            argv.append("--json")
        code, out, _ = run_cli(capsys, *argv)
        want = old_series_stdout(
            [int(p) for p in primes.split(",") if p],
            [int(h) for h in shifts.split(",")],
            x_max, stride, digits, as_json,
        )
        assert code == 0 and out == want

    @pytest.mark.parametrize("as_json", [False, True])
    def test_windows_written_in_pieces_match_old_rendering(self, capsys, monkeypatch, as_json):
        # windows of 62 samples written 5 rows at a time
        monkeypatch.setattr(multcorr.cli, "_ROWS_PER_WRITE", 5)
        argv = ["series", "-P", "2,5", "-H", "0,2", "--x-max", "300", "--stride", "1"]
        argv += ["--segment-length", "64"] + (["--json"] if as_json else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == old_series_stdout([2, 5], [0, 2], 300, 1, 12, as_json)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_each_window_is_written_before_the_next_is_sieved(self, monkeypatch, as_json):
        # 1000 values of n in windows of 100 with a sample every 10: ten sieve
        # calls, each made after the rows of every earlier window were written
        out = io.StringIO()
        written_before_call = []
        sieve = multcorr.sieve.shifted_parities

        def recording(*args):
            text = out.getvalue()
            rows = text.count('"x": ') if as_json else len(text.splitlines()[1:])
            written_before_call.append(rows)
            return sieve(*args)

        monkeypatch.setattr(multcorr.sieve, "shifted_parities", recording)
        argv = ["series", "-P", "2,3", "-H", "0", "--x-max", "1000", "--stride", "10"]
        argv += ["--segment-length", "100"] + (["--json"] if as_json else [])
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert written_before_call == list(range(0, 100, 10))

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["-H", "0", "--x-max", "100", "--threads", "0"], "threads"),
            (["-H", "0,9", "--x-max", "100", "--segment-length", "9"], "segment_length"),
            (["-H", "0,9", "--x-max", str(2**63 - 9)], "input width"),
            (["-H", "0", "--x-max", "100", "--digits", "0"], "--digits"),
            (["-H", "0", "--x-max", "100", "--digits", "-1"], "--digits"),
            (["-H", "0", "--x-max", "100", "--digits", str(10**20)], "MAX_DIGITS = 1000"),
        ],
    )
    def test_rejected_input_writes_nothing(self, capsys, argv, message, fmt):
        try:
            code = main(["series", "-P", "2", *argv, *fmt])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and message in captured.err


class TestProtocol:
    def test_json_round_trip_all_commands(self, capsys):
        cases = [
            ["density", "-p", "2", "-H", "0,4,6"],
            ["kappa", "-P", "2,3", "-H", "0,4,6"],
            ["spectrum", "-H", "0,1"],
            ["construct", "-H", "0", "--target", "1/2", "--eps", "1e-2"],
            ["closure", "-G", "0,1,2"],
            ["verify", "-P", "", "-H", "0", "-x", "100", "--tol", "0"],
        ]
        for args in cases:
            code, out, _ = run_cli(capsys, *args, "--json")
            assert code == 0, args
            record = json.loads(out)
            assert json.dumps(record, sort_keys=True) == out.strip()

    def test_determinism(self, capsys):
        args = ["kappa", "-P", "2,3,5", "-H", "0,2,4", "--json"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "-p", "2", "-H", "0,4,6"],
            ["kappa", "-P", "2", "-H", "0,1"],
            ["verify", "-P", "2", "-H", "0", "-x", "100", "--tol", "1"],
            ["spectrum", "-H", "0,1"],
            ["construct", "-H", "0", "--target", "1/2", "--eps", "1e-2"],
            ["closure", "-G", "0,1,2"],
            ["series", "-P", "2", "-H", "0", "--x-max", "100"],
        ],
    )
    def test_digits_checked_before_any_output(self, capsys, argv):
        for digits, message in [
            ("0", "--digits"),
            ("-1", "--digits"),
            ("999999999999999999", "MAX_DIGITS = 1000"),
            (str(10**20), "MAX_DIGITS = 1000"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--digits", digits])
            captured = capsys.readouterr()
            assert exc.value.code == 1 and captured.out == "" and message in captured.err
        assert main([*argv, "--digits", "1000"]) in (0, 2)

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_subprocess_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "multcorr", "density", "-p", "2", "-H", "0,4,6"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "1/6" in proc.stdout

    def test_exact_commands_do_not_import_numpy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import multcorr.cli as cli\n"
            "cli.build_parser()\n"
            "assert 'numpy' not in sys.modules, 'parser'\n"
            "assert cli.main(['spectrum', '-H', '0,4,6']) == 0\n"
            "assert 'numpy' not in sys.modules, 'spectrum'\n"
            "from multcorr import SieveConfig\n"
            "assert 'numpy' in sys.modules, 'sieve names load numpy'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


class TestRendering:
    def test_rational_str(self):
        assert rational_str(Fraction(0)) == "0/1"
        assert rational_str(Fraction(-385, 1539)) == "-385/1539"

    @pytest.mark.parametrize("digits", [1, 3, 12, 20, 40])
    def test_decimal_matches_old_rendering(self, digits):
        # ties, exact quotients, exponent notation and negative values
        values = [
            (0, 1), (1, 1), (-1, 1), (1, 8), (-5, 2), (25, 1000), (15, 100), (-35, 1000),
            (1, 10**9), (-7, 3 * 10**12), (10**30, 7), (123456789, 1000), (-2, 3),
            (2**70, 3**40),
        ]
        for num, den in values:
            q = Fraction(num, den)
            assert decimal_str(q, digits) == old_decimal(q, digits)

    def test_integers_past_the_digit_limit_match_str(self):
        # about 10**5 digits, negative values, and powers of ten and of two
        # around the size where the divide and conquer takes over and the
        # sizes where it splits
        rng = random.Random(5)
        bits = multcorr.cli._STR_BITS
        values = [rng.getrandbits(332_000), -rng.getrandbits(332_000), 10**100_000]
        for k in (bits, bits + 1, 2 * bits, 2 * bits + 1, 4 * bits + 3):
            values += [2**k - 1, 2**k, 2**k + 1, -(2**k)]
        for k in (3009, 3010, 3011, 6021, 6022, 12042, 12043):
            values += [10**k - 1, 10**k, 10**k + 1, -(10**k)]
        for n in values:
            q = Fraction(n, 7 * n + 1)
            with int_str_limit(0):
                expected = str(n)
                expected_q = f"{q.numerator}/{q.denominator}"
            with int_str_limit(4300):
                assert _int_str(n) == expected
                assert short_rational(Fraction(n)) == expected
                assert rational_str(q) == expected_q

    def test_decimal_agrees_with_rational(self):
        q = Fraction(1, 6)
        assert decimal_str(q).startswith("0.16666666666")
        assert decimal_str(Fraction(1)) == "1"
        assert float(decimal_str(Fraction(-1, 3))) == pytest.approx(-1 / 3, abs=1e-11)
