import json
import subprocess
import sys
from pathlib import Path

import pytest

from multcorr.cli import decimal_str, main, rational_str
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestSpectrumCommand:
    def test_negative_floor(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "-H", "0,1")
        assert code == 0
        assert "alpha=-1/3 witness=2 interval=[-1/3,1]" in out

    def test_clamped_interval(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "-H", "0")
        assert code == 0
        assert "alpha=1/3 witness=2 interval=[0,1]" in out


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

    def test_decimal_agrees_with_rational(self):
        q = Fraction(1, 6)
        assert decimal_str(q).startswith("0.16666666666")
        assert decimal_str(Fraction(1)) == "1"
        assert float(decimal_str(Fraction(-1, 3))) == pytest.approx(-1 / 3, abs=1e-11)
