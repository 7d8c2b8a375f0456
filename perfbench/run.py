#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the multcorr CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process drives ``multcorr.cli.main``
in-process with stdout captured, as a closed loop from one client: whole
passes of seeded operations (see ``workloads.py``) until the operations have
taken ``--seconds`` of measured time.  The package's process-wide caches are
emptied before every operation, so each call finds them as a new CLI process
would.  Between operations, spread over the run, fresh interpreters time
the CLI's set-up.  Every output is checked after the timed passes, in a
separate checker process, against an independent computation
(``checks.py``).

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` the calls into each layer are traced (``tracing.py``) and
the per-layer metrics are reported instead.  Metric names and units come
from BENCHMARK.json.  Run records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up samples per untraced run, taken between operations at even steps of
# measured time, so that they see the machine over the whole run.  Odd, so
# the median is one sample.
SETUP_SAMPLES = 15
SETUP_CODE = "import multcorr.cli as cli; cli.build_parser()"

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_program():
    """Import the package from this checkout's src/, and nothing else."""
    if not (SRC / "multcorr" / "cli.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'multcorr'}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("multcorr")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported multcorr from {package.__file__}, not from {SRC}")
    cli = importlib.import_module("multcorr.cli")
    modules = [package] + [importlib.import_module(f"multcorr.{m}") for m in LAYERS]
    return package, cli, modules


def setup_sample() -> float:
    """Wall time of one fresh interpreter that imports the CLI and builds its
    parser: what every CLI call pays before it computes anything.

    No timeout: waiting with one polls in steps of up to 50 ms, which would
    round every sample up to the next step."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
    return time.perf_counter() - t0


def empty_caches(modules) -> None:
    """Empty every functools cache and module-level memo dict in the package."""
    for mod in modules:
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and "memo" in name:
                value.clear()


def call(cli, argv) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        elapsed = time.perf_counter() - t0
    return rc, elapsed, out.getvalue(), err.getvalue()


def start_checker() -> subprocess.Popen:
    """Start the checker process and wait until it is ready, so that its
    start-up does not overlap a timed operation."""
    checker = subprocess.Popen(
        [sys.executable, str(HERE / "checks.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    checker.stdout.readline()
    return checker


def finish_checker(checker: subprocess.Popen) -> list[str]:
    """End the requests, wait for the checker and return its problems."""
    reply, _ = checker.communicate()
    if checker.returncode != 0:
        return [f"checker exited with {checker.returncode}"]
    return json.loads(reply)


def run_passes(workload: str, seed: int, seconds: float, cli, modules, checker, setup_samples: int) -> dict:
    """Whole passes until the operations have taken `seconds` in total.
    Each successful operation's output goes to the checker.  Before an
    operation, a set-up sample is taken for each step of `seconds` /
    `setup_samples` of measured time that has passed since the last one."""
    make_pass = WORKLOADS[workload]
    seen: set = set()
    latencies: list[float] = []
    failed = passes = 0
    busy = 0.0
    problems: list[str] = []
    setup: list[float] = []
    while busy < seconds:
        for op in make_pass(random.Random(f"{workload}:{seed}:{passes}"), seen):
            while len(setup) < setup_samples and busy >= len(setup) * seconds / setup_samples:
                setup.append(setup_sample())
            empty_caches(modules)
            rc, elapsed, out, err = call(cli, op.argv)
            busy += elapsed
            if rc != 0:
                failed += 1
                latencies.append(float("inf"))  # a failure misses any latency limit
                if not (op.known_fault and op.known_fault in err):
                    problems.append(f"exit {rc}: {' '.join(op.argv)[:200]}: {err.strip()[:300]}")
                continue
            latencies.append(elapsed)
            checker.stdin.write(json.dumps([op.argv, out]) + "\n")
            checker.stdin.flush()
        passes += 1
    while len(setup) < setup_samples:  # the last step ended with the last pass
        setup.append(setup_sample())
    return {
        "passes": passes,
        "attempted": len(latencies),
        "failed": failed,
        "busy_s": busy,
        "latencies": latencies,
        "setup": setup,
        "problems": problems,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    package, cli, modules = load_program()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(package)

    checker = start_checker()
    passes_started = time.perf_counter()
    setup_samples = SETUP_SAMPLES if tracer is None else 0
    run = run_passes(args.workload, args.seed, args.seconds, cli, modules, checker, setup_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks_started = time.perf_counter()
    run["problems"] += finish_checker(checker)
    checks_s = time.perf_counter() - checks_started
    completed = run["attempted"] - run["failed"]
    ops_per_s = completed / run["busy_s"]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = {"setup_s": statistics.median(run["setup"])}
        metrics["ops_per_s"] = ops_per_s
        metrics["op_p50_s"] = statistics.median(run["latencies"])
        metrics["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    else:
        tracer.save(OUT / f"trace-{args.workload}.npz")
        metrics = tracer.table()
        metrics["traced_ops_per_s"] = ops_per_s
        wanted = spec["per_layer"]

    for line in run["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(
        f"{args.workload}: {run['passes']} passes, {run['attempted']} operations "
        f"({run['failed']} failed) in {run['busy_s']:.3f} s measured, {len(run['setup'])} set-up samples; "
        f"wall: start {passes_started - started:.1f} s, passes {checks_started - passes_started:.1f} s, "
        f"checks {checks_s:.1f} s, total {time.perf_counter() - started:.1f} s"
    )
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{stem}.json").write_text(
        json.dumps(
            {
                "result": result,
                "latencies": [t if t != float("inf") else None for t in run["latencies"]],
                "setup": run["setup"],
            }
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
