"""Benchmark of the qsim CLI scenarios, end to end and per layer.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each round starts one fresh interpreter (benchmarks/child.py) that imports
qsim from `src` and calls `qsim.cli.main(argv)` for every argv of the
workload; rounds run one at a time until --seconds have passed, and at
least MIN_ROUNDS of them.  With --trace 0 the run reports the end-to-end
metrics (medians over rounds); with --trace 1 it alternates plain and
traced rounds and reports the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed invocation)."""


def child_env() -> dict[str, str]:
    """The caller's environment with BLAS threads = usable cores and no QSIM_SEED."""
    env = {k: v for k, v in os.environ.items() if k != "QSIM_SEED"}
    threads = str(len(os.sched_getaffinity(0)))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def run_child(workload: str, argvs: list[list[str]], traced: bool) -> dict:
    spec = json.dumps(
        {"workload": workload, "argvs": argvs, "traced": traced, "out_dir": str(OUT_DIR)}
    )
    cmd = [sys.executable, "-I", str(BENCH_DIR / "child.py")]
    launch_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + [str(launch_ns), spec],
            stdout=subprocess.PIPE,
            env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} round exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{workload} round exited {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def count_failures(rounds: list[dict]) -> int:
    """Invocations that failed their checks or whose results differ from round 0's."""
    reference = [inv["digest"] for inv in rounds[0]["invocations"]]
    failed = 0
    for k, rnd in enumerate(rounds):
        for i, inv in enumerate(rnd["invocations"]):
            problems = list(inv["problems"])
            if inv["digest"] != reference[i]:
                problems.append("results payload differs from round 0")
            if problems:
                failed += 1
                print(f"round {k} invocation {i}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    make_argvs, _ = WORKLOADS[workload]
    argvs = make_argvs(seed, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while len(plain) < MIN_ROUNDS or time.monotonic() < deadline:
        plain.append(run_child(workload, argvs, traced=False))
        if trace:
            traced.append(run_child(workload, argvs, traced=True))
    rounds = plain + traced
    failed = count_failures(rounds)
    if trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _, _ in PER_LAYER
            if name != "trace.overhead_ratio"
        }
        values["trace.overhead_ratio"] = statistics.median(
            r["wall_s"] for r in traced
        ) / statistics.median(r["wall_s"] for r in plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": failed == 0,
        "attempted": len(rounds) * len(argvs),
        "failed": failed,
        "metrics": metrics,
    }


def print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:12s} {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:12s} attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run so it kills and reaps the running round
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qsim" / "cli.py").is_file():
        print(f"benchmark: no qsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, results[name])
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
