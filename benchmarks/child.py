"""One benchmark round in a fresh interpreter.

    python3 -I benchmarks/child.py LAUNCH_NS SPEC_JSON

LAUNCH_NS is the parent's time.monotonic_ns() just before it started this
interpreter.  SPEC_JSON holds the workload name, its argv list, whether to
trace, and the output directory.  The child imports qsim from the
checkout's `src`, calls `qsim.cli.main(argv)` once per argv with the
report written to a temp file, checks every report outside the timed
region, and prints one JSON object on stdout.
"""

import os
import sys
import time

_child_start_ns = time.monotonic_ns()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [SRC_DIR, BENCH_DIR]

import numpy  # noqa: E402

_numpy_ns = time.monotonic_ns()
import scipy.linalg  # noqa: E402,F401

_scipy_ns = time.monotonic_ns()
import qsim.cli  # noqa: E402

_ready_ns = time.monotonic_ns()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402


def run_round(spec: dict, launch_ns: int) -> dict:
    from workloads import WORKLOADS, trials_in

    if not os.path.abspath(qsim.__file__).startswith(SRC_DIR + os.sep):
        raise RuntimeError(f"qsim imported from {qsim.__file__}, not from {SRC_DIR}")
    _, check = WORKLOADS[spec["workload"]]
    argvs = spec["argvs"]
    tracer = None
    if spec["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outcomes = []
    wall_ns = 0
    with tempfile.TemporaryDirectory(dir=spec["out_dir"]) as tmp:
        paths = [os.path.join(tmp, f"report{i}.json") for i in range(len(argvs))]
        for argv, path in zip(argvs, paths):
            full = argv + ["--format", "json", "--output", path]
            start = time.monotonic_ns()
            try:
                code = qsim.cli.main(full)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # a traceback is a failed invocation, not a crash
                code = f"{type(exc).__name__}: {exc}"
            wall_ns += time.monotonic_ns() - start
            outcomes.append(code)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        invocations = []
        report_bytes = 0
        for argv, path, code in zip(argvs, paths, outcomes):
            if code != 0:
                invocations.append({"problems": [f"exit {code}"], "digest": None})
                continue
            with open(path, "rb") as fh:
                raw = fh.read()
            report_bytes += len(raw)
            try:
                report = json.loads(raw)
                payload = json.dumps(report["results"], sort_keys=True).encode()
                problems = check(argv, report)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                invocations.append({"problems": [f"malformed report: {exc!r}"], "digest": None})
                continue
            invocations.append({"problems": problems, "digest": hashlib.sha256(payload).hexdigest()})
    out = {
        "setup_s": (_ready_ns - launch_ns) / 1e9,
        "wall_s": wall_ns / 1e9,
        "peak_rss_mb": peak_rss_kb / 1024,
        "invocations": invocations,
    }
    if tracer is not None:
        from tracer import layer_metrics

        layers = layer_metrics(tracer, wall_ns / 1e9, sum(trials_in(a) for a in argvs))
        layers["scenarios.report_bytes"] = report_bytes
        layers["setup.numpy_s"] = (_numpy_ns - _child_start_ns) / 1e9
        layers["setup.scipy_s"] = (_scipy_ns - _numpy_ns) / 1e9
        layers["setup.qsim_s"] = (_ready_ns - _scipy_ns) / 1e9
        out["layers"] = layers
        tracer.write_spans(os.path.join(spec["out_dir"], f"{spec['workload']}.spans.tsv"))
    return out


if __name__ == "__main__":
    print(json.dumps(run_round(json.loads(sys.argv[2]), int(sys.argv[1]))))
