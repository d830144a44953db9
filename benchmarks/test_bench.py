"""Self-test of the benchmark: every workload and the traced mode at a tiny
size, the metric lists against BENCHMARK.json, and each check against a
corrupted report.

    python3 -m pytest benchmarks/test_bench.py
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qsim import cli  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct(name, trace):
    result = run.measure(name, seed=3, seconds=0, trace=trace, tiny=True)
    n_argvs = len(workloads.WORKLOADS[name][0](3, True))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * (2 if trace else 1) * n_argvs
    expected = [m[0] for m in PER_LAYER] if trace else [m[0] for m in run.END_TO_END]
    assert list(result["metrics"]) == expected
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) and v >= 0 for v in values.values())
    if trace:
        assert 0 < values["trace.coverage"] <= 1
        assert values["rng.substream.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_benchmark_json_lists_the_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "payoff", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rounds_with_different_results_count_as_failed():
    good = {"problems": [], "digest": "a"}
    rounds = [{"invocations": [good, good]}, {"invocations": [good, dict(good, digest="b")]}]
    assert run.count_failures(rounds) == 1


# ---------------------------------------------------------------------------
# Each check rejects a corrupted report


def _report(name, tmp_path):
    argv = workloads.WORKLOADS[name][0](3, True)[-1]
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert workloads.WORKLOADS[name][1](argv, report) == []
    return argv, report


def _rejects(name, argv, report, corrupt):
    bad = copy.deepcopy(report)
    corrupt(bad["results"])
    return workloads.WORKLOADS[name][1](argv, bad) != []


def _set(path, value):
    def corrupt(results):
        node = results
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return corrupt


def test_second_law_checks_reject_corruption(tmp_path):
    argv, report = _report("second-law", tmp_path)
    assert _rejects("second-law", argv, report, _set(["sweep", 0, "mean_ds1"], "1e-6"))
    assert _rejects("second-law", argv, report, _set(["sweep", 0, "violation_fraction_s2"], "0.5"))
    assert _rejects("second-law", argv, report, _set(["sweep", 1, "mean_ds2"], "0.99"))
    assert _rejects("second-law", argv, report, _set(["relabeling_counterexample", "ds1"], "-0.5"))
    assert _rejects("second-law", argv, report, _set(["sweep", 2, "trials"], 1))


def test_fannes_audenaert_bound():
    assert workloads.fannes_audenaert(0.0, 2) == 0.0
    assert workloads.fannes_audenaert(0.5, 2) == 1.0
    assert workloads.fannes_audenaert(0.9, 4) == 2.0


def test_payoff_checks_reject_corruption(tmp_path):
    argv, report = _report("payoff", tmp_path)
    n = int(argv[argv.index("--trials") + 1])

    def past_bound(results):
        results["frequencies"][0].update(count=n, frequency="1")
        results["frequencies"][1].update(count=0, frequency="0")
        results["max_deviation"] = "0.5"

    assert _rejects("payoff", argv, report, past_bound)
    assert _rejects("payoff", argv, report, _set(["frequencies", 0, "count"], n + 1))
    assert _rejects("payoff", argv, report, _set(["expected_payoff"], "0.75"))
    assert _rejects("payoff", argv, report, _set(["frequencies", 1, "weight"], "0.4"))
    assert workloads.hoeffding_bound(n) < 0.5


def test_copy_checks_reject_corruption(tmp_path):
    argv, report = _report("copy", tmp_path)
    assert argv[argv.index("--dims") + 1] == "3,3"
    family = report["results"]["copiable_families"][0]["projectors"]

    def non_orthogonal(results):
        # rotate projector 1 slightly towards projector 0
        p0, p1 = workloads._decode(family[0]), workloads._decode(family[1])
        v = np.linalg.eigh(p1)[1][:, -1] + 1e-3 * np.linalg.eigh(p0)[1][:, -1]
        v /= np.linalg.norm(v)
        p = np.outer(v, v.conj())
        results["copiable_families"][0]["projectors"][1] = {
            "dim": 3, "re": list(p.real.flatten()), "im": list(p.imag.flatten())}

    def merged(results):
        projs = results["copiable_families"][0]["projectors"]
        p = workloads._decode(projs[0]) + workloads._decode(projs[1])
        projs[:2] = [{"dim": 3, "re": list(p.real.flatten()), "im": list(p.imag.flatten())}]

    def flipped(results):
        row = results["copy_report"]["dyadic_table"][1]
        row["copied"] = not row["copied"]

    assert _rejects("copy", argv, report, non_orthogonal)
    assert _rejects("copy", argv, report, merged)
    assert _rejects("copy", argv, report, flipped)
    assert _rejects("copy", argv, report, _set(["copy_report", "residuals", "max"], 1e-6))


def test_copy_2x2_family_is_computational(tmp_path):
    argv = ["copy-demo", "--seed", "1", "--dims", "2,2"]
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert workloads.check_copy(argv, report) == []
    plus = {"dim": 2, "re": [0.5, 0.5, 0.5, 0.5], "im": [0.0] * 4}
    minus = {"dim": 2, "re": [0.5, -0.5, -0.5, 0.5], "im": [0.0] * 4}
    assert _rejects("copy", argv, report,
                    _set(["copiable_families", 0, "projectors"], [plus, minus]))


def test_decoherence_checks_reject_corruption(tmp_path):
    argv, report = _report("decoherence", tmp_path)
    assert _rejects("decoherence", argv, report, _set(["decoherence_margins", "violations"], 1))
    assert _rejects("decoherence", argv, report, _set(["decoherence_margins", "min"], "-1e-6"))
    assert _rejects("decoherence", argv, report, _set(["branches", 0, "weight"], "0.6"))
    assert _rejects("decoherence", argv, report, _set(["cross_branch_norm_s2"], "0.1"))
