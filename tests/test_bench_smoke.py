"""Smoke tests of the benchmark harness: tiny untraced decoherence and copy runs.

They check only that the harness runs end to end and that every report
passes its workload's checks (for copy, the harness's own projector and
residual checks); they set no timing bounds.  A guard also checks that
every qsim name the tracer wraps still exists.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


def test_tiny_decoherence_run_is_correct():
    result = run.measure("decoherence", seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"]
    assert result["failed"] == 0


def test_tiny_copy_run_is_correct():
    result = run.measure("copy", seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"]
    assert result["failed"] == 0


def test_every_traced_name_resolves():
    # Tracer.install looks each one up by name, so a deleted one breaks `run.py --trace 1`
    for module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    core = importlib.import_module("qsim.operator_core")
    for cls_name in tracer.VALIDATORS:
        assert hasattr(getattr(core, cls_name), "__post_init__"), cls_name
