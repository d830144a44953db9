"""Per-layer tracing of qsim from outside the program.

`Tracer.install()` wraps the public qsim functions each layer exports,
rebinding every wrapper in each qsim module that imported the function by
name; patches `__post_init__` of the validator classes; and wraps the
numpy/scipy kernels qsim calls through their modules.  Each wrapped call
appends one span (name, start_ns, end_ns, parent index) to an in-memory
list.  Install it only in a throwaway interpreter: nothing is restored.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute) pairs wrapped as functions; the span is "<layer>.<name>"
FUNCTIONS = (
    ("qsim.rng", "substream"),
    ("qsim.decision_payoff", "frequency_experiment"),
    ("qsim.knowledge_entropy", "apply_selection_process"),
    ("qsim.knowledge_entropy", "von_neumann_entropy"),
    ("qsim.knowledge_entropy", "perturb_selection"),
    ("qsim.knowledge_entropy", "build_knowledge_state"),
    ("qsim.knowledge_entropy", "entropy_after_decoherence_geq"),
    ("qsim.knowledge_entropy", "projective_decoherence"),
    ("qsim.operator_core", "partial_trace"),
    ("qsim.operator_core", "tensor_product"),
    ("qsim.operator_core", "random_unitary"),
    ("qsim.operator_core", "random_density"),
    ("qsim.operator_core", "random_projector_set"),
    ("qsim.operator_core", "spectral_decompose_unitary"),
    ("qsim.heisenberg_flow", "copiable_projector_families"),
    ("qsim.heisenberg_flow", "build_copy_unitary"),
    ("qsim.heisenberg_flow", "branch_decomposition"),
    ("qsim.heisenberg_flow", "analyze_copy"),
    ("qsim.scenarios", "run_scenario"),
    ("qsim.cli", "main"),
)
VALIDATORS = ("DensityMatrix", "ProjectorSet", "UnitaryOperator")
# (module, attribute, span name) of the numpy/scipy kernels qsim calls
KERNELS = (
    ("numpy.linalg", "svd", "linalg.svd"),  # also counts operand + result bytes
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "qr", "linalg.qr"),
    ("scipy.linalg", "expm", "linalg.expm"),
    ("scipy.linalg", "schur", "linalg.schur"),
)
# spans whose self time is scenario glue rather than a named layer's work
ROOT_SPANS = ("cli.main", "scenarios.run_scenario")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack = [-1]
        self.counts: Counter = Counter()  # non-span counters

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg  # noqa: F401  (looked up through sys.modules)

        from qsim import operator_core, scenarios
        from qsim.errors import ValidationError

        svd = numpy.linalg.svd

        def svd_counting_bytes(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            parts = out if isinstance(out, tuple) else (out,)
            self.counts["linalg.svd.bytes"] += numpy.asarray(a).nbytes + sum(p.nbytes for p in parts)
            return out

        for module, attr in FUNCTIONS:
            self._rebind(sys.modules[module], attr, f"{module.removeprefix('qsim.')}.{attr}")
        for module, attr, name in KERNELS:
            inner = svd_counting_bytes if name == "linalg.svd" else None
            self._rebind(sys.modules[module], attr, name, inner)
        for cls_name in VALIDATORS:
            cls = getattr(operator_core, cls_name)
            post_init = cls.__post_init__
            if cls_name == "ProjectorSet":
                post_init = self._count_rejections(post_init, ValidationError)
            cls.__post_init__ = self.wrap(f"operator_core.{cls_name}", post_init)
        report = scenarios.RunReport
        report.to_json = self.wrap("scenarios.RunReport.to_json", report.to_json)

    def _count_rejections(self, post_init, error):
        def checked(obj):
            try:
                post_init(obj)
            except error:
                self.counts["operator_core.ProjectorSet.rejected"] += 1
                raise

        return checked

    def _rebind(self, home, attr: str, name: str, inner=None) -> None:
        original = getattr(home, attr)
        wrapped = self.wrap(name, inner or original)
        setattr(home, attr, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "qsim":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, seconds not covered by child spans)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - inner
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")


# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same.
SELF_S = (
    "rng.substream",
    "decision_payoff.frequency_experiment",
    "knowledge_entropy.apply_selection_process",
    "knowledge_entropy.von_neumann_entropy",
    "knowledge_entropy.perturb_selection",
    "knowledge_entropy.build_knowledge_state",
    "knowledge_entropy.entropy_after_decoherence_geq",
    "knowledge_entropy.projective_decoherence",
    "operator_core.DensityMatrix",
    "operator_core.ProjectorSet",
    "operator_core.UnitaryOperator",
    "operator_core.partial_trace",
    "operator_core.tensor_product",
    "operator_core.random_unitary",
    "operator_core.random_density",
    "operator_core.random_projector_set",
    "operator_core.spectral_decompose_unitary",
    "heisenberg_flow.copiable_projector_families",
    "heisenberg_flow.build_copy_unitary",
    "heisenberg_flow.branch_decomposition",
    "heisenberg_flow.analyze_copy",
    "scenarios.run_scenario",
    "scenarios.RunReport.to_json",
    "cli.main",
    "linalg.svd",
    "linalg.eigh",
    "linalg.eigvalsh",
    "linalg.expm",
    "linalg.schur",
)
CALLS = (
    "rng.substream",
    "knowledge_entropy.apply_selection_process",
    "knowledge_entropy.von_neumann_entropy",
    "operator_core.DensityMatrix",
    "operator_core.ProjectorSet",
    "operator_core.UnitaryOperator",
    "operator_core.partial_trace",
    "operator_core.tensor_product",
    "heisenberg_flow.analyze_copy",
    "linalg.svd",
    "linalg.eigh",
    "linalg.eigvalsh",
    "linalg.expm",
    "linalg.qr",
)
PER_LAYER = (
    tuple((f"{n}.calls", "count", "lower") for n in CALLS)
    + tuple((f"{n}.self_s", "s", "lower") for n in SELF_S)
    + (
        ("operator_core.ProjectorSet.rejected", "count", "lower"),
        ("operator_core.validations_per_trial", "count/trial", "lower"),
        ("linalg.svd.bytes", "bytes", "lower"),
        ("scenarios.report_bytes", "bytes", "lower"),
        ("setup.numpy_s", "s", "lower"),
        ("setup.scipy_s", "s", "lower"),
        ("setup.qsim_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
    )
)


def layer_metrics(tracer: Tracer, wall_s: float, trials: int) -> dict[str, float]:
    """Per-layer figures of one traced round whose cli.main calls took wall_s."""
    times = tracer.self_times()
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = times.get(name, (0, 0.0))[0]
    for name in SELF_S:
        out[f"{name}.self_s"] = times.get(name, (0, 0.0))[1]
    for name in ("operator_core.ProjectorSet.rejected", "linalg.svd.bytes"):
        out[name] = tracer.counts[name]
    validations = sum(times.get(f"operator_core.{v}", (0, 0.0))[0] for v in VALIDATORS)
    out["operator_core.validations_per_trial"] = validations / trials
    glue = sum(times.get(name, (0, 0.0))[1] for name in ROOT_SPANS)
    out["trace.coverage"] = (wall_s - glue) / wall_s
    return out
