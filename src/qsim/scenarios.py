"""Named end-to-end experiments with deterministic, serializable reports.

Every scenario is a pure function of its configuration: identical configs
produce byte-identical result payloads (wall time is reported outside the
determinism contract).
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import decision_payoff as dp
from . import heisenberg_flow as hf
from . import knowledge_entropy as ke
from . import operator_core as oc
from . import properties
from .errors import CapacityError, UsageError
from .rng import substream, trial_generators

MAX_SEED = 2**64 - 1  # seeds are 64-bit; larger ones would alias smaller ones
MAX_REAL = sys.float_info.max
# the qubit kets |0>, |1>, |+> and |->
ZERO, ONE = np.eye(2, dtype=complex)
PLUS, MINUS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def fmt(x: float) -> str:
    """Lossless decimal rendering of a double (17 significant digits)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    seed: int = 1
    dims: tuple[int, ...] = (2, 2)
    trials: int = 100
    epsilon: float = 0.1
    epsilon_sweep: tuple[float, ...] | None = None
    output_path: str | None = None
    format: str = "json"
    uniform_weights: bool = False  # second-law: fixed uniform p_ab per trial

    MAX_TRIALS = 10**7  # a class constant, not a field; for second-law, of rows x trials

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise UsageError(
                f"unknown scenario {self.scenario!r}; choose from {', '.join(SCENARIOS)}"
            )
        if self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials}")
        if self.trials > self.MAX_TRIALS:
            raise CapacityError(f"trials {self.trials} exceeds maximum {self.MAX_TRIALS}")
        # int-float comparisons are exact, so an int beyond the double range fails too
        if not 0 <= self.epsilon <= MAX_REAL:
            raise UsageError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        seed = int(self.seed)
        if not 0 <= seed <= MAX_SEED:
            raise UsageError(f"seed must be in [0, 2**64 - 1], got {seed}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise UsageError(f"dims must be nonempty, each >= 2, got {list(dims)}")
        oc.SubsystemLayout(dims)  # raises CapacityError above the total-dim cap
        if self.format not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.format!r}")
        if self.epsilon_sweep is not None:
            sweep = tuple(self.epsilon_sweep)
            if (
                not sweep
                or any(not 0 <= e <= MAX_REAL for e in sweep)
                or list(sweep) != sorted(sweep)
            ):
                raise UsageError(
                    f"epsilon sweep must be a nonempty ascending list of finite values >= 0, "
                    f"got {list(sweep)}"
                )
            rows = len(sweep)
            if self.scenario == "second-law" and self.trials * rows > self.MAX_TRIALS:
                raise CapacityError(
                    f"trials {self.trials} x {rows} epsilon-sweep rows = {self.trials * rows} "
                    f"exceeds maximum {self.MAX_TRIALS}"
                )
            object.__setattr__(self, "epsilon_sweep", tuple(float(e) for e in sweep))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class RunReport:
    scenario: str
    config: dict
    results: dict
    csv_rows: tuple[tuple, ...]  # (header, row, row, ...) tabular projection
    tool_version: str
    wall_time_ms: float
    exit_code: int = 0

    def to_json(self) -> str:
        doc = {
            "scenario": self.scenario,
            "config": self.config,
            "results": self.results,
            "tool_version": self.tool_version,
            "wall_time_ms": self.wall_time_ms,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def results_payload(self) -> str:
        """The byte-reproducible part of the report."""
        return json.dumps(self.results, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(self.csv_rows)
        return buf.getvalue()


def _table(header: tuple, records: list[dict], keys: tuple | None = None) -> tuple[tuple, ...]:
    """CSV rows: the header, then each results record's values at `keys` (default: the header)."""
    return (header,) + tuple(tuple(r[k] for k in keys or header) for r in records)


# ---------------------------------------------------------------------------
# Individual scenarios: each maps (config, property-suite trials override) to
# (results, csv rows)


def _scenario_copy_demo(cfg: ScenarioConfig, trials_override: int | None):
    if len(cfg.dims) != 2:
        raise UsageError(
            f"copy-demo needs exactly two factor dims, each >= 2, got {list(cfg.dims)}"
        )
    if cfg.dims == (2, 2):
        ci = hf.cnot_interaction()
    else:
        rng = substream(cfg.seed, 0)
        d1, d2 = cfg.dims
        p1 = oc.random_projector_set(d1, [1] * d1, rng)
        p2 = oc.random_projector_set(d2, [1] * d2, rng)
        phases = rng.uniform(0, 2 * np.pi, size=(d1, d2))
        ci = hf.build_copy_unitary(phases, p1, p2)
    sd = oc.spectral_decompose_unitary(ci.unitary)
    report = hf.analyze_copy(ci)
    families = hf.copiable_projector_families(ci.unitary)
    fam_json = [
        {
            "labels": list(range(len(f))),
            "ranks": list(f.ranks()),
            "projectors": [oc.matrix_to_json(p) for p in f.projectors],
        }
        for f in families.families
    ]
    results = {
        "spectral_phases": [fmt(p) for p in sorted(sd.phases)],
        "projector_ranks": sorted(sd.projectors.ranks()),
        "copy_report": report.to_json(),
        "copiable_families": fam_json,
        "only_trivial_family": families.only_trivial,
        "degenerate_identity": families.degenerate_identity,
    }
    rows = [("c", "d", "copied") + tuple(f"phase_a{a}" for a in range(len(ci.proj1)))]
    for e in report.dyadic_table:
        rows.append((e.c, e.d, int(e.copied)) + tuple(fmt(p) for p in e.phases_by_a))
    return results, tuple(rows)


def _scenario_decoherence_demo(cfg: ScenarioConfig, trials_override: int | None):
    ci = hf.cnot_interaction()
    rho0 = oc.DensityMatrix.pure(np.kron(PLUS, ZERO), ci.layout)
    bd = hf.branch_decomposition(rho0, ci)
    margins = ke.decoherence_margins(cfg.seed, cfg.trials).tolist()
    results = {
        "branches": [
            {"label": str(b.label), "weight": fmt(b.weight)} for b in bd.branches
        ],
        "cross_branch_norm_s1": fmt(bd.cross_branch_norm_s1),
        "cross_branch_norm_s2": fmt(bd.cross_branch_norm_s2),
        "decoherence_margins": {
            "trials": cfg.trials,
            "min": fmt(min(margins)),
            "mean": fmt(sum(margins) / len(margins)),
            "violations": sum(1 for m in margins if m < -1e-9),
        },
    }
    return results, _table(("branch_label", "weight"), results["branches"], ("label", "weight"))


def _worked_qubit_example():
    """rho_v = |0><0| with payoff observable (|0>+|1>)(<0|+<1|)/2."""
    v = dp.RelativeState.from_ket(ZERO)
    ps = oc.ProjectorSet.from_basis(np.column_stack([PLUS, MINUS]), labels=("+", "-"))
    a = dp.PayoffObservable((1.0, 0.0), ps)
    return v, a


def _scenario_payoff_demo(cfg: ScenarioConfig, trials_override: int | None):
    v, a = _worked_qubit_example()
    payoff = dp.expected_payoff(v, a)
    freq = dp.frequency_experiment(v, a, cfg.trials, cfg.seed)
    results = {
        "expected_payoff": fmt(payoff),
        "payoff_product": oc.matrix_to_json(dp.payoff_product(v, a)),
        "frequencies": [
            {
                "outcome": str(r.outcome_label),
                "weight": fmt(r.weight),
                "count": r.count,
                "frequency": fmt(r.frequency),
                "abs_deviation": fmt(r.abs_deviation),
            }
            for r in freq.rows
        ],
        "max_deviation": fmt(freq.max_deviation),
    }
    header = ("outcome_label", "weight", "count", "frequency", "abs_deviation")
    return results, _table(header, results["frequencies"], ("outcome",) + header[1:])


def _scenario_no_cloning(cfg: ScenarioConfig, trials_override: int | None):
    ci = hf.cnot_interaction()
    fids = hf.no_cloning_demo([ZERO, ONE, PLUS], ci, blank=ZERO)
    names = ["|0>", "|1>", "|+>"]
    results = {
        "copier": "cnot",
        "fidelities": [
            {"source": n, "fidelity": fmt(f)} for n, f in zip(names, fids)
        ],
    }
    return results, _table(("source", "fidelity"), results["fidelities"])


def _sweep_ds(cfg: ScenarioConfig, sweep: tuple[float, ...]) -> np.ndarray:
    """ds1 and ds2 of every imperfect selection of a sweep, as a (2, rows, trials) array.

    Trial t of row i draws with the bits of substream(cfg.seed + i, t): its
    weights first (unless uniform), then the normals of its rotation
    generator (only when epsilon_i > 0), so a row does not depend on the
    sweep's shape.  The (row, trial) index runs flattened in trial blocks,
    each one stack with one re-keyed generator per row segment, one
    perturbed_lams and one select_stack.
    """
    d1, d2 = cfg.dims
    d, n = d1 * d2, cfg.trials
    eye1, eye2 = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
    ds = np.empty((2, len(sweep) * n))
    for block in oc.trial_blocks(len(sweep) * n, d):
        p = np.full((len(block), d1, d2), 1.0 / d)
        normals = np.empty((len(block), d, d))  # read only where epsilon > 0
        j = 0
        for row in range(block.start // n, (block.stop - 1) // n + 1):
            t0, t1 = max(block.start - row * n, 0), min(block.stop - row * n, n)
            for rng in trial_generators(cfg.seed + row, t0, t1 - t0):
                if not cfg.uniform_weights:
                    rng.random(out=p[j])
                if sweep[row] > 0:
                    rng.standard_normal(out=normals[j])
                j += 1
        if not cfg.uniform_weights:
            p /= p.reshape(len(block), -1).sum(axis=1)[:, None, None]
        rows, trials = np.divmod(np.arange(block.start, block.stop), n)
        lam = ke.perturbed_lams((d1, d2), np.asarray(sweep)[rows], normals, trials=trials)
        sel = ke.select_stack(p, lam, eye1, eye2, trials=trials)
        ds[:, block.start : block.stop] = sel.ds1, sel.ds2
    return ds.reshape(2, len(sweep), n)


def _sweep_row(epsilon: float, ds1: list, ds2: list) -> dict:
    return {
        "epsilon": fmt(epsilon),
        "trials": len(ds1),
        "mean_ds1": fmt(sum(ds1) / len(ds1)),
        "mean_ds2": fmt(sum(ds2) / len(ds2)),
        "violation_fraction_s1": fmt(sum(1 for d in ds1 if d < -1e-9) / len(ds1)),
        "violation_fraction_s2": fmt(sum(1 for d in ds2 if d < -1e-9) / len(ds2)),
    }


def _scenario_second_law(cfg: ScenarioConfig, trials_override: int | None):
    if len(cfg.dims) != 2:
        raise UsageError("second-law scenario needs exactly two factors")
    epsilons = cfg.epsilon_sweep or (cfg.epsilon,)
    ds1, ds2 = _sweep_ds(cfg, epsilons).tolist()
    sweep = [_sweep_row(*row) for row in zip(epsilons, ds1, ds2)]
    # the shipped counterexample: a perfect relabeling that lowers S1
    ks, theta = ke.relabeling_counterexample()
    counter = ke.apply_selection_process(ks, theta)
    results = {
        "sweep": sweep,
        "relabeling_counterexample": {
            "ds1": fmt(counter.ds1),
            "ds2": fmt(counter.ds2),
            "note": "entropy growth under selection is conditional, not automatic",
        },
    }
    return results, _table(tuple(sweep[0]), sweep)  # the CSV columns are the row keys


def _scenario_property_suite(cfg: ScenarioConfig, trials_override: int | None):
    results_list = properties.run_all(cfg.seed, trials_override)
    reduced = trials_override is not None and any(
        trials_override < properties.REGISTRY[r.property_id][0] for r in results_list
    )
    results = {
        "properties": [
            {
                "id": r.property_id,
                "trials": r.trials,
                "violations": r.violations,
                "worst_residual": fmt(r.worst),
                "status": "pass" if r.passed else "fail",
                "repro": (
                    None
                    if r.passed
                    else {"seed": cfg.seed, "trial_index": r.first_bad_trial}
                ),
            }
            for r in results_list
        ],
        "all_passed": all(r.passed for r in results_list),
        "reduced_confidence": reduced,
    }
    header = ("property_id", "trials", "violations", "worst_residual", "status")
    keys = ("id", "trials", "violations", "worst_residual", "status")
    return results, _table(header, results["properties"], keys)


# name -> scenario, in the order of --help, usage messages and the report schema
SCENARIOS = {
    "copy-demo": _scenario_copy_demo,
    "decoherence-demo": _scenario_decoherence_demo,
    "payoff-demo": _scenario_payoff_demo,
    "no-cloning": _scenario_no_cloning,
    "second-law": _scenario_second_law,
    "property-suite": _scenario_property_suite,
}


def run_scenario(cfg: ScenarioConfig, trials_override: int | None = None) -> RunReport:
    """Run a scenario and assemble its deterministic report.

    The exit code is 1 when the results report a failed check
    (`all_passed` false), else 0.
    """
    start = time.perf_counter()
    results, rows = SCENARIOS[cfg.scenario](cfg, trials_override)
    wall = (time.perf_counter() - start) * 1000.0
    return RunReport(
        scenario=cfg.scenario,
        config=asdict(cfg),
        results=results,
        csv_rows=rows,
        tool_version=__version__,
        wall_time_ms=wall,
        exit_code=0 if results.get("all_passed", True) else 1,
    )
