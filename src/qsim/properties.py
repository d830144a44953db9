"""Quantified invariants of every module, runnable as a single suite.

Each property draws its instances from seeded substreams, counts
violations, and reports the worst residual, so a failure always comes with
a minimal reproduction (property id, seed, trial index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import decision_payoff as dp
from . import heisenberg_flow as hf
from . import knowledge_entropy as ke
from . import operator_core as oc
from .rng import trial_generators


@dataclass
class PropertyResult:
    property_id: str
    trials: int
    violations: int
    worst: float
    first_bad_trial: int | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


PropertyFn = Callable[[int, int], PropertyResult]

REGISTRY: dict[str, tuple[int, PropertyFn]] = {}


def _summarize(property_id: str, residuals, bounds) -> PropertyResult:
    """Violations, worst residual (never below 0.0) and first bad trial of a run."""
    residuals = np.asarray(residuals, dtype=float)
    bad = residuals > bounds
    worst = max(0.0, float(residuals.max()))
    return PropertyResult(property_id, len(residuals), int(bad.sum()), worst, oc.first_trial(bad))


def _register(property_id: str, default_trials: int):
    """Register fn(rng) -> (residual, bound), run once per trial t on a generator
    with the bits of substream(seed, t); fn must keep no reference to it."""

    def deco(fn):
        def runner(seed: int, trials: int) -> PropertyResult:
            checks = [fn(rng) for rng in trial_generators(seed, 0, trials)]
            return _summarize(property_id, *zip(*checks))

        REGISTRY[property_id] = (default_trials, runner)
        return fn

    return deco


# false-alarm rate of the frequency-concentration property
FREQ_DELTA = 1e-9


def _random_dim(rng, lo=2, hi=8) -> int:
    return int(rng.integers(lo, hi + 1))


def _random_copy_interaction(rng) -> hf.CopyInteraction:
    d1 = _random_dim(rng, 2, 4)
    d2 = _random_dim(rng, 2, 4)
    p1 = oc.random_projector_set(d1, oc.random_block_sizes(d1, rng), rng)
    p2 = oc.random_projector_set(d2, oc.random_block_sizes(d2, rng), rng)
    phases = rng.uniform(0, 2 * np.pi, size=(len(p1), len(p2)))
    return hf.build_copy_unitary(phases, p1, p2)


# --------------------------------------------------------------------- core


@_register("core.tensor_associative_trace", 50)
def _p_tensor(rng):
    dims = [int(rng.integers(2, 4)) for _ in range(3)]
    ms = [oc.ginibre((d, d), rng) for d in dims]
    left = oc.tensor_product(oc.tensor_product(ms[0], ms[1]), ms[2])
    right = oc.tensor_product(ms[0], oc.tensor_product(ms[1], ms[2]))
    r1 = oc.max_abs(left - right)
    tr = abs(np.trace(oc.tensor_product(ms[0], ms[1])) - np.trace(ms[0]) * np.trace(ms[1]))
    return max(r1, tr), 1e-12 * max(1.0, oc.max_abs(left))


@_register("core.partial_trace_product", 50)
def _p_ptrace(rng):
    d1, d2 = _random_dim(rng, 2, 4), _random_dim(rng, 2, 4)
    r1 = oc.random_density(d1, int(rng.integers(1, d1 + 1)), rng)
    r2 = oc.random_density(d2, int(rng.integers(1, d2 + 1)), rng)
    prod = oc.DensityMatrix(
        oc.SubsystemLayout((d1, d2)), oc.tensor_product(r1.mat, r2.mat)
    )
    back = oc.partial_trace(prod, (0,))
    return oc.max_abs(back.mat - r1.mat), 1e-12


@_register("core.spectral_round_trip", 200)
def _p_spectral(rng):
    dim = _random_dim(rng)
    u = oc.random_unitary(dim, rng)
    sd = oc.spectral_decompose_unitary(u)
    return oc.max_abs(sd.reconstruct() - u.mat), 1e-9


@_register("core.evolve_preserves_spectrum", 100)
def _p_evolve(rng):
    dim = _random_dim(rng)
    rho = oc.random_density(dim, int(rng.integers(1, dim + 1)), rng)
    u = oc.random_unitary(dim, rng)
    out = oc.evolve_state(rho, u)
    a = np.sort(np.linalg.eigvalsh(rho.mat))
    b = np.sort(np.linalg.eigvalsh(out.mat))
    return float(np.max(np.abs(a - b))), 1e-9


# --------------------------------------------------------------------- flow


@_register("flow.copy_observable_invariant", 100)
def _p_invariance(rng):
    ci = _random_copy_interaction(rng)
    alphas = rng.standard_normal(len(ci.proj1))
    obs = hf.ObservableSpec(tuple(alphas), ci.proj1)
    return hf.check_invariance(obs, ci).residual, 1e-9


@_register("flow.dyadic_transformation_corrected", 100)
def _p_eq7(rng):
    ci = _random_copy_interaction(rng)
    return hf.analyze_copy(ci).max_residual, 1e-9


@_register("flow.coarse_graining_closed", 50)
def _p_coarse(rng):
    ci = _random_copy_interaction(rng)
    fams = hf.copiable_projector_families(ci.unitary)
    if fams.degenerate_identity or len(fams.families[0]) < 2:
        return 0.0, 1e-9
    fam = fams.families[0]
    merged = (fam.projectors[0] + fam.projectors[1],) + fam.projectors[2:]
    coarse = oc.ProjectorSet(merged)
    return oc.max_abs(hf.s1_drift(ci.unitary, np.array(coarse.projectors))), 1e-9


@_register("flow.invariant_observable_projectors", 50)
def _p_spectral_invariant(rng):
    # invariant A x I implies each spectral projector of A is invariant
    ci = _random_copy_interaction(rng)
    alphas = np.arange(1.0, len(ci.proj1) + 1.0)
    a = hf.ObservableSpec(tuple(alphas), ci.proj1).matrix()
    evals, evecs = oc.hermitian_eigendecomposition(a)
    projs = np.array([evecs[:, s] @ oc.dagger(evecs[:, s]) for s in oc.eigenspaces(evals, 1e-7)])
    return oc.max_abs(hf.s1_drift(ci.unitary, projs)), 1e-9


@_register("flow.branch_weights_consistent", 50)
def _p_branches(rng):
    ci = _random_copy_interaction(rng)
    d = ci.unitary.dim
    rho = oc.random_density(d, int(rng.integers(1, d + 1)), rng)
    rho = oc.DensityMatrix(ci.layout, rho.mat)
    bd = hf.branch_decomposition(rho, ci)
    total = sum(b.weight for b in bd.branches)
    rho_out = bd.evolved
    worst = abs(total - 1.0)
    sectors = hf.copied_sectors(ci.phases, ci.proj1)
    i2 = np.eye(ci.proj2.dim, dtype=complex)
    by_label = {b.label: b.weight for b in bd.branches}
    for label, p in sectors:
        w = float(np.trace(np.kron(p, i2) @ rho_out.mat).real)
        worst = max(worst, abs(by_label.get(label, 0.0) - w))
    return worst, 1e-10


# ------------------------------------------------------------------- payoff


@_register("payoff.linearity", 100)
def _p_linear(rng):
    dim = _random_dim(rng, 2, 6)
    v = dp.RelativeState.from_ket(oc.random_pure_ket(dim, rng))
    ps_a = oc.random_projector_set(dim, oc.random_block_sizes(dim, rng), rng)
    ps_b = oc.random_projector_set(dim, oc.random_block_sizes(dim, rng), rng)
    a = dp.PayoffObservable(tuple(rng.standard_normal(len(ps_a))), ps_a)
    b = dp.PayoffObservable(tuple(rng.standard_normal(len(ps_b))), ps_b)
    al, be = rng.standard_normal(2)
    combo = al * np.trace(v.as_density() @ a.matrix()).real + be * np.trace(
        v.as_density() @ b.matrix()
    ).real
    direct = np.trace(v.as_density() @ (al * a.matrix() + be * b.matrix())).real
    return abs(combo - direct), 1e-10


@_register("payoff.update_weight_consistent", 50)
def _p_update(rng):
    ci = _random_copy_interaction(rng)
    d = ci.unitary.dim
    v = dp.RelativeState.from_ket(oc.random_pure_ket(d, rng))
    worst = 0.0
    u = ci.unitary.mat
    evolved_state = dp.RelativeState(
        oc.support_projector(u @ v.as_density() @ oc.dagger(u))
    )
    i2 = np.eye(ci.proj2.dim, dtype=complex)
    for k, label in enumerate(ci.proj1.labels):
        q = oc.tensor_product(ci.proj1.projectors[k], i2)
        expected = float(np.trace(evolved_state.as_density() @ q).real)
        try:
            _, w = dp.relative_state_update(v, ci, label)
        except dp.ImpossibleOutcomeError:
            w = 0.0
        worst = max(worst, abs(w - expected))
    return worst, 1e-10


@_register("payoff.frequency_deviation_shrinks", 5)
def _p_freq(rng):
    dim = _random_dim(rng, 2, 4)
    v = dp.RelativeState.from_ket(oc.random_pure_ket(dim, rng))
    ps = oc.random_projector_set(dim, [1] * dim, rng)
    a = dp.PayoffObservable(tuple(range(dim)), ps)
    seed = int(rng.integers(0, 2**32))
    n = 10_000
    report = dp.frequency_experiment(v, a, n, seed)
    # Hoeffding per outcome, union bound over the dim outcomes:
    # P(max_k |f_k - w_k| >= t) <= 2 dim exp(-2 n t^2) = FREQ_DELTA
    return report.max_deviation, float(np.sqrt(np.log(2 * dim / FREQ_DELTA) / (2 * n)))


@_register("payoff.update_chain_rule", 50)
def _p_chain(rng):
    ci = _random_copy_interaction(rng)
    d1, d2 = ci.layout.factor_dims
    v = dp.RelativeState.from_ket(oc.random_pure_ket(d1 * d2, rng))
    # observable on the factor whose labels were not conditioned on
    a2 = oc.ginibre((d2, d2), rng)
    a2 = (a2 + oc.dagger(a2)) / 2
    a_full = oc.tensor_product(np.eye(d1, dtype=complex), a2)
    u = ci.unitary.mat
    before = float(np.trace(u @ v.as_density() @ oc.dagger(u) @ a_full).real)
    after = 0.0
    for label in ci.proj1.labels:
        try:
            st, w = dp.relative_state_update(v, ci, label)
        except dp.ImpossibleOutcomeError:
            continue
        after += w * float(np.trace(st.as_density() @ a_full).real)
    return abs(after - before), 1e-9


# ------------------------------------------------------------------ entropy


@_register("entropy.unitary_invariance", 200)
def _p_entropy_unitary(rng):
    dim = _random_dim(rng)
    rho = oc.random_density(dim, int(rng.integers(1, dim + 1)), rng)
    u = oc.random_unitary(dim, rng)
    s1 = ke.von_neumann_entropy(rho)
    s2 = ke.von_neumann_entropy(oc.evolve_state(rho, u))
    return abs(s1 - s2), 1e-9


def _p_decoherence(seed: int, trials: int) -> PropertyResult:
    """Every trial at once; trial t still draws the bits of substream(seed, t)."""
    margins = ke.decoherence_margins(seed, trials)
    return _summarize("entropy.decoherence_never_decreases", -margins, 1e-9)


REGISTRY["entropy.decoherence_never_decreases"] = (1000, _p_decoherence)


def _random_selection(rng, dims, max_epsilon):
    """Weights p, their knowledge state, a selection at epsilon in [0, max_epsilon)
    and its report, drawn in that order."""
    p = rng.random(dims)
    p /= p.sum()
    ks = ke.build_knowledge_state(p, dims)
    theta = ke.perturb_selection(dims, float(rng.uniform(0, max_epsilon)), rng)
    return p, ks, theta, ke.apply_selection_process(ks, theta)


@_register("entropy.selection_preserves_global", 100)
def _p_selection_global(rng):
    p, ks, _, rep = _random_selection(rng, (_random_dim(rng, 2, 3), _random_dim(rng, 2, 3)), 0.5)
    rho_t1 = ks.realized_density()
    s_err = abs(rep.s_global - ke.von_neumann_entropy(rho_t1))
    a = np.sort(np.linalg.eigvalsh(rep.rho_t2.mat))
    b = np.sort(p.flatten())
    b = np.concatenate([np.zeros(len(a) - len(b)), b])
    return max(s_err, float(np.max(np.abs(a - b)))), 1e-9


@_register("entropy.marginal_formula_matches_trace", 200)
def _p_formula(rng):
    rep = _random_selection(rng, (_random_dim(rng, 2, 3), _random_dim(rng, 2, 3)), 1.0)[3]
    return rep.formula_residual, 1e-10


@_register("entropy.knowledge_form_certified", 50)
def _p_form(rng):
    d1, d2 = _random_dim(rng, 2, 3), _random_dim(rng, 2, 3)
    # keep marginals nondegenerate: distinct row and column sums
    while True:
        p = rng.random((d1, d2))
        p /= p.sum()
        rows = np.sort(p.sum(axis=1))
        cols = np.sort(p.sum(axis=0))
        if np.min(np.diff(rows), initial=1) > 1e-3 and np.min(np.diff(cols), initial=1) > 1e-3:
            break
    ks = ke.build_knowledge_state(p, (d1, d2))
    res = ke.knowledge_form_test(ks.realized_density())
    return res.residual, 1e-9


@_register("entropy.theta_measurement_fixed_point", 50)
def _p_theta_fixed(rng):
    _, _, theta, rep = _random_selection(rng, (2, 2), 1.0)
    vecs = theta.vectors(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    ps = oc.ProjectorSet.from_basis(vecs)
    dephased = ke.projective_decoherence(rep.rho_t2, ps)
    return oc.max_abs(dephased.mat - rep.rho_t2.mat), 1e-10


# ---------------------------------------------------------------------------


def run_all(seed: int, trials: int | None = None) -> list[PropertyResult]:
    """Run every registered property, each at `trials` or, when None, its own count."""
    results = []
    for property_id, (default_trials, runner) in sorted(REGISTRY.items()):
        results.append(runner(seed, max(1, trials or default_trials)))
    return results
