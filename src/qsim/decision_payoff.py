"""Decision-theoretic probability over relative states.

A branch ("version") of a system is described by a relative-state
projector; its betting weight for a payoff observable is the trace rule,
and conditioning on a copied outcome renormalizes the projected branch.
The frequency experiment models one observer-history of repeated trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleOutcomeError, UsageError, ValidationError
from .heisenberg_flow import CopyInteraction, ObservableSpec
from .operator_core import (
    TAU_PROJ,
    ProjectorSet,
    as_matrix,
    dagger,
    is_hermitian,
    max_abs,
    support_projector,
    tensor_product,
)
from .rng import first_uniforms

FREQUENCY_BLOCK = 8192  # trials per batched draw in frequency_experiment


@dataclass(frozen=True)
class RelativeState:
    """Projector describing one branch, plus its branch-label history."""

    projector: np.ndarray
    label: tuple = ()

    def __post_init__(self):
        p = as_matrix(self.projector, "relative state")
        if not is_hermitian(p, TAU_PROJ) or max_abs(p @ p - p) > TAU_PROJ:
            raise ValidationError("relative state must be a projector")
        if np.trace(p).real < 0.5:
            raise ValidationError("relative state projector has rank 0")
        object.__setattr__(self, "projector", p)
        object.__setattr__(self, "label", tuple(self.label))

    @property
    def dim(self) -> int:
        return self.projector.shape[0]

    def as_density(self) -> np.ndarray:
        """Rank > 1 projectors renormalize to a unit-trace state."""
        return self.projector / np.trace(self.projector).real

    @staticmethod
    def from_ket(ket: np.ndarray, label: tuple = ()) -> "RelativeState":
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        ket = ket / np.linalg.norm(ket)
        return RelativeState(np.outer(ket, ket.conj()), label)


# an observable whose eigenvalues are payoffs: sum_k payoff_k P_k
PayoffObservable = ObservableSpec


def payoff_product(v: RelativeState, a: PayoffObservable) -> np.ndarray:
    """The operator rho_v A whose trace is the expected payoff."""
    if v.dim != a.projectors.dim:
        raise UsageError(f"state dim {v.dim} != observable dim {a.projectors.dim}")
    return v.as_density() @ a.matrix()


def expected_payoff(v: RelativeState, a: PayoffObservable) -> float:
    """Betting weight tr(rho_v A)."""
    return float(np.trace(payoff_product(v, a)).real)


def outcome_weights(v: RelativeState, ps: ProjectorSet) -> np.ndarray:
    """Branch weights tr(rho_v P_k), clamped against rounding noise."""
    rho = v.as_density()
    w = np.array([np.trace(rho @ p).real for p in ps.projectors])
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def relative_state_update(
    v: RelativeState, ci: CopyInteraction, outcome_label
) -> tuple[RelativeState, float]:
    """Condition the evolved branch on one copied outcome.

    Outcomes are the copied branch labels, i.e. the labels of the S1
    projector family whose information the interaction records.  Returns
    the renormalized projected state with its label path extended by
    (interaction, outcome), together with the branch weight.
    """
    if outcome_label not in ci.proj1.labels:
        raise UsageError(f"unknown outcome {outcome_label!r}; have {ci.proj1.labels}")
    if v.dim != ci.unitary.dim:
        raise UsageError(f"state dim {v.dim} != interaction dim {ci.unitary.dim}")
    k = ci.proj1.labels.index(outcome_label)
    q = tensor_product(ci.proj1.projectors[k], np.eye(ci.proj2.dim, dtype=complex))
    u = ci.unitary.mat
    evolved = u @ v.as_density() @ dagger(u)
    block = q @ evolved @ q
    weight = float(np.trace(block).real)
    if weight <= 1e-12:
        raise ImpossibleOutcomeError(
            f"outcome {outcome_label!r} has zero branch weight"
        )
    label = v.label + ((id_of(ci), outcome_label),)
    return RelativeState(support_projector(block / weight), label), weight


def id_of(ci: CopyInteraction) -> str:
    """Stable identity for an interaction inside branch-label paths."""
    return f"copy[{len(ci.proj1)}x{len(ci.proj2)}]@{ci.unitary.dim}"


@dataclass(frozen=True)
class OutcomeRow:
    outcome_label: object
    weight: float
    count: int
    frequency: float
    abs_deviation: float


@dataclass(frozen=True)
class FrequencyReport:
    rows: tuple[OutcomeRow, ...]
    max_deviation: float


def frequency_experiment(
    v: RelativeState, a: PayoffObservable, n_trials: int, seed: int
) -> FrequencyReport:
    """Simulate one observer-history of repeated branch selections.

    Trial i draws the first uniform of substream(seed, i), so the report is
    deterministic and independent of evaluation order.  The draws are made
    FREQUENCY_BLOCK trials at a time by `rng.first_uniforms`, whose scratch
    array then holds 9 * FREQUENCY_BLOCK uint64 words (576 KiB at 8,192);
    the counts are integers, so blocking cannot change them.
    """
    if n_trials < 1:
        raise UsageError(f"n_trials must be >= 1, got {n_trials}")
    weights = outcome_weights(v, a.projectors)
    cum = np.cumsum(weights)
    last = len(weights) - 1
    counts = np.zeros(len(weights), dtype=int)
    for start in range(0, n_trials, FREQUENCY_BLOCK):
        u = first_uniforms(seed, start, min(FREQUENCY_BLOCK, n_trials - start))
        k = np.minimum(np.searchsorted(cum, u, side="right"), last)
        counts += np.bincount(k, minlength=len(weights))
    rows = []
    for k, label in enumerate(a.projectors.labels):
        freq = counts[k] / n_trials
        rows.append(
            OutcomeRow(label, float(weights[k]), int(counts[k]), freq, abs(freq - weights[k]))
        )
    return FrequencyReport(tuple(rows), max(r.abs_deviation for r in rows))
