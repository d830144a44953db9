"""Entropy accounting for knowledge-bearing bipartite systems.

Covers von Neumann entropy (base 2), free energy, classically-correlated
knowledge states, projective decoherence and its entropy inequality, and
selection processes that rotate the knowledge basis into an orthonormal
theta-family, with the per-subsystem entropy change they induce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError
from .operator_core import (
    TAU_ORTH,
    DensityMatrix,
    ProjectorSet,
    SubsystemLayout,
    block_projectors,
    check_density_stack,
    check_projector_stack,
    check_unitary_stack,
    complex_pairs,
    dagger,
    eigenspaces,
    first_trial,
    gram_densities,
    gram_errors,
    haar_unitaries,
    max_abs,
    orthonormal_columns,
    partial_trace_matrix,
    random_block_sizes,
    trial_blocks,
    trial_name,
)
from .rng import trial_generators

EIGENVALUE_CLAMP = 1e-12


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho), in bits: the one-state case of _spectral_entropies."""
    return float(_spectral_entropies(np.linalg.eigvalsh(rho.mat)[None])[0])


def _spectral_entropies(evals: np.ndarray) -> np.ndarray:
    """-sum_k l_k log2 l_k over the eigenvalues above EIGENVALUE_CLAMP, in bits,
    for each row of an ascending eigenvalue stack (N, n).

    The rows that keep m eigenvalues keep their last m, so they are summed
    as one contiguous (k, m) array, which gives the bits of a row-by-row
    sum.  Zero-padding a shorter row instead would change the last bits, as
    numpy's pairwise sum would group it differently.
    """
    kept = (evals > EIGENVALUE_CLAMP).sum(axis=-1)
    out = np.empty(len(evals))
    for m in sorted(set(kept.tolist())):
        rows = kept == m
        x = evals[rows, evals.shape[-1] - m :]
        out[rows] = -np.sum(x * np.log2(x), axis=-1)
    return out


@dataclass(frozen=True)
class FreeEnergyParams:
    energy: float
    temperature: float
    entropy: float

    def __post_init__(self):
        if not self.temperature >= 0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if not self.entropy >= 0:
            raise ValidationError(f"entropy must be >= 0, got {self.entropy}")
        if not all(map(math.isfinite, (self.energy, self.temperature, self.entropy))):
            raise ValidationError(f"free-energy parameters must be finite, got {self}")


def free_energy(params: FreeEnergyParams) -> float:
    """F = E - T*S."""
    return params.energy - params.temperature * params.entropy


# ---------------------------------------------------------------------------
# Knowledge states


def _weights_defect(p: np.ndarray) -> tuple[np.ndarray, tuple[int, str] | None]:
    """Weights clipped at 0 of a stack (N, na, nb), and its first (row, message) that is no
    distribution (not 3-index, NaN or an entry below -1e-12; a sum off 1 by over 1e-10), or None."""
    nonnegative = (p >= -1e-12).all(axis=(1, 2)) if p.ndim == 3 else np.zeros(1, dtype=bool)
    if (i := first_trial(~nonnegative)) is not None:
        return p, (i, "weights must form a nonnegative matrix")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=(1, 2))
    if (i := first_trial(~(np.abs(total - 1.0) <= 1e-10))) is not None:
        return p, (i, f"weights sum to {total[i]}, expected 1")
    return p, None


def _check_orthonormal(*bases: np.ndarray, message="knowledge basis is not orthonormal") -> None:
    """Bases (d, n) must have orthonormal columns within TAU_ORTH (NaN fails), else message."""
    if not all(gram_errors(b) <= TAU_ORTH for b in bases):
        raise ValidationError(message)


@dataclass(frozen=True)
class KnowledgeState:
    """Classically correlated state sum_ab p_ab |a><a| x |b><b|, checked as select_stack is."""

    p_ab: np.ndarray
    basis1: np.ndarray  # columns: the |a> vectors
    basis2: np.ndarray  # columns: the |b> vectors
    layout: SubsystemLayout

    def __post_init__(self):
        p, defect = _weights_defect(np.asarray(self.p_ab, dtype=float)[None])
        if defect is not None:
            raise ValidationError(defect[1])
        p = p[0]
        d1, d2 = self.layout.factor_dims
        b1 = np.asarray(self.basis1, dtype=complex)
        b2 = np.asarray(self.basis2, dtype=complex)
        if b1.shape != (d1, p.shape[0]) or b2.shape != (d2, p.shape[1]):
            raise ValidationError("basis shapes do not match weights and layout")
        _check_orthonormal(b1, b2)
        object.__setattr__(self, "p_ab", p)

    def realized_density(self) -> DensityMatrix:
        kets = _product_kets(self.basis1, self.basis2, *self.p_ab.shape)
        return DensityMatrix(self.layout, _weighted_dyads(self.p_ab[None], kets[None])[0])


def _product_kets(basis1: np.ndarray, basis2: np.ndarray, na: int, nb: int) -> np.ndarray:
    """|a>|b> for a < na, b < nb, as an (na, nb, d1*d2) array."""
    kets = basis1[:, :na].T[:, None, :, None] * basis2[:, :nb].T[None, :, None, :]
    return kets.reshape(na, nb, -1)


def _weighted_dyads(p: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """sum_ab p[n,a,b] |k_nab><k_nab| for each trial n, added in (a, b) row-major order.

    p is (N, na, nb); kets is (N, na, nb, d), or (1, na, nb, d) when shared.
    """
    n, na, nb = p.shape
    d = kets.shape[-1]
    out = np.zeros((n, d, d), dtype=complex)
    for a in range(na):
        for b in range(nb):
            k = kets[:, a, b]
            out += p[:, a, b, None, None] * (k[:, :, None] * k.conj()[:, None, :])
    return out


def build_knowledge_state(p_ab: np.ndarray, dims: tuple[int, int]) -> KnowledgeState:
    """Knowledge state over the computational bases of the two factors."""
    p = np.asarray(p_ab, dtype=float)
    d1, d2 = SubsystemLayout((int(dims[0]), int(dims[1]))).factor_dims  # capacity check first
    na, nb = p.shape if p.ndim == 2 else (0, 0)  # KnowledgeState rejects any other ndim
    b1 = np.eye(d1, dtype=complex)[:, :na]
    b2 = np.eye(d2, dtype=complex)[:, :nb]
    return KnowledgeState(p, b1, b2, SubsystemLayout((d1, d2)))


# ---------------------------------------------------------------------------
# Theta families and xi rotations


def _lambda_defect(lam: np.ndarray) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """Real coefficients of a stack (N, na, nb, d1, d2) (None if not real), and its first
    (row, message) that is not real within 1e-12, then orthonormal within TAU_ORTH, or None."""
    if np.iscomplexobj(lam):
        imag = np.abs(lam.imag).reshape(len(lam), -1).max(axis=1, initial=0.0)
        if (i := first_trial(~(imag <= 1e-12))) is not None:
            return None, (i, "lambda must be real")
        lam = lam.real
    lam = np.asarray(lam, dtype=float)
    n, na, nb, d1, d2 = lam.shape
    columns = lam.reshape(n, na * nb, d1 * d2).transpose(0, 2, 1)  # theta vectors as columns
    if (i := first_trial(~(gram_errors(columns) <= TAU_ORTH))) is not None:
        return lam, (i, "theta family is not orthonormal")
    return lam, None


@dataclass(frozen=True)
class ThetaFamily:
    """Real orthonormal family |theta_ab> = sum_cd lambda_abcd |c>|d|, checked as select_stack's."""

    lam: np.ndarray  # shape (na, nb, d1, d2)

    def __post_init__(self):
        lam = np.asarray(self.lam)
        if lam.ndim != 4:
            raise ValidationError("lambda must be a 4-index array")
        lam, defect = _lambda_defect(lam[None])
        if defect is not None:
            raise ValidationError(defect[1])
        object.__setattr__(self, "lam", lam[0])

    def vectors(self, basis1: np.ndarray, basis2: np.ndarray) -> np.ndarray:
        """theta vectors as columns, in (a, b) row-major order."""
        na, nb = self.lam.shape[:2]
        return _theta_kets(self.lam[None], basis1, basis2)[0].reshape(na * nb, -1).T

    @staticmethod
    def ideal(dims: tuple[int, int]) -> "ThetaFamily":
        d1, d2 = dims
        return ThetaFamily(np.eye(d1 * d2).reshape(d1, d2, d1, d2))


def _theta_kets(lam: np.ndarray, basis1: np.ndarray, basis2: np.ndarray) -> np.ndarray:
    """|theta_nab> = sum_cd lam[n,a,b,c,d] |c>|d>, as an (N, na, nb, d1*d2) array."""
    n, na, nb = lam.shape[:3]
    return np.einsum("nabcd,ic,jd->nabij", lam, basis1, basis2).reshape(n, na, nb, -1)


@dataclass(frozen=True)
class XiRotation:
    """Real orthogonal xi_cd defining projectors |nu_c><nu_c|."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise ValidationError("xi must be a square real matrix")
        _check_orthonormal(xi.T, message="xi rows are not orthonormal")
        object.__setattr__(self, "xi", xi)

    def nu_projectors(self) -> ProjectorSet:
        return ProjectorSet.from_basis(self.xi.T)


# ---------------------------------------------------------------------------
# Decoherence


def _pinched(rho: DensityMatrix, ps: ProjectorSet) -> np.ndarray:
    """sum_k P_k rho P_k as a one-trial stack (1, d, d), ps checked against the state's dim."""
    if ps.dim != rho.dim:
        raise ValidationError(f"projector dim {ps.dim} != state dim {rho.dim}")
    return _pinch(rho.mat[None], np.array(ps.projectors)[None])


def _pinch(rho: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """sum_k (P_k rho) P_k for stacks rho (N, d, d) and projs (N, K, d, d), added in k order."""
    out = np.zeros_like(rho)
    for k in range(projs.shape[1]):
        out += projs[:, k] @ rho @ projs[:, k]
    return out


def projective_decoherence(rho: DensityMatrix, ps: ProjectorSet) -> DensityMatrix:
    """sum_c P_c rho P_c: kills coherences between the blocks of ps."""
    return DensityMatrix(rho.layout, _pinched(rho, ps)[0])


def _pinching_entropies(
    rho: np.ndarray, pinched: np.ndarray, trials=None
) -> tuple[np.ndarray, np.ndarray]:
    """S(rho) and S(pinched) of each trial, in bits, pinched = sum_k P_k rho P_k.

    Both states are validated with DensityMatrix's checks, rho first, and
    the eigenvalues of each check give the entropies, so each stack takes
    one eigvalsh.  A failure names the first bad trial, numbered by `trials`.
    """
    before = check_density_stack(rho, "rho", trials)
    after = check_density_stack(pinched, "decohered rho", trials)
    return _spectral_entropies(before), _spectral_entropies(after)


def entropy_after_decoherence_geq(
    rho: DensityMatrix, ps: ProjectorSet
) -> tuple[float, float, float]:
    """(S_before, S_after, margin); margin >= 0 up to rounding, always.

    The one-trial case of decoherence_margins' linear algebra.
    """
    before, after = _pinching_entropies(rho.mat[None], _pinched(rho, ps))
    s_before, s_after = float(before[0]), float(after[0])
    return s_before, s_after, s_after - s_before


DECOHERENCE_DIMS = (2, 8)  # smallest and largest dim of a random decoherence trial


def decoherence_margins(seed: int, trials: int) -> np.ndarray:
    """S(sum_k P_k rho P_k) - S(rho) of `trials` random ragged trials, in trial order.

    Trial t draws with the bits of substream(seed, t), through one
    re-keyed generator per block (rng.trial_generators): its dim d in
    DECOHERENCE_DIMS, the rank r of rho = G G-dagger / tr with G a d x r
    complex Gaussian, its block sizes, and the Ginibre matrix of the Haar
    unitary whose column blocks span the projectors P_k.  Each Gaussian is
    kept as its raw (2, ...) draw of real and imaginary parts and made
    complex once per stack.  The linear algebra then runs once per d, over
    its trials in (block count, trial) order: G G-dagger per (d, r); QR,
    then projectors and pinching per block count; then both entropies.
    Every check of random_density, random_projector_set and
    entropy_after_decoherence_geq keeps its decision and tolerance.  Within
    a d (in increasing order) the unitary check runs first, then the
    projector checks per block count, then the density checks, and a
    failure names the first bad trial of the first failing check.  The
    projector checks run only on families whose unitary misses
    ProjectorSet's Gram bound, which every other family passes (see
    ProjectorSet), so they reject the same trial with the same message.
    Every operation acts on each trial alone, so a margin has the bits of
    one trial run alone.  Trials run in trial_blocks, so memory is bounded
    by the block, not by `trials`.
    """
    margins = np.empty(trials)
    for block in trial_blocks(trials, DECOHERENCE_DIMS[1]):
        _decoherence_block(seed, block, margins)
    return margins


def _decoherence_block(seed: int, block: range, margins: np.ndarray) -> None:
    """margins[t] for the trials t in `block`, grouped as decoherence_margins describes."""
    lo, hi = DECOHERENCE_DIMS
    groups: dict[int, list] = {}
    for t, rng in zip(block, trial_generators(seed, block.start, len(block))):
        # trial t's draws, in order: dim, rank, G pair, block sizes, Ginibre pair
        d = int(rng.integers(lo, hi + 1))
        rank = int(rng.integers(1, d + 1))
        g = rng.standard_normal((2, d, rank))
        blocks = random_block_sizes(d, rng)
        h = rng.standard_normal((2, d, d))
        groups.setdefault(d, []).append((len(blocks), t, rank, g, blocks, h))
    for d in sorted(groups):
        rows = sorted(groups.pop(d), key=lambda row: row[0])  # stable: (block count, trial)
        counts, trials, ranks = np.array([row[:3] for row in rows]).T
        rho = np.empty((len(rows), d, d), dtype=complex)
        for r in sorted(set(ranks.tolist())):
            at = np.flatnonzero(ranks == r)
            rho[at] = gram_densities(complex_pairs([rows[i][3] for i in at]))
        u = haar_unitaries(complex_pairs([row[5] for row in rows]))
        # a family whose U passes the Gram bound passes every projector check (see ProjectorSet)
        range_rows = orthonormal_columns(u, check_unitary_stack(u, trials))
        pinched = np.empty_like(rho)
        for k in sorted(set(counts.tolist())):
            at = slice(*np.searchsorted(counts, [k, k + 1]))
            projs = block_projectors(u[at], np.array([row[4] for row in rows[at]]))
            if (full := ~range_rows[at]).any():
                check_projector_stack(projs[full], trials[at][full])
            pinched[at] = _pinch(rho[at], projs)
        s_before, s_after = _pinching_entropies(rho, pinched, trials)
        margins[trials] = s_after - s_before


def _canonical_eigenbasis(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Eigenbasis of a Hermitian m with degenerate subspaces fixed by a reference observable.

    Inside each degenerate eigenspace the basis is rotated to diagonalize
    diag(0, 1, ..., d-1); returns (basis columns, degenerate?).
    """
    evals, vecs = np.linalg.eigh(m)
    ref = np.diag(np.arange(m.shape[0], dtype=float))
    degenerate = False
    for s in eigenspaces(evals, 1e-9):
        if s.stop - s.start > 1:
            degenerate = True
            w = vecs[:, s]
            _, rot = np.linalg.eigh(dagger(w) @ ref @ w)
            vecs[:, s] = w @ rot
    return vecs, degenerate


@dataclass(frozen=True)
class FormTestResult:
    is_knowledge_form: bool
    residual: float
    degenerate_marginals: bool


def knowledge_form_test(rho: DensityMatrix) -> FormTestResult:
    """Is rho invariant under dephasing in both marginal eigenbases?

    That invariance is the operational certificate that rho is a
    classically-correlated knowledge state.  Degenerate marginals leave
    the eigenbasis non-unique; the test then uses the canonical choice and
    flags the degeneracy in the result.
    """
    if rho.layout.n_factors != 2:
        raise UsageError("knowledge-form test needs a bipartite layout")
    b1, deg1 = _canonical_eigenbasis(partial_trace_matrix(rho.mat, rho.layout.factor_dims, (0,)))
    b2, deg2 = _canonical_eigenbasis(partial_trace_matrix(rho.mat, rho.layout.factor_dims, (1,)))
    # rank-1 product dephasing in the (canonical) marginal eigenbases
    product_basis = np.kron(b1, b2)
    coeffs = dagger(product_basis) @ rho.mat @ product_basis
    dephased = product_basis @ np.diag(np.diag(coeffs)) @ dagger(product_basis)
    residual = max_abs(rho.mat - dephased)
    return FormTestResult(residual <= 1e-9, residual, deg1 or deg2)


# ---------------------------------------------------------------------------
# Selection processes


@dataclass(frozen=True)
class SelectionReport:
    rho_t2: DensityMatrix
    s1_t1: float
    s2_t1: float
    s1_t2: float
    s2_t2: float
    ds1: float
    ds2: float
    s_global: float
    formula_residual: float  # index-formula marginals vs partial trace


@dataclass(frozen=True)
class StackedSelection:
    """Per-trial results of a selection stack; axis 0 indexes the trial."""

    rho_t2: np.ndarray  # (N, d, d)
    marginals: tuple[np.ndarray, ...]  # rho1(t1), rho2(t1), rho1(t2), rho2(t2)
    entropies: np.ndarray  # (4, N): entropy of each marginal, same order
    s_global: np.ndarray  # (N,): entropy of rho(t2)

    @property
    def ds1(self) -> np.ndarray:
        return self.entropies[2] - self.entropies[0]

    @property
    def ds2(self) -> np.ndarray:
        return self.entropies[3] - self.entropies[1]


def select_stack(
    p: np.ndarray, lam: np.ndarray, basis1: np.ndarray, basis2: np.ndarray, trials=None
) -> StackedSelection:
    """Selections rho_n(t2) = sum_ab p_nab |theta_nab><theta_nab| for N trials at once.

    p (N, na, nb) holds each trial's knowledge weights and lam
    (N, na, nb, d1, d2) its real theta coefficients.  basis1 (d1, d1) and
    basis2 (d2, d2) are full orthonormal bases shared by every trial; their
    first na and nb columns are the knowledge bases.

    Each stack is validated once, by the one check per concept that
    KnowledgeState (bases, then weights), ThetaFamily (lambda) and
    DensityMatrix (rho(t1), rho(t2), the four marginals) also run.  A failure
    names the first bad trial, numbered by `trials` (default: the stack
    index).  Every operation acts on each trial alone, so a trial's numbers
    are those of a one-trial stack.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam)
    if p.ndim != 3 or p.shape[0] < 1 or lam.ndim != 5 or lam.shape[:3] != p.shape:
        raise ValidationError(
            f"weights {p.shape} and lambda {lam.shape} do not form a trial stack"
        )
    na, nb = p.shape[1:]
    d1, d2 = SubsystemLayout(lam.shape[3:]).factor_dims  # capacity check
    b1 = np.asarray(basis1, dtype=complex)
    b2 = np.asarray(basis2, dtype=complex)
    if b1.shape != (d1, d1) or b2.shape != (d2, d2) or na > d1 or nb > d2:
        raise ValidationError(f"bases {b1.shape}, {b2.shape} do not match lambda {lam.shape}")
    _check_orthonormal(b1, b2)
    p, defect = _weights_defect(p)
    if defect is None:
        lam, defect = _lambda_defect(lam)
    if defect is not None:
        raise ValidationError(f"{trial_name(defect[0], trials)}: {defect[1]}")

    rho_t1 = _weighted_dyads(p, _product_kets(b1, b2, na, nb)[None])
    rho_t2 = _weighted_dyads(p, _theta_kets(lam, b1, b2))
    check_density_stack(rho_t1, "rho(t1)", trials)
    evals_t2 = check_density_stack(rho_t2, "rho(t2)", trials)
    marginals = tuple(
        partial_trace_matrix(rho, (d1, d2), keep)
        for rho in (rho_t1, rho_t2)
        for keep in ((0,), (1,))
    )
    names = ("rho1(t1)", "rho2(t1)", "rho1(t2)", "rho2(t2)")
    entropies = np.array(
        [
            _spectral_entropies(check_density_stack(m, k, trials))
            for m, k in zip(marginals, names)
        ]
    )
    return StackedSelection(rho_t2, marginals, entropies, _spectral_entropies(evals_t2))


def apply_selection_process(ks: KnowledgeState, theta: ThetaFamily) -> SelectionReport:
    """Run the selection rho(t2) = sum_ab p_ab |theta_ab><theta_ab|.

    The one-trial case of select_stack.  Reduced states at t2 are also
    computed from the lambda index formula, and the report carries the
    residual between that and the partial trace.  Global entropy is
    unchanged because the weights are carried onto an orthonormal family.
    """
    d1, d2 = ks.layout.factor_dims
    # full bases for the theta vectors; select_stack checks theta against them and the weights
    b1 = _complete_basis(ks.basis1, d1)
    b2 = _complete_basis(ks.basis2, d2)
    sel = select_stack(ks.p_ab[None], theta.lam[None], b1, b2)
    # index-formula marginals, in the extended bases
    lam = theta.lam
    m1 = np.einsum("ab,abcd,abed->ce", ks.p_ab, lam, lam)
    m2 = np.einsum("ab,abcd,abcf->df", ks.p_ab, lam, lam)
    f1 = b1 @ m1 @ dagger(b1)
    f2 = b2 @ m2 @ dagger(b2)
    formula_residual = max(max_abs(f1 - sel.marginals[2][0]), max_abs(f2 - sel.marginals[3][0]))
    s1_t1, s2_t1, s1_t2, s2_t2 = sel.entropies[:, 0].tolist()
    return SelectionReport(
        rho_t2=DensityMatrix.from_checked(ks.layout, sel.rho_t2[0]),  # select_stack checked it
        s1_t1=s1_t1,
        s2_t1=s2_t1,
        s1_t2=s1_t2,
        s2_t2=s2_t2,
        ds1=s1_t2 - s1_t1,
        ds2=s2_t2 - s2_t1,
        s_global=float(sel.s_global[0]),
        formula_residual=formula_residual,
    )


def _complete_basis(partial: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of C^dim, keeping them first.

    The trailing left singular vectors of `partial` span its complement.
    """
    if partial.shape[1] == dim:
        return partial
    return np.column_stack([partial, np.linalg.svd(partial)[0][:, partial.shape[1] :]])


def perturbed_lams(dims: tuple[int, int], epsilon, normals: np.ndarray, trials=None) -> np.ndarray:
    """Imperfect selections: the ideal family rotated by exp(epsilon_n * G_n).

    G_n is a random real antisymmetric generator with unit spectral norm,
    built from normals[n], trial n's standard-normal (d, d) draw, so epsilon
    is a severity dial: a scalar shared by every trial, or one value per
    trial, shape (N,).  A trial with epsilon_n = 0 gets the ideal family and
    its normals are never read.  Returns the lambda stack (N, d1, d2, d1,
    d2); the epsilon_n > 0 trials take one stacked expm.  Non-finite normals,
    a zero generator or a non-finite rotation name their trial, numbered by
    `trials` (default: the stack index).
    """
    d1, d2 = int(dims[0]), int(dims[1])
    d = d1 * d2
    normals = np.asarray(normals)
    eps = np.asarray(epsilon, dtype=float)
    if normals.ndim != 3 or normals.shape[1:] != (d, d) or eps.shape not in ((), normals.shape[:1]):
        raise ValidationError(f"normals {normals.shape} and epsilon {eps.shape} form no trial stack")
    eps = np.broadcast_to(eps, normals.shape[:1])
    if not (np.isfinite(eps) & (eps >= 0)).all():
        raise UsageError(f"epsilon must be finite and >= 0, got {epsilon}")
    r = np.tile(ThetaFamily.ideal((d1, d2)).lam.reshape(d, d), (len(normals), 1, 1))
    if (on := np.flatnonzero(eps > 0)).size:
        if (i := first_trial(~np.isfinite(normals[on]).all(axis=(1, 2)))) is not None:
            raise ValidationError(f"{trial_name(on[i], trials)}: normals are not finite")
        g = normals[on] - normals[on].transpose(0, 2, 1)
        norm = np.linalg.norm(g, 2, axis=(1, 2))
        if (i := first_trial(norm == 0)) is not None:
            raise ValidationError(f"{trial_name(on[i], trials)}: rotation generator is zero")
        g = g / norm[:, None, None]
        import scipy.linalg  # here, so that runs without a perturbed selection never load scipy

        r[on] = scipy.linalg.expm(eps[on, None, None] * g)
        if (i := first_trial(~np.isfinite(r[on]).all(axis=(1, 2)))) is not None:
            raise ValidationError(f"{trial_name(on[i], trials)}: rotation exp(epsilon G) is not finite")
    # column (a*d2 + b) of r_n is theta_ab in the computational product basis
    return r.transpose(0, 2, 1).reshape(-1, d1, d2, d1, d2)


def perturb_selection(
    dims: tuple[int, int], epsilon: float, rng: np.random.Generator
) -> ThetaFamily:
    """One imperfect selection: the one-trial case of perturbed_lams.

    rng draws the (d, d) normals only when epsilon > 0.
    """
    d = int(dims[0]) * int(dims[1])
    normals = rng.standard_normal((1, d, d)) if epsilon > 0 else np.empty((1, d, d))
    return ThetaFamily(perturbed_lams(dims, epsilon, normals)[0])


def relabeling_counterexample() -> tuple[KnowledgeState, ThetaFamily]:
    """Two-qubit fixture where a perfect relabeling lowers marginal entropy.

    Weights diag(1/2, 1/2) with |00> -> |00>, |11> -> |01| move one full
    bit out of subsystem 1, so the post-selection marginal entropy drops
    by exactly 1 bit: the concluding inequality is conditional, not
    universal over orthonormal theta-families.
    """
    ks = build_knowledge_state(np.diag([0.5, 0.5]), (2, 2))
    lam = np.zeros((2, 2, 2, 2))
    lam[0, 0, 0, 0] = 1.0  # |00> -> |00>
    lam[1, 1, 0, 1] = 1.0  # |11> -> |01>
    lam[0, 1, 1, 0] = 1.0  # filler branches with zero weight
    lam[1, 0, 1, 1] = 1.0
    return ks, ThetaFamily(lam)
