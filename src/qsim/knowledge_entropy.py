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
    TAU_PSD,
    DensityMatrix,
    ProjectorSet,
    SubsystemLayout,
    block_projectors,
    check_density_stack,
    check_projector_stack,
    check_unitary_stack,
    dagger,
    eigenspaces,
    first_trial,
    ginibre,
    gram_densities,
    haar_unitaries,
    hermitian_eigendecomposition,
    max_abs,
    partial_trace,
    partial_trace_matrix,
    random_block_sizes,
    trial_blocks,
    trial_name,
)
from .rng import substream

EIGENVALUE_CLAMP = 1e-12


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho), in bits."""
    evals = np.linalg.eigvalsh(rho.mat)
    if evals.min() < -TAU_PSD:
        raise ValidationError(f"state has eigenvalue {evals.min()} < 0")
    return _entropy_bits(evals)


def _entropy_bits(evals: np.ndarray) -> float:
    """-sum_k l_k log2 l_k over the eigenvalues above EIGENVALUE_CLAMP, in bits."""
    evals = np.clip(evals, 0.0, None)
    nz = evals[evals > EIGENVALUE_CLAMP]
    return float(-np.sum(nz * np.log2(nz)))


def _spectral_entropies(evals: np.ndarray) -> np.ndarray:
    """_entropy_bits of each row of an ascending eigenvalue stack (N, n).

    The rows that keep m eigenvalues keep their last m, so they are summed
    as one contiguous (k, m) array, which gives the bits of a row-by-row
    sum.  Zero-padding a shorter row instead would change the last bits, as
    numpy's pairwise sum would group it differently.
    """
    kept = (evals > EIGENVALUE_CLAMP).sum(axis=-1)
    out = np.empty(len(evals))
    for m in np.unique(kept):
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
        if self.temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")


def free_energy(params: FreeEnergyParams) -> float:
    """F = E - T*S."""
    return params.energy - params.temperature * params.entropy


# ---------------------------------------------------------------------------
# Knowledge states


@dataclass(frozen=True)
class KnowledgeState:
    """Classically correlated bipartite state sum_ab p_ab |a><a| x |b><b|."""

    p_ab: np.ndarray
    basis1: np.ndarray  # columns: the |a> vectors
    basis2: np.ndarray  # columns: the |b> vectors
    layout: SubsystemLayout

    def __post_init__(self):
        p = np.asarray(self.p_ab, dtype=float)
        if p.ndim != 2 or np.any(p < -1e-12):
            raise ValidationError("weights must form a nonnegative matrix")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValidationError(f"weights sum to {p.sum()}, expected 1")
        d1, d2 = self.layout.factor_dims
        b1 = np.asarray(self.basis1, dtype=complex)
        b2 = np.asarray(self.basis2, dtype=complex)
        if b1.shape != (d1, p.shape[0]) or b2.shape != (d2, p.shape[1]):
            raise ValidationError("basis shapes do not match weights and layout")
        for b in (b1, b2):
            if max_abs(dagger(b) @ b - np.eye(b.shape[1])) > TAU_ORTH:
                raise ValidationError("knowledge basis is not orthonormal")
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
    d1, d2 = int(dims[0]), int(dims[1])
    if p.shape[0] > d1 or p.shape[1] > d2:
        raise ValidationError(f"weight shape {p.shape} exceeds dims {dims}")
    b1 = np.eye(d1, dtype=complex)[:, : p.shape[0]]
    b2 = np.eye(d2, dtype=complex)[:, : p.shape[1]]
    return KnowledgeState(p, b1, b2, SubsystemLayout((d1, d2)))


# ---------------------------------------------------------------------------
# Theta families and xi rotations


@dataclass(frozen=True)
class ThetaFamily:
    """Orthonormal family |theta_ab> = sum_cd lambda_abcd |c>|d| with real lambda."""

    lam: np.ndarray  # shape (na, nb, d1, d2)

    def __post_init__(self):
        lam = np.asarray(self.lam)
        if lam.ndim != 4:
            raise ValidationError("lambda must be a 4-index array")
        if np.iscomplexobj(lam) and max_abs(lam.imag) > 1e-12:
            raise ValidationError("lambda must be real")
        lam = np.asarray(lam.real if np.iscomplexobj(lam) else lam, dtype=float)
        na, nb, d1, d2 = lam.shape
        flat = lam.reshape(na * nb, d1 * d2)
        gram = flat @ flat.T
        if max_abs(gram - np.eye(na * nb)) > TAU_ORTH:
            raise ValidationError("theta family is not orthonormal")
        object.__setattr__(self, "lam", lam)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.lam.shape

    def vectors(self, basis1: np.ndarray, basis2: np.ndarray) -> np.ndarray:
        """theta vectors as columns, in (a, b) row-major order."""
        na, nb = self.lam.shape[:2]
        return _theta_kets(self.lam[None], basis1, basis2)[0].reshape(na * nb, -1).T

    @staticmethod
    def ideal(dims: tuple[int, int]) -> "ThetaFamily":
        d1, d2 = dims
        lam = np.zeros((d1, d2, d1, d2))
        for a in range(d1):
            for b in range(d2):
                lam[a, b, a, b] = 1.0
        return ThetaFamily(lam)


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
        if max_abs(xi @ xi.T - np.eye(xi.shape[0])) > TAU_ORTH:
            raise ValidationError("xi rows are not orthonormal")
        object.__setattr__(self, "xi", xi)

    def nu_projectors(self) -> ProjectorSet:
        projs = tuple(np.outer(row, row).astype(complex) for row in self.xi)
        return ProjectorSet(projs)


# ---------------------------------------------------------------------------
# Decoherence


def _projector_stack(rho: DensityMatrix, ps: ProjectorSet) -> np.ndarray:
    """ps as a one-trial stack (1, K, d, d), checked against the state's dim."""
    if ps.dim != rho.dim:
        raise ValidationError(f"projector dim {ps.dim} != state dim {rho.dim}")
    return np.array(ps.projectors)[None]


def _pinch(rho: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """sum_k (P_k rho) P_k for stacks rho (N, d, d) and projs (N, K, d, d), added in k order."""
    out = np.zeros_like(rho)
    for k in range(projs.shape[1]):
        out += projs[:, k] @ rho @ projs[:, k]
    return out


def projective_decoherence(rho: DensityMatrix, ps: ProjectorSet) -> DensityMatrix:
    """sum_c P_c rho P_c: kills coherences between the blocks of ps."""
    return DensityMatrix(rho.layout, _pinch(rho.mat[None], _projector_stack(rho, ps))[0])


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
    mat = rho.mat[None]
    before, after = _pinching_entropies(mat, _pinch(mat, _projector_stack(rho, ps)))
    s_before, s_after = float(before[0]), float(after[0])
    return s_before, s_after, s_after - s_before


DECOHERENCE_DIMS = (2, 8)  # smallest and largest dim of a random decoherence trial


def _draw_decoherence_trial(rng: np.random.Generator) -> tuple:
    """One trial's draws, in order: dim, rank, G (dim x rank), block sizes, Haar Ginibre matrix."""
    lo, hi = DECOHERENCE_DIMS
    dim = int(rng.integers(lo, hi + 1))
    rank = int(rng.integers(1, dim + 1))
    g = ginibre((dim, rank), rng)
    blocks = random_block_sizes(dim, rng)
    return dim, rank, g, blocks, ginibre((dim, dim), rng)


def decoherence_margins(seed: int, trials: int) -> np.ndarray:
    """S(sum_k P_k rho P_k) - S(rho) of `trials` random ragged trials, in trial order.

    Trial t draws from substream(seed, t): its dim d in DECOHERENCE_DIMS,
    the rank r of rho = G G-dagger / tr with G a d x r complex Gaussian, its
    block sizes, and the Ginibre matrix of the Haar unitary whose column
    blocks span the projectors P_k.  The linear algebra then runs once per
    d, over its trials in (block count, trial) order: G G-dagger per (d, r);
    QR, then projectors and pinching per block count; then both entropies.
    Every check of random_density, random_projector_set and
    entropy_after_decoherence_geq is kept, with its tolerance.  Within a d
    (in increasing order) the unitary check runs first, then the projector
    checks per block count, then the density checks, and a failure names
    the first bad trial of the first failing check.  Every operation acts on
    each trial alone, so a margin has the bits of one trial run alone.
    Trials run in trial_blocks, so memory is bounded by the block, not by
    `trials`.
    """
    margins = np.empty(trials)
    for block in trial_blocks(trials, DECOHERENCE_DIMS[1]):
        margins[block.start : block.stop] = _decoherence_block(seed, block)
    return margins


def _decoherence_block(seed: int, block: range) -> np.ndarray:
    """Margins of the trials in `block`, grouped as decoherence_margins describes."""
    groups: dict[int, list] = {}
    for t in block:
        draw = _draw_decoherence_trial(substream(seed, t))
        groups.setdefault(draw[0], []).append((t, *draw[1:]))
    margins = np.empty(len(block))
    for d in sorted(groups):
        rows = sorted(groups.pop(d), key=lambda row: len(row[3]))  # stable: (block count, trial)
        trials, ranks, counts = np.array([(row[0], row[1], len(row[3])) for row in rows]).T
        rho = np.empty((len(rows), d, d), dtype=complex)
        for r in np.unique(ranks):
            at = np.flatnonzero(ranks == r)
            rho[at] = gram_densities(np.array([rows[i][2] for i in at]))
        u = haar_unitaries(np.array([row[4] for row in rows]))
        check_unitary_stack(u, trials)
        pinched = np.empty_like(rho)
        for k in np.unique(counts):
            at = slice(*np.searchsorted(counts, [k, k + 1]))
            projs = block_projectors(u[at], np.array([row[3] for row in rows[at]]))
            check_projector_stack(projs, trials[at])
            pinched[at] = _pinch(rho[at], projs)
        s_before, s_after = _pinching_entropies(rho, pinched, trials)
        margins[trials - block.start] = s_after - s_before
    return margins


def _canonical_eigenbasis(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Eigenbasis with degenerate subspaces fixed by a reference observable.

    Inside each degenerate eigenspace the basis is rotated to diagonalize
    diag(0, 1, ..., d-1); returns (eigenvalues, basis columns, degenerate?).
    """
    evals, evecs = hermitian_eigendecomposition(m)
    ref = np.diag(np.arange(m.shape[0], dtype=float))
    degenerate = False
    vecs = np.array(evecs, dtype=complex)
    for s in eigenspaces(evals, 1e-9):
        if s.stop - s.start > 1:
            degenerate = True
            w = vecs[:, s]
            _, rot = np.linalg.eigh(dagger(w) @ ref @ w)
            vecs[:, s] = w @ rot
    return evals, vecs, degenerate


@dataclass(frozen=True)
class FormTestResult:
    is_knowledge_form: bool
    residual: float
    degenerate_marginals: bool
    basis1: np.ndarray
    basis2: np.ndarray


def knowledge_form_test(rho: DensityMatrix) -> FormTestResult:
    """Is rho invariant under dephasing in both marginal eigenbases?

    That invariance is the operational certificate that rho is a
    classically-correlated knowledge state.  Degenerate marginals leave
    the eigenbasis non-unique; the test then uses the canonical choice and
    flags the degeneracy in the result.
    """
    if rho.layout.n_factors != 2:
        raise UsageError("knowledge-form test needs a bipartite layout")
    rho1 = partial_trace(rho, (0,))
    rho2 = partial_trace(rho, (1,))
    _, b1, deg1 = _canonical_eigenbasis(rho1.mat)
    _, b2, deg2 = _canonical_eigenbasis(rho2.mat)
    # rank-1 product dephasing in the (canonical) marginal eigenbases
    product_basis = np.kron(b1, b2)
    coeffs = dagger(product_basis) @ rho.mat @ product_basis
    dephased = product_basis @ np.diag(np.diag(coeffs)) @ dagger(product_basis)
    residual = max_abs(rho.mat - dephased)
    return FormTestResult(residual <= 1e-9, residual, deg1 or deg2, b1, b2)


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

    Each stack is validated once, with the checks and tolerances of
    KnowledgeState (weights), ThetaFamily (lambda) and DensityMatrix
    (rho(t1), rho(t2) and the four marginals; von_neumann_entropy's PSD
    check is the same test on the same eigenvalues).  A failure names the
    first bad trial, numbered by `trials` (default: the stack index).  Every
    operation acts on each trial alone, so a trial's numbers are those of a
    one-trial stack.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam)
    if p.ndim != 3 or p.shape[0] < 1 or lam.ndim != 5 or lam.shape[:3] != p.shape:
        raise ValidationError(
            f"weights {p.shape} and lambda {lam.shape} do not form a trial stack"
        )
    n, na, nb = p.shape
    d1, d2 = SubsystemLayout(lam.shape[3:]).factor_dims  # capacity check
    b1 = np.asarray(basis1, dtype=complex)
    b2 = np.asarray(basis2, dtype=complex)
    if b1.shape != (d1, d1) or b2.shape != (d2, d2) or na > d1 or nb > d2:
        raise ValidationError(f"bases {b1.shape}, {b2.shape} do not match lambda {lam.shape}")
    for b in (b1, b2):
        if max_abs(dagger(b) @ b - np.eye(b.shape[1])) > TAU_ORTH:
            raise ValidationError("knowledge basis is not orthonormal")
    if (i := first_trial((p < -1e-12).any(axis=(1, 2)))) is not None:
        raise ValidationError(f"{trial_name(i, trials)}: weights must form a nonnegative matrix")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=(1, 2))
    if (i := first_trial(np.abs(total - 1.0) > 1e-10)) is not None:
        raise ValidationError(f"{trial_name(i, trials)}: weights sum to {total[i]}, expected 1")
    if np.iscomplexobj(lam):
        if (i := first_trial(np.abs(lam.imag).max(axis=(1, 2, 3, 4)) > 1e-12)) is not None:
            raise ValidationError(f"{trial_name(i, trials)}: lambda must be real")
        lam = lam.real
    lam = np.asarray(lam, dtype=float)
    flat = lam.reshape(n, na * nb, d1 * d2)
    orth = np.abs(flat @ flat.transpose(0, 2, 1) - np.eye(na * nb)).max(axis=(1, 2))
    if (i := first_trial(orth > TAU_ORTH)) is not None:
        raise ValidationError(f"{trial_name(i, trials)}: theta family is not orthonormal")

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
    na, nb = ks.p_ab.shape
    tna, tnb, d1, d2 = theta.shape
    if (tna, tnb) != (na, nb) or (d1, d2) != ks.layout.factor_dims:
        raise ValidationError(
            f"theta shape {theta.shape} incompatible with weights {ks.p_ab.shape} "
            f"and layout {ks.layout.factor_dims}"
        )
    # theta vectors need full marginal bases; extend the knowledge bases
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


def perturbed_lams(dims: tuple[int, int], epsilon: float, rngs) -> np.ndarray:
    """Imperfect selections: the ideal family rotated by exp(epsilon * G_n).

    G_n is a random real antisymmetric generator with unit spectral norm,
    built from one standard-normal (d, d) draw of rngs[n], so epsilon is a
    severity dial.  epsilon = 0 draws nothing and gives every trial the
    ideal family.  Returns the lambda stack (N, d1, d2, d1, d2); the N
    matrix exponentials are one stacked expm.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise UsageError(f"epsilon must be finite and >= 0, got {epsilon}")
    d1, d2 = int(dims[0]), int(dims[1])
    d = d1 * d2
    if epsilon == 0:
        return np.broadcast_to(ThetaFamily.ideal((d1, d2)).lam, (len(rngs), d1, d2, d1, d2))
    g = np.array([rng.standard_normal((d, d)) for rng in rngs])
    g = g - g.transpose(0, 2, 1)
    g = g / np.linalg.norm(g, 2, axis=(1, 2))[:, None, None]
    import scipy.linalg  # here, so that runs without a perturbed selection never load scipy

    r = scipy.linalg.expm(epsilon * g)
    # column (a*d2 + b) of r_n is theta_ab in the computational product basis
    return r.transpose(0, 2, 1).reshape(-1, d1, d2, d1, d2)


def perturb_selection(
    dims: tuple[int, int], epsilon: float, rng: np.random.Generator
) -> ThetaFamily:
    """One imperfect selection: the one-trial case of perturbed_lams."""
    return ThetaFamily(perturbed_lams(dims, epsilon, [rng])[0])


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
