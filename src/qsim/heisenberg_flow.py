"""Heisenberg-picture information flow between two interacting subsystems.

Builds product-of-projector copy interactions, checks which observables
survive them unchanged, and extracts the discrete projector families whose
labels are the only information a unitary interaction can copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, UsageError, ValidationError
from .operator_core import (
    DensityMatrix,
    ProjectorSet,
    SpectralDecomposition,
    SubsystemLayout,
    UnitaryOperator,
    as_matrix,
    computational_projectors,
    dagger,
    eigenspaces,
    evolve_state,
    kron_stack,
    max_abs,
    partial_trace_matrix,
    unit_ket,
    weighted_sum,
)

# phase spread below which two phase rows count as equal up to a constant
COPY_TOL = 1e-9


@dataclass(frozen=True)
class Descriptor:
    """One named operator of a subsystem, embedded in the total space."""

    name: str
    subsystem: int
    mat: np.ndarray


@dataclass(frozen=True)
class DescriptorSet:
    """Representative operators of each subsystem at one time step."""

    layout: SubsystemLayout
    descriptors: tuple[Descriptor, ...]
    time_tag: int = 0

    def __post_init__(self):
        for d in self.descriptors:
            m = as_matrix(d.mat, f"descriptor {d.name}")
            if m.shape[0] != self.layout.total_dim:
                raise ValidationError(
                    f"descriptor {d.name} dim {m.shape[0]} != total {self.layout.total_dim}"
                )

    def by_name(self, name: str) -> np.ndarray:
        for d in self.descriptors:
            if d.name == name:
                return d.mat
        raise UsageError(f"no descriptor named {name!r}")


@dataclass(frozen=True)
class ObservableSpec:
    """Observable sum_a alpha_a P_a over a complete projector family."""

    coefficients: tuple[float, ...]
    projectors: ProjectorSet

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) != len(self.projectors):
            raise ValidationError("coefficient count must match projector count")
        if not all(np.isfinite(coeffs)):
            raise ValidationError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def matrix(self) -> np.ndarray:
        return weighted_sum(self.coefficients, self.projectors.projectors)


@dataclass(frozen=True)
class CopyInteraction:
    """U = sum_ab exp(i phi_ab) P_1a x P_2b on S1 x S2, built from its parts."""

    phases: np.ndarray  # rows indexed by S1 labels, columns by S2 labels
    proj1: ProjectorSet
    proj2: ProjectorSet
    unitary: UnitaryOperator = field(init=False)

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.shape != (len(self.proj1), len(self.proj2)):
            raise ValidationError(
                f"phase matrix shape {phases.shape} != projector counts "
                f"({len(self.proj1)}, {len(self.proj2)})"
            )
        if not np.isfinite(phases).all():
            raise ValidationError("phase matrix contains non-finite entries")
        phases = phases.copy()
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        mat = _copy_unitary_matrix(phases, self.proj1, self.proj2)
        layout = SubsystemLayout((self.proj1.dim, self.proj2.dim))
        object.__setattr__(self, "unitary", UnitaryOperator(layout, mat))

    @property
    def layout(self) -> SubsystemLayout:
        return self.unitary.layout


def _copy_unitary_matrix(phases: np.ndarray, p1: ProjectorSet, p2: ProjectorSet) -> np.ndarray:
    pairs = kron_stack(np.array(p1.projectors)[:, None], np.array(p2.projectors)[None])
    return weighted_sum(np.exp(1j * phases).ravel(), pairs.reshape((-1,) + pairs.shape[-2:]))


def build_copy_unitary(
    phases: np.ndarray, p1: ProjectorSet, p2: ProjectorSet
) -> CopyInteraction:
    """Assemble the product-of-projectors interaction unitary.

    The global phase gauge is fixed by shifting all phases so phi[0, 0] = 0;
    CopyInteraction checks the shape of the phase matrix and that it is finite.
    """
    phases = np.asarray(phases, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which CopyInteraction rejects
        shifted = phases - (phases.flat[0] if phases.size else 0.0)
    return CopyInteraction(shifted, p1, p2)


def cnot_interaction() -> CopyInteraction:
    """The canonical two-qubit copier: control computational, target +/-."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    p2 = ProjectorSet.from_basis(np.column_stack([plus, minus]), labels=("+", "-"))
    p1 = computational_projectors(2)
    return build_copy_unitary(np.array([[0.0, 0.0], [0.0, np.pi]]), p1, p2)


# ---------------------------------------------------------------------------
# Evolution and invariance


def evolve_descriptor(d: DescriptorSet, u: UnitaryOperator) -> DescriptorSet:
    """Heisenberg step: each operator O becomes U-dagger O U."""
    if d.layout.total_dim != u.dim:
        raise UsageError(f"descriptor dim {d.layout.total_dim} != unitary dim {u.dim}")
    ud = dagger(u.mat)
    evolved = tuple(
        Descriptor(x.name, x.subsystem, ud @ x.mat @ u.mat) for x in d.descriptors
    )
    return DescriptorSet(d.layout, evolved, d.time_tag + 1)


def conjugate_dyadic(x_cd: np.ndarray, sd: SpectralDecomposition) -> np.ndarray:
    """U-dagger X_cd U for a dyadic aligned with the eigenspaces of U.

    A dyadic mapping eigenspace d into eigenspace c just picks up the phase
    difference exp(i (phi_d - phi_c)); in particular it is invariant when
    c = d or when the two eigenphases are degenerate (already clustered).
    """
    x_cd = as_matrix(x_cd, "dyadic")
    if x_cd.shape[0] != sd.projectors.dim:
        raise UsageError(f"dyadic dim {x_cd.shape[0]} != decomposition dim {sd.projectors.dim}")
    scale = max_abs(x_cd)
    if scale == 0.0:
        raise AnalysisError("zero dyadic is not aligned with any eigenspace pair")
    projs = sd.projectors.projectors
    for c, pc in enumerate(projs):
        for d, pd in enumerate(projs):
            if max_abs(pc @ x_cd @ pd - x_cd) <= 1e-9 * max(1.0, scale):
                return np.exp(1j * (sd.phases[d] - sd.phases[c])) * x_cd
    raise AnalysisError("dyadic is not aligned with the eigenbasis of the decomposition")


@dataclass(frozen=True)
class InvarianceResult:
    invariant: bool
    residual: float


def s1_drift(u: UnitaryOperator, ops: np.ndarray) -> np.ndarray:
    """U-dagger (A x I) U - A x I for each S1 operator A of a stack (..., d1, d1)."""
    lifted = kron_stack(ops, np.eye(u.layout.factor_dims[1], dtype=complex))
    return dagger(u.mat) @ lifted @ u.mat - lifted


def check_invariance(obs: ObservableSpec, ci: CopyInteraction) -> InvarianceResult:
    """Does the interaction leave A x I unchanged?"""
    if obs.projectors.dim != ci.proj1.dim:
        raise UsageError(f"observable dim {obs.projectors.dim} != S1 dim {ci.proj1.dim}")
    residual = max_abs(s1_drift(ci.unitary, obs.matrix()))
    return InvarianceResult(residual <= 1e-9, residual)


# ---------------------------------------------------------------------------
# Copy analysis


def _block_basis(ps: ProjectorSet) -> tuple[np.ndarray, list[list[int]]]:
    """Orthonormal basis adapted to a projector family.

    Returns a column matrix of basis vectors and, per label, the column
    indices spanning that block.
    """
    dim = ps.dim
    cols = []
    groups: list[list[int]] = []
    for p in ps.projectors:
        evals, evecs = np.linalg.eigh(p)
        members = [k for k in range(dim) if evals[k] > 0.5]
        groups.append(list(range(len(cols), len(cols) + len(members))))
        cols.extend(evecs[:, k] for k in members)
    return np.column_stack(cols), groups


def _phase_spread(phases: np.ndarray) -> np.ndarray:
    """Max deviation of unit phasors from their common direction (2 if none), along the last axis."""
    z = np.exp(1j * phases)
    mean = np.mean(z, axis=-1, keepdims=True)
    norm = np.abs(mean)
    spread = np.max(np.abs(z - mean / np.where(norm < 1e-15, 1.0, norm)), axis=-1)
    return np.where(norm[..., 0] < 1e-15, 2.0, spread)


@dataclass(frozen=True)
class DyadicEntry:
    c: int
    d: int
    phases_by_a: tuple[float, ...]
    copied: bool


@dataclass(frozen=True)
class CopyReport:
    """Which projector labels the interaction writes into the other subsystem."""

    dyadic_table: tuple[DyadicEntry, ...]
    copied_into_2: tuple  # proj1 sector labels copied into S2 descriptors
    copied_into_1: tuple  # proj2 sector labels copied into S1 descriptors
    max_residual: float  # corrected transformation vs brute-force conjugation

    def to_json(self) -> dict:
        return {
            "copied_families": {
                "into_subsystem_2": list(self.copied_into_2),
                "into_subsystem_1": list(self.copied_into_1),
            },
            "dyadic_table": [
                {
                    "c": e.c,
                    "d": e.d,
                    "phases_by_a": list(e.phases_by_a),
                    "copied": e.copied,
                }
                for e in self.dyadic_table
            ],
            "residuals": {"max": self.max_residual},
        }


def copied_sectors(phases: np.ndarray, ps: ProjectorSet) -> list[tuple[object, np.ndarray]]:
    """The sectors of the row labels of U = sum_ab exp(i phases[a, b]) P_a x Q_b.

    The dyadic X_cd of the column subsystem evolves into
    sum_a exp(i (phases[a, d] - phases[a, c])) P_a x X_cd, so two labels
    whose phase rows differ only by a constant are never told apart: they
    form one sector.  Returns (label, summed projector) per sector, in
    order of first label; a merged sector's label is the tuple of its
    labels.  Pass phases.T and the column family for the reverse direction.
    """
    # same[a, b]: rows a and b differ only by a constant
    same = _phase_spread(phases[:, None, :] - phases[None, :, :]) <= COPY_TOL
    groups: list[list[int]] = []
    for a in range(len(phases)):
        for g in groups:
            if same[g[0], a]:
                g.append(a)
                break
        else:
            groups.append([a])
    out = []
    for g in groups:
        label = ps.labels[g[0]] if len(g) == 1 else tuple(ps.labels[a] for a in g)
        out.append((label, sum(ps.projectors[a] for a in g)))
    return out


def _copied_labels(phases: np.ndarray, ps: ProjectorSet) -> tuple:
    """Sector labels of the copied row labels, or () when there is one sector."""
    sectors = copied_sectors(phases, ps)
    return tuple(label for label, _ in sectors) if len(sectors) > 1 else ()


def analyze_copy(ci: CopyInteraction) -> CopyReport:
    """Evolve every S2 dyadic and record its dependence on the S1 projectors.

    The evolved dyadic is sum_a exp(i (phi_ad - phi_ac)) P_1a x X_2cd; the
    dyadic carries copied information exactly when those phases differ
    across a.  Each predicted form is checked against an independent
    conjugation of I x X_2cd, computed as A_c A_d-dagger with
    A_c = U-dagger (I x v_c).  Each direction reports its copied sectors
    (see copied_sectors).
    """
    basis2, groups2 = _block_basis(ci.proj2)
    # one representative vector, and so one dyadic X_2cd = v_c v_d-dagger, per block
    reps = basis2[:, [g[0] for g in groups2]].T
    # phases[c, d, a] = phi_ad - phi_ac, the phase row of dyadic (c, d)
    phases = ci.phases.T[None, :, :] - ci.phases.T[:, None, :]
    copied = _phase_spread(phases) > COPY_TOL
    wrapped = np.mod(phases, 2 * np.pi).tolist()
    table = tuple(
        DyadicEntry(c, d, tuple(wrapped[c][d]), bool(copied[c, d]))
        for c, d in np.ndindex(copied.shape)
    )
    # a[c][:, j] = U-dagger (e_j x v_c): columns (j, b) of U-dagger contracted with v_c
    u_dag = dagger(ci.unitary.mat).reshape(-1, ci.proj1.dim, ci.proj2.dim)
    a = np.moveaxis(u_dag @ reps.T, -1, 0)
    a_dag = dagger(a)
    max_residual = 0.0
    for c, vc in enumerate(reps):
        x_c = vc[:, None] * reps.conj()[:, None, :]
        predicted = kron_stack(weighted_sum(np.exp(1j * phases[c]), ci.proj1.projectors), x_c)
        max_residual = max(max_residual, max_abs(predicted - a[c] @ a_dag))
    return CopyReport(
        table,
        _copied_labels(ci.phases, ci.proj1),
        _copied_labels(ci.phases.T, ci.proj2),
        max_residual,
    )


# ---------------------------------------------------------------------------
# Which projector families can be copied at all


@dataclass(frozen=True)
class CopiableFamilies:
    """Maximal S1 projector families left invariant by a bipartite unitary."""

    families: tuple[ProjectorSet, ...]
    only_trivial: bool
    degenerate_identity: bool  # every S1 observable is invariant (no interaction)


def _atom_order_key(p: np.ndarray) -> tuple:
    """Sort key of the canonical atom order (see copiable_projector_families)."""
    r = np.round(p, 9)
    return tuple(-np.concatenate([np.diag(r).real, r.real.ravel(), r.imag.ravel()]))


def _null_space(m: np.ndarray, cut: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of a tall matrix m, and the rows spanning its null space (s < cut).

    The triangular factor R of m = QR has m's singular values and right
    singular vectors, so only R, as large as m is wide, goes to the SVD.
    """
    _, s, vh = np.linalg.svd(np.linalg.qr(m, mode="r"))
    return s, vh[s < cut]


def _fixed_s1_operator_space(u: UnitaryOperator) -> tuple[np.ndarray, float]:
    """Orthonormal Hermitian basis (k, d1, d1) of {A : U-dagger (A x I) U = A x I}, and the
    smallest ||[A x I, U]|| it sees outside it.  Those A are the fixed points of the unital
    channel Phi(A) = sum_be U_be-dagger A U_be / d2, whose Kraus operators are the d1 x d1
    blocks U_be of U: the null space of S - I, S = sum_be U_be-dagger x U_be^T / d2 on vec(A).
    """
    if u.layout.n_factors != 2:
        raise UsageError("copiable-family analysis needs a two-factor layout")
    d1, d2 = u.layout.factor_dims
    x = u.mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, -1)  # U_be[a, c]
    s = (x.conj() @ x.T).reshape(d1, d1, d1, d1).transpose(1, 3, 0, 2).reshape(d1 * d1, -1) / d2
    _, sv, vh = np.linalg.svd(s - np.eye(d1 * d1))
    # ||A - Phi(A)|| <= ||[A x I, U]|| / sqrt(d2): this loose cut keeps all that a 1e-10 cut on
    # the commutators calls null.  Re <A, A - Phi(A)> = ||[A x I, U]||^2 / (2 d2) can be far
    # smaller, so the 1e-10 cut on the drift U-dagger [A x I, U] of these candidates decides
    cand = vh[sv < 1e-4].conj()
    s_drift, null = _null_space(s1_drift(u, cand.reshape(-1, d1, d1)).reshape(len(cand), -1).T)
    basis = (cand if len(null) == len(cand) else null.conj() @ cand).reshape(-1, d1, d1)
    # the smallest commutator outside: sqrt(d2) ||(S - I) A|| off the candidates, drift on them
    gap = min([np.inf, *np.sqrt(d2) * sv[sv >= 1e-4], *s_drift[s_drift >= 1e-10]])
    # the fixed space is *-closed, so the Hermitian parts of its basis span a
    # real space of the same dimension k; as real vectors (real parts, then
    # imaginary parts), its top k right singular vectors are orthonormal
    herm = np.concatenate([basis + dagger(basis), (basis - dagger(basis)) / 1j]) / 2
    flat = herm.reshape(len(herm), -1)
    vh = np.linalg.svd(np.hstack([flat.real, flat.imag]), full_matrices=False)[2][: len(basis)]
    return (vh[:, : d1 * d1] + 1j * vh[:, d1 * d1 :]).reshape(-1, d1, d1), gap


def copiable_projector_families(u: UnitaryOperator) -> CopiableFamilies:
    """Finest S1 projector family with U-dagger (P x I) U = P x I per member.

    The invariant S1 operators form a *-algebra; the atoms of its center
    are the finest invariant projector family, and every coarse-graining of
    an invariant family is again invariant.  The atoms are the eigenspaces
    of one generic center element; an AnalysisError is raised when they are
    not an invariant projector family, or when their number is not the
    center's dimension (so they are not its minimal projections).

    The atoms come in a canonical order, independent of the null-space basis
    LAPACK returns: descending by their diagonal, ties broken descending by
    the row-major real entries and then the imaginary entries, all rounded
    to 9 decimals.  So |0><0| precedes |1><1|, and |+><+| precedes |-><-|.
    """
    d1 = u.layout.factor_dims[0]
    fixed, gap = _fixed_s1_operator_space(u)
    if len(fixed) >= d1 * d1:
        return CopiableFamilies((), only_trivial=False, degenerate_identity=True)
    # center of the fixed algebra: fixed elements commuting with all of it;
    # column k of m stacks the commutators [H_k, G] over every G
    comm = fixed[:, None] @ fixed[None, :] - fixed[None, :] @ fixed[:, None]
    m = comm.reshape(len(fixed), -1).T
    # real x with sum_k x_k [H_k, G] = 0 for all G, to the fixed basis' accuracy of ~1e-15 / gap
    _, null = _null_space(np.vstack([m.real, m.imag]), max(1e-10, 1e-13 / gap))
    if not len(null):
        raise AnalysisError("center solve found no central element, not even the identity")
    # deterministic generic element of the center, basis from the smallest s up
    center = weighted_sum(null[::-1], fixed)
    g = weighted_sum(np.cos(np.arange(1, len(center) + 1) * 1.7), center)
    evals, evecs = np.linalg.eigh(g)
    # g's eigenvectors are only as accurate as its eigenvalue gaps allow; sum_k k P_k over its
    # eigenspaces P_k, projected onto the orthonormal center, has gaps of 1 and the same atoms
    k = np.cumsum(np.diff(evals, prepend=evals[0]) > 1e-7)
    h = weighted_sum(np.einsum("kij,ji->k", center, (evecs * k) @ dagger(evecs)).real, center)
    evals, evecs = np.linalg.eigh(h)
    projs = [evecs[:, s] @ dagger(evecs[:, s]) for s in eigenspaces(evals, 0.5)]
    try:
        family = ProjectorSet(tuple(sorted(projs, key=_atom_order_key)))
    except ValidationError as exc:
        raise AnalysisError(f"center atoms are not a projector family: {exc}") from exc
    drift = max_abs(s1_drift(u, np.array(family.projectors)))
    if drift > 1e-9:
        raise AnalysisError(f"center atoms drift by {drift:.3g} under the interaction")
    if len(family) != len(center):  # a k-dim commutative algebra has k minimal projections
        raise AnalysisError(f"atom count {len(family)} != center dim {len(center)}")
    return CopiableFamilies(
        (family,), only_trivial=len(family) == 1, degenerate_identity=False
    )


# ---------------------------------------------------------------------------
# Demonstrations: no-cloning and branch decomposition


def no_cloning_demo(
    source_states, copier: CopyInteraction, blank: np.ndarray
) -> list[float]:
    """Fidelity of the copier output against an exact product clone.

    For source |psi> = sum_a c_a |a> the intended clone is
    |psi> x normalize(sum_a c_a |beta_a>) where |beta_a> is the pointer
    state the interaction writes on S2 for branch a.
    """
    if any(r != 1 for r in copier.proj1.ranks()):
        raise UsageError("no-cloning demo needs rank-1 projectors on S1")
    blank = unit_ket(blank, "blank", copier.proj2.dim)
    basis1, _ = _block_basis(copier.proj1)
    # per-branch target pointer state: U_a |blank> with U_a = sum_b e^{i phi_ab} P_2b
    uas = weighted_sum(np.exp(1j * copier.phases), copier.proj2.projectors)
    betas = [ua @ blank for ua in uas]
    fidelities = []
    for i, psi in enumerate(source_states):
        psi = unit_ket(psi, f"source state {i}", copier.proj1.dim)
        out = copier.unitary.mat @ np.kron(psi, blank)
        amps = dagger(basis1) @ psi
        clone = sum(amps[a] * betas[a] for a in range(len(betas)))
        nrm = np.linalg.norm(clone)
        if nrm < 1e-12:
            raise AnalysisError("intended clone state has zero norm")
        target = np.kron(psi, clone / nrm)
        fidelities.append(float(np.abs(np.vdot(target, out)) ** 2))
    return fidelities


@dataclass(frozen=True)
class Branch:
    label: object
    weight: float
    state: DensityMatrix


@dataclass(frozen=True)
class BranchDecomposition:
    branches: tuple[Branch, ...]
    # largest cross-sector coherence visible to either subsystem alone
    cross_branch_norm_s1: float
    cross_branch_norm_s2: float
    evolved: DensityMatrix


def branch_decomposition(
    rho_initial: DensityMatrix, ci: CopyInteraction
) -> BranchDecomposition:
    """Evolve, then split into non-interfering sectors of the copied labels.

    With Q_i = P_i x I for the S sectors P_i of copied_sectors, every block
    Q_i rho Q_j is one (S, S, D, D) stack.  Its diagonal gives the
    branches; S1 sees the off-diagonal blocks with S2 traced out, and S2
    sees the off-diagonal blocks of its reduced state in its copied basis.
    """
    if (d := rho_initial.dim) != ci.layout.total_dim:  # a DensityMatrix is checked already
        raise ValidationError(f"density matrix dim {d} != layout total {ci.layout.total_dim}")
    rho_out = evolve_state(DensityMatrix.from_checked(ci.layout, rho_initial.mat), ci.unitary)
    sectors = copied_sectors(ci.phases, ci.proj1)
    dims = ci.layout.factor_dims
    q = kron_stack(np.array([p for _, p in sectors]), np.eye(dims[1], dtype=complex))
    blocks = (q @ rho_out.mat)[:, None] @ q[None]
    branches = []
    for i, (label, _) in enumerate(sectors):
        w = float(np.trace(blocks[i, i]).real)
        if w > 1e-12:
            branches.append(Branch(label, w, DensityMatrix(ci.layout, blocks[i, i] / w)))
    off = ~np.eye(len(sectors), dtype=bool)
    cross1 = max_abs(partial_trace_matrix(blocks[off], dims, (0,)))
    cross2 = 0.0
    if len(sectors) > 1:
        basis2, groups2 = _block_basis(ci.proj2)
        rho2 = partial_trace_matrix(rho_out.mat, dims, keep=(1,))
        group = np.repeat(np.arange(len(groups2)), [len(g) for g in groups2])
        cross2 = max_abs((dagger(basis2) @ rho2 @ basis2)[group[:, None] != group])
    return BranchDecomposition(tuple(branches), cross1, cross2, rho_out)
