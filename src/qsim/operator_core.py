"""Dense complex-matrix algebra and quantum-state primitives.

Everything here is a pure function over immutable values: matrices are
numpy complex arrays frozen read-only at construction, and RNG state is
always an explicit parameter.  Total dimensions are capped (default 64)
because every construction in this toolkit is desk-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import CapacityError, UsageError, ValidationError

# Numerical tolerances, shared by every validator in the package.
TAU_HERM = 1e-9
TAU_UNITARY = 1e-9
TAU_PROJ = 1e-9
TAU_TRACE = 1e-10
TAU_RECON = 1e-9
TAU_PHASE = 1e-8
TAU_PSD = 1e-9
TAU_ORTH = 1e-9

MAX_TOTAL_DIM = 64

TWO_PI = 2.0 * math.pi


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


def as_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a dense square complex matrix with finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def is_hermitian(m: np.ndarray, tol: float = TAU_HERM) -> bool:
    return max_abs(m - dagger(m)) <= tol


def is_unitary(m: np.ndarray, tol: float = TAU_UNITARY) -> bool:
    return max_abs(dagger(m) @ m - np.eye(m.shape[0])) <= tol


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered factor dimensions of a composite space.

    The leftmost factor is the most significant tensor index: basis state
    |i1 i2 ... in> has flat index i1*d2*...*dn + ... + in.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError(f"factor dims must be positive, got {dims}")
        if self.total_dim > MAX_TOTAL_DIM:
            raise CapacityError(
                f"total dim {self.total_dim} exceeds maximum {MAX_TOTAL_DIM}"
            )

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)

    def validate_indices(self, keep: Iterable[int]) -> tuple[int, ...]:
        keep = tuple(sorted(set(int(k) for k in keep)))
        if not keep:
            raise UsageError("subsystem index set must be nonempty")
        if any(k < 0 or k >= self.n_factors for k in keep):
            raise UsageError(f"subsystem indices {keep} out of range for {self}")
        return keep


def single_layout(dim: int) -> SubsystemLayout:
    return SubsystemLayout((dim,))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat, "density matrix")
        if m.shape[0] != self.layout.total_dim:
            raise ValidationError(
                f"density matrix dim {m.shape[0]} != layout total {self.layout.total_dim}"
            )
        if not is_hermitian(m):
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > TAU_TRACE:
            raise ValidationError(f"density matrix trace {np.trace(m)} != 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -TAU_PSD:
            raise ValidationError(f"density matrix has eigenvalue {evals.min()} < 0")
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @staticmethod
    def from_matrix(mat: np.ndarray, layout: SubsystemLayout | None = None) -> "DensityMatrix":
        mat = as_matrix(mat)
        if layout is None:
            layout = single_layout(mat.shape[0])
        return DensityMatrix(layout, mat)

    @staticmethod
    def pure(ket: np.ndarray, layout: SubsystemLayout | None = None) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(ket)
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        ket = ket / nrm
        return DensityMatrix.from_matrix(np.outer(ket, ket.conj()), layout)


def first_trial(flags: np.ndarray) -> int | None:
    """Index of the first True entry of a per-trial flag vector, or None."""
    bad = np.flatnonzero(flags)
    return int(bad[0]) if bad.size else None


def check_density_stack(mats: np.ndarray, name: str = "density matrix") -> np.ndarray:
    """Validate a stack (N, d, d) of density matrices; return their eigenvalues.

    Every trial gets DensityMatrix's checks and tolerances: finite entries,
    Hermitian within TAU_HERM, unit trace within TAU_TRACE, and no eigenvalue
    below -TAU_PSD.  A failure names the first bad trial.  The eigenvalues
    (ascending, one row per trial) are those DensityMatrix computes.
    """
    m = np.asarray(mats, dtype=complex)
    if m.ndim != 3 or m.shape[0] < 1 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ValidationError(f"{name} stack must have shape (N, d, d), got {m.shape}")
    if (i := first_trial(~np.isfinite(m).all(axis=(1, 2)))) is not None:
        raise ValidationError(f"trial {i}: {name} contains non-finite entries")
    herm = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if (i := first_trial(herm > TAU_HERM)) is not None:
        raise ValidationError(f"trial {i}: {name} is not Hermitian")
    trace = np.trace(m, axis1=1, axis2=2)
    if (i := first_trial(np.abs(trace - 1.0) > TAU_TRACE)) is not None:
        raise ValidationError(f"trial {i}: {name} trace {trace[i]} != 1")
    evals = np.linalg.eigvalsh(m)
    low = evals.min(axis=1)
    if (i := first_trial(low < -TAU_PSD)) is not None:
        raise ValidationError(f"trial {i}: {name} has eigenvalue {low[i]} < 0")
    return evals


@dataclass(frozen=True)
class UnitaryOperator:
    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat, "unitary")
        if m.shape[0] != self.layout.total_dim:
            raise ValidationError(
                f"unitary dim {m.shape[0]} != layout total {self.layout.total_dim}"
            )
        if not is_unitary(m):
            raise ValidationError("operator is not unitary within tolerance")
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @staticmethod
    def from_matrix(mat: np.ndarray, layout: SubsystemLayout | None = None) -> "UnitaryOperator":
        mat = as_matrix(mat)
        if layout is None:
            layout = single_layout(mat.shape[0])
        return UnitaryOperator(layout, mat)


@dataclass(frozen=True)
class ProjectorSet:
    """Orthogonal, complete family of Hermitian idempotents."""

    projectors: tuple[np.ndarray, ...]
    labels: tuple = ()

    def __post_init__(self):
        projs = tuple(_freeze(as_matrix(p, "projector")) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        if not projs:
            raise ValidationError("projector set must be nonempty")
        labels = self.labels or tuple(range(len(projs)))
        if len(labels) != len(projs):
            raise ValidationError("label count must match projector count")
        object.__setattr__(self, "labels", tuple(labels))
        dim = projs[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for p in projs:
            if p.shape[0] != dim:
                raise ValidationError("projectors have mismatched dims")
            if not is_hermitian(p, TAU_PROJ):
                raise ValidationError("projector is not Hermitian")
            if max_abs(p @ p - p) > TAU_PROJ:
                raise ValidationError("projector is not idempotent")
            total += p
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if max_abs(projs[i] @ projs[j]) > TAU_PROJ:
                    raise ValidationError(f"projectors {i} and {j} are not orthogonal")
        if max_abs(total - np.eye(dim)) > TAU_PROJ:
            raise ValidationError("projector set is not complete")

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)

    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(np.trace(p).real)) for p in self.projectors)

    @staticmethod
    def from_basis(vectors: np.ndarray, labels: tuple = ()) -> "ProjectorSet":
        """Rank-1 set from the columns of an orthonormal matrix."""
        vectors = np.asarray(vectors, dtype=complex)
        projs = tuple(
            np.outer(vectors[:, k], vectors[:, k].conj())
            for k in range(vectors.shape[1])
        )
        return ProjectorSet(projs, labels)


def computational_projectors(dim: int) -> ProjectorSet:
    return ProjectorSet.from_basis(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenphases and orthogonal complete projectors of a unitary."""

    phases: tuple[float, ...]
    projectors: ProjectorSet

    def __post_init__(self):
        phases = tuple(float(p) % TWO_PI for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if len(phases) != len(self.projectors):
            raise ValidationError("phase count must match projector count")
        for i in range(len(phases)):
            for j in range(i + 1, len(phases)):
                gap = abs(phases[i] - phases[j])
                gap = min(gap, TWO_PI - gap)
                if gap <= TAU_PHASE:
                    raise ValidationError("phases are not distinct beyond tolerance")

    def reconstruct(self) -> np.ndarray:
        dim = self.projectors.dim
        out = np.zeros((dim, dim), dtype=complex)
        for phi, p in zip(self.phases, self.projectors.projectors):
            out += np.exp(1j * phi) * p
        return out


@dataclass(frozen=True)
class DyadicBasis:
    """Orthonormal basis together with its implied dyadics |a><b|."""

    dim: int
    basis: np.ndarray  # columns are the basis vectors

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.shape != (self.dim, self.dim):
            raise ValidationError(f"basis must be {self.dim}x{self.dim}")
        if max_abs(dagger(b) @ b - np.eye(self.dim)) > TAU_ORTH:
            raise ValidationError("basis is not orthonormal")
        object.__setattr__(self, "basis", _freeze(b))

    def element(self, a: int, b: int) -> np.ndarray:
        return np.outer(self.basis[:, a], self.basis[:, b].conj())

    def projectors(self) -> ProjectorSet:
        return ProjectorSet.from_basis(self.basis)


def build_dyadic_basis(vectors: np.ndarray) -> DyadicBasis:
    vectors = np.asarray(vectors, dtype=complex)
    return DyadicBasis(vectors.shape[0], vectors)


# ---------------------------------------------------------------------------
# Operations


def tensor_product(a: np.ndarray, b: np.ndarray, max_dim: int = MAX_TOTAL_DIM) -> np.ndarray:
    """Kronecker product; entry ((i1 i2),(j1 j2)) = a[i1,j1] * b[i2,j2]."""
    a = as_matrix(a, "tensor factor a")
    b = as_matrix(b, "tensor factor b")
    if a.shape[0] * b.shape[0] > max_dim:
        raise CapacityError(
            f"tensor product dim {a.shape[0] * b.shape[0]} exceeds maximum {max_dim}"
        )
    return np.kron(a, b)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept factors."""
    keep = rho.layout.validate_indices(keep)
    dims = rho.layout.factor_dims
    n = len(dims)
    t = rho.mat.reshape(dims + dims)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) if i in keep else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    kept_dims = tuple(dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return DensityMatrix(SubsystemLayout(kept_dims), reduced.reshape(d, d))


def hermitian_eigendecomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian matrix."""
    m = as_matrix(m)
    if not is_hermitian(m):
        raise ValidationError("eigendecomposition input is not Hermitian")
    evals, evecs = np.linalg.eigh(m)
    return evals, evecs


def _cluster_phases(phases: np.ndarray, tol: float = TAU_PHASE) -> list[np.ndarray]:
    """Group sorted-index arrays of eigenphases that lie within tol on the circle."""
    order = np.argsort(phases)
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and phases[idx] - phases[clusters[-1][-1]] <= tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    # wraparound: last cluster may abut the first across 2*pi
    if len(clusters) > 1:
        lo = phases[clusters[0][0]]
        hi = phases[clusters[-1][-1]]
        if lo + TWO_PI - hi <= tol:
            clusters[0].extend(clusters.pop())
    return [np.array(c) for c in clusters]


def spectral_decompose_unitary(u: UnitaryOperator) -> SpectralDecomposition:
    """U = sum_a exp(i phi_a) P_a with distinct clustered eigenphases."""
    # complex Schur of a normal matrix gives orthonormal eigenvectors
    t, q = scipy.linalg.schur(np.asarray(u.mat), output="complex")
    eigs = np.diag(t)
    phases = np.mod(np.angle(eigs), TWO_PI)
    clusters = _cluster_phases(phases)
    out_phases = []
    out_projs = []
    for members in clusters:
        vecs = q[:, members]
        out_projs.append(vecs @ dagger(vecs))
        # circular mean of the member phases
        rep = float(np.angle(np.sum(np.exp(1j * phases[members])))) % TWO_PI
        out_phases.append(rep)
    sd = SpectralDecomposition(tuple(out_phases), ProjectorSet(tuple(out_projs)))
    if max_abs(sd.reconstruct() - u.mat) > TAU_RECON:
        raise ValidationError("spectral decomposition failed to reconstruct the unitary")
    return sd


def evolve_state(rho: DensityMatrix, u: UnitaryOperator) -> DensityMatrix:
    """Schrodinger step: U rho U-dagger."""
    if rho.dim != u.dim:
        raise UsageError(f"state dim {rho.dim} != unitary dim {u.dim}")
    return DensityMatrix(rho.layout, u.mat @ rho.mat @ dagger(u.mat))


def range_projector(observable: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, bool]:
    """Projector onto eigenvectors of `observable` with eigenvalue in [lo, hi).

    Returns (projector, empty) where empty flags a degenerate zero projector
    (no eigenvalue inside the range).
    """
    if not lo < hi:
        raise UsageError(f"range [{lo}, {hi}) is empty")
    evals, evecs = hermitian_eigendecomposition(observable)
    inside = (evals >= lo) & (evals < hi)
    if not np.any(inside):
        return np.zeros_like(np.asarray(observable, dtype=complex)), True
    vecs = evecs[:, inside]
    return vecs @ dagger(vecs), False


# ---------------------------------------------------------------------------
# Random generation (Haar unitaries, random states, random projector families)


def random_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-distributed unitary from QR of a complex Ginibre matrix."""
    if dim < 1:
        raise UsageError(f"dim must be positive, got {dim}")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return UnitaryOperator.from_matrix(q)


def random_density(dim: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized G G-dagger with G a dim x rank complex Gaussian matrix."""
    if not 1 <= rank <= dim:
        raise UsageError(f"rank must be in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ dagger(g)
    return DensityMatrix.from_matrix(m / np.trace(m).real)


def random_projector_set(
    dim: int, block_sizes: Sequence[int], rng: np.random.Generator
) -> ProjectorSet:
    """Projector family from the column blocks of a Haar-random unitary."""
    block_sizes = [int(b) for b in block_sizes]
    if any(b < 1 for b in block_sizes) or sum(block_sizes) != dim:
        raise UsageError(f"block sizes {block_sizes} must be positive and sum to {dim}")
    u = random_unitary(dim, rng).mat
    projs = []
    start = 0
    for b in block_sizes:
        vecs = u[:, start : start + b]
        projs.append(vecs @ dagger(vecs))
        start += b
    return ProjectorSet(tuple(projs))


def random_pure_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Serialization: {dim, re, im} row-major, used by golden-file tests


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.flatten()],
        "im": [float(x) for x in m.imag.flatten()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    re = np.array(obj["re"], dtype=float).reshape(dim, dim)
    im = np.array(obj["im"], dtype=float).reshape(dim, dim)
    return re + 1j * im
