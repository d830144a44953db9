"""Dense complex-matrix algebra and quantum-state primitives.

Everything here is a pure function over immutable values: matrices are
numpy complex arrays frozen read-only at construction, and RNG state is
always an explicit parameter.  Total dimensions are capped (default 64)
because every construction in this toolkit is desk-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

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

# sqrt of the smallest normal double: a smaller ket norm has a subnormal square
MIN_KET_NORM = math.sqrt(np.finfo(float).tiny)

# Trial stacks run in blocks whose (N, d, d) arrays hold at most this many
# matrix entries, so their memory does not grow with the trial count.
STACK_ELEMENTS = 2**20

TWO_PI = 2.0 * math.pi


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., d, d)."""
    return m.conj().swapaxes(-2, -1)


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
        total = self.total_dim
        if total > MAX_TOTAL_DIM:
            # int-to-decimal conversion is capped at 4,300 digits by default, 640 at
            # the lowest setting; 2**2048 has 617
            bits = total.bit_length()
            size = total if bits <= 2048 else f"at least 2**{bits - 1}"
            raise CapacityError(f"total dim {size} exceeds maximum {MAX_TOTAL_DIM}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)

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


@dataclass(frozen=True, eq=False)
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
        _, defect = _density_defect(m[None], "density matrix")
        if defect is not None:
            raise ValidationError(defect[1])
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @classmethod
    def from_checked(cls, layout: SubsystemLayout, mat: np.ndarray) -> "DensityMatrix":
        """Wrap a (d, d) matrix of a stack that check_density_stack has passed, unchecked."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "layout", layout)
        object.__setattr__(rho, "mat", _freeze(mat))
        return rho

    @staticmethod
    def from_matrix(mat: np.ndarray, layout: SubsystemLayout | None = None) -> "DensityMatrix":
        mat = as_matrix(mat, "density matrix")
        if layout is None:
            layout = single_layout(mat.shape[0])
        return DensityMatrix(layout, mat)

    @staticmethod
    def pure(ket: np.ndarray, layout: SubsystemLayout | None = None) -> "DensityMatrix":
        ket = unit_ket(ket, "ket", None if layout is None else layout.total_dim)
        return DensityMatrix.from_matrix(np.outer(ket, ket.conj()), layout)


def unit_ket(ket: np.ndarray, name: str = "ket", dim: int | None = None) -> np.ndarray:
    """ket / ||ket|| as a 1-D complex vector, of length dim when given; a ket that is not
    finite, or whose norm is zero or under- or overflows, is rejected by name.  A norm
    below MIN_KET_NORM counts as underflow: its square is subnormal, and loses bits."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    if dim is not None and v.size != dim:
        raise ValidationError(f"{name} has length {v.size}, expected {dim}")
    with np.errstate(over="ignore"):  # a norm that overflows is rejected below
        nrm = np.linalg.norm(v) if np.isfinite(v).all() else math.nan
    if not MIN_KET_NORM <= nrm < math.inf:
        raise ValidationError(f"{name} must be a finite nonzero vector")
    return v / nrm


def first_trial(flags: np.ndarray) -> int | None:
    """Index of the first True entry of a per-trial flag vector, or None."""
    bad = np.flatnonzero(flags)
    return int(bad[0]) if bad.size else None


def trial_blocks(trials: int, dim: int) -> Iterator[range]:
    """Consecutive trial ranges whose (N, dim, dim) stacks hold at most STACK_ELEMENTS entries."""
    step = max(1, STACK_ELEMENTS // (dim * dim))
    return (range(s, min(s + step, trials)) for s in range(0, trials, step))


def trial_name(i: int, trials: Sequence[int] | None) -> str:
    """Name of stack row i: its trial number from `trials`, or i itself."""
    return f"trial {i if trials is None else int(trials[i])}"


def _finite_stack(mats: np.ndarray, name: str, shape: str, trials) -> np.ndarray:
    """A nonempty complex stack of square matrices with finite entries."""
    m = np.asarray(mats, dtype=complex)
    if m.ndim != shape.count(",") + 1 or 0 in m.shape or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{name} stack must have shape {shape}, got {m.shape}")
    if (i := first_trial(~np.isfinite(m).reshape(len(m), -1).all(axis=1))) is not None:
        raise ValidationError(f"{trial_name(i, trials)}: {name} contains non-finite entries")
    return m


def _max_abs_rows(m: np.ndarray) -> np.ndarray:
    """max |entry| of each matrix in a stack (..., d, d): 0 if it is empty, NaN if an entry is."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def _density_defect(m: np.ndarray, name: str) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """Eigenvalues of a finite stack (N, d, d), and its first (row, message) that
    is not a density matrix, or None.

    The checks run in order, each over every row at once: Hermitian within
    TAU_HERM, unit trace within TAU_TRACE, then no eigenvalue below -TAU_PSD.
    The eigenvalues (ascending, one row per matrix) are None when one of the
    first two checks fails.
    """
    if (i := first_trial(_max_abs_rows(m - dagger(m)) > TAU_HERM)) is not None:
        return None, (i, f"{name} is not Hermitian")
    trace = np.trace(m, axis1=1, axis2=2)
    if (i := first_trial(np.abs(trace - 1.0) > TAU_TRACE)) is not None:
        return None, (i, f"{name} trace {trace[i]} != 1")
    evals = np.linalg.eigvalsh(m)
    low = evals.min(axis=1)
    if (i := first_trial(low < -TAU_PSD)) is not None:
        return evals, (i, f"{name} has eigenvalue {low[i]} < 0")
    return evals, None


def check_density_stack(
    mats: np.ndarray, name: str = "density matrix", trials: Sequence[int] | None = None
) -> np.ndarray:
    """Validate a stack (N, d, d) of density matrices; return their eigenvalues.

    Every trial gets DensityMatrix's checks and tolerances: finite entries,
    Hermitian within TAU_HERM, unit trace within TAU_TRACE, and no eigenvalue
    below -TAU_PSD.  A failure names the first bad trial, numbered by
    `trials` (default: the row index).  The eigenvalues (ascending, one row
    per trial) are those DensityMatrix computes.
    """
    m = _finite_stack(mats, name, "(N, d, d)", trials)
    evals, defect = _density_defect(m, name)
    if defect is not None:
        raise ValidationError(f"{trial_name(defect[0], trials)}: {defect[1]}")
    return evals


def gram_errors(q: np.ndarray) -> np.ndarray:
    """max|Q-dagger Q - I| of a matrix (d, n) or of each in a stack (N, d, n); NaN if not finite."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 gives NaN, not a warning
        return _max_abs_rows(dagger(q) @ q - np.eye(q.shape[-1]))


def orthonormal_columns(q: np.ndarray, errors: np.ndarray | None = None) -> np.ndarray:
    """The Gram check of a range basis (d, n), or of each in a stack (N, d, n):
    max|Q-dagger Q - I| <= TAU_PROJ / (2d); false for a non-finite basis.

    `errors`, when given, are q's gram_errors, so the product is formed once.
    """
    return (gram_errors(q) if errors is None else errors) <= TAU_PROJ / (2 * q.shape[-2])


def _unitary_defect(errors: np.ndarray) -> tuple[int, str] | None:
    """First (row, message) of a stack, given its gram_errors, not unitary within TAU_UNITARY."""
    i = first_trial(errors > TAU_UNITARY)
    return None if i is None else (i, "operator is not unitary within tolerance")


def check_unitary_stack(mats: np.ndarray, trials: Sequence[int] | None = None) -> np.ndarray:
    """Validate a stack (N, d, d) with UnitaryOperator's checks and tolerance.

    A failure names the first bad trial, numbered by `trials` (default: the
    row index).  Returns each row's gram_errors.
    """
    u = _finite_stack(mats, "unitary", "(N, d, d)", trials)
    errors = gram_errors(u)
    if (defect := _unitary_defect(errors)) is not None:
        raise ValidationError(f"{trial_name(defect[0], trials)}: {defect[1]}")
    return errors


def _projector_defect(p: np.ndarray) -> tuple[int, str] | None:
    """First (row, message) of a finite stack (N, K, d, d) of K-projector families
    that fails ProjectorSet's checks at TAU_PROJ, or None.

    The checks run in ProjectorSet's order: each projector Hermitian, then
    idempotent, in k order; every pair (i, j), i < j, orthogonal; the family
    complete.  Each check flags every row at once.
    """
    herm = _max_abs_rows(p - dagger(p)) > TAU_PROJ
    idem = _max_abs_rows(p @ p - p) > TAU_PROJ
    if (n := first_trial((herm | idem).any(axis=1))) is not None:
        k = first_trial(herm[n] | idem[n])
        return n, "projector is not Hermitian" if herm[n, k] else "projector is not idempotent"
    count = p.shape[1]
    if count > 1:
        # row i against rows i+1.., so each pair is multiplied once
        orth = np.concatenate(
            [_max_abs_rows(p[:, i, None] @ p[:, i + 1 :]) for i in range(count - 1)], axis=1
        )
        if (n := first_trial((orth > TAU_PROJ).any(axis=1))) is not None:
            pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
            i, j = pairs[first_trial(orth[n] > TAU_PROJ)]
            return n, f"projectors {i} and {j} are not orthogonal"
    incomplete = _max_abs_rows(p.sum(axis=1) - np.eye(p.shape[-1])) > TAU_PROJ
    if (n := first_trial(incomplete)) is not None:
        return n, "projector set is not complete"
    return None


def check_projector_stack(projs: np.ndarray, trials: Sequence[int] | None = None) -> None:
    """Validate a stack (N, K, d, d): N families of K projectors each.

    Every family gets ProjectorSet's checks and tolerance (TAU_PROJ):
    Hermitian, idempotent, pairwise orthogonal and complete.  A failure
    names the first bad trial, numbered by `trials` (default: the row index).
    """
    p = _finite_stack(projs, "projector", "(N, K, d, d)", trials)
    if (defect := _projector_defect(p)) is not None:
        raise ValidationError(f"{trial_name(defect[0], trials)}: {defect[1]}")


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat, "unitary")
        if m.shape[0] != self.layout.total_dim:
            raise ValidationError(
                f"unitary dim {m.shape[0]} != layout total {self.layout.total_dim}"
            )
        if (defect := _unitary_defect(gram_errors(m[None]))) is not None:
            raise ValidationError(defect[1])
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @staticmethod
    def from_matrix(mat: np.ndarray, layout: SubsystemLayout | None = None) -> "UnitaryOperator":
        mat = as_matrix(mat, "unitary")
        if layout is None:
            layout = single_layout(mat.shape[0])
        return UnitaryOperator(layout, mat)


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Orthogonal, complete family of Hermitian idempotents.

    A `from_blocks` family (P_k = V V-dagger, V the k-th column block of Q)
    whose square Q passes the Gram check max|E| <= TAU_PROJ / (2d),
    E = Q-dagger Q - I, needs no other check, as the 2-norm ||E|| <= d max|E|:
    entries of P_i P_j (i != j) and P_k^2 - P_k are entries of some
    Q_i E_ij Q_j-dagger, so at most (1 + ||E||) ||E|| <= TAU_PROJ; V V-dagger
    is Hermitian up to rounding; and sum_k P_k - I = Q Q-dagger - I has the
    norm of E, as Q is square, so at most TAU_PROJ / 2.  Such a family builds
    its projectors on first read; every other family gets all four checks.
    """

    projectors: tuple[np.ndarray, ...]
    labels: tuple = ()
    # (Q, block sizes) of a family whose projectors are built on first read, else None
    range_basis: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if (basis := self.range_basis) is None:
            mats = [as_matrix(p, "projector") for p in self.projectors]
        else:
            q, sizes = basis
            if q.ndim != 2 or not q.size or min(sizes, default=0) < 1 or sum(sizes) != q.shape[1]:
                raise ValidationError(f"range basis {q.shape} does not split into blocks {list(sizes)}")
            if q.shape[0] == q.shape[1] and orthonormal_columns(q):  # false for non-finite q
                basis, mats = (_freeze(q), sizes), sizes
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # rejected below
                    basis, mats = None, block_projectors(q[None], [sizes])[0]
                if not np.isfinite(mats).all():
                    if np.isfinite(q).all():
                        raise ValidationError(f"range basis {q.shape} overflows its projectors")
                    raise ValidationError(f"range basis {q.shape} contains non-finite entries")
        if not len(mats):
            raise ValidationError("projector set must be nonempty")
        labels = self.labels or tuple(range(len(mats)))
        if len(labels) != len(mats):
            raise ValidationError("label count must match projector count")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "range_basis", basis)
        if basis is not None:
            object.__delattr__(self, "projectors")  # built on first read, see __getattr__
            return
        if any(p.shape != mats[0].shape for p in mats):
            raise ValidationError("projectors have mismatched dims")
        stack = _freeze(mats)
        object.__setattr__(self, "projectors", tuple(stack))
        if (defect := _projector_defect(stack[None])) is not None:
            raise ValidationError(defect[1])

    def __getattr__(self, name: str):
        # reached only for a missing attribute: a range-basis family's projectors, built once
        if name != "projectors" or self.__dict__.get("range_basis") is None:
            raise AttributeError(name)
        q, sizes = self.range_basis
        object.__setattr__(self, name, tuple(_freeze(block_projectors(q[None], [sizes])[0])))
        return self.projectors

    @property
    def dim(self) -> int:
        return (self.range_basis[0] if self.range_basis else self.projectors[0]).shape[0]

    def __len__(self) -> int:
        return len(self.labels)

    def ranks(self) -> tuple[int, ...]:
        if self.range_basis:
            return self.range_basis[1]
        return tuple(int(round(np.trace(p).real)) for p in self.projectors)

    @staticmethod
    def from_blocks(q: np.ndarray, sizes: Sequence[int], labels: tuple = ()) -> "ProjectorSet":
        """Projectors onto the consecutive column blocks of an orthonormal matrix."""
        q = np.asarray(q, dtype=complex)
        return ProjectorSet((), labels, (q, tuple(int(b) for b in sizes)))

    @staticmethod
    def from_basis(vectors: np.ndarray, labels: tuple = ()) -> "ProjectorSet":
        """Rank-1 set from the columns of an orthonormal matrix."""
        return ProjectorSet.from_blocks(vectors, [1] * np.shape(vectors)[-1], labels)


def computational_projectors(dim: int) -> ProjectorSet:
    return ProjectorSet.from_basis(np.eye(dim, dtype=complex))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenphases and orthogonal complete projectors of a unitary."""

    phases: tuple[float, ...]
    projectors: ProjectorSet

    def __post_init__(self):
        phases = tuple(float(p) % TWO_PI for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if len(phases) != len(self.projectors):
            raise ValidationError("phase count must match projector count")
        if not all(map(math.isfinite, phases)):
            raise ValidationError("phases must be finite")
        gap = np.abs(np.subtract.outer(phases, phases))[np.triu_indices(len(phases), 1)]
        if np.any(np.minimum(gap, TWO_PI - gap) <= TAU_PHASE):
            raise ValidationError("phases are not distinct beyond tolerance")

    def reconstruct(self) -> np.ndarray:
        return weighted_sum([np.exp(1j * phi) for phi in self.phases], self.projectors.projectors)


# ---------------------------------------------------------------------------
# Operations


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each pair in broadcast stacks (..., m, m), (..., n, n), bit for bit."""
    m, n = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * n, m * n))


def weighted_sum(weights, mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k w_k M_k accumulated onto zeros in k order, for weights (K,) or a stack (..., K)."""
    w = np.asarray(weights)
    out = np.zeros(w.shape[:-1] + mats[0].shape, dtype=complex)
    for k, m in enumerate(mats):
        out += w[..., k, None, None] * m
    return out


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; entry ((i1 i2),(j1 j2)) = a[i1,j1] * b[i2,j2]."""
    a = as_matrix(a, "tensor factor a")
    b = as_matrix(b, "tensor factor b")
    if a.shape[0] * b.shape[0] > MAX_TOTAL_DIM:
        raise CapacityError(
            f"tensor product dim {a.shape[0] * b.shape[0]} exceeds maximum {MAX_TOTAL_DIM}"
        )
    return kron_stack(a, b)


def partial_trace_matrix(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace onto the kept factors (sorted indices) of a raw matrix or a
    stack (..., d, d), unvalidated."""
    n = len(dims)
    t = mat.reshape(mat.shape[:-2] + dims + dims)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) if i in keep else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reduced = np.einsum("..." + "".join(row) + "".join(col) + "->..." + out, t)
    d = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(mat.shape[:-2] + (d, d))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept factors."""
    keep = rho.layout.validate_indices(keep)
    dims = rho.layout.factor_dims
    kept = SubsystemLayout(tuple(dims[i] for i in keep))
    return DensityMatrix(kept, partial_trace_matrix(rho.mat, dims, keep))


def hermitian_eigendecomposition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian matrix."""
    m = as_matrix(m)
    if not is_hermitian(m):
        raise ValidationError("eigendecomposition input is not Hermitian")
    evals, evecs = np.linalg.eigh(m)
    return evals, evecs


def eigenspaces(evals: np.ndarray, gap: float) -> list[slice]:
    """Index ranges of the clusters of ascending eigenvalues; a cluster ends
    where the next eigenvalue lies more than gap above."""
    cuts = [0, *(np.flatnonzero(np.diff(evals) > gap) + 1).tolist(), len(evals)]
    return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def support_projector(m: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvectors of a Hermitian matrix with eigenvalue above 1e-10."""
    evals, evecs = np.linalg.eigh(m)
    vecs = evecs[:, evals > 1e-10]
    return vecs @ dagger(vecs)


def spectral_decompose_unitary(u: UnitaryOperator) -> SpectralDecomposition:
    """U = sum_a exp(i phi_a) P_a with distinct clustered eigenphases.

    A Cayley transform turns U into a Hermitian matrix with the same eigenvectors.  Its pole
    p is the arccos of the middle of the widest gap between the cosines of U's eigenphases,
    eigvalsh((U + U-dagger)/2), padded with -1 and 1; that gap is at least 2/(d + 1) wide, so
    every eigenvalue lies a chord of at least 1/(d + 1) from exp(ip).  Then V = -exp(-ip) U
    has ||(I + V)^-1|| <= d + 1, and the eigenvalues -cot((phi - p)/2) of C = i (I + V)^-1
    (I - V) ascend with (phi - p) mod 2pi.  No cluster wraps around the pole, so the
    clusters are runs of eigh's order, the order in which the phases are returned.
    """
    m = np.asarray(u.mat)
    eye = np.eye(m.shape[0])
    cosines = np.concatenate([[-1.0], np.linalg.eigvalsh((m + dagger(m)) / 2), [1.0]])
    gaps = np.diff(cosines)
    pole = np.arccos(cosines[np.argmax(gaps)] + gaps.max() / 2)
    v = -np.exp(-1j * pole) * m
    c = 1j * np.linalg.solve(eye + v, eye - v)
    _, q = np.linalg.eigh((c + dagger(c)) / 2)
    # each phase is the angle of its Rayleigh quotient, diag(Q-dagger U Q), of modulus 1
    z = np.einsum("ij,ij->j", q.conj(), m @ q)
    z /= np.abs(z)
    clusters = eigenspaces((np.angle(z) - pole) % TWO_PI, TAU_PHASE)
    sizes = [s.stop - s.start for s in clusters]
    # circular mean of each cluster; one within TAU_RECON / 2 of 0 is 0.0 unless that move
    # alone breaks the reconstruction, which is checked for the phases returned
    means = tuple(float(np.angle(np.sum(z[s]))) % TWO_PI for s in clusters)
    snapped = tuple(0.0 if min(phi, TWO_PI - phi) <= TAU_RECON / 2 else phi for phi in means)
    for phases in dict.fromkeys((snapped, means)):
        # sum_a exp(i phi_a) P_a as one product, (Q diag(exp(i phi))) Q-dagger
        weights = np.repeat(np.exp(1j * np.array(phases)), sizes)
        if max_abs((q * weights) @ dagger(q) - u.mat) <= TAU_RECON:
            return SpectralDecomposition(phases, ProjectorSet.from_blocks(q, sizes))
    raise ValidationError("spectral decomposition failed to reconstruct the unitary")


def evolve_state(rho: DensityMatrix, u: UnitaryOperator) -> DensityMatrix:
    """Schrodinger step: U rho U-dagger."""
    if rho.dim != u.dim:
        raise UsageError(f"state dim {rho.dim} != unitary dim {u.dim}")
    return DensityMatrix(rho.layout, u.mat @ rho.mat @ dagger(u.mat))


# ---------------------------------------------------------------------------
# Random generation (Haar unitaries, random states, random projector families)


def complex_pairs(pairs) -> np.ndarray:
    """Complex stack (N, ...) from N real arrays (2, ...) of real parts, then imaginary parts.

    One assignment each for the real and the imaginary parts of the stack.
    """
    pairs = np.asarray(pairs)
    out = np.empty(pairs.shape[:1] + pairs.shape[2:], dtype=complex)
    out.real, out.imag = pairs[:, 0], pairs[:, 1]
    return out


def ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian array: the real parts are drawn first, then the imaginary parts.

    The one-trial case of complex_pairs over one standard_normal draw.
    """
    return complex_pairs(rng.standard_normal((1, 2, *np.atleast_1d(shape))))[0]


def haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Q of the QR of each Ginibre matrix in a stack (N, d, d), phases fixed by diag(R).

    The phase fix makes each Q Haar-distributed.  One stacked QR; slice n
    equals the QR of g[n] alone, bit for bit.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def gram_densities(g: np.ndarray) -> np.ndarray:
    """G G-dagger / tr(G G-dagger) for each matrix G in a stack (N, d, r)."""
    m = g @ dagger(g)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def block_projectors(u: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Projectors V V-dagger onto consecutive column blocks V of each u[n].

    u is (N, d, d) and blocks (N, K) holds each row's K block sizes, which
    sum to d.  Returns (N, K, d, d).  The blocks of one size form one stacked
    product, and each slice equals the product of its block taken alone.
    """
    n, d = u.shape[:2]
    blocks = np.asarray(blocks)
    starts = np.cumsum(blocks, axis=1) - blocks
    out = np.empty((n, blocks.shape[1], d, d), dtype=complex)
    for b in sorted(set(blocks.ravel().tolist())):
        rows, ks = np.nonzero(blocks == b)
        cols = starts[rows, ks][:, None, None] + np.arange(b)
        vecs = u[rows[:, None, None], np.arange(d)[:, None], cols]
        out[rows, ks] = vecs @ dagger(vecs)
    return out


def random_block_sizes(dim: int, rng: np.random.Generator) -> list[int]:
    """Random composition of dim: each block size is uniform in [1, what is left]."""
    blocks = []
    left = dim
    while left > 0:
        b = int(rng.integers(1, left + 1))
        blocks.append(b)
        left -= b
    return blocks


def random_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-distributed unitary from QR of a complex Ginibre matrix."""
    if dim < 1:
        raise UsageError(f"dim must be positive, got {dim}")
    return UnitaryOperator.from_matrix(haar_unitaries(ginibre((1, dim, dim), rng))[0])


def random_density(dim: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized G G-dagger with G a dim x rank complex Gaussian matrix."""
    if not 1 <= rank <= dim:
        raise UsageError(f"rank must be in [1, {dim}], got {rank}")
    return DensityMatrix.from_matrix(gram_densities(ginibre((1, dim, rank), rng))[0])


def random_projector_set(
    dim: int, block_sizes: Sequence[int], rng: np.random.Generator
) -> ProjectorSet:
    """Projector family from the column blocks of a Haar-random unitary."""
    block_sizes = [int(b) for b in block_sizes]
    if any(b < 1 for b in block_sizes) or sum(block_sizes) != dim:
        raise UsageError(f"block sizes {block_sizes} must be positive and sum to {dim}")
    return ProjectorSet.from_blocks(random_unitary(dim, rng).mat, block_sizes)


def random_pure_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    return unit_ket(ginibre(dim, rng), "random ket")


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
