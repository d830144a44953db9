"""Core matrix algebra, state primitives, and random generation."""

import numpy as np
import pytest

from qsim import operator_core as oc
from qsim.errors import CapacityError, UsageError, ValidationError
from qsim.rng import substream

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron_oracle(a, b):
    """Entry-by-entry tensor product via the index formula."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i1 in range(da):
        for i2 in range(db):
            for j1 in range(da):
                for j2 in range(db):
                    out[i1 * db + i2, j1 * db + j2] = a[i1, j1] * b[i2, j2]
    return out


class TestTensorProduct:
    def test_identity(self):
        i2 = np.eye(2, dtype=complex)
        np.testing.assert_allclose(oc.tensor_product(i2, i2), np.eye(4))

    def test_diagonal_action_on_basis_ket(self):
        # (sigma_z x I) |10> = -|10>
        op = oc.tensor_product(SIGMA_Z, np.eye(2, dtype=complex))
        ket = np.zeros(4, dtype=complex)
        ket[2] = 1.0  # |10>: leftmost factor most significant
        np.testing.assert_allclose(op @ ket, -ket)

    def test_matches_index_oracle(self):
        rng = substream(11, 0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(oc.tensor_product(a, b), kron_oracle(a, b), atol=1e-14)

    def test_capacity_error(self):
        big = np.eye(16, dtype=complex)
        with pytest.raises(CapacityError):
            oc.tensor_product(big, np.eye(8, dtype=complex))


class TestPartialTrace:
    def test_bell_state_marginal(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = oc.DensityMatrix.pure(bell, oc.SubsystemLayout((2, 2)))
        reduced = oc.partial_trace(rho, (0,))
        np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovery(self):
        rng = substream(11, 1)
        r1 = oc.random_density(2, 2, rng)
        r2 = oc.random_density(3, 3, rng)
        prod = oc.DensityMatrix(
            oc.SubsystemLayout((2, 3)), oc.tensor_product(r1.mat, r2.mat)
        )
        np.testing.assert_allclose(oc.partial_trace(prod, (0,)).mat, r1.mat, atol=1e-12)
        np.testing.assert_allclose(oc.partial_trace(prod, (1,)).mat, r2.mat, atol=1e-12)

    def test_matches_index_sum_oracle(self):
        rng = substream(11, 2)
        rho = oc.random_density(4, 4, rng)
        rho = oc.DensityMatrix(oc.SubsystemLayout((2, 2)), rho.mat)
        reduced = oc.partial_trace(rho, (0,))
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    oracle[i, j] += rho.mat[i * 2 + k, j * 2 + k]
        np.testing.assert_allclose(reduced.mat, oracle, atol=1e-12)

    def test_empty_keep_rejected(self):
        rho = oc.DensityMatrix(oc.SubsystemLayout((2, 2)), np.eye(4) / 4)
        with pytest.raises(UsageError):
            oc.partial_trace(rho, ())


class TestHermitianEigendecomposition:
    def test_diagonal(self):
        evals, evecs = oc.hermitian_eigendecomposition(np.diag([1.0, 3.0]))
        np.testing.assert_allclose(evals, [1.0, 3.0])
        np.testing.assert_allclose(np.abs(evecs), np.eye(2), atol=1e-12)

    def test_sigma_x(self):
        evals, evecs = oc.hermitian_eigendecomposition(SIGMA_X)
        np.testing.assert_allclose(evals, [-1.0, 1.0])
        for k, lam in enumerate(evals):
            np.testing.assert_allclose(SIGMA_X @ evecs[:, k], lam * evecs[:, k], atol=1e-12)

    def test_random_reconstruction(self):
        rng = substream(11, 3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = (m + m.conj().T) / 2
        evals, evecs = oc.hermitian_eigendecomposition(m)
        recon = (evecs * evals) @ evecs.conj().T
        assert oc.max_abs(recon - m) <= 1e-9
        assert oc.max_abs(evecs.conj().T @ evecs - np.eye(8)) <= 1e-9

    def test_char_poly_roots_small_dim(self):
        rng = substream(11, 4)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = (m + m.conj().T) / 2
        evals, _ = oc.hermitian_eigendecomposition(m)
        for lam in evals:
            assert abs(np.linalg.det(m - lam * np.eye(3))) < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            oc.hermitian_eigendecomposition(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSpectralDecomposition:
    def test_identity(self):
        u = oc.UnitaryOperator.from_matrix(np.eye(3, dtype=complex))
        sd = oc.spectral_decompose_unitary(u)
        assert len(sd.phases) == 1
        assert abs(sd.phases[0]) < 1e-12
        np.testing.assert_allclose(sd.projectors.projectors[0], np.eye(3), atol=1e-12)

    def test_sigma_z(self):
        u = oc.UnitaryOperator.from_matrix(SIGMA_Z)
        sd = oc.spectral_decompose_unitary(u)
        got = dict(zip(np.round(sd.phases, 9), sd.projectors.projectors))
        np.testing.assert_allclose(got[0.0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(got[round(np.pi, 9)], np.diag([0.0, 1.0]), atol=1e-12)

    def test_cnot_clusters(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        u = oc.UnitaryOperator(oc.SubsystemLayout((2, 2)), cnot)
        sd = oc.spectral_decompose_unitary(u)
        phases = sorted(sd.phases)
        assert len(phases) == 2
        assert abs(phases[0]) < 1e-9 and abs(phases[1] - np.pi) < 1e-9
        assert sorted(sd.projectors.ranks()) == [1, 3]
        assert oc.max_abs(sd.reconstruct() - cnot) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_random_round_trip(self, dim):
        rng = substream(11, 100 + dim)
        u = oc.random_unitary(dim, rng)
        sd = oc.spectral_decompose_unitary(u)
        assert oc.max_abs(sd.reconstruct() - u.mat) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            oc.UnitaryOperator.from_matrix(np.diag([1.0, 2.0]).astype(complex))


class TestEvolveState:
    def test_identity(self):
        rho = oc.DensityMatrix.from_matrix(np.diag([0.25, 0.75]).astype(complex))
        u = oc.UnitaryOperator.from_matrix(np.eye(2, dtype=complex))
        np.testing.assert_allclose(oc.evolve_state(rho, u).mat, rho.mat)

    def test_hadamard_on_zero(self):
        rho = oc.DensityMatrix.pure(np.array([1, 0], dtype=complex))
        u = oc.UnitaryOperator.from_matrix(HADAMARD)
        out = oc.evolve_state(rho, u)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(out.mat, np.outer(plus, plus.conj()), atol=1e-12)

    def test_spectrum_preserved(self):
        rng = substream(11, 5)
        rho = oc.random_density(6, 4, rng)
        u = oc.random_unitary(6, rng)
        out = oc.evolve_state(rho, u)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out.mat)),
            np.sort(np.linalg.eigvalsh(rho.mat)),
            atol=1e-9,
        )

    def test_dim_mismatch(self):
        rho = oc.DensityMatrix.from_matrix(np.eye(2) / 2)
        u = oc.UnitaryOperator.from_matrix(np.eye(3, dtype=complex))
        with pytest.raises(UsageError):
            oc.evolve_state(rho, u)


class TestRangeProjector:
    def test_full_range(self):
        p, empty = oc.range_projector(np.diag([0.0, 1.0, 2.0, 3.0]), 0.0, 4.0)
        assert not empty
        np.testing.assert_allclose(p, np.eye(4), atol=1e-12)

    def test_diagonal_selection(self):
        p, empty = oc.range_projector(np.diag([0.0, 1.0, 2.0, 3.0]), 1.0, 3.0)
        assert not empty
        np.testing.assert_allclose(p, np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-12)

    def test_empty_range_flagged(self):
        p, empty = oc.range_projector(np.diag([0.0, 1.0]), 5.0, 6.0)
        assert empty
        np.testing.assert_allclose(p, 0.0)

    def test_spectral_containment(self):
        rng = substream(11, 6)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = (m + m.conj().T) / 2
        lo, hi = -0.5, 1.5
        p, empty = oc.range_projector(m, lo, hi)
        if empty:
            return
        assert oc.max_abs(p @ p - p) <= 1e-9
        compressed = p @ m @ p
        evals = np.linalg.eigvalsh(compressed)
        inside = evals[np.abs(evals) > 1e-9]
        assert np.all(inside >= lo - 1e-9) and np.all(inside < hi + 1e-9)


class TestRandomGeneration:
    def test_random_unitary_is_unitary(self):
        u = oc.random_unitary(4, substream(7, 0))
        assert oc.max_abs(u.mat.conj().T @ u.mat - np.eye(4)) <= 1e-10

    def test_rank1_density_is_pure(self):
        rho = oc.random_density(4, 1, substream(7, 0))
        assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) <= 1e-10

    def test_random_projector_set_invariants(self):
        ps = oc.random_projector_set(4, [1, 3], substream(7, 0))
        assert ps.ranks() == (1, 3)
        total = sum(ps.projectors)
        assert oc.max_abs(total - np.eye(4)) <= 1e-10

    def test_invalid_rank_rejected(self):
        with pytest.raises(UsageError):
            oc.random_density(3, 4, substream(7, 0))
        with pytest.raises(UsageError):
            oc.random_projector_set(4, [1, 2], substream(7, 0))


class TestSerialization:
    def test_round_trip(self):
        rng = substream(11, 7)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(oc.matrix_from_json(oc.matrix_to_json(m)), m)


class TestValidation:
    def test_density_matrix_invariants(self):
        with pytest.raises(ValidationError):
            oc.DensityMatrix.from_matrix(np.diag([0.5, 0.6]).astype(complex))
        with pytest.raises(ValidationError):
            oc.DensityMatrix.from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValidationError):
            oc.DensityMatrix.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([0.5, 0.6]), "trace"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
            (np.diag([1.5, -0.5]), "eigenvalue"),
            (np.diag([np.nan, 0.5]), "non-finite"),
        ],
        ids=["trace", "hermitian", "psd", "nan"],
    )
    def test_density_stack_names_first_bad_trial(self, bad, message):
        good = [oc.random_density(2, 2, substream(7, t)).mat for t in range(4)]
        stack = np.array(good[:2] + [bad] + good[2:], dtype=complex)
        for m in stack[:2]:
            oc.DensityMatrix.from_matrix(m)
        with pytest.raises(ValidationError):
            oc.DensityMatrix.from_matrix(stack[2])
        with pytest.raises(ValidationError, match=rf"^trial 2: rho .*{message}"):
            oc.check_density_stack(stack, "rho")

    def test_density_stack_eigenvalues_match_single_states(self):
        stack = np.array([oc.random_density(3, 2, substream(7, t)).mat for t in range(5)])
        evals = oc.check_density_stack(stack)
        for m, row in zip(stack, evals):
            np.testing.assert_array_equal(row, np.linalg.eigvalsh(oc.DensityMatrix.from_matrix(m).mat))

    def test_layout_capacity(self):
        with pytest.raises(CapacityError):
            oc.SubsystemLayout((8, 9))

    def test_projector_set_completeness(self):
        with pytest.raises(ValidationError):
            oc.ProjectorSet((np.diag([1.0, 0.0]).astype(complex),))

    def test_dyadic_algebra(self):
        basis = oc.random_unitary(3, substream(7, 1)).mat
        db = oc.build_dyadic_basis(basis)
        # X_ab X_cd = delta_bc X_ad
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        prod = db.element(a, b) @ db.element(c, d)
                        expect = db.element(a, d) if b == c else np.zeros((3, 3))
                        np.testing.assert_allclose(prod, expect, atol=1e-12)
        db.projectors()  # X_aa form a valid projector set
