"""Core matrix algebra, state primitives, and random generation."""

import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg

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

    @pytest.mark.parametrize("da, db", [(1, 1), (1, 8), (2, 3), (3, 2), (4, 4), (8, 8)])
    def test_bits_equal_np_kron(self, da, db):
        rng = substream(12, 10 * da + db)

        def factor(d):
            m = oc.ginibre((d, d), rng)
            # about a third of the parts are exact zeros, of either sign
            for part in (m.real, m.imag):
                zero = rng.random((d, d)) < 0.3
                part[zero] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zero)))
            return m

        a, b = factor(da), factor(db)
        got, want = oc.tensor_product(a, b), np.kron(a, b)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        # a stack of factor pairs gives each pair's product
        stack = oc.kron_stack(np.array([a, a.conj()]), np.array([b, -b]))
        for got, want in zip(stack, (np.kron(a, b), np.kron(a.conj(), -b))):
            assert np.array_equal(got.view(float), want.view(float))
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


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


    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 2), (8, 8)])
    def test_stack_matches_explicit_einsums(self, dims):
        d1, d2 = dims
        mats = oc.ginibre((5, d1 * d2, d1 * d2), substream(11, 3))
        t = mats.reshape(5, d1, d2, d1, d2)
        for keep, spec in (((0,), "nabcb->nac"), ((1,), "nabad->nbd")):
            stacked = oc.partial_trace_matrix(mats, dims, keep)
            assert np.array_equal(stacked, np.einsum(spec, t))
            for m, got in zip(mats, stacked):
                assert np.array_equal(got, oc.partial_trace_matrix(m, dims, keep))


class TestEigenspaces:
    def test_single_eigenvalue(self):
        assert oc.eigenspaces(np.array([0.3]), 1e-7) == [slice(0, 1)]

    def test_all_equal(self):
        assert oc.eigenspaces(np.full(4, 0.25), 1e-7) == [slice(0, 4)]

    def test_gap_at_the_bound_joins(self):
        evals = np.array([0.0, 0.5, 1.0, 1.75])
        assert oc.eigenspaces(evals, 0.5) == [slice(0, 3), slice(3, 4)]
        assert oc.eigenspaces(evals, np.nextafter(0.5, 0.0)) == [slice(k, k + 1) for k in range(4)]

    def test_clusters_split_at_gaps(self):
        evals = np.array([-1.0, -1.0 + 1e-9, 2.0, 2.0 + 5e-8, 3.0])
        assert oc.eigenspaces(evals, 1e-7) == [slice(0, 2), slice(2, 4), slice(4, 5)]


class TestSupportProjector:
    def test_drops_eigenvalues_at_the_threshold(self):
        p = oc.support_projector(np.diag([0.6, 0.4 - 1e-10, 1e-10, 0.0]).astype(complex))
        np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_rotated_rank_two_state(self):
        u = oc.random_unitary(3, substream(11, 4)).mat
        rho = u @ np.diag([0.0, 0.3, 0.7]) @ u.conj().T
        want = u[:, 1:] @ u[:, 1:].conj().T
        np.testing.assert_allclose(oc.support_projector(rho), want, atol=1e-12)


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

    @pytest.mark.parametrize("shift, fails", [(1e-11, False), (1e-7, True)])
    def test_reconstruction_check(self, monkeypatch, shift, fails):
        # every eigenphase off by `shift`, so the reconstruction is off by about as much
        schur = scipy.linalg.schur

        def shifted(m, output):
            t, q = schur(m, output=output)
            return t * np.exp(1j * shift), q

        monkeypatch.setattr(scipy.linalg, "schur", shifted)
        u = oc.random_unitary(4, substream(11, 7))
        if fails:
            with pytest.raises(ValidationError, match="failed to reconstruct"):
                oc.spectral_decompose_unitary(u)
        else:
            assert oc.max_abs(oc.spectral_decompose_unitary(u).reconstruct() - u.mat) <= oc.TAU_RECON

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

    def test_random_block_sizes_is_a_composition(self):
        for t in range(50):
            rng = substream(7, t)
            blocks = oc.random_block_sizes(8, rng)
            assert sum(blocks) == 8 and min(blocks) >= 1
            # each size is one integers(1, left + 1) draw, in order
            replay = substream(7, t)
            left = 8
            for b in blocks:
                assert int(replay.integers(1, left + 1)) == b
                left -= b
            assert rng.random() == replay.random()

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_stacked_builders_match_single_trials(self, dim):
        # one stack of several trials gives each trial's bits alone
        rngs = [substream(8, t) for t in range(6)]
        g = np.array([oc.ginibre((dim, dim), rng) for rng in rngs])
        blocks = [oc.random_block_sizes(dim, rng) for rng in rngs]
        u = oc.haar_unitaries(g)
        for k in range(1, dim + 1):
            same_count = [b for b in blocks if len(b) == k]
            rows = [i for i, b in enumerate(blocks) if len(b) == k]
            if not rows:
                continue
            projs = oc.block_projectors(u[rows], same_count)
            for j, i in enumerate(rows):
                np.testing.assert_array_equal(projs[j], oc.block_projectors(u[i : i + 1], [blocks[i]])[0])
        for i in range(len(g)):
            np.testing.assert_array_equal(u[i], oc.haar_unitaries(g[i : i + 1])[0])
        dens = oc.gram_densities(g[:, :, :2])
        for i in range(len(g)):
            np.testing.assert_array_equal(dens[i], oc.gram_densities(g[i : i + 1, :, :2])[0])


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([0.5, 0.6]), "density matrix trace (1.1+0j) != 1"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "density matrix is not Hermitian"),
            (np.diag([1.5, -0.5]), "density matrix has eigenvalue -0.5 < 0"),
        ],
        ids=["trace", "hermitian", "psd"],
    )
    def test_density_matrix_message_is_the_stacks(self, bad, message):
        with pytest.raises(ValidationError) as single:
            oc.DensityMatrix.from_matrix(bad)
        with pytest.raises(ValidationError) as stacked:
            oc.check_density_stack(np.array([np.eye(2) / 2, bad], dtype=complex))
        assert str(single.value) == message
        assert str(stacked.value) == f"trial 1: {message}"

    def test_density_stack_eigenvalues_match_single_states(self):
        stack = np.array([oc.random_density(3, 2, substream(7, t)).mat for t in range(5)])
        evals = oc.check_density_stack(stack)
        for m, row in zip(stack, evals):
            np.testing.assert_array_equal(row, np.linalg.eigvalsh(oc.DensityMatrix.from_matrix(m).mat))

    def test_trial_blocks_cover_every_trial_once(self, monkeypatch):
        monkeypatch.setattr(oc, "STACK_ELEMENTS", 100)
        blocks = list(oc.trial_blocks(23, 3))  # 100 // 9 = 11 trials per block
        assert [(b.start, b.stop) for b in blocks] == [(0, 11), (11, 22), (22, 23)]
        assert [len(b) for b in oc.trial_blocks(3, 16)] == [1, 1, 1]

    def test_layout_capacity(self):
        with pytest.raises(CapacityError):
            oc.SubsystemLayout((8, 9))

    def test_projector_set_completeness(self):
        with pytest.raises(ValidationError):
            oc.ProjectorSet((np.diag([1.0, 0.0]).astype(complex),))

    @pytest.mark.parametrize(
        "build, name",
        [(oc.UnitaryOperator.from_matrix, "unitary"), (oc.DensityMatrix.from_matrix, "density matrix")],
    )
    def test_from_matrix_names_its_operator(self, build, name):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ValidationError, match=rf"^{name} contains non-finite entries$"):
            build(m)
        with pytest.raises(ValidationError, match=rf"^{name} must be a square matrix"):
            build(np.eye(2, 3))


# ---------------------------------------------------------------------------
# Stacked unitary and projector checks


def old_unitary_message(m):
    """The single-operator unitary check before the stacked one, as an oracle."""
    if max(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max(), 0.0) > oc.TAU_UNITARY:
        return "operator is not unitary within tolerance"
    return None


def old_projector_message(projs):
    """The single-family projector checks before the stacked ones, as an oracle."""
    dim = projs[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for p in projs:
        if np.abs(p - p.conj().T).max() > oc.TAU_PROJ:
            return "projector is not Hermitian"
        if np.abs(p @ p - p).max() > oc.TAU_PROJ:
            return "projector is not idempotent"
        total += p
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            if np.abs(projs[i] @ projs[j]).max() > oc.TAU_PROJ:
                return f"projectors {i} and {j} are not orthogonal"
    if np.abs(total - np.eye(dim)).max() > oc.TAU_PROJ:
        return "projector set is not complete"
    return None


def message_of(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


def good_families(n=6, dim=4, blocks=(1, 2, 1)):
    return np.array(
        [oc.random_projector_set(dim, blocks, substream(9, t)).projectors for t in range(n)]
    )


def corrupt_projectors(kind, fam):
    """Family `fam` (K, d, d) with one defect of the given kind."""
    fam = fam.copy()
    if kind == "non-hermitian":
        fam[1, 0, 1] += 1e-6
    elif kind == "non-idempotent":
        fam[2] *= 1 + 1e-6
    elif kind == "non-orthogonal":
        # turn projectors 0 and 2 together, keeping each a Hermitian idempotent
        v0 = np.linalg.eigh(fam[0])[1][:, -1]
        v2 = np.linalg.eigh(fam[2])[1][:, -1]
        w = (v0 + 1e-4 * v2) / np.linalg.norm(v0 + 1e-4 * v2)
        fam[0] = np.outer(w, w.conj())
    elif kind == "incomplete":
        fam[1] = 0.0
    elif kind == "nan":
        fam[2, 1, 1] = np.nan
    return fam


class TestStackChecks:
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("non-hermitian", "projector is not Hermitian"),
            ("non-idempotent", "projector is not idempotent"),
            ("non-orthogonal", "projectors 0 and 2 are not orthogonal"),
            ("incomplete", "projector set is not complete"),
            ("nan", "projector contains non-finite entries"),
        ],
    )
    def test_projector_stack_names_first_bad_trial(self, kind, message):
        stack = good_families()
        oc.check_projector_stack(stack)
        stack[3] = corrupt_projectors(kind, stack[3])
        stack[5] = corrupt_projectors(kind, stack[5])
        with pytest.raises(ValidationError, match=rf"^trial 3: {message}$"):
            oc.check_projector_stack(stack)
        with pytest.raises(ValidationError, match=rf"^trial 13: {message}$"):
            oc.check_projector_stack(stack, trials=range(10, 16))
        if kind != "nan":
            assert old_projector_message(list(stack[3])) == message
        assert message_of(lambda: oc.ProjectorSet(tuple(stack[3]))) == message

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda u: u.__setitem__((1, 1), u[1, 1] * (1 + 1e-6)), "operator is not unitary"),
            (lambda u: u.__setitem__((0, 2), np.nan), "unitary contains non-finite entries"),
        ],
        ids=["non-unitary", "nan"],
    )
    def test_unitary_stack_names_first_bad_trial(self, corrupt, message):
        stack = np.array([oc.random_unitary(3, substream(9, t)).mat for t in range(5)])
        oc.check_unitary_stack(stack)
        corrupt(stack[2])
        corrupt(stack[4])
        with pytest.raises(ValidationError, match=rf"^trial 2: {message}"):
            oc.check_unitary_stack(stack)
        with pytest.raises(ValidationError, match=rf"^trial 7: {message}"):
            oc.check_unitary_stack(stack, trials=[1, 3, 7, 8, 9])
        with pytest.raises(ValidationError, match=rf"^{message}"):
            oc.UnitaryOperator(oc.single_layout(3), stack[2])

    @pytest.mark.parametrize("shape", [(3, 3), (0, 3, 3), (2, 3, 4)])
    def test_unitary_stack_shape(self, shape):
        with pytest.raises(ValidationError, match="stack must have shape"):
            oc.check_unitary_stack(np.zeros(shape))

    @pytest.mark.parametrize("scale", [0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0])
    @pytest.mark.parametrize(
        "kind, size", [("hermitian", 1.0), ("anti-hermitian", 0.3), ("rotation", 1.0)]
    )
    def test_projector_set_near_misses_decided_as_before(self, kind, size, scale):
        # perturbations sized so that their residuals straddle TAU_PROJ near scale 1
        rng = substream(10, int(scale * 100))
        decisions = set()
        for t in range(10):
            fam = good_families(1, 4, (2, 1, 1))[0]
            e = oc.ginibre((4, 4), rng) * oc.TAU_PROJ * scale * size
            k = t % 3
            if kind == "hermitian":
                fam[k] += (e + e.conj().T) / 2
            elif kind == "anti-hermitian":
                fam[k] += (e - e.conj().T) / 2
            else:
                # turn one projector by exp(iH): orthogonality and completeness move
                w, v = np.linalg.eigh((e + e.conj().T) / 2)
                r = v @ np.diag(np.exp(1j * w)) @ v.conj().T
                fam[k] = r @ fam[k] @ r.conj().T
            got = message_of(lambda: oc.ProjectorSet(tuple(fam)))
            assert got == old_projector_message(fam)
            decisions.add(got is None)
        if scale in (0.1, 10.0):
            assert decisions == {scale == 0.1}

    @pytest.mark.parametrize("scale", [0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0])
    def test_unitary_near_misses_decided_as_before(self, scale):
        rng = substream(11, int(scale * 100))
        decisions = set()
        for t in range(10):
            u = oc.random_unitary(4, rng).mat.copy()
            u = u + oc.ginibre((4, 4), rng) * oc.TAU_UNITARY * scale / 2
            got = message_of(lambda: oc.UnitaryOperator.from_matrix(u))
            assert got == old_unitary_message(u)
            decisions.add(got is None)
        if scale in (0.1, 10.0):
            assert decisions == {scale == 0.1}


# ---------------------------------------------------------------------------
# Range-basis validation of projector families


def haar_or_schur_basis(source, dim, rng):
    """Orthonormal columns as random_projector_set (Haar) or spectral_decompose_unitary (Schur) gets them."""
    u = oc.random_unitary(dim, rng).mat
    return u if source == "haar" else scipy.linalg.schur(u, output="complex")[1]


def weighted_sum_of_pairs(phases, p1, p2):
    """sum_ab exp(i phases[a, b]) P1_a x P2_b, one pair at a time."""
    return sum(
        np.exp(1j * phases[a, b]) * np.kron(pa, pb)
        for a, pa in enumerate(p1.projectors)
        for b, pb in enumerate(p2.projectors)
    )


class TestRangeBasis:
    @pytest.mark.parametrize("source", ["haar", "schur"])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 16, 64])
    def test_haar_and_schur_families_pass_both_checks(self, source, dim):
        rng = substream(13, dim)
        q = haar_or_schur_basis(source, dim, rng)
        sizes = [1] * dim if dim <= 8 else oc.random_block_sizes(dim, rng)
        assert oc.orthonormal_columns(q)
        fam = oc.ProjectorSet.from_blocks(q, sizes)
        assert fam.ranks() == tuple(sizes)
        assert old_projector_message(fam.projectors) is None
        assert message_of(lambda: oc.ProjectorSet(fam.projectors)) is None

    @pytest.mark.parametrize("source", ["haar", "schur"])
    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("kind", ["idempotence", "orthogonality"])
    def test_near_misses_rejected_by_both_checks(self, source, dim, kind):
        rng = substream(14, dim)
        q = haar_or_schur_basis(source, dim, rng).copy()
        sizes = [1] * dim
        if kind == "idempotence":
            # P_0 -> (1 + delta) P_0, so P_0^2 - P_0 = delta (1 + delta) P_0
            delta = 10 * oc.TAU_PROJ / oc.max_abs(np.outer(q[:, 0], q[:, 0].conj()))
            q[:, 0] *= np.sqrt(1 + delta)
            message = "projector is not idempotent"
        else:
            # v_1 -> v_1 + eta v_0, so P_0 P_1 = eta v_0 v_1'-dagger
            eta = 10 * oc.TAU_PROJ / oc.max_abs(np.outer(q[:, 0], q[:, 1].conj()))
            q[:, 1] += eta * q[:, 0]
            message = "projectors 0 and 1 are not orthogonal"
        assert not oc.orthonormal_columns(q)
        projs = oc.block_projectors(q[None], [sizes])[0]
        assert old_projector_message(list(projs)) == message
        assert message_of(lambda: oc.ProjectorSet.from_blocks(q, sizes)) == message
        assert message_of(lambda: oc.ProjectorSet(tuple(projs))) == message

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_gram_bound_implies_pairwise_bounds(self, dim):
        # a basis just inside the Gram bound, in the worst direction for each check
        q = haar_or_schur_basis("haar", dim, substream(15, dim)).copy()
        edge = 0.99 * oc.TAU_PROJ / (2 * dim)
        q[:, 0] *= np.sqrt(1 + edge)
        q[:, 2 % dim] += edge * q[:, 1]
        assert oc.orthonormal_columns(q)
        fam = oc.ProjectorSet.from_blocks(q, [1] * dim)
        assert old_projector_message(fam.projectors) is None

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_range_basis_must_match_its_blocks(self):
        with pytest.raises(ValidationError, match="does not split into blocks"):
            oc.ProjectorSet.from_blocks(np.eye(3), [1, 1])
        for dim in (2, 3, 8):
            q = np.eye(dim) if dim == 3 else haar_or_schur_basis("haar", dim, substream(18, dim))
            for bad in (np.nan, np.inf):
                q_bad = q.copy()
                q_bad[0, -1] = bad
                with pytest.raises(ValidationError, match="^projector contains non-finite entries$"):
                    oc.ProjectorSet.from_basis(q_bad)
            # orthonormal but too few columns: the Gram check passes, completeness does not
            with pytest.raises(ValidationError, match="^projector set is not complete$"):
                oc.ProjectorSet.from_blocks(q[:, 1:], [1] * (dim - 1))

    def test_spectral_family_builds_projectors_only_when_read(self, monkeypatch):
        rng = substream(16, 0)
        p1, p2 = (oc.random_projector_set(8, [1] * 8, rng) for _ in range(2))
        phases = rng.uniform(0, 2 * np.pi, size=(8, 8))
        u = oc.UnitaryOperator(oc.SubsystemLayout((8, 8)), weighted_sum_of_pairs(phases, p1, p2))
        built = []
        block_projectors = oc.block_projectors
        monkeypatch.setattr(oc, "block_projectors", lambda *a: built.append(1) or block_projectors(*a))
        fam = oc.spectral_decompose_unitary(u).projectors
        assert (len(fam), fam.dim, fam.ranks()) == (64, 64, (1,) * 64)
        assert not built
        q, sizes = fam.range_basis
        expected = oc._freeze(block_projectors(q[None], [sizes])[0])
        projs = fam.projectors
        assert fam.projectors is projs and len(built) == 1
        np.testing.assert_array_equal(np.array(projs), expected)
        assert not any(p.flags.writeable for p in projs)
        np.testing.assert_array_equal(np.array(copy.deepcopy(fam).projectors), expected)

    @pytest.mark.parametrize("source", ["haar", "schur"])
    @pytest.mark.parametrize("dim", [2, 8, 16, 64])
    def test_unchecked_defects_stay_far_inside_tolerance(self, source, dim):
        rng = substream(17, dim)
        q = haar_or_schur_basis(source, dim, rng)
        for sizes in ([1] * dim, oc.random_block_sizes(dim, rng)):
            p = np.array(oc.ProjectorSet.from_blocks(q, sizes).projectors)
            assert oc.max_abs(p - oc.dagger(p)) <= oc.TAU_PROJ / 100
            assert oc.max_abs(p.sum(axis=0) - np.eye(dim)) <= oc.TAU_PROJ / 100

    def test_basis_failing_the_gram_check_keeps_its_projectors(self):
        # blocks [e0, 0] and [e1]: a valid family whose basis is not orthonormal
        fam = oc.ProjectorSet.from_blocks(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), [2, 1])
        assert fam.range_basis is None
        assert fam.ranks() == (1, 1)
        np.testing.assert_array_equal(np.array(fam.projectors), [np.diag([1, 0]), np.diag([0, 1])])

    def test_replace_rederives_from_the_basis(self):
        fam = oc.ProjectorSet.from_basis(HADAMARD)
        relabeled = dataclasses.replace(fam, labels=("+", "-"))
        assert relabeled.labels == ("+", "-")
        np.testing.assert_array_equal(np.array(relabeled.projectors), np.array(fam.projectors))
