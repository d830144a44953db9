"""Copy interactions, invariance, and branch structure."""

import numpy as np
import pytest

from qsim import heisenberg_flow as hf
from qsim import operator_core as oc
from qsim import properties
from qsim.errors import AnalysisError, ValidationError
from qsim.rng import substream

ZERO = np.array([1, 0], dtype=complex)
ONE = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_copy_interaction(rng, d1=2, d2=2):
    p1 = oc.random_projector_set(d1, [1] * d1, rng)
    p2 = oc.random_projector_set(d2, [1] * d2, rng)
    phases = rng.uniform(0, 2 * np.pi, size=(d1, d2))
    return hf.build_copy_unitary(phases, p1, p2)


class TestEvolveDescriptor:
    def test_identity_leaves_unchanged(self):
        layout = oc.SubsystemLayout((2,))
        d = hf.DescriptorSet(layout, (hf.Descriptor("z", 0, SIGMA_Z),))
        u = oc.UnitaryOperator.from_matrix(np.eye(2, dtype=complex))
        out = hf.evolve_descriptor(d, u)
        np.testing.assert_allclose(out.by_name("z"), SIGMA_Z)
        assert out.time_tag == 1

    def test_hadamard_swaps_z_and_x(self):
        layout = oc.SubsystemLayout((2,))
        d = hf.DescriptorSet(layout, (hf.Descriptor("z", 0, SIGMA_Z),))
        u = oc.UnitaryOperator.from_matrix(HADAMARD)
        out = hf.evolve_descriptor(d, u)
        np.testing.assert_allclose(out.by_name("z"), SIGMA_X, atol=1e-12)

    def test_algebra_preserved(self):
        rng = substream(21, 0)
        layout = oc.SubsystemLayout((4,))
        ops = tuple(
            hf.Descriptor(f"o{k}", 0, _random_herm(rng, 4)) for k in range(3)
        )
        d = hf.DescriptorSet(layout, ops)
        u = oc.random_unitary(4, rng)
        out = hf.evolve_descriptor(d, u)
        ud = u.mat.conj().T
        for a in ops:
            for b in ops:
                comm_before = a.mat @ b.mat - b.mat @ a.mat
                ea, eb = out.by_name(a.name), out.by_name(b.name)
                comm_after = ea @ eb - eb @ ea
                np.testing.assert_allclose(
                    comm_after, ud @ comm_before @ u.mat, atol=1e-9
                )


def _random_herm(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


class TestConjugateDyadic:
    def test_projector_fixed_point(self):
        u = oc.UnitaryOperator.from_matrix(SIGMA_Z)
        sd = oc.spectral_decompose_unitary(u)
        x00 = np.outer(ZERO, ZERO.conj())
        np.testing.assert_allclose(hf.conjugate_dyadic(x00, sd), x00, atol=1e-12)

    def test_sigma_z_off_diagonal(self):
        u = oc.UnitaryOperator.from_matrix(SIGMA_Z)
        sd = oc.spectral_decompose_unitary(u)
        x01 = np.outer(ZERO, ONE.conj())
        got = hf.conjugate_dyadic(x01, sd)
        # oracle: direct conjugation
        oracle = SIGMA_Z.conj().T @ x01 @ SIGMA_Z
        np.testing.assert_allclose(got, oracle, atol=1e-12)
        np.testing.assert_allclose(got, -x01, atol=1e-12)

    def test_degenerate_phases_leave_dyadic_unchanged(self):
        # diag(1, 1, -1): the 0-phase eigenspace is 2-dimensional
        u = oc.UnitaryOperator.from_matrix(np.diag([1.0, 1.0, -1.0]).astype(complex))
        sd = oc.spectral_decompose_unitary(u)
        x = np.zeros((3, 3), dtype=complex)
        x[0, 1] = 1.0  # dyadic inside the degenerate block
        got = hf.conjugate_dyadic(x, sd)
        oracle = u.mat.conj().T @ x @ u.mat
        np.testing.assert_allclose(got, oracle, atol=1e-12)
        np.testing.assert_allclose(got, x, atol=1e-12)

    def test_misaligned_dyadic_rejected(self):
        u = oc.UnitaryOperator.from_matrix(SIGMA_Z)
        sd = oc.spectral_decompose_unitary(u)
        misaligned = np.outer(PLUS, ZERO.conj())
        with pytest.raises(AnalysisError):
            hf.conjugate_dyadic(misaligned, sd)


class TestBuildCopyUnitary:
    def test_zero_phases_identity(self):
        p = oc.computational_projectors(2)
        ci = hf.build_copy_unitary(np.zeros((2, 2)), p, p)
        np.testing.assert_allclose(ci.unitary.mat, np.eye(4), atol=1e-12)

    def test_cnot_exact(self):
        ci = hf.cnot_interaction()
        np.testing.assert_allclose(ci.unitary.mat, CNOT, atol=1e-12)

    def test_random_3x3_unitarity(self):
        rng = substream(21, 1)
        ci = random_copy_interaction(rng, 3, 3)
        u = ci.unitary.mat
        assert oc.max_abs(u.conj().T @ u - np.eye(9)) <= 1e-9

    def test_incomplete_projectors_rejected(self):
        p = oc.computational_projectors(2)
        with pytest.raises(ValidationError):
            hf.build_copy_unitary(np.zeros((1, 2)), p, p)

    def test_global_phase_normalized(self):
        p = oc.computational_projectors(2)
        ci = hf.build_copy_unitary(np.full((2, 2), 1.3), p, p)
        assert ci.phases[0, 0] == 0.0

    @pytest.mark.parametrize("d1, d2, blocks", [(2, 2, None), (3, 3, None), (5, 5, None),
                                                (8, 8, None), (3, 5, [2, 1, 2])])
    def test_unitary_matrix_matches_per_pair_loop(self, d1, d2, blocks):
        rng = substream(22, d1 * d2)
        p1 = oc.random_projector_set(d1, [1] * d1, rng)
        p2 = oc.random_projector_set(d2, blocks or [1] * d2, rng)
        phases = rng.uniform(0, 2 * np.pi, size=(len(p1), len(p2)))
        loop = np.zeros((d1 * d2, d1 * d2), dtype=complex)
        for a, pa in enumerate(p1.projectors):
            for b, pb in enumerate(p2.projectors):
                loop += np.exp(1j * phases[a, b]) * oc.kron_stack(pa, pb)
        np.testing.assert_array_equal(hf._copy_unitary_matrix(phases, p1, p2), loop)

    def test_unitary_derived_from_parts_and_validated(self):
        cnot = hf.cnot_interaction()
        ci = hf.CopyInteraction(cnot.phases, cnot.proj1, cnot.proj2)
        assert isinstance(ci.unitary, oc.UnitaryOperator)
        assert ci.layout.factor_dims == (2, 2)
        np.testing.assert_array_equal(ci.unitary.mat, cnot.unitary.mat)
        with pytest.raises(ValidationError, match="^unitary contains non-finite entries$"):
            hf.CopyInteraction(np.array([[0.0, np.nan], [0.0, 0.0]]), cnot.proj1, cnot.proj2)


class TestCheckInvariance:
    def test_observable_on_proj1_invariant(self):
        ci = hf.cnot_interaction()
        obs = hf.ObservableSpec((2.0, -1.0), ci.proj1)
        res = hf.check_invariance(obs, ci)
        assert res.invariant and res.residual <= 1e-9

    def test_sigma_x_not_invariant_under_cnot(self):
        ci = hf.cnot_interaction()
        plus = PLUS
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        ps = oc.ProjectorSet.from_basis(np.column_stack([plus, minus]))
        obs = hf.ObservableSpec((1.0, -1.0), ps)  # sigma_x on S1
        res = hf.check_invariance(obs, ci)
        assert not res.invariant and res.residual > 0.1

    def test_zero_phase_interaction_everything_invariant(self):
        p = oc.computational_projectors(2)
        ci = hf.build_copy_unitary(np.zeros((2, 2)), p, p)
        rng = substream(21, 2)
        ps = oc.random_projector_set(2, [1, 1], rng)
        obs = hf.ObservableSpec(tuple(rng.standard_normal(2)), ps)
        assert hf.check_invariance(obs, ci).invariant


class TestAnalyzeCopy:
    def test_global_phase_copies_nothing(self):
        p = oc.computational_projectors(2)
        ci = hf.build_copy_unitary(np.full((2, 2), 0.7), p, p)
        report = hf.analyze_copy(ci)
        assert report.copied_into_2 == ()
        assert report.copied_into_1 == ()
        assert report.max_residual <= 1e-9

    def test_cnot_copies_control_labels(self):
        ci = hf.cnot_interaction()
        report = hf.analyze_copy(ci)
        assert report.copied_into_2 == ci.proj1.labels
        assert report.max_residual <= 1e-9
        off_diagonal = [e for e in report.dyadic_table if e.c != e.d]
        assert any(e.copied for e in off_diagonal)

    def test_separable_phases_copy_nothing(self):
        rng = substream(21, 3)
        p1 = oc.random_projector_set(3, [1, 1, 1], rng)
        p2 = oc.random_projector_set(3, [1, 1, 1], rng)
        f = rng.standard_normal(3)
        g = rng.standard_normal(3)
        phases = f[:, None] + g[None, :]
        ci = hf.build_copy_unitary(phases, p1, p2)
        report = hf.analyze_copy(ci)
        assert report.copied_into_2 == () and report.copied_into_1 == ()

    def test_corrected_form_matches_brute_force(self):
        rng = substream(21, 4)
        for k in range(20):
            ci = random_copy_interaction(substream(21, 100 + k), 3, 2)
            assert hf.analyze_copy(ci).max_residual <= 1e-9

    def test_copied_labels_match_dyadic_table(self):
        for k in range(10):
            ci = random_copy_interaction(substream(21, 200 + k), 3, 2)
            report = hf.analyze_copy(ci)
            assert bool(report.copied_into_2) == any(e.copied for e in report.dyadic_table)
        p = oc.computational_projectors(2)
        report = hf.analyze_copy(hf.build_copy_unitary(np.full((2, 2), 0.7), p, p))
        assert not any(e.copied for e in report.dyadic_table)

    @pytest.mark.parametrize("d1, d2", [(2, 3), (3, 2), (4, 4), (8, 8)])
    def test_stacked_conjugations_match_per_dyadic_loop(self, d1, d2):
        # per-dyadic brute-force conjugations as the reference: the table is
        # bit-exact, the factored residual agrees with the brute-force worst
        ci = random_copy_interaction(substream(24, 10 * d1 + d2), d1, d2)
        u = ci.unitary.mat
        basis2, groups2 = hf._block_basis(ci.proj2)
        worst, table = 0.0, []
        for c in range(len(groups2)):
            for d in range(len(groups2)):
                x = np.outer(basis2[:, groups2[c][0]], basis2[:, groups2[d][0]].conj())
                phases = ci.phases[:, d] - ci.phases[:, c]
                weighted = sum(np.exp(1j * phases[a]) * p for a, p in enumerate(ci.proj1.projectors))
                brute = u.conj().T @ np.kron(np.eye(d1, dtype=complex), x) @ u
                worst = max(worst, oc.max_abs(np.kron(weighted, x) - brute))
                copied = bool(hf._phase_spread(phases) > hf.COPY_TOL)
                table.append((c, d, tuple(float(p) % (2 * np.pi) for p in phases), copied))
        report = hf.analyze_copy(ci)
        assert abs(report.max_residual - worst) <= 1e-14
        assert max(report.max_residual, worst) <= 1e-9
        assert [(e.c, e.d, e.phases_by_a, e.copied) for e in report.dyadic_table] == table

    def test_report_serializes(self):
        report = hf.analyze_copy(hf.cnot_interaction())
        doc = report.to_json()
        assert set(doc) == {"copied_families", "dyadic_table", "residuals"}
        assert all({"c", "d", "phases_by_a", "copied"} <= set(e) for e in doc["dyadic_table"])


class TestCopiableFamilies:
    def test_cnot_computational_family(self):
        u = oc.UnitaryOperator(oc.SubsystemLayout((2, 2)), CNOT)
        fams = hf.copiable_projector_families(u)
        assert not fams.degenerate_identity and not fams.only_trivial
        (fam,) = fams.families
        assert fam.ranks() == (1, 1)
        mats = sorted(fam.projectors, key=lambda p: -p[0, 0].real)
        np.testing.assert_allclose(mats[0], np.diag([1.0, 0.0]), atol=1e-9)
        np.testing.assert_allclose(mats[1], np.diag([0.0, 1.0]), atol=1e-9)

    def test_swap_only_trivial(self):
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        u = oc.UnitaryOperator(oc.SubsystemLayout((2, 2)), swap)
        fams = hf.copiable_projector_families(u)
        assert fams.only_trivial
        (fam,) = fams.families
        assert len(fam) == 1
        np.testing.assert_allclose(fam.projectors[0], np.eye(2), atol=1e-12)

    def test_identity_flagged_degenerate(self):
        u = oc.UnitaryOperator(oc.SubsystemLayout((2, 2)), np.eye(4, dtype=complex))
        fams = hf.copiable_projector_families(u)
        assert fams.degenerate_identity

    def test_coarse_graining_preserves_invariance(self):
        rng = substream(21, 5)
        ci = random_copy_interaction(rng, 3, 2)
        fams = hf.copiable_projector_families(ci.unitary)
        if fams.degenerate_identity or len(fams.families[0]) < 2:
            pytest.skip("instance has no family to coarse-grain")
        fam = fams.families[0]
        merged = oc.ProjectorSet(
            (fam.projectors[0] + fam.projectors[1],) + fam.projectors[2:]
        )
        i2 = np.eye(2, dtype=complex)
        u = ci.unitary.mat
        for p in merged.projectors:
            lifted = np.kron(p, i2)
            assert oc.max_abs(u.conj().T @ lifted @ u - lifted) <= 1e-9


    def test_unrelated_error_propagates(self, monkeypatch):
        u = hf.cnot_interaction().unitary
        real = oc.ProjectorSet

        def broken(projs, labels=()):
            if len(projs) > 1:
                raise RuntimeError("not a validation failure")
            return real(projs, labels)

        monkeypatch.setattr(hf, "ProjectorSet", broken)
        with pytest.raises(RuntimeError):
            hf.copiable_projector_families(u)

    def test_drifting_atoms_raise(self, monkeypatch):
        monkeypatch.setattr(hf, "s1_drift", lambda u, ops: np.ones_like(ops))
        with pytest.raises(AnalysisError, match="drift"):
            hf.copiable_projector_families(hf.cnot_interaction().unitary)

    def test_rejected_atoms_raise(self, monkeypatch):
        u = hf.cnot_interaction().unitary
        real = oc.ProjectorSet

        def rejecting(projs, labels=()):
            if len(projs) > 1:
                raise ValidationError("candidate rejected")
            return real(projs, labels)

        monkeypatch.setattr(hf, "ProjectorSet", rejecting)
        with pytest.raises(AnalysisError, match="not a projector family"):
            hf.copiable_projector_families(u)


def copy_demo_interaction(d, seed):
    """The copy-demo construction for --dims d,d."""
    rng = substream(seed, 0)
    p1 = oc.random_projector_set(d, [1] * d, rng)
    p2 = oc.random_projector_set(d, [1] * d, rng)
    return hf.build_copy_unitary(rng.uniform(0, 2 * np.pi, size=(d, d)), p1, p2)


def assert_atoms_follow_identical_rows(ci, tol):
    """The atoms are the summed S1 projectors of the labels with identical phase rows."""
    rows = [tuple(r) for r in ci.phases]
    exact = [
        sum(p for p, r in zip(ci.proj1.projectors, rows) if r == key) for key in dict.fromkeys(rows)
    ]
    fams = hf.copiable_projector_families(ci.unitary)
    # one group means U = I x U_0, which leaves every S1 observable invariant
    assert fams.degenerate_identity == (len(exact) == 1)
    if fams.degenerate_identity:
        return
    (fam,) = fams.families
    assert sorted(fam.ranks()) == sorted(round(np.trace(q).real) for q in exact)
    for p in fam.projectors:
        assert min(oc.max_abs(p - q) for q in exact) <= tol


class TestAtomsFollowIdenticalRows:
    # (3, 1082) once found an empty center and (99, 740) answered ranks (3,)
    # for (2, 1): the center solve's singular values straddled the 1e-10 cut
    @pytest.mark.parametrize("seed, trial", [(3, 1082), (99, 740)])
    def test_center_solve_regressions(self, seed, trial):
        ci = properties._random_copy_interaction(substream(seed, trial))
        assert_atoms_follow_identical_rows(ci, 1e-9)

    def test_property_style_sweep(self):
        for t in range(500):
            ci = properties._random_copy_interaction(substream(12, t))
            assert_atoms_follow_identical_rows(ci, 1e-9)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_rank1_copy_demo_atoms_are_exact(self, d):
        for seed in range(1, 40):
            assert_atoms_follow_identical_rows(copy_demo_interaction(d, seed), 1e-12)


def _atom_key(p):
    """The documented atom order: descending diagonal, then real, then imaginary."""
    return (
        tuple(-np.round(np.diag(p).real, 9))
        + tuple(-np.round(p.real, 9).ravel())
        + tuple(-np.round(p.imag, 9).ravel())
    )


class TestFixedSpaceAndAtomOrder:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_thin_null_space_matches_full_svd(self, d):
        u = random_copy_interaction(substream(23, d), d, d).unitary
        fixed = hf._fixed_s1_operator_space(u)
        # reference: null space of the same map from a full SVD
        um = u.mat
        cols = []
        for k in range(d * d):
            e = np.zeros(d * d, dtype=complex)
            e[k] = 1.0
            lifted = np.kron(e.reshape(d, d), np.eye(d))
            cols.append((um.conj().T @ lifted @ um - lifted).ravel())
        _, s, vh = np.linalg.svd(np.column_stack(cols), full_matrices=True)
        null = vh[s < 1e-10].conj().T
        ref = null @ null.conj().T
        q, _ = np.linalg.qr(np.column_stack([h.ravel() for h in fixed]))
        assert q.shape[1] == null.shape[1] == d
        assert oc.max_abs(q @ q.conj().T - ref) <= 1e-9

    @pytest.mark.parametrize("d1, d2", [(2, 3), (3, 2), (4, 4), (8, 2), (8, 8)])
    def test_commutators_share_drift_singular_values(self, d1, d2):
        u = random_copy_interaction(substream(25, 10 * d1 + d2), d1, d2).unitary
        units = np.eye(d1 * d1, dtype=complex).reshape(d1 * d1, d1, d1)
        drift = hf.s1_drift(u, units).reshape(d1 * d1, -1).T
        s_drift = np.linalg.svd(drift, compute_uv=False)
        m = hf._s1_commutators(u)
        s_comm = np.linalg.svd(m, compute_uv=False)
        assert oc.max_abs(s_comm - s_drift) <= 1e-12 * max(1.0, s_drift[0])
        # column (i, j) is [E_ij x I, U], bit for bit
        lifted = oc.kron_stack(units, np.eye(d2, dtype=complex))
        assert np.array_equal(m, (lifted @ u.mat - u.mat @ lifted).reshape(d1 * d1, -1).T)

    @pytest.mark.parametrize("d1, d2", [(2, 3), (3, 2), (4, 4), (8, 2), (8, 8)])
    def test_null_space_through_r_matches_svd(self, d1, d2):
        m = hf._s1_commutators(random_copy_interaction(substream(25, 10 * d1 + d2), d1, d2).unitary)
        s, null = hf._null_space(m)
        _, s_ref, vh_ref = np.linalg.svd(m, full_matrices=False)
        assert oc.max_abs(s - s_ref) <= 1e-12 * max(1.0, s_ref[0])
        assert len(null) == np.count_nonzero(s_ref < 1e-10) == d1
        # the same null space: equal projectors onto the spans
        ref = vh_ref[s_ref < 1e-10]
        assert oc.max_abs(null.conj().T @ null - ref.conj().T @ ref) <= 1e-12

    def test_random_8x8_atoms_invariant_and_sorted(self):
        ci = copy_demo_interaction(8, 7)
        (fam,) = hf.copiable_projector_families(ci.unitary).families
        assert fam.ranks() == (1,) * 8
        u = ci.unitary.mat
        for p in fam.projectors:
            lifted = np.kron(p, np.eye(8))
            assert oc.max_abs(u.conj().T @ lifted @ u - lifted) <= 1e-9
        keys = [_atom_key(p) for p in fam.projectors]
        assert keys == sorted(keys)

    def test_cnot_family_keeps_zero_first(self):
        (fam,) = hf.copiable_projector_families(hf.cnot_interaction().unitary).families
        np.testing.assert_allclose(fam.projectors[0], np.diag([1.0, 0.0]), atol=1e-9)
        np.testing.assert_allclose(fam.projectors[1], np.diag([0.0, 1.0]), atol=1e-9)

    def test_equal_diagonals_sort_plus_before_minus(self):
        p1 = oc.ProjectorSet.from_basis(HADAMARD, labels=("+", "-"))
        ci = hf.build_copy_unitary(
            np.array([[0.0, 0.0], [0.0, np.pi]]), p1, oc.computational_projectors(2)
        )
        (fam,) = hf.copiable_projector_families(ci.unitary).families
        plus, minus = HADAMARD[:, 0], HADAMARD[:, 1]
        np.testing.assert_allclose(fam.projectors[0], np.outer(plus, plus), atol=1e-9)
        np.testing.assert_allclose(fam.projectors[1], np.outer(minus, minus), atol=1e-9)


class TestNoCloning:
    def test_basis_states_copy_exactly(self):
        ci = hf.cnot_interaction()
        fids = hf.no_cloning_demo([ZERO, ONE], ci, blank=ZERO)
        np.testing.assert_allclose(fids, [1.0, 1.0], atol=1e-10)

    def test_plus_state_fidelity_half(self):
        ci = hf.cnot_interaction()
        (fid,) = hf.no_cloning_demo([PLUS], ci, blank=ZERO)
        # state-vector oracle: |<++|Bell>|^2
        bell = CNOT @ np.kron(PLUS, ZERO)
        oracle = abs(np.vdot(np.kron(PLUS, PLUS), bell)) ** 2
        assert abs(fid - oracle) <= 1e-12
        assert abs(fid - 0.5) <= 1e-10

    def test_identity_copier_leaves_blank(self):
        p = oc.computational_projectors(2)
        ci = hf.build_copy_unitary(np.zeros((2, 2)), p, p)
        fids = hf.no_cloning_demo([ZERO, PLUS], ci, blank=ZERO)
        np.testing.assert_allclose(fids, [1.0, 1.0], atol=1e-10)


class TestBranchDecomposition:
    def test_plus_zero_through_cnot(self):
        ci = hf.cnot_interaction()
        rho0 = oc.DensityMatrix.pure(np.kron(PLUS, ZERO), ci.layout)
        bd = hf.branch_decomposition(rho0, ci)
        weights = sorted(b.weight for b in bd.branches)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-10)
        assert bd.cross_branch_norm_s1 <= 1e-12
        assert bd.cross_branch_norm_s2 <= 1e-12
        # state-vector oracle: evolved state is the Bell state
        bell = CNOT @ np.kron(PLUS, ZERO)
        np.testing.assert_allclose(
            bd.evolved.mat, np.outer(bell, bell.conj()), atol=1e-12
        )

    def test_eigenstate_input_single_branch(self):
        ci = hf.cnot_interaction()
        rho0 = oc.DensityMatrix.pure(np.kron(ZERO, ZERO), ci.layout)
        bd = hf.branch_decomposition(rho0, ci)
        assert len(bd.branches) == 1
        assert abs(bd.branches[0].weight - 1.0) <= 1e-10

    def test_identity_interaction_single_branch(self):
        p = oc.computational_projectors(2)
        ci = hf.build_copy_unitary(np.zeros((2, 2)), p, p)
        rho0 = oc.DensityMatrix.pure(np.kron(PLUS, ZERO), ci.layout)
        bd = hf.branch_decomposition(rho0, ci)
        assert len(bd.branches) == 1
        np.testing.assert_allclose(bd.branches[0].state.mat, rho0.mat, atol=1e-12)

    def test_branch_weights_match_independent_traces(self):
        rng = substream(21, 6)
        ci = random_copy_interaction(rng, 2, 3)
        rho = oc.random_density(6, 3, rng)
        rho = oc.DensityMatrix(ci.layout, rho.mat)
        bd = hf.branch_decomposition(rho, ci)
        assert abs(sum(b.weight for b in bd.branches) - 1.0) <= 1e-10


# S1 labels 0 and 1 share a phase row, so the interaction never tells them apart
DEGENERATE_PHASES = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, np.pi]])


class TestCopiedSectors:
    def test_degenerate_rows_give_one_answer(self):
        p1, p2 = oc.computational_projectors(3), oc.computational_projectors(2)
        ci = hf.build_copy_unitary(DEGENERATE_PHASES, p1, p2)
        report = hf.analyze_copy(ci)
        assert report.copied_into_2 == ((0, 1), 2)
        assert report.copied_into_1 == (0, 1)
        assert report.to_json()["copied_families"]["into_subsystem_2"] == [(0, 1), 2]
        s1 = np.ones(3, dtype=complex) / np.sqrt(3)
        rho0 = oc.DensityMatrix.pure(np.kron(s1, PLUS), ci.layout)
        bd = hf.branch_decomposition(rho0, ci)
        assert [b.label for b in bd.branches] == [(0, 1), 2]
        np.testing.assert_allclose([b.weight for b in bd.branches], [2 / 3, 1 / 3], atol=1e-12)
        (fam,) = hf.copiable_projector_families(ci.unitary).families
        assert fam.ranks() == (2, 1)
        np.testing.assert_allclose(fam.projectors[0], np.diag([1.0, 1.0, 0.0]), atol=1e-9)

    def test_local_phase_copies_nothing_but_keeps_two_atoms(self):
        p = oc.computational_projectors(2)
        ci = hf.build_copy_unitary(np.array([[0.0, 0.0], [0.5, 0.5]]), p, p)
        report = hf.analyze_copy(ci)
        assert report.copied_into_2 == () and report.copied_into_1 == ()
        assert [label for label, _ in hf.copied_sectors(ci.phases, p)] == [(0, 1)]
        bd = hf.branch_decomposition(oc.DensityMatrix.pure(np.kron(PLUS, ZERO), ci.layout), ci)
        assert [b.label for b in bd.branches] == [(0, 1)]
        assert bd.cross_branch_norm_s2 == 0.0
        fams = hf.copiable_projector_families(ci.unitary)
        assert not fams.degenerate_identity
        assert fams.families[0].ranks() == (1, 1)

    @pytest.mark.parametrize("k", range(8))
    def test_atoms_follow_identical_rows_and_sectors_follow_constant_shifts(self, k):
        # rows of one group share a phase row, some of them moved by a constant:
        # a shifted row is its own atom (U_a differs by a phase) but not its own sector
        rng = substream(33, k)
        d1, d2 = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        p1 = oc.computational_projectors(d1)
        p2 = oc.random_projector_set(d2, [1] * d2, rng)
        group = rng.integers(0, int(rng.integers(1, d1)), size=d1)
        shift = np.where(rng.random(d1) < 0.4, rng.uniform(0.5, 1.5, size=d1), 0.0)
        base = rng.uniform(0, 2 * np.pi, size=(d1, d2))
        ci = hf.build_copy_unitary(base[group] + shift[:, None], p1, p2)
        rows = [tuple(r) for r in ci.phases]
        atoms = [[a for a in range(d1) if rows[a] == r] for r in dict.fromkeys(rows)]
        (fam,) = hf.copiable_projector_families(ci.unitary).families
        assert fam.ranks() == tuple(len(g) for g in atoms)
        for p, g in zip(fam.projectors, atoms):
            np.testing.assert_allclose(np.diag(p).real, np.isin(np.arange(d1), g), atol=1e-9)
        sectors = [[a for a in range(d1) if group[a] == g] for g in dict.fromkeys(group.tolist())]
        want = [tuple(g) if len(g) > 1 else g[0] for g in sectors]
        assert [label for label, _ in hf.copied_sectors(ci.phases, p1)] == want
        assert hf.analyze_copy(ci).copied_into_2 == (tuple(want) if len(want) > 1 else ())


class TestS1Drift:
    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (4, 3)])
    def test_stack_matches_per_operator_kron(self, d1, d2):
        ci = random_copy_interaction(substream(34, 10 * d1 + d2), d1, d2)
        u = ci.unitary.mat
        ops = np.array(ci.proj1.projectors)
        drift = hf.s1_drift(ci.unitary, ops)
        for a, p in enumerate(ops):
            lifted = np.kron(p, np.eye(d2, dtype=complex))
            assert np.array_equal(drift[a], u.conj().T @ lifted @ u - lifted)
        assert oc.max_abs(drift) <= 1e-9
