"""Entropy, knowledge states, decoherence, and selection processes."""

import numpy as np
import pytest

from frozen import eye_bases, stack_inputs
from qsim import knowledge_entropy as ke
from qsim import operator_core as oc
from qsim.errors import CapacityError, UsageError, ValidationError
from qsim.rng import substream

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

def binary_entropy(p):
    """Independent oracle: -sum p log2 p over a Bernoulli spectrum."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = oc.DensityMatrix.pure(oc.random_pure_ket(5, substream(41, 0)))
        assert abs(ke.von_neumann_entropy(rho)) <= 1e-10

    def test_maximally_mixed_qubit(self):
        rho = oc.DensityMatrix.from_matrix(np.eye(2) / 2)
        assert abs(ke.von_neumann_entropy(rho) - 1.0) <= 1e-12

    def test_binary_spectrum_oracle(self):
        rho = oc.DensityMatrix.from_matrix(np.diag([0.25, 0.75]).astype(complex))
        assert abs(ke.von_neumann_entropy(rho) - binary_entropy(0.25)) <= 1e-12
        assert abs(ke.von_neumann_entropy(rho) - 0.811278) <= 1e-6

    def test_bounded_by_log_dim(self):
        for k in range(10):
            rng = substream(41, 10 + k)
            dim = int(rng.integers(2, 9))
            rho = oc.random_density(dim, int(rng.integers(1, dim + 1)), rng)
            s = ke.von_neumann_entropy(rho)
            assert -1e-12 <= s <= np.log2(dim) + 1e-9

    def test_unitary_invariance(self):
        rng = substream(41, 1)
        rho = oc.random_density(6, 4, rng)
        u = oc.random_unitary(6, rng)
        assert (
            abs(ke.von_neumann_entropy(oc.evolve_state(rho, u)) - ke.von_neumann_entropy(rho))
            <= 1e-9
        )


def entropy_bits(evals):
    """Reference: -sum_k l_k log2 l_k over the eigenvalues above EIGENVALUE_CLAMP, in bits."""
    evals = np.clip(evals, 0.0, None)
    nz = evals[evals > ke.EIGENVALUE_CLAMP]
    return float(-np.sum(nz * np.log2(nz)))


def clamped_rows(rng, count, n):
    """Ascending unit-sum rows whose 0..n-1 leading entries are clamped to zero,
    EIGENVALUE_CLAMP or below it, or tiny negatives, as eigvalsh gives them."""
    tiny = [0.0, 1e-13, ke.EIGENVALUE_CLAMP, -1e-15, -3e-14]
    clamped = np.arange(n) < rng.integers(0, n, count)[:, None]
    small = np.where(clamped, rng.choice(tiny, (count, n)), 0.0)
    large = np.where(clamped, 0.0, rng.random((count, n)))
    large *= (1.0 - small.sum(axis=1, keepdims=True)) / large.sum(axis=1, keepdims=True)
    return np.sort(small + large, axis=1)


class TestSpectralEntropies:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 16, 17, 33, 64])
    def test_rows_are_entropy_bits(self, n):
        rng = substream(43, n)
        for _ in range(180):
            evals = clamped_rows(rng, 50, n)
            rows = ke._spectral_entropies(evals)
            assert [x.hex() for x in rows.tolist()] == [entropy_bits(e).hex() for e in evals]

    def test_von_neumann_entropy_is_entropy_bits(self):
        # one state at a time, every n up to the dimension cap
        for n in range(1, oc.MAX_TOTAL_DIM + 1):
            for row in clamped_rows(substream(44, n), 50, n):
                rho = oc.DensityMatrix.from_matrix(np.diag(row))
                expected = entropy_bits(np.linalg.eigvalsh(rho.mat))
                assert ke.von_neumann_entropy(rho).hex() == expected.hex()


class TestFreeEnergy:
    def test_zero_temperature(self):
        assert ke.free_energy(ke.FreeEnergyParams(1.0, 0.0, 5.0)) == 1.0

    def test_direct_substitution(self):
        assert ke.free_energy(ke.FreeEnergyParams(0.0, 1.0, 1.0)) == -1.0
        assert abs(ke.free_energy(ke.FreeEnergyParams(2.5, 0.5, 1.2)) - 1.9) <= 1e-12

    def test_monotone_in_entropy(self):
        f1 = ke.free_energy(ke.FreeEnergyParams(3.0, 2.0, 1.0))
        f2 = ke.free_energy(ke.FreeEnergyParams(3.0, 2.0, 2.0))
        assert f2 < f1

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError):
            ke.FreeEnergyParams(1.0, -0.1, 1.0)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValidationError, match="temperature must be >= 0, got nan"):
            ke.FreeEnergyParams(1.0, float("nan"), 1.0)

    @pytest.mark.parametrize(
        "params, message",
        [
            ((float("nan"), 1.0, 1.0), "free-energy parameters must be finite"),
            ((1.0, 1.0, -5.0), "entropy must be >= 0, got -5.0"),
            ((1.0, float("inf"), 0.0), "free-energy parameters must be finite"),
        ],
        ids=["nan-energy", "negative-entropy", "infinite-temperature"],
    )
    def test_invalid_params_rejected(self, params, message):
        with pytest.raises(ValidationError, match=message):
            ke.FreeEnergyParams(*params)


class TestKnowledgeState:
    def test_pure_product(self):
        ks = ke.build_knowledge_state(np.array([[1.0, 0.0], [0.0, 0.0]]), (2, 2))
        rho = ks.realized_density()
        assert abs(ke.von_neumann_entropy(rho)) <= 1e-10
        for keep in ((0,), (1,)):
            assert abs(ke.von_neumann_entropy(oc.partial_trace(rho, keep))) <= 1e-10

    def test_perfect_classical_correlation(self):
        ks = ke.build_knowledge_state(np.diag([0.5, 0.5]), (2, 2))
        rho = ks.realized_density()
        assert abs(ke.von_neumann_entropy(rho) - 1.0) <= 1e-10
        assert abs(ke.von_neumann_entropy(oc.partial_trace(rho, (0,))) - 1.0) <= 1e-10
        assert abs(ke.von_neumann_entropy(oc.partial_trace(rho, (1,))) - 1.0) <= 1e-10

    def test_marginals_are_classical(self):
        rng = substream(41, 2)
        p = rng.random((3, 3))
        p /= p.sum()
        ks = ke.build_knowledge_state(p, (3, 3))
        rho = ks.realized_density()
        s1 = ke.von_neumann_entropy(oc.partial_trace(rho, (0,)))
        s2 = ke.von_neumann_entropy(oc.partial_trace(rho, (1,)))
        shannon = lambda w: -sum(x * np.log2(x) for x in w if x > 1e-15)
        assert abs(s1 - shannon(p.sum(axis=1))) <= 1e-10
        assert abs(s2 - shannon(p.sum(axis=0))) <= 1e-10

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValidationError):
            ke.build_knowledge_state(np.array([[0.7, 0.7]]), (2, 2))
        with pytest.raises(ValidationError):
            ke.build_knowledge_state(np.array([[1.5, -0.5]]), (2, 2))

    @pytest.mark.parametrize("where", ["weights", "basis1", "basis2"])
    def test_nan_rejected(self, where):
        ks = ke.build_knowledge_state(np.diag([0.5, 0.5]), (2, 2))
        parts = {"weights": ks.p_ab, "basis1": ks.basis1, "basis2": ks.basis2}
        parts[where] = parts[where].copy()
        parts[where][0, 0] = np.nan
        message = "nonnegative" if where == "weights" else "not orthonormal"
        with pytest.raises(ValidationError, match=message):
            ke.KnowledgeState(parts["weights"], parts["basis1"], parts["basis2"], ks.layout)

    def test_list_bases_are_stored_as_the_checked_arrays(self):
        # nested lists pass the checks, so they must also work downstream
        ks = ke.build_knowledge_state(np.diag([0.5, 0.5]), (2, 2))
        listed = ke.KnowledgeState(ks.p_ab, ks.basis1.tolist(), ks.basis2.tolist(), ks.layout)
        assert listed.basis1.tobytes() == ks.basis1.tobytes()
        assert listed.realized_density().mat.tobytes() == ks.realized_density().mat.tobytes()
        theta = ke.perturb_selection((2, 2), 0.2, substream(41, 13))
        want = ke.apply_selection_process(ks, theta)
        got = ke.apply_selection_process(listed, theta)
        assert got.rho_t2.mat.tobytes() == want.rho_t2.mat.tobytes()
        assert (got.ds1, got.ds2) == (want.ds1, want.ds2)


class TestKnowledgeFormTest:
    def test_built_states_certified(self):
        p = np.array([[0.4, 0.1], [0.2, 0.3]])
        rho = ke.build_knowledge_state(p, (2, 2)).realized_density()
        res = ke.knowledge_form_test(rho)
        assert res.is_knowledge_form and res.residual <= 1e-9

    def test_bell_state_rejected(self):
        bell = oc.DensityMatrix.pure(
            np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
            oc.SubsystemLayout((2, 2)),
        )
        res = ke.knowledge_form_test(bell)
        assert not res.is_knowledge_form
        assert res.residual > 0.1
        assert res.degenerate_marginals

    def test_product_of_pure_states(self):
        ket = np.kron(PLUS, np.array([1, 0], dtype=complex))
        rho = oc.DensityMatrix.pure(ket, oc.SubsystemLayout((2, 2)))
        assert ke.knowledge_form_test(rho).is_knowledge_form


class TestProjectiveDecoherence:
    def test_eigenprojectors_fixed_point(self):
        rng = substream(41, 3)
        rho = oc.random_density(4, 3, rng)
        evals, evecs = oc.hermitian_eigendecomposition(rho.mat)
        ps = oc.ProjectorSet.from_basis(evecs)
        out = ke.projective_decoherence(rho, ps)
        assert oc.max_abs(out.mat - rho.mat) <= 1e-10

    def test_full_dephasing_of_plus(self):
        rho = oc.DensityMatrix.pure(PLUS)
        out = ke.projective_decoherence(rho, oc.computational_projectors(2))
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_blockwise_oracle(self):
        rng = substream(41, 4)
        rho = oc.random_density(6, 4, rng)
        ps = oc.random_projector_set(6, [2, 3, 1], rng)
        out = ke.projective_decoherence(rho, ps)
        oracle = sum(p @ rho.mat @ p for p in ps.projectors)
        np.testing.assert_allclose(out.mat, oracle, atol=1e-12)
        for i, pi in enumerate(ps.projectors):
            for j, pj in enumerate(ps.projectors):
                if i != j:
                    assert oc.max_abs(pi @ out.mat @ pj) <= 1e-12

    def test_incomplete_set_rejected(self):
        rho = oc.DensityMatrix.from_matrix(np.eye(2) / 2)
        with pytest.raises(ValidationError):
            ke.projective_decoherence(
                rho, oc.ProjectorSet((np.eye(3, dtype=complex),))
            )


class TestEntropyInequality:
    def test_commuting_case_equality(self):
        rho = oc.DensityMatrix.from_matrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
        _, _, margin = ke.entropy_after_decoherence_geq(
            rho, oc.computational_projectors(3)
        )
        assert abs(margin) <= 1e-10

    def test_plus_dephasing_gains_one_bit(self):
        rho = oc.DensityMatrix.pure(PLUS)
        s_before, s_after, margin = ke.entropy_after_decoherence_geq(
            rho, oc.computational_projectors(2)
        )
        assert abs(s_before) <= 1e-10
        assert abs(s_after - 1.0) <= 1e-10
        assert abs(margin - 1.0) <= 1e-10

    def test_monte_carlo_no_violations(self):
        for t in range(200):
            rng = substream(42, t)
            dim = int(rng.integers(2, 9))
            rho = oc.random_density(dim, int(rng.integers(1, dim + 1)), rng)
            ps = oc.random_projector_set(dim, oc.random_block_sizes(dim, rng), rng)
            _, _, margin = ke.entropy_after_decoherence_geq(rho, ps)
            assert margin >= -1e-9


def one_trial_draws(seed, t):
    """(dim, rho, block sizes, rng) of a decoherence trial through the one-trial API,
    drawn as the kernel draws it; rng is left before the Haar unitary's draw."""
    rng = substream(seed, t)
    dim = int(rng.integers(2, 9))
    rho = oc.random_density(dim, int(rng.integers(1, dim + 1)), rng)
    return dim, rho, oc.random_block_sizes(dim, rng), rng


def one_trial_margin(seed, t):
    """A decoherence margin through the one-trial API, drawn as the kernel draws it."""
    dim, rho, blocks, rng = one_trial_draws(seed, t)
    ps = oc.random_projector_set(dim, blocks, rng)
    return ke.entropy_after_decoherence_geq(rho, ps)[2]


class TestDecoherenceKernel:
    def test_one_trial_api_is_the_kernel(self):
        margins = ke.decoherence_margins(3, 40)
        assert margins.tolist() == [one_trial_margin(3, t) for t in range(40)]

    def test_blocks_do_not_change_bits(self, monkeypatch):
        whole = ke.decoherence_margins(5, 100)
        monkeypatch.setattr(oc, "STACK_ELEMENTS", 7 * 64)  # 7 trials per block
        np.testing.assert_array_equal(ke.decoherence_margins(5, 100), whole)

    def test_never_decreases(self):
        assert ke.decoherence_margins(6, 500).min() >= -1e-9

    def test_a_failure_names_its_trial(self, monkeypatch):
        # break the unitaries of every dim-3 trial: groups are checked in
        # (dim, block count) order, so the error names the first trial of the
        # dim-3 group with the fewest blocks
        def skewed(g):
            u = oc.haar_unitaries(g)
            return u * 1.001 if u.shape[1] == 3 else u

        monkeypatch.setattr(ke, "haar_unitaries", skewed)
        draws = [one_trial_draws(2, t) for t in range(30)]
        dim3 = [(len(blocks), t) for t, (dim, _, blocks, _) in enumerate(draws) if dim == 3]
        with pytest.raises(ValidationError, match=rf"^trial {min(dim3)[1]}: operator is not unitary"):
            ke.decoherence_margins(2, 30)


def gram_stretch(d, eps):
    """S = sqrt(I + eps (J - I)): for unitary U, (U S)-dagger (U S) - I = eps (J - I),
    whose largest entry is eps."""
    w, v = np.linalg.eigh(np.eye(d) + eps * (np.ones((d, d)) - np.eye(d)))
    return (v * np.sqrt(w)) @ v.T


def kernel_outcome(seed, trials, warp, every_row=False):
    """(margins, or the message of the error raised; trials whose projectors were checked)
    of decoherence_margins with each unitary stack u replaced by warp(u).

    every_row gives every family the projector checks, as the kernel did before
    it skipped the families whose unitary passes ProjectorSet's Gram bound.
    """
    checked = []
    check, haar = ke.check_projector_stack, ke.haar_unitaries

    def spy(projs, rows):
        checked.extend(int(t) for t in rows)
        return check(projs, rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ke, "haar_unitaries", lambda g: warp(haar(g)))
        m.setattr(ke, "check_projector_stack", spy)
        if every_row:
            m.setattr(ke, "orthonormal_columns", lambda u, errors: np.zeros(len(u), dtype=bool))
        try:
            out = ke.decoherence_margins(seed, trials).tolist()
        except ValidationError as exc:
            out = str(exc)
    return out, checked


class TestGramShortcut:
    def test_gram_miss_gets_every_projector_check(self):
        # a unitary within TAU_UNITARY whose Gram error misses TAU_PROJ / (2d):
        # Q = H S with H a reflection taking the all-ones direction to e_1, so
        # Q Q-dagger - I = eps (d e_1 e_1-dagger - I), and its families fail
        # ProjectorSet's checks (a block of several columns fails idempotence first)
        d, eps = 8, 0.9 * oc.TAU_UNITARY
        w = np.ones(d) / np.sqrt(d) - np.eye(d)[0]
        q = (np.eye(d) - 2 * np.outer(w, w) / (w @ w)) @ gram_stretch(d, eps)
        assert oc.gram_errors(q) <= oc.TAU_UNITARY and not oc.orthonormal_columns(q)

        def warp(u):
            return np.broadcast_to(q, u.shape).astype(complex) if u.shape[-1] == d else u

        got, checked = kernel_outcome(7, 60, warp)
        want, _ = kernel_outcome(7, 60, warp, every_row=True)
        assert got == want
        assert isinstance(got, str) and got.startswith("trial ") and ": projector" in got
        dims = {t: one_trial_draws(7, t)[0] for t in range(60)}
        assert checked and all(dims[t] == d for t in checked)

    @pytest.mark.parametrize(
        "bound, scale",
        [("gram", 0.5), ("gram", 0.99), ("gram", 1.01), ("gram", 2.0),
         ("unitary", 0.5), ("unitary", 0.99), ("unitary", 1.01)],
    )
    def test_near_misses_decided_as_by_every_check(self, bound, scale):
        def warp(u):
            d = u.shape[-1]
            tau = oc.TAU_PROJ / (2 * d) if bound == "gram" else oc.TAU_UNITARY
            return u @ gram_stretch(d, scale * tau)

        # the stretch also moves traces, so a density check may stop the run; the
        # same check at the same trial either way
        got, checked = kernel_outcome(8, 80, warp)
        want, checked_by_all = kernel_outcome(8, 80, warp, every_row=True)
        assert got == want
        if bound == "gram" and scale < 1:
            assert checked == [] and checked_by_all
        elif bound == "gram" or scale < 1:
            assert checked == checked_by_all
        else:
            assert got.endswith("operator is not unitary within tolerance") and checked == []

    def test_projector_set_and_kernel_share_the_gram_check(self, monkeypatch):
        assert ke.orthonormal_columns is oc.orthonormal_columns
        calls = []
        check = oc.orthonormal_columns

        def spy(q, errors=None):
            calls.append((q.shape, errors is None))
            return check(q, errors)

        monkeypatch.setattr(oc, "orthonormal_columns", spy)
        monkeypatch.setattr(ke, "orthonormal_columns", spy)
        oc.ProjectorSet.from_blocks(np.eye(3), [1, 2])
        assert calls == [((3, 3), True)]
        ke.decoherence_margins(1, 50)
        # one call per dim, on the unitary stack, with check_unitary_stack's Gram errors
        dims = sorted({one_trial_draws(1, t)[0] for t in range(50)})
        assert [(shape[1:], fresh) for shape, fresh in calls[1:]] == [((d, d), False) for d in dims]


class TestXiRotation:
    def test_nu_projectors_valid(self):
        theta = 0.3
        xi = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        ps = ke.XiRotation(xi).nu_projectors()
        assert ps.ranks() == (1, 1)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValidationError):
            ke.XiRotation(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="not orthonormal"):
            ke.XiRotation(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSelectionProcess:
    def test_ideal_selection_is_noop(self):
        rng = substream(41, 5)
        p = rng.random((2, 2))
        p /= p.sum()
        ks = ke.build_knowledge_state(p, (2, 2))
        rep = ke.apply_selection_process(ks, ke.ThetaFamily.ideal((2, 2)))
        assert abs(rep.ds1) <= 1e-10 and abs(rep.ds2) <= 1e-10
        np.testing.assert_allclose(rep.rho_t2.mat, ks.realized_density().mat, atol=1e-12)

    def test_relabeling_counterexample(self):
        ks, theta = ke.relabeling_counterexample()
        rep = ke.apply_selection_process(ks, theta)
        assert rep.ds1 == -1.0
        assert abs(rep.ds2) <= 1e-12
        # hand-checkable: rho(t2) = |0><0| x I/2
        expect = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        np.testing.assert_allclose(rep.rho_t2.mat, expect, atol=1e-12)

    def test_selection_validates_each_state_once(self, monkeypatch):
        # rho(t2) and its two marginals: one eigvalsh each, none for rho(t1) or the report
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        rep = ke.apply_selection_process(*ke.relabeling_counterexample())
        assert len(calls) == 3
        np.testing.assert_array_equal(rep.rho_t2.mat, calls[0][0])
        assert not rep.rho_t2.mat.flags.writeable

    def test_epsilon_zero_matches_ideal(self):
        rng = substream(41, 6)
        p = rng.random((2, 2))
        p /= p.sum()
        ks = ke.build_knowledge_state(p, (2, 2))
        theta0 = ke.perturb_selection((2, 2), 0.0, rng)
        rep = ke.apply_selection_process(ks, theta0)
        assert abs(rep.ds1) <= 1e-10 and abs(rep.ds2) <= 1e-10

    def test_global_entropy_preserved(self):
        rng = substream(41, 7)
        p = rng.random((2, 3))
        p /= p.sum()
        ks = ke.build_knowledge_state(p, (2, 3))
        theta = ke.perturb_selection((2, 3), 0.4, rng)
        rep = ke.apply_selection_process(ks, theta)
        s_t1 = ke.von_neumann_entropy(ks.realized_density())
        assert abs(rep.s_global - s_t1) <= 1e-9
        # eigenvalue multiset of rho(t2) is the weight multiset
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(rep.rho_t2.mat)),
            np.sort(p.flatten()),
            atol=1e-9,
        )

    def test_formula_matches_partial_trace(self):
        for t in range(20):
            rng = substream(43, t)
            p = rng.random((2, 2))
            p /= p.sum()
            ks = ke.build_knowledge_state(p, (2, 2))
            theta = ke.perturb_selection((2, 2), float(rng.uniform(0, 1)), rng)
            rep = ke.apply_selection_process(ks, theta)
            assert rep.formula_residual <= 1e-10

    def test_theta_measurement_fixed_point(self):
        rng = substream(41, 8)
        p = rng.random((2, 2))
        p /= p.sum()
        ks = ke.build_knowledge_state(p, (2, 2))
        theta = ke.perturb_selection((2, 2), 0.3, rng)
        rep = ke.apply_selection_process(ks, theta)
        vecs = theta.vectors(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        dephased = ke.projective_decoherence(rep.rho_t2, oc.ProjectorSet.from_basis(vecs))
        assert oc.max_abs(dephased.mat - rep.rho_t2.mat) <= 1e-10

    def test_non_orthonormal_theta_rejected(self):
        lam = np.zeros((2, 2, 2, 2))
        lam[:, :, 0, 0] = 1.0  # all four vectors identical
        with pytest.raises(ValidationError):
            ke.ThetaFamily(lam)

    @pytest.mark.parametrize("part", [1.0, 1j])
    def test_nan_theta_rejected(self, part):
        lam = ke.ThetaFamily.ideal((2, 2)).lam + 0j
        lam[0, 0, 0, 0] += np.nan * part
        message = "not orthonormal" if part == 1.0 else "must be real"
        with pytest.raises(ValidationError, match=message):
            ke.ThetaFamily(lam)


class TestPartialKnowledgeBases:
    """Knowledge bases with fewer columns than their factor's dim."""

    @pytest.mark.parametrize("dim, k", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_completed_basis_is_unitary_and_keeps_columns(self, dim, k):
        partial = oc.random_unitary(dim, substream(49, dim * 10 + k)).mat[:, :k]
        full = ke._complete_basis(partial, dim)
        assert full.shape == (dim, dim)
        assert oc.max_abs(oc.dagger(full) @ full - np.eye(dim)) <= 1e-12
        assert full[:, :k].tobytes() == partial.tobytes()

    def test_selection_from_one_row_of_weights(self):
        # one S1 knowledge vector: the theta family must reach the completed direction
        ks = ke.build_knowledge_state([[0.25, 0.75]], (2, 2))
        theta = ke.ThetaFamily(ke.perturb_selection((2, 2), 0.5, substream(49, 0)).lam[:1])
        rep = ke.apply_selection_process(ks, theta)
        assert abs(rep.s_global - binary_entropy(0.25)) <= 1e-12
        assert rep.formula_residual <= 1e-10


class TestPerturbSelection:
    def test_epsilon_zero_is_ideal(self):
        theta = ke.perturb_selection((2, 2), 0.0, substream(41, 9))
        np.testing.assert_array_equal(theta.lam, ke.ThetaFamily.ideal((2, 2)).lam)

    def test_perturbation_bounded(self):
        eps = 0.1
        theta = ke.perturb_selection((2, 2), eps, substream(41, 10))
        ideal = ke.ThetaFamily.ideal((2, 2))
        for a in range(2):
            for b in range(2):
                dev = np.linalg.norm(theta.lam[a, b] - ideal.lam[a, b])
                assert dev <= eps * (1 + eps)

    def test_different_seeds_differ(self):
        t1 = ke.perturb_selection((2, 2), 0.2, substream(41, 11))
        t2 = ke.perturb_selection((2, 2), 0.2, substream(41, 12))
        assert not np.array_equal(t1.lam, t2.lam)


def filtered_entropy(m):
    """Reference entropy: the kept eigenvalues alone, summed by np.sum."""
    evals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    nz = evals[evals > ke.EIGENVALUE_CLAMP]
    return float(-np.sum(nz * np.log2(nz)))


class TestStackedSelection:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 5)])
    def test_stack_matches_one_trial_selections(self, dims):
        n = 6
        p, lam = stack_inputs(44, n, dims, 0.3)
        sel = ke.select_stack(p, lam, *eye_bases(dims))
        for t in range(n):
            rng = substream(44, t)
            w = rng.random(dims)
            ks = ke.build_knowledge_state(w / w.sum(), dims)
            rep = ke.apply_selection_process(ks, ke.perturb_selection(dims, 0.3, rng))
            assert (sel.ds1[t], sel.ds2[t], sel.s_global[t]) == (rep.ds1, rep.ds2, rep.s_global)
            np.testing.assert_array_equal(sel.rho_t2[t], rep.rho_t2.mat)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p, lam: p.__setitem__((3, 0, 0), -0.5),
            lambda p, lam: p.__setitem__((3, 0, 0), p[3, 0, 0] + 0.01),
            lambda p, lam: lam.__setitem__((3, 0, 0), lam[3, 0, 1]),
            lambda p, lam: p.__setitem__((3, 1, 1), np.nan),
            lambda p, lam: lam.__setitem__((3, 1, 0, 0, 1), np.nan),
        ],
        ids=["negative-weight", "weights-sum", "non-orthonormal-lambda", "nan-weight", "nan-lambda"],
    )
    def test_corrupted_trial_is_named(self, corrupt):
        p, lam = stack_inputs(45, 6, (2, 2), 0.2)
        lam = np.array(lam)
        corrupt(p, lam)
        with pytest.raises(ValidationError, match=r"^trial 3: "):
            ke.select_stack(p, lam, *eye_bases((2, 2)))

    def test_capacity_checked(self):
        with pytest.raises(CapacityError):
            ke.select_stack(np.ones((1, 1, 1)), np.ones((1, 1, 1, 9, 9)), *eye_bases((9, 9)))

    @pytest.mark.parametrize("which", [0, 1])
    def test_nan_basis_rejected_before_any_state(self, which):
        # a defect every trial shares is not blamed on trial 0
        bases = list(eye_bases((2, 2)))
        bases[which][0, 0] = np.nan
        lam = ke.perturbed_lams((2, 2), 0.0, np.empty((3, 4, 4)))
        with pytest.raises(ValidationError, match=r"^knowledge basis is not orthonormal$"):
            ke.select_stack(np.full((3, 2, 2), 0.25), lam, *bases)

    def test_complex_lambda_rejected_per_trial(self):
        p, lam = stack_inputs(45, 4, (2, 2), 0.2)
        lam = np.array(lam, dtype=complex)
        lam[2, 0, 0, 0, 0] += 1e-6j
        with pytest.raises(ValidationError, match=r"^trial 2: lambda must be real"):
            ke.select_stack(p, lam, *eye_bases((2, 2)))

    @pytest.mark.parametrize("dims", [(4, 4), (2, 16), (8, 8), (3, 9)])
    def test_clamped_eigenvalues_summed_like_single_states(self, dims):
        # zero weights on some columns leave marginals with clamped eigenvalues
        # next to several kept ones, where a zero-padded row sum would group
        # the kept terms differently
        p, lam = stack_inputs(46, 8, dims, 0.0)
        p[:, :, : dims[1] // 4 + 1] = 0.0
        p /= p.sum(axis=(1, 2), keepdims=True)
        sel = ke.select_stack(p, lam, *eye_bases(dims))
        for k in range(4):  # at epsilon = 0 the t1 marginals are those at t2
            for t in range(len(p)):
                assert sel.entropies[k, t] == filtered_entropy(sel.marginals[k % 2][t])
        assert np.any(np.linalg.eigvalsh(sel.marginals[1]) < ke.EIGENVALUE_CLAMP)

    def test_epsilon_zero_draws_nothing(self):
        # perturbed_lams reads only the trial count of its normals at epsilon = 0
        lam = ke.perturbed_lams((2, 3), 0.0, np.full((3, 6, 6), np.nan))
        assert lam.shape == (3, 2, 3, 2, 3)
        np.testing.assert_array_equal(lam[2], ke.ThetaFamily.ideal((2, 3)).lam)
        rng = substream(47, 0)
        ke.perturb_selection((2, 3), 0.0, rng)
        assert rng.random() == substream(47, 0).random()

    def test_per_trial_epsilon_equals_scalar_calls(self):
        eps = np.array([0.0, 0.3, 0.0, 0.1, 0.7, 0.0])
        normals = substream(49, 0).standard_normal((len(eps), 6, 6))
        normals[eps == 0] = np.nan  # never read
        lam = ke.perturbed_lams((2, 3), eps, normals)
        for n, e in enumerate(eps.tolist()):
            one = ke.perturbed_lams((2, 3), e, normals[n : n + 1])
            assert lam[n].tobytes() == one[0].tobytes()
            assert lam[n].strides == one[0].strides  # same layout, so same downstream bits

    def test_zero_generator_names_its_trial(self):
        normals = substream(50, 0).standard_normal((3, 4, 4))
        normals[1] = normals[1] + normals[1].T  # G = n - n^T = 0
        with pytest.raises(ValidationError, match=r"^trial 1: rotation generator is zero$"):
            ke.perturbed_lams((2, 2), 0.2, normals)
        with pytest.raises(ValidationError, match=r"^trial 8: rotation generator is zero$"):
            ke.perturbed_lams((2, 2), np.array([0.1, 0.2, 0.3]), normals, trials=[7, 8, 9])

    @pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(UsageError):
            ke.perturbed_lams((2, 2), eps, substream(48, 0).standard_normal((1, 4, 4)))
        with pytest.raises(UsageError):
            ke.perturb_selection((2, 2), eps, substream(48, 0))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                lambda p, lam: p.__setitem__((3, 1, 1), np.nan),
                "weights must form a nonnegative matrix",
            ),
            (
                lambda p, lam: lam.__setitem__((3, 1, 0, 0, 1), np.nan),
                "theta family is not orthonormal",
            ),
        ],
        ids=["nan-weight", "nan-lambda"],
    )
    def test_nan_input_is_blamed_for_itself(self, corrupt, message):
        # not on rho(t1) or rho(t2), which a NaN input would make non-finite
        p, lam = stack_inputs(45, 6, (2, 2), 0.2)
        lam = np.array(lam)
        corrupt(p, lam)
        with pytest.raises(ValidationError, match=rf"^trial 3: {message}$"):
            ke.select_stack(p, lam, *eye_bases((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_normals_name_their_trial(self, bad):
        # read only at an epsilon > 0 trial, and rejected before the eigh of the generator
        normals = substream(51, 0).standard_normal((3, 4, 4))
        normals[0, 0, 0] = normals[2, 1, 3] = bad
        with pytest.raises(ValidationError, match=r"^trial 9: normals are not finite$"):
            ke.perturbed_lams((2, 2), np.array([0.0, 0.1, 0.2]), normals, trials=[7, 8, 9])

    @pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4), (3, 4, 5), (4,)])
    def test_normals_must_be_a_stack_of_d_by_d(self, shape):
        with pytest.raises(ValidationError, match=r"form no trial stack$"):
            ke.perturbed_lams((2, 2), 0.2, np.ones(shape))

    def test_overflowing_rotation_names_its_trial(self):
        normals = substream(52, 0).standard_normal((2, 4, 4))
        message = r"^trial 1: rotation exp\(epsilon G\) is not finite$"
        with pytest.raises(ValidationError, match=message):
            ke.perturbed_lams((2, 2), np.array([0.5, 1e308]), normals)

    def test_rotation_that_is_not_real_names_its_trial(self):
        # at epsilon 1e12 the angles of the +-w pairs of iG differ by ~1e12 * ulp(||G||), so
        # the eigh product keeps an imaginary part far above TAU_ORTH; 1e6 is still real
        normals = substream(52, 0).standard_normal((3, 4, 4))
        with pytest.raises(ValidationError, match=r"^trial 6: rotation exp\(epsilon G\) is not real$"):
            ke.perturbed_lams((2, 2), np.array([0.5, 1e6, 1e12]), normals, trials=[4, 5, 6])
        ke.perturbed_lams((2, 2), np.array([0.5, 1e6]), normals[:2])

    @pytest.mark.parametrize("d1, d2", [(2, 2), (3, 3), (8, 8)])
    def test_rotation_matches_the_matrix_exponential(self, d1, d2):
        # the Pade reference and the eigh route each err by a few d * ulp, growing with the
        # rotation angle epsilon (G / ||G|| has unit norm): 1e-13 * (1 + epsilon) covers d = 64
        import scipy.linalg

        d = d1 * d2
        normals = substream(53, d).standard_normal((3, d, d))
        g = normals - normals.transpose(0, 2, 1)
        g /= np.linalg.norm(g, 2, axis=(1, 2))[:, None, None]
        for eps in (1e-3, 0.3, 5.0):
            want = scipy.linalg.expm(eps * g).transpose(0, 2, 1).reshape(-1, d1, d2, d1, d2)
            got = ke.perturbed_lams((d1, d2), eps, normals)
            assert np.abs(got - want).max() <= 1e-13 * (1 + eps), f"epsilon {eps}"

    @pytest.mark.parametrize("dims", [(2, 3), (8, 8)])
    def test_rho_t2_matches_the_dyad_loop(self, dims):
        # the matmul sums the na*nb dyads in another order than sum_ab p_ab |k><k|; each
        # entry is at most na*nb rounded terms of size <= 1, so na*nb * eps bounds the gap
        p, lam = stack_inputs(58, 4, dims, 0.3)
        kets = ke._theta_kets(lam, *eye_bases(dims))
        want = np.zeros(kets.shape[:1] + kets.shape[1:2] * 2, dtype=complex)
        for m in range(kets.shape[-1]):
            k = kets[:, :, m]
            want += p.reshape(len(p), -1)[:, m, None, None] * (k[:, :, None] * k.conj()[:, None, :])
        got = ke.select_stack(p, lam, *eye_bases(dims)).rho_t2
        assert np.abs(got - want).max() <= kets.shape[-1] * np.finfo(float).eps

    @pytest.mark.parametrize("dims", [(2, 2), (2, 16), (8, 8)])
    @pytest.mark.parametrize("uniform", [False, True])
    def test_epsilon_zero_changes_no_entropy(self, dims, uniform):
        # the t1 sums run in the order partial_trace_matrix sums the diagonal rho(t2)
        p, lam = stack_inputs(55, 40, dims, 0.0, uniform)
        sel = ke.select_stack(p, lam, *eye_bases(dims))
        assert sel.ds1.tolist() == sel.ds2.tolist() == [0.0] * len(p)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 5), (4, 4), (8, 8)])
    def test_t1_spectra_are_the_weight_sums(self, dims):
        # in random orthonormal bases, the marginals of the realized rho(t1) have p's row and
        # column sums as their spectra; eigvalsh and the basis products round them by a few
        # d * ulp, within 1e-13.  That moves each entropy term by 1e-13 * (|log2 x| + 1.5),
        # so the entropies by under 1e-12 while every sum x exceeds 1e-3, as these do
        d1, d2 = dims
        for seed in range(3):
            rng = substream(56, 10 * seed + d1 * d2)
            bases = [oc.haar_unitaries(oc.ginibre((1, d, d), rng))[0] for d in dims]
            p, lam = stack_inputs(57 + seed, 5, dims, 0.0)
            sel = ke.select_stack(p, lam, *bases)
            for t in range(len(p)):
                rho = ke.KnowledgeState(p[t], *bases, oc.SubsystemLayout(dims)).realized_density()
                for k, sums in enumerate((p[t].sum(axis=1), p[t].sum(axis=0))):
                    evals = np.linalg.eigvalsh(oc.partial_trace_matrix(rho.mat, dims, (k,)))
                    assert np.abs(evals - np.sort(sums)).max() <= 1e-13
                    assert abs(sel.entropies[k, t] - filtered_entropy(np.diag(evals))) <= 1e-12


class TestBuildKnowledgeState:
    @pytest.mark.parametrize("weights", [[0.5, 0.5], 1.0, [[[1.0]]]])
    def test_weights_that_are_not_a_matrix_rejected(self, weights):
        with pytest.raises(ValidationError, match=r"^weights must form a nonnegative matrix$"):
            ke.build_knowledge_state(np.array(weights), (2, 2))

    def test_weights_beyond_dims_rejected(self):
        with pytest.raises(ValidationError, match=r"^basis shapes do not match weights and layout$"):
            ke.build_knowledge_state(np.full((1, 3), 1 / 3), (2, 2))

    def test_capacity_checked_before_bases_are_built(self):
        # a (2**40, 2**40) identity basis built first would fail as numpy's ValueError
        with pytest.raises(CapacityError):
            ke.build_knowledge_state(np.ones((1, 1)), (2, 2**40))


# The inline checks that KnowledgeState, ThetaFamily, XiRotation and select_stack
# each ran before they shared one function per concept: the oracle of the agreement
# tests below.  Each returns the first failing message, or None.


def old_weights_message(p):
    if p.ndim != 2 or not np.all(p >= -1e-12):
        return "weights must form a nonnegative matrix"
    p = np.clip(p, 0.0, None)
    if not abs(p.sum() - 1.0) <= 1e-10:
        return f"weights sum to {p.sum()}, expected 1"
    return None


def old_basis_message(b):
    if not oc.max_abs(oc.dagger(b) @ b - np.eye(b.shape[1])) <= oc.TAU_ORTH:
        return "knowledge basis is not orthonormal"
    return None


def old_theta_message(lam):
    if np.iscomplexobj(lam) and not oc.max_abs(lam.imag) <= 1e-12:
        return "lambda must be real"
    lam = np.asarray(lam.real if np.iscomplexobj(lam) else lam, dtype=float)
    na, nb, d1, d2 = lam.shape
    flat = lam.reshape(na * nb, d1 * d2)
    if not oc.max_abs(flat @ flat.T - np.eye(na * nb)) <= oc.TAU_ORTH:
        return "theta family is not orthonormal"
    return None


def old_xi_message(xi):
    if not oc.max_abs(xi @ xi.T - np.eye(xi.shape[0])) <= oc.TAU_ORTH:
        return "xi rows are not orthonormal"
    return None


def old_select_stack_message(p, lam, b1, b2):
    """select_stack's checks before any state: bases, then weights and lambda per trial."""
    for b in (b1, b2):
        if (message := old_basis_message(b)) is not None:
            return message
    n = len(p)
    if (i := oc.first_trial((p < -1e-12).any(axis=(1, 2)))) is not None:
        return f"trial {i}: weights must form a nonnegative matrix"
    total = np.clip(p, 0.0, None).sum(axis=(1, 2))
    if (i := oc.first_trial(np.abs(total - 1.0) > 1e-10)) is not None:
        return f"trial {i}: weights sum to {total[i]}, expected 1"
    if np.iscomplexobj(lam):
        if (i := oc.first_trial(np.abs(lam.imag).max(axis=(1, 2, 3, 4)) > 1e-12)) is not None:
            return f"trial {i}: lambda must be real"
    flat = np.asarray(lam.real, dtype=float).reshape(n, 4, 4)
    orth = np.abs(flat @ flat.transpose(0, 2, 1) - np.eye(4)).max(axis=(1, 2))
    if (i := oc.first_trial(orth > oc.TAU_ORTH)) is not None:
        return f"trial {i}: theta family is not orthonormal"
    return None


def new_message(make):
    try:
        make()
    except ValidationError as exc:
        return str(exc)
    return None


DELTAS = [-1e-13, -1e-15, 0.0, 1e-15, 1e-13]


def near_miss_inputs():
    """(name, weights (2, 2), lambda (2, 2, 2, 2), basis (2, 2), xi (2, 2)) at each near miss.

    Entry (0, 1) of a Gram matrix of an identity with e in one off-diagonal
    slot is e, so e = TAU_ORTH + delta puts the Gram error at the bound + delta.
    """
    ideal = np.eye(4).reshape(2, 2, 2, 2)
    for delta in DELTAS:
        for edge, where in [(-1e-12, "weight"), (1e-10, "sum"), (-1e-10, "sum"), (1e-12, "imag")]:
            p = np.full((2, 2), 0.25)
            lam = ideal.astype(complex)
            if where == "weight":
                p[0, 0], p[1, 1] = edge + delta, 0.5 - (edge + delta)
            elif where == "sum":
                p[0, 0] += edge + delta
            else:
                lam[1, 0, 0, 1] += 1j * (edge + delta)
            yield f"{where}{edge:+g}{delta:+g}", p, lam, np.eye(2, dtype=complex), np.eye(2)
        e = oc.TAU_ORTH + delta
        lam, basis, xi = ideal.copy(), np.eye(2, dtype=complex), np.eye(2)
        lam[0, 0, 0, 1], basis[0, 1], xi[1, 0] = e, e, e
        yield f"gram{delta:+g}", np.full((2, 2), 0.25), lam, basis, xi


NEAR_MISSES = list(near_miss_inputs())


class TestOneCheckPerConcept:
    """Same accept/reject and message as the inline checks, at every near miss."""

    @pytest.mark.parametrize("name, p, lam, basis, xi", NEAR_MISSES, ids=[c[0] for c in NEAR_MISSES])
    def test_one_object_checks_agree(self, name, p, lam, basis, xi):
        layout = oc.SubsystemLayout((2, 2))
        old = old_weights_message(p) or old_basis_message(basis)
        assert new_message(lambda: ke.KnowledgeState(p, basis, np.eye(2), layout)) == old
        assert new_message(lambda: ke.ThetaFamily(lam)) == old_theta_message(lam)
        assert new_message(lambda: ke.XiRotation(xi)) == old_xi_message(xi)

    @pytest.mark.parametrize("name, p, lam, basis, xi", NEAR_MISSES, ids=[c[0] for c in NEAR_MISSES])
    def test_select_stack_agrees(self, name, p, lam, basis, xi):
        # the near miss sits in trial 2 of 4; the other trials are ideal
        ps = np.repeat(np.full((1, 2, 2), 0.25), 4, axis=0)
        lams = np.repeat(np.eye(4).reshape(1, 2, 2, 2, 2), 4, axis=0).astype(lam.dtype)
        ps[2], lams[2] = p, lam
        old = old_select_stack_message(ps, lams, basis, np.eye(2))
        new = new_message(lambda: ke.select_stack(ps, lams, basis, np.eye(2)))
        if old is not None:
            assert new == old
        else:  # only DensityMatrix's checks of the states, unchanged, may still reject
            assert new is None or new.startswith("trial 2: rho")
