"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with -s to see the per-criterion lines; each criterion is a single
test so the suite reports them independently.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from qsim import decision_payoff as dp
from qsim import heisenberg_flow as hf
from qsim import knowledge_entropy as ke
from qsim import operator_core as oc
from qsim.rng import substream
from qsim.scenarios import ScenarioConfig, run_scenario

GOLDEN = Path(__file__).parent / "golden"

ZERO = np.array([1, 0], dtype=complex)
ONE = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def report(number, description):
    """Print one acceptance line; FAIL is printed before the assert fires."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:2d} [{status}] {description}")
            return False

    return _Ctx()


def random_copy_interaction(rng):
    d1 = int(rng.integers(2, 5))
    d2 = int(rng.integers(2, 5))
    p1 = oc.random_projector_set(d1, oc.random_block_sizes(d1, rng), rng)
    p2 = oc.random_projector_set(d2, oc.random_block_sizes(d2, rng), rng)
    phases = rng.uniform(0, 2 * np.pi, size=(len(p1), len(p2)))
    return hf.build_copy_unitary(phases, p1, p2)


@pytest.fixture(scope="module")
def copy_instances():
    """The 100 shared instances for criteria 2 and 3."""
    return [random_copy_interaction(substream(100, t)) for t in range(100)]


def test_criterion_1_worked_example():
    with report(1, "worked payoff example: 0.5 and intermediate product"):
        start = time.perf_counter()
        v = dp.RelativeState.from_ket(ZERO)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        ps = oc.ProjectorSet.from_basis(
            np.column_stack([PLUS, minus]), labels=("+", "-")
        )
        a = dp.PayoffObservable((1.0, 0.0), ps)
        assert abs(dp.expected_payoff(v, a) - 0.5) <= 1e-12
        expect = np.array([[0.5, 0.5], [0.0, 0.0]], dtype=complex)
        assert oc.max_abs(dp.payoff_product(v, a) - expect) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_copy_invariance(copy_instances):
    with report(2, "A1 x I invariant under 100 random copy interactions"):
        start = time.perf_counter()
        for t, ci in enumerate(copy_instances):
            rng = substream(200, t)
            coeffs = rng.standard_normal(len(ci.proj1))
            obs = hf.ObservableSpec(tuple(coeffs), ci.proj1)
            res = hf.check_invariance(obs, ci)
            assert res.invariant and res.residual <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_3_dyadic_transformation(copy_instances):
    with report(3, "corrected dyadic formula matches brute-force conjugation"):
        for ci in copy_instances:
            rep = hf.analyze_copy(ci)
            assert rep.max_residual <= 1e-9


def test_criterion_4_spectral_round_trip():
    with report(4, "200 random unitaries: spectral round trip within 1e-9"):
        for t in range(200):
            rng = substream(300, t)
            dim = int(rng.integers(2, 9))
            u = oc.random_unitary(dim, rng)
            sd = oc.spectral_decompose_unitary(u)
            assert oc.max_abs(sd.reconstruct() - u.mat) <= 1e-9
            ps = sd.projectors
            total = sum(ps.projectors)
            assert oc.max_abs(total - np.eye(dim)) <= 1e-9
            for i, pi in enumerate(ps.projectors):
                assert oc.max_abs(pi @ pi - pi) <= 1e-9
                assert oc.max_abs(pi - pi.conj().T) <= 1e-9
                for pj in ps.projectors[i + 1:]:
                    assert oc.max_abs(pi @ pj) <= 1e-9


def test_criterion_5_decoherence_inequality():
    with report(5, "1000 dephasings never lower entropy; eigenbasis is equality"):
        start = time.perf_counter()
        for t in range(1000):
            rng = substream(400, t)
            dim = int(rng.integers(2, 9))
            rho = oc.random_density(dim, int(rng.integers(1, dim + 1)), rng)
            ps = oc.random_projector_set(dim, oc.random_block_sizes(dim, rng), rng)
            _, _, margin = ke.entropy_after_decoherence_geq(rho, ps)
            assert margin >= -1e-9
            if t % 10 == 0:
                _, evecs = oc.hermitian_eigendecomposition(rho.mat)
                eig_ps = oc.ProjectorSet.from_basis(evecs)
                _, _, eq_margin = ke.entropy_after_decoherence_geq(rho, eig_ps)
                assert abs(eq_margin) <= 1e-10
        assert time.perf_counter() - start < 60.0


def test_criterion_6_copying_is_digital():
    with report(6, "CNOT copies computational family, SWAP copies nothing, |+> clone fidelity 0.5"):
        cnot = hf.cnot_interaction()
        fams = hf.copiable_projector_families(cnot.unitary)
        assert len(fams.families) == 1 and not fams.only_trivial
        fam = fams.families[0]
        comp = oc.computational_projectors(2)
        matched = {
            i: j
            for i in range(2)
            for j in range(2)
            if oc.max_abs(fam.projectors[i] - comp.projectors[j]) <= 1e-9
        }
        assert sorted(matched.values()) == [0, 1]

        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        fams_swap = hf.copiable_projector_families(
            oc.UnitaryOperator(oc.SubsystemLayout((2, 2)), swap)
        )
        assert fams_swap.only_trivial
        assert len(fams_swap.families[0]) == 1

        fids = hf.no_cloning_demo([ZERO, ONE, PLUS], cnot, blank=ZERO)
        assert abs(fids[0] - 1.0) <= 1e-10
        assert abs(fids[1] - 1.0) <= 1e-10
        assert abs(fids[2] - 0.5) <= 1e-10


def test_criterion_7_branch_decomposition():
    with report(7, "two weight-1/2 branches with zero cross-branch interference"):
        ci = hf.cnot_interaction()
        rho0 = oc.DensityMatrix.pure(np.kron(PLUS, ZERO), ci.layout)
        bd = hf.branch_decomposition(rho0, ci)
        assert len(bd.branches) == 2
        for b in bd.branches:
            assert abs(b.weight - 0.5) <= 1e-12
        assert bd.cross_branch_norm_s1 <= 1e-12
        assert bd.cross_branch_norm_s2 <= 1e-12


def test_criterion_8_second_law_scenario():
    with report(8, "eps=0 noop, relabeling counterexample dS1=-1, golden sweep regenerates"):
        rng = substream(500, 0)
        p = rng.random((2, 2))
        p /= p.sum()
        ks = ke.build_knowledge_state(p, (2, 2))
        rep0 = ke.apply_selection_process(ks, ke.perturb_selection((2, 2), 0.0, rng))
        assert abs(rep0.ds1) <= 1e-9 and abs(rep0.ds2) <= 1e-9

        ks_c, theta_c = ke.relabeling_counterexample()
        rep_c = ke.apply_selection_process(ks_c, theta_c)
        assert rep_c.ds1 == -1.0

        cfg = ScenarioConfig(
            "second-law",
            seed=1,
            trials=50,
            epsilon_sweep=(0.0, 0.05, 0.1, 0.2),
            format="csv",
        )
        regenerated = run_scenario(cfg).to_csv()
        golden = (GOLDEN / "second_law_sweep_seed1.csv").read_text()
        assert regenerated == golden


def test_criterion_9_formula_vs_partial_trace():
    with report(9, "200 selection processes: index formula matches partial trace"):
        for t in range(200):
            rng = substream(600, t)
            d1 = int(rng.integers(2, 4))
            d2 = int(rng.integers(2, 4))
            p = rng.random((d1, d2))
            p /= p.sum()
            ks = ke.build_knowledge_state(p, (d1, d2))
            theta = ke.perturb_selection((d1, d2), float(rng.uniform(0, 1)), rng)
            rep = ke.apply_selection_process(ks, theta)
            assert rep.formula_residual <= 1e-10


def test_criterion_10_determinism():
    with report(10, "identical configs give byte-identical result payloads"):
        for scenario, kwargs in (
            ("copy-demo", {}),
            ("payoff-demo", {"trials": 500}),
            ("second-law", {"trials": 20, "epsilon_sweep": (0.0, 0.1)}),
        ):
            cfg = ScenarioConfig(scenario, seed=3, **kwargs)
            a = run_scenario(cfg).results_payload()
            b = run_scenario(cfg).results_payload()
            assert a == b
