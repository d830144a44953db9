"""Betting weights, branch updates, and the finite-frequency experiment."""

import csv
import io

import numpy as np
import pytest

from qsim import decision_payoff as dp
from qsim import heisenberg_flow as hf
from qsim import operator_core as oc
from qsim.errors import ImpossibleOutcomeError, ValidationError
from qsim.rng import substream
from qsim.scenarios import ScenarioConfig, run_scenario

ZERO = np.array([1, 0], dtype=complex)
ONE = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def plus_minus_payoff():
    ps = oc.ProjectorSet.from_basis(np.column_stack([PLUS, MINUS]), labels=("+", "-"))
    return dp.PayoffObservable((1.0, 0.0), ps)


class TestExpectedPayoff:
    def test_worked_qubit_example(self):
        v = dp.RelativeState.from_ket(ZERO)
        a = plus_minus_payoff()
        assert abs(dp.expected_payoff(v, a) - 0.5) <= 1e-12
        # intermediate product is |0>(<0|+<1|)/2
        expect = np.array([[0.5, 0.5], [0.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(dp.payoff_product(v, a), expect, atol=1e-12)

    def test_unit_observable(self):
        rng = substream(31, 0)
        a = dp.PayoffObservable((1.0,), oc.ProjectorSet((np.eye(3, dtype=complex),)))
        for k in range(5):
            v = dp.RelativeState.from_ket(oc.random_pure_ket(3, substream(31, k)))
            assert abs(dp.expected_payoff(v, a) - 1.0) <= 1e-12

    def test_matches_spectral_sum_oracle(self):
        rng = substream(31, 1)
        v = dp.RelativeState.from_ket(oc.random_pure_ket(4, rng))
        ps = oc.random_projector_set(4, [1, 2, 1], rng)
        payoffs = tuple(rng.standard_normal(3))
        a = dp.PayoffObservable(payoffs, ps)
        oracle = sum(
            pay * np.trace(v.as_density() @ p).real
            for pay, p in zip(payoffs, ps.projectors)
        )
        assert abs(dp.expected_payoff(v, a) - oracle) <= 1e-12

    def test_bounded_by_payoff_range(self):
        rng = substream(31, 2)
        ps = oc.random_projector_set(3, [1, 1, 1], rng)
        a = dp.PayoffObservable((-2.0, 0.5, 3.0), ps)
        for k in range(10):
            v = dp.RelativeState.from_ket(oc.random_pure_ket(3, substream(31, 50 + k)))
            got = dp.expected_payoff(v, a)
            assert -2.0 - 1e-12 <= got <= 3.0 + 1e-12


class TestObservable:
    def test_payoff_observable_is_observable_spec(self):
        assert dp.PayoffObservable is hf.ObservableSpec

    @pytest.mark.parametrize("cls", [hf.ObservableSpec, dp.PayoffObservable])
    @pytest.mark.parametrize(
        "coeffs",
        [(1.0,), (1.0, 0.0, 2.0), (np.nan, 0.0), (1.0, np.inf), (-np.inf, 1.0)],
        ids=["too-few", "too-many", "nan", "inf", "minus-inf"],
    )
    def test_bad_coefficients_rejected(self, cls, coeffs):
        with pytest.raises(ValidationError):
            cls(coeffs, oc.computational_projectors(2))


class TestRelativeStateUpdate:
    def test_eigenstate_unchanged(self):
        ci = hf.cnot_interaction()
        v = dp.RelativeState.from_ket(np.kron(ZERO, ZERO))
        st, w = dp.relative_state_update(v, ci, 0)
        assert abs(w - 1.0) <= 1e-10
        np.testing.assert_allclose(st.as_density(), v.as_density(), atol=1e-10)

    def test_plus_source_outcome_zero(self):
        ci = hf.cnot_interaction()
        v = dp.RelativeState.from_ket(np.kron(PLUS, ZERO))
        st, w = dp.relative_state_update(v, ci, 0)
        assert abs(w - 0.5) <= 1e-10
        ket00 = np.kron(ZERO, ZERO)
        np.testing.assert_allclose(
            st.as_density(), np.outer(ket00, ket00.conj()), atol=1e-10
        )
        assert st.label[-1][1] == 0

    def test_zero_weight_outcome_raises(self):
        ci = hf.cnot_interaction()
        v = dp.RelativeState.from_ket(np.kron(ZERO, ZERO))
        with pytest.raises(ImpossibleOutcomeError):
            dp.relative_state_update(v, ci, 1)

    def test_weight_matches_payoff_of_projector(self):
        ci = hf.cnot_interaction()
        v = dp.RelativeState.from_ket(oc.random_pure_ket(4, substream(31, 3)))
        u = ci.unitary.mat
        evolved = u @ v.as_density() @ u.conj().T
        for k, label in enumerate(ci.proj1.labels):
            q = np.kron(ci.proj1.projectors[k], np.eye(2, dtype=complex))
            expect = float(np.trace(evolved @ q).real)
            try:
                _, w = dp.relative_state_update(v, ci, label)
            except ImpossibleOutcomeError:
                w = 0.0
            assert abs(w - expect) <= 1e-10


class TestFrequencyExperiment:
    def test_eigenstate_deterministic(self):
        v = dp.RelativeState.from_ket(PLUS)
        a = plus_minus_payoff()
        rep = dp.frequency_experiment(v, a, 200, seed=3)
        by_label = {r.outcome_label: r for r in rep.rows}
        assert by_label["+"].frequency == 1.0
        assert by_label["-"].count == 0

    def test_default_seed_close_to_half(self):
        v = dp.RelativeState.from_ket(ZERO)
        rep = dp.frequency_experiment(v, plus_minus_payoff(), 10_000, seed=1)
        by_label = {r.outcome_label: r for r in rep.rows}
        # frozen from the first run of the shipped seed: frequency 0.5140
        assert by_label["+"].count == 5140
        assert abs(by_label["+"].frequency - 0.5) <= 0.05

    def test_single_trial_extreme(self):
        v = dp.RelativeState.from_ket(ZERO)
        rep = dp.frequency_experiment(v, plus_minus_payoff(), 1, seed=2)
        assert sorted(r.frequency for r in rep.rows) == [0.0, 1.0]

    def test_deviation_shrinks_with_n(self):
        v = dp.RelativeState.from_ket(ZERO)
        a = plus_minus_payoff()
        seeds = range(1, 6)
        small = [dp.frequency_experiment(v, a, 100, seed=s).max_deviation for s in seeds]
        big = [dp.frequency_experiment(v, a, 10_000, seed=s).max_deviation for s in seeds]
        # single seeds can get lucky at small n, the average cannot
        assert np.mean(big) < np.mean(small)

    @staticmethod
    def reference_outcomes(weights, n, seed):
        """The per-trial loop: one substream and one searchsorted per trial."""
        cum = np.cumsum(weights)
        draws = [substream(seed, i).random() for i in range(n)]
        return [min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1) for u in draws]

    @classmethod
    def reference_counts(cls, weights, n, seed):
        return np.bincount(cls.reference_outcomes(weights, n, seed), minlength=len(weights)).tolist()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_counts_match_per_trial_loop(self, dim):
        rng = substream(47, dim)
        ket = oc.random_pure_ket(dim, rng)
        ket[rng.integers(dim)] = 0.0  # one outcome of weight 0
        v = dp.RelativeState.from_ket(ket)
        a = dp.PayoffObservable(tuple(range(dim)), oc.computational_projectors(dim))
        rep = dp.frequency_experiment(v, a, 3000, seed=dim)
        weights = dp.outcome_weights(v, a.projectors)
        assert 0.0 in [r.weight for r in rep.rows]
        assert [r.count for r in rep.rows] == self.reference_counts(weights, 3000, dim)

    def test_counts_across_block_edges(self):
        v = dp.RelativeState.from_ket(ZERO)
        a = plus_minus_payoff()
        weights = dp.outcome_weights(v, a.projectors)
        block = dp.FREQUENCY_BLOCK
        outcomes = self.reference_outcomes(weights, 2 * block + 1, 9)
        for n in (1, block - 1, block, block + 1, 2 * block + 1):
            rep = dp.frequency_experiment(v, a, n, seed=9)
            assert [r.count for r in rep.rows] == np.bincount(outcomes[:n], minlength=2).tolist()

    def test_report_does_not_depend_on_block_size(self, monkeypatch):
        # 2101 trials: a ragged last block at 7, two blocks at 2048, one at the default
        v = dp.RelativeState.from_ket(oc.random_pure_ket(3, substream(47, 9)))
        a = dp.PayoffObservable((0.0, 1.0, 2.0), oc.computational_projectors(3))
        want = dp.frequency_experiment(v, a, 2101, seed=12)
        for block in (1, 7, 2048, 8192):
            monkeypatch.setattr(dp, "FREQUENCY_BLOCK", block)
            assert dp.frequency_experiment(v, a, 2101, seed=12) == want

    def test_payoff_demo_opens_no_substream(self, monkeypatch):
        # every substream is a Philox bit generator; the batched draw builds none
        built = []
        monkeypatch.setattr(np.random, "Philox", lambda *args, **kw: built.append(args))
        report = run_scenario(ScenarioConfig("payoff-demo", seed=3, trials=3000))
        assert report.exit_code == 0 and built == []

    def test_draws_past_last_cumulative_weight_go_to_last_outcome(self, monkeypatch):
        # cum[-1] = 0.6 < 1: uniforms above it clamp to the last outcome
        weights = np.array([0.2, 0.0, 0.4])
        monkeypatch.setattr(dp, "outcome_weights", lambda v, ps: weights)
        v = dp.RelativeState.from_ket(np.array([1, 0, 0], dtype=complex))
        a = dp.PayoffObservable((0.0, 1.0, 2.0), oc.computational_projectors(3))
        rep = dp.frequency_experiment(v, a, 2500, seed=4)
        counts = [r.count for r in rep.rows]
        assert counts == self.reference_counts(weights, 2500, 4)
        assert counts[1] == 0 and counts[2] > 0.7 * 2500

    def test_csv_matches_payoff_demo_csv(self):
        # the payoff-demo CSV is the frequency experiment's rows, field for field
        cfg = ScenarioConfig("payoff-demo", seed=6, trials=300, format="csv")
        v = dp.RelativeState.from_ket(ZERO)
        rep = dp.frequency_experiment(v, plus_minus_payoff(), 300, seed=6)
        rows = list(csv.reader(io.StringIO(run_scenario(cfg).to_csv())))[1:]
        parsed = [(label, float(w), int(c), float(f), float(d)) for label, w, c, f, d in rows]
        assert parsed == [
            (r.outcome_label, r.weight, r.count, r.frequency, r.abs_deviation) for r in rep.rows
        ]

    def test_csv_round_trip(self):
        v = dp.RelativeState.from_ket(ZERO)
        rep = dp.frequency_experiment(v, plus_minus_payoff(), 100, seed=5)
        text = run_scenario(ScenarioConfig("payoff-demo", seed=5, trials=100)).to_csv()
        lines = text.splitlines()
        assert lines[0] == "outcome_label,weight,count,frequency,abs_deviation"
        assert len(lines) == 3
        # 17-significant-digit reals survive the round trip losslessly
        for line, row in zip(lines[1:], rep.rows):
            assert float(line.split(",")[1]) == row.weight


class TestLinearity:
    def test_payoff_linear_in_observable(self):
        rng = substream(31, 4)
        v = dp.RelativeState.from_ket(oc.random_pure_ket(4, rng))
        ps_a = oc.random_projector_set(4, [2, 2], rng)
        ps_b = oc.random_projector_set(4, [1, 3], rng)
        a = dp.PayoffObservable((1.0, -1.0), ps_a)
        b = dp.PayoffObservable((0.5, 2.0), ps_b)
        al, be = 0.3, -1.7
        lhs = np.trace(v.as_density() @ (al * a.matrix() + be * b.matrix())).real
        rhs = al * dp.expected_payoff(v, a) + be * dp.expected_payoff(v, b)
        assert abs(lhs - rhs) <= 1e-10


class TestRankDeficientStates:
    def test_rank2_projector_renormalized(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        v = dp.RelativeState(p)
        assert abs(np.trace(v.as_density()).real - 1.0) <= 1e-12
        a = dp.PayoffObservable(
            (1.0, 2.0, 3.0), oc.computational_projectors(3)
        )
        assert abs(dp.expected_payoff(v, a) - 1.5) <= 1e-12
