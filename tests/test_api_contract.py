"""Python-API contract for bad inputs, in the spirit of test_cli_contract.py.

NaN, inf, zero, overflowing and wrong-length inputs to the selection layer and to every
entry point that normalises a ket, and operands of mismatched dims, must raise a QsimError
whose message names the bad input: never numpy's LinAlgError or ValueError, and never a
warning.
"""

import numpy as np
import pytest

from qsim import decision_payoff as dp
from qsim import heisenberg_flow as hf
from qsim import knowledge_entropy as ke
from qsim import operator_core as oc
from qsim.errors import QsimError
from qsim.rng import substream

N, DIMS = 3, (2, 2)
IDEAL = ke.perturbed_lams(DIMS, 0.0, np.empty((N, 4, 4)))
EYE = np.eye(2, dtype=complex)
KETS = {
    "nan": [np.nan, 1.0],
    "inf": [1.0, np.inf],
    "zero": [0.0, 0.0],
    "huge": [1e200, 1e200],  # finite, but its norm overflows
    "tiny": [1e-160, 0.0],  # nonzero, but its squared norm is subnormal
    "length": [1.0, 0.0, 0.0],
}


def spoil(x, value, at):
    x = np.array(x)
    x[at] = value
    return x


def select(p=None, lam=None, basis1=EYE):
    return lambda: ke.select_stack(
        np.full((N, 2, 2), 0.25) if p is None else p, IDEAL if lam is None else lam, basis1, EYE
    )


def normals_case(normals, epsilon=0.3):
    return lambda: ke.perturbed_lams(DIMS, epsilon, normals)


def ket_cases(name, call, pattern, kets=KETS):
    return [(f"{name}-{kind}", lambda k=ket: call(k), pattern(kind)) for kind, ket in kets.items()]


def copy_phases(phases):
    return lambda: hf.build_copy_unitary(phases, oc.computational_projectors(2), oc.computational_projectors(2))


V3 = dp.RelativeState.from_ket([1.0, 0.0, 0.0])
OBS2 = dp.PayoffObservable((1.0, 0.0), oc.computational_projectors(2))
OBS3 = hf.ObservableSpec((1.0, 0.0, 0.0), oc.computational_projectors(3))
WEIGHTS = np.full((N, 2, 2), 0.25)
NORMALS = np.ones((N, 4, 4)) + np.arange(16).reshape(4, 4)  # n - n^T != 0
NORMALS72 = np.arange(72.0 * 72).reshape(1, 72, 72)
CASES = [
    ("select-weights-nan", select(p=spoil(WEIGHTS, np.nan, (1, 0, 1))),
     r"^trial 1: weights must form a nonnegative matrix$"),
    ("select-weights-inf", select(p=spoil(WEIGHTS, np.inf, (1, 0, 1))),
     r"^trial 1: weights sum to inf, expected 1$"),
    ("select-weights-zero", select(p=np.zeros((N, 2, 2))), r"^trial 0: weights sum to 0\.0, "),
    ("select-lambda-nan", select(lam=spoil(IDEAL, np.nan, (2, 0, 0, 0, 0))),
     r"^trial 2: theta family is not orthonormal$"),
    ("select-lambda-inf", select(lam=spoil(IDEAL, np.inf, (2, 0, 0, 0, 0))),
     r"^trial 2: theta family is not orthonormal$"),
    ("select-lambda-zero", select(lam=np.zeros_like(IDEAL)), r"^trial 0: theta family is not"),
    ("select-basis-nan", select(basis1=spoil(EYE, np.nan, (0, 0))),
     r"^knowledge basis is not orthonormal$"),
    ("select-basis-inf", select(basis1=spoil(EYE, np.inf, (0, 0))),
     r"^knowledge basis is not orthonormal$"),
    ("select-lambda-length", select(lam=IDEAL[:2]), r"weights \(3, 2, 2\) and lambda \(2, "),
    ("select-basis-length", select(basis1=np.eye(3)), r"^bases \(3, 3\), \(2, 2\) do not match"),
    ("perturb-normals-nan", normals_case(spoil(NORMALS, np.nan, (1, 0, 3))),
     r"^trial 1: normals are not finite$"),
    ("perturb-normals-inf", normals_case(spoil(NORMALS, np.inf, (1, 2, 2))),
     r"^trial 1: normals are not finite$"),
    ("perturb-normals-huge", normals_case(spoil(spoil(NORMALS, 1e308, (1, 0, 3)), -1e308, (1, 3, 0))),
     r"^trial 1: normals overflow the rotation generator$"),  # n - n^T overflows
    ("perturb-normals-huge-norm", normals_case(spoil(NORMALS, np.triu(np.full((4, 4), 1e308), 1), 1)),
     r"^trial 1: normals overflow the rotation generator$"),  # G is finite, its norm is not
    ("perturb-normals-zero", normals_case(np.zeros((N, 4, 4))),
     r"^trial 0: rotation generator is zero$"),
    ("perturb-normals-length", normals_case(np.ones((N, 3, 3))), r"^normals \(3, 3, 3\) and "),
    ("perturb-epsilon-length", normals_case(NORMALS, np.array([0.1, 0.2])),
     r"and epsilon \(2,\) form no trial stack$"),
    ("knowledge-nan", lambda: ke.build_knowledge_state([[0.5, np.nan]], DIMS),
     r"^weights must form a nonnegative matrix$"),
    ("knowledge-inf", lambda: ke.build_knowledge_state([[0.5, np.inf]], DIMS),
     r"^weights sum to inf, expected 1$"),
    ("knowledge-zero", lambda: ke.build_knowledge_state(np.zeros(DIMS), DIMS),
     r"^weights sum to 0\.0, expected 1$"),
    ("knowledge-length", lambda: ke.build_knowledge_state([0.5, 0.5], DIMS),
     r"^weights must form a nonnegative matrix$"),
    ("knowledge-rows", lambda: ke.build_knowledge_state(np.full((3, 1), 1 / 3), DIMS),
     r"^basis shapes do not match weights and layout$"),
    ("basis-huge", lambda: oc.ProjectorSet.from_basis(spoil(EYE, 1e200, (0, 1))),
     r"^range basis \(2, 2\) overflows its projectors$"),  # finite, but Q Q^H overflows
    ("copy-phases-nan", copy_phases(spoil(np.zeros((2, 2)), np.nan, (0, 1))),
     r"^phase matrix contains non-finite entries$"),
    ("copy-phases-inf", copy_phases(spoil(np.zeros((2, 2)), np.inf, (1, 1))),
     r"^phase matrix contains non-finite entries$"),
    ("copy-phases-inf-gauge", copy_phases(spoil(np.zeros((2, 2)), np.inf, (0, 0))),
     r"^phase matrix contains non-finite entries$"),  # the gauge shift gives inf - inf
    ("frequency-dim", lambda: dp.frequency_experiment(V3, OBS2, 10, 1),
     r"^state dim 3 != projector family dim 2$"),
    ("outcome-weights-dim", lambda: dp.outcome_weights(V3, OBS2.projectors),
     r"^state dim 3 != projector family dim 2$"),
    ("invariance-dim", lambda: hf.check_invariance(OBS3, hf.cnot_interaction()),
     r"^observable dim 3 != S1 dim 2$"),
    ("dyadic-dim",
     lambda: hf.conjugate_dyadic(EYE, oc.spectral_decompose_unitary(hf.cnot_interaction().unitary)),
     r"^dyadic dim 2 != decomposition dim 4$"),
    ("json-length", lambda: oc.matrix_from_json({"dim": 2, "re": [1.0], "im": [0.0]}),
     r"^re, im sizes 1, 1 != matrix dim 2 squared$"),
    ("json-dim", lambda: oc.matrix_from_json({"dim": "x", "re": [1.0], "im": [0.0]}),
     r"^matrix dim 'x' is not an integer$"),
    ("lams-dim-cap", lambda: ke.perturbed_lams((9, 8), 0.0, np.zeros((1, 72, 72))),
     r"^total dim 72 exceeds maximum 64$"),
    ("lams-dim-cap-rotated", lambda: ke.perturbed_lams((9, 8), 0.1, NORMALS72),
     r"^total dim 72 exceeds maximum 64$"),  # checked before its 72 x 72 eigh
    ("perturb-dim-cap", lambda: ke.perturb_selection((9, 8), 0.1, substream(1, 0)),
     r"^total dim 72 exceeds maximum 64$"),
    ("perturb-dim-zero", lambda: ke.perturb_selection((0, 2), 0.0, substream(1, 0)),
     r"^factor dims must be positive, got \(0, 2\)$"),
    ("layout-dim-fraction", lambda: oc.SubsystemLayout((2.5, 2)), r"^factor dim 2\.5 is not an integer$"),
    ("layout-dim-text", lambda: oc.SubsystemLayout(("a", 2)), r"^factor dim 'a' is not an integer$"),
    ("indices-fraction", lambda: oc.SubsystemLayout(DIMS).validate_indices([1.7]),
     r"^subsystem index 1\.7 is not an integer$"),
    ("indices-text", lambda: oc.SubsystemLayout(DIMS).validate_indices(["a"]),
     r"^subsystem index 'a' is not an integer$"),
    ("margins-trials", lambda: ke.decoherence_margins(1, -1), r"^trials must be >= 1, got -1$"),
    ("json-entry-text", lambda: oc.matrix_from_json({"dim": 1, "re": ["a"], "im": [0]}),
     r"^re, im entries are not all reals$"),
    ("json-no-im", lambda: oc.matrix_from_json({"dim": 1, "re": [1]}), r"^matrix JSON has no im$"),
    ("json-dim-fraction", lambda: oc.matrix_from_json({"dim": 2.7, "re": [1, 0, 0, 1], "im": [0] * 4}),
     r"^matrix dim 2\.7 is not an integer$"),
    ("json-dim-bool", lambda: oc.matrix_from_json({"dim": True, "re": [1.0], "im": [0.0]}),
     r"^matrix dim True is not an integer$"),
    ("json-nan", lambda: oc.matrix_from_json({"dim": 1, "re": [np.nan], "im": [0.0]}),
     r"^matrix contains non-finite entries$"),
    *ket_cases(
        "from-ket",
        dp.RelativeState.from_ket,
        lambda kind: r"^ket must be a finite nonzero vector$",
        {**KETS, "length": []},  # no dim to check against; an empty ket has norm 0
    ),
    *ket_cases(
        "pure",
        lambda k: oc.DensityMatrix.pure(k, oc.SubsystemLayout((2,))),
        lambda kind: r"^ket has length 3, expected 2$" if kind == "length" else r"^ket must be",
    ),
    *ket_cases(
        "no-cloning-source",
        lambda k: hf.no_cloning_demo([[1.0, 0.0], k], hf.cnot_interaction(), [1.0, 0.0]),
        lambda kind: r"^source state 1 has length 3" if kind == "length" else r"^source state 1 must",
    ),
    *ket_cases(
        "no-cloning-blank",
        lambda k: hf.no_cloning_demo([[1.0, 0.0]], hf.cnot_interaction(), k),
        lambda kind: r"^blank has length 3, expected 2$" if kind == "length" else r"^blank must be",
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, pattern", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_input_raises_a_named_qsim_error(call, pattern):
    with pytest.raises(QsimError, match=pattern):
        call()


def test_integral_numbers_pass_as_integers():
    # numpy integers and integral floats are integers; only the value counts
    assert oc.SubsystemLayout((np.int64(2), 3.0)).factor_dims == (2, 3)
    assert oc.SubsystemLayout((2, 2)).validate_indices([np.int32(1), 0.0]) == (0, 1)
    assert oc.matrix_from_json({"dim": np.int64(1), "re": [1.0], "im": [0.0]}).shape == (1, 1)
