"""The four benchmark workloads: the qsim argv each one runs, and its checks.

A workload turns the benchmark seed into a fixed list of `qsim` argv
("one round").  The same seed always gives the same argv, and the shape
of a round (scenario, sizes, trial counts) never depends on the seed, so
rounds from different seeds cost the same.

Each check takes the argv and the parsed JSON report of one invocation
and returns a list of problems (empty when the report is right).  The
checks test properties the method must have or recompute results
independently; none of them compares against saved output.
"""

from __future__ import annotations

import math
import random

import numpy as np

HOEFFDING_DELTA = 1e-9  # false-alarm rate of the payoff frequency check
TOL_PROJ = 1e-9  # projector identities, max-abs entry, as the program's TAU_PROJ
TOL_EXACT = 1e-12  # values that are exact up to rounding


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _qsim_seed(r: random.Random) -> str:
    return str(r.randrange(1, 2**31))


# ---------------------------------------------------------------------------
# second-law: many tiny (2x2) selection trials per epsilon


def second_law_argvs(seed: int, tiny: bool = False) -> list[list[str]]:
    r = random.Random(f"second-law:{seed}")
    trials = 3 if tiny else 100
    argvs = []
    for _ in range(2):
        eps = sorted(round(r.uniform(0.02, 0.3), 4) for _ in range(3))
        argvs.append(
            ["second-law", "--seed", _qsim_seed(r), "--dims", "2,2",
             "--trials", str(trials),
             "--epsilon-sweep", ",".join(["0"] + [repr(e) for e in eps])]
        )
    return argvs


def binary_entropy(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log2(t) - (1 - t) * math.log2(1 - t)


def fannes_audenaert(t: float, d: int) -> float:
    """Largest |S(rho) - S(sigma)| in bits for trace distance t in dimension d."""
    if t >= 1 - 1 / d:
        return math.log2(d)
    return t * math.log2(d - 1) + binary_entropy(t)


def check_second_law(argv: list[str], report: dict) -> list[str]:
    """Entropy changes within the continuity bound, exact at epsilon = 0.

    The perturbed selection carries rho(t1) to R rho(t1) R^T with
    R = exp(eps G) and ||G|| = 1, so ||R - I|| <= e^eps - 1 bounds the
    trace distance of the global states; the partial trace contracts it,
    and Fannes-Audenaert turns it into a bound on each |ds_k| (d = 2).
    """
    problems = []
    res = report["results"]
    sweep = [float(e) for e in _flag(argv, "--epsilon-sweep").split(",")]
    trials = int(_flag(argv, "--trials"))
    rows = res["sweep"]
    if [float(row["epsilon"]) for row in rows] != sweep:
        return [f"sweep epsilons {[row['epsilon'] for row in rows]} != {sweep}"]
    for row in rows:
        eps = float(row["epsilon"])
        if row["trials"] != trials:
            problems.append(f"eps={eps}: trials {row['trials']} != {trials}")
        bound = fannes_audenaert(math.expm1(eps), 2)
        for k in ("mean_ds1", "mean_ds2"):
            if abs(float(row[k])) > bound + TOL_PROJ:
                problems.append(f"eps={eps}: |{k}| = {row[k]} > Fannes bound {bound}")
        if eps == 0.0:
            zero_keys = ("mean_ds1", "mean_ds2", "violation_fraction_s1", "violation_fraction_s2")
            for k in zero_keys:
                if float(row[k]) != 0.0:
                    problems.append(f"eps=0: {k} = {row[k]}, expected 0")
    counter = res["relabeling_counterexample"]
    if abs(float(counter["ds1"]) + 1.0) > TOL_EXACT or abs(float(counter["ds2"])) > TOL_EXACT:
        problems.append(f"counterexample ds1, ds2 = {counter['ds1']}, {counter['ds2']}, expected -1, 0")
    return problems


# ---------------------------------------------------------------------------
# payoff: one substream per trial, almost no linear algebra


def payoff_argvs(seed: int, tiny: bool = False) -> list[list[str]]:
    r = random.Random(f"payoff:{seed}")
    trials = 50 if tiny else 15000
    return [["payoff-demo", "--seed", _qsim_seed(r), "--trials", str(trials)] for _ in range(2)]


def hoeffding_bound(n: int, delta: float = HOEFFDING_DELTA) -> float:
    """Deviation a frequency of n Bernoulli draws exceeds with probability < delta."""
    return math.sqrt(math.log(2 / delta) / (2 * n))


def check_payoff(argv: list[str], report: dict) -> list[str]:
    """Betting weight 1/2 on |0> for the |+>/|-> payoff, frequencies near it."""
    problems = []
    res = report["results"]
    n = int(_flag(argv, "--trials"))
    if abs(float(res["expected_payoff"]) - 0.5) > TOL_EXACT:
        problems.append(f"expected payoff {res['expected_payoff']} != 1/2")
    rows = res["frequencies"]
    if len(rows) != 2 or any(abs(float(row["weight"]) - 0.5) > TOL_EXACT for row in rows):
        problems.append(f"outcome weights {[row['weight'] for row in rows]} != [1/2, 1/2]")
    if sum(row["count"] for row in rows) != n:
        problems.append(f"counts {[row['count'] for row in rows]} do not sum to {n}")
    deviation = max(abs(row["count"] / n - float(row["weight"])) for row in rows)
    if abs(float(res["max_deviation"]) - deviation) > TOL_EXACT:
        problems.append(f"max_deviation {res['max_deviation']} != recomputed {deviation}")
    bound = hoeffding_bound(n)
    if float(res["max_deviation"]) > bound:
        problems.append(f"max_deviation {res['max_deviation']} > Hoeffding bound {bound}")
    return problems


# ---------------------------------------------------------------------------
# copy: copy analysis and SVD from 2x2 to 8x8, no trial loop

COPY_SIZES = ((2, 1), (3, 2), (4, 2), (5, 2), (6, 2), (7, 1), (8, 1))  # (d, seeds)
COPY_SIZES_TINY = ((2, 1), (3, 2))


def copy_argvs(seed: int, tiny: bool = False) -> list[list[str]]:
    r = random.Random(f"copy:{seed}")
    return [
        ["copy-demo", "--seed", _qsim_seed(r), "--dims", f"{d},{d}"]
        for d, n_seeds in (COPY_SIZES_TINY if tiny else COPY_SIZES)
        for _ in range(n_seeds)
    ]


def _decode(obj: dict) -> np.ndarray:
    dim = obj["dim"]
    return (np.array(obj["re"]) + 1j * np.array(obj["im"])).reshape(dim, dim)


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _phase_spread(phases) -> float:
    z = np.exp(1j * np.asarray(phases, dtype=float))
    return float(np.max(np.abs(z - z[0])))


def check_copy(argv: list[str], report: dict) -> list[str]:
    """The copiable family is a complete set of d1 rank-1 orthogonal projectors."""
    problems = []
    res = report["results"]
    d1, _ = (int(x) for x in _flag(argv, "--dims").split(","))
    families = res["copiable_families"]
    if len(families) != 1:
        return [f"{len(families)} copiable families, expected 1"]
    projs = [_decode(p) for p in families[0]["projectors"]]
    for k, p in enumerate(projs):
        if _max_abs(p - p.conj().T) > TOL_PROJ:
            problems.append(f"projector {k} is not Hermitian")
        if _max_abs(p @ p - p) > TOL_PROJ:
            problems.append(f"projector {k} is not idempotent")
        for j in range(k):
            if _max_abs(projs[j] @ p) > TOL_PROJ:
                problems.append(f"projectors {j} and {k} are not orthogonal")
    if _max_abs(sum(projs) - np.eye(d1)) > TOL_PROJ:
        problems.append("projectors do not sum to the identity")
    # generic phases on rank-1 labels distinguish every label
    traces = [float(np.trace(p).real) for p in projs]
    if len(projs) != d1 or any(abs(t - 1.0) > TOL_PROJ for t in traces):
        problems.append(f"atom traces {traces}, expected {d1} rank-1 atoms")
    if d1 == 2:
        basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        if not all(any(_max_abs(p - b) <= TOL_PROJ for p in projs) for b in basis):
            problems.append("2x2 family is not {|0><0|, |1><1|}")
    copy_report = res["copy_report"]
    for row in copy_report["dyadic_table"]:
        expected = _phase_spread(row["phases_by_a"]) > 1e-7
        if row["copied"] != expected:
            problems.append(f"dyadic ({row['c']}, {row['d']}): copied={row['copied']}, phases say {expected}")
    if copy_report["residuals"]["max"] > 1e-9:
        problems.append(f"residuals.max {copy_report['residuals']['max']} > 1e-9")
    return problems


# ---------------------------------------------------------------------------
# decoherence: ragged trials (d = 2..8, random block structure)


def decoherence_argvs(seed: int, tiny: bool = False) -> list[list[str]]:
    r = random.Random(f"decoherence:{seed}")
    trials = 10 if tiny else 600
    return [["decoherence-demo", "--seed", _qsim_seed(r), "--trials", str(trials)] for _ in range(2)]


def check_decoherence(argv: list[str], report: dict) -> list[str]:
    """CNOT on |+>|0> gives two equal, non-interfering branches; pinching never lowers S."""
    problems = []
    res = report["results"]
    weights = [float(b["weight"]) for b in res["branches"]]
    if len(weights) != 2 or any(abs(w - 0.5) > TOL_EXACT for w in weights):
        problems.append(f"branch weights {weights}, expected [1/2, 1/2]")
    for k in ("cross_branch_norm_s1", "cross_branch_norm_s2"):
        if abs(float(res[k])) > TOL_EXACT:
            problems.append(f"{k} = {res[k]}, expected 0")
    margins = res["decoherence_margins"]
    if margins["trials"] != int(_flag(argv, "--trials")):
        problems.append(f"margin trials {margins['trials']} != {_flag(argv, '--trials')}")
    if float(margins["min"]) < -1e-9 or margins["violations"] != 0:
        problems.append(f"margin min {margins['min']}, violations {margins['violations']}")
    return problems


# ---------------------------------------------------------------------------


def trials_in(argv: list[str]) -> int:
    """Monte-Carlo trials an invocation runs; copy-demo counts as one."""
    if argv[0] == "copy-demo":
        return 1
    n = int(_flag(argv, "--trials"))
    if argv[0] == "second-law":
        n *= len(_flag(argv, "--epsilon-sweep").split(","))
    return n


WORKLOADS = {
    "second-law": (second_law_argvs, check_second_law),
    "payoff": (payoff_argvs, check_payoff),
    "copy": (copy_argvs, check_copy),
    "decoherence": (decoherence_argvs, check_decoherence),
}
