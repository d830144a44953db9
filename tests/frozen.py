"""Every frozen payload and golden file, written and checked from one table of cases.

    python tests/frozen.py    # rewrite tests/data/*_frozen.json and tests/golden/*.csv

A case names its call, the BLAS thread counts it is checked at (None: this
process, unpinned) and its file.  Pinned cases run in one child per thread
count, with OPENBLAS_NUM_THREADS set.  A JSON file maps each case's id to its
record, under a header that holds the fingerprint of the host that wrote
it, for information only.  A golden CSV is its case's exact text.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import glob
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from qsim import cli  # noqa: E402
from qsim import knowledge_entropy as ke  # noqa: E402
from qsim.rng import substream  # noqa: E402
from qsim.scenarios import run_scenario  # noqa: E402

MAX_VALUES = 16 * 1024  # largest compact `results` JSON stored next to its hash
PAYLOAD, REPORT, DECOHERENCE, SELECTION = (
    HERE / "data" / f"{name}_frozen.json" for name in ("payload", "report", "decoherence", "selection")
)
GOLDEN = HERE / "golden"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list, config_file: dict | None = None):
    """The report of an argv (plus an optional config file) resolved by qsim.cli."""
    with tempfile.TemporaryDirectory() as tmp:
        if config_file is not None:
            Path(tmp, "cfg.json").write_text(json.dumps(config_file))
            argv = [*argv, "--config", str(Path(tmp, "cfg.json"))]
        return run_scenario(*cli.resolve_config(cli.build_parser().parse_args(argv)))


def _values(payload: str) -> dict:
    results = json.loads(payload)
    return {"results": results} if len(json.dumps(results, separators=(",", ":"))) <= MAX_VALUES else {}


def cli_payload(argv: list) -> dict:
    """The payload's hash, and its values when they are small."""
    payload = _run(argv).results_payload()
    return {"results_payload": sha256(payload), **_values(payload)}


def cli_report(argv: list, config_file: dict | None = None) -> dict:
    """Exit code and the hashes of payload, CSV and JSON (wall time 0), and a small payload's values."""
    report = _run(argv, config_file)
    payload = report.results_payload()
    return {
        "exit_code": report.exit_code,
        "results_payload": sha256(payload),
        "to_csv": sha256(report.to_csv()),
        "to_json": sha256(dataclasses.replace(report, wall_time_ms=0.0).to_json()),
        **_values(payload),
    }


def cli_csv(argv: list) -> dict:
    """The exact text of the CSV report that `qsim <argv> --output PATH` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        if (code := cli.main([*argv, "--output", str(Path(tmp, "out.csv"))])) != 0:
            raise RuntimeError(f"qsim {' '.join(argv)} exited {code}")
        return {"csv": Path(tmp, "out.csv").read_bytes().decode()}


def decoherence_margins(seed: int, trials: int) -> dict:
    return {"margins": [x.hex() for x in ke.decoherence_margins(seed, trials).tolist()]}


def stack_inputs(seed, n, dims, eps, uniform=False):
    """Weights and lambda of n trials drawn as the second-law scenario draws them."""
    d1, d2 = dims
    d = d1 * d2
    rngs = [substream(seed, t) for t in range(n)]
    if uniform:
        p = np.full((n, d1, d2), 1.0 / d)
    else:
        p = np.array([w / w.sum() for w in (rng.random(dims) for rng in rngs)])
    normals = np.empty((n, d, d))  # read only when eps > 0
    if eps > 0:
        normals = np.array([rng.standard_normal((d, d)) for rng in rngs])
    return p, ke.perturbed_lams(dims, eps, normals)


def eye_bases(dims):
    return np.eye(dims[0], dtype=complex), np.eye(dims[1], dtype=complex)


def selection_vectors(seed, trials, dims, epsilon, uniform_weights) -> dict:
    p, lam = stack_inputs(seed, trials, tuple(dims), epsilon, uniform_weights)
    sel = ke.select_stack(p, lam, *eye_bases(dims))
    return {"ds1": [x.hex() for x in sel.ds1.tolist()], "ds2": [x.hex() for x in sel.ds2.tolist()]}


def selection_report(name: str) -> dict:
    """A report's scalars, and its matrices as [real, imag] float.hex lists."""
    if name == "relabeling_counterexample":
        ks, theta = ke.relabeling_counterexample()
    else:  # random_3x3_seed43_trial<t>
        rng = substream(43, int(name[-1]))
        p = rng.random((3, 3))
        ks = ke.build_knowledge_state(p / p.sum(), (3, 3))
        theta = ke.perturb_selection((3, 3), 0.4, rng)
    rep = ke.apply_selection_process(ks, theta)
    # the two marginals at t2 come from the stack the report is built on
    sel = ke.select_stack(ks.p_ab[None], theta.lam[None], *eye_bases(ks.layout.factor_dims))
    mats = dict(zip(("rho1_t2", "rho2_t2"), (m[0] for m in sel.marginals)))
    scalars = ("s1_t1", "s2_t1", "s1_t2", "s2_t2", "ds1", "ds2", "s_global", "formula_residual")
    return {
        **{k: float(getattr(rep, k)).hex() for k in scalars},
        **{k: [[x.hex() for x in part.ravel().tolist()] for part in (m.real, m.imag)]
           for k, m in {"rho_t2": rep.rho_t2.mat, **mats}.items()},
    }


@dataclasses.dataclass(frozen=True, eq=False)  # hashed by identity, for the caches
class Case:
    id: str  # its key in the file (a golden CSV's file stem)
    path: Path
    fn: Callable[..., dict]
    call: dict  # fn's keyword arguments
    threads: tuple = (None,)  # the first one writes the record


# CLI reports, first frozen by the scenario layer with the if/elif dispatch
REPORT_ARGVS = """copy-demo
copy-demo --seed 2 --dims 3,3
copy-demo --seed 1 --dims 3,2
copy-demo --seed 3 --dims 4,4 --format csv
copy-demo --seed 2 --dims 5,5
decoherence-demo --seed 1 --trials 50
decoherence-demo --seed 2 --trials 50 --format csv
decoherence-demo --seed 3 --trials 7
payoff-demo
payoff-demo --seed 2 --trials 1000 --format csv
payoff-demo --seed 3 --trials 10
no-cloning
no-cloning --seed 2 --format csv
second-law --seed 1 --trials 20
second-law --seed 2 --trials 20 --epsilon-sweep 0,0.05,0.1 --format csv
second-law --seed 3 --trials 10 --dims 2,3 --epsilon 0.2 --uniform-weights
second-law --seed 2 --trials 10 --epsilon-sweep 0,0.1 --uniform-weights --format csv
second-law --seed 4 --config {"dims": [3, 2], "trials": 5, "epsilon_sweep": [0, 0.1], "seed": 9}
property-suite
property-suite --trials 2
property-suite --seed 2 --trials 3 --format csv
property-suite --seed 3 --config {"trials": 1, "format": "csv"}""".splitlines()


def _table() -> list[Case]:
    # payloads of the per-trial decoherence code and of the tool_version 0.3.0 property suite
    argvs = [f"decoherence-demo --seed {s} --trials 600" for s in (1, 2, 3)]
    argvs += [f"property-suite --seed {s}" for s in (1, 2, 3)]
    cases = [Case(argv, PAYLOAD, cli_payload, {"argv": argv.split()}) for argv in argvs]
    # the tool_version 0.3.0 copy analysis, whose bits change with the BLAS thread count
    for dims in ("2,2", "2,8", "3,3", "3,5", "4,4", "5,5", "6,6", "7,7", "8,2", "8,8"):
        for seed in (1, 2, 3):
            argv = f"copy-demo --seed {seed} --dims {dims}"
            cases.append(Case(argv, PAYLOAD, cli_payload, {"argv": argv.split()}, (1,)))
    for line in REPORT_ARGVS:
        argv, _, config = line.partition(" --config ")
        call = {"argv": argv.split(), **({"config_file": json.loads(config)} if config else {})}
        cases.append(Case(argv + (" --config" if config else ""), REPORT, cli_report, call, (1,)))
    # margins of the one-trial-at-a-time code; the stacks must stay below the sizes OpenBLAS threads
    for seed in (1, 5, 2**64 - 1):
        call = {"seed": seed, "trials": 300}
        cases.append(Case(f"margins seed{seed}", DECOHERENCE, decoherence_margins, call, (None, 1, 2)))
    # vectors and reports of the one-selection-per-trial code
    for d1, d2 in ((2, 3), (3, 3), (4, 4), (2, 16)):
        for eps in (0.0, 0.05, 0.9):
            for uniform in (False, True):
                call = {"seed": 7, "trials": 20, "dims": [d1, d2], "epsilon": eps, "uniform_weights": uniform}
                cid = f"{d1}x{d2}-eps{eps}-{'uniform' if uniform else 'random'}"
                cases.append(Case(cid, SELECTION, selection_vectors, call))
    for name in ("relabeling_counterexample", "random_3x3_seed43_trial0", "random_3x3_seed43_trial1"):
        cases.append(Case(name, SELECTION, selection_report, {"name": name}))
    for name, flag in (("second_law_sweep_seed1", ""), ("second_law_sweep_uniform_seed1", " --uniform-weights")):
        argv = f"second-law --seed 1 --trials 50 --epsilon-sweep 0,0.05,0.1,0.2{flag} --format csv"
        cases.append(Case(name, GOLDEN / f"{name}.csv", cli_csv, {"argv": argv.split()}))
    return cases


CASES = _table()
FILES = list(dict.fromkeys(case.path for case in CASES))
PINS = sorted({t for case in CASES for t in case.threads} - {None})


@functools.cache
def _here(case: Case) -> dict:
    return case.fn(**case.call)


@functools.cache
def start(threads: int) -> subprocess.Popen:
    """The one child that computes every case pinned at this BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env.pop("QSIM_SEED", None)
    cmd = [sys.executable, __file__, str(threads)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@functools.cache
def pinned(threads: int) -> list:
    """The records of the child pinned at this thread count, aligned with CASES."""
    out, err = start(threads).communicate()
    if start(threads).returncode:
        raise RuntimeError(f"the child pinned at {threads} BLAS thread(s) failed:\n{err}")
    return json.loads(out)


def record(case: Case, threads: int | None = None) -> dict:
    """The case's record at a BLAS thread count (None: this process).  Cached: do not mutate it."""
    return _here(case) if threads is None else pinned(threads)[CASES.index(case)]


def fingerprint() -> dict:
    """What fixes payload bits besides the code: numpy's SIMD loops, OpenBLAS's kernel, versions."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.0
    except ImportError:
        fp = {}
    else:
        info = opt_func_info(func_name="^(log2|arctan2)$")  # np.angle is arctan2(imag, real)
        fp = {"log2": info["log2"]["dd"]["current"], "angle": info["arctan2"]["ddd"]["current"]}
    fp["openblas"] = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas64_*")):
        get_config = ctypes.CDLL(lib).scipy_openblas_get_config64_
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        fp["openblas"] = get_config().decode()
    return {**fp, "python": sys.version.split()[0], "numpy": np.__version__}


@functools.cache
def load(path: Path) -> dict:
    """{"fingerprint", "cases": {id: record}} of a file; a golden CSV's record is its exact text.  Cached."""
    text = path.read_bytes().decode()
    if path.suffix == ".csv":
        return {"fingerprint": None, "cases": {path.stem: {"csv": text}}}
    return json.loads(text)


def stored(case: Case) -> dict:
    return load(case.path)["cases"][case.id]


def render(path: Path, fp: dict | None) -> str:
    records = {c.id: record(c, c.threads[0]) for c in CASES if c.path == path}
    if path.suffix == ".csv":
        return records[path.stem]["csv"]
    lines = ",\n".join(f"  {json.dumps(cid)}: {json.dumps(r)}" for cid, r in records.items())
    return f'{{\n "fingerprint": {json.dumps(fp)},\n "cases": {{\n{lines}\n }}\n}}\n'


def _leaves(a, b, path=""):
    """(path, stored, computed) of each leaf whose JSON differs, in stored order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            yield from _leaves(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from _leaves(a[i] if i < len(a) else None, b[i] if i < len(b) else None, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path, a, b


def _number(x) -> float | None:
    """A leaf as a float: a number or a float.hex string."""
    if isinstance(x, str) and x.lstrip("-").startswith("0x"):
        return float.fromhex(x)
    return float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else None


def mismatch(want: dict, got: dict) -> str | None:
    """None if every field's JSON is equal, else the first differing field and the largest move.

    Key order is left to the reproduction test, which compares the whole file.
    """
    if not (diffs := list(_leaves(want, got))):
        return None
    path, a, b = diffs[0]
    text = f"{len(diffs)} field(s) differ; the first is {path}: stored {a!r}, computed {b!r}"
    nums = [(p, _number(x), _number(y)) for p, x, y in diffs]
    if moves := [(abs(v - u), p, u, v) for p, u, v in nums if u is not None and v is not None]:
        move, p, u, v = max(moves, key=lambda m: math.inf if math.isnan(m[0]) else m[0])
        text += f"\nlargest numeric move {move!r} at {p}: {u!r} -> {v!r}"
    return text


def explain(case: Case, want: dict, got: dict) -> str | None:
    """mismatch(), with the fingerprints of the writer and of this host."""
    if (text := mismatch(want, got)) is None:
        return None
    fp = load(case.path)["fingerprint"]
    return f"{case.path.name} case {case.id!r}: {text}\nwritten on {fp}\nchecked on {fingerprint()}"


if __name__ == "__main__":
    if len(sys.argv) > 1:  # a pinned child: the records of the cases pinned at this count
        threads = int(sys.argv[1])
        print(json.dumps([c.fn(**c.call) if threads in c.threads else None for c in CASES]))
    else:
        fp = fingerprint()
        for threads in PINS:
            start(threads)
        for path in FILES:
            path.write_bytes(render(path, fp).encode())
