"""CLI contract: exit codes, precedence, determinism, schemas, goldens."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsim import cli, properties
from qsim import heisenberg_flow as hf
from qsim import knowledge_entropy as ke
from qsim import operator_core as oc
from qsim.errors import CapacityError
from qsim.scenarios import SCENARIOS, ScenarioConfig, fmt, run_scenario

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"
DOCS = Path(__file__).parents[1] / "docs"
# payload hashes of the per-trial decoherence code that the stacked kernel replaced;
# the property-suite entries are from the tool_version 0.2.0 copy analysis
PARENT_SHA256 = json.loads((DATA / "decoherence_frozen.json").read_text())["payload_sha256"]
# copy-demo payload hashes of the tool_version 0.2.0 copy analysis
COPY_FROZEN = json.loads((DATA / "copy_frozen.json").read_text())
# report hashes of the scenario layer before its dispatch table, exit-code rule
# and CSV projection were merged
REPORT_FROZEN = json.loads((DATA / "report_frozen.json").read_text())


def payload_sha256(results: dict) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def run_cli(argv, capsys, monkeypatch, env_seed=None):
    if env_seed is None:
        monkeypatch.delenv("QSIM_SEED", raising=False)
    else:
        monkeypatch.setenv("QSIM_SEED", env_seed)
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys, monkeypatch):
        code, out, _ = run_cli(["no-cloning"], capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["scenario"] == "no-cloning"

    def test_unknown_scenario_is_usage_error(self, capsys, monkeypatch):
        code, _, err = run_cli(["bogus"], capsys, monkeypatch)
        assert code == 2
        assert "unknown scenario" in err

    def test_bad_trials_is_usage_error(self, capsys, monkeypatch):
        code, _, err = run_cli(["payoff-demo", "--trials", "0"], capsys, monkeypatch)
        assert code == 2

    def test_capacity_error(self, capsys, monkeypatch):
        code, _, err = run_cli(["copy-demo", "--dims", "9,9"], capsys, monkeypatch)
        assert code == 3
        assert "capacity" in err

    @pytest.mark.parametrize("dims", ["3", "2,2,2"])
    def test_copy_demo_needs_two_dims(self, capsys, monkeypatch, dims):
        code, out, err = run_cli(["copy-demo", "--dims", dims], capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("qsim: error: copy-demo needs exactly two factor dims")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["second-law", "--epsilon", "nan"], "epsilon must be finite and >= 0, got nan"),
            (["second-law", "--epsilon-sweep", "0,inf"], "epsilon sweep must be"),
            (["payoff-demo", "--seed", "-5"], "seed must be in [0, 2**64 - 1], got -5"),
            (["payoff-demo", "--seed", str(2**64)], f"got {2**64}"),
            (["second-law", "--dims", ""], "expected comma-separated integers, got ''"),
            (["second-law", "--epsilon-sweep", ""], "expected comma-separated reals, got ''"),
            (
                ["no-cloning", "--config", str(DATA / "empty_dims_config.json")],
                "dims must be nonempty, each >= 2, got []",
            ),
        ],
        ids=[
            "epsilon-nan", "sweep-inf", "seed-negative", "seed-2**64", "dims-empty", "sweep-empty",
            "config-dims-empty",
        ],
    )
    def test_out_of_range_config_is_usage_error(self, capsys, monkeypatch, argv, fragment):
        code, out, err = run_cli(argv, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("qsim: error: ") and fragment in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["decoherence-demo", "--trials", str(10**20)],
            ["property-suite", "--trials", str(ScenarioConfig.MAX_TRIALS + 1)],
            ["second-law", "--dims", "8,8", "--trials", str(10**9)],
        ],
        ids=["decoherence", "property-override", "second-law"],
    )
    def test_trials_above_cap_is_capacity_error(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("a run past the trial cap was started")

        monkeypatch.setattr(cli, "run_scenario", never)
        code, out, err = run_cli(argv, capsys, monkeypatch)
        assert code == 3
        assert out == ""
        assert err.startswith("qsim: capacity error: trials ") and "exceeds maximum" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["second-law", "--trials", "10000000", "--epsilon-sweep", "0,0"], None),
            (["second-law"], {"trials": 2_500_001, "epsilon_sweep": [0, 0.1, 0.2, 0.3]}),
        ],
        ids=["flags", "config"],
    )
    def test_sweep_rows_times_trials_above_cap_is_capacity_error(
        self, capsys, monkeypatch, tmp_path, argv, config
    ):
        def never(*args):
            raise AssertionError("a run past the trial cap was started")

        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        monkeypatch.setattr(cli, "run_scenario", never)
        code, out, err = run_cli(argv, capsys, monkeypatch)
        trials, rows = (10**7, 2) if config is None else (2_500_001, 4)
        assert (code, out) == (3, "")
        assert err == (
            f"qsim: capacity error: trials {trials} x {rows} epsilon-sweep rows = "
            f"{trials * rows} exceeds maximum {ScenarioConfig.MAX_TRIALS}\n"
        )

    def test_sweep_rows_times_trials_at_cap_is_accepted(self):
        cap = ScenarioConfig.MAX_TRIALS
        ScenarioConfig("second-law", trials=cap // 4, epsilon_sweep=(0, 0, 1, 2))
        # the product bounds second-law only; other scenarios ignore the sweep
        ScenarioConfig("decoherence-demo", trials=cap, epsilon_sweep=(0, 0))
        with pytest.raises(CapacityError):
            ScenarioConfig("second-law", trials=cap // 4 + 1, epsilon_sweep=(0, 0, 1, 2))

    def test_trial_cap_in_config_file(self, capsys, monkeypatch, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": ScenarioConfig.MAX_TRIALS + 1}))
        monkeypatch.setattr(cli, "run_scenario", None)
        code, _, err = run_cli(["property-suite", "--config", str(cfg_path)], capsys, monkeypatch)
        assert code == 3 and err.startswith("qsim: capacity error: ")

    def test_numerical_failure_is_exit_4(self, capsys, monkeypatch):
        code, out, err = run_cli(["second-law", "--epsilon", "1e308"], capsys, monkeypatch)
        assert code == 4
        assert out == ""
        assert err == "qsim: numerical error: trial 0: rotation exp(epsilon G) is not finite\n"

    def test_copy_analysis_failure_is_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(hf, "s1_drift", lambda u, ops: np.ones_like(ops))
        code, out, err = run_cli(["copy-demo", "--dims", "3,3"], capsys, monkeypatch)
        assert code == 4
        assert out == ""
        assert err.startswith("qsim: numerical error: center atoms drift by ")
        assert err.count("\n") == 1

    def test_largest_seed_runs(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["payoff-demo", "--seed", str(2**64 - 1), "--trials", "5"], capsys, monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["seed"] == 2**64 - 1
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(doc, json.loads((DOCS / "run_report.schema.json").read_text()))

    def test_property_failure_is_exit_1(self, capsys, monkeypatch):
        broken = dict(properties.REGISTRY)

        def always_bad(seed, trials):
            return properties.PropertyResult(
                property_id="entropy.decoherence_never_decreases",
                trials=trials,
                violations=trials,
                worst=1.0,
                first_bad_trial=0,
            )

        broken["entropy.decoherence_never_decreases"] = (5, always_bad)
        monkeypatch.setattr(properties, "REGISTRY", broken)
        code, out, _ = run_cli(
            ["property-suite", "--trials", "2"], capsys, monkeypatch
        )
        assert code == 1
        doc = json.loads(out)
        bad = [p for p in doc["results"]["properties"] if p["status"] == "fail"]
        assert bad and bad[0]["repro"] == {"seed": 1, "trial_index": 0}


# malformed flag values that the flag parser passes on, so qsim must refuse them itself
MALFORMED_FLAGS = [
    *(("--dims", v) for v in ["2,x", "2,,2", "1,2", "0", "2.5,2", " ", ",", "2,2,", "9,9", "2,2,2,2,2,2,2"]),
    *(("--trials", v) for v in ["0", "-3", str(10**20)]),
    *(("--epsilon", v) for v in ["nan", "inf", "-0.1", "1e400"]),
    *(("--epsilon-sweep", v) for v in ["0.2,0.1", "a,b", "nan", "0,,1", "inf"]),
    *(("--seed", v) for v in ["-1", str(2**64)]),
]
# malformed config files: JSON text that is not an object, and ill-typed or out-of-range values
MALFORMED_CONFIGS = [
    "not json", "{", "null", "", "[]", "3", '"x"', '{"seed": NaN}', '{"epsilon": Infinity}',
    *(json.dumps(doc) for doc in [
        {"dims": [2.5]}, {"dims": "2,2"}, {"dims": [1, 2]}, {"dims": [[2]]}, {"dims": [9, 9]},
        {"dims": []}, {"dims": None}, {"seed": -1}, {"seed": 1.0}, {"seed": 2**64}, {"seed": None},
        {"trials": 0}, {"trials": -1}, {"trials": 10**30}, {"trials": 1e3}, {"format": "xml"},
        {"epsilon": "0.1"}, {"epsilon": -1}, {"epsilon": None}, {"epsilon_sweep": []},
        {"epsilon_sweep": [0.3, 0.1]}, {"epsilon_sweep": 0.1}, {"output_path": 5},
        {"uniform_weights": 1}, {"scenario": "copy-demo"},
    ]),
]
# each malformed input is paired with a scenario drawn from a fixed seed
_PICK = random.Random(12)
FLAG_CASES = [(_PICK.choice(sorted(SCENARIOS)), flag, value) for flag, value in MALFORMED_FLAGS]
CONFIG_CASES = [(_PICK.choice(sorted(SCENARIOS)), text) for text in MALFORMED_CONFIGS]


class TestMalformedInput:
    @staticmethod
    def assert_refused(code, out, err):
        assert code in (2, 3)
        assert out == ""
        assert err.startswith(("qsim: error: ", "qsim: capacity error: "))
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("scenario, flag, value", FLAG_CASES)
    def test_flag_refused_with_one_line(self, capsys, monkeypatch, scenario, flag, value):
        self.assert_refused(*run_cli([scenario, flag, value], capsys, monkeypatch))

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["payoff-demo", "--seed", "1.5"], "'1.5'"),
            (["payoff-demo", "--format", "xml"], "'xml'"),
            (["second-law", "--epsilon", "-inf"], "-inf"),
            (["copy-demo", "--dims", "-2,2"], "[-2, 2]"),
            (["payoff-demo", "--bogus"], "--bogus"),
            ([], "scenario"),
            (["second-law", "--epsilon-sweep", "-1,0"], "[-1.0, 0.0]"),
        ],
        ids=[f"argv{i}" for i in range(7)],
    )
    def test_flag_parser_rejection_is_one_line(self, capsys, monkeypatch, argv, named):
        code, out, err = run_cli(argv, capsys, monkeypatch)
        assert code == 2
        self.assert_refused(code, out, err)
        assert err.startswith("qsim: error: ") and named in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--epsilon", "-inf"), ("--dims", "-2,2"), ("--epsilon-sweep", "-1,0"), ("--epsilon-s", "-1")],
    )
    def test_spaced_negative_value_reads_like_joined(self, capsys, monkeypatch, flag, value):
        spaced = run_cli(["copy-demo", flag, value], capsys, monkeypatch)
        joined = run_cli(["copy-demo", f"{flag}={value}"], capsys, monkeypatch)
        assert spaced == joined and spaced[0] == 2

    @pytest.mark.parametrize("value", ["--format", "--bogus", "-h"])
    def test_option_string_is_never_a_value(self, capsys, monkeypatch, value):
        code, out, err = run_cli(["payoff-demo", "--output", value], capsys, monkeypatch)
        self.assert_refused(code, out, err)
        assert err == "qsim: error: argument --output: expected one argument\n"

    @pytest.mark.parametrize("argv", [["--output", "-out.json"], ["--output=-hx"]], ids=["spaced", "joined-h"])
    def test_output_path_may_start_with_dash(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["payoff-demo", "--trials", "2", *argv], capsys, monkeypatch)
        assert (code, out, err) == (0, "", "")
        (written,) = tmp_path.iterdir()
        assert written.name == argv[-1].removeprefix("--output=")
        assert json.loads(written.read_text())["scenario"] == "payoff-demo"

    def test_spaced_value_starting_with_h_is_the_help_flag(self, capsys, monkeypatch):
        # `-hx` reads as `-h` with `x` attached, so `--output` has no value; `--output=-hx` works
        code, out, err = run_cli(["payoff-demo", "--output", "-hx"], capsys, monkeypatch)
        self.assert_refused(code, out, err)
        assert err == "qsim: error: argument --output: expected one argument\n"

    @pytest.mark.parametrize("scenario", ["copy-demo", "second-law"])
    @pytest.mark.parametrize("dims", [(2**32, 2**32), (10**11, 10**11)], ids=["2**64", "10**22"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_dims_product_past_64_bits_is_capacity_error(
        self, capsys, monkeypatch, tmp_path, scenario, dims, via
    ):
        # the product was once taken in int64, where 2**64 wraps to 0 and passes the cap
        argv = [scenario, "--dims", ",".join(map(str, dims))]
        if via == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({"dims": list(dims)}))
            argv = [scenario, "--config", str(tmp_path / "cfg.json")]
        code, out, err = run_cli(argv, capsys, monkeypatch)
        assert (code, out) == (3, "")
        assert err == f"qsim: capacity error: total dim {dims[0] * dims[1]} exceeds maximum 64\n"

    @pytest.mark.parametrize(
        "argv, config_text, line",
        [
            (["copy-demo"], json.dumps({"dims": [10**3000] * 2}),
             "capacity error: total dim at least 2**19931 exceeds maximum 64"),
            (["second-law"], json.dumps({"epsilon": 10**400}),
             f"error: epsilon must be finite and >= 0, got {10**400}"),
            (["second-law"], json.dumps({"epsilon_sweep": [0, 10**400]}),
             f"error: epsilon sweep must be a nonempty ascending list of finite values >= 0, got [0, {10**400}]"),
            (["payoff-demo"], "[" * 100_000 + "]" * 100_000,
             "error: cannot read config file cfg.json: maximum recursion depth exceeded"),
            (["payoff-demo", "--trials", "2"], json.dumps({"output_path": "a\0b"}),
             "error: cannot write report to a\0b: embedded null byte"),
            (["payoff-demo", "x\ny"], None, "error: unrecognized arguments: x\\ny"),
            (["payoff-demo", "--config", "a\nb"], None,
             "error: cannot read config file a\\nb: [Errno 2] No such file or directory: 'a\\nb'"),
        ],
        ids=["product-2**19931", "epsilon-int", "sweep-int", "deep-json", "nul-path", "newline-arg",
             "newline-path"],
    )
    def test_found_input_is_refused_with_one_line(
        self, capsys, monkeypatch, tmp_path, argv, config_text, line
    ):
        # each of these once ended in a traceback or wrote two stderr lines
        monkeypatch.chdir(tmp_path)
        if config_text is not None:
            (tmp_path / "cfg.json").write_text(config_text)
            argv = argv + ["--config", "cfg.json"]
        code, out, err = run_cli(argv, capsys, monkeypatch)
        self.assert_refused(code, out, err)
        assert err.startswith(f"qsim: {line}")
        assert list(tmp_path.iterdir()) == ([tmp_path / "cfg.json"] if config_text else [])

    def test_help_is_argparse_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out == cli.build_parser().format_help() and out.err == ""

    @pytest.mark.parametrize("scenario, text", CONFIG_CASES)
    def test_config_refused_with_one_line(self, capsys, monkeypatch, tmp_path, scenario, text):
        (tmp_path / "cfg.json").write_text(text)
        argv = [scenario, "--config", str(tmp_path / "cfg.json")]
        self.assert_refused(*run_cli(argv, capsys, monkeypatch))


_COPY_HASHES = """
import hashlib, json, sys
from qsim.scenarios import ScenarioConfig, run_scenario

out = {}
for key in sys.argv[1:]:
    dims, seed = key.split(":")
    cfg = ScenarioConfig("copy-demo", seed=int(seed), dims=tuple(map(int, dims.split(","))))
    payload = json.dumps(run_scenario(cfg).results, sort_keys=True)
    out[key] = hashlib.sha256(payload.encode()).hexdigest()
print(json.dumps(out))
"""


_REPORT_HASHES = """
import dataclasses, hashlib, json, os, sys, tempfile
from qsim import cli
from qsim.scenarios import run_scenario

def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()

out = []
with tempfile.TemporaryDirectory() as tmp:
    for case in json.load(sys.stdin):
        argv = list(case["argv"])
        if "config_file" in case:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(case["config_file"], fh)
            argv += ["--config", path]
        cfg, trials_override = cli.resolve_config(cli.build_parser().parse_args(argv))
        report = run_scenario(cfg, trials_override)
        out.append({
            "exit_code": report.exit_code,
            "results_payload": sha256(report.results_payload()),
            "to_csv": sha256(report.to_csv()),
            "to_json": sha256(dataclasses.replace(report, wall_time_ms=0.0).to_json()),
        })
print(json.dumps(out))
"""


def run_pinned(script: str, *args: str, stdin: str | None = None):
    """Run a script in a fresh interpreter with the BLAS thread count pinned.

    From 5x5 up the copy analysis's SVD and products are large enough that
    OpenBLAS splits them across threads, and the payload bits change with the
    thread count, so frozen copy-demo hashes are computed with one thread.
    """
    threads = str(COPY_FROZEN["blas_threads"])
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("QSIM_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        input=stdin, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def copy_payload_hashes():
    """copy-demo payload hashes, run with the BLAS thread count they were frozen at."""
    return run_pinned(_COPY_HASHES, *sorted(COPY_FROZEN["payload_sha256"]))


@pytest.fixture(scope="module")
def report_hashes():
    """Hashes of every frozen CLI case's report, in the order of the frozen file."""
    cases = [
        {k: v for k, v in case.items() if k in ("argv", "config_file")}
        for case in REPORT_FROZEN["cases"]
    ]
    return run_pinned(_REPORT_HASHES, stdin=json.dumps(cases))


class TestDeterminism:
    def test_results_payload_byte_identical(self):
        cfg = ScenarioConfig("second-law", seed=9, trials=20, epsilon_sweep=(0.0, 0.1))
        a = run_scenario(cfg).results_payload()
        b = run_scenario(cfg).results_payload()
        assert a == b

    def test_wall_time_excluded_from_payload(self):
        cfg = ScenarioConfig("no-cloning")
        assert "wall_time" not in run_scenario(cfg).results_payload()

    def test_second_law_rows_match_frozen_vectors(self):
        # the stacked engine reproduces the per-trial results it replaced
        frozen = json.loads((DATA / "selection_frozen.json").read_text())
        for case in frozen["cases"]:
            cfg = ScenarioConfig(
                "second-law",
                seed=frozen["seed"],
                dims=tuple(case["dims"]),
                trials=frozen["trials"],
                epsilon=case["epsilon"],
                uniform_weights=case["uniform_weights"],
            )
            (row,) = run_scenario(cfg).results["sweep"]
            for key in ("ds1", "ds2"):
                ds = [float.fromhex(x) for x in case[key]]
                assert row[f"mean_{key}"] == fmt(sum(ds) / len(ds))
                violations = sum(1 for d in ds if d < -1e-9) / len(ds)
                assert row[f"violation_fraction_s{key[-1]}"] == fmt(violations)


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decoherence_payload_matches_per_trial_code(self, seed):
        report = run_scenario(ScenarioConfig("decoherence-demo", seed=seed, trials=600))
        assert payload_sha256(report.results) == PARENT_SHA256[f"decoherence-demo:{seed}"]

    @pytest.mark.parametrize("seed", [2, 3])  # seed 1: TestPropertySuite
    def test_property_suite_payload_matches_per_trial_code(self, seed):
        report = run_scenario(ScenarioConfig("property-suite", seed=seed))
        assert payload_sha256(report.results) == PARENT_SHA256[f"property-suite:{seed}"]

    @pytest.mark.parametrize("key", sorted(COPY_FROZEN["payload_sha256"]))
    def test_copy_payload_matches_frozen(self, copy_payload_hashes, key):
        assert copy_payload_hashes[key] == COPY_FROZEN["payload_sha256"][key]

    @pytest.mark.parametrize(
        "index",
        range(len(REPORT_FROZEN["cases"])),
        ids=[
            " ".join(case["argv"] + (["--config"] if "config_file" in case else []))
            for case in REPORT_FROZEN["cases"]
        ],
    )
    def test_report_matches_frozen(self, report_hashes, index):
        # payload, CSV, JSON report and exit code, byte for byte
        case = REPORT_FROZEN["cases"][index]
        assert report_hashes[index] == {key: case[key] for key in report_hashes[index]}

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig("second-law", dims=(2, 2), trials=50, epsilon_sweep=(0.0, 0.1)),
            ScenarioConfig("second-law", dims=(4, 4), trials=5, epsilon_sweep=(0.0, 0.2)),
            ScenarioConfig("decoherence-demo", trials=30),
        ],
        ids=["second-law-2x2", "second-law-4x4", "decoherence"],
    )
    def test_trial_blocks_do_not_change_payloads(self, monkeypatch, cfg):
        whole = run_scenario(cfg).results_payload()
        # 16, 1 and 4 trials per block
        monkeypatch.setattr(oc, "STACK_ELEMENTS", 2**8)
        assert run_scenario(cfg).results_payload() == whole

    @pytest.mark.parametrize(
        "dims, trials, sweep, uniform",
        [
            ((8, 8), 150, (0.05, 0.2), False),  # 256 trials per block: row 1 is split at 106
            ((3, 3), 40, (0.1, 0.3), False),  # 9-entry weight sums
            ((2, 3), 30, (0.0, 0.1, 0.2), True),
            ((2, 2), 50, (0.0, 0.0, 0.1, 0.4), False),
        ],
        ids=["8x8-split-rows", "3x3", "uniform-weights", "epsilon-zero-rows"],
    )
    def test_sweep_rows_equal_single_row_runs(self, dims, trials, sweep, uniform):
        cfg = ScenarioConfig(
            "second-law", seed=11, dims=dims, trials=trials, epsilon_sweep=sweep,
            uniform_weights=uniform,
        )
        rows = run_scenario(cfg).results["sweep"]
        for i, eps in enumerate(sweep):
            one = dataclasses.replace(cfg, seed=cfg.seed + i, epsilon_sweep=(eps,))
            assert run_scenario(one).results["sweep"] == [rows[i]], f"row {i}"

    def test_second_law_sweep_is_one_stack(self, monkeypatch):
        # one select_stack for the 400 trials (then the one-trial counterexample)
        # and one expm for the 300 with epsilon > 0
        import scipy.linalg

        stacks, expms = [], []
        select_stack, expm = ke.select_stack, scipy.linalg.expm
        monkeypatch.setattr(
            ke, "select_stack", lambda p, *a, **kw: stacks.append(len(p)) or select_stack(p, *a, **kw)
        )
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: expms.append(a.shape) or expm(a))
        cfg = ScenarioConfig("second-law", trials=100, epsilon_sweep=(0.0, 0.05, 0.1, 0.2))
        assert run_scenario(cfg).exit_code == 0
        assert stacks == [400, 1]
        assert expms == [(300, 4, 4)]


class TestGoldenCsv:
    def test_second_law_sweep_regenerates(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "second-law",
                "--seed", "1",
                "--trials", "50",
                "--epsilon-sweep", "0,0.05,0.1,0.2",
                "--format", "csv",
                "--output", str(out_path),
            ],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert out_path.read_bytes() == (GOLDEN / "second_law_sweep_seed1.csv").read_bytes()

    def test_uniform_weights_golden(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "second-law",
                "--seed", "1",
                "--trials", "50",
                "--epsilon-sweep", "0,0.05,0.1,0.2",
                "--uniform-weights",
                "--format", "csv",
                "--output", str(out_path),
            ],
            capsys,
            monkeypatch,
        )
        assert code == 0
        golden = GOLDEN / "second_law_sweep_uniform_seed1.csv"
        assert out_path.read_bytes() == golden.read_bytes()

    def test_sweep_means_monotone(self):
        rows = (GOLDEN / "second_law_sweep_seed1.csv").read_text().splitlines()[1:]
        means = [float(r.split(",")[2]) for r in rows]
        assert means == sorted(means)
        assert means[0] == 0.0


class TestSchemas:
    def test_reports_validate(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((DOCS / "run_report.schema.json").read_text())
        for scenario in SCENARIOS:
            cfg = ScenarioConfig(scenario, trials=20)
            doc = json.loads(run_scenario(cfg, trials_override=cfg.trials).to_json())
            jsonschema.validate(doc, schema)

    def test_scenario_enum_is_the_table(self):
        schema = json.loads((DOCS / "run_report.schema.json").read_text())
        assert schema["properties"]["scenario"]["enum"] == list(SCENARIOS)

    def test_trial_cap_in_schema(self):
        schema = json.loads((DOCS / "run_report.schema.json").read_text())
        trials = schema["properties"]["config"]["properties"]["trials"]
        assert trials["maximum"] == ScenarioConfig.MAX_TRIALS

    def test_sweep_rows_validate(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((DOCS / "sweep_row.schema.json").read_text())
        cfg = ScenarioConfig("second-law", trials=10, epsilon_sweep=(0.0, 0.1))
        doc = json.loads(run_scenario(cfg).to_json())
        for row in doc["results"]["sweep"]:
            jsonschema.validate(row, schema)


class TestPrecedence:
    def test_defaults(self, capsys, monkeypatch):
        _, out, _ = run_cli(["payoff-demo"], capsys, monkeypatch)
        cfg = json.loads(out)["config"]
        assert cfg["seed"] == 1 and cfg["trials"] == 100

    def test_env_overrides_default_seed(self, capsys, monkeypatch):
        _, out, _ = run_cli(["payoff-demo"], capsys, monkeypatch, env_seed="77")
        assert json.loads(out)["config"]["seed"] == 77

    def test_config_file_overrides_env(self, capsys, monkeypatch, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "trials": 30}))
        _, out, _ = run_cli(
            ["payoff-demo", "--config", str(cfg_path)], capsys, monkeypatch, env_seed="77"
        )
        cfg = json.loads(out)["config"]
        assert cfg["seed"] == 5 and cfg["trials"] == 30

    def test_flags_override_config_file(self, capsys, monkeypatch, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "trials": 30}))
        _, out, _ = run_cli(
            ["payoff-demo", "--config", str(cfg_path), "--seed", "11"],
            capsys,
            monkeypatch,
        )
        cfg = json.loads(out)["config"]
        assert cfg["seed"] == 11 and cfg["trials"] == 30

    def test_bad_env_seed(self, capsys, monkeypatch):
        code, _, err = run_cli(["payoff-demo"], capsys, monkeypatch, env_seed="abc")
        assert code == 2
        assert err == "qsim: error: QSIM_SEED must be an integer, got 'abc'\n"

    def test_unreadable_config(self, capsys, monkeypatch, tmp_path):
        code, _, err = run_cli(
            ["payoff-demo", "--config", str(tmp_path / "missing.json")],
            capsys,
            monkeypatch,
        )
        assert code == 2


    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("[1, 2]", "must hold a JSON object, got list"),
            ('{"trials": "10"}', "config key 'trials' must be an integer, got '10'"),
            ('{"trails": 10}', "unknown key 'trails'"),
            ('{"trials": true}', "config key 'trials' must be an integer, got True"),
            ('{"epsilon_sweep": [0, "x"]}', "config key 'epsilon_sweep' must be a list of reals"),
        ],
        ids=["array", "string-trials", "unknown-key", "bool-trials", "sweep-entry"],
    )
    def test_invalid_config_file_is_usage_error(
        self, capsys, monkeypatch, tmp_path, content, fragment
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        code, out, err = run_cli(["payoff-demo", "--config", str(cfg_path)], capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("qsim: error: ") and fragment in err
        assert err.count("\n") == 1

    def test_config_file_keys_follow_schema(self):
        schema = json.loads((DOCS / "run_report.schema.json").read_text())
        props = schema["properties"]["config"]["properties"]
        assert set(cli.CONFIG_FILE_TYPES) == set(cli.DEFAULTS) == set(props) - {"scenario"}

    def test_config_file_with_every_key_runs(self, capsys, monkeypatch, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        doc = {
            "seed": 3, "dims": [2, 2], "trials": 4, "epsilon": 0, "epsilon_sweep": None,
            "output_path": None, "format": "csv", "uniform_weights": True,
        }
        cfg_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["second-law", "--config", str(cfg_path)], capsys, monkeypatch)
        assert code == 0
        assert out.startswith("epsilon,")

    def test_unwritable_output_is_usage_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(["payoff-demo", "--output", str(path)], capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith(f"qsim: error: cannot write report to {path}")
        assert err.count("\n") == 1

    def test_config_file_trials_override_property_suite(self, capsys, monkeypatch, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 1}))
        code, out, _ = run_cli(["property-suite", "--config", str(cfg_path)], capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["results"]["reduced_confidence"]


class TestPropertySuite:
    def test_default_trials_full_confidence(self, capsys, monkeypatch):
        code, out, _ = run_cli(["property-suite"], capsys, monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["all_passed"]
        assert not doc["results"]["reduced_confidence"]
        assert len(doc["results"]["properties"]) == len(properties.REGISTRY)
        assert payload_sha256(doc["results"]) == PARENT_SHA256["property-suite:1"]

    def test_reduced_trials_flagged(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["property-suite", "--trials", "1"], capsys, monkeypatch
        )
        assert code == 0
        assert json.loads(out)["results"]["reduced_confidence"]

    def test_csv_format(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["property-suite", "--trials", "2", "--format", "csv"],
            capsys,
            monkeypatch,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "property_id,trials,violations,worst_residual,status"
        assert all(line.endswith("pass") for line in lines[1:])


class TestPropertyChecks:
    @pytest.mark.parametrize("seed", [16, 31, 35])
    def test_frequency_property_holds_at_former_failing_seeds(
        self, capsys, monkeypatch, seed
    ):
        # these seeds broke the old "large run beats small run" comparison
        pid = "payoff.frequency_deviation_shrinks"
        monkeypatch.setattr(properties, "REGISTRY", {pid: properties.REGISTRY[pid]})
        code, out, _ = run_cli(["property-suite", "--seed", str(seed)], capsys, monkeypatch)
        assert code == 0
        (prop,) = json.loads(out)["results"]["properties"]
        assert prop["status"] == "pass" and prop["trials"] == 5

    @pytest.mark.parametrize("property_id", sorted(properties.REGISTRY))
    def test_registry_key_is_the_result_id(self, property_id):
        _, runner = properties.REGISTRY[property_id]
        result = runner(1, 1)
        assert isinstance(result, properties.PropertyResult)
        assert (result.property_id, result.trials) == (property_id, 1)

    def test_update_weight_propagates_unrelated_errors(self, monkeypatch):
        def broken(v, ci, label):
            raise RuntimeError("not an impossible outcome")

        monkeypatch.setattr(properties.dp, "relative_state_update", broken)
        _, runner = properties.REGISTRY["payoff.update_weight_consistent"]
        with pytest.raises(RuntimeError):
            runner(1, 1)


SCIPY_FREE = """
import sys
from qsim import cli

for argv in (["payoff-demo"], ["no-cloning"], ["decoherence-demo"], ["second-law", "--epsilon", "0"]):
    assert cli.main(argv + ["--output", sys.argv[1]]) == 0, argv
print("scipy" in sys.modules, "numpy.ma" in sys.modules)
"""


def test_scenarios_without_schur_or_expm_never_import_scipy(tmp_path):
    # scipy.linalg is imported inside spectral_decompose_unitary and perturbed_lams only;
    # numpy.ma, which np.unique imports on first call, is not imported at all
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("QSIM_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False False\n"
