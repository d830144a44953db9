"""Generated CLI-contract tests.

Argvs, config files and QSIM_SEED values are drawn from the `config` block
of docs/run_report.schema.json, with the trial count and the dims capped so
that every run is short.  About half of the cases carry one mutation: a
wrong type, a non-finite or out-of-range value, an unknown key or flag, huge
dims, or a spaced value that starts with `-`.  Every case must keep the exit
code contract:

- the exit code is 0, 2, 3 or 4, or 1 when a property-suite property fails;
- a non-zero exit writes one stderr line and no traceback;
- an exit 0 writes a report, and a JSON report validates against the schema.

The search is derandomized and keeps no database, so every run draws the
same cases.  Failures it found are fixed `@example`s; inputs found by hand
are in test_cli.py's `TestMalformedInput`.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from qsim import cli
from qsim.scenarios import ScenarioConfig

hypothesis = pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
st = hypothesis.strategies

SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "run_report.schema.json").read_text())
CONFIG = SCHEMA["properties"]["config"]["properties"]
SCENARIOS = SCHEMA["properties"]["scenario"]["enum"]
KEYS = tuple(k for k in CONFIG if k != "scenario")
# upper bounds that keep every run short; the schema allows more
CAPS = {"trials": 3, "dims": 4}
MAX_ITEMS = 3
# text for paths, keys and malformed values: no `/`, so output paths stay in
# the case's own directory, and no NUL or surrogate, which the environment refuses
TEXT = st.text(st.characters(codec="ascii", exclude_characters="/\x00"), max_size=6)
NON_FINITE = ("nan", "inf", "-inf", "1e400", "-1e400", "NaN", "Infinity")


def flag(key: str) -> str:
    return "--output" if key == "output_path" else "--" + key.replace("_", "-")


def from_schema(node: dict, key: str) -> st.SearchStrategy:
    """Values that `node` admits, capped at CAPS and MAX_ITEMS."""
    if "enum" in node:
        return st.sampled_from(node["enum"])
    kinds = node["type"] if isinstance(node["type"], list) else [node["type"]]
    options = []
    for kind in kinds:
        if kind == "integer":
            options.append(st.integers(node["minimum"], CAPS.get(key, node.get("maximum"))))
        elif kind == "number":
            options.append(st.floats(min_value=node["minimum"], allow_nan=False, allow_infinity=False))
        elif kind == "array":
            items = from_schema(node["items"], key)
            options.append(st.lists(items, min_size=node.get("minItems", 0), max_size=MAX_ITEMS))
        elif kind == "boolean":
            options.append(st.booleans())
        elif kind == "string":  # output_path: a file name in the case's directory
            options.append(TEXT.map(lambda name: "out-" + name))
        else:
            options.append(st.none())
    return st.one_of(options)


VALID = {key: from_schema(CONFIG[key], key) for key in KEYS}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(TEXT, inner, max_size=2),
    max_leaves=4,
)
HUGE_DIMS = st.one_of(
    st.lists(st.integers(2, 2**80), min_size=2, max_size=MAX_ITEMS).filter(lambda d: math.prod(d) > 64),
    st.lists(st.just(2), min_size=7, max_size=80),
)
DASH_VALUES = st.from_regex(r"-[0-9a-gi-z.,]{0,6}", fullmatch=True)  # `-h...` is the help flag


def flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def runs_long(key, value) -> bool:
    """A trial count past CAPS but within the trial cap, so the case would run long."""
    try:
        return key == "trials" and CAPS["trials"] < int(value) <= ScenarioConfig.MAX_TRIALS
    except (TypeError, ValueError, OverflowError):
        return False


# one mutation of a case: (where, key, value); a flag value is command-line text
MUTATIONS = st.one_of(
    st.tuples(st.just("flag"), st.sampled_from(KEYS), TEXT),
    st.tuples(st.just("flag"), st.sampled_from(["epsilon", "epsilon_sweep", "seed", "trials"]),
              st.sampled_from(NON_FINITE)),
    st.tuples(st.just("flag"), st.just("dims"), HUGE_DIMS.map(flag_text)),
    st.tuples(st.just("flag"), st.sampled_from(KEYS), DASH_VALUES),
    st.tuples(st.just("flag"), TEXT.map(lambda name: "bogus" + name), TEXT),
    st.tuples(st.just("config"), st.sampled_from(KEYS), JSON_VALUES),
    st.tuples(st.just("config"), st.sampled_from(["epsilon", "epsilon_sweep", "seed", "dims"]),
              st.sampled_from([math.nan, math.inf, -math.inf, 10**400, [10**400], [math.nan]])),
    st.tuples(st.just("config"), st.just("dims"), HUGE_DIMS),
    st.tuples(st.just("config"), TEXT.filter(lambda k: k not in CONFIG), JSON_VALUES),
    st.tuples(st.just("env"), st.just("QSIM_SEED"), TEXT),
).filter(lambda m: not runs_long(*m[1:]))


@st.composite
def cases(draw):
    scenario = draw(st.sampled_from(SCENARIOS))
    flags = draw(st.fixed_dictionaries({}, optional=VALID))
    config = draw(st.one_of(st.none(), st.fixed_dictionaries({}, optional=VALID)))
    env = draw(st.one_of(st.none(), st.integers(0, 2**64 - 1).map(str)))
    mutation = draw(st.one_of(st.none(), MUTATIONS))
    if mutation is not None:
        where, key, value = mutation
        if where == "flag":
            flags[key] = value
        elif where == "config":
            config = {**(config or {}), key: value}
        else:
            env = value
    if scenario == "property-suite" and "trials" not in flags and "trials" not in (config or {}):
        flags["trials"] = 1  # the default counts take a second
    argv = [scenario]
    for key, value in flags.items():
        if key == "uniform_weights":
            argv += [flag(key)] if value else []
        elif draw(st.booleans()):
            argv += [flag(key), flag_text(value)]
        else:
            argv += [f"{flag(key)}={flag_text(value)}"]
    return argv, None if config is None else json.dumps(config), env


def run_case(argv, config_text, env, tmp: Path):
    """Run one case in `tmp/run`, so that a relative output path lands there."""
    workdir = tmp / "run"
    workdir.mkdir()
    if config_text is not None:
        (tmp / "cfg.json").write_text(config_text)
        argv = argv + ["--config", str(tmp / "cfg.json")]
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    # an empty QSIM_SEED counts as unset
    with mock.patch.dict(os.environ, {"QSIM_SEED": env or ""}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(workdir)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def assert_contract(scenario, code, out, err, workdir: Path):
    assert code in (0, 1, 2, 3, 4)
    if code not in (0, 1):
        assert out == ""
        assert err.startswith("qsim: ") and err.endswith("\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        return
    assert err == ""
    written = list(workdir.iterdir())
    report = out or (written[0].read_text() if len(written) == 1 else "")
    assert report
    if report.startswith("{"):
        doc = json.loads(report)
        jsonschema.validate(doc, SCHEMA)
        failed = [p for p in doc["results"].get("properties", []) if p["status"] == "fail"]
    else:
        rows = list(csv.reader(io.StringIO(report)))
        assert len(rows) >= 2 and all(rows[0])
        failed = [row for row in rows[1:] if row[-1] == "fail"]
    assert (code == 1) == (scenario == "property-suite" and bool(failed))


@hypothesis.settings(
    max_examples=75,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(cases())
# the generator's own finds: an int beyond the double range once raised OverflowError
@hypothesis.example((["copy-demo"], json.dumps({"epsilon": 10**400}), None))
@hypothesis.example((["copy-demo"], json.dumps({"epsilon_sweep": [10**400]}), None))
def test_cli_keeps_its_exit_contract(case):
    argv, config_text, env = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_case(argv, config_text, env, Path(tmp))
        hypothesis.event(f"exit {code}")  # shown by --hypothesis-show-statistics
        assert_contract(argv[0], code, out, err, Path(tmp) / "run")
