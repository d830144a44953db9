"""Command-line entry point.

    qsim <scenario> [--seed N] [--dims 2,2] [--trials N] [--epsilon X]
                    [--epsilon-sweep a,b,c] [--uniform-weights]
                    [--output PATH] [--format json|csv] [--config PATH]

Precedence: CLI flags > config file > built-in defaults.  The environment
variable QSIM_SEED overrides the built-in default seed only.

Exit codes: 0 success, 1 property failure, 2 usage error, 3 capacity error,
4 numerical error (a validation or analysis failure inside a run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import CapacityError, QsimError, UsageError
from .scenarios import SCENARIOS, ScenarioConfig, run_scenario

# every ScenarioConfig field but the scenario, with its default
DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ScenarioConfig) if f.name != "scenario"
}


# config key -> (item type, its name) of the flags given as comma-separated lists
LIST_FLAGS = {"dims": (int, "integers"), "epsilon_sweep": (float, "reals")}


def _parse_list(text: str, cast, kind: str) -> tuple:
    try:
        return tuple(cast(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated {kind}, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a rejected flag is one usage-error line, not the usage block
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        """Parse argv, reading `--flag -value` as `--flag=-value`.

        argparse takes a spaced value such as `-inf` or `-2,2` for an unknown
        option and reports only a missing argument; joined, the value reaches
        the check that names it.  A registered option string or anything
        starting with `--` is never taken as a value, so `--output --format`
        still fails.
        """
        args = list(sys.argv[1:] if args is None else args)
        options = self._option_string_actions
        joined = []
        while args:
            arg = args.pop(0)
            value = args[0] if args else ""
            action = self._flag_action(arg)
            if (
                action is not None
                and action.nargs is None
                and value.startswith("-")
                and not value.startswith("--")
                and value not in options
            ):
                arg = f"{arg}={args.pop(0)}"
            joined.append(arg)
        return super().parse_args(joined, namespace)

    def _flag_action(self, arg: str) -> argparse.Action | None:
        """The action `arg` names in full, or as the unique prefix of a long option."""
        options = self._option_string_actions
        if arg in options:
            return options[arg]
        hits = {options[o] for o in options if arg.startswith("--") and o.startswith(arg)}
        return hits.pop() if len(hits) == 1 else None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="qsim",
        description="Scenario-driven quantum information-flow experiments.",
    )
    p.add_argument("scenario", help=f"one of: {', '.join(SCENARIOS)}")
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    p.add_argument("--dims", type=str, default=None, help="factor dims, e.g. 2,2")
    p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trial count")
    p.add_argument("--epsilon", type=float, default=None, help="selection imperfection")
    p.add_argument(
        "--epsilon-sweep", type=str, default=None, help="ascending list, e.g. 0,0.05,0.1"
    )
    p.add_argument(
        "--output", dest="output_path", metavar="OUTPUT", help="report path (default stdout)"
    )
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument(
        "--uniform-weights",
        action="store_true",
        default=None,
        help="second-law: use uniform branch weights instead of sampling them",
    )
    return p


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_list_of(item_ok):
    return lambda x: isinstance(x, list) and all(item_ok(e) for e in x)


def _or_null(ok):
    return lambda x: x is None or ok(x)


# config-file keys and their types, as in the `config` block of
# docs/run_report.schema.json; ranges are checked by ScenarioConfig
CONFIG_FILE_TYPES = {
    "seed": ("an integer", _is_int),
    "dims": ("a list of integers", _is_list_of(_is_int)),
    "trials": ("an integer", _is_int),
    "epsilon": ("a real", _is_real),
    "epsilon_sweep": ("a list of reals or null", _or_null(_is_list_of(_is_real))),
    "output_path": ("a string or null", _or_null(lambda x: isinstance(x, str))),
    "format": ("a string", lambda x: isinstance(x, str)),
    "uniform_weights": ("a boolean", lambda x: isinstance(x, bool)),
}


def read_config_file(path: str) -> dict:
    """Parse a JSON config file and check every key against its schema type."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise UsageError(
            f"config file {path} must hold a JSON object, got {type(file_cfg).__name__}"
        )
    for key, value in file_cfg.items():
        if key not in CONFIG_FILE_TYPES:
            raise UsageError(
                f"unknown key {key!r} in config file {path}; "
                f"allowed: {', '.join(CONFIG_FILE_TYPES)}"
            )
        kind, ok = CONFIG_FILE_TYPES[key]
        if not ok(value):
            raise UsageError(f"config key {key!r} must be {kind}, got {value!r}")
    return file_cfg


def resolve_config(args: argparse.Namespace) -> tuple[ScenarioConfig, int | None]:
    """Merge defaults, env, config file, and flags into a ScenarioConfig."""
    merged = dict(DEFAULTS)
    if os.environ.get("QSIM_SEED"):
        try:
            merged["seed"] = int(os.environ["QSIM_SEED"])
        except ValueError as exc:
            raise UsageError(f"QSIM_SEED must be an integer") from exc
    file_cfg = read_config_file(args.config) if args.config else {}
    merged.update(file_cfg)
    for key in DEFAULTS:  # each flag's dest is its config key; None means not given
        if (flag := getattr(args, key)) is not None:
            merged[key] = _parse_list(flag, *LIST_FLAGS[key]) if key in LIST_FLAGS else flag
    cfg = ScenarioConfig(scenario=args.scenario, **merged)
    # property-suite runs registry-default counts unless trials was set explicitly
    trials_override = None
    if args.scenario == "property-suite" and (args.trials is not None or "trials" in file_cfg):
        trials_override = cfg.trials
    return cfg, trials_override


def main(argv: list[str] | None = None) -> int:
    try:
        cfg, trials_override = resolve_config(build_parser().parse_args(argv))
        report = run_scenario(cfg, trials_override)
    except CapacityError as exc:
        print(f"qsim: capacity error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"qsim: error: {exc}", file=sys.stderr)
        return 2
    except QsimError as exc:
        print(f"qsim: numerical error: {exc}", file=sys.stderr)
        return 4
    text = report.to_csv() if cfg.format == "csv" else report.to_json()
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qsim: error: cannot write report to {cfg.output_path}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
