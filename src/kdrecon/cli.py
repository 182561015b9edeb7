"""Command-line entry points.

Subcommands: reconstruct, oracle, experiment, ccr, compare.  Exit codes:
0 success, 1 I/O failure, 2 domain error (machine-readable error.json written
to the output directory when possible).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .errors import KdreconError, SchemaError
from .scenarios import compare_distributions, load_scenario, run_scenario
from .serialize import _JSON_NONFINITE, write_json

DEFAULT_OUT_ENV = "KDRECON_OUT"

# scenario subcommand -> (help, the one scenario kind it runs or None for any,
# emit the oracle)
_SCENARIO_COMMANDS = {
    "reconstruct": ("run a discrete or continuous-variable reconstruction scenario", None, False),
    "oracle": ("run a scenario as reconstruct --emit-oracle does: write the "
               "reconstruction and the ground-truth distribution", None, True),
    "experiment": ("run a shot-level photonic experiment scenario", "experiment", False),
    "ccr": ("evaluate the commutation-relation witness for a scenario", "ccr", False),
}


def _add_scenario_args(sub):
    sub.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub.add_argument("--emit-oracle", action="store_true",
                     help="also write the ground-truth distribution")


def _tolerance(text: str) -> float:
    try:
        if float(text) >= 0:  # False for NaN
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdrecon",
        description="Reconstruct quantum pseudo-distributions from weak-measurement data",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _SCENARIO_COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, description=help_text)
        _add_scenario_args(sub)
    cmp_sub = subs.add_parser("compare", help="diff two pseudo-distribution JSON files")
    cmp_sub.add_argument("path_a")
    cmp_sub.add_argument("path_b")
    cmp_sub.add_argument("--tol", type=_tolerance, default=1e-8,
                         help="largest |a - b| allowed per entry (a number >= 0)")
    return parser


def _strict(value):
    """``value`` with each non-finite float as the string "NaN", "Infinity"
    or "-Infinity", so that it dumps as strict JSON."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return list(map(_strict, value))
    if isinstance(value, float) and not math.isfinite(value):
        return _JSON_NONFINITE[repr(float(value))]
    return value


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(DEFAULT_OUT_ENV, "kdrecon-out"))


def _run_scenario_command(args, out: Path) -> dict:
    _, kind, emit_oracle = _SCENARIO_COMMANDS[args.command]
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if kind is not None and scenario.kind != kind:
        raise SchemaError(f"kdrecon {args.command} runs only {kind!r} scenarios, "
                          f"got kind {scenario.kind!r}")
    return run_scenario(scenario, out, emit_oracle=args.emit_oracle or emit_oracle)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None if args.command == "compare" else _out_dir(args)
    try:
        if out is None:
            report = compare_distributions(args.path_a, args.path_b, args.tol)
            text, code = json.dumps(_strict(report), allow_nan=False), 0 if report["pass"] else 2
        else:
            text, code = json.dumps(_run_scenario_command(args, out), default=str), 0
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except KdreconError as exc:
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
                write_json(out / "error.json", {"error": type(exc).__name__, "message": str(exc)})
            except OSError:
                pass
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
