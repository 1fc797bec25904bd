"""Command-line front end for the experiment scenarios.

Verbs map onto named scenarios; the flags are generated from the
ExperimentConfig fields, and a JSON config file (--config) overrides any
flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import RomresError
from .scenarios import SCENARIOS, ExperimentConfig, run_scenario

_VERBS = {
    "synthesize": "synthesize",
    "invert1d": "invert1d",
    "invert2d": "2d-tilted",
    "grids": "fig-grids",
    "condnum": "condnum",
    "sensmap": "sensmap",
}

# every ExperimentConfig field but the scenario, which the verb names, has a
# flag whose dest is the field: --n-fine sets n_fine, taking the type of the
# field's default (str where it is None); nullspace_correction is the one
# inverted flag, --no-nullspace
_FLAGS = {"--" + f.name.replace("_", "-"): f for f in fields(ExperimentConfig)
          if f.name != "scenario"}
# argparse takes a value such as "-1e-3" for an option string (it knows only
# plain negative decimals), so main glues the token after a float flag to it
_FLOAT_FLAGS = {flag for flag, f in _FLAGS.items() if isinstance(f.default, float)}


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; overrides flags")
    for flag, f in _FLAGS.items():
        if f.name == "nullspace_correction":
            p.add_argument("--no-nullspace", action="store_true",
                           help="skip the null-space regularization step")
        elif isinstance(f.default, bool):
            p.add_argument(flag, action="store_true")
        elif isinstance(f.default, tuple):
            p.add_argument(flag, type=int, nargs=2, metavar=("NX", "NY"))
        else:
            p.add_argument(flag, type=str if f.default is None else type(f.default))


def _build_config(scenario: str, args: argparse.Namespace) -> ExperimentConfig:
    values = {"scenario": scenario}
    for f in _FLAGS.values():
        v = getattr(args, f.name, None)
        if v is not None and v is not False:
            values[f.name] = v
    if args.no_nullspace:
        values["nullspace_correction"] = False
    if args.config:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise RomresError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(file_conf, dict):
            raise RomresError(f"config file {args.config} must hold a JSON object")
        known = {f.name for f in fields(ExperimentConfig)}
        for k, v in file_conf.items():
            if k not in known:
                raise RomresError(f"unknown config key {k!r}")
            values[k] = v
    return ExperimentConfig(**values)


def _glue_float_values(argv):
    """argv with every float flag and the token after it joined by '='."""
    out = []
    for tok in argv:
        if out and out[-1] in _FLOAT_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romres",
        description="Resistivity inversion experiments via reduced-order models")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb, help=f"run the {_VERBS[verb]} scenario")
        _add_config_flags(p)
    p = sub.add_parser("scenario", help="run a named scenario")
    p.add_argument("name", choices=sorted(SCENARIOS))
    _add_config_flags(p)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(_glue_float_values(sys.argv[1:] if argv is None else argv))
    scenario = args.name if args.verb == "scenario" else _VERBS[args.verb]
    try:
        cfg = _build_config(scenario, args)
        outputs = run_scenario(cfg)
    except RomresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
