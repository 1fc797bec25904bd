"""Command-line front end for the experiment scenarios.

Verbs map onto named scenarios; flags mirror the ExperimentConfig fields
and a JSON config file (--config) overrides any flags.
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

# the float-valued flags and their ExperimentConfig fields.  argparse takes
# a value such as "-1e-3" for an option string (it knows only plain negative
# decimals), so main glues the token after one of these flags to it.
_FLOAT_FLAGS = {"--T": "T", "--h-T": "h_T", "--epsilon": "epsilon", "--s-hat": "s_hat"}


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; overrides flags")
    p.add_argument("--phantom")
    p.add_argument("--n-fine", type=int)
    p.add_argument("--n-coarse", type=int)
    p.add_argument("--fine-shape", type=int, nargs=2, metavar=("NX", "NY"))
    p.add_argument("--coarse-shape", type=int, nargs=2, metavar=("NX", "NY"))
    for flag, dest in _FLOAT_FLAGS.items():
        p.add_argument(flag, type=float, dest=dest)
    p.add_argument("--seed", type=int)
    p.add_argument("--m0", type=int)
    p.add_argument("--family")
    p.add_argument("--n-gn", type=int)
    p.add_argument("--n-sources", type=int)
    p.add_argument("--weights", choices=["identity", "adaptive"])
    p.add_argument("--parametrization", choices=["cfrac", "spectral"])
    p.add_argument("--no-nullspace", action="store_true",
                   help="skip the null-space regularization step")
    p.add_argument("--save-models", action="store_true")
    p.add_argument("--outdir")


def _build_config(scenario: str, args: argparse.Namespace) -> ExperimentConfig:
    # each flag's dest is the ExperimentConfig field of the same name;
    # --no-nullspace is the one inverted flag
    values = {"scenario": scenario}
    for f in fields(ExperimentConfig):
        v = getattr(args, f.name, None)
        if v is not None and v is not False:
            values[f.name] = tuple(v) if isinstance(v, list) else v
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
            values[k] = tuple(v) if isinstance(v, list) else v
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


def main(argv=None) -> int:
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

    args = parser.parse_args(_glue_float_values(sys.argv[1:] if argv is None else argv))
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
