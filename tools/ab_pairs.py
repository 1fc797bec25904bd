#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT CHANGE --workload invert1d --seed 0 --pairs 10

Each pair runs ``bench/run.py`` once from each checkout, in its own process,
with the same arguments, leaving the run length and the thread count to
``bench/run.py``'s defaults; the side that runs first swaps from one pair to the
next.  For every metric the runs report (the end-to-end ones, or the
per-layer ones with ``--trace 1``) it prints each side's median and
quartiles over all runs and the number of pairs the change won, ties counting
for neither side, with the direction ("better": lower or higher) taken from
the change checkout's BENCHMARK.json.  Two verdicts follow for each metric:

- ``claim``: a gain may be claimed ("met") only when the change wins at least
  nine tenths of the pairs and its median is better than the parent's by more
  than the parent's interquartile distance; otherwise "not met";
- ``bound``, for the metrics that carry a ``bound`` in BENCHMARK.json (a
  relative worsening): "worse" when the change's median is worse than the
  parent's by more than the bound, "unresolved" when it is not but the
  parent's interquartile distance is wider than the bound times its median
  and the change did not win every pair, and "within" otherwise.

Failed operations and the median rel_error line are printed per side as
well.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for side in SIDES:
        setattr(args, side, getattr(args, side).resolve())
        if not (getattr(args, side) / "bench" / "run.py").is_file():
            p.error(f"{getattr(args, side)} holds no bench/run.py")
    return args


def run_once(root: Path, args) -> dict:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    match = next((re.match(r"rel_error = (\S+)", line) for line in lines
                  if line.startswith("rel_error = ")), None)
    result["rel_error"] = match.group(1) if match else "n/a"
    return result


def metric_specs(root: Path) -> dict[str, dict]:
    """Metric name -> its entry in BENCHMARK.json ("better", and "bound" if gated)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec.get("per_layer", [])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdicts(parent, change, sign: float, bound: float | None) -> tuple[int, str, str]:
    """Pairs the change won, and the claim and bound verdicts of the rule in
    the module docstring.

    ``sign`` is -1 when lower is better and +1 when higher is; ``bound`` is
    the metric's relative bound, or None if it has none.
    """
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    p_med = statistics.median(parent)
    gain = sign * (statistics.median(change) - p_med)
    claim = "met" if won >= 0.9 * len(parent) and gain > q3 - q1 else "not met"
    if bound is None:
        return won, claim, "-"
    if -gain > bound * abs(p_med):
        return won, claim, "worse"
    if q3 - q1 > bound * abs(p_med) and won < len(parent):
        return won, claim, "unresolved"
    return won, claim, "within"


def report(runs, specs):
    names = [k for k in runs[0]["change"]["metrics"] if k in runs[0]["parent"]["metrics"]]
    print(f"{'metric':<42} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'won':>7} {'claim':>8} {'bound':>10}")
    for name in names:
        values = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in SIDES}
        unit = runs[0]["change"]["metrics"][name]["unit"]
        spec = specs.get(name, {})
        sign = -1.0 if spec.get("better", "lower") == "lower" else 1.0
        won, claim, bound = verdicts(values["parent"], values["change"], sign, spec.get("bound"))
        cells = []
        for s in SIDES:
            q1, q3 = quartiles(values[s])
            cells.append(f"{statistics.median(values[s]):.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name + ' (' + unit + ')':<42} {cells[0]:>34} {cells[1]:>34} "
              f"{won:>3}/{len(runs):<3} {claim:>8} {bound:>10}")
    for s in SIDES:
        failed = sum(r[s]["failed"] for r in runs)
        attempted = sum(r[s]["attempted"] for r in runs)
        errors = sorted({r[s]["rel_error"] for r in runs})
        print(f"{s}: {failed} of {attempted} operations failed; rel_error {', '.join(errors)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    specs = metric_specs(args.change)
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {s: run_once(getattr(args, s), args) for s in order}
        runs.append(pair)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + "; ".join(
            f"{s} " + ", ".join(f"{k} {v['value']:.4g}" for k, v in pair[s]["metrics"].items()
                                if k in ("op_s", "setup_s"))
            for s in SIDES), flush=True)
    report(runs, specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
