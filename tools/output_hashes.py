#!/usr/bin/env python3
"""SHA-256 of the benchmark workloads' outputs at one seed.

    python3 tools/output_hashes.py --seed 0
    python3 tools/output_hashes.py --root PARENT_CHECKOUT --seed 0 --tiny

Imports romres from ``src/`` and the workloads from ``bench/workloads.py`` of
``--root`` (default: the checkout holding this script), generates each
workload's inputs from ``--seed`` as ``bench/run.py`` does, runs one cycle
of its inputs (on jacsweep, whose every operation draws a medium and a probe
direction, the first 2 operations) and prints one hash per output part:

- jacsweep: the rows (family, m, basis label, cond(J), finite-difference
  mismatch) of every operation;
- invert1d: the reconstructions, the residual histories, and the history
  notes with the fitted m;
- invert2d: per weight mode, the reconstructions, and the notes with the
  fitted m.

Floats are hashed by their bytes, so two checkouts print the same line
exactly when that part of their outputs is bitwise equal.  The BLAS thread
count is set to nproc before numpy is imported, as ``bench/run.py`` does by
default.  Nothing is written; numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("invert1d", "invert2d", "jacsweep")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
JACSWEEP_OPS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", type=Path, default=ROOT,
                   help="checkout whose src/ and bench/workloads.py are hashed")
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tiny", action="store_true", help="the benchmark's smoke-test sizes")
    args = p.parse_args(argv)
    args.root = args.root.resolve()
    if not (args.root / "bench" / "workloads.py").is_file():
        p.error(f"{args.root} holds no bench/workloads.py")
    return args


class Digest:
    """A SHA-256 fed with arrays (by dtype, shape and bytes) and strings."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        import numpy as np  # not at module level: main() sets the BLAS threads first

        for item in items:
            if isinstance(item, str):
                self._h.update(b"s" + item.encode() + b"\0")
            else:
                a = np.ascontiguousarray(item)
                self._h.update(f"a{a.dtype.str}{a.shape}".encode() + a.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def hash_outputs(name: str, outputs) -> dict[str, str]:
    """Part name -> SHA-256 over the outputs of every operation, in order."""
    parts = {}

    def part(key):
        return parts.setdefault(key, Digest())

    for out in outputs:
        if name == "jacsweep":
            for label, m, gen, cond, mismatch in out:
                part("rows").add(label, gen, [m], [cond, mismatch])
            continue
        modes = ("identity", "adaptive") if name == "invert2d" else ("",)
        for mode, (phantom, r, hist) in zip(modes, out):
            prefix = f"{mode} " if mode else ""
            part(prefix + "reconstructions").add(phantom, r)
            if name == "invert1d":
                part("residuals").add(hist.residual)
            part(prefix + "notes").add(phantom, [hist.m], *hist.notes)
    return {key: d.hexdigest() for key, d in parts.items()}


def run_workload(workloads, name: str, args) -> tuple[int, dict[str, str]]:
    wl = workloads.WORKLOADS[name](tiny=args.tiny)
    wl.generate(args.seed)
    n_ops = JACSWEEP_OPS if name == "jacsweep" else wl.cycle
    outputs = [wl.run(wl.prepare(i)) for i in range(n_ops)]
    return n_ops, hash_outputs(name, outputs)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(args.root / "src"), str(args.root / "bench")]
    import workloads

    names = NAMES if args.workload == "all" else (args.workload,)
    size = "tiny" if args.tiny else "full"
    for name in names:
        n_ops, hashes = run_workload(workloads, name, args)
        for key, digest in hashes.items():
            print(f"{name} seed {args.seed} {size} ({n_ops} ops) {key}: {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
