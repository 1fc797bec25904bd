#!/usr/bin/env python3
"""Benchmark of romres: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload invert1d --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20 --record results.json

A run imports romres from ``src/`` of the checkout that holds this file,
generates the workload's inputs from ``--seed`` (set-up, repeated and the
median taken), warms up with one tiny operation, then runs operations back to
back until ``--seconds`` have passed, finishing the cycle of inputs it is in.
Each operation's output is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics (op_s, ops_per_s, setup_s,
peak_rss_mb).  ``--trace 1`` is the separate traced run: it wraps the
library's layer functions (see tracer.py), runs every operation once
untraced and once traced on the same input to measure the tracing overhead,
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it name every metric with its unit, the machine and the build.

``--workload all`` runs every workload in its own process, untraced, traced,
and traced with one BLAS thread (the single-threaded baseline), prints all of
their metrics and, with ``--record``, writes them to a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("invert1d", "invert2d", "jacsweep")
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
END_TO_END = {"op_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=NPROC,
                   help=f"BLAS threads, at most nproc ({NPROC})")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--spans", help="traced run: write every span to this JSON-lines file")
    p.add_argument("--record", help="--workload all: write all results to this JSON file")
    args = p.parse_args(argv)
    if not 1 <= args.blas_threads <= NPROC:
        p.error(f"--blas-threads must be between 1 and {NPROC}")
    return args


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_info(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": args.blas_threads, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}


def traced(tr, phase):
    return tr.installed(phase) if tr else contextlib.nullcontext()


def execute(wl, case, tr, phase):
    """Run one operation, traced when ``tr`` is given; (seconds, output or None)."""
    with traced(tr, phase):
        t = time.perf_counter()
        try:
            out = wl.run(case)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        d = time.perf_counter() - t
    return d, out


def run_workload(args, import_s: float) -> dict:
    import workloads
    from tracer import PER_LAYER, Tracer

    cls = workloads.WORKLOADS[args.workload]
    # one tiny operation first: lazy imports and BLAS thread start-up land
    # in set-up, not in the first timed operation
    t = time.perf_counter()
    warm = cls(tiny=True)
    warm.generate(args.seed)
    warm.run(warm.prepare(0))
    warm_s = time.perf_counter() - t

    wl = cls(tiny=args.tiny)
    tr = Tracer() if args.trace else None
    gen_s = []
    for _ in range(1 if tr else SETUP_REPEATS):
        t = time.perf_counter()
        with traced(tr, "setup"):
            wl.generate(args.seed)
        gen_s.append(time.perf_counter() - t)

    durations, errors, overhead = [], [], []
    attempted = failed = 0
    t_run = time.perf_counter()
    i = 0
    # untraced runs finish the cycle of inputs they are in, so every run
    # covers each input of a cycle equally often; traced runs make an even
    # number of pairs, so each order (traced first, untraced first) counts
    # as often in the overhead
    while (i == 0 or time.perf_counter() - t_run < args.seconds
           or i % (2 if tr else wl.cycle)):
        with traced(tr, i):
            case = wl.prepare(i)
        # the traced run executes each input twice, alternating which goes first
        modes = [None] if not tr else ([None, tr] if i % 2 == 0 else [tr, None])
        times = {}
        for mode in modes:
            d, out = execute(wl, case, mode, i)
            times[mode is not None] = d
            attempted += 1
            problems = ["operation raised"] if out is None else wl.check(case, out)
            if problems:
                failed += 1
                print(f"op {i} ({'traced' if mode else 'untraced'}): check failed: "
                      + "; ".join(problems), file=sys.stderr)
            else:
                durations.append(d)
                errors += wl.errors(out)
        if tr:
            overhead.append(times[True] / times[False] - 1.0)
        i += 1
    if not durations:
        raise RuntimeError("no operation completed")

    n = len(durations)
    print(f"{n} operations completed of {attempted} attempted, {failed} failed "
          f"(error_rate {failed / attempted:.4f}); seconds each: "
          + " ".join(f"{d:.3f}" for d in durations))
    if errors:
        print(f"rel_error = {statistics.median(errors):.6g} (median of {len(errors)} "
              f"reconstructions; min {min(errors):.4g}, max {max(errors):.4g})")
    else:
        print("rel_error = n/a (no reconstruction in this workload)")
    if tr:
        metrics = tr.metrics(i, 100.0 * statistics.median(overhead))
        if args.spans:
            tr.write_spans(args.spans)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        metrics = {
            "op_s": statistics.median(durations),
            "ops_per_s": n / sum(durations),
            "setup_s": import_s + warm_s + statistics.median(gen_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"op_s is the median of {n} operations; setup_s = imports {import_s:.3f} s "
              f"+ warm-up {warm_s:.3f} s + median input generation of "
              f"{len(gen_s)} ({', '.join(f'{g:.3f}' for g in gen_s)} s)")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload untraced, traced, and traced on one BLAS thread."""
    modes = [(0, args.blas_threads), (1, args.blas_threads), (1, 1)]
    runs, ok = [], True
    for trace, threads in modes:
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--blas-threads", str(threads)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace} threads={threads}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            machine = next(json.loads(line[len("machine: "):]) for line in lines
                           if line.startswith("machine: "))
            ok &= result["correct"]
            runs.append({"machine": machine, "result": result,
                         "report": lines[:-1]})
            print(f"== {name} trace={trace} blas_threads={threads}")
            print("\n".join(lines[:-1]))
    if args.record:
        Path(args.record).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(json.dumps({"correct": ok, "runs": len(runs)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "romres" / "__init__.py").is_file():
        print(f"romres sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # BLAS reads its thread count when numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import romres

    if Path(romres.__file__).resolve().parent != (SRC / "romres").resolve():
        print(f"imported romres from {romres.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer  # noqa: F401  (imported here so that import time counts in set-up)
    import workloads  # noqa: F401
    import_s = time.perf_counter() - T_START
    print("machine: " + json.dumps(machine_info(args)))
    result = run_workload(args, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
