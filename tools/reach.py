#!/usr/bin/env python3
"""The statements of src/romres that no pipeline reaches.

    python3 tools/reach.py

Runs the package's pipelines under ``sys.settrace`` and records the
``src/romres`` lines they execute:

- every scenario through the command-line front end (``romres.cli.main``) at
  small sizes, under each config variant of ``VARIANTS``;
- the demos, in a temporary working directory, their output discarded;
- one cycle of each workload in ``bench/workloads.py`` at its smoke-test
  size, checked as ``bench/run.py`` checks it (the file is imported, not
  changed).

It then prints every statement inside a function that none of them executed,
grouped by function, each marked as one of

- ``check``: an input check, that is a statement of a branch (an ``if`` or
  ``else`` body, or an ``except`` clause) that ends in ``raise`` or in
  ``warnings.warn``, or a ``raise`` that ends a function;
- ``allowed``: covered by an entry of ``ALLOWLIST``, whose reason is printed;
- ``NEW``: anything else.

A statement counts as reached if any of its lines ran, and a ``def`` line
once its function is called.  The exit status is 1 if a statement is
``NEW``, or if an allowlist entry covers no unreached statement (it then
hides nothing and should go); otherwise 0.  Standard library only; romres is
imported from ``src/`` of the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "romres"
_CO_OPTIMIZED = 0x1  # set on a function's code, not on a module or class body

# Sizes every scenario run shares: the benchmark's smoke-test grids, and a
# 2e5-sample series, which the Laplace tail cut needs (more than 32 chunks
# of 4096 active samples) at the larger zolotarev nodes.
SMALL = ["--n-fine", "59", "--n-coarse", "39", "--fine-shape", "24", "8",
         "--coarse-shape", "18", "6", "--n-sources", "4", "--T", "10", "--h-T", "5e-5",
         "--m0", "4", "--n-gn", "3"]

# (scenarios, flags, config-file entries or None).  The scenarios whose
# sizes scenarios.py fixes (fig-grids, condnum, precond-action) run once;
# the data and inversion paths run under every variant.
VARIANTS = [
    (["synthesize", "table-ratcond", "fig-grids", "condnum", "precond-action", "invert1d",
      "noise-ladder", "2d-tilted", "2d-rect-corner", "2d-rect-side", "sensmap"], SMALL, None),
    (["synthesize", "invert1d", "2d-tilted"], SMALL,
     {"epsilon": 0.05, "seed": 1, "weights": "adaptive", "parametrization": "spectral"}),
    (["invert1d"], SMALL + ["--no-nullspace", "--save-models"],
     {"phantom": "rJ", "family": "fast"}),
    (["2d-rect-side"], SMALL + ["--no-nullspace", "--save-models"], {"family": "fast"}),
]

# (module, function, anchor, reason).  An entry covers the unreached
# statements of the function (its qualified name, Class.method), or with an
# anchor only those of the function's first statement or except clause whose
# first line contains the anchor.
ALLOWLIST = [
    ("_blas", "_thread_controls", "except AttributeError",
     "a bundled OpenBLAS without the thread-count symbols, pinned by a test"),
    ("cfrac", "eval_cfrac", None,
     "criterion 4's reference: the nested fraction evaluated bottom-up"),
    ("cfrac", "solve_fd_scheme", None,
     "criterion 4's reference: the three-point scheme solved directly"),
    ("cli", "main", "except RomresError",
     "reports a refused flag, config file or scenario, pinned by tests"),
    ("errors", "AdmissibilityError.__init__", None,
     "no pipeline's fit fails admissibility (full-size invert1d fits fail as poles)"),
    ("fileio", "render_heatmap", "scaled = np.zeros_like(img)",
     "a constant field renders black, pinned by a test"),
    ("forward", "add_noise", "if noise.level == 0.0",
     "level 0 copies the series; pipelines skip add_noise there, a test pins it"),
    ("grids", "BoundarySegment.midpoint", None,
     "criterion 10 measures distances from a segment's midpoint"),
    ("grids", "_difference_diagonal", "if not sp.issparse(D)",
     "refuses a factor of another shape, which assemble_operator then reports"),
    ("inversion", "_toeplitz_scale", "if lo == 0 or hi == 0",
     "guards a zero first or last moment, which no synthesized model has"),
    ("inversion", "regularize_nullspace", "if solver not in",
     "the benchmark's solver= label, kept until ROADMAP item 0"),
    ("inversion", "_gn_loop", "if res_norm <= floor",
     "safety stop at the chain's rounding level, pinned by a test"),
    ("inversion", "_gn_loop", "if prev_res is not None",
     "safety stop on a stagnating residual, pinned by a test"),
    ("inversion", "_gn_loop", "except RegularizationError",
     "safety path: a failed correction keeps the plain update, pinned by a test"),
    ("inversion", "invert_2d", "if not grid.segments",
     "a grid without segments gets n_sources uniform ones; pipelines pass them"),
    ("inversion", "invert_2d", "m = min(t.m for t in targets)",
     "safety path: sources that admit different m, pinned by a test"),
    ("krylov", "preconditioner_chain", "if generation not in",
     "the benchmark's generation= label, kept until ROADMAP item 0"),
    ("krylov", "doubled_basis", "if not append(",
     "an invariant doubled space needs n < 2m + 1 - nodes cells; a test pins it"),
    ("krylov", "doubled_basis.append", "if nrm <= _SPAN_FLOOR * nrm0",
     "an invariant doubled space needs n < 2m + 1 - nodes cells; a test pins it"),
    ("optgrid", "check_interlacing", None,
     "verdicts on grids that do not interlace; every reference grid interlaces"),
    ("scenarios", "_scenario_noise_ladder", "except DataUnusableError",
     "records m = 0 for a draw no model fits; none here does, a test pins it"),
]


class Statement(NamedTuple):
    """A statement, or an except clause, inside a function."""

    function: str  # qualified name within the module
    line: int  # first line (a decorator's, for a decorated def)
    check: bool  # an input check (module docstring)


def _refuses(body) -> bool:
    """Whether a block ends by raising or by warning (``warnings.warn``)."""
    if not body:
        return False
    last = body[-1]
    if isinstance(last, ast.Raise):
        return True
    call = last.value if isinstance(last, ast.Expr) else None
    return isinstance(call, ast.Call) and ast.unparse(call.func) == "warnings.warn"


class Source:
    """One module's statements, and the lines that map onto each.

    A simple statement owns all its lines; a compound one (if, for, try,
    def, ...) and an except clause own their header lines.  ``executable``
    holds the statements onto which the bytecode of some function maps.
    """

    def __init__(self, path: Path):
        self.text = path.read_text().splitlines()
        source = "\n".join(self.text) + "\n"
        self.statements: dict[int, Statement] = {}
        self.owner: dict[int, int] = {}  # line -> first line of its statement
        self.nodes: list[tuple[str, ast.AST]] = []  # (function, node), for anchors
        self._block(ast.parse(source).body, [], False, False)
        lines, stack = set(), [compile(source, str(path), "exec")]
        while stack:
            co = stack.pop()
            stack += [c for c in co.co_consts if hasattr(c, "co_lines")]
            if co.co_flags & _CO_OPTIMIZED:
                lines |= {ln for _, _, ln in co.co_lines() if ln is not None}
        self.executable = {self.owner[ln] for ln in lines if ln in self.owner}

    def _add(self, function, node, first, header_end, check):
        self.statements[first] = Statement(function, first, check)
        self.nodes.append((function, node))
        for ln in range(first, max(first, header_end) + 1):
            self.owner[ln] = first

    def _block(self, body, names, in_function, check):
        for node in body:
            self._statement(node, names, in_function, check)

    def _branch(self, body, names, in_function, check):
        self._block(body, names, in_function, check or _refuses(body))

    def _statement(self, node, names, in_function, check):
        if isinstance(node, ast.ClassDef):
            self._block(node.body, names + [node.name], in_function, check)
            return
        compound = isinstance(getattr(node, "body", None), list)
        header_end = node.body[0].lineno - 1 if compound else node.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = names + [node.name]
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            self._add(".".join(names), node, first, header_end, check)
            # a raise that ends the body refuses what the branches above let through
            self._block(node.body[:-1], names, True, check)
            self._block(node.body[-1:], names, True, check or _refuses(node.body[-1:]))
            return
        if in_function:
            self._add(".".join(names), node, node.lineno, header_end, check)
        if isinstance(node, ast.If):
            self._branch(node.body, names, in_function, check)
            self._branch(node.orelse, names, in_function, check)
            return
        for field in ("body", "orelse", "finalbody"):
            self._block(getattr(node, field, []), names, in_function, check)
        for handler in getattr(node, "handlers", []):
            refuses = check or _refuses(handler.body)
            if in_function:
                self._add(".".join(names), handler, handler.lineno,
                          handler.body[0].lineno - 1, refuses)
            self._block(handler.body, names, in_function, refuses)

    def anchored(self, function: str, anchor: str | None) -> set[int] | None:
        """First lines of the statements an allowlist entry covers, or None if
        its function or anchor is not found."""
        if anchor is None:
            found = {s.line for s in self.statements.values()
                     if s.function == function or s.function.startswith(function + ".")}
            return found or None
        for owner, node in self.nodes:
            if owner == function and anchor in self.text[node.lineno - 1]:
                return {s.line for s in self.statements.values()
                        if node.lineno <= s.line <= node.end_lineno}
        return None


def load_sources() -> dict[str, Source]:
    return {p.stem: Source(p) for p in sorted(PACKAGE.glob("*.py"))}


def collect(run) -> dict[str, set[int]]:
    """Call ``run()`` under ``sys.settrace``; the romres lines executed, per
    module name.  Only function frames are traced: import-time code is not a
    pipeline's."""
    hit: dict[str, set[int]] = defaultdict(set)
    tracers: dict[str, object] = {}
    prefix = str(PACKAGE) + os.sep

    def tracer_for(filename):
        path = os.path.realpath(filename)
        if not (path.startswith(prefix) and path.endswith(".py")):
            return None
        lines = hit[Path(path).stem]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        local.lines = lines
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_flags & _CO_OPTIMIZED:
            return None
        try:
            local = tracers[code.co_filename]
        except KeyError:
            local = tracers[code.co_filename] = tracer_for(code.co_filename)
        if local is not None:
            local.lines.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return dict(hit)


@contextlib.contextmanager
def _working_directory(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_scenarios(workdir: Path):
    """Every VARIANTS run through ``romres.cli.main``, writing under workdir."""
    from romres import cli

    for i, (names, flags, config) in enumerate(VARIANTS):
        args = list(flags) + ["--outdir", str(workdir / f"variant{i}")]
        if config is not None:
            path = workdir / f"variant{i}.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        for name in names:
            if cli.main(["scenario", name, *args]) != 0:
                raise RuntimeError(f"scenario {name} failed under variant {i}")


def run_demos(workdir: Path):
    """Every script in demos/, as ``__main__``, with workdir as its directory."""
    with _working_directory(workdir):
        for path in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(path), run_name="__main__")


def run_workloads():
    """One cycle of every benchmark workload at its smoke-test size, checked."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for cls in workloads.WORKLOADS.values():
        wl = cls(tiny=True)
        wl.generate(0)
        for i in range(wl.cycle):
            case = wl.prepare(i)
            out = wl.run(case)
            problems = wl.check(case, out)
            if problems:
                raise RuntimeError(f"{wl.name} operation {i}: {'; '.join(problems)}")
            wl.errors(out)


def run_pipelines():
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        run_scenarios(Path(tmp))
        run_demos(Path(tmp))
        run_workloads()


def classify(sources: dict[str, Source], hit: dict[str, set[int]]):
    """(rows, stale): one row (module, Statement, mark, entry) per unreached
    statement, and the allowlist entries that cover none of them.

    ``mark`` is 'check', 'allowed' or 'NEW'; ``entry`` is the covering
    ALLOWLIST entry, or None.  An entry whose function or anchor is missing
    counts as stale.
    """
    rows, covered, stale = [], {}, []
    for entry in ALLOWLIST:
        module, function, anchor, _ = entry
        lines = sources[module].anchored(function, anchor) if module in sources else None
        if lines is None:
            stale.append(entry)
            continue
        for line in lines:
            covered.setdefault((module, line), entry)
    used = set()
    for module, src in sources.items():
        reached = {src.owner[ln] for ln in hit.get(module, ()) if ln in src.owner}
        for line in sorted(src.executable - reached):
            st = src.statements[line]
            entry = covered.get((module, line))
            if entry is not None:
                used.add(entry)
            mark = "allowed" if entry else "check" if st.check else "NEW"
            rows.append((module, st, mark, entry))
    stale += [e for e in ALLOWLIST if e not in used and e not in stale]
    return rows, stale


def report(sources, rows, stale) -> int:
    """Print the unreached statements by function and a summary; the exit status."""
    by_function = defaultdict(list)
    for module, st, mark, entry in rows:
        by_function[(module, st.function)].append((st, mark, entry))
    for (module, function), items in by_function.items():
        print(f"romres.{module}.{function}: {len(items)} unreached")
        for st, mark, _ in items:
            print(f"  {st.line:5d} {mark:<7} {sources[module].text[st.line - 1].strip()[:72]}")
        for reason in dict.fromkeys(e[3] for _, mark, e in items if mark == "allowed"):
            print(f"        allowed: {reason}")
    total = sum(len(s.executable) for s in sources.values())
    counts = {mark: sum(r[2] == mark for r in rows) for mark in ("check", "allowed", "NEW")}
    print(f"{len(rows)} of {total} statements in functions unreached: {counts['check']} input "
          f"checks, {counts['allowed']} allowlisted, {counts['NEW']} new")
    for module, function, anchor, _ in stale:
        where = f" at {anchor!r}" if anchor else ""
        print(f"stale allowlist entry: romres.{module}.{function}{where} covers no unreached "
              "statement")
    return 1 if counts["NEW"] or stale else 0


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    sources = load_sources()
    hit = collect(run_pipelines)
    return report(sources, *classify(sources, hit))


if __name__ == "__main__":
    sys.exit(main())
