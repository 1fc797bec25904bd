"""Span tracer for the traced benchmark run.

The tracer replaces a fixed list of romres functions with timing wrappers at
every name a caller can reach them by: each ``romres.*`` module attribute that
is bound to the function (``romres.inversion.preconditioner_chain`` as well as
``romres.krylov.preconditioner_chain``), and the class attribute for methods
(``romres.forward.shifted_solver.solve``).  Nothing under ``src/`` changes;
leaving ``Tracer.installed`` puts the original objects back.

Every call becomes a span (name, start, end, parent, phase).  A span's self
time is its duration minus the time covered by its child spans, so a layer's
time excludes the layers it calls.  Counters that only the arguments or the
result reveal (factorizations, samples read, basis generation, fit attempts,
step halvings, dense bytes) are taken at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
import weakref
from collections import defaultdict

# exp(x) is exactly 0.0 in float64 below this argument; the quadratures skip
# samples past it, so they are never read
_EXP_UNDERFLOW = -746.0


def _samples(series, s):
    if s <= 0:
        return series.n_samples
    k = int(math.floor(-_EXP_UNDERFLOW / (s * series.step))) + 1
    return min(series.n_samples, max(k, 1))


def _regularize_key(a):
    solver = a["solver"]
    if solver == "auto":
        solver = "kkt" if a["w"] is None else "nullspace"
    return f"inversion.regularize_{solver}"


def _jacobian_key(a):
    return f"jacobian.{'sequential' if a['ctx'].basis.generation == 'sequential' else 'fast'}"


def _before_solve(tr, a):
    shifts = tr.shifts.setdefault(a["self"], set())
    s = float(a["s"])
    if s not in shifts:
        shifts.add(s)
        tr.count("forward.factorizations")


def _after_quad(tr, a, out):
    tr.count("laplace.samples_read", _samples(a["series"], a["s"]))


def _after_moments(tr, a, out):
    tr.count("laplace.samples_read", a["K"] * _samples(a["series"], a["s_hat"]))


def _after_chain(tr, a, ctx):
    tr.count(f"krylov.{ctx.basis.generation}_bases")
    if a["generation"] == "auto" and ctx.basis.generation == "sequential":
        tr.count("krylov.sequential_fallbacks")


def _after_jacobian(tr, a, J):
    tr.count("jacobian.columns", J.shape[1])


def _after_fit(tr, a, target):
    tr.count("inversion.fit_attempts", len(target.attempts))
    tr.count("inversion.fit_targets")


def _after_gn(tr, a, out):
    # the step starts at alpha and is halved until the update stays positive
    tr.count("inversion.halvings", round(math.log2(a["alpha"] / out[2])))


def _after_regularize(tr, a, out):
    n, k = a["r_gn"].size, a["J"].shape[0]
    dense = n if _regularize_key(a).endswith("nullspace") else n + k
    tr.peak("inversion.regularize_bytes", 8 * dense * dense)


def _after_invert(tr, a, out):
    hist = out[1]
    tr.count("inversion.corrections_discarded",
             sum("null-space correction" in note for note in hist.notes))


# (module, attribute, span name or name-from-arguments, before hook, after hook)
TARGETS = [
    ("romres.grids", "assemble_operator", "grids.assemble", None, None),
    ("romres.grids", "assemble_operator_2d", "grids.assemble", None, None),
    ("romres.grids", "build_difference_2d", "grids.build_difference_2d", None, None),
    ("romres.forward", "simulate_response", "forward.simulate", None, None),
    ("romres.forward", "add_noise", "forward.add_noise", None, None),
    ("romres.forward", "shifted_solver.solve", "forward.solve", _before_solve, None),
    ("romres.forward", "transfer_moments", "forward.moments", None, None),
    ("romres.laplace", "laplace_transform", "laplace.quad", None, _after_quad),
    ("romres.laplace", "laplace_derivative", "laplace.quad", None, _after_quad),
    ("romres.laplace", "laplace_moments", "laplace.quad", None, _after_moments),
    ("romres.ratfit", "fit_multipoint", "ratfit.fit", None, None),
    ("romres.ratfit", "fit_pade_toeplitz", "ratfit.fit", None, None),
    ("romres.ratfit", "to_pole_residue", "ratfit.pole_residue", None, None),
    ("romres.cfrac", "pole_residue_to_cfrac", "cfrac.convert", None, None),
    ("romres.krylov", "preconditioner_chain", "krylov.chain", None, _after_chain),
    ("romres.jacobian", "assemble_jacobian", _jacobian_key, None, _after_jacobian),
    ("romres.inversion", "data_fitting_Q", "inversion.fit", None, _after_fit),
    ("romres.inversion", "data_fitting_moments", "inversion.fit", None, _after_fit),
    ("romres.inversion", "gauss_newton_step", "inversion.gn_step", None, _after_gn),
    ("romres.inversion", "regularize_nullspace", _regularize_key, None, _after_regularize),
    ("romres.inversion", "invert_1d", "inversion.invert", None, _after_invert),
    ("romres.inversion", "invert_2d", "inversion.invert", None, _after_invert),
]

# per-layer metric -> (unit, better); the order is the report order
PER_LAYER = {
    "grids.assemble_s": ("s", "lower"),
    "grids.assemble_calls": ("count", "lower"),
    "grids.build_difference_2d_s": ("s", "lower"),
    "grids.build_difference_2d_calls": ("count", "lower"),
    "forward.simulate_s": ("s", "lower"),
    "forward.add_noise_s": ("s", "lower"),
    "forward.solve_s": ("s", "lower"),
    "forward.solve_calls": ("count", "lower"),
    "forward.factorizations": ("count", "lower"),
    "forward.moments_s": ("s", "lower"),
    "laplace.quad_s": ("s", "lower"),
    "laplace.quad_calls": ("count", "lower"),
    "laplace.samples_read": ("count", "lower"),
    "ratfit.fit_s": ("s", "lower"),
    "ratfit.fit_calls": ("count", "lower"),
    "ratfit.pole_residue_s": ("s", "lower"),
    "cfrac.convert_s": ("s", "lower"),
    "cfrac.convert_calls": ("count", "lower"),
    "krylov.chain_s": ("s", "lower"),
    "krylov.chain_calls": ("count", "lower"),
    "krylov.sequential_fallbacks": ("count", "lower"),
    "krylov.raw_ratio": ("ratio", "higher"),
    "jacobian.fast_s": ("s", "lower"),
    "jacobian.fast_calls": ("count", "lower"),
    "jacobian.sequential_s": ("s", "lower"),
    "jacobian.sequential_calls": ("count", "lower"),
    "jacobian.columns": ("count", "lower"),
    "inversion.fit_attempts": ("count", "lower"),
    "inversion.fit_useful_ratio": ("ratio", "higher"),
    "inversion.gn_step_s": ("s", "lower"),
    "inversion.gn_steps": ("count", "lower"),
    "inversion.halvings": ("count", "lower"),
    "inversion.regularize_kkt_s": ("s", "lower"),
    "inversion.regularize_kkt_calls": ("count", "lower"),
    "inversion.regularize_nullspace_s": ("s", "lower"),
    "inversion.regularize_nullspace_calls": ("count", "lower"),
    "inversion.regularize_bytes": ("bytes", "lower"),
    "inversion.corrections_discarded": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """Collects spans and counters while installed; see the module docstring.

    ``phase`` labels new spans: ``"setup"`` or the index of the operation.
    """

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, phase]
        self.self_s = defaultdict(lambda: defaultdict(float))   # phase -> name -> s
        self.calls = defaultdict(lambda: defaultdict(int))      # phase -> name -> n
        self.counts = defaultdict(lambda: defaultdict(float))   # phase -> name -> n
        self.peaks = defaultdict(float)
        self.shifts = weakref.WeakKeyDictionary()  # solver -> shifts factorized
        self.phase = "setup"
        self._stack = []       # [span index, time covered by children]
        self._saved = []       # (owner, attribute, original)

    def count(self, name, n=1):
        self.counts[self.phase][name] += n

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks[name], value)

    def _install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "romres" or name.startswith("romres."))]
        for mod_name, attr, key, before, after in TARGETS:
            owner = importlib.import_module(mod_name)
            if "." in attr:  # method: one binding, on the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, key, before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, key, before, after)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, phase):
        """Wrappers in place for the block; its spans are labelled ``phase``."""
        self.phase = phase
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, key, before, after):
        sig = inspect.signature(fn)
        bind = callable(key) or before or after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = None
            if bind:
                a = sig.bind(*args, **kwargs)
                a.apply_defaults()
                a = a.arguments
            name = key(a) if callable(key) else key
            if before:
                before(self, a)
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.phase]
            self.spans.append(span)
            self._stack.append([idx, 0.0])
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span[2] = end
                _, child = self._stack.pop()
                dur = end - span[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self.self_s[span[4]][name] += dur - child
                self.calls[span[4]][name] += 1
            if after:
                after(self, a, out)
            return out

        return wrapper

    def metrics(self, n_ops: int, overhead_pct: float) -> dict:
        """Per-layer metrics: the set-up pass plus the mean operation.

        Ratios and the dense-bytes peak are taken over the whole traced run.
        """
        def per_op(table, name):
            ops = sum(table[p][name] for p in table if p != "setup")
            return table["setup"][name] + ops / max(n_ops, 1)

        def total(name):
            return sum(self.counts[p][name] for p in self.counts)

        out = {}
        for metric in PER_LAYER:
            stem, _, kind = metric.rpartition("_")
            if kind == "s":
                out[metric] = per_op(self.self_s, stem)
            elif kind == "calls":
                out[metric] = float(per_op(self.calls, stem))
        out["forward.factorizations"] = per_op(self.counts, "forward.factorizations")
        out["laplace.samples_read"] = per_op(self.counts, "laplace.samples_read")
        out["krylov.sequential_fallbacks"] = per_op(self.counts, "krylov.sequential_fallbacks")
        raw, seq = total("krylov.raw_bases"), total("krylov.sequential_bases")
        out["krylov.raw_ratio"] = raw / (raw + seq) if raw + seq else 0.0
        out["jacobian.columns"] = per_op(self.counts, "jacobian.columns")
        out["inversion.fit_attempts"] = per_op(self.counts, "inversion.fit_attempts")
        attempts = total("inversion.fit_attempts")
        out["inversion.fit_useful_ratio"] = (total("inversion.fit_targets") / attempts
                                             if attempts else 0.0)
        out["inversion.gn_steps"] = float(per_op(self.calls, "inversion.gn_step"))
        out["inversion.halvings"] = per_op(self.counts, "inversion.halvings")
        out["inversion.regularize_bytes"] = float(self.peaks["inversion.regularize_bytes"])
        out["inversion.corrections_discarded"] = per_op(
            self.counts, "inversion.corrections_discarded")
        out["trace.overhead_pct"] = overhead_pct
        missing = set(PER_LAYER) - set(out)
        if missing:
            raise RuntimeError(f"per-layer metrics not derived: {sorted(missing)}")
        return {k: float(out[k]) for k in PER_LAYER}

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent, phase, self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        with open(path, "w") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase,
                                     "self_s": end - start - child[i]}) + "\n")
