"""Named experiment scenarios writing deterministic artifact files.

Each scenario runs one reproduction (a table, a grid figure's data, an
inversion) and writes CSV/PGM outputs plus a manifest JSON recording the
configuration hash, library version and wall time.  Scenario outputs are
bit-stable across reruns with the same configuration.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataUnusableError, RomresError, _require_real
from .fileio import write_csv, write_json, write_manifest, write_pgm
from .forward import NoiseModel, add_noise, simulate_response
from .grids import (Grid1D, Grid2D, ResistivityField, assemble_operator,
                    assemble_operator_2d, build_difference_1d, source_vector,
                    uniform_segments)
from .inversion import (InversionConfig, data_fitting_Q, invert_1d, invert_2d,
                        moments_from_operator)
from .jacobian import assemble_jacobian
from .krylov import preconditioner_chain, preconditioner_R
from .laplace import laplace_moments
from .optgrid import ratio_reconstruction, reference_grid
from .phantoms import PHANTOMS_1D, PHANTOMS_2D, phantom
from .ratfit import fit_multipoint, fit_pade_toeplitz, node_family

__all__ = ["ExperimentConfig", "run_scenario", "SCENARIOS", "synthesize_1d"]


# the phantom each 2D inversion scenario runs
_SCENARIO_PHANTOMS = {"2d-tilted": "tilted", "2d-rect-corner": "two-rect-corner",
                      "2d-rect-side": "two-rect-side"}


def _shape_grid(name: str, shape) -> Grid2D:
    """The Grid2D of an (nx, ny) pair; RomresError for anything else."""
    if not (isinstance(shape, (tuple, list)) and len(shape) == 2):
        raise RomresError(f"{name} must be a pair of integers (nx, ny), got {shape!r}")
    return Grid2D(nx=shape[0], ny=shape[1])


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario parameters; flags and config files map onto these fields.

    Every field is checked at construction, whatever the scenario reads, by
    building what it names where it can (grids, the noise model, the
    inversion settings), so a bad value is refused before any scenario
    runs.  ``phantom`` is resolved here, once: a 2D inversion scenario runs
    its own phantom (``None`` selects it, and any other name is refused),
    and every other scenario takes a known phantom, ``rQ`` by default.
    """

    scenario: str = "invert1d"
    phantom: str | None = None
    n_fine: int = 299
    n_coarse: int = 199
    fine_shape: tuple[int, int] = (120, 40)
    coarse_shape: tuple[int, int] = (90, 30)
    T: float = 100.0
    h_T: float = 1e-5
    epsilon: float = 0.0
    seed: int = 0
    m0: int = 6
    family: str = "zolotarev"
    s_hat: float = 60.0
    n_gn: int = 5
    n_sources: int = 8
    weights: str = "identity"
    parametrization: str = "cfrac"
    nullspace_correction: bool = True
    save_models: bool = False
    outdir: str = "out"

    def __post_init__(self):
        if not (isinstance(self.scenario, str) and self.scenario in SCENARIOS):
            raise RomresError(f"unknown scenario {self.scenario!r}; known: {sorted(SCENARIOS)}")
        own = _SCENARIO_PHANTOMS.get(self.scenario)
        if self.phantom is None:
            object.__setattr__(self, "phantom", own or "rQ")
        if not (isinstance(self.phantom, str) and (self.phantom in PHANTOMS_1D
                                                   or self.phantom in PHANTOMS_2D)):
            raise RomresError(f"unknown phantom {self.phantom!r}; known: "
                              f"{sorted(PHANTOMS_1D) + sorted(PHANTOMS_2D)}")
        if own is not None and self.phantom != own:
            raise RomresError(f"scenario {self.scenario} runs the {own!r} phantom, "
                              f"not {self.phantom!r}")
        if Grid1D(self.n_fine) == Grid1D(self.n_coarse):
            raise RomresError("fine and coarse grids must differ (inverse crime)")
        if _shape_grid("fine_shape", self.fine_shape) == _shape_grid("coarse_shape",
                                                                     self.coarse_shape):
            raise RomresError("fine and coarse grids must differ (inverse crime)")
        _require_real("T", self.T, positive=True)
        _require_real("h_T", self.h_T, positive=True)
        NoiseModel(self.epsilon, self.seed)
        self.inversion_config()
        if not isinstance(self.save_models, bool):
            raise RomresError(f"save_models must be true or false, got {self.save_models!r}")
        if not isinstance(self.outdir, (str, os.PathLike)):
            raise RomresError(f"outdir must be a path, got {self.outdir!r}")

    def inversion_config(self) -> InversionConfig:
        return InversionConfig(m0=self.m0, family_kind=self.family,
                               s_hat=self.s_hat, n_gn=self.n_gn,
                               weights=self.weights,
                               parametrization=self.parametrization,
                               nullspace_correction=self.nullspace_correction,
                               n_sources=self.n_sources)


def synthesize_1d(cfg: ExperimentConfig):
    """Noisy boundary data of a 1D phantom on the fine grid."""
    grid = Grid1D(cfg.n_fine)
    field = phantom(cfg.phantom, grid)
    op = assemble_operator(field, build_difference_1d(grid))
    b = source_vector(grid).b
    y = simulate_response(op, b, cfg.T, cfg.h_T)
    if cfg.epsilon > 0:
        y = add_noise(y, NoiseModel(cfg.epsilon, cfg.seed))
    return y


def _scenario_synthesize(cfg: ExperimentConfig, outdir: Path):
    d = synthesize_1d(cfg)
    # decimate the stored series so artifacts stay reviewable; the quadrature
    # pathway always consumes the full-resolution samples in memory
    stride = max(1, d.n_samples // 100000)
    t = d.step * np.arange(1, d.n_samples + 1, stride)
    return [write_csv(outdir / "timeseries.csv", ["t", "value"],
                      zip(t, d.samples[::stride])),
            write_json(outdir / "timeseries.json",
                       {"T": d.horizon, "h_T": d.step, "epsilon": cfg.epsilon,
                        "seed": cfg.seed})]


def _scenario_table_ratcond(cfg: ExperimentConfig, outdir: Path):
    grid = Grid1D(cfg.n_fine)
    op = assemble_operator(ResistivityField(np.ones(cfg.n_fine), grid),
                           build_difference_1d(grid))
    b = source_vector(grid).b
    y = simulate_response(op, b, cfg.T, cfg.h_T)
    rows = []
    for m in range(2, 7):
        fam = node_family("zolotarev", m)
        # value and s-derivative at each node
        tau = np.array([laplace_moments(y, s, 2) for s in fam.nodes])
        mod_p = fit_multipoint(tau[:, 0], tau[:, 1], fam)
        mod_t = fit_pade_toeplitz(laplace_moments(y, 0.0, 2 * m))
        rows.append((m, mod_p.cond, mod_t.cond))
    return [write_csv(outdir / "conditioning.csv",
                      ["m", "cond_multipoint", "cond_toeplitz"], rows)]


def _scenario_fig_grids(cfg: ExperimentConfig, outdir: Path):
    out = []
    for label in ("pade0", "zolotarev", "fast"):
        for m in (5, 10):
            g = reference_grid(m, label, n_fine=1999)
            out.append(write_csv(outdir / f"grid_{label}_m{m}.csv",
                                 ["node_primary", "node_dual", "kappa0", "kappa_hat0"],
                                 zip(g.x, g.x_hat, g.kappa0, g.kappa_hat0)))
    return out


def _scenario_condnum(cfg: ExperimentConfig, outdir: Path):
    grid = Grid1D(1999)
    f = ResistivityField(np.ones(1999), grid)
    rows = []
    for label in ("pade0", "zolotarev", "fast"):
        for m in range(2, 9):
            vec, ctx = preconditioner_R(f, node_family(label, m),
                                        return_context=True)
            J = assemble_jacobian(ctx)
            rows.append((label, m, float(np.linalg.cond(J))))
    return [write_csv(outdir / "jacobian_conditioning.csv",
                      ["family", "m", "cond"], rows)]


def _scenario_precond_action(cfg: ExperimentConfig, outdir: Path):
    m = 10
    grid = Grid1D(1999)
    ref = reference_grid(m, "zolotarev", n_fine=1999)
    out = []
    for name in ("rQ", "rL", "rJ", "rH"):
        f = phantom(name, grid)
        vec, ctx = preconditioner_R(f, node_family("zolotarev", m),
                                    return_context=True)
        rec = ratio_reconstruction(ctx.cf, ref)
        out.append(write_csv(outdir / f"ratios_{name}.csv",
                             ["node_primary", "node_dual", "zeta", "zeta_hat",
                              "zeta_tilde"],
                             zip(ref.x, ref.x_hat, rec.zeta, rec.zeta_hat,
                                 rec.zeta_tilde)))
    return out


def _write_inversion(cfg: ExperimentConfig, outdir: Path, hist, header, columns):
    """history.csv, reconstruction.csv (``columns`` under ``header``) and,
    with ``save_models``, one iterate_XX.json per history entry."""
    out = [write_csv(outdir / "history.csv", ["iteration", "residual", "error"],
                     zip(hist.iterations, hist.residual, hist.error)),
           write_csv(outdir / "reconstruction.csv", header, zip(*columns))]
    if cfg.save_models:
        out += [write_json(outdir / f"iterate_{i:02d}.json",
                           {"iteration": i, "r": r.tolist()})
                for i, r in enumerate(hist.iterates)]
    return out


def _run_invert1d(cfg: ExperimentConfig, outdir: Path):
    d = synthesize_1d(cfg)
    icfg = cfg.inversion_config()
    grid = Grid1D(cfg.n_coarse)
    truth = phantom(cfg.phantom, grid)
    rec, hist = invert_1d(d, grid, icfg, r_true=truth.values)
    return _write_inversion(cfg, outdir, hist, ["x", "r_true", "r"],
                            (grid.edge_midpoints, truth.values, rec.values))


def _scenario_noise_ladder(cfg: ExperimentConfig, outdir: Path):
    rows = []
    # every level perturbs the same noiseless series
    y = synthesize_1d(replace(cfg, epsilon=0.0))
    for eps in (5e-2, 5e-3, 1e-4, 0.0):
        for seed in range(10):
            d = add_noise(y, NoiseModel(eps, seed)) if eps > 0 else y
            try:
                target = data_fitting_Q(d, cfg.inversion_config())
                rows.append((eps, seed, target.m))
            except DataUnusableError:
                rows.append((eps, seed, 0))
            if eps == 0.0:
                break
    return [write_csv(outdir / "noise_ladder.csv",
                      ["epsilon", "seed", "terminal_m"], rows)]


def _grids_2d(cfg: ExperimentConfig):
    gf = Grid2D(nx=cfg.fine_shape[0], ny=cfg.fine_shape[1])
    gc = Grid2D(nx=cfg.coarse_shape[0], ny=cfg.coarse_shape[1])
    gf = replace(gf, segments=uniform_segments(gf, cfg.n_sources))
    gc = replace(gc, segments=uniform_segments(gc, cfg.n_sources))
    return gf, gc


def _run_invert2d(cfg: ExperimentConfig, outdir: Path):
    gf, gc = _grids_2d(cfg)
    truth_f = phantom(cfg.phantom, gf)
    op_f = assemble_operator_2d(truth_f, gf)
    sources = [source_vector(gf, s).b for s in gf.segments]
    tau = moments_from_operator(op_f, sources, cfg.s_hat, 2 * cfg.m0)
    truth_c = phantom(cfg.phantom, gc)
    rec, hist = invert_2d(tau, gc, cfg.inversion_config(), r_true=truth_c.values)
    out = _write_inversion(cfg, outdir, hist, ["x", "y", "r_true", "r"],
                           (*gc.cell_centers(), truth_c.values, rec.values))
    out.append(write_pgm(outdir / "reconstruction.pgm", rec.values, gc))
    out.append(write_pgm(outdir / "truth.pgm", truth_c.values, gc))
    return out


def _scenario_sensmap(cfg: ExperimentConfig, outdir: Path):
    gf, gc = _grids_2d(cfg)
    f = ResistivityField(np.ones(gc.n_cells), gc)
    op = assemble_operator_2d(f, gc)
    j_src = cfg.n_sources // 2 - 1
    b = source_vector(gc, gc.segments[j_src]).b
    fam = node_family("single-node", min(cfg.m0, 5), s_hat=cfg.s_hat)
    ctx = preconditioner_chain(op, b, fam)
    J = assemble_jacobian(ctx)
    out = []
    m = fam.m
    for l in range(m):
        for block, row in (("kappa", J[l]), ("kappa_hat", J[m + l])):
            out.append(write_pgm(outdir / f"sens_{block}_{l + 1}.pgm", row, gc))
    xc, yc = gc.cell_centers()
    cols = [xc, yc] + [J[i] for i in range(2 * m)]
    header = ["x", "y"] + [f"dlog_kappa_{l + 1}" for l in range(m)] \
        + [f"dlog_kappa_hat_{l + 1}" for l in range(m)]
    out.append(write_csv(outdir / "sensitivity_rows.csv", header, zip(*cols)))
    return out


SCENARIOS = {
    "synthesize": _scenario_synthesize,
    "table-ratcond": _scenario_table_ratcond,
    "fig-grids": _scenario_fig_grids,
    "condnum": _scenario_condnum,
    "precond-action": _scenario_precond_action,
    "invert1d": _run_invert1d,
    "noise-ladder": _scenario_noise_ladder,
    "2d-tilted": _run_invert2d,
    "2d-rect-corner": _run_invert2d,
    "2d-rect-side": _run_invert2d,
    "sensmap": _scenario_sensmap,
}


def run_scenario(cfg: ExperimentConfig):
    """Execute a named scenario; returns the list of files written."""
    outdir = Path(cfg.outdir) / cfg.scenario
    t0 = time.perf_counter()
    outputs = SCENARIOS[cfg.scenario](cfg, outdir)
    wall = time.perf_counter() - t0
    conf = asdict(cfg)
    conf["fine_shape"] = list(conf["fine_shape"])
    conf["coarse_shape"] = list(conf["coarse_shape"])
    manifest = write_manifest(outdir / "manifest.json", conf,
                              [str(p) for p in outputs], wall)
    return [*outputs, manifest]
