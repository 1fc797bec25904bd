"""Named experiment scenarios writing deterministic artifact files.

Each scenario runs one reproduction (a table, a grid figure's data, an
inversion) and writes CSV/PGM outputs plus a manifest JSON recording the
configuration hash, library version and wall time.  Scenario outputs are
bit-stable across reruns with the same configuration.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataUnusableError, RomresError
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
from .phantoms import phantom
from .ratfit import fit_multipoint, fit_pade_toeplitz, node_family

__all__ = ["ExperimentConfig", "run_scenario", "SCENARIOS", "synthesize_1d"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario parameters; flags and config files map onto these fields."""

    scenario: str = "invert1d"
    phantom: str = "rQ"
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
        if self.n_fine == self.n_coarse:
            raise RomresError("fine and coarse grids must differ (inverse crime)")
        if tuple(self.fine_shape) == tuple(self.coarse_shape):
            raise RomresError("fine and coarse grids must differ (inverse crime)")
        NoiseModel(self.epsilon)  # rejects a nonfinite or negative level

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
    y = simulate_response(op.A, b, cfg.T, cfg.h_T)
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
    y = simulate_response(op.A, b, cfg.T, cfg.h_T)
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
    "2d-tilted": lambda cfg, out: _run_invert2d(replace(cfg, phantom="tilted"), out),
    "2d-rect-corner": lambda cfg, out: _run_invert2d(
        replace(cfg, phantom="two-rect-corner"), out),
    "2d-rect-side": lambda cfg, out: _run_invert2d(
        replace(cfg, phantom="two-rect-side"), out),
    "sensmap": _scenario_sensmap,
}


def run_scenario(cfg: ExperimentConfig):
    """Execute a named scenario; returns the list of files written."""
    try:
        fn = SCENARIOS[cfg.scenario]
    except KeyError:
        raise RomresError(f"unknown scenario {cfg.scenario!r}; "
                          f"known: {sorted(SCENARIOS)}") from None
    outdir = Path(cfg.outdir) / cfg.scenario
    t0 = time.perf_counter()
    outputs = fn(cfg, outdir)
    wall = time.perf_counter() - t0
    conf = asdict(cfg)
    conf["fine_shape"] = list(conf["fine_shape"])
    conf["coarse_shape"] = list(conf["coarse_shape"])
    manifest = write_manifest(outdir / "manifest.json", conf,
                              [str(p) for p in outputs], wall)
    return [*outputs, manifest]
