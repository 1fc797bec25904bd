"""Spectrally matched grids of the constant reference medium.

The continued-fraction coefficients of the reference medium (r = 1) are
step sizes of a staggered grid on [0, 1]: primary nodes are partial sums
of kappa, dual nodes partial sums of kappahat.  These grids localize the
sensitivity rows of the Jacobian and provide the normalization for the
ratio reconstruction that visualizes how close the nonlinear map is to
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfrac import ContinuedFraction
from .errors import AdmissibilityError
from .grids import Grid1D, ResistivityField
from .krylov import preconditioner_R
from .ratfit import NodeFamily, node_family

__all__ = [
    "OptimalGrid",
    "RatioReconstruction",
    "reference_grid",
    "check_interlacing",
    "ratio_reconstruction",
]


@dataclass(frozen=True)
class OptimalGrid:
    """Primary/dual staggered nodes with their source coefficients."""

    x: np.ndarray
    x_hat: np.ndarray
    kappa0: np.ndarray
    kappa_hat0: np.ndarray
    family_label: str
    n_fine: int

    @property
    def m(self) -> int:
        return self.x.size

    def to_csv(self) -> str:
        lines = ["node_primary,node_dual,kappa0,kappa_hat0"]
        for j in range(self.m):
            lines.append(f"{self.x[j]!r},{self.x_hat[j]!r},"
                         f"{self.kappa0[j]!r},{self.kappa_hat0[j]!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RatioReconstruction:
    """Resistivity ratios at the grid nodes.

    zeta (at primary nodes) tends to overestimate the resistivity and
    zeta_hat (at dual nodes) to underestimate it; their geometric average
    zeta_tilde tracks it closely.
    """

    zeta: np.ndarray
    zeta_hat: np.ndarray
    zeta_tilde: np.ndarray
    grid: OptimalGrid

    def to_csv(self) -> str:
        lines = ["node_primary,node_dual,zeta,zeta_hat,zeta_tilde"]
        for j in range(self.grid.m):
            lines.append(f"{self.grid.x[j]!r},{self.grid.x_hat[j]!r},"
                         f"{self.zeta[j]!r},{self.zeta_hat[j]!r},{self.zeta_tilde[j]!r}")
        return "\n".join(lines) + "\n"


def reference_grid(m: int, family: NodeFamily | str = "zolotarev",
                   n_fine: int = 1999) -> OptimalGrid:
    """Staggered grid from the constant unit medium.

    Runs the stable chain of ``family`` (a NodeFamily of size m, or a
    preset name) once on the unit field of ``n_fine`` points and takes the
    primary/dual nodes as the partial sums of its kappa/kappahat.  Nothing
    is cached: one call costs a few milliseconds at N = 1999.
    """
    if isinstance(family, str):
        family = node_family(family, m)
    if family.m != m:
        raise AdmissibilityError(f"family size {family.m} != m = {m}")
    field = ResistivityField(np.ones(n_fine), Grid1D(n_fine))
    _, ctx = preconditioner_R(field, family, return_context=True)
    k0, kh0 = ctx.cf.kappa, ctx.cf.kappa_hat
    return OptimalGrid(x=np.cumsum(k0), x_hat=np.cumsum(kh0), kappa0=k0,
                       kappa_hat0=kh0, family_label=family.label, n_fine=n_fine)


def check_interlacing(grid: OptimalGrid) -> tuple[bool, int]:
    """Verify 0 < xhat_1 < x_1 < xhat_2 < ... < x_m <= 1.

    Returns (ok, first violation index into the interleaved sequence; -1
    when the ordering holds).
    """
    seq = np.empty(2 * grid.m)
    seq[0::2] = grid.x_hat
    seq[1::2] = grid.x
    if seq[0] <= 0:
        return False, 0
    diffs = np.diff(seq)
    bad = np.flatnonzero(diffs <= 0)
    if bad.size:
        return False, int(bad[0] + 1)
    if grid.x[-1] > 1.0 + 1e-6:
        return False, 2 * grid.m - 1
    return True, -1


def ratio_reconstruction(cf: ContinuedFraction, grid: OptimalGrid) -> RatioReconstruction:
    """Node-wise resistivity estimates from coefficient ratios.

    zeta_j = (kappa0_j / kappa_j)^2, zetahat_j = (kappahat_j / kappahat0_j)^2
    and their geometric average.
    """
    if cf.m != grid.m:
        raise AdmissibilityError("model size does not match the reference grid")
    zeta = (grid.kappa0 / cf.kappa) ** 2
    zeta_hat = (cf.kappa_hat / grid.kappa_hat0) ** 2
    return RatioReconstruction(zeta=zeta, zeta_hat=zeta_hat,
                               zeta_tilde=np.sqrt(zeta * zeta_hat), grid=grid)
