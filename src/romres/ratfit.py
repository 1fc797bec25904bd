"""Rational interpolation of transfer-function data.

Two SVD-based fitting routes: osculatory interpolation at distinct nodes
(null vector of the stacked Vandermonde system) and moment matching at one
node (null vector of a Toeplitz matrix of Taylor coefficients).  Both
return a numerator/denominator pair that is converted to poles and
residues, the partial-fraction form of the reduced transfer function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousFitWarning, RomresError, SpectralValidityError, _integer_array,
                     _real_array, _require_integer, _require_real)

__all__ = [
    "NodeFamily",
    "RationalModel",
    "PoleResidue",
    "nodes_geometric",
    "node_family",
    "fit_multipoint",
    "fit_pade_toeplitz",
    "to_pole_residue",
]


@dataclass(frozen=True)
class NodeFamily:
    """Interpolation nodes with multiplicities.

    ``multiplicities[j]`` is the depth of resolvent powers taken at node j;
    the reduced model size is m = sum of multiplicities.  Distinct-node
    families match value and first derivative at each node; a single node of
    multiplicity m matches the first 2m Taylor coefficients there, and is
    ``confluent``.  A family is its nodes and multiplicities only.
    """

    nodes: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        nodes = _real_array("nodes", self.nodes)
        mult = _integer_array("multiplicities", self.multiplicities)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "multiplicities", mult)
        if nodes.shape != mult.shape or nodes.ndim != 1 or nodes.size == 0:
            raise RomresError("nodes and multiplicities must be matching vectors")
        if not np.all(np.isfinite(nodes) & (nodes >= 0)):
            raise RomresError("nodes must be finite and nonnegative")
        if np.any(mult < 1):
            raise RomresError("multiplicities must be positive")
        if nodes.size > 1:
            if np.any(np.diff(nodes) <= 0):
                raise RomresError("distinct nodes must be strictly increasing")
            if np.any(mult != 1):
                raise RomresError("repeated nodes must be merged into one entry")

    @property
    def m(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def confluent(self) -> bool:
        return bool(np.any(self.multiplicities > 1))


def nodes_geometric(m: int, s1: float, ratio: float) -> NodeFamily:
    """Geometric node ladder s_j = s1 * ratio^(j-1), j = 1..m."""
    _require_integer("m", m)
    _require_real("first node s1", s1, positive=True)
    if _require_real("geometric ratio", ratio) <= 1:
        raise RomresError("geometric ratio must exceed 1")
    # a ladder past the float range is refused by NodeFamily as not finite
    with np.errstate(over="ignore"):
        nodes = s1 * ratio ** np.arange(m)
    return NodeFamily(nodes, np.ones(m, dtype=int))


def node_family(kind: str, m: int, s_hat: float = 60.0) -> NodeFamily:
    """Preset families of size m.

    zolotarev   geometric ladder s1=2, ratio 1+12/m, a near-optimal spread
                for rational approximation on a positive real interval
    fast        same ladder with the ratio cubed: nodes that grow too fast
                and cluster the staggered grid at the measurement point
    pade0       single node at s = 0 with multiplicity m
    single-node single node at ``s_hat`` with multiplicity m (the 2D
                inversion's family; the other kinds ignore ``s_hat``)
    """
    _require_integer("m", m, low=1)
    if kind == "zolotarev":
        return nodes_geometric(m, 2.0, 1.0 + 12.0 / m)
    if kind == "fast":
        return nodes_geometric(m, 2.0, (1.0 + 12.0 / m) ** 3)
    if kind == "pade0":
        return NodeFamily(np.array([0.0]), np.array([m]))
    if kind == "single-node":
        s_hat = _require_real("s_hat", s_hat, nonnegative=True)
        return NodeFamily(np.array([s_hat]), np.array([m]))
    raise RomresError(f"unknown node family {kind!r}")


@dataclass(frozen=True)
class RationalModel:
    """Y_m(s) = f(s)/g(s) with deg f <= m-1, deg g = m.

    Coefficients are stored in the working variable sigma = (s - shift)/scale
    used by the fit; ``numerator``/``denominator`` are ascending in sigma.
    The model is read through ``to_pole_residue``, whose ``PoleResidue``
    evaluates it.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    scale: float = 1.0
    shift: float = 0.0
    cond: float = float("nan")

    def __post_init__(self):
        f = _real_array("numerator", self.numerator)
        g = _real_array("denominator", self.denominator)
        object.__setattr__(self, "numerator", f)
        object.__setattr__(self, "denominator", g)
        if not np.any(g != 0):
            raise RomresError("denominator is identically zero")
        if f.size != g.size - 1:
            raise RomresError("need deg f = deg g - 1")

    @property
    def m(self) -> int:
        return self.denominator.size - 1


@dataclass(frozen=True)
class PoleResidue:
    """Spectral parameters {(theta_j, c_j)}: Y_m(s) = sum c_j/(s + theta_j)."""

    theta: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        theta = _real_array("theta", self.theta, expected="matching finite vectors", finite=True)
        c = _real_array("c", self.c, expected="matching finite vectors", finite=True)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "c", c)
        if theta.shape != c.shape or theta.ndim != 1 or theta.size == 0:
            raise RomresError("theta and c must be matching finite vectors")

    @property
    def m(self) -> int:
        return self.theta.size

    def __call__(self, s):
        return self._terms(s, 1).sum(axis=-1)

    def derivative(self, s):
        return -self._terms(s, 2).sum(axis=-1)

    def _terms(self, s, power):
        """c_j/(s + theta_j)**power at each point s; a zero residue's term is
        identically zero, so it is left at 0 rather than divided (0/0 at its pole)."""
        s = _real_array("s", s, expected="finite real points", finite=True)
        with np.errstate(divide="ignore", over="ignore"):  # +-inf at a pole, 0 at a huge |s|
            d = (s[..., None] + self.theta) ** power
            return np.divide(self.c, d, out=np.zeros(d.shape), where=self.c != 0)


def fit_multipoint(values, derivatives, family: NodeFamily) -> RationalModel:
    """Osculatory rational fit at distinct positive nodes.

    Builds the 2m x (2m+1) stacked system in the scaled variable
    s/s_max (scaling keeps the Vandermonde blocks tame), takes the last
    right singular vector as the stacked numerator/denominator coefficients
    and records cond = sigma_1/sigma_2m of the system matrix.
    """
    if family.confluent:
        raise RomresError("confluent families are fitted from moments")
    s_nodes = family.nodes
    m = s_nodes.size
    expected = f"a finite vector of one entry per node ({m})"
    Y = _real_array("values", values, expected=expected)
    Yp = _real_array("derivatives", derivatives, expected=expected)
    if Y.shape != (m,) or Yp.shape != (m,) or not np.all(np.isfinite(Y) & np.isfinite(Yp)):
        raise RomresError(f"values and derivatives of shapes {Y.shape} and {Yp.shape} do not "
                          f"match {expected}")

    s_max = s_nodes[-1]
    s = s_nodes / s_max
    powers = np.arange(m + 1)
    S = s[:, None] ** powers[None, :]                       # m x (m+1)
    Sp = np.zeros_like(S)
    Sp[:, 1:] = powers[1:] * s[:, None] ** (powers[1:] - 1)[None, :]
    Sp /= s_max

    P = np.zeros((2 * m, 2 * m + 1))
    P[:m, :m] = S[:, :m]
    P[:m, m:] = -Y[:, None] * S
    P[m:, :m] = Sp[:, :m]
    P[m:, m:] = -Yp[:, None] * S - Y[:, None] * Sp

    _, sv, Vh = np.linalg.svd(P)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if sv[-1] <= 1e-14 * sv[0]:
        warnings.warn("trailing singular values nearly coincide; fit is ambiguous",
                      AmbiguousFitWarning)
    u = Vh[-1]
    return RationalModel(numerator=u[:m], denominator=u[m:], scale=s_max,
                         shift=0.0, cond=cond)


def fit_pade_toeplitz(moments, shift: float = 0.0, scale: float = 1.0) -> RationalModel:
    """Rational fit from 2m Taylor coefficients at one expansion point.

    ``moments`` are tau_0..tau_{2m-1} in the variable s - shift.  The
    denominator is the null right singular vector of the m x (m+1) Toeplitz
    matrix of the upper coefficients; the numerator follows from the
    truncated convolution.  When the Toeplitz matrix is rank deficient the
    degree is reduced accordingly (the fitted function has lower degree).
    A ``scale`` != 1 works in sigma = (s - shift)/scale, which tames the
    moment range for expansion points far from the spectrum.  ``shift`` must
    be a finite real number and ``scale`` a positive and finite one
    (RomresError).
    """
    _require_real("expansion point shift", shift)
    _require_real("moment scale", scale, positive=True)
    expected = "a finite vector of an even number of moments, 2m"
    tau = _real_array("moments", moments, expected=expected)
    if tau.ndim != 1 or tau.size % 2 or tau.size == 0 or not np.all(np.isfinite(tau)):
        raise RomresError(f"moments of shape {tau.shape} do not match {expected}")
    if not np.any(tau != 0):
        raise RomresError("all moments vanish")
    m = tau.size // 2
    with np.errstate(over="ignore"):
        tau_s = tau * scale ** np.arange(tau.size)
    if not np.all(np.isfinite(tau_s)):
        raise RomresError(f"moments scaled by {scale!r} overflow")

    cond_full = None
    while True:
        T = np.empty((m, m + 1))
        for i in range(m):
            T[i] = tau_s[m + i::-1][: m + 1]
        _, sv, Vh = np.linalg.svd(T)
        if cond_full is None:  # conditioning of the requested-degree matrix
            cond_full = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        # singular values at the roundoff floor signal a lower true degree
        n_null = int(np.sum(sv <= 2e-15 * sv[0]))
        if n_null and m - n_null >= 1:
            m -= n_null
            continue
        g = Vh[-1]
        L = np.zeros((m, m + 1))
        for i in range(m):
            L[i, : i + 1] = tau_s[i::-1]
        f = L @ g
        return RationalModel(numerator=f, denominator=g, scale=scale,
                             shift=shift, cond=cond_full)


def to_pole_residue(model: RationalModel) -> PoleResidue:
    """Poles and residues of a fitted rational model.

    The denominator roots come from the companion matrix in the fit's own
    working variable and are then mapped back to s; residues use
    c_j = f(-theta_j) / (g_m prod_{k != j} (theta_k - theta_j)).  Complex
    root pairs, nonnegative poles or nonpositive residues raise
    SpectralValidityError, which drives the m-reduction upstream.
    """
    g = model.denominator
    f = model.numerator
    m = model.m
    if g[-1] == 0 or abs(g[-1]) < 1e-13 * np.max(np.abs(g)):
        raise SpectralValidityError("denominator degree deficient", index=m - 1)

    roots_sigma = np.roots(g[::-1])
    if roots_sigma.size and np.max(np.abs(roots_sigma.imag)) > 1e-8 * max(
            1.0, np.max(np.abs(roots_sigma))):
        raise SpectralValidityError("complex pole pair in fitted denominator")
    roots_s = roots_sigma.real * model.scale + model.shift
    theta = -roots_s
    order = np.argsort(theta)
    theta = theta[order]
    roots_sigma = roots_sigma.real[order]

    bad = np.flatnonzero(theta <= 0)
    if bad.size:
        raise SpectralValidityError("nonnegative pole in fitted model", index=int(bad[0]))
    gaps = np.diff(theta)
    if gaps.size and np.min(gaps) <= 1e-12 * theta[-1]:
        raise SpectralValidityError("coinciding poles in fitted model")

    # residues in s: residue_sigma * scale since ds = scale * dsigma
    g_lead = g[-1]
    c = np.empty(m)
    for j in range(m):
        num = np.polyval(f[::-1], roots_sigma[j])
        den = g_lead * np.prod(roots_sigma[j] - np.delete(roots_sigma, j))
        c[j] = num / den * model.scale
    bad = np.flatnonzero(c <= 0)
    if bad.size:
        raise SpectralValidityError("nonpositive residue in fitted model", index=int(bad[0]))
    return PoleResidue(theta=theta, c=c)
