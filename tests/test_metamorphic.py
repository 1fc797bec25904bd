"""Metamorphic relations of the chain: what the physics guarantees between
two runs, checked without a reference solution or finite differences.

Scaling: A(c r) = c A(r), so the chain at c r with nodes c s_j has poles
c theta and the same residues, log kappa shifted by -log c, the same
log kappa_hat, and a Jacobian (with respect to r) of J / c.
"""

import numpy as np
import pytest

from romres.grids import Grid1D, ResistivityField
from romres.jacobian import assemble_jacobian
from romres.krylov import preconditioner_R
from romres.phantoms import phantom
from romres.ratfit import NodeFamily, node_family

_GRID = Grid1D(199)
_FAMILY = node_family("zolotarev", 5)


def _chain(c):
    field = ResistivityField(c * phantom("rQ", _GRID).values, _GRID)
    family = NodeFamily(c * _FAMILY.nodes, _FAMILY.multiplicities)
    _, ctx = preconditioner_R(field, family, return_context=True)
    return ctx, assemble_jacobian(ctx)


@pytest.fixture(scope="module")
def reference():
    return _chain(1.0)


def _relation(ctx, J, reference, c):
    """(poles, residues, log kappa, log kappa_hat, c J) of the chain at c r,
    each beside what the relation predicts from the chain at r."""
    ctx0, J0 = reference
    pr, pr0 = ctx.model.pr, ctx0.model.pr
    return ((pr.theta, c * pr0.theta), (pr.c, pr0.c),
            (np.log(ctx.cf.kappa), np.log(ctx0.cf.kappa) - np.log(c)),
            (np.log(ctx.cf.kappa_hat), np.log(ctx0.cf.kappa_hat)), (c * J, J0))


@pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
def test_power_of_two_scaling(reference, c):
    # multiplying by a power of two only moves exponents, so every rounding
    # of the chain at c r is the rounding at r, scaled: the poles, residues
    # and log kappa_hat match bitwise (on 1 and 2 BLAS threads alike).
    # log kappa - log c rounds once more than log kappa does: measured
    # within 2.2e-16, bounded at 1e-15.  c J matched bitwise for c = 2 and 8
    # and to 4.7e-14 of its largest entry for c = 0.5, bounded at 1e-12.
    (theta, theta0), (res, res0), (lk, lk0), (lkh, lkh0), (cJ, J0) = \
        _relation(*_chain(c), reference, c)
    assert np.array_equal(theta, theta0) and np.array_equal(res, res0)
    assert np.array_equal(lkh, lkh0)
    assert np.max(np.abs(lk - lk0)) <= 1e-15
    if c > 1:
        assert np.array_equal(cJ, J0)
    assert np.max(np.abs(cJ - J0)) <= 1e-12 * np.max(np.abs(J0))


def test_scaling_by_three(reference):
    # c = 3 rounds differently at every stage: measured within 2.1e-13
    # relative on the poles and residues, 1.2e-13 on the logs and 5.6e-12 of
    # J's largest entry; bounded at 1e-11 and 1e-10, 18 times that or more
    (theta, theta0), (res, res0), (lk, lk0), (lkh, lkh0), (cJ, J0) = \
        _relation(*_chain(3.0), reference, 3.0)
    assert np.allclose(theta, theta0, rtol=1e-11, atol=0)
    assert np.allclose(res, res0, rtol=1e-11, atol=0)
    assert np.max(np.abs(lk - lk0)) <= 1e-11 and np.max(np.abs(lkh - lkh0)) <= 1e-11
    assert np.max(np.abs(cJ - J0)) <= 1e-10 * np.max(np.abs(J0))
