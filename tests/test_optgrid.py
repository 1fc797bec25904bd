import numpy as np
import pytest

from romres.errors import InvalidGridError
from romres.grids import Grid1D, ResistivityField
from romres.krylov import preconditioner_R
from romres.optgrid import (OptimalGrid, check_interlacing, ratio_reconstruction,
                            reference_grid)
from romres.phantoms import phantom
from romres.ratfit import node_family


def test_reference_grid_interlaced():
    for label in ("zolotarev", "pade0"):
        g = reference_grid(5, label, n_fine=499)
        ok, idx = check_interlacing(g)
        assert ok, f"{label}: violated at {idx}"
        assert np.sum(g.kappa0) <= 1.0 + 1e-6


def test_interlacing_violation_reported():
    g = OptimalGrid(x=np.array([0.1, 0.3]), x_hat=np.array([0.2, 0.25]),
                    kappa0=np.array([0.1, 0.2]), kappa_hat0=np.array([0.2, 0.05]))
    ok, idx = check_interlacing(g)
    assert not ok and idx == 1


def test_interlacing_m1():
    g = OptimalGrid(x=np.array([0.5]), x_hat=np.array([0.2]),
                    kappa0=np.array([0.5]), kappa_hat0=np.array([0.2]))
    ok, idx = check_interlacing(g)
    assert ok and idx == -1


def test_ratio_identity_for_reference_medium():
    m, N = 4, 299
    ref = reference_grid(m, "zolotarev", n_fine=N)
    f = ResistivityField(np.ones(N), Grid1D(N))
    vec, ctx = preconditioner_R(f, node_family("zolotarev", m),
                                return_context=True)
    rec = ratio_reconstruction(ctx.cf, ref)
    assert np.allclose(rec.zeta, 1.0, atol=1e-10)
    assert np.allclose(rec.zeta_hat, 1.0, atol=1e-10)
    assert np.allclose(rec.zeta_tilde, 1.0, atol=1e-10)


def test_ratio_constant_field():
    m, N, gamma = 5, 499, 2.3
    ref = reference_grid(m, "zolotarev", n_fine=N)
    f = ResistivityField(gamma * np.ones(N), Grid1D(N))
    vec, ctx = preconditioner_R(f, node_family("zolotarev", m),
                                return_context=True)
    rec = ratio_reconstruction(ctx.cf, ref)
    # geometric average recovers the constant up to boundary effects
    assert np.allclose(rec.zeta_tilde, gamma, rtol=6e-2)
    assert np.allclose(rec.zeta * rec.zeta_hat, rec.zeta_tilde ** 2, rtol=1e-12)


def test_ratio_tracks_smooth_phantom():
    m, N = 10, 999
    ref = reference_grid(m, "zolotarev", n_fine=N)
    f = phantom("rQ", Grid1D(N))
    vec, ctx = preconditioner_R(f, node_family("zolotarev", m),
                                return_context=True)
    rec = ratio_reconstruction(ctx.cf, ref)
    from romres.phantoms import phantom_function_1d

    truth = phantom_function_1d("rQ")(ref.x_hat)
    assert np.max(np.abs(rec.zeta_tilde - truth) / truth) < 0.1



def test_interlacing_first_and_last_verdicts():
    # a first dual node at or left of 0, and a last primary node past 1
    g = OptimalGrid(x=np.array([0.3, 0.8]), x_hat=np.array([0.0, 0.5]),
                    kappa0=np.array([0.3, 0.5]), kappa_hat0=np.array([0.0, 0.5]))
    assert check_interlacing(g) == (False, 0)
    g = OptimalGrid(x=np.array([0.3, 1.1]), x_hat=np.array([0.1, 0.5]),
                    kappa0=np.array([0.3, 0.8]), kappa_hat0=np.array([0.1, 0.4]))
    assert check_interlacing(g) == (False, 3)


@pytest.mark.parametrize("n_fine", ["a", 2.5, 1, None])
def test_reference_grid_refuses_a_bad_size(n_fine):
    # a string n_fine raised numpy's bare TypeError from np.ones
    with pytest.raises(InvalidGridError, match="n_points"):
        reference_grid(3, n_fine=n_fine)
