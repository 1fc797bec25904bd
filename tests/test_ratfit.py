import warnings

import numpy as np
import pytest

from romres.errors import AdmissibilityError, RomresError, SpectralValidityError
from romres.ratfit import (NodeFamily, PoleResidue, fit_multipoint,
                           fit_pade_toeplitz, node_family, nodes_geometric,
                           to_pole_residue)


def test_zolotarev_nodes_m5():
    fam = node_family("zolotarev", 5)
    assert np.allclose(fam.nodes, [2.0, 6.8, 23.12, 78.608, 267.2672])


def test_geometric_ratio_must_exceed_one():
    with pytest.raises(RomresError):
        nodes_geometric(4, 2.0, 1.0)


@pytest.mark.parametrize("s1, ratio", [("a", 2.0), (1j, 2.0), (2.0, "a"), (2.0, np.nan),
                                       (np.inf, 2.0), (np.array([2.0]), 2.0), (1e300, 1e300)])
def test_geometric_ladder_scalars_refused(s1, ratio):
    # a string first node raised a bare TypeError from the comparison, and a
    # ladder past the float range an overflow RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RomresError):
            nodes_geometric(3, s1, ratio)


def test_fast_dominates_zolotarev():
    m = 6
    z = node_family("zolotarev", m).nodes
    f = node_family("fast", m).nodes
    assert np.all(f[1:] > z[1:])
    assert f[0] == z[0]


def test_pade0_family():
    fam = node_family("pade0", 4)
    assert fam.nodes.size == 1 and fam.confluent
    assert fam.m == 4
    assert fam.nodes[0] == 0.0


@pytest.mark.parametrize("s", [np.nan, np.inf, -1.0])
def test_nodes_must_be_finite_and_nonnegative(s):
    with pytest.raises(RomresError, match="finite and nonnegative"):
        node_family("single-node", 3, s_hat=s)
    with pytest.raises(RomresError, match="finite and nonnegative"):
        NodeFamily(np.array([2.0, s]), np.array([1, 1]))


@pytest.mark.parametrize("m", [2.5, "3", None])
def test_family_size_must_be_an_integer(m):
    with pytest.raises(RomresError, match="m must be an integer"):
        node_family("zolotarev", m)
    with pytest.raises(RomresError, match="m must be an integer"):
        nodes_geometric(m, 2.0, 2.0)


@pytest.mark.parametrize("s_hat", ["a", None, 2.0 + 1j])
def test_single_node_needs_real_s_hat(s_hat):
    with pytest.raises(RomresError, match="s_hat must be a real number"):
        node_family("single-node", 3, s_hat=s_hat)


def test_multipoint_exact_recovery_m1():
    fam = NodeFamily(np.array([1.0]), np.array([1]))
    model = fit_multipoint([1.0], [-0.5], fam)  # data of 2/(s+1)
    pr = to_pole_residue(model)
    assert pr.theta[0] == pytest.approx(1.0, rel=1e-12)
    assert pr.c[0] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_multipoint_rejects_nonfinite(bad):
    # an input error raised before the SVD, not LinAlgError, and not a fit
    # failure that the m-reduction would answer with a smaller m
    fam = node_family("zolotarev", 3)
    pr = PoleResidue(np.array([1.0, 5.0, 30.0]), np.array([0.5, 1.0, 0.2]))
    values, derivs = pr(fam.nodes), pr.derivative(fam.nodes)
    bad_values = values.copy()
    bad_values[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y, yp in ((bad_values, derivs), (values, np.full(3, bad))):
            with pytest.raises(RomresError, match="finite") as err:
                fit_multipoint(y, yp, fam)
            assert not isinstance(err.value, SpectralValidityError)


@pytest.mark.parametrize("theta, c", [([], []), ([1.0, np.nan], [1.0, 1.0]),
                                      ([1.0, 2.0], [np.inf, 1.0])])
def test_pole_residue_rejects_empty_or_nonfinite(theta, c):
    with pytest.raises(RomresError, match="finite vectors"):
        PoleResidue(np.array(theta), np.array(c))


def test_multipoint_roundtrip_identity(rng):
    theta = np.array([0.7, 3.0, 11.0, 40.0])
    c = np.array([0.5, 1.0, 0.8, 2.0])
    pr = PoleResidue(theta, c)
    fam = node_family("zolotarev", 4)
    model = fit_multipoint(pr(fam.nodes), pr.derivative(fam.nodes), fam)
    back = to_pole_residue(model)
    assert np.allclose(back.theta, theta, rtol=1e-6)
    assert np.allclose(back.c, c, rtol=1e-6)


# whether the five random poles leave two trailing singular values close
# enough to warn depends on the last bits of the fit's SVD (BLAS, summation
# order), so this test neither requires nor fails on the warning
@pytest.mark.filterwarnings("ignore::romres.errors.AmbiguousFitWarning")
def test_interpolation_property(rng):
    # the fitted rational interpolates its inputs up to conditioning
    theta = np.sort(rng.uniform(0.5, 300.0, 5))
    c = rng.uniform(0.2, 2.0, 5)
    pr = PoleResidue(theta, c)
    fam = node_family("zolotarev", 5)
    model = fit_multipoint(pr(fam.nodes), pr.derivative(fam.nodes), fam)
    fitted = to_pole_residue(model)
    rel = np.abs(fitted(fam.nodes) - pr(fam.nodes)) / np.abs(pr(fam.nodes))
    assert np.max(rel) <= 1e-6 * model.cond


def test_scale_covariance(rng):
    theta = np.array([1.0, 5.0, 20.0])
    c = np.array([0.3, 1.0, 0.7])
    pr = PoleResidue(theta, c)
    fam = node_family("zolotarev", 3)
    gamma = 3.7
    m1 = to_pole_residue(fit_multipoint(pr(fam.nodes), pr.derivative(fam.nodes), fam))
    m2 = to_pole_residue(fit_multipoint(gamma * pr(fam.nodes),
                                        gamma * pr.derivative(fam.nodes), fam))
    assert np.allclose(m2.theta, m1.theta, rtol=1e-10)
    assert np.allclose(m2.c, gamma * m1.c, rtol=1e-10)


def test_toeplitz_geometric_moments_degenerate():
    model = fit_pade_toeplitz([1.0, -1.0, 1.0, -1.0])
    # underlying function 1/(1+s): degree drops to one pole
    assert model.m == 1
    pr = to_pole_residue(model)
    assert pr.theta[0] == pytest.approx(1.0, rel=1e-10)
    assert pr.c[0] == pytest.approx(1.0, rel=1e-10)
    for s in (0.0, 0.7, 3.0):
        assert pr(s) == pytest.approx(1.0 / (1.0 + s), rel=1e-12)


def test_toeplitz_shifted_scaled():
    theta = np.array([2.0, 9.0])
    c = np.array([1.0, 0.5])
    pr = PoleResidue(theta, c)
    s_hat = 7.0
    # exact Taylor moments of Y at s_hat
    k = np.arange(4)
    tau = np.sum((-1.0) ** k[:, None] * c[None, :]
                 / (s_hat + theta[None, :]) ** (k[:, None] + 1), axis=1)
    model = fit_pade_toeplitz(tau, shift=s_hat, scale=5.0)
    back = to_pole_residue(model)
    assert np.allclose(back.theta, theta, rtol=1e-9)
    assert np.allclose(back.c, c, rtol=1e-9)


def test_toeplitz_rejects_all_zero():
    with pytest.raises(RomresError):
        fit_pade_toeplitz(np.zeros(6))


@pytest.mark.parametrize("moments, match", [([1.0, np.nan], "finite"), ([np.inf, 1.0], "finite"),
                                            (np.ones((2, 2)), "vector")])
def test_toeplitz_rejects_nonfinite_or_matrix_moments(moments, match):
    # input errors raised before the SVD, not LinAlgError or a broadcast
    # ValueError
    with pytest.raises(RomresError, match=match) as err:
        fit_pade_toeplitz(moments)
    assert not isinstance(err.value, SpectralValidityError)


@pytest.mark.parametrize("setting, match", [
    ({"shift": "a"}, "shift"), ({"shift": np.nan}, "shift"), ({"shift": 1j}, "shift"),
    ({"scale": 0.0}, "scale"), ({"scale": -1.0}, "scale"), ({"scale": "a"}, "scale"),
    ({"scale": np.inf}, "scale"), ({"scale": 1e200}, "overflow")])
def test_toeplitz_refuses_a_bad_shift_or_scale(setting, match):
    # a string shift was accepted and failed in to_pole_residue with numpy's
    # UFuncTypeError, and scale = 0 was accepted and then reported as
    # SpectralValidityError, a fit-validity error the m-reduction answers by
    # reducing m
    tau = np.array([4.0 / 3.0, -10.0 / 9.0, 28.0 / 27.0, -82.0 / 81.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RomresError, match=match) as err:
            fit_pade_toeplitz(tau, **setting)
    assert not isinstance(err.value, SpectralValidityError)


def test_pole_residue_validity_errors():
    from romres.ratfit import RationalModel

    # pole at s = +1 (theta = -1) must be rejected with the offending index
    bad = RationalModel(numerator=np.array([1.0]),
                        denominator=np.array([-1.0, 1.0]))
    with pytest.raises(SpectralValidityError) as err:
        to_pole_residue(bad)
    assert err.value.index == 0
    # complex pair: s^2 + s + 1
    cplx = RationalModel(numerator=np.array([1.0, 0.0]),
                         denominator=np.array([1.0, 1.0, 1.0]))
    with pytest.raises(SpectralValidityError):
        to_pole_residue(cplx)
    # negative residue: theta = (1, 2) with c = (1, -1) -> f = (s + ...)
    # Y = 1/(s+1) - 1/(s+2) = 1 / ((s+1)(s+2))
    negres = RationalModel(numerator=np.array([1.0, 0.0]),
                           denominator=np.array([2.0, 3.0, 1.0]))
    with pytest.raises(SpectralValidityError):
        to_pole_residue(negres)


def test_noisy_fit_raises_validity_error():
    # calibrated: strong noise breaks the m=6 fit for this seed
    from romres.forward import NoiseModel, add_noise, simulate_response
    from romres.grids import (Grid1D, ResistivityField, assemble_operator,
                              build_difference_1d, source_vector)
    from romres.laplace import laplace_derivative, laplace_transform
    from romres.cfrac import pole_residue_to_cfrac

    g = Grid1D(199)
    op = assemble_operator(ResistivityField(np.ones(199), g),
                           build_difference_1d(g))
    b = source_vector(g).b
    y = simulate_response(op.A, b, T=50.0, h_T=1e-3)
    fam = node_family("zolotarev", 6)
    raised = 0
    for seed in range(5):
        d = add_noise(y, NoiseModel(5e-2, seed))
        vals = np.array([laplace_transform(d, s) for s in fam.nodes])
        ders = np.array([laplace_derivative(d, s) for s in fam.nodes])
        try:
            pole_residue_to_cfrac(to_pole_residue(fit_multipoint(vals, ders, fam)))
        except (SpectralValidityError, AdmissibilityError):
            raised += 1
    assert raised >= 3

