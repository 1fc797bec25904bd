import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from romres.cfrac import (ContinuedFraction, Tridiagonal, cfrac_from_tridiagonal,
                          eval_cfrac, lanczos_tridiag, pole_residue_to_cfrac,
                          solve_fd_scheme)
from romres.errors import AdmissibilityError, DegeneracyError
from romres.ratfit import PoleResidue


def random_admissible(rng, m):
    theta = np.sort(rng.uniform(0.3, 80.0, m))
    while np.min(np.diff(theta)) < 0.3:
        theta = np.sort(rng.uniform(0.3, 80.0, m))
    c = rng.uniform(0.1, 2.0, m)
    return PoleResidue(theta, c)


def reduced_model_to_cfrac(A_m, b_m):
    """Direct path: Lanczos on the reduced operator itself (the oracle for
    the spectral path, which is the one the derivative formulas use)."""
    nb = np.linalg.norm(b_m)
    tri, _ = lanczos_tridiag(A_m, b_m / nb)
    return cfrac_from_tridiagonal(tri, float(nb ** 2))


def test_lanczos_m1():
    tri, X = lanczos_tridiag(np.array([[-3.0]]), np.array([1.0]))
    assert tri.alpha[0] == -3.0
    assert tri.beta.size == 0


def test_lanczos_eigenvalue_preservation():
    E = -np.diag([1.0, 2.0, 3.0])
    eta = np.ones(3) / np.sqrt(3.0)
    tri, X = lanczos_tridiag(E, eta)
    assert np.allclose(X.T @ X, np.eye(3), atol=1e-13)
    assert np.allclose(eigvalsh_tridiagonal(tri.alpha, tri.beta),
                       [-3.0, -2.0, -1.0], atol=1e-12)
    assert np.allclose(X[:, 0], eta)


def test_lanczos_breakdown_on_duplicates():
    E = -np.diag([2.0, 2.0, 5.0])
    eta = np.ones(3) / np.sqrt(3.0)
    with pytest.raises(DegeneracyError):
        lanczos_tridiag(E, eta)


def test_single_pole_coefficients():
    pr = PoleResidue(np.array([1.0]), np.array([2.0]))
    cf, tri, X = pole_residue_to_cfrac(pr)
    assert cf.kappa_hat[0] == pytest.approx(0.5)
    assert cf.kappa[0] == pytest.approx(2.0)
    # 1/(kh s + 1/k) reproduces 2/(s+1)
    assert eval_cfrac(cf, 1.0) == pytest.approx(1.0)


def test_eval_matches_partial_fraction(rng):
    ss = np.logspace(-2, 3, 20)
    for m in (2, 5, 8):
        pr = random_admissible(rng, m)
        cf, _, _ = pole_residue_to_cfrac(pr)
        rel = np.abs(eval_cfrac(cf, ss) - pr(ss)) / np.abs(pr(ss))
        assert np.max(rel) <= 1e-10


def test_eval_large_s_asymptote():
    pr = PoleResidue(np.array([1.0, 4.0]), np.array([0.5, 1.5]))
    cf, _, _ = pole_residue_to_cfrac(pr)
    s = 1e9
    assert eval_cfrac(cf, s) == pytest.approx(1.0 / (cf.kappa_hat[0] * s), rel=1e-6)


def test_fd_scheme_m1():
    cf = ContinuedFraction(np.array([2.0]), np.array([0.5]))
    w = solve_fd_scheme(cf, 1.0)
    assert w[0] == pytest.approx(1.0)


def test_fd_scheme_equals_eval(rng):
    for m in (3, 6, 8):
        pr = random_admissible(rng, m)
        cf, _, _ = pole_residue_to_cfrac(pr)
        for s in (0.1, 1.0, 35.0):
            w = solve_fd_scheme(cf, s)
            assert w[0] == pytest.approx(eval_cfrac(cf, s), rel=1e-12)
            assert w.size == m


def test_direct_and_spectral_paths_agree(rng):
    pr = random_admissible(rng, 5)
    cf_spec, _, _ = pole_residue_to_cfrac(pr)
    # reduced model realizing the same transfer function
    A_m = -np.diag(pr.theta)
    b_m = np.sqrt(pr.c)
    cf_dir = reduced_model_to_cfrac(A_m, b_m)
    assert np.allclose(cf_dir.kappa, cf_spec.kappa, rtol=1e-8)
    assert np.allclose(cf_dir.kappa_hat, cf_spec.kappa_hat, rtol=1e-8)


def test_recursion_depends_on_beta_squared(rng):
    # flipping Lanczos vector signs flips beta signs; coefficients are even
    pr = random_admissible(rng, 4)
    cf, tri, _ = pole_residue_to_cfrac(pr)
    flipped = Tridiagonal(tri.alpha, tri.beta * np.array([1.0, -1.0, 1.0]))
    cf2 = cfrac_from_tridiagonal(flipped, float(np.sum(pr.c)))
    assert np.allclose(cf2.kappa, cf.kappa)
    assert np.allclose(cf2.kappa_hat, cf.kappa_hat)


def test_admissibility_check():
    cf = ContinuedFraction(np.array([1.0, -0.1]), np.array([0.5, 0.5]))
    with pytest.raises(AdmissibilityError) as err:
        cf.require_admissible()
    assert err.value.index == 1


def test_log_vector_ordering(rng):
    pr = random_admissible(rng, 3)
    cf, _, _ = pole_residue_to_cfrac(pr)
    v = cf.log_vector()
    assert np.allclose(v[:3], np.log(cf.kappa))
    assert np.allclose(v[3:], np.log(cf.kappa_hat))


def test_json_roundtrip(rng):
    pr = random_admissible(rng, 3)
    cf, _, _ = pole_residue_to_cfrac(pr)
    import json

    d = json.loads(cf.to_json())
    assert np.allclose(d["kappa"], cf.kappa)
    assert np.allclose(d["kappa_hat"], cf.kappa_hat)
