import numpy as np
import pytest

from romres.cfrac import (ContinuedFraction, _scheme_inverse, eval_cfrac,
                          pole_residue_to_cfrac, solve_fd_scheme, three_point_scheme)
from romres.errors import AdmissibilityError, DegeneracyError, RomresError
from romres.ratfit import PoleResidue


def random_admissible(rng, m):
    theta = np.sort(rng.uniform(0.3, 80.0, m))
    while m > 1 and np.min(np.diff(theta)) < 0.3:
        theta = np.sort(rng.uniform(0.3, 80.0, m))
    c = rng.uniform(0.1, 2.0, m)
    return PoleResidue(theta, c)


def test_lanczos_breakdown_on_duplicates():
    # coinciding poles span an invariant subspace of dimension below m
    pr = PoleResidue(np.array([2.0, 2.0, 5.0]), np.ones(3))
    with pytest.raises(DegeneracyError, match="Lanczos breakdown at step 2"):
        pole_residue_to_cfrac(pr)


def test_single_pole_coefficients():
    pr = PoleResidue(np.array([1.0]), np.array([2.0]))
    cf = pole_residue_to_cfrac(pr)
    assert cf.kappa_hat[0] == pytest.approx(0.5)
    assert cf.kappa[0] == pytest.approx(2.0)
    # 1/(kh s + 1/k) reproduces 2/(s+1)
    assert eval_cfrac(cf, 1.0) == pytest.approx(1.0)


def test_eval_matches_partial_fraction(rng):
    ss = np.logspace(-2, 3, 20)
    for m in (2, 5, 8):
        pr = random_admissible(rng, m)
        cf = pole_residue_to_cfrac(pr)
        rel = np.abs(eval_cfrac(cf, ss) - pr(ss)) / np.abs(pr(ss))
        assert np.max(rel) <= 1e-10


def test_eval_large_s_asymptote():
    pr = PoleResidue(np.array([1.0, 4.0]), np.array([0.5, 1.5]))
    cf = pole_residue_to_cfrac(pr)
    s = 1e9
    assert eval_cfrac(cf, s) == pytest.approx(1.0 / (cf.kappa_hat[0] * s), rel=1e-6)


def test_fd_scheme_m1():
    cf = ContinuedFraction(np.array([2.0]), np.array([0.5]))
    w = solve_fd_scheme(cf, 1.0)
    assert w[0] == pytest.approx(1.0)


def test_fd_scheme_equals_eval(rng):
    for m in (3, 6, 8):
        pr = random_admissible(rng, m)
        cf = pole_residue_to_cfrac(pr)
        for s in (0.1, 1.0, 35.0):
            w = solve_fd_scheme(cf, s)
            assert w[0] == pytest.approx(eval_cfrac(cf, s), rel=1e-12)
            assert w.size == m


def test_three_point_scheme_eigenpairs_are_poles_and_residues(rng):
    models = [PoleResidue(np.array([2.0]), np.array([1.5]))]
    models += [random_admissible(rng, m) for m in (2, 4, 7)]
    for pr in models:
        A, b = three_point_scheme(pole_residue_to_cfrac(pr))
        assert np.array_equal(A, A.T)
        lam, Z = np.linalg.eigh(A)
        assert np.allclose(-lam[::-1], pr.theta, rtol=1e-10, atol=0)
        assert np.allclose((b @ Z[:, ::-1]) ** 2, pr.c, rtol=1e-10, atol=0)


def test_scheme_inverse_round_trip(rng):
    # 199 admissible models with m = 1..10: the worst relative error was
    # 1.6e-14 here, and 2.0e-14 over 3000 models from five other seeds, so
    # the bound leaves a margin of 5
    worst = 0.0
    for m in range(1, 11):
        for _ in range(20):
            try:
                cf = pole_residue_to_cfrac(random_admissible(rng, m))
            except AdmissibilityError:
                continue
            A, b = three_point_scheme(cf)
            back = _scheme_inverse(np.diag(A), np.diag(A, 1), b[0] ** 2)
            worst = max(worst, np.max(np.abs(back.kappa / cf.kappa - 1)),
                        np.max(np.abs(back.kappa_hat / cf.kappa_hat - 1)))
    assert worst <= 1e-13


def test_recursion_depends_on_beta_squared(rng):
    # flipping the signs of A's couplings leaves the coefficients unchanged
    cf = pole_residue_to_cfrac(random_admissible(rng, 4))
    A, b = three_point_scheme(cf)
    off = np.diag(A, 1)
    flipped = _scheme_inverse(np.diag(A), off * np.array([1.0, -1.0, 1.0]), b[0] ** 2)
    plain = _scheme_inverse(np.diag(A), off, b[0] ** 2)
    assert np.array_equal(flipped.kappa, plain.kappa)
    assert np.array_equal(flipped.kappa_hat, plain.kappa_hat)


def test_admissibility_floor_is_relative():
    # a coefficient at or below 1e-14 of the largest is degenerate, and is
    # refused when the continued fraction is built
    with pytest.raises(AdmissibilityError) as err:
        ContinuedFraction(np.array([1.0, 0.5e-14]), np.ones(2))
    assert err.value.index == 1
    ContinuedFraction(np.array([1.0, 1e-13]), np.ones(2))


def test_admissibility_check():
    with pytest.raises(AdmissibilityError) as err:
        ContinuedFraction(np.array([1.0, -0.1]), np.array([0.5, 0.5]))
    assert err.value.index == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["kappa", "kappa_hat"])
def test_nonfinite_coefficient_refused(bad, which):
    # a NaN passes the relative floor test, so it is refused before it
    coef = {"kappa": np.array([1.0, 2.0, 0.5]), "kappa_hat": np.ones(3)}
    coef[which][2] = bad
    with pytest.raises(AdmissibilityError, match=f"{which}\\[2\\]") as err:
        ContinuedFraction(**coef)
    assert err.value.index == 2


def test_log_vector_ordering(rng):
    pr = random_admissible(rng, 3)
    cf = pole_residue_to_cfrac(pr)
    v = cf.log_vector()
    assert np.allclose(v[:3], np.log(cf.kappa))
    assert np.allclose(v[3:], np.log(cf.kappa_hat))



def test_fd_scheme_singular_shift():
    # m = 1, kappa = kappahat = 1: sI - A vanishes at s = -1
    cf = ContinuedFraction(np.array([1.0]), np.array([1.0]))
    with pytest.raises(RomresError, match="singular reduced scheme"):
        solve_fd_scheme(cf, -1.0)
