"""Property tests of the Laplace quadratures' tail cut and input contract."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.special import gammaln  # noqa: E402

from romres import laplace  # noqa: E402
from romres.errors import RomresError  # noqa: E402
from romres.forward import TimeSeries  # noqa: E402

_SETTINGS = settings(derandomize=True, deadline=None, database=None)

_KINDS = ("decaying", "growing", "signed", "constant", "zero")


@st.composite
def _series(draw):
    n = draw(st.integers(1, 2000))
    h = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    kind = draw(st.sampled_from(_KINDS))
    rate = draw(st.floats(0.01, 5.0))
    t = h * np.arange(1, n + 1)
    if kind == "decaying":
        d = np.exp(-rate * t)
    elif kind == "growing":
        d = np.exp(np.minimum(rate * t, 50.0))
    elif kind == "signed":
        d = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    elif kind == "constant":
        d = np.full(n, rate)
    else:
        d = np.zeros(n)
    return TimeSeries(d, h)


def _abs_terms(series, s, K):
    """h sum_i |d_i| t_i^k / k! exp(-s t_i), k < K, over the active samples."""
    n = laplace._active_slice(series, s)
    t = series.step * np.arange(1, n + 1)
    k = np.arange(K)[:, None]
    w = np.exp(k * np.log(t) - s * t - gammaln(k + 1))
    return series.step * (w @ np.abs(series.samples[:n]))


@_SETTINGS
@given(series=_series(),
       s=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       K=st.integers(1, 12))
def test_cut_matches_full_slice(series, s, K):
    # 8-sample chunks rounded to 2, so that these short series are cut too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laplace, "_CHUNK", 8)
        mp.setattr(laplace, "_CUT_ROUND", 2)
        S, kept = laplace._cut_moments(series, s, K)
        n = laplace._active_slice(series, s)
        full = laplace._slice_sums(series, s, K, n, n // laplace._CHUNK)
    if kept == n // 8:
        assert np.array_equal(S, full)
    eps = np.finfo(float).eps
    assert np.all(np.abs(S - full) <= 4 * eps * _abs_terms(series, s, K))


_BAD_S = st.one_of(st.floats(max_value=-1e-300), st.just(np.nan), st.just(np.inf),
                   st.just(-np.inf), st.text(max_size=3), st.complex_numbers(),
                   st.none(), st.lists(st.floats(0, 10), max_size=2).map(np.array))
_BAD_K = st.one_of(st.integers(max_value=0), st.floats(allow_nan=True), st.text(max_size=3),
                   st.none())


@_SETTINGS
@given(s=_BAD_S, K=st.integers(1, 12))
def test_invalid_laplace_variable_raises_romres_error(s, K):
    d = TimeSeries(np.exp(-0.01 * np.arange(1, 50)), 0.01)
    for read in (laplace.laplace_transform, laplace.laplace_derivative,
                 lambda d, s: laplace.laplace_moments(d, s, K)):
        with pytest.raises(RomresError):
            read(d, s)


@_SETTINGS
@given(s=st.floats(0.0, 1e3), K=_BAD_K)
def test_invalid_moment_count_raises_romres_error(s, K):
    d = TimeSeries(np.exp(-0.01 * np.arange(1, 50)), 0.01)
    with pytest.raises(RomresError):
        laplace.laplace_moments(d, s, K)
