import numpy as np
import pytest
import scipy.sparse as sp

from romres.grids import (Grid1D, ResistivityField, assemble_operator,
                          build_difference_1d, source_vector)


# what a LAPACK routine prints (through its XERBLA) when it refuses an
# argument; it reports the refusal only in its info result, which a caller
# that does not check it drops, and the message bypasses the warning filters
LAPACK_ARGUMENT_ERROR = "had an illegal value"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail a passing test phase whose own captured stdout holds a LAPACK
    argument error."""
    report = (yield).get_result()
    stdout = dict(report.sections).get(f"Captured stdout {report.when}", "")
    if report.passed and LAPACK_ARGUMENT_ERROR in stdout:
        report.outcome = "failed"
        report.longrepr = f"LAPACK refused an argument during {report.when} (see its stdout)"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_system(rng):
    """Assembled 1D system with a random positive resistivity, N = 40."""
    grid = Grid1D(40)
    r = 1.0 + 0.5 * rng.random(40)
    field = ResistivityField(r, grid)
    op = assemble_operator(field, build_difference_1d(grid))
    b = source_vector(grid).b
    return grid, field, op, b


@pytest.fixture
def sparse_constructions(monkeypatch):
    """Class names of the scipy.sparse matrices and arrays constructed while
    the test runs, in order (every public format, counted at its __init__)."""
    made = []

    def counting(init):
        def __init__(self, *args, **kwargs):
            made.append(type(self).__name__)
            init(self, *args, **kwargs)
        return __init__

    for fmt in ("bsr", "coo", "csc", "csr", "dia", "dok", "lil"):
        for kind in ("matrix", "array"):
            cls = getattr(sp, f"{fmt}_{kind}")
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    return made
