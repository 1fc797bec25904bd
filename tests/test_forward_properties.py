"""Property test of the forward layer's input contract: the resolvent entry
points, the chain and the time-domain synthesis raise only RomresError
subclasses."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from romres.errors import RomresError  # noqa: E402
from romres.forward import (shifted_solver, simulate_response, transfer_eval,  # noqa: E402
                            transfer_moments)
from romres.grids import (Grid1D, Grid2D, ResistivityField, assemble_operator,  # noqa: E402
                          assemble_operator_2d, build_difference_1d, source_vector,
                          uniform_segments)
from romres.krylov import (build_krylov, preconditioner_chain, preconditioner_R,  # noqa: E402
                           project)
from romres.ratfit import node_family  # noqa: E402

_SETTINGS = settings(derandomize=True, deadline=None, database=None)


@st.composite
def _system(draw):
    """A small 1D or 2D field with its operator, source and a two-node family."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = Grid1D(draw(st.integers(2, 8)))
        field = ResistivityField(0.5 + rng.random(g.n_points), g)
        op = assemble_operator(field, build_difference_1d(g))
        return field, op, source_vector(g).b, node_family("zolotarev", 2)
    g = Grid2D(nx=draw(st.integers(2, 4)), ny=draw(st.integers(2, 3)))
    field = ResistivityField(0.5 + rng.random(g.n_cells), g)
    op = assemble_operator_2d(field, g)
    b = source_vector(g, uniform_segments(g, 1)[0]).b
    return field, op, b, node_family("single-node", 2, s_hat=30.0)


# what takes the operator's place: the operator itself or a raw input
_OPERAND = {"operator": lambda op: op, "ndarray": lambda op: op.A.toarray(),
            "csr": lambda op: op.A, "list": lambda op: op.A.toarray().tolist(),
            "none": lambda op: None}


def _bad_entry(b, value):
    b = b.copy()
    b[b.size // 2] = value
    return b


# what takes the source's place: the source itself or a bad one
_SOURCE = {"valid": lambda b: b, "nan": lambda b: _bad_entry(b, np.nan),
           "inf": lambda b: _bad_entry(b, np.inf), "-inf": lambda b: _bad_entry(b, -np.inf),
           "complex": lambda b: b + 1j, "string": lambda b: ["a"] * b.size,
           "object": lambda b: [None] * b.size, "none": lambda b: None,
           "short": lambda b: b[:-1], "long": lambda b: np.r_[b, 0.0],
           "column": lambda b: b[:, None]}

# what takes the family's place: the family itself or something that is not one
_FAMILY = {"family": lambda fam: fam, "none": lambda fam: None,
           "kind": lambda fam: "zolotarev", "tuple": lambda fam: (2.0, 3.0)}

_SHIFT = st.one_of(st.floats(0.1, 100.0), st.floats(), st.complex_numbers(), st.text(max_size=3),
                   st.lists(st.floats(0, 10), min_size=1, max_size=2).map(np.array))
_NOT_A_TIME = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0]),
                        st.text(max_size=3), st.complex_numbers(), st.none(),
                        st.lists(st.floats(0.1, 1.0), max_size=2).map(np.array))


@_SETTINGS
@given(system=_system(), operand=st.sampled_from(sorted(_OPERAND)),
       source=st.sampled_from(sorted(_SOURCE)), family=st.sampled_from(sorted(_FAMILY)),
       s=_SHIFT, T=st.one_of(st.just(1.0), _NOT_A_TIME),
       h_T=st.one_of(st.just(0.25), _NOT_A_TIME))
def test_forward_entry_points_raise_only_romres_errors(system, operand, source, family, s, T,
                                                       h_T):
    field, op, b0, fam0 = system
    A, b, fam = _OPERAND[operand](op), _SOURCE[source](b0), _FAMILY[family](fam0)
    basis = build_krylov(op, b0, fam0)
    calls = [lambda: shifted_solver(A).solve(s, b),
             lambda: transfer_eval(A, b, s),
             lambda: transfer_moments(A, b, s, 2),
             lambda: build_krylov(A, b, fam),
             lambda: project(replace(basis, operator=A, b=b, family=fam)),
             lambda: preconditioner_chain(A, b, fam),
             lambda: preconditioner_R(field, fam),
             lambda: simulate_response(A, b, T, h_T)]
    with warnings.catch_warnings():
        # a ComplexWarning or RuntimeWarning is an escape as well
        warnings.simplefilter("error")
        for call in calls:
            try:
                call()
            except RomresError:
                pass
