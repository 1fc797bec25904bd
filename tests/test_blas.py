import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from romres import _blas

SRC = Path(__file__).resolve().parent.parent / "src"
CONTROLS = _blas._thread_controls(_blas._LIBRARIES)
needs_controls = pytest.mark.skipif(not CONTROLS, reason="no bundled OpenBLAS thread control")


def _counts():
    return [get() for get, _ in CONTROLS]


@needs_controls
def test_single_thread_sets_and_restores():
    original = _counts()
    try:
        for _, set_ in CONTROLS:
            set_(2)
        with _blas.single_thread():
            assert _counts() == [1] * len(CONTROLS)
        assert _counts() == [2] * len(CONTROLS)
        with pytest.raises(ZeroDivisionError):
            with _blas.single_thread():
                assert _counts() == [1] * len(CONTROLS)
                1 / 0
        assert _counts() == [2] * len(CONTROLS)
    finally:
        for (_, set_), n in zip(CONTROLS, original):
            set_(n)


def test_single_thread_without_symbols_is_noop(monkeypatch):
    monkeypatch.setattr(_blas, "_LIBRARIES", (("numpy", "no_such_symbol_{}"),))
    assert _blas._thread_controls(_blas._LIBRARIES) == ()
    before = _counts()
    with _blas.single_thread():
        assert _counts() == before


# an identity-weight 2D correction on 45 x 15 cells with 8 sources: before the
# Gauss-Newton loop ran on one thread, its reconstruction differed between one
# and two OpenBLAS threads
_INVERT_2D = """
from dataclasses import replace
import sys
from romres.grids import Grid2D, assemble_operator_2d, source_vector, uniform_segments
from romres.inversion import InversionConfig, invert_2d, moments_from_operator
from romres.phantoms import phantom
g = Grid2D(nx=45, ny=15)
g = replace(g, segments=uniform_segments(g, 8))
op = assemble_operator_2d(phantom("tilted", g), g)
tau = moments_from_operator(op, [source_vector(g, s).b for s in g.segments], 30.0, 10)
cfg = InversionConfig(m0=5, n_gn=1, family_kind="single-node", s_hat=30.0)
rec, hist = invert_2d(tau, g, cfg)
sys.stdout.write(rec.values.tobytes().hex())
"""


@needs_controls
def test_invert_2d_independent_of_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _INVERT_2D], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(np.frombuffer(bytes.fromhex(proc.stdout)))
    assert outputs[0].size == 45 * 15
    assert np.array_equal(outputs[0], outputs[1])
