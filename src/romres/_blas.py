"""One BLAS thread for a region of code.

numpy and scipy wheels each bundle their own OpenBLAS build in
``<package>.libs``, and each build exports a getter and a setter of its
thread count.  ``single_thread`` sets both to one thread and restores the
previous counts on exit.  The count is process-global: while the region is
open, every BLAS call of the process, from any Python thread, runs on one
thread.  Where no bundled build is found (other platforms, other BLAS
vendors), the region changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import os
from contextlib import contextmanager

# (package, thread-count symbol) of each bundled OpenBLAS: numpy's build
# uses 64-bit integers and suffixes its symbols, scipy's does not
_LIBRARIES = (("numpy", "scipy_openblas_{}_num_threads64_"),
              ("scipy", "scipy_openblas_{}_num_threads"))


@functools.cache
def _thread_controls(libraries) -> tuple:
    """(get, set) pairs of every bundled OpenBLAS that exports ``libraries``' symbols."""
    controls = []
    for package, symbol in libraries:
        root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        for path in sorted(glob.glob(os.path.join(root, f"{package}.libs",
                                                  "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            try:
                get, set_ = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def single_thread():
    """Run the body with every bundled OpenBLAS on one thread (process-wide)."""
    controls = _thread_controls(_LIBRARIES)
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, previous):
            set_(n)
