"""End-to-end 1D inversion of boundary time data.

Synthesizes data on a fine grid (no inverse crime: the inversion runs on a
coarser one), fits the data once to get target coefficients, then runs the
preconditioned Gauss-Newton iteration from the uniform initial guess.
"""

import numpy as np

from romres import (Grid1D, InversionConfig, assemble_operator,
                    build_difference_1d, invert_1d, phantom,
                    simulate_response, source_vector)

n_fine, n_coarse = 299, 199

for name, weights in (("rQ", "identity"), ("rJ", "adaptive"),
                      ("rH", "adaptive")):
    fine = Grid1D(n_fine)
    op = assemble_operator(phantom(name, fine), build_difference_1d(fine))
    data = simulate_response(op, source_vector(fine).b, T=100.0, h_T=1e-5)

    coarse = Grid1D(n_coarse)
    truth = phantom(name, coarse)
    high_contrast = name == "rH"
    cfg = InversionConfig(m0=5 if high_contrast else 6,
                          n_gn=10 if high_contrast else 5, weights=weights)
    rec, hist = invert_1d(data, coarse, cfg, r_true=truth.values)
    print(f"{name}: m = {hist.m}, relative error per iteration "
          f"{np.round(hist.error, 3)}")
