"""Rational fitting of transfer-function data and its conditioning.

Recovers a small pole/residue model from osculatory data exactly, then
reproduces the conditioning comparison between the two fitting matrices:
interpolation at geometrically spread nodes stays usable to larger model
sizes than moment matching at s = 0.
"""

import numpy as np

from romres import (Grid1D, PoleResidue, ResistivityField, assemble_operator,
                    build_difference_1d, fit_multipoint, fit_pade_toeplitz,
                    laplace_derivative, laplace_moments, laplace_transform,
                    node_family, simulate_response, source_vector,
                    to_pole_residue)

# exact recovery of a synthetic Stieltjes model
theta = np.array([0.7, 3.0, 11.0, 40.0])
c = np.array([0.5, 1.0, 0.8, 2.0])
pr = PoleResidue(theta, c)
fam = node_family("zolotarev", 4)
model = fit_multipoint(pr(fam.nodes), pr.derivative(fam.nodes), fam)
back = to_pole_residue(model)
print("round trip through the osculatory fit:")
print("  poles   ", np.round(back.theta, 8))
print("  residues", np.round(back.c, 8))

# conditioning comparison on reference-medium data
n = 299
grid = Grid1D(n)
op = assemble_operator(ResistivityField(np.ones(n), grid),
                       build_difference_1d(grid))
b = source_vector(grid).b
y = simulate_response(op, b, T=100.0, h_T=1e-5)
print("\nconditioning of the fitting matrices (unit medium, N = 299):")
print(f"{'m':>3} {'multipoint':>12} {'moments at 0':>14}")
for m in range(2, 7):
    fam = node_family("zolotarev", m)
    vals = np.array([laplace_transform(y, s) for s in fam.nodes])
    ders = np.array([laplace_derivative(y, s) for s in fam.nodes])
    cond_p = fit_multipoint(vals, ders, fam).cond
    cond_t = fit_pade_toeplitz(laplace_moments(y, 0.0, 2 * m)).cond
    print(f"{m:3d} {cond_p:12.3e} {cond_t:14.3e}")
print("moment matching at s=0 degrades much faster with m.")
