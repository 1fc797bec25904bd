"""Forward simulation and the Laplace-domain view of the data.

Simulates the boundary response of a smooth resistivity, adds measurement
noise, and compares the discrete Laplace transform of the data with direct
resolvent evaluations of the transfer function.
"""

import numpy as np

from romres import (Grid1D, NoiseModel, add_noise, assemble_operator,
                    build_difference_1d, laplace_derivative, laplace_transform,
                    phantom, simulate_response, source_vector, transfer_eval)

grid = Grid1D(299)
field = phantom("rQ", grid)
op = assemble_operator(field, build_difference_1d(grid))
b = source_vector(grid).b

print("simulating y(t) = b^T exp(At) b on [0, 100] ...")
y = simulate_response(op, b, T=100.0, h_T=1e-5)
print(f"  {y.n_samples} samples, y(h_T) = {y.samples[0]:.2f}, "
      f"y(T) = {y.samples[-1]:.3e}")

d = add_noise(y, NoiseModel(level=1e-3, seed=0))
snr = np.linalg.norm(d.samples) / np.linalg.norm(d.samples - y.samples)
print(f"  multiplicative noise at 1e-3: ||d|| / ||d - y|| = {snr:.0f}")

print("\ntransfer function: quadrature of the data vs resolvent solves")
print(f"{'s':>8} {'Y from data':>14} {'Y exact':>14} {'Y'' from data':>14} "
      f"{'Y'' exact':>14}")
for s in (2.0, 6.8, 23.12):
    val, der = transfer_eval(op, b, s=s)
    print(f"{s:8.2f} {laplace_transform(d, s):14.6f} {val:14.6f} "
          f"{laplace_derivative(d, s):14.6f} {der:14.6f}")
