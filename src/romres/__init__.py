"""Resistivity inversion from boundary time-domain data via reduced-order
models: rational fits of the transfer function, Stieltjes continued-fraction
coordinates and a nonlinearly preconditioned Gauss-Newton iteration."""

__version__ = "0.1.0"

from .grids import (Grid1D, Grid2D, BoundarySegment, ResistivityField,
                    SystemOperator, build_difference_1d, build_difference_2d,
                    assemble_operator, assemble_operator_2d, source_vector,
                    uniform_segments)
from .forward import (TimeSeries, NoiseModel, simulate_response, add_noise,
                      transfer_eval, transfer_moments, shifted_solver)
from .laplace import laplace_transform, laplace_derivative, laplace_moments
from .ratfit import (NodeFamily, RationalModel, PoleResidue, nodes_geometric,
                     node_family, fit_multipoint, fit_pade_toeplitz,
                     to_pole_residue)
from .cfrac import (ContinuedFraction, pole_residue_to_cfrac, eval_cfrac,
                    solve_fd_scheme)
from .krylov import (KrylovBasis, ReducedModel, ChainContext, build_krylov,
                     project, preconditioner_chain, preconditioner_R)
from .jacobian import assemble_jacobian
from .optgrid import (OptimalGrid, RatioReconstruction, reference_grid,
                      check_interlacing, ratio_reconstruction)
from .inversion import (InversionConfig, FitTarget, data_fitting_Q,
                        data_fitting_moments, gauss_newton_step,
                        regularize_nullspace, invert_1d, invert_2d,
                        relative_error)
from .phantoms import phantom, phantom_function_1d
