"""Discrete prescribed negative Gaussian curvature on closed surfaces.

The per-face ``kappa`` scales like 1/length, since the problem is invariant
under ``u -> u + c``, ``kappa -> kappa * exp(-c)``; so the Gaussian curvature
it prescribes is ``-kappa**2``.
"""

from .geometry import (InfeasibleFaceError, Point, acuteness_margin, corner_angles,
                       discrete_curvature, evaluate_point, gauss_bonnet_residual,
                       max_length, model_length, scale_lengths)
from .jacobian import (assemble_jacobian, jacobian_weights, lambda_factor,
                       operator_matrix, tilde_theta)
from .mesh import (MeshError, SurfaceMesh, TopologyReport, dump_mesh,
                   isoperimetric_constant, load_face_curvature, load_mesh,
                   validate_topology)
from .models import (ModelSurface, convergence_study, dual_distance_kappa,
                     gen_octagon_genus2, octagon_fixture, refine_midpoint,
                     true_angle_sum_defect)
from .solver import (ContinuationConfig, LinearSolveError, NotPositiveDefiniteError,
                     SolveConfig, SolveResult, SolverInputError, continuation_solve,
                     energy_along_path, newton_solve, solve_linear_spd, validate_inputs)

__version__ = "0.1.0"
