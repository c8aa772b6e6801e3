"""Discrete prescribed negative Gaussian curvature on closed surfaces."""

from .calculus import (EllipticReport, Graph, divergence, elliptic_estimate_check,
                       gradient, isoperimetric_constant, laplacian_apply,
                       laplacian_matrix)
from .geometry import (InfeasibleFaceError, acuteness_margin, constant_curvature_edge_length,
                       corner_angles, discrete_curvature, evaluate_point,
                       gauss_bonnet_residual, max_length, model_length, scale_lengths)
from .jacobian import (CotangentSingularityError, assemble_jacobian, jacobian_weights,
                       lambda_factor, tilde_theta)
from .mesh import (MeshError, SurfaceMesh, TopologyReport, dump_mesh,
                   load_face_curvature, load_mesh, validate_topology)
from .models import (ModelSurface, convergence_study, dual_distance_kappa,
                     gen_octagon_genus2, octagon_fixture, refine_midpoint,
                     true_angle_sum_defect)
from .solver import (ContinuationConfig, InfeasibleStartError, LinearSolveError,
                     NotPositiveDefiniteError, SolveConfig, SolveResult, SolverInputError,
                     continuation_solve, energy_along_path, newton_solve, solve_linear_spd,
                     validate_inputs)

__version__ = "0.1.0"
