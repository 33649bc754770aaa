"""Incompressible Navier-Stokes on unstructured simplex space-time meshes.

The library builds space-time meshes of tetrahedra (2D space) or
pentatopes (3D space) by twisted temporal extrusion, assembles a GLS
stabilized P1 space-time weak form, solves it with Newton/Krylov methods,
and cross-validates against a time-slab marching mode on tensor-product
elements with rigid mesh rotation.  Slicing utilities recover spatial
fields at arbitrary times for visualization.
"""

from .assembly import (BCSpec, LinearSystem, MaterialParams, PrismSlab,
                       PrismSlabProblem, SolutionField, SpaceTimeProblem,
                       assemble, dirichlet_values, element_jacobian_matrix,
                       element_residual, jump_term, rigid_surface_velocity,
                       traction_term, zero_velocity)
from .extrude import (ExtrusionSpec, NodeTrajectory, decompose_prism,
                      extrude_simplex_st, extrude_spatial,
                      max_admissible_twist, rigid_rotation_positions)
from .geometry import annulus2d, box2d, box3d, disk2d
from .io import (read_config, read_result, read_stmesh, write_result,
                 write_stmesh)
from .mesh import (SimplexMesh, SpaceTimeMesh, basis_eval, basis_gradients,
                   classify_boundary, element_jacobian, element_measure,
                   map_local_to_global, validate_mesh)
from .postproc import (SliceResult, element_vorticity, export_vtk,
                       global_divergence, l2_error, l2_error_slab, probe,
                       probe_exhaustive, probe_vorticity, slice_at_time)
from .quadrature import QuadratureRule, prism_quadrature, simplex_quadrature
from .scenarios import (ScenarioSpec, builtin_cases, convergence_study,
                        run_slab, run_ust)
from .solver import (LinearSolverConfig, NewtonConfig, NewtonResult,
                     TimeLevelPreconditioner, direct_lu, gmres_solve,
                     newton_solve)
from .stabilization import (StabilizationContext, g_vector,
                            metric_contravariant, prism_shape_functions,
                            tau_continuity, tau_momentum)

__version__ = "0.1.0"
