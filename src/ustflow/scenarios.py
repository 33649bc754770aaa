"""Case definitions and the two execution drivers.

``run_ust`` performs one nonlinear solve over the full (possibly twisted)
space-time mesh; ``run_slab`` marches tensor-product slabs whose node
positions follow the rigid rotation, which realizes the ALE mesh-movement
description inside the space-time geometry.  Node correspondence between a
slab's top and the next slab's bottom is exact, so the trace transfer is a
node-to-node copy.
"""

from __future__ import annotations

import importlib.resources
import logging
import math
from dataclasses import dataclass

import numpy as np

from .assembly import (BCSpec, MaterialParams, PrismSlab, PrismSlabProblem,
                       SolutionField, SpaceTimeProblem,
                       rigid_surface_velocity, zero_velocity)
from .errors import ConfigurationError, NotConverged
from .extrude import (ExtrusionSpec, NodeTrajectory, extrude_simplex_st,
                      rigid_rotation_positions)
from .geometry import annulus2d, box2d
from .mesh import SimplexMesh, SpaceTimeMesh, time_levels
from .postproc import global_divergence, l2_error, l2_error_slab
from .solver import LinearSolverConfig, NewtonConfig, NewtonResult, newton_solve

logger = logging.getLogger("ustflow")

STIRRER_OMEGA = 250.0 * math.pi / 3.0
STIRRER_MU = 0.03382
STIRRER_DT = 0.00012
STIRRER_LEVELS = 17


@dataclass
class ScenarioSpec:
    """Complete description of a flow case."""
    name: str
    space_dim: int
    mesh: SimplexMesh
    material: MaterialParams
    bcs: BCSpec
    t_end: float
    body_force: object = None
    convective: bool = True
    omega: float = 0.0
    center: tuple = (0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)
    levels: int = STIRRER_LEVELS
    dt: float = None
    mode: str = "ust"
    gauge_value_fn: object = None  # exact pressure fn(x, t) for pinning
    exact_solution: object = None  # fn(x, t) -> (n, k) reference components

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.dt is None:
            self.dt = self.t_end / self.levels

    @property
    def trajectory(self) -> NodeTrajectory:
        if self.omega == 0.0:
            return NodeTrajectory("static")
        return NodeTrajectory("rigid_rotation", tuple(self.center),
                              tuple(self.axis), self.omega)

    def needs_gauge(self) -> bool:
        return len(self.bcs.neumann) == 0

    def gauge_for(self, node_xt) -> list:
        """Pressure pins [(node, value), ...], one per distinct time level.

        With all-Dirichlet velocity boundaries the space-time pressure is
        determined only up to a function of time: spatially constant
        per-level modes have zero gradient and are an exact nullspace, so
        one pinned dof per node-time level is required (a single pinned
        node leaves the remaining levels free to drift).
        """
        if not self.needs_gauge():
            return None
        node_xt = np.asarray(node_xt)
        times = node_xt[:, self.space_dim]
        pins = []
        for idx in time_levels(times)[1]:
            t = times[idx]
            value = 0.0
            if self.gauge_value_fn is not None:
                value = float(np.asarray(self.gauge_value_fn(
                    node_xt[idx, None, : self.space_dim],
                    np.array([t]))).ravel()[0])
            pins.append((int(idx), value))
        return pins


@dataclass
class UstRunResult:
    mesh: SpaceTimeMesh
    field: SolutionField
    newton: NewtonResult
    diagnostics: dict


@dataclass
class SlabRunResult:
    spatial: SimplexMesh
    slabs: list          # PrismSlab per step
    fields: list         # (2*n_sp, ncomp) values per step
    newtons: list        # NewtonResult per step
    final_positions: np.ndarray  # (n_sp, n_sd) node positions at t_end
    final_values: np.ndarray     # (n_sp, ncomp) top-trace values at t_end
    diagnostics: dict

    @property
    def final_mesh(self) -> SimplexMesh:
        """The spatial mesh at ``final_positions``, the mesh of
        ``final_values``."""
        s = self.spatial
        return SimplexMesh(self.final_positions, s.elements, s.boundary_facets,
                           s.boundary_tags, s.tag_names, fix_orientation=False)


def default_linear_config(n_dofs: int) -> LinearSolverConfig:
    """Restarted GMRES with the time-level block Gauss-Seidel preconditioner.

    The same choice at every size ``n_dofs`` and in both modes: each UST
    simplex spans two adjacent node-time levels and a slab has only two, so
    one forward sweep over the levels with an exact LU of each level's
    block leaves GMRES little to do, for a fraction of the time and memory
    of a full factorization, lagged across Newton steps
    (``TimeLevelPreconditioner``).
    """
    return LinearSolverConfig()


def run_ust(spec: ScenarioSpec, newton_cfg: NewtonConfig = None,
            lin_cfg: LinearSolverConfig = None) -> UstRunResult:
    """Single nonlinear solve over the full twisted space-time domain."""
    st_mesh = extrude_simplex_st(spec.mesh, ExtrusionSpec(
        0.0, spec.t_end, spec.levels, spec.trajectory))
    problem = SpaceTimeProblem(st_mesh, spec.material, spec.bcs,
                               body_force=spec.body_force,
                               convective=spec.convective,
                               gauge=spec.gauge_for(st_mesh.nodes))
    newton_cfg = newton_cfg or NewtonConfig()
    logger.info("run_ust case=%s elements=%d dofs=%d", spec.name,
                st_mesh.n_elements, problem.n_dofs)
    result = newton_solve(problem, problem.initial_guess(), newton_cfg, lin_cfg)
    field = SolutionField(result.values, st_mesh.n_sd)
    diagnostics = {
        "newton_trace": result.trace,
        "newton_iterations": result.iterations,
        "converged": result.converged,
        "divergence_l2": global_divergence(st_mesh, result.values),
    }
    return UstRunResult(st_mesh, field, result, diagnostics)


def run_slab(spec: ScenarioSpec, newton_cfg: NewtonConfig = None,
             lin_cfg: LinearSolverConfig = None, n_slabs: int = None,
             dt: float = None) -> SlabRunResult:
    """March time slabs with rigid mesh rotation (ALE-equivalent mode).

    Marching stops after the first slab whose Newton solve does not
    converge, as every later slab would start from its trace; its index is
    ``diagnostics["failed_slab"]`` (None when all converged).
    """
    dt = dt or spec.dt
    if n_slabs is None:
        n_slabs = int(round(spec.t_end / dt))
        if abs(n_slabs * dt - spec.t_end) > 1e-9 * max(spec.t_end, dt):
            logger.warning("run_slab: %d slabs of dt=%g end at %g, not t_end=%g",
                           n_slabs, dt, n_slabs * dt, spec.t_end)
    if n_slabs < 1:
        raise ConfigurationError(
            f"run_slab: t_end={spec.t_end:g} and dt={dt:g} give {n_slabs} "
            "slabs; need at least one")
    spatial = spec.mesh
    n_sp = spatial.n_nodes
    traj = spec.trajectory
    newton_cfg = newton_cfg or NewtonConfig()

    prev_trace = None
    failed = None
    slabs, fields, newtons = [], [], []
    for n in range(n_slabs):
        t_b = n * dt
        cb = rigid_rotation_positions(spatial.nodes, traj, t_b)
        ct = rigid_rotation_positions(spatial.nodes, traj, t_b + dt)
        slab = PrismSlab(spatial, cb, ct, t_b, dt)
        problem = PrismSlabProblem(slab, spec.material, spec.bcs,
                                   body_force=spec.body_force,
                                   convective=spec.convective,
                                   gauge=spec.gauge_for(slab.node_coords()),
                                   jump_data=prev_trace)
        result = newton_solve(problem, problem.initial_guess(), newton_cfg,
                              lin_cfg)
        logger.info("slab %d/%d iters=%d res=%.3e", n + 1, n_slabs,
                    result.iterations, result.trace[-1])
        slabs.append(slab)
        fields.append(result.values)
        newtons.append(result)
        if not result.converged:
            failed = n
            logger.warning("run_slab: slab %d did not converge (res=%.3e); "
                           "stopping", n, result.trace[-1])
            break
        prev_trace = result.values[n_sp:, : spatial.dim]

    final_values = fields[-1][n_sp:]
    diagnostics = {
        "n_slabs": n_slabs,
        "newton_iterations": [r.iterations for r in newtons],
        "converged": failed is None,
        "failed_slab": failed,
        "newton_traces": [r.trace for r in newtons],
    }
    return SlabRunResult(spatial, slabs, fields, newtons,
                         slabs[-1].coords_top.copy(), final_values,
                         diagnostics)


# -- analytic reference solutions --------------------------------------------

def couette_exact_factory(omega, r_inner, r_outer):
    """Steady circular Couette azimuthal profile between rotating inner and
    fixed outer cylinder."""
    denom = r_outer ** 2 - r_inner ** 2

    def velocity(x, t=None):
        x = np.atleast_2d(x)
        r = np.hypot(x[:, 0], x[:, 1])
        r = np.maximum(r, 1e-12)
        u_theta = omega * r_inner ** 2 * (r_outer ** 2 / r - r) / denom
        return np.column_stack([-u_theta * x[:, 1] / r, u_theta * x[:, 0] / r])

    return velocity


def poiseuille_exact_factory(u_max, height, mu, length):
    """Plane Poiseuille profile with zero outflow pressure."""

    def velocity(x, t=None):
        x = np.atleast_2d(x)
        y = x[:, 1]
        return np.column_stack([4.0 * u_max * y * (height - y) / height ** 2,
                                np.zeros(len(x))])

    def pressure(x, t=None):
        x = np.atleast_2d(x)
        return 8.0 * mu * u_max / height ** 2 * (length - x[:, 0])

    def traction_outflow(x, t=None):
        x = np.atleast_2d(x)
        y = x[:, 1]
        return np.column_stack([np.zeros(len(x)),
                                mu * 4.0 * u_max * (height - 2.0 * y)
                                / height ** 2])

    return velocity, pressure, traction_outflow


def manufactured_exact_factory(nu, a=math.pi):
    """Divergence-free time-dependent field from a separable stream function,
    with the matching body force for rho = 1."""

    def velocity(x, t):
        x = np.atleast_2d(x)
        t = np.asarray(t, dtype=float)
        C = np.cos(a * t)
        sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        return np.column_stack([C * sx * cy, -C * cx * sy])

    def pressure(x, t):
        x = np.atleast_2d(x)
        t = np.asarray(t, dtype=float)
        return np.cos(a * t) * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])

    def body_force(x, t):
        x = np.atleast_2d(x)
        t = np.asarray(t, dtype=float)
        C, S = np.cos(a * t), np.sin(a * t)
        sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        s2x, s2y = np.sin(2.0 * np.pi * x[:, 0]), np.sin(2.0 * np.pi * x[:, 1])
        f1 = (-a * S * sx * cy + 0.5 * np.pi * C * C * s2x
              - np.pi * C * sx * cy + 2.0 * np.pi ** 2 * nu * C * sx * cy)
        f2 = (a * S * cx * sy + 0.5 * np.pi * C * C * s2y
              - np.pi * C * cx * sy - 2.0 * np.pi ** 2 * nu * C * cx * sy)
        return np.column_stack([f1, f2])

    def full(x, t):
        return np.column_stack([velocity(x, t), pressure(x, t)])

    return velocity, pressure, body_force, full


def load_fixture_mesh(name: str) -> SimplexMesh:
    """Read one of the stirrer meshes shipped as package data."""
    from .io import read_stmesh
    ref = importlib.resources.files("ustflow").joinpath(f"data/{name}.stmesh")
    with importlib.resources.as_file(ref) as path:
        return read_stmesh(path)


# -- case registry -----------------------------------------------------------

def make_stirrer2d(mesh: SimplexMesh = None, levels: int = STIRRER_LEVELS,
                   t_end: float = None) -> ScenarioSpec:
    mesh = mesh or load_fixture_mesh("stirrer2d")
    t_end = t_end or STIRRER_LEVELS * STIRRER_DT
    omega = STIRRER_OMEGA
    bcs = BCSpec(
        dirichlet={"stirrer": rigid_surface_velocity(omega, (0.0, 0.0)),
                   "outer_wall": zero_velocity},
        initial=lambda x: np.zeros_like(np.atleast_2d(x)))
    return ScenarioSpec("stirrer2d", 2, mesh,
                        MaterialParams(rho=1.0, mu=STIRRER_MU), bcs,
                        t_end=t_end, omega=omega, center=(0.0, 0.0),
                        levels=levels, dt=STIRRER_DT)


def make_stirrer3d(mesh: SimplexMesh = None, coarse: bool = False,
                   levels: int = STIRRER_LEVELS,
                   t_end: float = None) -> ScenarioSpec:
    if mesh is None:
        mesh = load_fixture_mesh("stirrer3d_coarse" if coarse else "stirrer3d")
    t_end = t_end or STIRRER_LEVELS * STIRRER_DT
    omega = STIRRER_OMEGA
    axis = (0.0, 0.0, 1.0)
    rot = rigid_surface_velocity(omega, (0.0, 0.0, 0.0), axis)
    bcs = BCSpec(
        dirichlet={"stirrer": rot, "outer_wall": zero_velocity,
                   "bottom": zero_velocity, "top": zero_velocity},
        initial=lambda x: np.zeros_like(np.atleast_2d(x)))
    return ScenarioSpec("stirrer3d", 3, mesh,
                        MaterialParams(rho=1.0, mu=STIRRER_MU), bcs,
                        t_end=t_end, omega=omega, center=(0.0, 0.0, 0.0),
                        axis=axis, levels=levels, dt=STIRRER_DT)


def make_couette2d(n_r: int = 12, n_theta: int = 36, levels: int = 6,
                   omega: float = 1.0, r_inner: float = 1.0,
                   r_outer: float = 2.0, mu: float = 0.5,
                   t_end: float = 3.0, mesh: SimplexMesh = None) -> ScenarioSpec:
    mesh = mesh or annulus2d(r_inner, r_outer, n_r, n_theta)
    bcs = BCSpec(
        dirichlet={"inner": rigid_surface_velocity(omega, (0.0, 0.0)),
                   "outer": zero_velocity},
        initial=lambda x: np.zeros_like(np.atleast_2d(x)))
    spec = ScenarioSpec("couette2d", 2, mesh, MaterialParams(rho=1.0, mu=mu),
                        bcs, t_end=t_end, levels=levels)
    spec.exact_solution = couette_exact_factory(omega, r_inner, r_outer)
    return spec


def make_channel2d(nx: int = 20, ny: int = 8, length: float = 2.0,
                   height: float = 1.0, mu: float = 0.1, u_max: float = 1.0,
                   t_end: float = 2.0, levels: int = 20,
                   mesh: SimplexMesh = None) -> ScenarioSpec:
    mesh = mesh or box2d(nx, ny, lx=length, ly=height)
    vel, pres, trac = poiseuille_exact_factory(u_max, height, mu, length)
    bcs = BCSpec(
        dirichlet={"x0": vel, "y0": zero_velocity, "y1": zero_velocity},
        neumann={"x1": trac},
        initial=lambda x: vel(x))
    spec = ScenarioSpec("channel2d", 2, mesh, MaterialParams(rho=1.0, mu=mu),
                        bcs, t_end=t_end, levels=levels)
    spec.exact_solution = vel
    spec.gauge_value_fn = pres
    return spec


def make_manufactured(n: int = 12, levels: int = 6, mu: float = 0.05,
                      t_end: float = 0.5,
                      mesh: SimplexMesh = None) -> ScenarioSpec:
    mesh = mesh or box2d(n, n)
    vel, pres, force, full = manufactured_exact_factory(nu=mu, a=math.pi)
    bcs = BCSpec(
        dirichlet={tag: vel for tag in ("x0", "x1", "y0", "y1")},
        initial=lambda x: vel(x, np.zeros(len(np.atleast_2d(x)))))
    spec = ScenarioSpec("manufactured", 2, mesh,
                        MaterialParams(rho=1.0, mu=mu), bcs, t_end=t_end,
                        levels=levels, body_force=force)
    spec.gauge_value_fn = pres
    spec.exact_solution = full
    return spec


def builtin_cases() -> dict:
    """Registry of named case factories."""
    return {
        "stirrer2d": make_stirrer2d,
        "stirrer3d": make_stirrer3d,
        "couette2d": make_couette2d,
        "channel2d": make_channel2d,
        "manufactured": make_manufactured,
    }


# -- convergence studies ------------------------------------------------------

def convergence_study(case: str, sizes, mode: str = "ust",
                      newton_cfg: NewtonConfig = None) -> list:
    """L2 errors and observed orders over a refinement sequence.

    Rows carry h, velocity and pressure errors, and observed orders
    log2(e_h / e_{h/2}) between consecutive rows.
    """
    rows = []
    for nsize in sizes:
        if case == "manufactured":
            spec = make_manufactured(n=nsize, levels=max(2, nsize // 2))
            h = 1.0 / nsize
        elif case == "couette2d":
            spec = make_couette2d(n_r=nsize, n_theta=3 * nsize)
            h = 1.0 / nsize
        else:
            raise ValueError(f"no convergence setup for case {case!r}")
        err_u, err_p = _case_errors(spec, nsize, mode, newton_cfg)
        rows.append({"size": nsize, "h": h, "err_u": err_u, "err_p": err_p})
    for k in range(1, len(rows)):
        ratio_h = rows[k - 1]["h"] / rows[k]["h"]
        for comp in ("u", "p"):
            e0, e1 = rows[k - 1][f"err_{comp}"], rows[k][f"err_{comp}"]
            rows[k][f"order_{comp}"] = (math.log(e0 / e1) / math.log(ratio_h)
                                        if e1 > 0 else float("inf"))
    return rows


def _case_errors(spec: ScenarioSpec, size, mode: str, newton_cfg=None):
    """Relative L2 errors (velocity total, pressure) for a study case.

    The manufactured case compares over the whole space-time domain; the
    Couette case compares the steady end state on the final-time slice
    (the closed form is the steady profile, so the startup transient must
    not enter the norm).  A run that did not converge raises
    ``NotConverged``: its errors would measure the solver, not the
    discretization.
    """
    exact = spec.exact_solution
    steady_slice = spec.name == "couette2d"
    if mode == "ust":
        res = run_ust(spec, newton_cfg=newton_cfg)
    elif mode == "slab":
        res = run_slab(spec, newton_cfg=newton_cfg)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not res.diagnostics["converged"]:
        failed = res.diagnostics.get("failed_slab")
        where = "" if failed is None else f" in slab {failed}"
        raise NotConverged(f"convergence study case={spec.name} size={size} "
                           f"mode={mode}: Newton did not converge{where}")
    if mode == "ust":
        if steady_slice:
            from .postproc import slice_at_time
            sl = slice_at_time(res.mesh, res.field.values, spec.t_end)
            err = l2_error(sl.mesh, sl.values, lambda x: exact(x))
        else:
            err = l2_error(res.mesh, res.field.values, exact)
    elif steady_slice:
        err = l2_error(res.final_mesh, res.final_values, lambda x: exact(x),
                       time_is_last_coord=False)
    else:
        parts = [l2_error_slab(slab, vals, exact)
                 for slab, vals in zip(res.slabs, res.fields)]
        err = {key: np.sqrt(sum(part[key] ** 2 for part in parts))
               for key in ("components", "exact_components")}
    comps = err["components"]
    refs = err["exact_components"]
    n_sd = spec.space_dim
    vel_err = float(np.sqrt((comps[:n_sd] ** 2).sum())
                    / max(np.sqrt((refs[:n_sd] ** 2).sum()), 1e-300))
    if len(comps) > n_sd and refs[n_sd] > 0:
        p_err = float(comps[n_sd] / refs[n_sd])
    else:
        p_err = float("nan")
    return vel_err, p_err
