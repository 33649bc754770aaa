"""Case definitions and the one loop that marches through a case's time grid.

A ``ScenarioSpec`` owns one time grid: ``levels`` uniform steps of
``dt = t_end / levels`` from 0 to ``t_end``.  It hands out the pieces of
that grid and the problem on each: the twisted space-time mesh over all
levels (``ust_mesh``), the tensor-product slab between levels n and n + 1
(``slab``), and the ``SpaceTimeProblem`` or ``PrismSlabProblem`` on a piece
(``problem``).  A run marches a list of pieces, each solved from the
previous one's top trace: ``run_ust`` marches one piece, the UST mesh of
all levels; ``run_slab`` marches one slab per level, with node positions
that follow the rigid rotation, which realizes the ALE mesh-movement
description inside the space-time geometry.  Node correspondence between a
piece's top and the next piece's bottom is exact, so the trace transfer is
a node-to-node copy.  Both return a ``RunResult``.
"""

from __future__ import annotations

import importlib.resources
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (BCSpec, MaterialParams, PrismSlab, PrismSlabProblem,
                       SpaceTimeProblem, rigid_surface_velocity, zero_velocity)
from .errors import NotConverged
from .extrude import (ExtrusionSpec, NodeTrajectory, extrude_simplex_st,
                      rigid_rotation_positions)
from .geometry import annulus2d, box2d
from .mesh import SimplexMesh, SpaceTimeMesh, time_levels
from .postproc import l2_error, l2_error_slab
from .solver import LinearSolverConfig, NewtonConfig, newton_solve

logger = logging.getLogger("ustflow")

STIRRER_OMEGA = 250.0 * math.pi / 3.0
STIRRER_MU = 0.03382
STIRRER_DT = 0.00012
STIRRER_LEVELS = 17


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of a flow case; build a variant with
    ``dataclasses.replace``, which runs the checks again."""
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
    mode: str = "ust"
    gauge_value_fn: object = None  # exact pressure fn(x, t) for pinning
    exact_solution: object = None  # fn(x, t) -> (n, k) reference components

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if not self.levels >= 1:
            raise ValueError("levels must be at least 1")
        if self.mode not in ("ust", "slab"):
            raise ValueError(f"mode must be ust or slab, got {self.mode!r}")
        if self.mesh.dim != self.space_dim:
            raise ValueError(f"{self.name} takes a {self.space_dim}D mesh, "
                             f"not a {self.mesh.dim}D one")

    @property
    def dt(self) -> float:
        return self.t_end / self.levels

    @property
    def trajectory(self) -> NodeTrajectory:
        return NodeTrajectory(tuple(self.center), tuple(self.axis),
                              self.omega)

    def ust_mesh(self) -> SpaceTimeMesh:
        """The twisted space-time mesh over all levels of the grid."""
        return extrude_simplex_st(self.mesh, ExtrusionSpec(
            0.0, self.t_end, self.levels, self.trajectory))

    def slab(self, n: int) -> PrismSlab:
        """The prism slab from ``n * dt`` to one ``dt`` later, its nodes
        rotated rigidly to both times."""
        dt = self.dt
        t_b = n * dt
        nodes, traj = self.mesh.nodes, self.trajectory
        return PrismSlab(self.mesh, rigid_rotation_positions(nodes, traj, t_b),
                         rigid_rotation_positions(nodes, traj, t_b + dt),
                         t_b, dt)

    def problem(self, piece, jump_data=None):
        """The problem of this case on ``piece``, the UST mesh or a slab."""
        cls = (PrismSlabProblem if isinstance(piece, PrismSlab)
               else SpaceTimeProblem)
        return cls(piece, self.material, self.bcs, body_force=self.body_force,
                   convective=self.convective,
                   gauge=self.gauge_for(_node_xt(piece)), jump_data=jump_data)

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


def _node_xt(piece) -> np.ndarray:
    """Space-time node coordinates of a UST mesh or a slab, level by level,
    so the last ``n_sp`` rows are its top level."""
    return piece.node_coords() if isinstance(piece, PrismSlab) else piece.nodes


@dataclass
class RunResult:
    """The solves of a run, one per piece of the time grid it marched (the
    UST mesh of ``run_ust``, or the slabs of ``run_slab``), up to and with
    the first one that did not converge."""
    slabs: list          # SpaceTimeMesh or PrismSlab per solve
    fields: list         # (n_nodes, ncomp) values per solve, level by level
    newtons: list        # NewtonResult per solve
    final_mesh: SimplexMesh  # the spatial mesh at the last top level
    diagnostics: dict

    @property
    def final_positions(self) -> np.ndarray:
        """(n_sp, n_sd) node positions of the last solve's top level."""
        return self.final_mesh.nodes

    @property
    def final_values(self) -> np.ndarray:
        """(n_sp, ncomp) values of the last solve's top level."""
        return self.fields[-1][-self.final_mesh.n_nodes:]


def default_linear_config(n_dofs: int) -> LinearSolverConfig:
    """Restarted GMRES with the time-level block Gauss-Seidel preconditioner.

    The same choice at every size ``n_dofs`` and in both modes: each UST
    simplex spans two adjacent node-time levels and a slab has only two, so
    one forward sweep over the levels with an exact LU of each level's
    block (the interior levels of a twisted mesh share level 1's) leaves
    GMRES little to do, for a fraction of the time and memory of a full
    factorization, lagged across Newton steps
    (``TimeLevelPreconditioner``).
    """
    return LinearSolverConfig()


def run_ust(spec: ScenarioSpec, newton_cfg: NewtonConfig = None,
            lin_cfg: LinearSolverConfig = None) -> RunResult:
    """One nonlinear solve over the full twisted space-time domain."""
    return _march(spec, [spec.ust_mesh()], newton_cfg, lin_cfg)


def run_slab(spec: ScenarioSpec, newton_cfg: NewtonConfig = None,
             lin_cfg: LinearSolverConfig = None) -> RunResult:
    """March the slabs of the grid with rigid mesh rotation (ALE-equivalent
    mode)."""
    return _march(spec, [spec.slab(n) for n in range(spec.levels)],
                  newton_cfg, lin_cfg)


def _march(spec: ScenarioSpec, pieces: list, newton_cfg, lin_cfg) -> RunResult:
    """Solve ``pieces`` in turn, each starting from the previous one's top
    trace.

    Marching stops after the first piece whose Newton solve does not
    converge, as every later piece would start from its trace; its index is
    ``diagnostics["failed_slab"]`` (None when all converged).
    """
    n_sp, n_sd = spec.mesh.n_nodes, spec.space_dim
    trace, newtons = None, []
    for n, piece in enumerate(pieces):
        problem = spec.problem(piece, jump_data=trace)
        result = newton_solve(problem, problem.initial_guess(), newton_cfg,
                              lin_cfg)
        newtons.append(result)
        logger.log(logging.INFO if result.converged else logging.WARNING,
                   "run case=%s slab %d/%d elements=%d dofs=%d iters=%d "
                   "res=%.3e%s", spec.name, n + 1, len(pieces),
                   len(problem.elements), problem.n_dofs, result.iterations,
                   result.trace[-1],
                   "" if result.converged else " not converged; stopping")
        if not result.converged:
            break
        trace = result.values[-n_sp:, :n_sd]

    m = spec.mesh  # piece is the last one solved
    final_mesh = SimplexMesh(_node_xt(piece)[-n_sp:, :n_sd], m.elements,
                             m.boundary_facets, m.boundary_tags, m.tag_names,
                             fix_orientation=False)
    converged = newtons[-1].converged
    diagnostics = {
        "n_slabs": len(pieces),
        "newton_iterations": [r.iterations for r in newtons],
        "newton_traces": [r.trace for r in newtons],
        "converged": converged,
        "failed_slab": None if converged else len(newtons) - 1,
    }
    return RunResult(pieces[:len(newtons)], [r.values for r in newtons],
                     newtons, final_mesh, diagnostics)


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
                        levels=levels)


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
                        axis=axis, levels=levels)


def make_couette2d(n_r: int = 12, n_theta: int = 36, levels: int = 6,
                   omega: float = 1.0, r_inner: float = 1.0,
                   r_outer: float = 2.0, mu: float = 0.5,
                   t_end: float = 3.0, mesh: SimplexMesh = None) -> ScenarioSpec:
    mesh = mesh or annulus2d(r_inner, r_outer, n_r, n_theta)
    bcs = BCSpec(
        dirichlet={"inner": rigid_surface_velocity(omega, (0.0, 0.0)),
                   "outer": zero_velocity},
        initial=lambda x: np.zeros_like(np.atleast_2d(x)))
    return ScenarioSpec("couette2d", 2, mesh, MaterialParams(rho=1.0, mu=mu),
                        bcs, t_end=t_end, levels=levels,
                        exact_solution=couette_exact_factory(omega, r_inner,
                                                             r_outer))


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
    return ScenarioSpec("channel2d", 2, mesh, MaterialParams(rho=1.0, mu=mu),
                        bcs, t_end=t_end, levels=levels, gauge_value_fn=pres,
                        exact_solution=vel)


def make_manufactured(n: int = 12, levels: int = 6, mu: float = 0.05,
                      t_end: float = 0.5,
                      mesh: SimplexMesh = None) -> ScenarioSpec:
    mesh = mesh or box2d(n, n)
    vel, pres, force, full = manufactured_exact_factory(nu=mu, a=math.pi)
    bcs = BCSpec(
        dirichlet={tag: vel for tag in ("x0", "x1", "y0", "y1")},
        initial=lambda x: vel(x, np.zeros(len(np.atleast_2d(x)))))
    return ScenarioSpec("manufactured", 2, mesh,
                        MaterialParams(rho=1.0, mu=mu), bcs, t_end=t_end,
                        levels=levels, body_force=force, gauge_value_fn=pres,
                        exact_solution=full)


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

# the cases a convergence study refines: size -> (spec, h)
STUDY_CASES = {
    "manufactured": lambda n: (make_manufactured(n=n, levels=max(2, n // 2)),
                               1.0 / n),
    "couette2d": lambda n: (make_couette2d(n_r=n, n_theta=3 * n), 1.0 / n),
}


def convergence_study(case: str, sizes, mode: str = "ust",
                      newton_cfg: NewtonConfig = None) -> list:
    """L2 errors and observed orders over a refinement sequence.

    Rows carry h, velocity and pressure errors, and observed orders
    log2(e_h / e_{h/2}) between consecutive rows: inf where the finer
    error alone is zero, nan where either error is nan or the coarser one
    is zero.
    """
    if case not in STUDY_CASES:
        raise ValueError(f"no convergence setup for case {case!r}")
    rows = []
    for nsize in sizes:
        spec, h = STUDY_CASES[case](nsize)
        err_u, err_p = _case_errors(replace(spec, mode=mode), nsize,
                                    newton_cfg)
        rows.append({"size": nsize, "h": h, "err_u": err_u, "err_p": err_p})
    for k in range(1, len(rows)):
        ratio_h = rows[k - 1]["h"] / rows[k]["h"]
        for comp in ("u", "p"):
            e0, e1 = rows[k - 1][f"err_{comp}"], rows[k][f"err_{comp}"]
            rows[k][f"order_{comp}"] = (
                math.log(e0 / e1) / math.log(ratio_h) if e0 > 0 and e1 > 0
                else float("inf") if e1 == 0 < e0 else float("nan"))
    return rows


def _case_errors(spec: ScenarioSpec, size, newton_cfg=None):
    """Relative L2 errors (velocity total, pressure) for a study case, run
    in ``spec.mode``.

    The manufactured case compares over the whole space-time domain, the
    sum over the run's slabs; the Couette case compares the steady end
    state on the final spatial mesh (the closed form is the steady
    profile, so the startup transient must not enter the norm).  A run that
    did not converge raises ``NotConverged``: its errors would measure the
    solver, not the discretization.
    """
    exact = spec.exact_solution
    run = run_ust if spec.mode == "ust" else run_slab
    res = run(spec, newton_cfg=newton_cfg)
    if not res.diagnostics["converged"]:
        raise NotConverged(f"convergence study case={spec.name} size={size} "
                           f"mode={spec.mode}: Newton did not converge in "
                           f"slab {res.diagnostics['failed_slab']}")
    if spec.name == "couette2d":
        err = l2_error(res.final_mesh, res.final_values, exact)
    else:
        parts = [(l2_error_slab if isinstance(piece, PrismSlab)
                  else l2_error)(piece, vals, exact)
                 for piece, vals in zip(res.slabs, res.fields)]
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
