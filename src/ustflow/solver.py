"""Newton-Raphson outer loop and sparse linear solvers.

``newton_solve`` drives any problem object exposing ``dof_levels`` and
``system(values, want_matrix=...) -> (LinearSystem|None, rhs, norm)``.
The linear solve is restarted GMRES (scipy) always preconditioned by a
forward block Gauss-Seidel sweep over those node-time levels, or a direct
sparse LU, the oracle.  A GMRES failure raises ``LinearSolveFailure``;
there is no fallback.

The preconditioner is factored once per ``newton_solve``: the first step
equilibrates its matrix and factors each time level's diagonal block, and
every later step of the same solve reuses that scale and those level LUs,
with the strictly lower blocks of its own matrix.  This is a lagged
preconditioner (Knoll & Keyes, J. Comput. Phys. 193:357-397, 2004); the
Newton matrix changes little between steps, and GMRES still has to meet
the step's tolerance in the true residual, or raise ``Stagnation``.  The
factors live for one ``newton_solve``; a direct ``gmres_solve`` or
``solve_linear_system`` call factors afresh.

Newton solves each step inexactly: the linear solve of step k must reach
a true relative residual ||b - Ax|| / ||b|| <= eta_k, the forcing term of
Eisenstat & Walker (SIAM J. Sci. Comput. 17:16-32, 1996, choice 2) with
Kelley's safeguard against oversolving (Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, section 6.3); see
``forcing_term``.  A number in ``LinearSolverConfig.lin_rel_tol`` pins
every step to it instead.  ``direct_lu`` ignores the tolerance.

Each linear solve logs one ``linear solve`` line with its method,
iterations, true relative residual, timings, whether it reused lagged
factors and its GMRES resumes, and Newton traces are emitted as
``newton iter=<k> res=<value> assemble_s=<s> eta=<eta>`` log lines: the
wall time of the assembly that gave the residual, and the forcing term of
the linear solve whose step gave iterate k (``-`` at k = 0).
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import Breakdown, LinearSolveFailure, Stagnation, UstflowError

logger = logging.getLogger("ustflow")

# forcing term of the first Newton step, and the Eisenstat-Walker constants
# (choice 2: gamma (||R_k|| / ||R_k-1||)^alpha, alpha = 2) with the cap
ETA_FIRST = 1e-3
EW_GAMMA = 0.9
ETA_MAX = 0.1
# GMRES Krylov vectors per restart cycle, and iterations per solve
RESTART = 60
MAX_KRYLOV_ITER = 2000


@dataclass
class NewtonConfig:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    max_iter: int = 30
    linesearch: str = "none"  # or "backtracking"

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.max_iter < 1:
            raise ValueError("tolerances must be positive, max_iter >= 1")
        if self.linesearch not in ("none", "backtracking"):
            raise ValueError(f"unknown linesearch {self.linesearch!r}")


@dataclass
class LinearSolverConfig:
    method: str = "gmres_restarted"  # or "direct_lu"
    # true relative residual each GMRES solve must reach; None lets
    # newton_solve set it per step from the forcing term
    lin_rel_tol: float | None = None
    # node-time level of every unknown, the partition of the GMRES
    # preconditioner; newton_solve takes it from the problem's
    # ``dof_levels``, it is not a setting
    dof_levels: np.ndarray = dataclasses.field(default=None, repr=False,
                                               compare=False)
    # the first step's equilibration scale and level LUs, which the later
    # steps reuse; newton_solve gives each solve an empty dict, it is not a
    # setting.  None factors every solve afresh.
    lagged: dict = dataclasses.field(default=None, repr=False, compare=False)


@dataclass
class NewtonResult:
    values: np.ndarray
    trace: list
    iterations: int
    converged: bool
    status: str  # "converged" or "max_iterations"
    # wall seconds of the problem.system call behind each trace entry
    assemble_s: list = dataclasses.field(default_factory=list)
    # eta[k]: forcing term of the linear solve from trace entry k to k + 1
    eta: list = dataclasses.field(default_factory=list)


def time_level_preconditioner(A: sp.spmatrix, dof_levels, lus=None):
    """One forward block Gauss-Seidel sweep over the node-time levels.

    Level k's unknowns are solved with an exact sparse LU of their diagonal
    block, after subtracting the coupling to all earlier levels (the whole
    strictly block-lower part), so any dof order works.  On a matrix that
    is block-lower-triangular in the levels the sweep is an exact inverse.
    Returns (M, lus): the sweep and the level LUs.  Given ``lus``, those of
    an earlier matrix with the same levels, it factors nothing and sweeps
    with them, a lagged preconditioner (Knoll & Keyes 2004); the strictly
    lower blocks always come from A.
    Raises ``LinearSolveFailure`` naming a level whose block is singular.
    """
    n = A.shape[0]
    dof_levels = np.asarray(dof_levels)
    if dof_levels.shape != (n,):
        raise ValueError(f"{dof_levels.shape} dof levels for {n} unknowns")
    order = np.argsort(dof_levels, kind="stable")
    sorted_levels = dof_levels[order]
    bounds = np.flatnonzero(np.diff(sorted_levels)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [n]])
    Ap = sp.csr_matrix(A)
    # a level-major numbering, which every extruded mesh has, needs none
    if (np.diff(dof_levels) < 0).any():
        Ap = Ap[order][:, order]
    if lus is None:
        lus = []
        for s, e in zip(starts, ends):
            try:
                lus.append(spla.splu(Ap[s:e, s:e].tocsc()))
            except RuntimeError as exc:
                raise LinearSolveFailure(
                    f"diagonal block of time level {sorted_levels[s]} "
                    f"is singular: {exc}") from exc
    blocks = [(s, e, lu, Ap[s:e, :s]) for s, e, lu in zip(starts, ends, lus)]

    def sweep(r):
        rp = np.ravel(r)[order]
        y = np.empty(n)
        for s, e, lu, lower in blocks:
            y[s:e] = lu.solve(rp[s:e] - lower @ y[:s])
        x = np.empty(n)
        x[order] = y
        return x

    return spla.LinearOperator(A.shape, matvec=sweep, dtype=float), lus


def _relres(A, x, b) -> float:
    """True relative residual ||b - Ax|| / ||b|| (0 for b = 0)."""
    bnorm = float(np.linalg.norm(b))
    return float(np.linalg.norm(b - A @ x)) / bnorm if bnorm else 0.0


def direct_lu(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Sparse LU solve; the oracle."""
    try:
        lu = spla.splu(sp.csc_matrix(A))
        x = lu.solve(b)
    except RuntimeError as exc:
        raise LinearSolveFailure(f"sparse LU failed: {exc}") from exc
    if not np.isfinite(x).all():
        raise LinearSolveFailure("direct solve produced non-finite values")
    return x


# rows per slice of _equilibrate; bounds its transients
_EQUILIBRATE_ROWS = 1 << 15


def _equilibrate(A: sp.csr_matrix, scale=None):
    """(D A D, diag(D)) with D = 1/sqrt(|diag A|) (1 where that vanishes),
    or D = diag(``scale``) when given.

    Each entry a of the canonical CSR matrix A is scaled as
    (d_row * a) * d_col and the zeros are dropped: the bytes of
    ``(D @ A @ D).tocsr()``, without its intermediate product.  It runs in
    slices of rows, so the result is its only array of A's size.
    """
    if scale is None:
        d = np.abs(A.diagonal())
        d[d < 1e-300] = 1.0
        scale = 1.0 / np.sqrt(d)
    ptr = A.indptr
    # the tail that zeros leave unwritten is never touched, so not resident
    data, indices = np.empty_like(A.data), np.empty_like(A.indices)
    indptr = np.zeros_like(ptr)
    m = 0
    for lo in range(0, A.shape[0], _EQUILIBRATE_ROWS):
        hi = min(lo + _EQUILIBRATE_ROWS, A.shape[0])
        p0, p1 = ptr[lo], ptr[hi]
        sd = np.repeat(scale[lo:hi], np.diff(ptr[lo:hi + 1]))
        sd *= A.data[p0:p1]
        sd *= scale[A.indices[p0:p1]]
        keep = sd != 0.0
        kept = np.zeros(len(keep) + 1, ptr.dtype)  # kept before each entry
        np.cumsum(keep, out=kept[1:])
        k = int(kept[-1])
        data[m:m + k] = sd[keep]
        indices[m:m + k] = A.indices[p0:p1][keep]
        indptr[lo + 1:hi + 1] = m + kept[ptr[lo + 1:hi + 1] - p0]
        m += k
    return sp.csr_matrix((data[:m], indices[:m], indptr),
                         shape=A.shape), scale


def gmres_solve(A: sp.spmatrix, b: np.ndarray, cfg: LinearSolverConfig = None):
    """Restarted GMRES preconditioned by the time-level sweep.

    The system is symmetrically equilibrated by 1/sqrt(|diag|) first, which
    evens out the wildly different row scales of the stabilized space-time
    systems; the preconditioner is built from the equilibrated matrix with
    the levels in ``cfg.dof_levels``.
    With a non-empty ``cfg.lagged`` the scale and the level LUs are those
    stored there by an earlier solve, and only the strictly lower blocks
    are taken from A; an empty one is filled with this solve's.
    The solve must reach ``cfg.lin_rel_tol`` in the true relative residual
    ||b - Ax|| / ||b|| of the system as given.  When GMRES stops on the
    equilibrated residual while the true one is still above it, GMRES
    resumes from its iterate with the inner tolerance tightened by the
    miss, in whole cycles within the ``MAX_KRYLOV_ITER`` budget.  Returns
    (x, stats) with the Krylov iterations, the true relative residual, the
    number of levels, whether the factors were lagged, the number of such
    resumes and the seconds spent building the preconditioner and in GMRES.
    Raises Stagnation/Breakdown, with the iterations and relres reached,
    when the target is missed.
    """
    cfg = cfg or LinearSolverConfig()
    if cfg.lin_rel_tol is None:
        raise ValueError("gmres_solve needs cfg.lin_rel_tol; newton_solve "
                         "sets it per step from the forcing term")
    if cfg.dof_levels is None:
        raise ValueError("gmres_solve needs cfg.dof_levels; newton_solve "
                         "takes them from the problem's dof_levels")
    A = sp.csr_matrix(A)
    stats = {"iterations": 0, "relres": 0.0, "levels": None, "lagged": 0,
             "resumes": 0, "factor_s": 0.0, "krylov_s": 0.0}
    if not np.any(b):
        return np.zeros_like(b), stats

    lagged = {} if cfg.lagged is None else cfg.lagged
    As, scale = _equilibrate(A, lagged.get("scale"))
    bs = scale * b

    t0 = time.perf_counter()
    stats["lagged"] = int(bool(lagged))
    M, lus = time_level_preconditioner(As, cfg.dof_levels, lagged.get("lus"))
    lagged.update(scale=scale, lus=lus)
    stats["levels"] = len(lus)
    t1 = time.perf_counter()

    def cb(_):
        stats["iterations"] += 1

    target = inner = cfg.lin_rel_tol
    y = None
    while True:
        left = MAX_KRYLOV_ITER - stats["iterations"]
        y, info = spla.gmres(As, bs, x0=y, rtol=inner, atol=0.0,
                             restart=RESTART, maxiter=left // RESTART,
                             M=M, callback=cb, callback_type="pr_norm")
        x = scale * y
        stats["relres"] = relres = _relres(A, x, b)
        reached = f"relres={relres:.3e} after {stats['iterations']} iterations"
        if info < 0:
            raise Breakdown(f"gmres breakdown (info={info}) at {reached}")
        if relres <= target:
            break
        if MAX_KRYLOV_ITER - stats["iterations"] < RESTART:
            raise Stagnation(f"gmres stagnated at {reached} "
                             f"(target {target:.3e})")
        # the equilibrated residual is off the true one by about the same
        # factor on the next iterate: aim below the target by that factor
        inner = 0.5 * target / relres * _relres(As, y, bs)
        stats["resumes"] += 1
    stats["factor_s"], stats["krylov_s"] = t1 - t0, time.perf_counter() - t1
    return x, stats


def solve_linear_system(A: sp.spmatrix, b: np.ndarray,
                        cfg: LinearSolverConfig = None,
                        block_size: int = 1) -> np.ndarray:
    """Solve A x = b with the configured method and log one line about it.

    ``block_size`` (unknowns per node) is part of the call signature only;
    neither method needs it.  GMRES needs ``cfg.lin_rel_tol`` set, which
    ``newton_solve`` does.  Failures raise ``LinearSolveFailure``.
    """
    cfg = cfg or LinearSolverConfig()
    if cfg.method == "direct_lu":
        t0 = time.perf_counter()
        x = direct_lu(A, b)
        stats = {"factor_s": time.perf_counter() - t0, "krylov_s": 0.0,
                 "iterations": 0, "levels": None, "lagged": 0, "resumes": 0,
                 "relres": _relres(A, x, b)}
        precond = "none"
    elif cfg.method == "gmres_restarted":
        x, stats = gmres_solve(A, b, cfg)
        precond = "time_levels"
    else:
        raise ValueError(f"unknown linear solver {cfg.method!r}")
    logger.info("linear solve method=%s precond=%s levels=%s iters=%d "
                "relres=%.3e factor_s=%.3f krylov_s=%.3f lagged=%d "
                "resumes=%d", cfg.method, precond, stats["levels"],
                stats["iterations"], stats["relres"], stats["factor_s"],
                stats["krylov_s"], stats["lagged"], stats["resumes"])
    return x


def forcing_term(rnorm: float, prev_rnorm: float | None,
                 prev_eta: float | None, tol: float) -> float:
    """The relative linear tolerance of the Newton step from ||R_k|| = rnorm.

    ``ETA_FIRST`` for the first step (``prev_eta`` None), then Eisenstat &
    Walker's choice 2, 0.9 (||R_k|| / ||R_k-1||)^2, raised to
    0.9 eta_k-1^2 when that exceeds 0.1 (their safeguard against a term
    made small by one lucky drop).  Capped at ``ETA_MAX``, then floored at
    Kelley's 0.5 tol / ||R_k||: a step to a residual of half the Newton
    tolerance needs no more accuracy than that.
    """
    if prev_eta is None:
        eta = ETA_FIRST
    else:
        eta = EW_GAMMA * (rnorm / prev_rnorm) ** 2
        if EW_GAMMA * prev_eta ** 2 > 0.1:
            eta = max(eta, EW_GAMMA * prev_eta ** 2)
    return max(min(eta, ETA_MAX), 0.5 * tol / rnorm)


def newton_solve(problem, initial_values: np.ndarray,
                 cfg: NewtonConfig = None,
                 lin_cfg: LinearSolverConfig = None) -> NewtonResult:
    """Newton iteration with frozen-tau linearization supplied by ``problem``.

    Convergence when ||R|| <= max(abs_tol, rel_tol * ||R0||).  Step k's
    linear solve gets ``forcing_term`` as its tolerance unless
    ``lin_cfg.lin_rel_tol`` pins it, and reuses the first step's
    preconditioner factors (see the module docstring).  On reaching
    max_iter the best iterate seen and the full trace are returned with
    status "max_iterations".
    """
    cfg = cfg or NewtonConfig()
    lin_cfg = lin_cfg or LinearSolverConfig()
    lin_cfg = dataclasses.replace(
        lin_cfg, lagged={}, dof_levels=getattr(problem, "dof_levels", None))
    U = np.asarray(initial_values, dtype=float).copy()
    shape = U.shape
    block_size = shape[1] if U.ndim == 2 else 1

    trace, assemble_s, etas = [], [], []

    def assemble(k, values):
        t0 = time.perf_counter()
        out = problem.system(values)
        assemble_s.append(time.perf_counter() - t0)
        trace.append(out[2])
        logger.info("newton iter=%d res=%.6e assemble_s=%.3f eta=%s", k,
                    out[2], assemble_s[-1],
                    f"{etas[-1]:.3e}" if etas else "-")
        return out

    def result(values, iterations, status):
        return NewtonResult(values, trace, iterations, status == "converged",
                            status, assemble_s, etas)

    system, rhs, rnorm = assemble(0, U)
    tol = max(cfg.abs_tol, cfg.rel_tol * rnorm)
    if rnorm <= tol:
        return result(U, 0, "converged")

    best_U, best_r = U.copy(), rnorm
    for k in range(1, cfg.max_iter + 1):
        eta = lin_cfg.lin_rel_tol
        if eta is None:
            eta = forcing_term(rnorm, trace[-2] if k > 1 else None,
                               etas[-1] if etas else None, tol)
        etas.append(eta)
        delta = solve_linear_system(
            system.matrix, rhs, dataclasses.replace(lin_cfg, lin_rel_tol=eta),
            block_size)
        # the matrix is not kept alive through the next one's assembly
        del system, rhs
        if cfg.linesearch == "backtracking":
            lam = 1.0
            prev = trace[-1]
            for _ in range(8):
                try:
                    r_trial = problem.residual_norm(
                        U + lam * delta.reshape(shape))
                except UstflowError:
                    r_trial = np.inf
                if np.isfinite(r_trial) and r_trial <= (1.0 - 1e-4 * lam) * prev:
                    break
                lam *= 0.5
            U = U + lam * delta.reshape(shape)
        else:
            U = U + delta.reshape(shape)

        system, rhs, rnorm = assemble(k, U)
        if rnorm < best_r:
            best_U, best_r = U.copy(), rnorm
        if rnorm <= tol:
            return result(U, k, "converged")

    return result(best_U, cfg.max_iter, "max_iterations")
