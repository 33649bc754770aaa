"""Newton-Raphson outer loop and sparse linear solvers.

``newton_solve`` drives any problem object exposing ``dof_levels``,
``dir_dofs`` and ``system(values, want_matrix=...) -> (LinearSystem|None,
rhs, norm)``, a system being its ``matrix`` and its ``stack`` (see below).
The linear solve is restarted GMRES (scipy) always preconditioned by a
forward block Gauss-Seidel sweep over those node-time levels, or a direct
sparse LU, the oracle.  A GMRES failure raises ``LinearSolveFailure``;
there is no fallback.

GMRES solves for the free dofs only.  The rows of the ``dir_dofs``
(Dirichlet values and pressure pins) are identity rows, so x_D = b_D and
the free block solves A_FF x_F = b_F - A_FD b_D.  The equilibration pass
that copies the matrix drops the fixed rows and columns, and checks that
each fixed row is an identity row; the true relative residual is still
that of the whole system.  ``direct_lu`` solves the whole system.

Each ``newton_solve`` owns one ``TimeLevelPreconditioner``, built after
the first system from the problem's ``dof_levels`` and ``dir_dofs`` and
that system's ``stack``: the first step equilibrates its matrix and
factors the time levels' diagonal blocks, and every later step of the same
solve reuses that scale and those level LUs, with the strictly lower
blocks of its own matrix.  The assembly decides level periodicity once: a
system with a ``stack`` was turned from element level 0, so node level m
is node level 1 turned by R_{m-1}, the rotation of that ``LevelStack``,
and so is every interior level's block, B_m = T B_1 T^T, T turning each
node's velocity.  Each interior level whose free dofs are node level 1's
then solves through level 1's LU, with no comparison of blocks; level 0
(with the jump term), the top level L (with one element level) and every
level of a system without a ``stack`` are factored.  This is a lagged
preconditioner (Knoll & Keyes, J. Comput. Phys. 193:357-397, 2004); the
Newton matrix changes little between steps, and GMRES still has to meet
the step's tolerance in the true residual, or raise ``Stagnation``.  A direct
``gmres_solve`` call factors afresh with a fresh preconditioner and lags
with a reused one.

Newton solves each step inexactly: the linear solve of step k must reach
a true relative residual ||b - Ax|| / ||b|| <= eta_k, the forcing term of
Eisenstat & Walker (SIAM J. Sci. Comput. 17:16-32, 1996, choice 2) with
Kelley's safeguard against oversolving (Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, section 6.3); see
``forcing_term``.  A number in ``LinearSolverConfig.lin_rel_tol`` pins
every step to it instead.  ``direct_lu`` ignores the tolerance.

A matrix is built only for an iterate that takes another step.  Where the
step's linear model predicts convergence, eta_k ||R_k|| <= tol, the new
iterate's residual is assembled first (``want_matrix=False``), and its
matrix only if it has not converged.  The iterates are the same either
way.  Every step is a full Newton step; there is no line search.

Each linear solve logs one ``linear solve`` line with its method,
iterations, true relative residual, timings, whether it reused lagged
factors, ``factored=<levels with an LU of their own>/<levels>``, its GMRES
resumes and ``free=<free dofs>/<dofs>``, and ``NewtonResult.solves``
keeps those stats of each solve.  Newton traces are emitted as
``newton iter=<k> res=<value> res_mom=<m> res_cont=<c> res_dir=<d>
assemble_s=<s> eta=<eta>`` log lines: the residual norm and its
momentum, continuity and Dirichlet-row parts (``residual_parts``), the
wall time of the assembly that gave the residual (the residual-only pass
for a converged iterate that got no matrix), and the forcing term of the
linear solve whose step gave iterate k (``-`` at k = 0).
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import Breakdown, LinearSolveFailure, Stagnation

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

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.max_iter < 1:
            raise ValueError("tolerances must be positive, max_iter >= 1")


@dataclass
class LinearSolverConfig:
    method: str = "gmres_restarted"  # or "direct_lu"
    # true relative residual each GMRES solve must reach; None lets
    # newton_solve set it per step from the forcing term
    lin_rel_tol: float | None = None

    def __post_init__(self):
        if self.method not in ("gmres_restarted", "direct_lu"):
            raise ValueError(f"unknown linear solver {self.method!r}")
        if self.lin_rel_tol is not None and not 0.0 < self.lin_rel_tol < 1.0:
            raise ValueError(f"lin_rel_tol {self.lin_rel_tol!r} not in (0, 1)")


@dataclass
class NewtonResult:
    values: np.ndarray
    trace: list
    iterations: int
    converged: bool
    # wall seconds of the problem.system call behind each trace entry
    assemble_s: list = dataclasses.field(default_factory=list)
    # eta[k]: forcing term of the linear solve from trace entry k to k + 1
    eta: list = dataclasses.field(default_factory=list)
    # solves[k]: the stats of that linear solve (see solve_linear_system)
    solves: list = dataclasses.field(default_factory=list)
    # the parts of each trace entry (see residual_parts)
    res_mom: list = dataclasses.field(default_factory=list)
    res_cont: list = dataclasses.field(default_factory=list)
    res_dir: list = dataclasses.field(default_factory=list)


class TimeLevelPreconditioner:
    """One forward block Gauss-Seidel sweep over the node-time levels.

    Level k's unknowns are solved with an exact sparse LU of their diagonal
    block, after subtracting the coupling to all earlier levels (the whole
    strictly block-lower part).  The free dofs must be numbered level by
    level, as every extruded mesh's are.  On a matrix that is
    block-lower-triangular in the levels the sweep is an exact inverse.
    The ``fixed`` dofs (Dirichlet rows, which must be identity rows) are no
    unknowns of it: the partition covers the free dofs only, and
    ``equilibrate`` hands out the free block.  It is computed once; the
    first matrix sets the equilibration scale and the level LUs, which
    every later one reuses with its own strictly lower blocks (lagged; see
    the module docstring).

    ``stack``, when given, is a ``LevelStack`` that states that the first
    matrix was turned on it: its dof d is component d % nc of node d // nc,
    nc = n_sd + 1, velocity first, and each interior node level m's
    diagonal block is node level 1's turned by R_{m-1}.  An interior node
    level m = 2..L-1 whose free dofs are those of node level 1, with no
    node's velocity part free, has the rotation T = diag(R_{m-1}, 1) per
    node of its free dofs (``_turn_matrix``).  Its equilibrated block is
    then S_m T S_1^-1 B_1 S_1^-1 T^T S_m (S the scale of each level's
    dofs), so it takes no LU of its own and solves by
    B_m^-1 = W B_1^-1 W^T, W = S_m^-1 T S_1.  The blocks are not compared:
    a ``stack`` given with a matrix that is not turned gives a weaker
    sweep, and GMRES still has to meet the true residual.  Every other
    level is factored, and so is every level without a ``stack``.
    """

    def __init__(self, dof_levels, fixed=(), stack=None):
        dof_levels = np.asarray(dof_levels)
        self.n = len(dof_levels)
        self.fixed = np.zeros(self.n, dtype=bool)
        self.fixed[np.asarray(fixed, dtype=np.int64)] = True
        self.free = np.flatnonzero(~self.fixed)
        self.levels = dof_levels[self.free]
        down = np.flatnonzero(np.diff(self.levels) < 0)
        if len(down):
            raise ValueError(f"free dof {self.free[down[0] + 1]} is in an "
                             f"earlier time level than the free dof before "
                             f"it: the dofs must be numbered level by level")
        bounds = np.flatnonzero(np.diff(self.levels)) + 1
        self.starts = np.concatenate([[0], bounds])
        self.ends = np.concatenate([bounds, [len(self.levels)]])
        self.stack = stack
        self.scale = None  # the first matrix's equilibration scale
        self.lus = None    # and each level's (LU, W, W^T) (``_factor``)
        self.factored = 0  # the LUs of their own among them
        self.lu_nnz = 0    # and their nonzeros
        self.stats = None  # of the last solve_linear_system given this

    def _level_turns(self):
        """{m: T}: node level m's free dofs are T times node level 1's (see
        the class docstring), where every node level has free dofs."""
        stack = self.stack
        if stack is None or stack.L < 3 or len(self.starts) != stack.L + 1:
            return {}
        free = ~self.fixed.reshape(stack.L + 1, -1)
        out = {}
        for m in range(2, stack.L):
            if np.array_equal(free[m], free[1]):
                T = _turn_matrix(free[1], stack.rotations[m - 1])
                if T is None:
                    return {}
                out[m] = T
        return out

    def equilibrate(self, A: sp.csr_matrix):
        """``_equilibrate`` of A by the first matrix's scale: the free block
        of D A D, and diag D (0 on the fixed dofs)."""
        if A.shape != (self.n, self.n):
            raise ValueError(f"{self.n} dof levels for {A.shape[0]} unknowns")
        As, self.scale = _equilibrate(A, self.scale, self.fixed)
        return As, self.scale

    def _factor(self, Ap):
        """(LU, W, W^T), W None for an LU of its own, of each level of the
        free block Ap: a level of ``_level_turns`` takes level 1's LU and
        W = S_m^-1 T S_1.  Every level is decided before the first LU, so
        that a singular block names the levels that share it."""
        levels = list(zip(self.starts, self.ends))
        scale = (np.ones(len(self.free)) if self.scale is None
                 else self.scale[self.free])
        W = [None] * len(levels)
        for k, T in self._level_turns().items():
            rows = np.repeat(np.arange(T.shape[0]), np.diff(T.indptr))
            T.data *= (scale[slice(*levels[1])][T.indices]
                       / scale[slice(*levels[k])][rows])
            W[k] = T
        lus = {}
        for k, (s, e) in enumerate(levels):
            if W[k] is not None:
                continue
            try:
                lus[k] = spla.splu(Ap[s:e, s:e].tocsc())
            except RuntimeError as exc:
                shared = [str(self.levels[self.starts[i]])
                          for i, w in enumerate(W) if w is not None]
                also = (f" (its LU serves levels {', '.join(shared)} too)"
                        if shared and k == 1 else "")
                raise LinearSolveFailure(
                    f"diagonal block of time level "
                    f"{self.levels[self.starts[k]]} is singular"
                    f"{also}: {exc}") from exc
        self.factored = len(lus)
        # what SuperLU stores; reading ``lu.L`` or ``lu.U`` would copy it
        self.lu_nnz = sum(lu.nnz for lu in lus.values())
        # W^T is kept as a matrix of its own: ``W.T`` is a new object on
        # every product
        return [(lus[k], None, None) if W[k] is None
                else (lus[1], W[k], W[k].T.tocsr())
                for k in range(len(levels))]

    def operator(self, A: sp.spmatrix) -> spla.LinearOperator:
        """The sweep for the free block A, factoring its level blocks unless
        LUs are kept.

        Raises ``LinearSolveFailure`` naming a level whose block is singular.
        """
        n = len(self.free)
        if A.shape != (n, n):
            raise ValueError(f"{n} free dofs for {A.shape[0]} unknowns")
        Ap = sp.csr_matrix(A)
        if self.lus is None:
            self.lus = self._factor(Ap)
        blocks = [(s, e, lu, W, Wt, Ap[s:e, :s]) for s, e, (lu, W, Wt)
                  in zip(self.starts, self.ends, self.lus)]

        def sweep(r):
            r = np.ravel(r)
            y = np.empty(n)
            for s, e, lu, W, Wt, lower in blocks:
                rhs = r[s:e] - lower @ y[:s]
                y[s:e] = (lu.solve(rhs) if W is None
                          else W @ lu.solve(Wt @ rhs))
            return y

        return spla.LinearOperator(A.shape, matvec=sweep, dtype=float)


def _turn_matrix(free, R):
    """T = diag(R, 1) per node on the free dofs of one node level, ``free``
    a mask of its node-major dofs, over their places among them; None where
    a node's velocity is part free."""
    nc = len(R) + 1
    velocity = free.reshape(-1, nc)[:, :-1]
    if (velocity.any(axis=1) != velocity.all(axis=1)).any():
        return None
    pos = np.cumsum(free) - 1  # each dof's place among the free dofs
    node, comp = np.divmod(np.flatnonzero(free), nc)
    rows = np.arange(len(node))
    vel = np.flatnonzero(comp < nc - 1)
    p = np.flatnonzero(comp == nc - 1)
    # a velocity row takes its node's velocity turned by R, a pressure row
    # its own dof
    return sp.csr_matrix(
        (np.concatenate([R[comp[vel]].ravel(), np.ones(len(p))]),
         (np.concatenate([np.repeat(rows[vel], nc - 1), p]),
          np.concatenate([pos[node[vel, None] * nc + np.arange(nc - 1)]
                          .ravel(), p]))),
        shape=(len(rows), len(rows)))


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


def _equilibrate(A: sp.csr_matrix, scale=None, fixed=None):
    """(D A D, diag(D)) with D = 1/sqrt(|diag A|) (1 where that vanishes),
    or D = diag(``scale``) when given, and D = 0 on the ``fixed`` dofs.

    Each entry a of the canonical CSR matrix A is scaled as
    (d_row * a) * d_col and the zeros are dropped: the bytes of
    ``(D @ A @ D).tocsr()``, without its intermediate product.  That drops
    the rows and columns of the fixed dofs too, and the columns are
    renumbered over the free dofs, so the result is the free block, whose
    order is the number of free dofs.  Raises ``ValueError`` when a fixed
    dof's row is not an identity row.  It runs in slices of rows, so the
    result is its only array of A's size.
    """
    n = A.shape[0]
    if fixed is None:
        fixed = np.zeros(n, dtype=bool)
    if scale is None:
        d = np.abs(A.diagonal())
        d[d < 1e-300] = 1.0
        scale = 1.0 / np.sqrt(d)
        scale[fixed] = 0.0
    ptr = A.indptr
    renumber = None  # each column's number among the free dofs
    if fixed.any():
        renumber = np.cumsum(~fixed, dtype=A.indices.dtype) - 1
    # the tail that zeros leave unwritten is never touched, so not resident
    data, indices = np.empty_like(A.data), np.empty_like(A.indices)
    indptr = np.zeros_like(ptr)
    m = 0
    for lo in range(0, n, _EQUILIBRATE_ROWS):
        hi = min(lo + _EQUILIBRATE_ROWS, n)
        p0, p1 = ptr[lo], ptr[hi]
        counts = np.diff(ptr[lo:hi + 1])
        if fixed[lo:hi].any():
            _check_identity_rows(A, lo, fixed[lo:hi], counts)
        sd = np.repeat(scale[lo:hi], counts)
        sd *= A.data[p0:p1]
        sd *= scale[A.indices[p0:p1]]
        keep = sd != 0.0
        kept = np.zeros(len(keep) + 1, ptr.dtype)  # kept before each entry
        np.cumsum(keep, out=kept[1:])
        k = int(kept[-1])
        data[m:m + k] = sd[keep]
        cols = A.indices[p0:p1][keep]
        indices[m:m + k] = cols if renumber is None else renumber[cols]
        indptr[lo + 1:hi + 1] = m + kept[ptr[lo + 1:hi + 1] - p0]
        m += k
    if renumber is not None:
        # a fixed row keeps no entry, so each free row ends where the next
        # free one starts
        indptr = indptr[np.append(np.flatnonzero(~fixed), n)]
    n_free = len(indptr) - 1
    return sp.csr_matrix((data[:m], indices[:m], indptr),
                         shape=(n_free, n_free)), scale


def _check_identity_rows(A: sp.csr_matrix, lo: int, fixed, counts) -> None:
    """Raise ``ValueError`` unless each row lo + i with ``fixed[i]`` stores
    1 on the diagonal and exact zeros elsewhere."""
    rows = lo + np.flatnonzero(fixed)
    of_row = np.repeat(rows, counts[fixed])
    entries = np.repeat(fixed, counts)
    p0 = A.indptr[lo]
    vals = A.data[p0:p0 + len(entries)][entries]
    diag = A.indices[p0:p0 + len(entries)][entries] == of_row
    bad = np.union1d(of_row[vals != diag],
                     np.setdiff1d(rows, of_row[diag]))
    if len(bad):
        raise ValueError(f"fixed dof {bad[0]}: its row is not an identity row")


def gmres_solve(A: sp.spmatrix, b: np.ndarray,
                precond: TimeLevelPreconditioner, tol: float):
    """Restarted GMRES preconditioned by the time-level sweep ``precond``.

    GMRES runs on the free dofs of ``precond`` only: a fixed dof's row is
    an identity row, so x_D = b_D, and the free block solves
    A_FF x_F = b_F - A_FD b_D (the product is formed only when b_D != 0).
    That block is symmetrically equilibrated by 1/sqrt(|diag|) first, which
    evens out the wildly different row scales of the stabilized space-time
    systems, and the sweep is built from the equilibrated block.  A fresh
    ``precond`` takes this matrix's scale and factors its levels; one that
    has seen an earlier matrix reuses that scale and those LUs (lagged).
    The solve must reach ``tol`` in the true relative residual
    ||b - Ax|| / ||b|| of the whole system as given.  When GMRES stops on
    the equilibrated residual while the true one is still above it, GMRES
    resumes from its iterate with the inner tolerance tightened by the
    miss, in whole cycles within the ``MAX_KRYLOV_ITER`` budget.  Returns
    (x, stats) with the Krylov iterations, the true relative residual, the
    number of levels, the number of them with an LU of their own and those
    LUs' nonzeros, the number of free dofs, whether the factors were
    lagged, the number of such resumes and the seconds spent building the
    preconditioner and in GMRES.  Raises Stagnation/Breakdown, with the
    iterations and relres reached, when the target is missed.
    """
    if tol is None:
        raise ValueError("gmres_solve needs a tolerance (lin_rel_tol); "
                         "newton_solve sets it per step from the forcing term")
    A = sp.csr_matrix(A)
    free = precond.free
    stats = {"iterations": 0, "relres": 0.0, "levels": None,
             "factored": 0, "lu_nnz": 0, "free": len(free), "lagged": 0,
             "resumes": 0, "factor_s": 0.0, "krylov_s": 0.0}
    if not np.any(b):
        return np.zeros_like(b), stats

    As, scale = precond.equilibrate(A)
    scale = scale[free]
    x = np.where(precond.fixed, b, 0.0)  # x_D = b_D
    r = b - A @ x if np.any(x) else b
    bs = scale * r[free]

    t0 = time.perf_counter()
    stats["lagged"] = int(precond.lus is not None)
    M = precond.operator(As)
    stats["levels"] = len(precond.lus)
    stats["factored"], stats["lu_nnz"] = precond.factored, precond.lu_nnz
    t1 = time.perf_counter()

    def cb(_):
        stats["iterations"] += 1

    target = inner = tol
    y = None
    while True:
        left = MAX_KRYLOV_ITER - stats["iterations"]
        y, info = spla.gmres(As, bs, x0=y, rtol=inner, atol=0.0,
                             restart=RESTART, maxiter=left // RESTART,
                             M=M, callback=cb, callback_type="pr_norm")
        x[free] = scale * y
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


def solve_linear_system(A: sp.spmatrix, b: np.ndarray, cfg: LinearSolverConfig,
                        precond: TimeLevelPreconditioner = None) -> np.ndarray:
    """Solve A x = b with the configured method and log one line about it.

    GMRES needs ``cfg.lin_rel_tol`` set and the time-level ``precond``,
    which ``newton_solve`` gives; ``direct_lu`` uses neither.  Returns x
    alone; the solve's stats (those of ``gmres_solve`` and its ``method``)
    go to ``precond.stats`` when a ``precond`` is given.  Failures raise
    ``LinearSolveFailure``.
    """
    if cfg.method == "direct_lu":
        t0 = time.perf_counter()
        x = direct_lu(A, b)
        stats = {"factor_s": time.perf_counter() - t0, "krylov_s": 0.0,
                 "iterations": 0, "levels": None, "factored": 0,
                 "lu_nnz": 0, "free": len(b), "lagged": 0, "resumes": 0,
                 "relres": _relres(A, x, b)}
    else:
        x, stats = gmres_solve(A, b, precond, cfg.lin_rel_tol)
    stats["method"] = cfg.method
    if precond is not None:
        precond.stats = stats
    logger.info("linear solve method=%s precond=%s levels=%s iters=%d "
                "relres=%.3e factor_s=%.3f krylov_s=%.3f lagged=%d "
                "factored=%s resumes=%d free=%d/%d", cfg.method,
                "none" if cfg.method == "direct_lu" else "time_levels",
                stats["levels"], stats["iterations"], stats["relres"],
                stats["factor_s"], stats["krylov_s"], stats["lagged"],
                "-" if stats["levels"] is None
                else f"{stats['factored']}/{stats['levels']}",
                stats["resumes"], stats["free"], len(b))
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


def residual_parts(rhs: np.ndarray, dir_dofs, ncomp: int):
    """(momentum, continuity, Dirichlet) norms of a Newton right-hand side
    whose dofs are node-major, ``ncomp`` per node with the pressure last:
    the free velocity rows, the free pressure rows and the rows
    ``dir_dofs``.  Their Euclidean norm is ``|rhs|`` to rounding."""
    dirichlet = np.zeros(len(rhs), dtype=bool)
    dirichlet[dir_dofs] = True
    pressure = np.arange(len(rhs)) % ncomp == ncomp - 1
    sq = rhs * rhs
    return tuple(float(np.sqrt(sq[rows].sum()))
                 for rows in (~dirichlet & ~pressure, ~dirichlet & pressure,
                              dirichlet))


def newton_line(k: int, res: float, res_mom: float, res_cont: float,
                res_dir: float, assemble_s: float, eta: float | None) -> str:
    """The ``newton iter=`` line of trace entry k (module docstring);
    ``eta`` is None at k = 0."""
    eta = "-" if eta is None else f"{eta:.3e}"
    return (f"newton iter={k} res={res:.6e} res_mom={res_mom:.6e} "
            f"res_cont={res_cont:.6e} res_dir={res_dir:.6e} "
            f"assemble_s={assemble_s:.3f} eta={eta}")


def newton_solve(problem, initial_values: np.ndarray,
                 cfg: NewtonConfig = None,
                 lin_cfg: LinearSolverConfig = None) -> NewtonResult:
    """Newton iteration with frozen-tau linearization supplied by ``problem``.

    Convergence when ||R|| <= max(abs_tol, rel_tol * ||R0||).  Step k's
    linear solve gets ``forcing_term`` as its tolerance unless
    ``lin_cfg.lin_rel_tol`` pins it, solves for the free dofs only, and
    reuses the first step's preconditioner (see the module docstring).
    Where the step's linear model predicts convergence,
    eta_k ||R_k|| <= tol, the new iterate's residual is checked before its
    matrix is built, and a converged iterate gets no matrix.  The iterate
    of step max_iter gets its residual alone; if it has not converged, the
    best iterate seen and the full trace are returned, not ``converged``.
    The values are (n_nodes, ncomp), velocity then pressure, for the
    momentum and continuity parts of each residual; a flat vector has one
    component per node, whose free rows all count as continuity.
    """
    cfg = cfg or NewtonConfig()
    lin_cfg = lin_cfg or LinearSolverConfig()
    U = np.asarray(initial_values, dtype=float).copy()
    shape = U.shape
    ncomp = shape[1] if U.ndim == 2 else 1

    trace, assemble_s, etas, solves = [], [], [], []
    parts = ([], [], [])

    def assemble(values, want_matrix=True):
        """(``problem.system`` at ``values``, its wall seconds)."""
        t0 = time.perf_counter()
        out = problem.system(values, want_matrix=want_matrix)
        return out, time.perf_counter() - t0

    def record(k, rhs, rnorm, seconds):
        trace.append(rnorm)
        assemble_s.append(seconds)
        split = residual_parts(rhs, problem.dir_dofs, ncomp)
        for part, value in zip(parts, split):
            part.append(value)
        logger.info("%s", newton_line(k, rnorm, *split, seconds,
                                      etas[-1] if etas else None))

    def result(values, iterations, converged):
        return NewtonResult(values, trace, iterations, converged, assemble_s,
                            etas, solves, *parts)

    (system, rhs, rnorm), seconds = assemble(U)
    record(0, rhs, rnorm, seconds)
    tol = max(cfg.abs_tol, cfg.rel_tol * rnorm)
    if rnorm <= tol:
        return result(U, 0, True)

    precond = TimeLevelPreconditioner(problem.dof_levels, problem.dir_dofs,
                                      system.stack)
    best_U, best_r = U.copy(), rnorm
    for k in range(1, cfg.max_iter + 1):
        eta = lin_cfg.lin_rel_tol
        if eta is None:
            eta = forcing_term(rnorm, trace[-2] if k > 1 else None,
                               etas[-1] if etas else None, tol)
        etas.append(eta)
        delta = solve_linear_system(
            system.matrix, rhs, dataclasses.replace(lin_cfg, lin_rel_tol=eta),
            precond)
        solves.append(precond.stats)
        # the matrix is not kept alive through the next one's assembly
        del system, rhs
        U = U + delta.reshape(shape)

        last = k == cfg.max_iter
        if last or eta * rnorm <= tol:
            (_, rhs, rnorm), seconds = assemble(U, want_matrix=False)
            if rnorm <= tol:
                record(k, rhs, rnorm, seconds)
                return result(U, k, True)
        if not last:
            (system, rhs, rnorm), seconds = assemble(U)
        record(k, rhs, rnorm, seconds)
        if rnorm < best_r:
            best_U, best_r = U.copy(), rnorm
        if rnorm <= tol:
            return result(U, k, True)

    return result(best_U, cfg.max_iter, False)
