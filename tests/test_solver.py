import dataclasses
import logging
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ustflow import solver
from ustflow.assembly import BCSpec, MaterialParams, SpaceTimeProblem
from ustflow.errors import LinearSolveFailure, Stagnation
from ustflow.extrude import ExtrusionSpec, extrude_simplex_st
from ustflow.scenarios import make_couette2d, make_manufactured
from ustflow.solver import (ETA_FIRST, ETA_MAX, LinearSolverConfig,
                            NewtonConfig, TimeLevelPreconditioner,
                            _equilibrate, _relres, direct_lu, forcing_term,
                            gmres_solve, newton_solve, solve_linear_system)

# the accuracy every direct gmres_solve call asks for; newton_solve sets
# the tolerance per step instead
TIGHT = 1e-8


class ToyProblem:
    """Adapter exposing the assembler interface for a smooth map of R^n;
    each unknown is a level of its own, so GMRES sweeps point by point."""

    def __init__(self, residual, jacobian, n):
        self._res = residual
        self._jac = jacobian
        self.dof_levels = np.arange(n)

    def system(self, U, tau_override=None, want_matrix=True):
        U = np.asarray(U, dtype=float).ravel()
        R = self._res(U)
        rhs = -R
        A = sp.csr_matrix(self._jac(U)) if want_matrix else None

        class S:
            matrix = A
        return S() if want_matrix else None, rhs, float(np.linalg.norm(R))

    def residual_norm(self, U, tau_override=None):
        return float(np.linalg.norm(self._res(np.asarray(U).ravel())))


class TestGmres:
    def test_identity_single_iteration(self, rng):
        n = 40
        b = rng.uniform(-1, 1, size=n)
        x, stats = gmres_solve(sp.eye(n, format="csr"), b,
                               TimeLevelPreconditioner(np.arange(n)), TIGHT)
        assert np.allclose(x, b, atol=1e-12)
        assert stats["iterations"] <= 1

    def test_diagonal_spd(self, rng):
        d = rng.uniform(0.5, 3.0, size=30)
        b = rng.uniform(-1, 1, size=30)
        A = sp.diags(d).tocsr()
        x, stats = gmres_solve(A, b, TimeLevelPreconditioner(np.arange(30)),
                               TIGHT)
        assert stats["relres"] < 1e-8
        assert np.allclose(x, b / d, rtol=1e-6, atol=1e-9)

    def test_random_system_vs_dense_lu_oracle(self, rng):
        n = 50
        A = rng.uniform(-1, 1, size=(n, n)) + n * np.eye(n)
        b = rng.uniform(-1, 1, size=n)
        x_oracle = np.linalg.solve(A, b)
        for per_level in (1, 10):
            precond = TimeLevelPreconditioner(np.arange(n) // per_level)
            x, _ = gmres_solve(sp.csr_matrix(A), b, precond, TIGHT)
            rel = np.linalg.norm(x - x_oracle) / np.linalg.norm(x_oracle)
            assert rel < 1e-8, per_level

    def test_agreement_gmres_direct(self, rng):
        n = 60
        A = sp.random(n, n, density=0.2, random_state=7).tocsr() \
            + 5.0 * sp.eye(n, format="csr")
        b = rng.uniform(-1, 1, size=n)
        x1 = direct_lu(A, b)
        x2, _ = gmres_solve(A, b, TimeLevelPreconditioner(
            rng.integers(0, 4, size=n)), TIGHT)
        assert np.linalg.norm(x1 - x2) / np.linalg.norm(x1) < 1e-8

    @staticmethod
    def _stagnating_system(rng, n=50):
        A = sp.random(n, n, density=0.3, random_state=3).tocsr() \
            + 2.0 * sp.eye(n, format="csr")
        return (A, rng.uniform(-1, 1, size=n),
                TimeLevelPreconditioner(np.arange(n)))

    def test_stagnation_raises_and_direct_solves(self, rng, monkeypatch):
        # one restart cycle of 2 Krylov vectors cannot solve this system
        monkeypatch.setattr(solver, "RESTART", 2)
        monkeypatch.setattr(solver, "MAX_KRYLOV_ITER", 2)
        A, b, precond = self._stagnating_system(rng)
        with pytest.raises(Stagnation, match=r"relres=.* after 2 iterations"):
            solve_linear_system(A, b, LinearSolverConfig(lin_rel_tol=TIGHT),
                                precond)
        x = solve_linear_system(A, b, LinearSolverConfig(method="direct_lu"))
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_budget_is_whole_cycles_within_max(self, rng, monkeypatch):
        # 5 iterations hold two whole cycles of 2; a third would make 6
        monkeypatch.setattr(solver, "RESTART", 2)
        monkeypatch.setattr(solver, "MAX_KRYLOV_ITER", 5)
        A, b, precond = self._stagnating_system(rng)
        with pytest.raises(Stagnation, match=r"relres=.* after 4 iterations"):
            gmres_solve(A, b, precond, TIGHT)

    def test_missing_tolerance_names_newton_solve(self, rng):
        A, b, levels = _block_tridiagonal_system(rng)
        with pytest.raises(ValueError, match="lin_rel_tol.*newton_solve"):
            solve_linear_system(A, b, LinearSolverConfig(),
                                TimeLevelPreconditioner(levels))

    def test_resumes_until_true_relres_meets_target(self, rng, monkeypatch):
        # rows scaled over six decades: the equilibration weights the
        # heavy rows down, so GMRES meets the tolerance on the equilibrated
        # system while the true relative residual is still above it
        n, target = 60, 1e-4
        rows = 10.0 ** rng.uniform(0.0, 6.0, size=n)
        A = (sp.diags(rows) @ (sp.random(n, n, density=0.2, random_state=0)
                               + 3.0 * sp.eye(n))).tocsr()
        b = rng.uniform(-1, 1, size=n)
        As, scale = _equilibrate(A)
        runs = []
        gmres = spla.gmres

        def spy(*args, **kwargs):
            y, info = gmres(*args, **kwargs)
            runs.append((kwargs["rtol"], info, y.copy()))
            return y, info

        monkeypatch.setattr(spla, "gmres", spy)
        x, stats = gmres_solve(A, b, TimeLevelPreconditioner(np.arange(n)),
                               target)
        (rtol, info, y), *resumed = runs
        assert rtol == target and info == 0
        assert _relres(As, y, scale * b) <= target  # equilibrated: met
        assert _relres(A, scale * y, b) > target    # true: missed
        assert resumed and all(r[0] < target for r in resumed)
        assert stats["resumes"] == len(resumed)
        assert stats["relres"] == _relres(A, x, b) <= target

    def test_logs_one_line_per_solve(self, rng, caplog):
        n = 30
        A = sp.random(n, n, density=0.2, random_state=5).tocsr() \
            + 4.0 * sp.eye(n, format="csr")
        b = rng.uniform(-1, 1, size=n)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            solve_linear_system(A, b, LinearSolverConfig(lin_rel_tol=TIGHT),
                                TimeLevelPreconditioner(np.arange(n) // 10))
            solve_linear_system(A, b, LinearSolverConfig(method="direct_lu"))
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        for line, method in zip(lines, ("gmres_restarted", "direct_lu")):
            assert line.startswith(f"linear solve method={method} ")
            for key in ("precond=", "levels=", "iters=", "relres=",
                        "factor_s=", "krylov_s="):
                assert key in line
            assert line.endswith(" resumes=0")
        assert "precond=time_levels levels=3 " in lines[0]


class TestLinearSolverConfig:
    def test_fields_are_the_two_settings(self):
        assert [f.name for f in dataclasses.fields(LinearSolverConfig)] == [
            "method", "lin_rel_tol"]
        LinearSolverConfig(method="direct_lu", lin_rel_tol=0.5)

    @pytest.mark.parametrize("kwargs, match", [
        ({"method": "gmres"}, "unknown linear solver 'gmres'"),
        ({"lin_rel_tol": 0.0}, "lin_rel_tol"),
        ({"lin_rel_tol": 1.0}, "lin_rel_tol"),
        ({"lin_rel_tol": -1e-3}, "lin_rel_tol"),
        ({"lin_rel_tol": float("nan")}, "lin_rel_tol")])
    def test_rejects_bad_setting_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LinearSolverConfig(**kwargs)


def _block_tridiagonal_system(rng, n_levels=5, per_level=8):
    """Random diagonally dominant system coupling adjacent levels only."""
    levels = np.repeat(np.arange(n_levels), per_level)
    n = len(levels)
    A = rng.uniform(-1, 1, size=(n, n))
    A[np.abs(levels[:, None] - levels[None, :]) > 1] = 0.0
    A += 2.0 * per_level * np.eye(n)
    return sp.csr_matrix(A), rng.uniform(-1, 1, size=n), levels


def _twisted_couette():
    spec = make_couette2d(n_r=3, n_theta=12, levels=4, t_end=0.5)
    spec.omega = 1.0  # the mesh turns with the inner wall
    return spec


class TestEquilibrate:
    """The scaled copy against the product of the diagonal matrices."""

    @staticmethod
    def assert_same_bytes(A):
        As, scale = _equilibrate(A)
        D = sp.diags(scale)
        ref = (D @ A @ D).tocsr()
        for name in ("data", "indices", "indptr"):
            got, want = getattr(As, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        return As

    def test_newton_matrix(self):
        spec = make_manufactured(n=4)
        mesh = extrude_simplex_st(spec.mesh, ExtrusionSpec(
            0.0, spec.t_end, spec.levels, spec.trajectory))
        problem = SpaceTimeProblem(mesh, spec.material, spec.bcs,
                                   body_force=spec.body_force,
                                   gauge=spec.gauge_for(mesh.nodes))
        A = problem.system(problem.initial_guess())[0].matrix
        before = A.copy()
        assert (A.data == 0.0).any()  # zeroed Dirichlet rows
        As = self.assert_same_bytes(A)
        assert As.nnz < A.nnz
        assert (A != before).nnz == 0

    def test_random_with_zero_diagonal(self, rng):
        A = sp.random(60, 60, density=0.2, random_state=7, format="csr")
        A.setdiag(rng.uniform(-3.0, 3.0, size=60))
        A.data[::5] = 0.0
        A[3, 3] = 0.0
        self.assert_same_bytes(A)

    def test_row_slices(self, rng, monkeypatch):
        # slices of 7 rows, one of them with no entries, and explicit zeros
        monkeypatch.setattr("ustflow.solver._EQUILIBRATE_ROWS", 7)
        A = sp.random(60, 60, density=0.2, random_state=3, format="lil")
        A.setdiag(rng.uniform(-3.0, 3.0, size=60))
        A[14:21] = 0.0
        A = A.tocsr()
        A.data[::4] = 0.0
        assert np.diff(A.indptr)[14:21].max() == 0
        self.assert_same_bytes(A)


class TestTimeLevelPreconditioner:
    def test_exact_on_block_lower_triangular(self, rng):
        # every level couples to all earlier ones, not only the previous
        levels = np.repeat(np.arange(5), 8)
        n = len(levels)
        A = rng.uniform(-1, 1, size=(n, n)) + 16.0 * np.eye(n)
        A = sp.csr_matrix(A * (levels[:, None] >= levels[None, :]))
        b = rng.uniform(-1, 1, size=n)
        x, stats = gmres_solve(A, b, TimeLevelPreconditioner(levels), TIGHT)
        assert stats["iterations"] == 1
        assert stats["levels"] == 5
        assert np.allclose(x, direct_lu(A, b), rtol=1e-10, atol=1e-12)
        # the sweep itself inverts a block-lower-triangular matrix
        M = TimeLevelPreconditioner(levels).operator(A)
        assert np.allclose(M.matvec(b), direct_lu(A, b), atol=1e-12)

    def test_permuted_dofs_same_solution(self, rng):
        A, b, levels = _block_tridiagonal_system(rng)
        x_ref = direct_lu(A, b)
        x, _ = gmres_solve(A, b, TimeLevelPreconditioner(levels), TIGHT)
        perm = rng.permutation(len(b))
        xp, _ = gmres_solve(A[perm][:, perm], b[perm],
                            TimeLevelPreconditioner(levels[perm]), TIGHT)
        assert np.abs(levels[perm][1:] - levels[perm][:-1]).max() > 1
        assert np.allclose(xp, x[perm], rtol=1e-8, atol=1e-10)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_singular_level_block_raises(self, rng):
        A, b, levels = _block_tridiagonal_system(rng)
        A = A.tolil()
        A[8:16, 8:16] = 0.0
        with pytest.raises(LinearSolveFailure, match="time level 1 "):
            gmres_solve(A.tocsr(), b, TimeLevelPreconditioner(levels), TIGHT)

    def test_partition_of_other_size_rejected(self, rng):
        A, b, levels = _block_tridiagonal_system(rng)
        with pytest.raises(ValueError, match="39 dof levels for 40 unknowns"):
            gmres_solve(A, b, TimeLevelPreconditioner(levels[1:]), TIGHT)

    @pytest.mark.parametrize("make", [lambda: make_manufactured(n=4),
                                      _twisted_couette],
                             ids=["manufactured", "twisted_couette"])
    def test_newton_matrix_matches_direct_lu(self, make):
        spec = make()
        mesh = extrude_simplex_st(spec.mesh, ExtrusionSpec(
            0.0, spec.t_end, spec.levels, spec.trajectory))
        problem = SpaceTimeProblem(mesh, spec.material, spec.bcs,
                                   body_force=spec.body_force,
                                   convective=spec.convective,
                                   gauge=spec.gauge_for(mesh.nodes))
        system, rhs, _ = problem.system(problem.initial_guess())
        x_ref = direct_lu(system.matrix, rhs)
        x, stats = gmres_solve(system.matrix, rhs,
                               TimeLevelPreconditioner(problem.dof_levels),
                               TIGHT)
        assert stats["levels"] == spec.levels + 1
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-7


def _couette_problem():
    spec = _twisted_couette()
    mesh = extrude_simplex_st(spec.mesh, ExtrusionSpec(
        0.0, spec.t_end, spec.levels, spec.trajectory))
    return spec, SpaceTimeProblem(mesh, spec.material, spec.bcs,
                                  convective=spec.convective,
                                  gauge=spec.gauge_for(mesh.nodes))


class TestLaggedFactors:
    """newton_solve factors the time levels once; its later steps sweep with
    those LUs and the strictly lower blocks of their own matrix."""

    def test_one_factorization_per_newton_solve(self, monkeypatch, caplog):
        spec, problem = _couette_problem()
        calls = []
        splu = spla.splu

        def counting(A, *args, **kwargs):
            calls.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        n_levels = spec.levels + 1
        with caplog.at_level(logging.INFO, logger="ustflow"):
            out = newton_solve(problem, problem.initial_guess())
        assert out.converged and out.iterations >= 2
        assert len(calls) == n_levels
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("linear solve")]
        assert [line.split("lagged=")[1].split()[0] for line in lines] == (
            ["0"] + ["1"] * (out.iterations - 1))
        relres = _logged_relres(caplog)
        assert len(relres) == len(out.eta) == out.iterations
        assert all(r <= eta for r, eta in zip(relres, out.eta))

        # a second solve factors afresh, and takes the same steps
        calls.clear()
        again = newton_solve(problem, problem.initial_guess())
        assert len(calls) == n_levels
        assert again.trace == out.trace
        # so does every direct call given a fresh preconditioner
        calls.clear()
        system, rhs, _ = problem.system(problem.initial_guess())
        cfg = LinearSolverConfig(lin_rel_tol=TIGHT)
        for _ in range(2):
            solve_linear_system(system.matrix, rhs, cfg,
                                TimeLevelPreconditioner(problem.dof_levels))
        assert len(calls) == 2 * n_levels
        # and one preconditioner given both matrices factors once
        calls.clear()
        precond = TimeLevelPreconditioner(problem.dof_levels)
        for _ in range(2):
            solve_linear_system(system.matrix, rhs, cfg, precond)
        assert len(calls) == n_levels

    def test_lagged_sweep_takes_lower_blocks_of_its_matrix(self, rng):
        # the same diagonal blocks, other couplings to earlier levels: the
        # first matrix's LUs invert the second block-lower-triangular one
        levels = np.repeat(np.arange(4), 6)
        n = len(levels)
        lower = levels[:, None] > levels[None, :]
        A1 = rng.uniform(-1, 1, size=(n, n)) + 12.0 * np.eye(n)
        A1 *= levels[:, None] >= levels[None, :]
        A2 = A1 + lower * rng.uniform(-1, 1, size=(n, n))
        precond = TimeLevelPreconditioner(levels)
        precond.operator(sp.csr_matrix(A1))
        lus = precond.lus
        M2 = precond.operator(sp.csr_matrix(A2))
        assert precond.lus is lus
        b = rng.uniform(-1, 1, size=n)
        assert np.allclose(M2.matvec(b), np.linalg.solve(A2, b), atol=1e-12)

    def test_previous_matrix_freed_before_next_assembly(self):
        b = np.array([0.7, -1.2, 2.0, 0.3])
        matrices = []

        def system(U, tau_override=None, want_matrix=True):
            assert all(m() is None for m in matrices)
            A = sp.csr_matrix(np.diag(1.0 + 3.0 * U ** 2))
            matrices.append(weakref.ref(A))
            R = U + U ** 3 - b
            return types.SimpleNamespace(matrix=A), -R, np.linalg.norm(R)

        toy = types.SimpleNamespace(system=system,
                                    dof_levels=np.array([0, 0, 1, 1]))
        out = newton_solve(toy, np.full(4, 2.0))
        assert out.converged and len(matrices) == out.iterations + 1 >= 3


class TestDirectLu:
    def test_residual_small(self, rng):
        n = 80
        A = sp.random(n, n, density=0.15, random_state=11).tocsr() \
            + 4.0 * sp.eye(n, format="csr")
        b = rng.uniform(-1, 1, size=n)
        x = direct_lu(A, b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_singular_raises(self):
        A = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(LinearSolveFailure):
            direct_lu(A, np.ones(3))


class TestNewton:
    def test_linear_problem_one_iteration(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        b = np.array([1.0, -2.0])
        toy = ToyProblem(lambda x: A @ x - b, lambda x: A, 2)
        res = newton_solve(toy, np.zeros(2),
                           NewtonConfig(),
                           LinearSolverConfig(method="direct_lu"))
        assert res.converged
        assert res.iterations == 1
        assert np.allclose(res.values, np.linalg.solve(A, b), atol=1e-12)

    def test_zero_problem_converges_immediately(self):
        toy = ToyProblem(lambda x: x * 0.0, lambda x: np.eye(3), 3)
        res = newton_solve(toy, np.zeros(3))
        assert res.converged
        assert res.iterations <= 1

    def test_quadratic_phase_on_smooth_problem(self):
        # R(x) = x + x^3 - b, componentwise
        b = np.array([0.7, -1.2, 2.0])

        def res(x):
            return x + x ** 3 - b

        def jac(x):
            return np.diag(1.0 + 3.0 * x ** 2)

        toy = ToyProblem(res, jac, 3)
        out = newton_solve(toy, np.array([5.0, 5.0, 5.0]),
                           NewtonConfig(abs_tol=1e-14, rel_tol=1e-15,
                                        max_iter=50),
                           LinearSolverConfig(method="direct_lu"))
        assert out.converged
        r = out.trace
        for k in range(len(r) - 1):
            if 0.0 < r[k] < 1e-3 and r[k + 1] > 1e-15:
                assert r[k + 1] / r[k] ** 2 < 10.0

    def test_max_iterations_returns_best_iterate(self):
        b = np.array([2.0])
        toy = ToyProblem(lambda x: x + x ** 3 - b,
                         lambda x: np.diag(1.0 + 3.0 * x ** 2), 1)
        out = newton_solve(toy, np.array([100.0]),
                           NewtonConfig(max_iter=2, abs_tol=1e-14,
                                        rel_tol=1e-16),
                           LinearSolverConfig(method="direct_lu"))
        assert not out.converged
        assert out.status == "max_iterations"
        assert len(out.trace) == 3

    def test_backtracking_helps_far_start(self):
        # undamped Newton diverges on atan from this start; the
        # backtracking line search keeps the iteration inside the basin
        b = np.array([1.0])
        toy = ToyProblem(lambda x: np.arctan(x) - np.arctan(b),
                         lambda x: np.diag(1.0 / (1.0 + x ** 2)), 1)
        damped = newton_solve(toy, np.array([20.0]),
                              NewtonConfig(max_iter=60,
                                           linesearch="backtracking"),
                              LinearSolverConfig(method="direct_lu"))
        assert damped.converged
        assert np.allclose(damped.values, 1.0, atol=1e-6)

    def test_stokes_limit_single_newton_iteration(self, small_st_mesh_2d):
        mesh = small_st_mesh_2d

        def lid(x, t):
            x = np.atleast_2d(x)
            return np.column_stack([np.ones(len(x)), np.zeros(len(x))])

        def walls(x, t):
            return np.zeros_like(np.atleast_2d(x))

        bcs = BCSpec(dirichlet={"y1": lid, "y0": walls, "x0": walls,
                                "x1": walls},
                     initial=lambda x: np.zeros_like(np.atleast_2d(x)))
        # all-Dirichlet: pin one pressure dof at each of the three levels
        n_sp = mesh.n_nodes // 3
        problem = SpaceTimeProblem(mesh, MaterialParams(1.0, 0.1), bcs,
                                   convective=False,
                                   gauge=[(0, 0.0), (n_sp, 0.0),
                                          (2 * n_sp, 0.0)])
        res = newton_solve(problem, problem.initial_guess(),
                           NewtonConfig(rel_tol=1e-10),
                           LinearSolverConfig(method="direct_lu"))
        assert res.converged
        assert res.iterations == 1

    def test_logs_assembly_time_per_iteration(self, caplog):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        toy = ToyProblem(lambda x: A @ x - np.ones(2), lambda x: A, 2)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            res = newton_solve(toy, np.zeros(2), NewtonConfig(),
                               LinearSolverConfig(method="direct_lu"))
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("newton iter=")]
        assert len(lines) == len(res.trace) == len(res.assemble_s) == 2
        for k, (line, r, t) in enumerate(zip(lines, res.trace,
                                             res.assemble_s)):
            eta = f"{res.eta[k - 1]:.3e}" if k else "-"
            assert line == (f"newton iter={k} res={r:.6e} assemble_s={t:.3f} "
                            f"eta={eta}")
            assert t >= 0.0

    def test_deterministic_iterates(self, small_st_mesh_2d):
        mesh = small_st_mesh_2d

        def lid(x, t):
            x = np.atleast_2d(x)
            return np.column_stack([np.ones(len(x)), np.zeros(len(x))])

        bcs = BCSpec(dirichlet={"y1": lid},
                     initial=lambda x: np.zeros_like(np.atleast_2d(x)))

        def run():
            problem = SpaceTimeProblem(mesh, MaterialParams(1.0, 0.05), bcs,
                                       gauge=(0, 0.0))
            return newton_solve(problem, problem.initial_guess(),
                                NewtonConfig(max_iter=6, rel_tol=1e-10),
                                LinearSolverConfig(method="direct_lu"))

        r1, r2 = run(), run()
        assert np.array_equal(r1.values, r2.values)
        assert r1.trace == r2.trace


def _logged_relres(caplog):
    """The true relative residual of each logged linear solve."""
    return [float(r.getMessage().split("relres=")[1].split()[0])
            for r in caplog.records
            if r.getMessage().startswith("linear solve")]


def _forcing_reference(trace, tol):
    """The forcing terms of a Newton run, recomputed from its residuals."""
    etas = []
    for k in range(1, len(trace)):
        r = trace[k - 1]
        if k == 1:
            eta = 1e-3
        else:
            eta = 0.9 * (r / trace[k - 2]) ** 2
            if 0.9 * etas[-1] ** 2 > 0.1:
                eta = max(eta, 0.9 * etas[-1] ** 2)
        etas.append(max(min(eta, 0.1), 0.5 * tol / r))
    return etas


class TestForcingTerm:
    GMRES = LinearSolverConfig()

    def test_branches(self):
        tol = 1e-6
        assert forcing_term(1.0, None, None, tol) == ETA_FIRST == 1e-3
        # Eisenstat-Walker choice 2
        assert forcing_term(0.2, 1.0, 1e-3, tol) == pytest.approx(0.9 * 0.04)
        # a slow drop: capped
        assert forcing_term(0.9, 1.0, 1e-3, tol) == ETA_MAX == 0.1
        # a previous term with 0.9 eta^2 > 0.1 keeps the next one at the cap
        # however fast the residual fell; below that, the fall decides
        assert forcing_term(1e-3, 1.0, 0.35, tol) == ETA_MAX
        assert forcing_term(1e-3, 1.0, 0.3, tol) == pytest.approx(5e-4)
        # near the Newton tolerance: no more accuracy than it needs
        assert forcing_term(4e-6, 1.0, 1e-3, tol) == pytest.approx(0.125)
        assert forcing_term(1.0, None, None, 0.1) == pytest.approx(0.05)

    @pytest.mark.parametrize("case", ["cubic", "atan_backtracking"])
    def test_sequence_follows_formula_cap_and_floor(self, case):
        if case == "cubic":
            b = np.array([0.7, -1.2, 2.0])
            toy = ToyProblem(lambda x: x + x ** 3 - b,
                             lambda x: np.diag(1.0 + 3.0 * x ** 2), 3)
            x0, cfg = np.full(3, 5.0), NewtonConfig(max_iter=50)
        else:
            b = np.array([1.0])
            toy = ToyProblem(lambda x: np.arctan(x) - np.arctan(b),
                             lambda x: np.diag(1.0 / (1.0 + x ** 2)), 1)
            x0 = np.array([20.0])
            cfg = NewtonConfig(max_iter=60, linesearch="backtracking")
        out = newton_solve(toy, x0, cfg, self.GMRES)
        assert out.converged
        tol = max(cfg.abs_tol, cfg.rel_tol * out.trace[0])
        assert len(out.eta) == out.iterations == len(out.trace) - 1
        assert out.eta == pytest.approx(_forcing_reference(out.trace, tol),
                                        rel=1e-12)
        floor = [0.5 * tol / r for r in out.trace[:-1]]
        assert out.eta[-1] == floor[-1]  # the last step stops at the floor
        assert all(floor[k] <= eta <= max(ETA_MAX, floor[k])
                   for k, eta in enumerate(out.eta))
        if case == "atan_backtracking":
            assert ETA_MAX in out.eta  # a damped step drops slowly

    def test_linear_system_at_most_two_steps(self, rng, caplog):
        n = 40
        A = rng.uniform(-1, 1, size=(n, n)) + 4.0 * np.eye(n)
        b = rng.uniform(-1, 1, size=n)
        toy = ToyProblem(lambda x: A @ x - b, lambda x: A, n)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            out = newton_solve(toy, np.zeros(n), NewtonConfig(), self.GMRES)
        assert out.converged and out.iterations <= 2
        assert out.eta[0] == ETA_FIRST
        assert np.allclose(out.values, np.linalg.solve(A, b), rtol=1e-5)
        # each GMRES solve stops once it meets its forcing term, a few
        # Krylov iterations (each gains well under 100x here) below it
        relres = _logged_relres(caplog)
        assert len(relres) == out.iterations
        for r, eta in zip(relres, out.eta):
            assert eta / 100 < r <= eta

    def test_pinned_tolerance_every_step(self, caplog):
        b = np.array([0.7, -1.2, 2.0])
        toy = ToyProblem(lambda x: x + x ** 3 - b,
                         lambda x: np.diag(1.0 + 3.0 * x ** 2), 3)
        cfg = LinearSolverConfig(lin_rel_tol=TIGHT)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            out = newton_solve(toy, np.full(3, 5.0), NewtonConfig(), cfg)
        assert out.converged and out.eta == [TIGHT] * out.iterations
        relres = _logged_relres(caplog)
        assert len(relres) == out.iterations
        assert max(relres) <= TIGHT
