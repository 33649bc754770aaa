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
from ustflow.scenarios import (STIRRER_DT, make_channel2d, make_couette2d,
                               make_manufactured, make_stirrer3d)
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
        self.dir_dofs = np.array([], dtype=int)
        self.calls = []  # (want_matrix, U) of each system call

    def system(self, U, tau_override=None, want_matrix=True):
        U = np.asarray(U, dtype=float).ravel()
        self.calls.append((want_matrix, U.copy()))
        R = self._res(U)
        rhs = -R
        A = sp.csr_matrix(self._jac(U)) if want_matrix else None
        system = types.SimpleNamespace(matrix=A, stack=None)
        return (system if want_matrix else None, rhs,
                float(np.linalg.norm(R)))

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

    def test_zero_rhs_returns_zeros(self):
        """b = 0 gives x = 0 after no iteration, without a factorization."""
        A = sp.diags(np.arange(1.0, 11.0)).tocsr()
        precond = TimeLevelPreconditioner(np.arange(10) // 5)
        x, stats = gmres_solve(A, np.zeros(10), precond, TIGHT)
        assert x.tolist() == [0.0] * 10
        assert stats["iterations"] == 0 and stats["relres"] == 0.0
        assert precond.lus is None

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
            np.sort(rng.integers(0, 4, size=n))), TIGHT)
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
        A = (sp.random(n, n, density=0.2, random_state=5)
             + 4.0 * sp.eye(n)).tolil()
        A[:3] = sp.eye(3, n)  # three Dirichlet rows
        A = A.tocsr()
        b = rng.uniform(-1, 1, size=n)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            solve_linear_system(A, b, LinearSolverConfig(lin_rel_tol=TIGHT),
                                TimeLevelPreconditioner(np.arange(n) // 10,
                                                        fixed=[0, 1, 2]))
            solve_linear_system(A, b, LinearSolverConfig(method="direct_lu"))
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        for line, method, free in zip(lines, ("gmres_restarted", "direct_lu"),
                                      (27, 30)):
            assert line.startswith(f"linear solve method={method} ")
            for key in ("precond=", "levels=", "iters=", "relres=",
                        "factor_s=", "krylov_s="):
                assert key in line
            assert line.endswith(f" resumes=0 free={free}/30")
        assert "precond=time_levels levels=3 " in lines[0]
        assert " factored=3/3 " in lines[0] and " factored=- " in lines[1]


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
    # the mesh turns with the inner wall
    return dataclasses.replace(
        make_couette2d(n_r=3, n_theta=12, levels=4, t_end=0.5), omega=1.0)


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
        problem = spec.problem(spec.ust_mesh())
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

    def test_fixed_rows_and_columns_dropped(self, rng, monkeypatch):
        # the free block of D A D, renumbered, across slices of 7 rows
        monkeypatch.setattr("ustflow.solver._EQUILIBRATE_ROWS", 7)
        A, _, fixed = _system_with_fixed_dofs(rng)
        As, scale = _equilibrate(A, fixed=fixed)
        assert (scale[fixed] == 0.0).all()
        free = np.flatnonzero(~fixed)
        D = sp.diags(scale)
        ref = (D @ A @ D).tocsr()[free][:, free]
        ref.eliminate_zeros()
        assert As.shape == (len(free), len(free))
        for name in ("data", "indices", "indptr"):
            assert getattr(As, name).tobytes() == getattr(ref, name).tobytes()


def _system_with_fixed_dofs(rng, n_levels=5, per_level=8):
    """A block-lower-triangular system in 5 levels whose every fourth dof
    is fixed: an identity row, which the free rows couple to."""
    levels = np.repeat(np.arange(n_levels), per_level)
    n = len(levels)
    fixed = np.arange(n) % 4 == 1
    A = rng.uniform(-1, 1, size=(n, n)) + 16.0 * np.eye(n)
    A *= levels[:, None] >= levels[None, :]
    A[fixed] = np.eye(n)[fixed]
    return sp.csr_matrix(A), levels, fixed


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
        """The sweep takes the free dofs level by level and names the first
        free dof that is not; a fixed dof may sit anywhere."""
        A, b, levels = _block_tridiagonal_system(rng)
        x_ref = direct_lu(A, b)
        x, _ = gmres_solve(A, b, TimeLevelPreconditioner(levels), TIGHT)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8
        swapped = levels.copy()
        swapped[[11, 21]] = swapped[[21, 11]]  # levels 1 and 2
        with pytest.raises(ValueError, match=r"free dof 12 is in an earlier "
                                             r"time level"):
            TimeLevelPreconditioner(swapped)
        TimeLevelPreconditioner(swapped, fixed=[11, 21])

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
        problem = spec.problem(spec.ust_mesh())
        system, rhs, _ = problem.system(problem.initial_guess())
        x_ref = direct_lu(system.matrix, rhs)
        x, stats = gmres_solve(system.matrix, rhs,
                               TimeLevelPreconditioner(problem.dof_levels),
                               TIGHT)
        assert stats["levels"] == spec.levels + 1
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-7


class TestFreeDofs:
    """GMRES solves for the free dofs and sets x_D = b_D."""

    def test_nonzero_dirichlet_values_match_direct_lu(self, rng):
        A, levels, fixed = _system_with_fixed_dofs(rng)
        b = rng.uniform(-1, 1, size=len(levels))
        assert np.abs(A[~fixed][:, fixed] @ b[fixed]).max() > 0.1
        precond = TimeLevelPreconditioner(levels, np.flatnonzero(fixed))
        x, stats = gmres_solve(A, b, precond, TIGHT)
        assert stats["free"] == (~fixed).sum() and stats["iterations"] == 1
        assert np.array_equal(x[fixed], b[fixed])
        np.testing.assert_allclose(x, direct_lu(A, b), rtol=1e-10)
        assert stats["relres"] == _relres(A, x, b) < 1e-12

    @pytest.mark.parametrize("entry", [(5, 6), (5, 5)],
                             ids=["off_diagonal", "diagonal"])
    def test_fixed_row_must_be_identity_row(self, rng, entry):
        A, levels, fixed = _system_with_fixed_dofs(rng)
        A = A.tolil()
        A[entry] = 0.5
        with pytest.raises(ValueError, match="fixed dof 5: its row is not "
                                             "an identity row"):
            gmres_solve(A.tocsr(), np.ones(len(levels)),
                        TimeLevelPreconditioner(levels, np.flatnonzero(fixed)),
                        TIGHT)

    def test_missing_diagonal_of_fixed_row_rejected(self, rng):
        A, levels, fixed = _system_with_fixed_dofs(rng)
        A = A.tolil()
        A[5, 5] = 0.0
        A = A.tocsr()
        A.eliminate_zeros()
        with pytest.raises(ValueError, match="fixed dof 5:"):
            _equilibrate(A, fixed=fixed)

    def test_twisted_problem_same_iterations_as_full_solve(self):
        spec = _twisted_couette()
        problem = spec.problem(spec.ust_mesh())
        assert 0 < len(problem.dir_dofs) < problem.n_dofs
        system, rhs, _ = problem.system(problem.initial_guess())
        solves = [gmres_solve(system.matrix, rhs,
                              TimeLevelPreconditioner(problem.dof_levels,
                                                      fixed), ETA_FIRST)
                  for fixed in (problem.dir_dofs, ())]
        (x, stats), (x_all, stats_all) = solves
        assert stats["free"] == problem.n_dofs - len(problem.dir_dofs)
        assert stats_all["free"] == problem.n_dofs
        assert stats["iterations"] == stats_all["iterations"] > 1
        assert stats["relres"] == pytest.approx(stats_all["relres"],
                                                rel=1e-9)
        assert np.abs(x - x_all).max() <= 1e-10 * np.abs(x_all).max()

    def test_newton_solves_for_the_problems_free_dofs(self, caplog):
        spec, problem = _couette_problem()
        with caplog.at_level(logging.INFO, logger="ustflow"):
            out = newton_solve(problem, problem.initial_guess())
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("linear solve")]
        assert out.converged and len(lines) == out.iterations >= 2
        n = problem.n_dofs
        assert all(line.endswith(f" free={n - len(problem.dir_dofs)}/{n}")
                   for line in lines)


def _couette_problem():
    spec = _twisted_couette()
    return spec, spec.problem(spec.ust_mesh())


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
        # the twisted mesh's interior levels share level 1's LU
        factored = [s["factored"] for s in out.solves]
        assert len(calls) == factored[0] == 3
        assert factored == [3] * out.iterations
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
        assert len(calls) == 3
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
            R = U + U ** 3 - b
            if not want_matrix:
                return None, -R, np.linalg.norm(R)
            A = sp.csr_matrix(np.diag(1.0 + 3.0 * U ** 2))
            matrices.append(weakref.ref(A))
            return (types.SimpleNamespace(matrix=A, stack=None), -R,
                    np.linalg.norm(R))

        toy = types.SimpleNamespace(system=system,
                                    dof_levels=np.array([0, 0, 1, 1]),
                                    dir_dofs=np.array([], dtype=int))
        out = newton_solve(toy, np.full(4, 2.0))
        # one matrix per step; the converged iterate gets none
        assert out.converged and len(matrices) == out.iterations >= 2


def _coarse_stirrer3d():
    return make_stirrer3d(coarse=True, levels=4, t_end=4 * STIRRER_DT)


class TestSharedLevelLus:
    """On a system turned on a twisted mesh's level stack the interior
    levels take level 1's LU through their rotation; a level whose free
    dofs are not level 1's, and every level without a stack, gets an LU of
    its own."""

    @staticmethod
    def first_matrix(problem):
        return problem.system(problem.initial_guess())[0].matrix

    @staticmethod
    def sweep(problem, A, stack, fixed=None):
        """(the preconditioner, the equilibrated free block, its sweep)."""
        precond = TimeLevelPreconditioner(
            problem.dof_levels,
            problem.dir_dofs if fixed is None else fixed, stack)
        As, _ = precond.equilibrate(A)
        return precond, As, precond.operator(As)

    @staticmethod
    def shared_levels(precond):
        return [int(precond.levels[s])
                for s, (_, W, _) in zip(precond.starts, precond.lus)
                if W is not None]

    def test_stack_turns_node_level_zero_onto_each_level(self):
        """Node level m is node level 0 turned by ``node_rotation`` Q_m,
        the top too, Q_L = R_{L-1} R_1; the stirrers turn about the origin.
        A prism slab and a one-level mesh are stacks of L = 1, which share
        no LU."""
        from ustflow.scenarios import make_stirrer2d
        for spec in (make_stirrer2d(), make_stirrer3d(coarse=True)):
            mesh = spec.ust_mesh()
            stack = mesh.level_stack
            x = mesh.spatial_coords.reshape(stack.L + 1, stack.n_sp, -1)
            assert stack.L == spec.levels == 17
            assert np.array_equal(stack.node_rotation(0), np.eye(x.shape[2]))
            bar = 1e-12 * np.ptp(x[0], axis=0).max()
            for m in range(1, stack.L + 1):
                Q = stack.node_rotation(m)
                assert np.abs(x[m] - x[0] @ Q.T).max() <= bar
                assert np.abs(Q - np.eye(len(Q))).max() > 1e-3
            slab = spec.problem(spec.slab(0))
            assert slab.level_stack.L == 1
            assert TimeLevelPreconditioner(
                slab.dof_levels, slab.dir_dofs,
                slab.level_stack)._level_turns() == {}
        spec = dataclasses.replace(
            make_couette2d(n_r=3, n_theta=12, levels=1, t_end=0.125),
            omega=1.0)
        problem = spec.problem(spec.ust_mesh())
        assert problem.level_stack.L == 1
        precond, _, _ = self.sweep(problem, self.first_matrix(problem),
                                   problem.level_stack)
        assert precond._level_turns() == {}
        assert precond.factored == len(precond.starts) == 2

    def test_turned_system_factors_three_levels(self, monkeypatch):
        """On the stirrer2d fixture, 17 element levels, the first system is
        turned on the problem's stack.  Given that stack, the sweep factors
        node levels 0, 1 and 17 alone, and each interior level m = 2..16
        solves through level 1's LU with W = S_m^-1 T S_1."""
        from ustflow.scenarios import make_stirrer2d
        spec = make_stirrer2d()
        problem = spec.problem(spec.ust_mesh())
        system = problem.system(problem.initial_guess())[0]
        assert system.stack is problem.level_stack
        calls, splu = [], spla.splu

        def counted(A):
            calls.append(A.shape)
            return splu(A)

        monkeypatch.setattr(spla, "splu", counted)
        precond, _, _ = self.sweep(problem, system.matrix, system.stack)
        assert len(calls) == 3
        assert (precond.factored, len(precond.starts)) == (3, 18)
        assert self.shared_levels(precond) == list(range(2, 17))
        scale = precond.scale[precond.free]
        level = [scale[s:e] for s, e in zip(precond.starts, precond.ends)]
        turns = precond._level_turns()
        for m in range(2, 17):
            _, W, Wt = precond.lus[m]
            want = sp.diags(1.0 / level[m]) @ turns[m] @ sp.diags(level[1])
            assert abs(W - want).max() <= 1e-15 * abs(want).max()
            assert (Wt != W.T).nnz == 0

    def test_dirichlet_mask_that_does_not_repeat(self):
        """One more fixed dof at node level 3: its free dofs are no longer
        node level 1's, so level 3 alone is factored, and the other
        interior levels still share level 1's LU."""
        spec = dataclasses.replace(
            make_couette2d(n_r=3, n_theta=12, levels=6, t_end=0.75),
            omega=1.0)
        problem = spec.problem(spec.ust_mesh())
        A = self.first_matrix(problem)
        every, _, _ = self.sweep(problem, A, problem.level_stack)
        assert self.shared_levels(every) == [2, 3, 4, 5]
        n_sp, nc = spec.mesh.n_nodes, problem.ncomp
        d = (3 * n_sp + 5) * nc + nc - 1  # a pressure of node level 3
        assert d not in problem.dir_dofs
        A = A.tolil()
        A[d, :] = 0.0
        A[d, d] = 1.0
        fixed = np.append(problem.dir_dofs, d)
        precond, _, _ = self.sweep(problem, A.tocsr(), problem.level_stack,
                                   fixed)
        assert self.shared_levels(precond) == [2, 4, 5]
        assert precond.factored == 4

    @pytest.mark.parametrize("make", [_twisted_couette, _coarse_stirrer3d],
                             ids=["couette2d", "stirrer3d_coarse"])
    def test_shared_sweep_equals_per_level_sweep(self, make, rng):
        spec = make()
        problem = spec.problem(spec.ust_mesh())
        A = self.first_matrix(problem)
        shared, As, M = self.sweep(problem, A, problem.level_stack)
        own, As_own, M_own = self.sweep(problem, A, None)
        assert (As != As_own).nnz == 0
        n_levels = spec.levels + 1
        assert (shared.factored, own.factored) == (3, n_levels)
        assert self.shared_levels(shared) == list(range(2, n_levels - 1))
        assert shared.lu_nnz < own.lu_nnz
        for _ in range(3):
            r = rng.standard_normal(As.shape[0])
            a, b = M.matvec(r), M_own.matvec(r)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_time_dependent_wall_data_factors_every_level(self):
        # the inner wall speeds up in time, so no level is another turned
        spec = _twisted_couette()
        inner = spec.bcs.dirichlet["inner"]
        bcs = dataclasses.replace(spec.bcs, dirichlet={
            **spec.bcs.dirichlet,
            "inner": lambda x, t: (1.0 + np.asarray(t))[:, None] * inner(x)})
        spec = dataclasses.replace(spec, bcs=bcs)
        problem = spec.problem(spec.ust_mesh())
        assert problem.level_stack.L == spec.levels
        out = newton_solve(problem, problem.initial_guess())
        assert out.converged
        assert [s["factored"] for s in out.solves] == (
            [spec.levels + 1] * out.iterations)

    @pytest.mark.parametrize("change,shared", [(1e-9, []), (1e-15, [2, 3])],
                             ids=["above_bar", "below_bar"])
    def test_perturbed_level_factored_alone(self, change, shared):
        """A frozen tau moved on element level 2 by more than SHARE_TOL of
        its largest value gives a system with no stack, and the sweep
        factors every level; moved by less, the system keeps its stack and
        the interior levels share level 1's LU."""
        spec, problem = _couette_problem()
        U = problem.initial_guess()
        stab = problem.stabilization(U)
        n_per = problem.level_stack.n_per
        for tau in (stab.tau_mom, stab.tau_cont):
            tau[2 * n_per + 7] += change * tau.max()
        system = problem.system(U, tau_override=stab)[0]
        assert (system.stack is None) == (not shared)
        precond, _, _ = self.sweep(problem, system.matrix, system.stack)
        assert self.shared_levels(precond) == shared
        assert precond.factored == spec.levels + 1 - len(shared)

    def test_perturbed_level_still_shares_given_a_stack(self, rng):
        """A stack states that the interior blocks are level 1's turned, and
        the sweep does not check it: a level 2 block moved by 1e-3 still
        takes level 1's LU, a weaker sweep, and GMRES still meets the true
        residual.  Without the stack every level is factored."""
        spec, problem = _couette_problem()
        A = self.first_matrix(problem).tolil()
        n_sp, nc = spec.mesh.n_nodes, problem.ncomp
        free = np.setdiff1d(np.arange(2 * n_sp * nc, 3 * n_sp * nc),
                            problem.dir_dofs)
        d = free[len(free) // 2]  # a free dof of level 2
        A[d, d] *= 1.0 + 1e-3
        A = A.tocsr()
        shared, As, M = self.sweep(problem, A, problem.level_stack)
        own, _, M_own = self.sweep(problem, A, None)
        assert self.shared_levels(shared) == [2, 3]
        assert (shared.factored, own.factored) == (3, spec.levels + 1)
        r = rng.standard_normal(As.shape[0])
        assert not np.allclose(M.matvec(r), M_own.matvec(r), rtol=1e-9,
                               atol=0.0)
        b = rng.uniform(-1, 1, size=problem.n_dofs)
        x, stats = gmres_solve(
            A, b, TimeLevelPreconditioner(problem.dof_levels,
                                          problem.dir_dofs,
                                          problem.level_stack), TIGHT)
        assert stats["factored"] == 3
        assert np.linalg.norm(b - A @ x) <= TIGHT * np.linalg.norm(b)

    def test_singular_shared_block_names_its_levels(self, rng):
        # the same pressure dof, row and column zeroed, at levels 1 to 3:
        # the interior blocks still are level 1's turned, and singular
        spec, problem = _couette_problem()
        A = self.first_matrix(problem).tolil()
        n_sp, nc = spec.mesh.n_nodes, problem.ncomp
        for level in (1, 2, 3):
            d = (level * n_sp + 5) * nc + nc - 1
            A[d, :] = 0.0
            A[:, d] = 0.0
        precond = TimeLevelPreconditioner(problem.dof_levels,
                                          problem.dir_dofs,
                                          problem.level_stack)
        b = rng.uniform(-1, 1, size=problem.n_dofs)
        with pytest.raises(LinearSolveFailure,
                           match=r"time level 1 is singular \(its LU serves "
                                 r"levels 2, 3 too\)"):
            gmres_solve(A.tocsr(), b, precond, TIGHT)
        # without the stack level 1 is still the first to fail
        with pytest.raises(LinearSolveFailure,
                           match="time level 1 is singular: "):
            gmres_solve(A.tocsr(), b,
                        TimeLevelPreconditioner(problem.dof_levels,
                                                problem.dir_dofs), TIGHT)


class TestResidualFirst:
    """A step whose linear model predicts convergence, eta_k ||R_k|| <= tol,
    checks the new iterate's residual before building its matrix."""

    def test_missed_prediction_falls_back_to_the_matrix(self, caplog):
        # a pinned eta of 1e-3 predicts a residual of 1e-3 ||R_k||, below the
        # tolerance of 1e-2 ||R_0||, but the cubic is far from linear here
        b = np.array([0.7, -1.2, 2.0])
        toy = ToyProblem(lambda x: x + x ** 3 - b,
                         lambda x: np.diag(1.0 + 3.0 * x ** 2), 3)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            out = newton_solve(toy, np.full(3, 5.0), NewtonConfig(rel_tol=1e-2),
                               LinearSolverConfig(lin_rel_tol=1e-3))
        assert out.converged
        flags = [m for m, _ in toy.calls]
        # each step but the last: a residual pass that misses, then the matrix
        assert flags == [True] + [False, True] * (out.iterations - 1) + [False]
        assert out.iterations >= 3
        for (_, U), (_, V) in zip(toy.calls[1::2], toy.calls[2::2]):
            assert np.array_equal(U, V)
        # one trace entry and one log line per iterate
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("newton iter=")]
        assert len(lines) == len(out.trace) == out.iterations + 1


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
        assert len(out.trace) == 3

    def test_last_iterate_gets_residual_alone(self):
        # nothing is solved from the iterate of step max_iter, so it gets
        # no matrix; trace, outcome and best iterate are plain Newton's
        b = np.array([2.0])
        toy = ToyProblem(lambda x: x + x ** 3 - b,
                         lambda x: np.diag(1.0 + 3.0 * x ** 2), 1)
        out = newton_solve(toy, np.array([100.0]),
                           NewtonConfig(max_iter=2, abs_tol=1e-14,
                                        rel_tol=1e-16),
                           LinearSolverConfig(method="direct_lu"))
        assert [m for m, _ in toy.calls] == [True, True, False]
        x = [100.0]
        for _ in range(2):
            x.append(x[-1] - (x[-1] + x[-1] ** 3 - 2.0)
                     / (1.0 + 3.0 * x[-1] ** 2))
        assert not out.converged and out.iterations == 2
        assert np.allclose(out.trace, [abs(v + v ** 3 - 2.0) for v in x],
                           rtol=1e-12)
        assert np.allclose(out.values, [x[-1]], rtol=1e-12)

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

    def test_records_each_linear_solve(self, caplog):
        spec, problem = _couette_problem()
        with caplog.at_level(logging.INFO, logger="ustflow"):
            out = newton_solve(problem, problem.initial_guess())
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("linear solve")]
        assert len(out.solves) == len(lines) == out.iterations >= 2
        free = problem.n_dofs - len(problem.dir_dofs)
        for k, (stats, line) in enumerate(zip(out.solves, lines)):
            assert stats["method"] == "gmres_restarted"
            assert stats["relres"] <= out.eta[k]
            assert (stats["lagged"], stats["free"]) == (int(k > 0), free)
            assert stats["lu_nnz"] == out.solves[0]["lu_nnz"] > 0
            assert f" iters={stats['iterations']} " in line
            assert f" lagged={stats['lagged']} factored=3/5 " in line
        assert out.solves[0]["factor_s"] > 0.0
        direct = newton_solve(problem, problem.initial_guess(),
                              lin_cfg=LinearSolverConfig(method="direct_lu"))
        assert [s["method"] for s in direct.solves] == (
            ["direct_lu"] * direct.iterations)

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
            # a flat vector of unknowns, none fixed: all continuity rows
            assert (res.res_mom[k], res.res_cont[k], res.res_dir[k]) == (
                0.0, r, 0.0)
            assert line == (f"newton iter={k} res={r:.6e} "
                            f"res_mom=0.000000e+00 res_cont={r:.6e} "
                            f"res_dir=0.000000e+00 assemble_s={t:.3f} "
                            f"eta={eta}")
            assert t >= 0.0

    @pytest.mark.parametrize("make", [lambda: make_channel2d(nx=8, ny=4,
                                                             levels=3),
                                      lambda: make_manufactured(n=4)],
                             ids=["channel2d", "manufactured"])
    def test_residual_parts(self, make, caplog):
        """The momentum, continuity and Dirichlet-row parts of each residual
        make up its norm to rounding, and go on the log line.  The initial
        values miss the Dirichlet data, so the first residual has all three
        parts; the first step meets the data."""
        spec = make()
        problem = spec.problem(spec.ust_mesh())
        U0 = problem.initial_guess()
        U0.reshape(-1)[problem.dir_dofs] += 0.1
        with caplog.at_level(logging.INFO, logger="ustflow"):
            out = newton_solve(problem, U0)
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("newton iter=")]
        assert out.converged and len(lines) == len(out.trace) >= 2
        parts = np.array([out.res_mom, out.res_cont, out.res_dir]).T
        assert (parts[0] > 0.0).all()
        assert parts[1:, 2].max() < 1e-12 * out.trace[0]
        for line, r, (m, c, d) in zip(lines, out.trace, parts):
            assert np.sqrt(m * m + c * c + d * d) == pytest.approx(r,
                                                                   rel=1e-13)
            assert (f" res={r:.6e} res_mom={m:.6e} res_cont={c:.6e} "
                    f"res_dir={d:.6e} ") in line

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

    @pytest.mark.parametrize("case", ["cubic", "exp"])
    def test_sequence_follows_formula_cap_and_floor(self, case):
        cfg = NewtonConfig(max_iter=50)
        if case == "cubic":
            b = np.array([0.7, -1.2, 2.0])
            toy = ToyProblem(lambda x: x + x ** 3 - b,
                             lambda x: np.diag(1.0 + 3.0 * x ** 2), 3)
            x0 = np.full(3, 5.0)
        else:
            # exp(x) - e from x = 10: each step drops the residual by
            # about 1/e only, so the terms reach the cap
            toy = ToyProblem(lambda x: np.exp(x) - np.e,
                             lambda x: np.diag(np.exp(x)), 1)
            x0 = np.array([10.0])
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
        if case == "exp":
            assert ETA_MAX in out.eta

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
