import dataclasses
import importlib.util
import logging
import math
from pathlib import Path

import numpy as np
import pytest

import ustflow.scenarios as scenarios
from ustflow.assembly import BCSpec, MaterialParams
from ustflow.errors import NotConverged
from ustflow.extrude import rotation_matrix
from ustflow.geometry import box2d, box3d
from ustflow.mesh import SimplexMesh
from ustflow.postproc import probe, slice_at_time
from ustflow.scenarios import (ScenarioSpec, builtin_cases,
                               convergence_study, default_linear_config,
                               make_channel2d, make_couette2d, make_manufactured,
                               make_stirrer2d, manufactured_exact_factory,
                               run_slab, run_ust)
import ustflow.solver as solver
from ustflow.solver import (LinearSolverConfig, NewtonConfig, NewtonResult,
                            direct_lu)


def constant_scenario(c, n=3, t_end=0.3, levels=3):
    mesh = box2d(n, n)
    c = np.asarray(c, dtype=float)

    def cfn(x, t=None):
        return np.broadcast_to(c, (len(np.atleast_2d(x)), 2)).copy()

    bcs = BCSpec(dirichlet={t: cfn for t in ("x0", "x1", "y0", "y1")},
                 initial=lambda x: cfn(x))
    return ScenarioSpec("constant", 2, mesh, MaterialParams(1.0, 0.05), bcs,
                        t_end=t_end, levels=levels)


class TestGalileanFixedPoint:
    def test_constant_state_is_solution(self):
        spec = constant_scenario([0.9, -0.35])
        res = run_ust(spec)
        (newton,), (u,) = res.newtons, res.fields
        assert newton.converged
        assert newton.iterations <= 2
        assert newton.trace[-1] < 1e-10
        assert np.abs(u[:, 0] - 0.9).max() < 1e-10
        assert np.abs(u[:, 1] + 0.35).max() < 1e-10
        assert np.abs(u[:, 2]).max() < 1e-8


class TestManufactured:
    def test_body_force_against_fd_oracle(self, rng):
        # independent check of the hard-coded force: finite differences of
        # the exact velocity/pressure fields in the momentum equation
        nu = 0.05
        vel, pres, force, _ = manufactured_exact_factory(nu)
        x = rng.uniform(0.15, 0.85, size=(40, 2))
        t = rng.uniform(0.0, 0.5, size=40)
        h = 1e-5
        ex = np.array([1.0, 0.0])
        ey = np.array([0.0, 1.0])
        u = vel(x, t)
        u_t = (vel(x, t + h) - vel(x, t - h)) / (2 * h)
        ux = (vel(x + h * ex, t) - vel(x - h * ex, t)) / (2 * h)
        uy = (vel(x + h * ey, t) - vel(x - h * ey, t)) / (2 * h)
        lap = (vel(x + h * ex, t) + vel(x - h * ex, t)
               + vel(x + h * ey, t) + vel(x - h * ey, t) - 4 * u) / h ** 2
        px = (pres(x + h * ex, t) - pres(x - h * ex, t)) / (2 * h)
        py = (pres(x + h * ey, t) - pres(x - h * ey, t)) / (2 * h)
        conv = u[:, :1] * ux + u[:, 1:] * uy
        f_fd = u_t + conv + np.column_stack([px, py]) - nu * lap
        assert np.abs(f_fd - force(x, t)).max() < 1e-5

    def test_exact_velocity_divergence_free(self, rng):
        vel, _, _, _ = manufactured_exact_factory(0.05)
        x = rng.uniform(0.1, 0.9, size=(30, 2))
        t = rng.uniform(0.0, 0.5, size=30)
        h = 1e-6
        ex = np.array([1.0, 0.0])
        ey = np.array([0.0, 1.0])
        div = ((vel(x + h * ex, t)[:, 0] - vel(x - h * ex, t)[:, 0])
               + (vel(x + h * ey, t)[:, 1] - vel(x - h * ey, t)[:, 1])) / (2 * h)
        assert np.abs(div).max() < 1e-8


GRID_CASES = {"stirrer2d_6_levels": lambda: make_stirrer2d(levels=6),
              **builtin_cases()}


class TestTimeGrid:
    def test_zero_levels_rejected(self):
        with pytest.raises(ValueError, match="levels must be at least 1"):
            constant_scenario([0.0, 0.0], levels=0)

    def test_spec_is_frozen_and_replace_checks_again(self):
        spec = constant_scenario([0.0, 0.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.levels = 0
        with pytest.raises(ValueError, match="levels must be at least 1"):
            dataclasses.replace(spec, levels=0)
        with pytest.raises(ValueError, match="t_end must be positive"):
            dataclasses.replace(spec, t_end=0.0)
        assert dataclasses.replace(spec, levels=4).dt == spec.t_end / 4

    def test_non_integer_levels_rejected(self):
        """A float level count fails at construction, naming the value, and
        not inside the extrusion; a numpy integer is a count."""
        with pytest.raises(ValueError,
                           match="levels must be an integer, got 2.5"):
            constant_scenario([0.0, 0.0], levels=2.5)
        spec = constant_scenario([0.0, 0.0])
        with pytest.raises(ValueError,
                           match="levels must be an integer, got 3.0"):
            dataclasses.replace(spec, levels=3.0)
        assert dataclasses.replace(spec, levels=np.int64(4)).dt == \
            spec.t_end / 4

    def test_mode_is_checked(self):
        spec = constant_scenario([0.0, 0.0])
        with pytest.raises(ValueError, match="mode must be ust or slab, got "
                                             "'ale'"):
            dataclasses.replace(spec, mode="ale")
        assert dataclasses.replace(spec, mode="slab").mode == "slab"

    @pytest.mark.parametrize("make", GRID_CASES.values(), ids=GRID_CASES)
    def test_slab_n_spans_ust_levels_n_and_n_plus_1(self, make, monkeypatch):
        # run_slab marches the slabs of the UST mesh's time levels; Newton
        # is stubbed out, as only the slabs' node times are compared
        def no_solve(problem, values, cfg, lin_cfg):
            return NewtonResult(values, [0.0], 0, True)

        monkeypatch.setattr(scenarios, "newton_solve", no_solve)
        spec = make()
        times = np.unique(spec.ust_mesh().times)
        slabs = run_slab(spec).slabs
        assert len(times) == len(slabs) + 1 == spec.levels + 1
        n_sp = spec.mesh.n_nodes
        for n, slab in enumerate(slabs):
            t = slab.node_coords()[:, -1]
            # n * dt + dt and linspace's (n + 1) * dt differ by rounding
            np.testing.assert_allclose(t[:n_sp], times[n], rtol=0.0,
                                       atol=1e-12 * spec.t_end)
            np.testing.assert_allclose(t[n_sp:], times[n + 1], rtol=0.0,
                                       atol=1e-12 * spec.t_end)


class TestSlabMarching:
    def test_slab_count_bookkeeping(self):
        spec = constant_scenario([0.2, 0.1], t_end=17 * 0.01, levels=17)
        res = run_slab(spec)
        assert res.diagnostics["n_slabs"] == 17
        assert len(res.slabs) == 17
        assert res.diagnostics["failed_slab"] is None

    @pytest.mark.parametrize("run", [run_ust, run_slab], ids=["ust", "slab"])
    def test_stops_at_first_unconverged_slab(self, run):
        spec = make_manufactured(n=3)
        res = run(spec, newton_cfg=NewtonConfig(max_iter=1, rel_tol=1e-14,
                                                abs_tol=1e-14))
        assert len(res.slabs) == len(res.fields) == len(res.newtons) == 1
        assert res.diagnostics["failed_slab"] == 0
        assert res.diagnostics["converged"] is False

    def test_poiseuille_stationary_across_slabs(self):
        # starting from the exact-profile interpolant, the march relaxes
        # geometrically onto the discrete steady state; stationarity must
        # reach 1e-8 and the limit stays within P1 consistency of the
        # interpolant
        spec = make_channel2d(nx=10, ny=4, t_end=2.6, levels=26)
        res = run_slab(spec, newton_cfg=NewtonConfig(rel_tol=1e-12,
                                                     abs_tol=1e-12,
                                                     max_iter=20))
        n_sp = spec.mesh.n_nodes
        tops = [f[n_sp:, :2] for f in res.fields]
        scale = np.abs(tops[0]).max()
        deltas = [np.abs(tops[k + 1] - tops[k]).max() / scale
                  for k in range(len(tops) - 1)]
        assert deltas[-1] < 1e-8
        assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
        # close to the exact-profile interpolant (P1 consistency level)
        exact = spec.exact_solution(spec.mesh.nodes)
        err = np.abs(res.final_values[:, :2] - exact).max()
        assert err < 0.04 * np.abs(exact).max()

    @pytest.mark.parametrize("run", [run_ust, run_slab], ids=["ust", "slab"])
    def test_final_mesh_is_spatial_mesh_at_final_positions(self, run):
        # the mesh rotates rigidly with the inner wall; the final positions
        # are the top node level of the last piece marched
        spec = dataclasses.replace(
            make_couette2d(n_r=4, n_theta=12, t_end=0.2, levels=1), omega=1.0)
        res = run(spec)
        final, spatial = res.final_mesh, spec.mesh
        n_sp = spatial.n_nodes
        top = (res.slabs[-1].coords_top if run is run_slab
               else res.slabs[-1].nodes[-n_sp:, :2])
        assert np.array_equal(res.final_positions, top)
        assert np.array_equal(final.nodes, top)
        assert not np.array_equal(final.nodes, spatial.nodes)
        for name in ("elements", "boundary_facets", "boundary_tags"):
            assert np.array_equal(getattr(final, name), getattr(spatial, name))
        assert final.tag_names == spatial.tag_names

    def test_ust_final_values_are_its_top_node_level(self):
        spec = make_couette2d(n_r=4, n_theta=12, t_end=0.4, levels=2)
        res = run_ust(spec)
        (st_mesh,), (values,) = res.slabs, res.fields
        n_sp = spec.mesh.n_nodes
        assert np.all(st_mesh.nodes[-n_sp:, -1] == spec.t_end)
        assert np.array_equal(res.final_values, values[-n_sp:])
        assert res.diagnostics["n_slabs"] == 1
        assert res.diagnostics["failed_slab"] is None

    def test_warm_start_transfer_is_node_to_node(self):
        spec = make_couette2d(n_r=4, n_theta=12, t_end=0.4, levels=2)
        res = run_slab(spec)
        n_sp = spec.mesh.n_nodes
        first_top = res.fields[0][n_sp:, :2]
        # the second slab's jump data was the first top trace; with matching
        # values the bottom trace starts there (weakly enforced, so equal to
        # discretization tolerance)
        second_bottom = res.fields[1][:n_sp, :2]
        assert np.abs(first_top - second_bottom).max() < 0.1 * (
            np.abs(first_top).max() + 1e-30)


class TestModeConsistency:
    def test_single_level_ust_matches_single_slab(self):
        spec = make_manufactured(n=10, levels=1, t_end=0.1)
        ust = run_ust(spec)
        slab = run_slab(spec)
        n_sp = spec.mesh.n_nodes
        u_ust = ust.fields[0].reshape(2, n_sp, 3)  # level-major nodes
        u_slab = slab.fields[0].reshape(2, n_sp, 3)
        diff = u_ust[:, :, :2] - u_slab[:, :, :2]
        rel = np.linalg.norm(diff) / np.linalg.norm(u_slab[:, :, :2])
        assert rel < 0.02

    def test_rotational_equivariance_stirrer(self):
        alpha = 0.35
        spec = make_stirrer2d(levels=4, t_end=4 * 0.00012)
        cfg = NewtonConfig(rel_tol=1e-10, abs_tol=1e-10, max_iter=30)
        base = run_ust(spec, newton_cfg=cfg)

        R = rotation_matrix(2, None, alpha)
        mesh = spec.mesh
        rotated_mesh = SimplexMesh(mesh.nodes @ R.T, mesh.elements,
                                   mesh.boundary_facets, mesh.boundary_tags,
                                   mesh.tag_names, fix_orientation=False)
        spec_rot = make_stirrer2d(mesh=rotated_mesh, levels=4,
                                  t_end=4 * 0.00012)
        rot = run_ust(spec_rot, newton_cfg=cfg)

        ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        pts = np.column_stack([2.8 * np.cos(ang), 2.8 * np.sin(ang)])
        sl_base = slice_at_time(base.slabs[0], base.fields[0], spec.t_end)
        sl_rot = slice_at_time(rot.slabs[0], rot.fields[0], spec.t_end)
        v_base, f1 = probe(sl_base.mesh, sl_base.values, pts)
        v_rot, f2 = probe(sl_rot.mesh, sl_rot.values, pts @ R.T)
        assert f1.all() and f2.all()
        expected = v_base[:, :2] @ R.T
        scale = np.abs(v_base[:, :2]).max()
        assert np.abs(v_rot[:, :2] - expected).max() < 1e-6 * scale


class TestRegistry:
    def test_builtin_case_names(self):
        names = set(builtin_cases())
        assert names == {"stirrer2d", "stirrer3d", "couette2d", "channel2d",
                         "manufactured"}

    def test_stirrer2d_parameters(self):
        spec = builtin_cases()["stirrer2d"]()
        assert spec.material.rho == 1.0
        assert spec.material.mu == pytest.approx(0.03382)
        assert spec.omega == pytest.approx(250.0 * math.pi / 3.0)
        assert spec.dt == pytest.approx(0.00012)
        assert spec.levels == 17
        assert spec.t_end == pytest.approx(17 * 0.00012)
        assert set(spec.bcs.dirichlet) == {"stirrer", "outer_wall"}

    def test_gauge_pins_one_node_per_level(self):
        spec = make_manufactured(n=4, levels=3)
        st = spec.ust_mesh()
        pins = spec.gauge_for(st.nodes)
        assert len(pins) == 4  # one per node-time level
        times = sorted(st.nodes[n, 2] for n, _ in pins)
        assert np.allclose(times, np.linspace(0, spec.t_end, 4))

    def test_channel_has_neumann_no_gauge(self):
        spec = make_channel2d()
        assert not spec.needs_gauge()

    def test_stirrer3d_fixture_and_tags(self):
        spec = builtin_cases()["stirrer3d"]()
        assert spec.mesh.dim == 3
        assert spec.mesh.n_elements > 2800  # desk-scale "~3000 tets"
        assert set(spec.bcs.dirichlet) == {"stirrer", "outer_wall",
                                           "bottom", "top"}
        assert spec.axis == (0.0, 0.0, 1.0)
        coarse = builtin_cases()["stirrer3d"](coarse=True)
        assert coarse.mesh.n_elements < spec.mesh.n_elements

    @pytest.mark.parametrize("make", [make_channel2d, make_couette2d],
                             ids=["channel2d", "couette2d"])
    def test_mesh_of_another_dimension_rejected(self, make):
        message = "takes a 2D mesh, not a 3D one"
        with pytest.raises(ValueError, match=message):
            make(mesh=box3d(2, 2, 1), levels=2)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(make(levels=2), mesh=box3d(2, 2, 1))


class TestLinearSolverChoice:
    def test_default_is_time_level_gmres_at_every_size(self):
        for n_dofs in (12, 23598, 128682, 10 ** 7):
            cfg = default_linear_config(n_dofs)
            assert cfg.method == "gmres_restarted"

    def test_run_slab_uses_time_level_gmres(self, monkeypatch):
        # run_slab leaves the linear solver to newton_solve's default; the
        # solves that run are GMRES over a slab's bottom and top levels
        calls, methods = [], []
        newton, solve = scenarios.newton_solve, solver.solve_linear_system

        def spy(problem, values, cfg, lin_cfg):
            calls.append((problem.dof_levels, problem.n_dofs // 2))
            return newton(problem, values, cfg, lin_cfg)

        def solve_spy(A, b, cfg, precond=None):
            methods.append(cfg.method)
            return solve(A, b, cfg, precond)

        monkeypatch.setattr(scenarios, "newton_solve", spy)
        monkeypatch.setattr(solver, "solve_linear_system", solve_spy)
        res = run_slab(make_manufactured(n=3, levels=2))
        assert res.diagnostics["converged"]
        assert len(calls) == 2
        assert methods and set(methods) == {"gmres_restarted"}
        for levels, per_level in calls:
            assert np.array_equal(levels, np.repeat([0, 1], per_level))

    def test_dof_levels_follow_node_times(self):
        spec = make_stirrer2d(levels=3)
        st = spec.ust_mesh()
        problem = spec.problem(st)
        times = np.repeat(st.times, problem.ncomp)
        levels = problem.dof_levels
        assert sorted(set(levels)) == [0, 1, 2, 3]
        for k in range(4):
            assert np.allclose(times[levels == k], k * spec.t_end / 3,
                               rtol=1e-12, atol=0.0)

    def test_slab_dof_levels_are_bottom_and_top(self):
        spec = make_stirrer2d()
        slab = spec.slab(0)
        problem = spec.problem(slab)
        times = np.repeat(slab.node_coords()[:, 2], problem.ncomp)
        levels = problem.dof_levels
        assert levels.shape == (problem.n_dofs,)
        assert (np.diff(levels) >= 0).all()   # numbered level by level
        assert np.array_equal(times[levels == 0], np.zeros(
            problem.n_dofs // 2))
        assert np.array_equal(times[levels == 1], np.full(
            problem.n_dofs // 2, spec.dt))

    def test_run_slab_matches_direct_lu_oracle(self):
        # the first four slabs of the shipped 2D stirrer.  Each GMRES step is
        # only as accurate as its forcing term, and Newton stops each slab at
        # rel_tol = 1e-6 of its first residual, so the final traces agree to
        # that order, not to rounding (measured: 5e-8 of each component's
        # maximum, for the velocity and the pressure)
        spec = make_stirrer2d(levels=4, t_end=4 * scenarios.STIRRER_DT)
        gs = run_slab(spec)
        lu = run_slab(spec, lin_cfg=LinearSolverConfig(method="direct_lu"))
        assert gs.diagnostics["converged"] and lu.diagnostics["converged"]
        assert (gs.diagnostics["newton_iterations"]
                == lu.diagnostics["newton_iterations"])
        U, U_ref = gs.final_values, lu.final_values
        for c in range(U.shape[1]):
            assert (np.abs(U[:, c] - U_ref[:, c]).max()
                    <= 1e-6 * np.abs(U_ref[:, c]).max()), c

    @pytest.fixture(scope="class")
    def stirrer_oracle(self):
        # the shipped 2D stirrer mesh, twisted over 6 levels of
        # 17/6 * 0.00012 across the 17-level horizon
        spec = make_stirrer2d(levels=6)
        return spec, run_ust(spec, lin_cfg=LinearSolverConfig(
            method="direct_lu"))

    def test_twisted_stirrer_matches_direct_lu_oracle(self, stirrer_oracle):
        # GMRES pinned to 1e-8 at every step follows the oracle's iterates
        spec, lu = stirrer_oracle
        gs = run_ust(spec, lin_cfg=LinearSolverConfig(lin_rel_tol=1e-8))
        assert gs.diagnostics["converged"] and lu.diagnostics["converged"]
        assert (gs.diagnostics["newton_iterations"]
                == lu.diagnostics["newton_iterations"])
        (U,), (U_ref,) = gs.fields, lu.fields
        assert np.abs(U - U_ref).max() <= 1e-8 * np.abs(U_ref).max()

    def test_twisted_stirrer_forcing_term_within_newton_tolerance(
            self, stirrer_oracle):
        # the default solve: each GMRES step only as accurate as its
        # forcing term asks, so the iterates leave the oracle's
        spec, lu = stirrer_oracle
        gs = run_ust(spec)
        (newton,), (newton_ref,) = gs.newtons, lu.newtons
        assert newton.converged
        tol = NewtonConfig().rel_tol * newton.trace[0]
        (U,), (U_ref,) = gs.fields, lu.fields
        # What the Newton tolerance promises for the field.  Newton stops at
        # U with ||R(U)|| <= tol.  To first order U* - U is the Newton
        # correction delta = -J(U)^-1 R(U), one direct solve at U; the rest
        # is second order in delta plus the frozen-tau part of J.  A
        # residual of norm tol along R(U) would leave (tol / ||R(U)||) |delta|,
        # and the oracle's own residual is orders of magnitude below tol.
        # So each component (velocity and pressure differ by 1e4 in scale)
        # must lie that close to the oracle's, with 5% for the remainder.
        problem = spec.problem(gs.slabs[0])
        system, rhs, rnorm = problem.system(U)
        assert rnorm == newton.trace[-1] <= tol
        assert newton_ref.trace[-1] <= 1e-3 * tol
        delta = direct_lu(system.matrix, rhs).reshape(U.shape)
        for c in range(U.shape[1]):
            bound = 1.05 * tol / rnorm * np.abs(delta[:, c]).max()
            assert np.abs(U[:, c] - U_ref[:, c]).max() <= bound, c


class TestConvergenceStudy:
    @pytest.mark.parametrize("mode", ["ust", "slab"])
    def test_unconverged_run_raises(self, mode):
        with pytest.raises(NotConverged) as err:
            convergence_study("manufactured", [4], mode,
                              NewtonConfig(max_iter=1))
        assert str(err.value).endswith(
            f"case=manufactured size=4 mode={mode}: Newton did not "
            f"converge in slab 0")

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="mode must be ust or slab"):
            convergence_study("manufactured", [4], "ale")

    def test_orders_of_zero_and_nan_errors(self, monkeypatch):
        """inf only where the finer error alone is zero; nan where either
        error is nan, as couette2d's pressure error is, or the coarser one
        is zero."""
        errors = {4: (0.4, 0.3), 8: (0.1, 0.0), 16: (math.nan, 0.0),
                  32: (0.0, 0.2)}
        monkeypatch.setattr(scenarios, "_case_errors",
                            lambda spec, size, cfg: errors[size])
        rows = convergence_study("couette2d", [4, 8, 16, 32])
        assert rows[1]["order_u"] == 2.0
        assert rows[1]["order_p"] == math.inf
        for row in rows[2:]:
            assert math.isnan(row["order_u"]) and math.isnan(row["order_p"])


class TestBenchmarkHook:
    """perfbench/tracing.py wraps the solver from outside the package; a
    change to the signature it forwards breaks the traced benchmark."""

    @staticmethod
    def tracing():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_one_solver_span_per_newton_step(self):
        tracing = self.tracing()
        tr = tracing.Tracer("hook")
        solve, newton = solver.solve_linear_system, scenarios.newton_solve
        tracing.install_layer_wrappers(tr)
        try:
            res = run_ust(make_couette2d(n_r=3, n_theta=12, levels=3,
                                         t_end=0.5))
        finally:
            tr.restore()
        assert solver.solve_linear_system is solve
        assert scenarios.newton_solve is newton
        (newton,), (st_mesh,) = res.newtons, res.slabs
        assert newton.converged and newton.iterations >= 2
        solves = [s for s in tr.spans if s["name"] == "solver.solve"]
        assert len(solves) == newton.iterations
        n_dofs = st_mesh.n_nodes * 3
        for s in solves:
            assert s["n_dofs"] == n_dofs and s["nnz"] > n_dofs
            assert s["end"] >= s["start"]

    def test_traced_first_system_is_level_periodic(self, caplog):
        """The tracer freezes tau on every system; the first system still
        takes the level-periodic path, and the first solve factors as many
        levels as an untraced run's."""
        spec = dataclasses.replace(
            make_couette2d(n_r=3, n_theta=12, levels=4, t_end=0.5), omega=1.0)
        untraced = run_ust(spec, NewtonConfig(max_iter=1))
        tracing = self.tracing()
        tr = tracing.Tracer("hook")
        tracing.install_layer_wrappers(tr)
        try:
            with caplog.at_level(logging.INFO, logger="ustflow"):
                traced = run_ust(spec, NewtonConfig(max_iter=1))
        finally:
            tr.restore()
        messages = [r.getMessage() for r in caplog.records]
        first = next(i for i, m in enumerate(messages)
                     if m.startswith("newton iter=0 "))
        assert any(m.startswith("assembly periodic levels=1/4 ")
                   for m in messages[:first])
        (before,), (after,) = untraced.newtons, traced.newtons
        assert after.solves[0]["factored"] == before.solves[0]["factored"] == 3
