"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Newton iteration traces
for the stirrer runs are archived under tests/_artifacts/.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from ustflow.assembly import BCSpec, MaterialParams, SpaceTimeProblem
from ustflow.extrude import ExtrusionSpec, NodeTrajectory, extrude_simplex_st
from ustflow.geometry import box2d, box3d, disk2d
from ustflow.mesh import validate_mesh
from ustflow.postproc import probe, probe_vorticity, slice_at_time
from ustflow.scenarios import (STIRRER_DT, STIRRER_LEVELS, STIRRER_OMEGA,
                               ScenarioSpec, convergence_study,
                               load_fixture_mesh, make_stirrer2d,
                               make_stirrer3d, run_slab, run_ust)
from ustflow.solver import NewtonConfig
from ustflow.stabilization import (reference_derivative, tau_continuity,
                                   tau_momentum)

ARTIFACTS = Path(__file__).parent / "_artifacts"
ARTIFACTS.mkdir(exist_ok=True)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def stirrer2d_runs():
    """Shared 2D stirrer solves (criteria 6 and 7)."""
    spec = make_stirrer2d()
    ust = run_ust(spec, newton_cfg=NewtonConfig(max_iter=30))
    slab = run_slab(spec, newton_cfg=NewtonConfig(max_iter=15))
    return spec, ust, slab


class TestCriterion1CountIdentity:
    def test_count_identity(self):
        t0 = time.perf_counter()
        mesh2d = load_fixture_mesh("stirrer2d")
        traj2d = NodeTrajectory((0.0, 0.0), omega=STIRRER_OMEGA)
        st2d = extrude_simplex_st(
            mesh2d, ExtrusionSpec(0.0, STIRRER_LEVELS * STIRRER_DT,
                                  STIRRER_LEVELS, traj2d))
        ok2d = st2d.n_elements == mesh2d.n_elements * 17 * 3

        mesh3d = load_fixture_mesh("stirrer3d")
        traj3d = NodeTrajectory((0.0, 0.0, 0.0),
                                (0.0, 0.0, 1.0), STIRRER_OMEGA)
        st3d = extrude_simplex_st(
            mesh3d, ExtrusionSpec(0.0, STIRRER_LEVELS * STIRRER_DT,
                                  STIRRER_LEVELS, traj3d))
        ok3d = st3d.n_elements == mesh3d.n_elements * 17 * 4

        paper_ok = (4502 * 17 * 3 == 229602) and (24608 * 17 * 4 == 1673344)
        valid2d = validate_mesh(st2d) == []
        elapsed = time.perf_counter() - t0
        report(1, ok2d and ok3d and paper_ok and valid2d and elapsed < 10.0,
               f"2D: {mesh2d.n_elements}*17*3={st2d.n_elements}, "
               f"3D: {mesh3d.n_elements}*17*4={st3d.n_elements}, "
               f"published pairs hold, conforming, {elapsed:.1f}s < 10s")


class TestCriterion2StabilizationInvariance:
    @staticmethod
    def _random_simplices(rng, dim, count):
        out = np.empty((count, dim + 1, dim))
        k = 0
        while k < count:
            X = rng.uniform(-1.0, 1.0, size=(count, dim + 1, dim))
            J = np.swapaxes(X[:, 1:, :] - X[:, :1, :], 1, 2)
            det = np.abs(np.linalg.det(J))
            good = X[det > 1e-2]
            take = min(len(good), count - k)
            out[k: k + take] = good[:take]
            k += take
        return out

    def test_permutation_invariance_and_homogeneity(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        nu = 0.21
        worst = 0.0
        for dim, n_el in ((3, 1000), (4, 1000)):
            X = self._random_simplices(rng, dim, n_el)
            u = rng.uniform(-1.0, 1.0, size=(n_el, dim - 1))
            perms = list(itertools.permutations(range(dim + 1)))
            ref_G = ref_tm = ref_tc = None
            for perm in perms:
                Xp = X[:, perm, :]
                J = np.swapaxes(Xp[:, 1:, :] - Xp[:, :1, :], 1, 2)
                A = reference_derivative(J)
                G = np.einsum("nki,nkj->nij", A, A)
                g = A.sum(axis=1)[:, : dim - 1]
                tm = tau_momentum(u, nu, G)
                tc = tau_continuity(tm, g)
                if ref_G is None:
                    ref_G, ref_tm, ref_tc = G, tm, tc
                    continue
                worst = max(
                    worst,
                    np.abs(G - ref_G).max() / np.abs(ref_G).max(),
                    np.abs(tm - ref_tm).max() / np.abs(ref_tm).max(),
                    np.abs(tc - ref_tc).max() / np.abs(ref_tc).max())
        # homogeneity: x -> s x scales tau_mom by s (nu = 0, u fixed)
        rng2 = np.random.default_rng(7)
        X = self._random_simplices(rng2, 4, 50)
        J = np.swapaxes(X[:, 1:, :] - X[:, :1, :], 1, 2)
        u = rng2.uniform(-1, 1, size=(50, 3))
        s = 3.7
        A1 = reference_derivative(J)
        A2 = reference_derivative(s * J)
        G1 = np.einsum("nki,nkj->nij", A1, A1)
        G2 = np.einsum("nki,nkj->nij", A2, A2)
        tm1 = tau_momentum(u, 0.0, G1)
        tm2 = tau_momentum(u, 0.0, G2)
        g1 = A1.sum(axis=1)[:, :3]
        g2 = A2.sum(axis=1)[:, :3]
        tc1 = tau_continuity(tm1, g1)
        tc2 = tau_continuity(tm2, g2)
        hom = max(np.abs(tm2 / tm1 - s).max() / s,
                  np.abs(tc2 / tc1 - s).max() / s)
        elapsed = time.perf_counter() - t0
        report(2, worst < 1e-12 and hom < 1e-12 and elapsed < 5.0,
               f"permutation deviation {worst:.2e} < 1e-12, "
               f"scaling deviation {hom:.2e}, {elapsed:.1f}s < 5s")


class TestCriterion3JacobianFd:
    @staticmethod
    def _fd_worst(problem, U, rng, eps=1e-6, n_dir=4):
        stab = problem.stabilization(U)
        system, _, _ = problem.system(U, tau_override=stab)
        A = system.matrix
        worst = 0.0
        for _ in range(n_dir):
            delta = rng.uniform(-1.0, 1.0, size=U.shape)
            _, rp, _ = problem.system(U + eps * delta, tau_override=stab,
                                      want_matrix=False)
            _, rm, _ = problem.system(U - eps * delta, tau_override=stab,
                                      want_matrix=False)
            fd = -(rp - rm) / (2.0 * eps)
            Jd = A @ delta.reshape(-1)
            worst = max(worst, np.linalg.norm(Jd - fd)
                        / max(np.linalg.norm(Jd), 1e-30))
        return worst

    def test_fd_consistency(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31)

        def dirich(x, t):
            return np.column_stack([np.sin(x[:, 0] + t), np.cos(x[:, 1])])

        st3 = extrude_simplex_st(box2d(2, 2), ExtrusionSpec(0.0, 0.3, 2))
        p3 = SpaceTimeProblem(
            st3, MaterialParams(1.0, 0.3),
            BCSpec(dirichlet={"x0": dirich},
                   initial=lambda x: 0.2 * x),
            body_force=lambda x, t: np.column_stack([np.sin(3 * x[:, 0]) + t,
                                                     x[:, 1] * np.cos(t)]),
            gauge=(0, 0.1))
        U3 = p3.impose_dirichlet(0.5 * rng.uniform(-1, 1,
                                                   size=(p3.n_nodes, 3)))
        err3 = self._fd_worst(p3, U3, rng)

        st4 = extrude_simplex_st(box3d(1, 1, 1), ExtrusionSpec(0.0, 0.25, 2))
        p4 = SpaceTimeProblem(
            st4, MaterialParams(1.2, 0.2),
            BCSpec(dirichlet={"z0": lambda x, t: np.column_stack(
                       [np.sin(x[:, 0]), x[:, 1], np.cos(x[:, 2]) - 1.0])},
                   initial=lambda x: 0.1 * x),
            gauge=(0, 0.0))
        U4 = p4.impose_dirichlet(0.5 * rng.uniform(-1, 1,
                                                   size=(p4.n_nodes, 4)))
        err4 = self._fd_worst(p4, U4, rng)
        elapsed = time.perf_counter() - t0
        ok = (st3.n_elements <= 50 and st4.n_elements <= 50
              and err3 < 1e-5 and err4 < 1e-5 and elapsed < 60.0)
        report(3, ok, f"3D-ST ({st3.n_elements} tets) rel err {err3:.2e}, "
                      f"4D-ST ({st4.n_elements} pentatopes) rel err "
                      f"{err4:.2e}, both < 1e-5, {elapsed:.1f}s < 60s")


class TestCriterion4Couette:
    def test_couette_convergence(self):
        t0 = time.perf_counter()
        rows = convergence_study("couette2d", [4, 8, 16], "ust")
        medium_err = rows[1]["err_u"]
        orders = [rows[1]["order_u"], rows[2]["order_u"]]
        elapsed = time.perf_counter() - t0
        ok = medium_err < 0.05 and all(o >= 1.5 for o in orders) \
            and elapsed < 600.0
        report(4, ok, f"medium-mesh u_theta error {medium_err:.3%} < 5%, "
                      f"orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.5, "
                      f"{elapsed:.0f}s < 600s")


class TestCriterion5Manufactured:
    def test_both_modes(self):
        t0 = time.perf_counter()
        details = []
        ok = True
        for mode in ("ust", "slab"):
            rows = convergence_study("manufactured", [6, 12, 24], mode)
            ord_u = [rows[1]["order_u"], rows[2]["order_u"]]
            ord_p = [rows[1]["order_p"], rows[2]["order_p"]]
            ok &= all(o >= 1.5 for o in ord_u)
            ok &= all(o >= 1.0 for o in ord_p)
            details.append(f"{mode}: u orders {ord_u[0]:.2f}/{ord_u[1]:.2f}, "
                           f"p orders {ord_p[0]:.2f}/{ord_p[1]:.2f}")
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 600.0
        report(5, ok, "; ".join(details) + f"; {elapsed:.0f}s < 600s")


class TestCriterion6CrossValidation:
    def test_ust_vs_slab_probes(self, stirrer2d_runs):
        t0 = time.perf_counter()
        spec, ust, slab = stirrer2d_runs
        t_end = spec.t_end

        ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        pts = np.column_stack([2.8 * np.cos(ang), 2.8 * np.sin(ang)])

        sl = slice_at_time(ust.slabs[0], ust.fields[0], t_end)
        v_ust, f1 = probe(sl.mesh, sl.values, pts)
        final_mesh = slab.final_mesh
        v_slab, f2 = probe(final_mesh, slab.final_values, pts)
        m_ust = np.hypot(v_ust[:, 0], v_ust[:, 1])
        m_slab = np.hypot(v_slab[:, 0], v_slab[:, 1])
        floor = 0.1 * m_slab.max()
        rel = np.abs(m_ust - m_slab) / np.maximum(np.abs(m_slab), floor)

        theta_end = STIRRER_OMEGA * t_end
        tips = [(2.6, np.pi / 2), (2.6, 3 * np.pi / 2), (2.0, 0.0),
                (2.0, np.pi)]
        vpts = []
        for r_tip, base in tips:
            for s in (0.12, -0.12):
                a = base + theta_end + s
                vpts.append(((r_tip + 0.15) * np.cos(a),
                             (r_tip + 0.15) * np.sin(a)))
        vpts = np.array(vpts)
        w_ust, fu = probe_vorticity(sl.mesh, sl.values, vpts)
        w_slab, fs = probe_vorticity(final_mesh, slab.final_values, vpts)
        signs_match = np.array_equal(np.sign(w_ust), np.sign(w_slab))
        elapsed = time.perf_counter() - t0
        ok = (f1.all() and f2.all() and fu.all() and fs.all()
              and rel.max() <= 0.10 and signs_match and elapsed < 1200.0)
        report(6, ok, f"max velocity-magnitude deviation {rel.max():.1%} "
                      f"<= 10% over 16 probes, vorticity sign patterns "
                      f"identical at 8 blade-tip probes, {elapsed:.0f}s")


class TestCriterion7NewtonRobustness:
    def test_newton_iteration_bounds(self, stirrer2d_runs):
        spec2d, ust2d, slab2d = stirrer2d_runs
        spec3d = make_stirrer3d(coarse=True)
        ust3d = run_ust(spec3d, newton_cfg=NewtonConfig(max_iter=40))
        (ust2d_newton,), (ust3d_newton,) = ust2d.newtons, ust3d.newtons

        with open(ARTIFACTS / "newton_traces.log", "w") as f:
            f.write("# 2D stirrer UST\n")
            for k, r in enumerate(ust2d_newton.trace):
                f.write(f"case=stirrer2d_ust newton iter={k} res={r:.6e}\n")
            f.write("# 2D stirrer slabs\n")
            for s, trace in enumerate(slab2d.diagnostics["newton_traces"]):
                for k, r in enumerate(trace):
                    f.write(f"case=stirrer2d_slab{s} newton iter={k} "
                            f"res={r:.6e}\n")
            f.write("# 3D stirrer UST (coarse)\n")
            for k, r in enumerate(ust3d_newton.trace):
                f.write(f"case=stirrer3d_ust newton iter={k} res={r:.6e}\n")

        slab_iters = slab2d.diagnostics["newton_iterations"]
        ok = (ust2d_newton.converged and ust2d_newton.iterations <= 30
              and slab2d.diagnostics["converged"]
              and max(slab_iters) <= 15
              and ust3d_newton.converged and ust3d_newton.iterations <= 40)
        report(7, ok,
               f"2D UST {ust2d_newton.iterations} <= 30 "
               f"(paper-scale reference 13), slabs max {max(slab_iters)} "
               f"<= 15 (reference 8), 3D UST {ust3d_newton.iterations} "
               f"<= 40 (reference 19); traces archived")


class TestCriterion8Slicing:
    @staticmethod
    def _brute_measure(st, t):
        span = st.tN - st.t0
        tol = 1e-12 * span
        at_bottom = t <= st.t0 + tol
        n_sd = st.n_sd
        total = 0.0
        for el in st.elements:
            pts = st.nodes[el]
            tk = pts[:, -1]
            below = tk < t - tol
            above = tk > t + tol
            on = ~(below | above)
            if below.any():
                if not (above.any() or on.any()):
                    continue
            elif not (at_bottom and on.any() and above.any()):
                continue
            verts = [pts[i, :n_sd] for i in np.flatnonzero(on)]
            for i in np.flatnonzero(below):
                for j in np.flatnonzero(above):
                    s = (t - tk[i]) / (tk[j] - tk[i])
                    verts.append((1 - s) * pts[i, :n_sd] + s * pts[j, :n_sd])
            if len(verts) < n_sd + 1:
                continue
            V = np.array(verts)
            if n_sd == 2:
                c = V.mean(axis=0)
                angv = np.arctan2(V[:, 1] - c[1], V[:, 0] - c[0])
                V = V[np.argsort(angv)]
                x, y = V[:, 0], V[:, 1]
                total += 0.5 * abs(np.dot(x, np.roll(y, -1))
                                   - np.dot(y, np.roll(x, -1)))
            else:
                from scipy.spatial import ConvexHull
                total += ConvexHull(V, qhull_options="QJ").volume
        return total

    def test_slice_conservation_and_exactness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(12)
        spatial = disk2d(1.0, 3, 14)
        L = 4
        flat = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, L))
        traj = NodeTrajectory((0.0, 0.0), omega=0.5)
        twisted = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, L, traj))
        zeros = np.zeros((flat.n_nodes, 3))

        worst_flat = 0.0
        for t in rng.uniform(0.0, 1.0, size=10):
            sl = slice_at_time(flat, zeros, t)
            worst_flat = max(worst_flat, abs(
                sl.mesh.total_measure - spatial.total_measure)
                / spatial.total_measure)

        worst_twisted = 0.0
        for t in rng.uniform(0.0, 1.0, size=10):
            sl = slice_at_time(twisted, zeros, t)
            ref = self._brute_measure(twisted, t)
            worst_twisted = max(worst_twisted,
                                abs(sl.mesh.total_measure - ref) / ref)
        worst_level = 0.0
        for lev in range(L + 1):
            sl = slice_at_time(twisted, zeros, lev / L)
            worst_level = max(worst_level, abs(
                sl.mesh.total_measure - spatial.total_measure)
                / spatial.total_measure)

        # affine space-time fields reproduced exactly on slices
        a = rng.uniform(-1, 1, size=(3, 3))
        vals = twisted.nodes @ a.T
        worst_affine = 0.0
        for t in rng.uniform(0.0, 1.0, size=4):
            sl = slice_at_time(twisted, vals, t)
            expect = np.column_stack(
                [sl.mesh.nodes, np.full(sl.mesh.n_nodes, t)]) @ a.T
            worst_affine = max(worst_affine, np.abs(sl.values - expect).max())

        elapsed = time.perf_counter() - t0
        ok = (worst_flat < 1e-10 and worst_twisted < 1e-10
              and worst_level < 1e-10 and worst_affine < 1e-12
              and elapsed < 10.0)
        report(8, ok,
               f"flat vs spatial {worst_flat:.1e}, twisted vs cross-section "
               f"{worst_twisted:.1e}, twisted at level times vs spatial "
               f"{worst_level:.1e} (all < 1e-10), affine reproduction "
               f"{worst_affine:.1e} < 1e-12, {elapsed:.1f}s < 10s")


class TestCriterion9GalileanFixedPoint:
    def test_constant_state(self):
        c = np.array([0.7, -0.2])
        mesh = box2d(3, 3)

        def cfn(x, t=None):
            return np.broadcast_to(c, (len(np.atleast_2d(x)), 2)).copy()

        bcs = BCSpec(dirichlet={t: cfn for t in ("x0", "x1", "y0", "y1")},
                     initial=lambda x: cfn(x))
        spec = ScenarioSpec("galilean", 2, mesh, MaterialParams(1.0, 0.05),
                            bcs, t_end=0.3, levels=3)
        res = run_ust(spec)
        (newton,), (values,) = res.newtons, res.fields
        resid = newton.trace[-1]
        ok = (newton.converged and newton.iterations <= 2
              and resid < 1e-10
              and np.abs(values[:, :2] - c).max() < 1e-9)
        report(9, ok, f"residual {resid:.1e} < 1e-10 after gauge fixing, "
                      f"{newton.iterations} <= 2 Newton iterations, "
                      f"constant field recovered")
