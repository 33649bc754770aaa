import logging
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ustflow.assembly import (BCSpec, MaterialParams, PrismSlab,
                              PrismSlabProblem, SolutionField,
                              SpaceTimeProblem, dirichlet_values,
                              element_jacobian_matrix, element_residual,
                              jump_term, rigid_surface_velocity,
                              _element_terms, traction_term, zero_velocity)
import ustflow.assembly as assembly
from ustflow.errors import ConfigurationError
from ustflow.extrude import (ExtrusionSpec, NodeTrajectory,
                             extrude_simplex_st, rigid_rotation_positions)
from ustflow.geometry import box2d, box3d
from ustflow.mesh import reference_gradients
from ustflow.quadrature import prism_quadrature
from ustflow.stabilization import (StabilizationContext, metric_terms,
                                   prism_geometry, prism_shape_functions,
                                   regular_simplex_map)

from conftest import twisted_slab

SRC = str(Path(__file__).resolve().parents[1] / "src")


def const_ic(c):
    c = np.asarray(c, dtype=float)

    def fn(x):
        x = np.atleast_2d(x)
        return np.broadcast_to(c, (len(x), len(c))).copy()

    return fn


def zero_ic(x):
    return np.zeros_like(np.atleast_2d(x))


def make_problem(st_mesh, mu=0.1, dirichlet=None, neumann=None, ic=None,
                 body_force=None, convective=True, gauge=None):
    bcs = BCSpec(dirichlet=dirichlet or {}, neumann=neumann or {},
                 initial=ic or zero_ic)
    return SpaceTimeProblem(st_mesh, MaterialParams(rho=1.0, mu=mu), bcs,
                            body_force=body_force, convective=convective,
                            gauge=gauge)


def flat_slab_problem(ic=None):
    """Untwisted prism slab over box2d(2, 2): its bottom cap is the spatial
    mesh itself."""
    spatial = box2d(2, 2)
    slab = PrismSlab(spatial, spatial.nodes, spatial.nodes, 0.0, 0.1)
    return PrismSlabProblem(slab, MaterialParams(rho=1.0, mu=0.1),
                            BCSpec(initial=ic or zero_ic))


def perturbed_box_st(nx, ny, levels, rng, amp=0.06):
    spatial = box2d(nx, ny)
    nodes = spatial.nodes.copy()
    interior = np.ones(len(nodes), dtype=bool)
    interior[np.unique(spatial.boundary_facets)] = False
    nodes[interior] += rng.uniform(-amp, amp, size=(interior.sum(), 2)) / nx
    spatial = type(spatial)(nodes, spatial.elements, spatial.boundary_facets,
                            spatial.boundary_tags, spatial.tag_names)
    return extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.3, levels))


class TestResidualBasics:
    def test_zero_everything_gives_zero_residual(self, small_st_mesh_2d):
        problem = make_problem(small_st_mesh_2d)
        U = np.zeros((problem.n_nodes, 3))
        _, rhs, norm = problem.system(U, want_matrix=False)
        assert norm == 0.0

    def test_constant_field_zero_residual(self, small_st_mesh_2d):
        c = np.array([0.8, -0.4])
        dirichlet = {t: (lambda x, tt: np.broadcast_to(c, (len(np.atleast_2d(x)), 2)).copy())
                     for t in ("x0", "x1", "y0", "y1")}
        problem = make_problem(small_st_mesh_2d, dirichlet=dirichlet,
                               ic=const_ic(c), gauge=(0, 0.0))
        U = np.zeros((problem.n_nodes, 3))
        U[:, :2] = c
        U = problem.impose_dirichlet(U)
        _, rhs, norm = problem.system(U, want_matrix=False)
        assert norm < 1e-10

    def test_nonfinite_field_raises(self, small_st_mesh_2d):
        # a NaN iterate is caught either by the tau evaluation or by the
        # final residual check; tau alone rejects a NaN velocity in both
        # element families
        from ustflow.errors import NonFiniteResidual, NonFiniteTau
        for problem in (make_problem(small_st_mesh_2d), flat_slab_problem()):
            U = np.zeros((problem.n_nodes, 3))
            U[0, 0] = np.nan
            with pytest.raises(NonFiniteTau):
                problem.stabilization(U)
            with pytest.raises((NonFiniteResidual, NonFiniteTau)):
                problem.system(U, want_matrix=False)


class TestHandIntegratedElement:
    """Independent oracle: barycentric moment formulas on one tetrahedron."""

    def test_linear_field_residual(self, small_st_mesh_2d, rng):
        mesh = small_st_mesh_2d
        e = 7
        n_sd = 2
        nen = 4
        ids = mesh.elements[e]
        X = mesh.element_coords[e]
        V = mesh.measures[e]
        D = mesh.gradients[e][:, :2]
        B = mesh.gradients[e][:, 2]

        # linear exact fields: u_i = a_i . (x, t) + b_i, p = ap . (x, t)
        A = rng.uniform(-1, 1, size=(2, 3))
        b = rng.uniform(-1, 1, size=2)
        ap = rng.uniform(-1, 1, size=3)
        vals = np.zeros((mesh.n_nodes, 3))
        vals[:, :2] = mesh.nodes @ A.T + b
        vals[:, 2] = mesh.nodes @ ap
        field = SolutionField(vals, n_sd)

        rho, mu = 1.0, 0.2
        tau_m = np.full(mesh.n_elements, 0.37)
        tau_c = np.full(mesh.n_elements, 1.21)
        stab = StabilizationContext(tau_m, tau_c)
        got = element_residual(mesh, e, field, MaterialParams(rho, mu),
                               None, stab).reshape(nen, 3)

        # moments over the tetrahedron: int lam_a = V/4,
        # int lam_a lam_b = V (1+delta_ab)/20
        M1 = V / 4.0
        M2 = V * (np.ones((4, 4)) + np.eye(4)) / 20.0
        Ue = vals[ids]
        gradu = np.einsum("aj,ai->ij", D, Ue[:, :2])      # du_i/dx_j
        dudt = np.einsum("a,ai->i", B, Ue[:, :2])
        gradp = np.einsum("aj,a->j", D, Ue[:, 2])
        divu = np.trace(gradu)

        expected = np.zeros((4, 3))
        for a in range(4):
            for i in range(2):
                # Galerkin: int lam_a rho (du_i/dt + u . grad u_i)
                term = rho * dudt[i] * M1
                for j in range(2):
                    term += rho * gradu[i, j] * (M2[a] @ Ue[:, j])
                # stress
                term += mu * V * D[a] @ (gradu[i] + gradu[:, i])
                term -= D[a, i] * M1 * Ue[:, 2].sum() / 1.0  # int p lam-free
                # correction: int p = V * mean(p) -> handled via M1 sums
                expected[a, i] = term
            expected[a, 2] = M1 * divu

        # pressure part of the stress row: -int p dN_a/dx_i;
        # int p = sum_b p_b int lam_b = (V/4) sum_b p_b (already added above)
        # GLS and grad-div rows
        for a in range(4):
            adv_const = B[a]
            adv_lin = D[a]  # dotted with u(x)
            for i in range(2):
                r_const = rho * dudt[i] + gradp[i]
                # r linear part: rho * sum_k gradu[i,k] u_k(x)
                term = adv_const * r_const * V
                for k in range(2):
                    term += adv_const * rho * gradu[i, k] * M1 * Ue[:, k].sum()
                    term += (adv_lin[k] * (M1 * Ue[:, k].sum()) * r_const)
                for j in range(2):
                    for k in range(2):
                        term += (adv_lin[j] * rho * gradu[i, k]
                                 * np.einsum("b,bc,c->", Ue[:, j], M2, Ue[:, k]))
                expected[a, i] += tau_m[e] * term
                expected[a, i] += tau_c[e] * rho * V * D[a, i] * divu
            # PSPG row
            r_int = np.zeros(2)
            for i in range(2):
                r_int[i] = V * (rho * dudt[i] + gradp[i]) + rho * (
                    gradu[i] @ (M1 * Ue[:, :2].sum(axis=0)))
            expected[a, 2] += tau_m[e] / rho * D[a] @ r_int

        assert np.allclose(got, expected, atol=1e-12 * max(1.0, V))

    def test_constant_field_interior_zero(self, small_st_mesh_2d):
        mesh = small_st_mesh_2d
        vals = np.zeros((mesh.n_nodes, 3))
        vals[:, 0] = 1.3
        vals[:, 1] = -0.2
        field = SolutionField(vals, 2)
        tau = np.ones(mesh.n_elements)
        stab = StabilizationContext(tau, tau)
        r = element_residual(mesh, 3, field, MaterialParams(1.0, 0.05), None,
                             stab)
        assert np.abs(r).max() < 1e-14


class TestJumpTerm:
    def test_matching_traces_vanish(self, small_st_mesh_2d, rng):
        mesh = small_st_mesh_2d
        c = rng.uniform(-1, 1, size=2)
        problem = make_problem(mesh, ic=const_ic(c))
        vals = np.zeros((mesh.n_nodes, 3))
        vals[:, :2] = c
        field = SolutionField(vals, 2)
        R, _ = jump_term(problem, field)
        assert np.abs(R).max() < 1e-14

    def test_constant_mismatch_hand_value(self, small_st_mesh_2d):
        # u- = 0, u+ = c: row a integral is rho * c * int N_a = rho c |F|/3,
        # over the bottom facets of the simplex mesh and over the spatial
        # triangles of an untwisted prism slab
        mesh = small_st_mesh_2d
        slab_problem = flat_slab_problem()
        spatial = slab_problem.slab.spatial
        caps = [(make_problem(mesh, ic=zero_ic),
                 mesh.boundary_facets[mesh.bottom_facets], mesh.nodes[:, :2]),
                (slab_problem, spatial.elements, spatial.nodes)]
        c = np.array([2.0, -1.0])
        for problem, facets, xy in caps:
            vals = np.zeros((problem.n_nodes, 3))
            vals[:, :2] = c
            field = SolutionField(vals, 2)
            R, _ = jump_term(problem, field)
            R = R.reshape(-1, 3)

            expected = np.zeros((problem.n_nodes, 2))
            for ids in facets:
                coords = xy[ids]
                area = abs(np.linalg.det((coords[1:] - coords[0]).T)) / 2.0
                for a, node in enumerate(ids):
                    expected[node] += c * area / 3.0
            assert np.allclose(R[:, :2], expected, atol=1e-14)
            assert np.abs(R[:, 2]).max() == 0.0

    def test_missing_previous_state_raises(self, small_st_mesh_2d):
        from ustflow.errors import MissingPreviousState
        problem = SpaceTimeProblem(small_st_mesh_2d, MaterialParams(1.0, 0.1),
                                   BCSpec(initial=None))
        with pytest.raises(MissingPreviousState):
            problem.system(np.zeros((problem.n_nodes, 3)), want_matrix=False)

    def test_nodal_trace_transfer_exact(self, small_st_mesh_2d, rng):
        # node-to-node copy: residual vanishes when u+ equals the nodal trace
        mesh = small_st_mesh_2d
        n_sp = (mesh.n_nodes // 3)
        prev = rng.uniform(-1, 1, size=(mesh.n_nodes, 2))
        problem = SpaceTimeProblem(mesh, MaterialParams(1.0, 0.1),
                                   BCSpec(initial=None), jump_data=prev)
        vals = np.zeros((mesh.n_nodes, 3))
        vals[:, :2] = prev
        field = SolutionField(vals, 2)
        R, _ = jump_term(problem, field)
        assert np.abs(R).max() < 1e-14

    @pytest.mark.parametrize("family", ["simplex", "prism"])
    def test_cap_computed_once_and_matrix_per_component(self, family, rng,
                                                        monkeypatch):
        problem = (twisted_simplex_problem() if family == "simplex"
                   else twisted_prism_problem(rng))
        calls = []
        bottom_cap = problem._bottom_cap
        monkeypatch.setattr(problem, "_bottom_cap",
                            lambda: calls.append("cap") or bottom_cap())
        U = problem.initial_guess()
        problem.system(U)
        plan = problem._csr_plan
        pair_ids = plan.pair_ids
        monkeypatch.setattr(plan, "pair_ids",
                            lambda ids: calls.append("pairs") or pair_ids(ids))
        problem.system(U + 0.1)
        assert calls == ["cap"]

        A = jump_term(problem, SolutionField(U, problem.n_sd))[1].tocoo()
        off = A.row % problem.ncomp != A.col % problem.ncomp
        assert off.any() and not A.data[off].any()
        assert A.data[~off].any()


class TestTractionTerm:
    def test_zero_traction(self, small_st_mesh_2d):
        problem = make_problem(small_st_mesh_2d,
                               neumann={"x1": zero_velocity})
        R = traction_term(problem)
        assert np.abs(R).max() == 0.0

    def test_constant_traction_hand_value(self, small_st_mesh_2d):
        # each x1 mantle facet is a simplex in space-time of measure
        # sqrt|det(E E^T)| / n_sd! for its edges E; each of its n_sd + 1
        # nodes gets -h vol / (n_sd + 1), and the tag's unit side times the
        # time span 0.2 gets -0.2 h in total; a triangle in 3D and a
        # tetrahedron in 4D
        for mesh in (small_st_mesh_2d, extrude_simplex_st(
                box3d(2, 2, 2), ExtrusionSpec(0.0, 0.2, 2))):
            n_sd = mesh.n_sd
            h = np.array([0.7, -0.3, 0.2])[:n_sd]

            def hfn(x, t, h=h):
                return np.tile(h, (len(x), 1))

            problem = make_problem(mesh, neumann={"x1": hfn})
            R = traction_term(problem).reshape(-1, n_sd + 1)

            expected = np.zeros((mesh.n_nodes, n_sd))
            tag = mesh.tag_id("x1")
            for fidx in mesh.mantle_facets:
                if mesh.boundary_tags[fidx] != tag:
                    continue
                ids = mesh.boundary_facets[fidx]
                coords = mesh.nodes[ids]
                edges = coords[1:] - coords[0]
                vol = (math.sqrt(abs(np.linalg.det(edges @ edges.T)))
                       / math.factorial(n_sd))
                for node in ids:
                    expected[node] -= h * vol / (n_sd + 1)
            assert np.allclose(R[:, :n_sd], expected, atol=1e-14)
            assert np.allclose(R[:, :n_sd].sum(axis=0), -0.2 * h, atol=1e-14)

    def test_constant_traction_hand_value_straight_prisms(self):
        # each mantle face is a spatial facet of measure A times dt, with
        # the facet's shape functions times 1 - theta or theta: each of its
        # 2 n_sd nodes gets -h A dt / (2 n_sd), and the tag's unit side
        # -h dt in total; a rectangle in 2D and a triangular prism in 3D
        dt = 0.15
        for spatial in (box2d(3, 2), box3d(2, 2, 2)):
            n_sd = spatial.dim
            h = np.array([0.7, -0.3, 0.2])[:n_sd]

            def hfn(x, t, h=h):
                return np.tile(h, (len(x), 1))

            slab = PrismSlab(spatial, spatial.nodes, spatial.nodes, 0.2, dt)
            problem = PrismSlabProblem(slab, MaterialParams(rho=1.0, mu=0.1),
                                       BCSpec(neumann={"x1": hfn},
                                              initial=zero_ic))
            R = traction_term(problem).reshape(-1, n_sd + 1)

            n_sp = spatial.n_nodes
            expected = np.zeros((2 * n_sp, n_sd))
            for ids in spatial.boundary_facets[spatial.facets_with_tag("x1")]:
                edges = spatial.nodes[ids[1:]] - spatial.nodes[ids[0]]
                area = (math.sqrt(abs(np.linalg.det(edges @ edges.T)))
                        / math.factorial(n_sd - 1))
                for node in np.concatenate([ids, ids + n_sp]):
                    expected[node] -= h * area * dt / (2 * n_sd)
            assert expected.any()
            assert np.allclose(R[:, :n_sd], expected, atol=1e-14)
            assert np.allclose(R[:, :n_sd].sum(axis=0), -h * dt, atol=1e-14)

    def test_traction_computed_once_per_problem(self, rng):
        # the traction data do not depend on the iterate: one call of the
        # tag's function per problem, over a matrix and a residual-only
        # system
        for problem in (twisted_prism_problem(rng), twisted_simplex_problem()):
            fn, calls = problem.bcs.neumann["x1"], []
            problem.bcs.neumann["x1"] = (
                lambda x, t, fn=fn: calls.append(len(x)) or fn(x, t))
            U = problem.initial_guess()
            _, rhs, _ = problem.system(U)
            _, rhs2, _ = problem.system(U, want_matrix=False)
            assert len(calls) == 1
            assert np.array_equal(rhs, rhs2)

    def test_dirichlet_neumann_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            BCSpec(dirichlet={"x0": zero_velocity},
                   neumann={"x0": zero_velocity})


class TestDirichletValues:
    def test_rigid_rotation_values(self, small_st_mesh_2d):
        mesh = small_st_mesh_2d
        omega = 2.0
        bcs = BCSpec(dirichlet={"x0": rigid_surface_velocity(omega, (0.0, 0.0)),
                                "x1": zero_velocity},
                     initial=zero_ic)
        dofs, vals = dirichlet_values(bcs, mesh)
        tag = mesh.tag_id("x0")
        nodes = np.unique(mesh.boundary_facets[
            mesh.mantle_facets[mesh.boundary_tags[mesh.mantle_facets] == tag]])
        for node in nodes:
            x, y = mesh.nodes[node, :2]
            du = vals[dofs == node * 3]
            assert du[0] == pytest.approx(-omega * y, abs=1e-14)
        # node exactly on the rotation axis gets zero
        assert np.allclose(
            rigid_surface_velocity(omega, (0.0, 0.0))(np.array([[0.0, 0.0]])),
            0.0)
        # spot value: node at (r, 0) moves with (0, omega r)
        v = rigid_surface_velocity(omega, (0.0, 0.0))(np.array([[0.5, 0.0]]))
        assert np.allclose(v, [[0.0, omega * 0.5]], atol=1e-15)

    def test_slab_rows(self, rng):
        # the velocity dofs of x0's spatial nodes at both levels, and the
        # gauge's pressure dof
        problem = twisted_prism_problem(rng)
        slab = problem.slab
        spatial, n_sp = slab.spatial, slab.spatial.n_nodes
        snodes = np.unique(spatial.boundary_facets[
            spatial.facets_with_tag("x0")])
        nodes = np.concatenate([snodes, snodes + n_sp])
        assert np.array_equal(problem.dir_dofs, np.sort(np.concatenate(
            [3 * nodes, 3 * nodes + 1, [2]])))
        assert problem.dir_values[2] == 0.1

        # the tag's data at each node's moved position and time level
        def fn(x, t):
            return np.column_stack([x[:, 1] + t, x[:, 0] * t])

        other = PrismSlabProblem(slab, MaterialParams(),
                                 BCSpec(dirichlet={"x0": fn}), gauge=(0, 0.1))
        assert np.array_equal(other.dir_dofs, problem.dir_dofs)
        x = np.vstack([slab.coords_bottom, slab.coords_top])[nodes]
        t = np.repeat([slab.t_bottom, slab.t_bottom + slab.dt], len(snodes))
        assert np.allclose(other.dir_values[3 * nodes], x[:, 1] + t,
                           rtol=0, atol=1e-15)
        assert np.allclose(other.dir_values[3 * nodes + 1], x[:, 0] * t,
                           rtol=0, atol=1e-15)


class TestJacobianFD:
    def fd_check(self, problem, U, rng, rel_tol=1e-5, eps=1e-6):
        stab = problem.stabilization(U)
        system, rhs0, _ = problem.system(U, tau_override=stab)
        A = system.matrix
        worst = 0.0
        for _ in range(4):
            delta = rng.uniform(-1.0, 1.0, size=U.shape)
            _, rp, _ = problem.system(U + eps * delta, tau_override=stab,
                                      want_matrix=False)
            _, rm, _ = problem.system(U - eps * delta, tau_override=stab,
                                      want_matrix=False)
            fd = -(rp - rm) / (2.0 * eps)    # rhs = -residual
            Jd = A @ delta.reshape(-1)
            err = np.linalg.norm(Jd - fd) / max(np.linalg.norm(Jd), 1e-30)
            worst = max(worst, err)
        return worst

    def test_fd_consistency_3d_spacetime(self, rng):
        st = perturbed_box_st(2, 2, 2, rng)
        assert st.n_elements <= 50
        dirichlet = {t: (lambda x, tt: np.column_stack([np.sin(x[:, 0] + tt),
                                                        np.cos(x[:, 1])]))
                     for t in ("x0", "y0")}

        def force(x, t):
            return np.column_stack([np.sin(3 * x[:, 0]) + t,
                                    x[:, 1] * np.cos(t)])

        problem = make_problem(st, mu=0.3, dirichlet=dirichlet,
                               ic=lambda x: np.column_stack(
                                   [np.sin(x[:, 0]), x[:, 1] ** 2]),
                               body_force=force, gauge=(0, 0.2))
        U = problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, 3)))
        assert self.fd_check(problem, U, rng) < 1e-5

    def test_fd_consistency_4d_spacetime(self, rng):
        spatial = box3d(1, 1, 1)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.25, 2))
        assert st.n_elements <= 50
        problem = make_problem(
            st, mu=0.2,
            dirichlet={"z0": lambda x, tt: np.column_stack(
                [np.sin(x[:, 0]), x[:, 1], np.cos(x[:, 2]) - 1.0])},
            ic=lambda x: 0.1 * x,
            gauge=(0, 0.0))
        U = problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, 4)))
        assert self.fd_check(problem, U, rng) < 1e-5

    def test_fd_consistency_twisted_prism_slab(self, rng):
        # a 2D slab, and a 3D one about a tilted axis
        for n_sd in (2, 3):
            slab = twisted_slab(n_sd)

            def fields(*fns, n_sd=n_sd):
                # the third component of a 3D field is z * t
                fns = fns + ((lambda x, t: x[:, 2] * t),) * (n_sd - 2)
                return lambda x, t: np.column_stack([fn(x, t) for fn in fns])

            problem = PrismSlabProblem(
                slab, MaterialParams(rho=1.2, mu=0.3),
                BCSpec(dirichlet={"x0": fields(lambda x, t: np.sin(x[:, 1]),
                                               lambda x, t: np.cos(t))},
                       neumann={"x1": fields(lambda x, t: np.cos(x[:, 1] + t),
                                             lambda x, t: np.sin(x[:, 0]))},
                       initial=lambda x: 0.3 * x),
                body_force=fields(lambda x, t: x[:, 1] * 0 + np.sin(t),
                                  lambda x, t: x[:, 0]),
                gauge=(0, 0.1))
            U = problem.impose_dirichlet(
                0.4 * rng.uniform(-1, 1, size=(problem.n_nodes, n_sd + 1)))
            assert self.fd_check(problem, U, rng) < 1e-5

    def test_stokes_jacobian_iterate_independent(self, small_st_mesh_2d, rng):
        problem = make_problem(small_st_mesh_2d, convective=False,
                               gauge=(0, 0.0))
        tau = problem.stabilization(np.zeros((problem.n_nodes, 3)))
        U1 = rng.uniform(-1, 1, size=(problem.n_nodes, 3))
        U2 = rng.uniform(-1, 1, size=(problem.n_nodes, 3))
        A1 = problem.system(U1, tau_override=tau)[0].matrix
        A2 = problem.system(U2, tau_override=tau)[0].matrix
        assert (A1 != A2).nnz == 0

    def test_viscous_block_symmetric_at_rest(self, small_st_mesh_2d):
        # pure Stokes stress block: strip GLS/grad-div by zeroing tau
        mesh = small_st_mesh_2d
        problem = make_problem(mesh, mu=0.7, convective=False)
        zero_tau = StabilizationContext(np.zeros(mesh.n_elements),
                                        np.zeros(mesh.n_elements))
        # tau_cont = 0 and tau_mom = 0 keep only Galerkin+stress+continuity
        A = problem.system(np.zeros((problem.n_nodes, 3)),
                           tau_override=zero_tau)[0].matrix.toarray()
        n = problem.n_nodes
        vel = np.array([k * 3 + c for k in range(n) for c in range(2)])
        # remove the transient term (not symmetric): rebuild with rho -> 0
        problem2 = SpaceTimeProblem(mesh, MaterialParams(rho=1e-30, mu=0.7),
                                    BCSpec(initial=zero_ic), convective=False)
        A2 = problem2.system(np.zeros((problem2.n_nodes, 3)),
                             tau_override=zero_tau)[0].matrix.toarray()
        block = A2[np.ix_(vel, vel)]
        assert np.abs(block - block.T).max() < 1e-12 * np.abs(block).max()


class TestElementJacobianMatrix:
    def test_matches_fd_of_element_residual(self, small_st_mesh_2d, rng):
        mesh = small_st_mesh_2d
        e = 13
        material = MaterialParams(1.0, 0.15)
        tau = np.full(mesh.n_elements, 0.4)
        tauc = np.full(mesh.n_elements, 0.9)
        stab = StabilizationContext(tau, tauc)
        base = rng.uniform(-1, 1, size=(mesh.n_nodes, 3))
        K = element_jacobian_matrix(mesh, e, SolutionField(base, 2), material,
                                    None, stab)
        ids = mesh.elements[e]
        eps = 1e-6
        fd = np.zeros_like(K)
        for a in range(4):
            for c in range(3):
                up = base.copy()
                dn = base.copy()
                up[ids[a], c] += eps
                dn[ids[a], c] -= eps
                rp = element_residual(mesh, e, SolutionField(up, 2), material,
                                      None, stab)
                rm = element_residual(mesh, e, SolutionField(dn, 2), material,
                                      None, stab)
                fd[:, a * 3 + c] = (rp - rm) / (2 * eps)
        assert np.abs(K - fd).max() < 1e-8 * max(1.0, np.abs(K).max())


def strong_viscous_operator(slab, mu, point):
    """mu*(lap N delta_ij + d2N/dxi dxj) of the prism shape functions at one
    reference point, (n_el, nen, n_sd, n_sd), from the Hessian of the
    isoparametric map."""
    n_sd = slab.n_sd
    cb, ct = slab.corners()
    _, Jinv, _, g = prism_geometry(cb, ct, slab.t_bottom, slab.dt,
                                   point[:n_sd], point[n_sd])
    Gs = reference_gradients(n_sd)
    # map curvature: d2x_m / dxi_d dtheta, constant per element
    T = np.einsum("ad,nam->nmd", Gs, ct - cb)
    # reference Hessian entries (d, theta) of the shape functions
    Ha = np.concatenate([-Gs, Gs], axis=0)
    inner = Ha[None] - np.einsum("nam,nmd->nad", g[:, :, :n_sd], T)
    Ji_sp = Jinv[:, :n_sd, :n_sd]   # dxi_d / dx_i
    Ji_th = Jinv[:, n_sd, :n_sd]    # dtheta / dx_i
    S = (np.einsum("nad,ndi,nj->naij", inner, Ji_sp, Ji_th)
         + np.einsum("nad,ndj,ni->naij", inner, Ji_sp, Ji_th))
    lap = np.einsum("naii->na", S)
    return mu * (np.einsum("na,ij->naij", lap, np.eye(n_sd)) + S)


class TestPrismViscousOperator:
    def test_spatial_second_derivatives_vanish(self, rng):
        # time depends on theta only, so d(theta)/dx is exactly zero and at
        # fixed t the prism map is an affine blend of affine maps: the strong
        # viscous operator, which the prism kernel leaves out, is exactly
        # zero even when twisted, in 2D and about a tilted 3D axis
        for slab in (twisted_slab(2, omega=0.9, t0=0.0, dt=0.2),
                     twisted_slab(3)):
            n_sd = slab.n_sd
            points = prism_quadrature(n_sd, 2).points
            _, Jinv, _, _ = prism_geometry(*slab.corners(), slab.t_bottom,
                                           slab.dt, points[:, :n_sd],
                                           points[:, n_sd])
            assert np.abs(Jinv[..., n_sd, :n_sd]).max() == 0.0
            for point in points:
                VV = strong_viscous_operator(slab, 0.8, point)
                assert np.abs(VV).max() == 0.0

    def test_geometry_at_all_points_is_per_point_geometry(self):
        for n_sd in (2, 3):
            slab = twisted_slab(n_sd)
            points = prism_quadrature(n_sd, 2).points
            args = (*slab.corners(), slab.t_bottom, slab.dt)
            batch = prism_geometry(*args, points[:, :n_sd], points[:, n_sd])
            single = [prism_geometry(*args, p[:n_sd], p[n_sd])
                      for p in points]
            for k, got in enumerate(batch):
                want = np.stack([s[k] for s in single], axis=1)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_affine_field_reproduced_on_twisted_prism(self, rng):
        # interpolating an affine space-time field on a twisted prism is
        # exact at the nodes by construction and stays affine in x
        tri = rng.uniform(-1, 1, size=(3, 2))
        ang = 0.4
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        top = tri @ R.T
        a = rng.uniform(-1, 1, size=3)
        vals = np.concatenate([
            np.column_stack([tri, np.zeros(3)]) @ a,
            np.column_stack([top, np.full(3, 0.3)]) @ a])
        # sample along a spatial segment at fixed theta: must be linear
        from ustflow.mesh import basis_eval
        from ustflow.stabilization import prism_shape_functions
        th = 0.37
        xs = np.linspace(0.1, 0.6, 7)
        samples = []
        for s in xs:
            xi = np.array([s, 0.2])
            N = prism_shape_functions(xi, th)
            samples.append(N @ vals)
        second = np.diff(samples, n=2)
        assert np.abs(second).max() < 1e-12


class TestAssembleDriver:
    def test_both_modes_produce_systems(self):
        from ustflow.assembly import assemble
        from ustflow.scenarios import make_manufactured, STIRRER_DT
        spec = make_manufactured(n=4, levels=2, t_end=0.2)
        st = extrude_simplex_st(spec.mesh, ExtrusionSpec(0.0, 0.2, 2))
        field = SolutionField(np.zeros((st.n_nodes, 3)), 2)
        system, norm = assemble(st, field, spec, "ust_simplex")
        assert system.matrix.shape == (st.n_nodes * 3, st.n_nodes * 3)
        assert norm > 0.0

        slab = PrismSlab(spec.mesh, spec.mesh.nodes, spec.mesh.nodes,
                         0.0, 0.1)
        field2 = SolutionField(np.zeros((2 * spec.mesh.n_nodes, 3)), 2)
        system2, norm2 = assemble(slab, field2, spec, "slab_prism")
        assert system2.matrix.shape[0] == 2 * spec.mesh.n_nodes * 3
        assert norm2 > 0.0

    def test_unknown_mode_rejected(self):
        from ustflow.assembly import assemble
        from ustflow.scenarios import make_manufactured
        spec = make_manufactured(n=3, levels=2)
        st = extrude_simplex_st(spec.mesh, ExtrusionSpec(0.0, 0.1, 2))
        field = SolutionField(np.zeros((st.n_nodes, 3)), 2)
        with pytest.raises(ConfigurationError):
            assemble(st, field, spec, "bogus")


class TestDeterminism:
    def test_structurally_symmetric_sparsity(self, small_st_mesh_2d, rng):
        # Dirichlet rows are zeroed in place (explicit zeros kept), so the
        # stored pattern stays structurally symmetric
        problem = make_problem(small_st_mesh_2d, mu=0.1,
                               dirichlet={"x0": zero_velocity},
                               gauge=(0, 0.0))
        U = rng.uniform(-1, 1, size=(problem.n_nodes, 3))
        A = problem.system(U)[0].matrix
        S = A.copy()
        S.data[:] = 1.0
        assert (S != S.T).nnz == 0
        # and the Dirichlet rows are identity rows numerically
        d = problem.dir_dofs[0]
        row = A.getrow(d).toarray().ravel()
        expect = np.zeros_like(row)
        expect[d] = 1.0
        assert np.array_equal(row, expect)

    def test_bitwise_reproducible_assembly(self, small_st_mesh_2d, rng):
        for problem in (make_problem(small_st_mesh_2d, mu=0.05,
                                     dirichlet={"x0": zero_velocity},
                                     gauge=(0, 0.0)),
                        pentatope_problem(rng)):
            U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
            s1, r1, n1 = problem.system(U)
            s2, r2, n2 = problem.system(U)
            assert np.array_equal(r1, r2)
            assert n1 == n2
            assert np.array_equal(s1.matrix.data, s2.matrix.data)
            assert np.array_equal(s1.matrix.indices, s2.matrix.indices)

    @pytest.mark.parametrize("family", ["simplex", "pentatope", "prism"])
    def test_residual_same_with_and_without_matrix(self, family, rng):
        problem = {"simplex": twisted_simplex_problem,
                   "pentatope": lambda: pentatope_problem(rng),
                   "prism": lambda: twisted_prism_problem(rng)}[family]()
        U = problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp)))
        _, r1, n1 = problem.system(U)
        _, r2, n2 = problem.system(U, want_matrix=False)
        assert r1.tobytes() == r2.tobytes()
        assert n1 == n2


def quadrature_point_terms(Nq, wdet, D, B, x_q, Ue, rho, mu, tau_m, tau_c,
                           body_force, convective, want_matrix):
    """The oracle of both element kernels: every term of the weak form
    summed over the quadrature points of each element, one ``np.einsum``
    per term.

    Nq: (nq, nen) shape values; wdet: (E, nq) weight*|detJ|;
    D: (E, nq, nen, n_sd) spatial gradients; B: (E, nq, nen) time
    derivatives; x_q: (E, nq, dim); Ue: (E, nen, ncomp).  Returns (Re, Ke)
    with Ke None when not requested.
    """
    def ein(subscripts, *operands):
        return np.einsum(subscripts, *operands, optimize=True)

    E, nq, nen, n_sd = D.shape
    nc = n_sd + 1
    Uv = Ue[:, :, :n_sd]
    Up = Ue[:, :, n_sd]

    u_q = ein("qa,eai->eqi", Nq, Uv)
    p_q = ein("qa,ea->eq", Nq, Up)
    gradu = ein("eqaj,eai->eqij", D, Uv)
    dudt = ein("eqa,eai->eqi", B, Uv)
    gradp = ein("eqaj,ea->eqj", D, Up)
    divu = ein("eqii->eq", gradu)

    acc = dudt
    if body_force is not None:
        xt = x_q.reshape(-1, x_q.shape[-1])
        acc = dudt - np.asarray(body_force(xt[:, :n_sd], xt[:, n_sd])).reshape(
            E, nq, n_sd)
    if convective:
        acc = acc + ein("eqj,eqij->eqi", u_q, gradu)
        adv = B + ein("eqj,eqaj->eqa", u_q, D)
    else:
        adv = np.broadcast_to(B, (E, nq, nen))

    r_q = rho * acc + gradp

    Re = np.zeros((E, nen, nc))
    # Galerkin transient + convection + body force
    Re[:, :, :n_sd] += rho * ein("eq,qa,eqi->eai", wdet, Nq, acc)
    # stress: 2 mu eps(w):eps(u) - p div w
    Re[:, :, :n_sd] += mu * ein("eq,eqaj,eqij->eai", wdet, D,
                                gradu + np.swapaxes(gradu, 2, 3))
    Re[:, :, :n_sd] -= ein("eq,eq,eqai->eai", wdet, p_q, D)
    # continuity
    Re[:, :, n_sd] += ein("eq,qa,eq->ea", wdet, Nq, divu)
    # GLS momentum: weight rho(dw/dt + u.grad w) part
    Re[:, :, :n_sd] += ein("e,eq,eqa,eqi->eai", tau_m, wdet, adv, r_q)
    # GLS momentum: pressure-test part (PSPG-like)
    Re[:, :, n_sd] += ein("e,eq,eqai,eqi->ea", tau_m / rho, wdet, D, r_q)
    # grad-div
    Re[:, :, :n_sd] += rho * ein("e,eq,eqai,eq->eai", tau_c, wdet, D, divu)

    if not want_matrix:
        return Re, None

    eye = np.eye(n_sd)
    Ke = np.zeros((E, nen, nc, nen, nc))
    # d(strong residual)/dU (velocity block)
    drdu = rho * (ein("eqb,ij->eqibj", adv, eye)
                  + (ein("qb,eqij->eqibj", Nq, gradu) if convective else 0.0))

    # Galerkin
    Ke[:, :, :n_sd, :, :n_sd] += ein("eq,qa,eqibj->eaibj", wdet, Nq, drdu)
    # stress
    Ke[:, :, :n_sd, :, :n_sd] += mu * (
        ein("eq,eqak,eqbk,ij->eaibj", wdet, D, D, eye)
        + ein("eq,eqaj,eqbi->eaibj", wdet, D, D))
    Ke[:, :, :n_sd, :, n_sd] -= ein("eq,qb,eqai->eaib", wdet, Nq, D)
    # continuity
    Ke[:, :, n_sd, :, :n_sd] += ein("eq,qa,eqbj->eabj", wdet, Nq, D)
    # GLS, velocity test rows
    Ke[:, :, :n_sd, :, :n_sd] += ein("e,eq,eqa,eqibj->eaibj",
                                     tau_m, wdet, adv, drdu)
    Ke[:, :, :n_sd, :, n_sd] += ein("e,eq,eqa,eqbi->eaib",
                                    tau_m, wdet, adv, D)
    if convective:  # linearization of u inside the GLS weight
        Ke[:, :, :n_sd, :, :n_sd] += ein("e,eq,qb,eqaj,eqi->eaibj",
                                         tau_m, wdet, Nq, D, r_q)
    # GLS, pressure test rows
    Ke[:, :, n_sd, :, :n_sd] += ein("e,eq,eqam,eqmbj->eabj",
                                    tau_m / rho, wdet, D, drdu)
    Ke[:, :, n_sd, :, n_sd] += ein("e,eq,eqam,eqbm->eab",
                                   tau_m / rho, wdet, D, D)
    # grad-div
    Ke[:, :, :n_sd, :, :n_sd] += rho * ein("e,eq,eqai,eqbj->eaibj",
                                           tau_c, wdet, D, D)
    return Re, Ke


def p1_oracle_geometry(problem, sl):
    """The geometry ``quadrature_point_terms`` takes, for the P1 simplices
    ``sl`` of a ``SpaceTimeProblem``: the constant gradients broadcast over
    the quadrature points."""
    mesh = problem.mesh
    n_sd = mesh.n_sd
    grads = mesh.gradients[sl]
    E, nen = grads.shape[:2]
    nq = len(problem.rule.weights)
    wdet = problem.rule.weights * np.abs(mesh.jacobian_dets[sl])[:, None]
    D = np.broadcast_to(grads[:, None, :, :n_sd], (E, nq, nen, n_sd))
    B = np.broadcast_to(grads[:, None, :, n_sd], (E, nq, nen))
    x_q = np.einsum("qa,ead->eqd", problem.Nq, mesh.element_coords[sl])
    return problem.Nq, wdet, D, B, x_q


def prism_oracle_geometry(problem):
    """The geometry ``quadrature_point_terms`` takes, for all prisms of a
    ``PrismSlabProblem``: ``prism_geometry`` at every quadrature point."""
    slab, n_sd = problem.slab, problem.n_sd
    xi, theta = problem.rule.points[:, :n_sd], problem.rule.points[:, n_sd]
    x_q, _, detJ, grads = prism_geometry(*slab.corners(), slab.t_bottom,
                                         slab.dt, xi, theta)
    return (prism_shape_functions(xi, theta),
            problem.rule.weights * np.abs(detJ), grads[..., :n_sd],
            grads[..., n_sd], x_q)


def volume_terms(kernel, geometry, problem, U, want_matrix):
    """(Re, Ke) of every element of ``problem`` at ``U`` from ``kernel``."""
    stab = problem.stabilization(U)
    return kernel(*geometry, U[problem.elements], problem.material.rho,
                  problem.material.mu, stab.tau_mom, stab.tau_cont,
                  problem.body_force, problem.convective, want_matrix)


def reference_terms(problem, U, want_matrix):
    """(Re, Ke) of every element from the quadrature-point oracle."""
    geometry = (p1_oracle_geometry(problem, slice(None))
                if isinstance(problem, SpaceTimeProblem)
                else prism_oracle_geometry(problem))
    return volume_terms(quadrature_point_terms, geometry, problem, U,
                        want_matrix)


def coo_reference(problem, U):
    """The Newton matrix summed by scipy from triplets: every element block,
    the jump-term blocks and the Dirichlet identity rows."""
    values = U.reshape(problem.n_nodes, problem.ncomp)
    _, Ke = reference_terms(problem, values, True)
    nloc = problem.edof.shape[1]
    jump = jump_term(problem, SolutionField(values, problem.n_sd))[1].tocoo()
    rows = np.concatenate([np.repeat(problem.edof, nloc, axis=1).ravel(),
                           jump.row])
    cols = np.concatenate([np.tile(problem.edof, (1, nloc)).ravel(), jump.col])
    data = np.concatenate([Ke.ravel(), jump.data])
    data[np.isin(rows, problem.dir_dofs)] = 0.0
    dirs = problem.dir_dofs
    n = problem.n_dofs
    return sp.coo_matrix((np.concatenate([data, np.ones(len(dirs))]),
                          (np.concatenate([rows, dirs]),
                           np.concatenate([cols, dirs]))),
                         shape=(n, n)).tocsr()


def twisted_simplex_problem():
    """Twisted 2D simplex problem with Dirichlet, Neumann, a two-node gauge
    and a body force."""
    traj = NodeTrajectory("rigid_rotation", (0.5, 0.5), omega=0.5)
    st = extrude_simplex_st(box2d(3, 3), ExtrusionSpec(0.0, 0.3, 3, traj))
    return make_problem(
        st, mu=0.2,
        dirichlet={"x0": lambda x, t: np.column_stack([np.sin(x[:, 1] + t),
                                                       x[:, 0]]),
                   "y0": zero_velocity},
        neumann={"x1": lambda x, t: np.column_stack([np.cos(x[:, 1]),
                                                     t + 0 * x[:, 0]])},
        ic=lambda x: 0.3 * x,
        body_force=lambda x, t: np.column_stack([np.sin(x[:, 0]),
                                                 x[:, 1] * t]),
        gauge=[(0, 0.1), (st.n_nodes - 1, -0.2)])


def pentatope_problem(rng):
    st = extrude_simplex_st(box3d(1, 1, 1), ExtrusionSpec(0.0, 0.25, 2))
    return SpaceTimeProblem(
        st, MaterialParams(rho=1.1, mu=0.2),
        BCSpec(dirichlet={"z0": zero_velocity}),
        gauge=(0, 0.0), jump_data=rng.uniform(-1, 1, size=(st.n_nodes, 3)))


def twisted_prism_problem(rng):
    spatial = box2d(3, 2)
    traj = NodeTrajectory("rigid_rotation", (0.5, 0.5), omega=0.6)
    cb = rigid_rotation_positions(spatial.nodes, traj, 0.1)
    ct = rigid_rotation_positions(spatial.nodes, traj, 0.25)
    slab = PrismSlab(spatial, cb, ct, 0.1, 0.15)
    return PrismSlabProblem(
        slab, MaterialParams(rho=1.2, mu=0.3),
        BCSpec(dirichlet={"x0": zero_velocity},
               neumann={"x1": lambda x, t: np.column_stack([x[:, 1],
                                                            0 * t + 1.0])}),
        gauge=(0, 0.1),
        jump_data=rng.uniform(-1, 1, size=(spatial.n_nodes, 2)))


class TestCsrPlan:
    """The slot-filled CSR matrix against scipy's sum of the triplets."""

    def check_against_coo(self, problem, rng):
        U = problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp)))
        A = problem.system(U)[0].matrix
        ref = coo_reference(problem, U)
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        scale = np.abs(ref.data).max()
        assert np.abs(A.data - ref.data).max() <= 1e-13 * scale
        # the sorted keys are np.unique's; slots take the index dtype
        plan = problem._csr_plan
        ids = problem.elements.astype(np.int64)
        n = problem.n_nodes
        keys = np.concatenate([(ids[:, :, None] * n + ids[:, None, :]).ravel(),
                               np.arange(n) * (n + 1)])
        assert np.array_equal(plan.keys, np.unique(keys))
        assert plan.dir_slots.dtype == A.indices.dtype == np.int32
        return problem, U

    def test_twisted_simplex_problem(self, rng):
        problem, _ = self.check_against_coo(twisted_simplex_problem(), rng)
        assert len(problem.dir_dofs) > 2

    def test_pentatope_problem_with_jump_data(self, rng):
        self.check_against_coo(pentatope_problem(rng), rng)

    def test_twisted_prism_problem_with_jump_data(self, rng):
        self.check_against_coo(twisted_prism_problem(rng), rng)

    def test_split_over_chunks(self, rng, monkeypatch):
        import ustflow.assembly as assembly
        problem = twisted_simplex_problem()
        nloc = problem.edof.shape[1]
        monkeypatch.setattr(assembly, "_CHUNK_ENTRIES", 7.0 * nloc * nloc)
        assert len(problem.elements) > 3 * 7
        self.check_against_coo(problem, rng)

    def test_plan_built_once_on_first_matrix(self, rng):
        problem = twisted_simplex_problem()
        U = problem.initial_guess()
        problem.residual_norm(U)
        assert "_csr_plan" not in vars(problem)
        problem.system(U)
        plan = problem._csr_plan
        problem.system(U + 0.1)
        assert problem._csr_plan is plan

    def test_jump_term_matrix_is_its_residual_derivative(self, rng):
        problem = twisted_prism_problem(rng)
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        dU = rng.uniform(-1, 1, size=U.shape)
        R0, A = jump_term(problem, SolutionField(U, problem.n_sd))
        R1, _ = jump_term(problem, SolutionField(U + dU, problem.n_sd))
        assert A.shape == (problem.n_dofs, problem.n_dofs)
        assert np.allclose(A @ dU.ravel(), R1 - R0, rtol=0, atol=1e-13)


class TestSimplexKernel:
    """The element kernel on P1 simplices, one group of quadrature points,
    against the quadrature-point kernel fed broadcast P1 geometry, at
    random fields that ignore the Dirichlet data."""

    @pytest.mark.parametrize("case", ["twisted_body_force", "pentatope",
                                      "stokes"])
    def test_matches_quadrature_point_kernel(self, case, rng):
        if case == "twisted_body_force":
            problem = twisted_simplex_problem()
        elif case == "pentatope":
            problem = pentatope_problem(rng)
        else:
            problem = make_problem(
                perturbed_box_st(3, 2, 3, rng), mu=0.4, convective=False,
                body_force=lambda x, t: np.column_stack([x[:, 1] + t,
                                                         np.cos(x[:, 0])]))
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        Re_ref, Ke_ref = reference_terms(problem, U, True)
        geometry = problem._volume_geometry(slice(None))
        Re_only, Ke_none = volume_terms(_element_terms, geometry, problem, U,
                                        False)
        Re, Ke = volume_terms(_element_terms, geometry, problem, U, True)
        assert Ke_none is None
        assert np.array_equal(Re_only, Re)
        assert np.abs(Re - Re_ref).max() <= 1e-13 * np.abs(Re_ref).max()
        assert Ke.shape == Ke_ref.shape
        assert np.abs(Ke - Ke_ref).max() <= 1e-13 * np.abs(Ke_ref).max()


class TestPrismKernel:
    """The element kernel on prisms, one group per theta point, against the
    quadrature-point kernel fed ``prism_geometry`` at every point, on
    twisted slabs, at random fields that ignore the Dirichlet data."""

    @pytest.mark.parametrize("n_sd", [2, 3])
    @pytest.mark.parametrize("convective", [True, False])
    @pytest.mark.parametrize("with_force", [True, False])
    def test_matches_quadrature_point_kernel(self, n_sd, convective,
                                             with_force, rng):
        def force(x, t):
            return np.column_stack([np.sin(x[:, 0]) * t]
                                   + [x[:, 1] + t] * (n_sd - 1))

        slab = twisted_slab(n_sd)
        problem = PrismSlabProblem(
            slab, MaterialParams(rho=1.2, mu=0.3),
            BCSpec(dirichlet={"x0": zero_velocity}),
            body_force=force if with_force else None, convective=convective,
            gauge=(0, 0.1),
            jump_data=rng.uniform(-1, 1, size=(slab.spatial.n_nodes, n_sd)))
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        geometry = problem._volume_geometry(slice(None))
        for want_matrix in (False, True):
            Re_ref, Ke_ref = reference_terms(problem, U, want_matrix)
            Re, Ke = volume_terms(_element_terms, geometry, problem, U,
                                  want_matrix)
            assert Re.shape == Re_ref.shape
            assert np.abs(Re - Re_ref).max() <= 1e-13 * np.abs(Re_ref).max()
            if not want_matrix:
                assert Ke is None
                continue
            assert Ke.shape == Ke_ref.shape
            assert np.abs(Ke - Ke_ref).max() <= 1e-13 * np.abs(Ke_ref).max()


class TestPrismGeometry:
    """A slab's geometry, from one ``prism_geometry`` call at the theta
    points and the centre, against that function at every quadrature point
    and the metric it gave at the centre alone, on twisted slabs."""

    @pytest.mark.parametrize("n_sd", [2, 3])
    def test_matches_geometry_at_every_point(self, n_sd, monkeypatch, rng):
        calls = []

        def counting(*args):
            calls.append(args)
            return prism_geometry(*args)

        monkeypatch.setattr(assembly, "prism_geometry", counting)
        slab = twisted_slab(n_sd)
        problem = PrismSlabProblem(
            slab, MaterialParams(rho=1.2, mu=0.3),
            BCSpec(dirichlet={"x0": zero_velocity}),
            body_force=lambda x, t: np.zeros((len(x), n_sd)), gauge=(0, 0.1),
            jump_data=rng.uniform(-1, 1, size=(slab.spatial.n_nodes, n_sd)))
        problem.system(problem.initial_guess())
        problem.system(problem.initial_guess(), want_matrix=False)
        _, w, det, D, B, x = problem._volume_geometry(slice(None))
        assert len(calls) == 1

        ns, nt = w.shape
        points = problem.rule.points
        args = (*slab.corners(), slab.t_bottom, slab.dt)
        x_q, _, detJ, grads = prism_geometry(*args, points[:, :n_sd],
                                             points[:, n_sd])
        E = len(x_q)

        def grouped(a):
            """(E, ns*nt, ...) -> (ns, nt, ..., E)"""
            return np.moveaxis(a.reshape((E, ns, nt) + a.shape[2:]), 0, -1)

        pairs = [(det, np.abs(detJ)), (D, grads[..., :n_sd]),
                 (B, grads[..., n_sd]), (x, x_q)]
        for got, want in pairs:
            want = grouped(want)
            got = np.broadcast_to(got, want.shape)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert B.shape == (ns, nt, 2 * (n_sd + 1), E)
        assert x.shape == (ns, nt, n_sd + 1, E)

        # the metric at the element centre, as one call there gives it
        _, Jinv, _, _ = prism_geometry(*args, np.full(n_sd, 1 / (n_sd + 1)),
                                       0.5)
        Bmat = np.eye(n_sd + 1)
        Bmat[:n_sd, :n_sd] = regular_simplex_map(n_sd)
        for got, want in zip(problem._metric, metric_terms(Bmat @ Jinv)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_points_only_with_body_force(self):
        problem = PrismSlabProblem(twisted_slab(2), MaterialParams(1.0, 0.1),
                                   BCSpec(dirichlet={"x0": zero_velocity}),
                                   gauge=(0, 0.0))
        assert problem._volume_geometry(slice(None))[-1] is None


def split_into_chunks(monkeypatch, problem, n_chunks=4):
    """Shrink the assembly chunk so that ``problem`` has ``n_chunks`` or
    ``n_chunks + 1`` chunks, hence two lanes."""
    nloc = problem.edof.shape[1]
    chunk = len(problem.elements) // n_chunks
    monkeypatch.setattr(assembly, "_CHUNK_ENTRIES", float(chunk * nloc * nloc))
    return problem


def plan_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("assembly plan ")]


class TestLanes:
    """Two element lanes over four or five chunks: the same matrix as the
    triplet sum, an exact Jacobian, and the same bytes on any thread
    count."""

    @staticmethod
    def problem(family, rng):
        return {"simplex": twisted_simplex_problem,
                "pentatope": lambda: pentatope_problem(rng),
                "prism": lambda: twisted_prism_problem(rng)}[family]()

    @pytest.fixture(params=["simplex", "pentatope", "prism"])
    def family(self, request):
        return request.param

    def test_against_coo(self, family, rng, monkeypatch, caplog):
        problem = split_into_chunks(monkeypatch, self.problem(family, rng))
        with caplog.at_level(logging.INFO, logger="ustflow"):
            TestCsrPlan().check_against_coo(problem, rng)
        [line] = plan_lines(caplog)
        assert " lanes=2 " in line
        assert int(line.split("chunks=")[1].split()[0]) >= 3

    def test_fd_jacobian(self, family, rng, monkeypatch):
        problem = split_into_chunks(monkeypatch, self.problem(family, rng))
        U = problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp)))
        assert TestJacobianFD().fd_check(problem, U, rng) < 1e-5

    def test_residual_same_with_and_without_matrix(self, family, rng,
                                                   monkeypatch):
        problem = split_into_chunks(monkeypatch, self.problem(family, rng))
        U = problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp)))
        _, r1, n1 = problem.system(U)
        _, r2, n2 = problem.system(U, want_matrix=False)
        assert r1.tobytes() == r2.tobytes()
        assert n1 == n2

    def test_logs_plan_once(self, family, rng, monkeypatch, caplog):
        problem = split_into_chunks(monkeypatch, self.problem(family, rng))
        U = problem.initial_guess()
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(assembly, "_pool", pool)
            with caplog.at_level(logging.INFO, logger="ustflow"):
                problem.residual_norm(U)
                assert plan_lines(caplog) == []
                problem.system(U)
                problem.system(U)
        [line] = plan_lines(caplog)
        plan = problem._csr_plan
        n_chunks = int(line.split("chunks=")[1].split()[0])
        assert n_chunks in (4, 5)
        assert line.startswith(f"assembly plan pairs={len(plan.keys)} "
                               f"nnz={plan.nnz} lanes=2 threads=2 "
                               f"chunks={n_chunks} plan_s=")
        seconds = dict(field.split("=") for field in line.split()[7:])
        assert list(seconds) == ["plan_s", "geometry_s", "metric_s", "wait_s"]
        assert all(float(v) >= 0.0 for v in seconds.values())

    def test_same_bytes_on_any_thread_count(self, family, rng, monkeypatch):
        """One, two and four workers (more than this machine's cores), with
        threads switched every microsecond: a lost update in the lanes or
        the concurrent plan build would change the bytes."""
        U = None
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                # a new problem each time, so the plan is built on each pool
                problem = split_into_chunks(
                    monkeypatch,
                    self.problem(family, np.random.default_rng(3)))
                if U is None:
                    U = problem.impose_dirichlet(0.5 * rng.uniform(
                        -1, 1, size=(problem.n_nodes, problem.ncomp)))
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(assembly, "_pool", pool)
                    system, rhs, _ = problem.system(U)
                A = system.matrix
                out.append([a.tobytes() for a in (A.data, A.indices,
                                                  A.indptr, rhs)])
        finally:
            sys.setswitchinterval(interval)
        assert out[0] == out[1] == out[2]

    def test_forked_child_starts_its_own_pool(self, rng, monkeypatch):
        problem = split_into_chunks(monkeypatch, pentatope_problem(rng))
        U = problem.initial_guess()
        rhs = problem.system(U)[1]       # the parent's pool now runs

        def child():
            os._exit(0 if problem.system(U)[1].tobytes() == rhs.tobytes()
                     else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(60)
        if proc.exitcode is None:
            proc.kill()
        assert proc.exitcode == 0


class TestBlockFill:
    def test_same_blocks_for_either_memory_order(self, rng):
        """The element kernel's element-last local matrices and an
        element-first copy fill the same blocks, also into a block range of
        their own."""
        problem = pentatope_problem(rng)
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        _, Ke = volume_terms(_element_terms,
                             problem._volume_geometry(slice(None)), problem,
                             U, True)
        assert not Ke.flags.c_contiguous
        plan = problem._csr_plan
        pairs = plan.pair_ids(problem.elements)
        filled = []
        for K in (Ke, np.ascontiguousarray(Ke)):
            blocks = plan.blocks()
            plan.add(blocks, 0, pairs, K)
            filled.append(blocks)
        assert np.array_equal(filled[0], filled[1])

        sl = slice(10, 30)
        pairs = plan.pair_ids(problem.elements[sl])
        lo, hi = pairs[0][0], pairs[0][-1] + 1
        part, full = plan.blocks(lo, hi), plan.blocks()
        plan.add(part, lo, pairs, Ke[sl])
        plan.add(full, 0, pairs, np.ascontiguousarray(Ke[sl]))
        assert np.array_equal(full[lo:hi], part)
        assert not full[:lo].any() and not full[hi:].any()


def global_pair_ids(plan, ids):
    """(a, b, element)-ordered global pair ids of the node pairs of ``ids``,
    by one ``searchsorted`` of every pair's key in all keys."""
    ids = ids.T.astype(np.int64)
    keys = ids[:, None, :] * plan.n_nodes + ids[None, :, :]
    return np.searchsorted(plan.keys, keys.ravel())


class TestChunkLocalPairs:
    """Each chunk's (glob, local) pair ids against a global ``searchsorted``
    of its element pairs, and its block fill against one ``bincount`` per
    component pair over the global ids, on problems split into two lanes."""

    @pytest.fixture(params=["simplex", "pentatope", "prism"])
    def problem(self, request, rng, monkeypatch):
        return split_into_chunks(monkeypatch,
                                 TestLanes.problem(request.param, rng))

    def test_local_ids_match_global_lookup(self, problem):
        problem.system(problem.initial_guess())
        size, chunks, lanes = problem._chunks
        assert len(lanes) == 2
        assert [c for lane in lanes for c in lane] == list(range(len(chunks)))
        assert chunks[0].start == 0 and chunks[-1].stop == len(
            problem.elements)
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        assert all(0 < c.stop - c.start <= size for c in chunks)
        plan = problem._csr_plan
        assert len(plan.chunks) == len(chunks)
        for sl, (glob, local) in zip(chunks, plan.chunks):
            assert local.dtype == np.int32
            assert (np.diff(glob) > 0).all()
            assert np.array_equal(glob[local],
                                  global_pair_ids(plan, problem.elements[sl]))
            assert len(glob) == len(np.unique(local)) == local.max() + 1

    def test_fill_matches_global_bincount(self, problem, rng):
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        problem.system(U)
        plan = problem._csr_plan
        _, Ke = volume_terms(_element_terms,
                             problem._volume_geometry(slice(None)), problem,
                             U, True)
        nc = problem.ncomp
        got, want = plan.blocks(), plan.blocks()
        for sl, pairs in zip(problem._chunks[1], plan.chunks):
            K = Ke[sl]
            plan.add(got, 0, pairs, K)
            idx = global_pair_ids(plan, problem.elements[sl])
            first = idx.min()
            n = idx.max() + 1 - first
            for i in range(nc):
                for j in range(nc):
                    want[first:first + n, i, j] += np.bincount(
                        idx - first,
                        K[:, :, i, :, j].transpose(1, 2, 0).ravel(),
                        minlength=n)
        assert got.tobytes() == want.tobytes()


class TestNoThreads:
    def test_import_starts_no_thread(self):
        code = ("import threading, ustflow, ustflow.assembly, ustflow.cli, "
                "ustflow.scenarios; print(threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "1"

    def test_one_chunk_problems_start_no_pool(self, small_st_mesh_2d, rng,
                                              monkeypatch, caplog):
        from ustflow.scenarios import make_stirrer2d, make_stirrer3d
        monkeypatch.setattr(assembly, "_pool", None)
        before = threading.active_count()
        problems = [make_problem(small_st_mesh_2d), pentatope_problem(rng),
                    twisted_simplex_problem(), twisted_prism_problem(rng)]
        for spec in (make_stirrer2d(), make_stirrer3d(coarse=True)):
            # the first slab of run_slab
            slab = PrismSlab(spec.mesh, spec.mesh.nodes, spec.mesh.nodes,
                             0.0, spec.dt)
            problems.append(PrismSlabProblem(
                slab, spec.material, spec.bcs, gauge=spec.gauge_for(
                    slab.node_coords())))
        with caplog.at_level(logging.INFO, logger="ustflow"):
            for problem in problems:
                U = problem.initial_guess()
                problem.residual_norm(U)
                problem.system(U)
                problem.system(U)
        assert assembly._pool is None
        assert threading.active_count() == before
        lines = plan_lines(caplog)
        assert len(lines) == len(problems)
        for line, problem in zip(lines, problems):
            plan = problem._csr_plan
            assert line.startswith(f"assembly plan pairs={len(plan.keys)} "
                                   f"nnz={plan.nnz} lanes=1 threads=0 "
                                   "chunks=1 plan_s=")
