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
                              PrismSlabProblem, SpaceTimeProblem,
                              dirichlet_values, element_jacobian_matrix,
                              element_residual, jump_term,
                              rigid_surface_velocity, _element_terms,
                              traction_term, zero_velocity)
import ustflow.assembly as assembly
from ustflow.errors import ConfigurationError
from ustflow.extrude import (ExtrusionSpec, NodeTrajectory,
                             extrude_simplex_st, rigid_rotation_positions,
                             rotation_matrix)
from ustflow.geometry import annulus2d, box2d, box3d, disk2d
from ustflow.mesh import SpaceTimeMesh, reference_gradients
from ustflow.quadrature import prism_quadrature
from ustflow.stabilization import (StabilizationContext, advective_form,
                                   canonical_vertex_order, mesh_metric,
                                   metric_norms, metric_terms, prism_geometry,
                                   prism_shape_functions, regular_simplex_map,
                                   tau_parameters)

from conftest import copy_mesh, twisted_slab

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

        rho, mu = 1.0, 0.2
        tau_m = np.full(mesh.n_elements, 0.37)
        tau_c = np.full(mesh.n_elements, 1.21)
        stab = StabilizationContext(tau_m, tau_c)
        got = element_residual(mesh, e, vals, MaterialParams(rho, mu),
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
        tau = np.ones(mesh.n_elements)
        stab = StabilizationContext(tau, tau)
        r = element_residual(mesh, 3, vals, MaterialParams(1.0, 0.05), None,
                             stab)
        assert np.abs(r).max() < 1e-14


class TestJumpTerm:
    def test_matching_traces_vanish(self, small_st_mesh_2d, rng):
        mesh = small_st_mesh_2d
        c = rng.uniform(-1, 1, size=2)
        problem = make_problem(mesh, ic=const_ic(c))
        vals = np.zeros((mesh.n_nodes, 3))
        vals[:, :2] = c
        R, _ = jump_term(problem, vals)
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
            R, _ = jump_term(problem, vals)
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
        R, _ = jump_term(problem, vals)
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

        A = jump_term(problem, U)[1].tocoo()
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
        K = element_jacobian_matrix(mesh, e, base, material, None, stab)
        ids = mesh.elements[e]
        eps = 1e-6
        fd = np.zeros_like(K)
        for a in range(4):
            for c in range(3):
                up = base.copy()
                dn = base.copy()
                up[ids[a], c] += eps
                dn[ids[a], c] -= eps
                rp = element_residual(mesh, e, up, material, None, stab)
                rm = element_residual(mesh, e, dn, material, None, stab)
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
    """A spec's problem builder, on its UST mesh and on one of its slabs."""

    def test_both_modes_produce_systems(self):
        from ustflow.scenarios import make_manufactured
        spec = make_manufactured(n=4, levels=2, t_end=0.2)
        st = spec.ust_mesh()
        system, _, norm = spec.problem(st).system(np.zeros((st.n_nodes, 3)))
        assert system.matrix.shape == (st.n_nodes * 3, st.n_nodes * 3)
        assert norm > 0.0

        problem = spec.problem(spec.slab(1), jump_data=np.zeros(
            (spec.mesh.n_nodes, 2)))
        system2, _, norm2 = problem.system(np.zeros((problem.n_nodes, 3)))
        assert system2.matrix.shape[0] == 2 * spec.mesh.n_nodes * 3
        assert norm2 > 0.0


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

    @pytest.mark.parametrize("family", ["simplex", "pentatope", "prism",
                                        "periodic"])
    def test_residual_same_with_and_without_matrix(self, family, rng):
        problem = TestLanes.problem(family, rng)
        U = TestLanes.field(family, problem, rng)
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


def kernel_terms(problem, U, want_matrix):
    """(Re, Ke) of every element of ``problem`` at ``U`` from
    ``_element_terms``, its blocks gathered densely by ``_dense``, the gather
    of ``element_jacobian_matrix``; Ke None when not requested."""
    Re, blocks = volume_terms(_element_terms,
                              problem._volume_geometry(slice(None)), problem,
                              U, want_matrix)
    return Re, None if blocks is None else assembly._dense(Re.shape, blocks)


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
    jump = jump_term(problem, values)[1].tocoo()
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
    traj = NodeTrajectory((0.5, 0.5), omega=0.5)
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
    traj = NodeTrajectory((0.5, 0.5), omega=0.6)
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


def periodic_problem(levels=4):
    """A 4-level (or ``levels``) annulus extrusion twisted about the origin,
    with data that turn with it: a rotating inner wall, the initial
    condition 0.3 x, and a traction on the outer wall that changes with t,
    which every level takes after the turn."""
    traj = NodeTrajectory((0.0, 0.0), omega=0.7)
    st = extrude_simplex_st(annulus2d(0.5, 1.0, 2, 12),
                            ExtrusionSpec(0.0, 0.1 * levels, levels, traj))
    return make_problem(
        st, mu=0.2,
        dirichlet={"inner": rigid_surface_velocity(0.7, (0.0, 0.0))},
        neumann={"outer": lambda x, t: np.column_stack([x[:, 1] * t,
                                                        1.0 + t])},
        ic=lambda x: 0.3 * x)


def periodic_field(problem, rng):
    """A level-periodic iterate of a 2D mesh twisted about the origin:
    velocity f(r) x + g(r) Jx and pressure h(r), r = |x|, J the quarter
    turn, for random cubics f, g and h.  Each node level's values are then
    level 0's turned with its nodes."""
    x = problem.mesh.spatial_coords
    r = np.linalg.norm(x, axis=1)
    f, g, h = (np.polyval(rng.uniform(-1, 1, 4), r) for _ in range(3))
    U = np.empty((problem.n_nodes, 3))
    U[:, :2] = f[:, None] * x + g[:, None] * np.column_stack([-x[:, 1],
                                                              x[:, 0]])
    U[:, 2] = h
    assert problem._periodic(U) is not None
    return U


def every_level_path(monkeypatch):
    """Make every system assemble every element level, the oracle of the
    level-periodic path."""
    monkeypatch.setattr(SpaceTimeProblem, "_periodic",
                        lambda self, values: None)


def periodic_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("assembly periodic ")]


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
        assert plan.diag_slots.dtype == A.indices.dtype == np.int32
        # the Dirichlet rows are identity rows of that stored pattern: each
        # keeps all its entries, zeros but for a 1 on the diagonal
        counts = np.diff(A.indptr)
        dir_entry = np.repeat(problem.dir_mask, counts)
        diagonal = np.repeat(np.arange(problem.n_dofs), counts) == A.indices
        assert np.array_equal(np.flatnonzero(dir_entry & diagonal),
                              np.sort(plan.diag_slots))
        assert (A.data[dir_entry & diagonal] == 1.0).all()
        assert (A.data[dir_entry & ~diagonal] == 0.0).all()
        assert (counts[problem.dir_dofs] > 1).all()
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
        R0, A = jump_term(problem, U)
        R1, _ = jump_term(problem, U + dU)
        assert A.shape == (problem.n_dofs, problem.n_dofs)
        assert np.allclose(A @ dU.ravel(), R1 - R0, rtol=0, atol=1e-13)


def scratch_plan(problem):
    """The integer arrays of ``problem``'s CSR plan built from scratch: the
    keys by one ``np.unique`` of every element node pair and the diagonal,
    the CSR pattern as scipy's Kronecker product of the node pattern with
    an nc x nc block, and each chunk's ids by an ``np.unique`` of its own
    pairs."""
    ids = problem.elements.astype(np.int64)
    n, nc = problem.n_nodes, problem.ncomp
    keys = np.unique(np.concatenate([
        (ids[:, :, None] * n + ids[:, None, :]).ravel(),
        np.arange(n) * (n + 1)]))
    row, col = np.divmod(keys, n)
    nodes = sp.csr_matrix((np.ones(len(keys), np.int8), (row, col)),
                          shape=(n, n))
    A = sp.kron(nodes, np.ones((nc, nc), np.int8), format="bsr").tocsr()
    A.sort_indices()
    pair = np.arange(len(keys))
    diagonal = np.flatnonzero(
        np.repeat(np.arange(n * nc), np.diff(A.indptr)) == A.indices)
    chunks = []
    for sl in problem._chunks[1]:
        e = ids[sl].T
        chunk_keys, local = np.unique(
            (e[:, None, :] * n + e[None, :, :]).ravel(), return_inverse=True)
        chunks.append((np.searchsorted(keys, chunk_keys), local))
    return {"keys": keys, "indptr": A.indptr, "indices": A.indices,
            "start": A.indptr[row * nc] + nc * (pair - nodes.indptr[row]),
            "stride": nc * np.diff(nodes.indptr)[row],
            "diag_slots": diagonal[problem.dir_dofs]}, chunks


class TestPlanByLevels:
    """The plan of a stack, built from its first element levels and
    repeated by whole levels, against a from-scratch build of the whole
    mesh, array by array."""

    @staticmethod
    def check(problem):
        plan = problem._csr_plan
        want, chunks = scratch_plan(problem)
        index = np.int32
        for name, a in want.items():
            got = getattr(plan, name)
            assert got.dtype == (np.int64 if name == "keys" else index), name
            assert np.array_equal(got, a), name
        assert len(plan.chunks) == len(chunks)
        for (glob, local), (want_glob, want_local) in zip(plan.chunks,
                                                          chunks):
            assert glob.dtype == index
            assert np.array_equal(glob, want_glob)
            assert np.array_equal(local, want_local)
        return plan

    @pytest.mark.parametrize("name", ["stirrer2d", "stirrer3d", "channel2d"])
    def test_shipped_cases(self, name):
        from ustflow.scenarios import (make_channel2d, make_stirrer2d,
                                       make_stirrer3d)
        spec = {"stirrer2d": make_stirrer2d, "stirrer3d": make_stirrer3d,
                "channel2d": make_channel2d}[name]()
        problem = spec.problem(spec.ust_mesh())
        levels = {"stirrer2d": 17, "stirrer3d": 17, "channel2d": 20}[name]
        assert problem.level_stack.L == levels
        self.check(problem)

    @pytest.mark.parametrize("levels", [2, 3, 4])
    @pytest.mark.parametrize("n_chunks", [1, 4, 10])
    def test_small_stacks(self, levels, n_chunks, monkeypatch):
        """One chunk, chunks of whole levels or slices of every level: on
        three or more levels the chunks of interior node levels take their
        twins' ids plus whole levels."""
        traj = NodeTrajectory((0.1, -0.2), omega=0.7)
        st = extrude_simplex_st(disk2d(1.0, 2, 10),
                                ExtrusionSpec(0.0, 0.3, levels, traj))
        problem = SpaceTimeProblem(
            st, MaterialParams(1.0, 0.1),
            BCSpec(dirichlet={"outer": zero_velocity}), gauge=(0, 0.0))
        if n_chunks > 1:
            split_into_chunks(monkeypatch, problem, n_chunks)
        assert problem.level_stack.L == levels
        assert len(problem._chunks[1]) >= n_chunks
        self.check(problem)

    def test_prism_slab(self, rng):
        problem = twisted_prism_problem(rng)
        assert problem.level_stack.L == 1
        self.check(problem)


class TestSimplexKernel:
    """The element kernel on P1 simplices, one group of quadrature points,
    against the quadrature-point kernel fed broadcast P1 geometry, at
    random fields that ignore the Dirichlet data: its component-pair blocks
    gathered densely, for the whole mesh and one element at a time through
    ``element_jacobian_matrix``."""

    @pytest.mark.parametrize("case", ["twisted_body_force", "pentatope",
                                      "stokes", "pentatope_stokes_force"])
    def test_matches_quadrature_point_kernel(self, case, rng):
        if case == "twisted_body_force":
            problem = twisted_simplex_problem()
        elif case == "pentatope":
            problem = pentatope_problem(rng)
        elif case == "stokes":
            problem = make_problem(
                perturbed_box_st(3, 2, 3, rng), mu=0.4, convective=False,
                body_force=lambda x, t: np.column_stack([x[:, 1] + t,
                                                         np.cos(x[:, 0])]))
        else:
            problem = make_problem(
                extrude_simplex_st(box3d(1, 1, 1),
                                   ExtrusionSpec(0.0, 0.25, 2)),
                mu=0.3, convective=False,
                body_force=lambda x, t: np.column_stack([x[:, 1] + t,
                                                         np.cos(x[:, 0]),
                                                         x[:, 2] * t]))
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        Re_ref, Ke_ref = reference_terms(problem, U, True)
        Re_only, Ke_none = kernel_terms(problem, U, False)
        Re, Ke = kernel_terms(problem, U, True)
        assert Ke_none is None
        assert np.array_equal(Re_only, Re)
        assert np.abs(Re - Re_ref).max() <= 1e-13 * np.abs(Re_ref).max()
        assert Ke.shape == Ke_ref.shape
        scale = np.abs(Ke_ref).max()
        assert np.abs(Ke - Ke_ref).max() <= 1e-13 * scale
        stab = problem.stabilization(U)
        nloc = problem.edof.shape[1]
        for e in range(len(problem.elements)):
            K = element_jacobian_matrix(problem.mesh, e, U,
                                        problem.material, problem.body_force,
                                        stab, problem.convective)
            assert np.abs(K - Ke_ref[e].reshape(nloc, nloc)).max() <= (
                1e-13 * scale)


class TestPrismKernel:
    """The element kernel on prisms, one group per theta point, its
    component-pair blocks gathered densely, against the quadrature-point
    kernel fed ``prism_geometry`` at every point, on twisted slabs, at
    random fields that ignore the Dirichlet data."""

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
        for want_matrix in (False, True):
            Re_ref, Ke_ref = reference_terms(problem, U, want_matrix)
            Re, Ke = kernel_terms(problem, U, want_matrix)
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
    """Shrink the assembly chunk to 1/``n_chunks`` of ``problem``'s
    elements, so that it has at least two chunks, hence two lanes: whole
    levels or the same slices of every level (see ``_partition``)."""
    nloc = problem.edof.shape[1]
    chunk = len(problem.elements) // n_chunks
    monkeypatch.setattr(assembly, "_CHUNK_ENTRIES", float(chunk * nloc * nloc))
    return problem


def plan_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("assembly plan ")]


class TestLanes:
    """Two element lanes over a quarter-size chunk: the same matrix as the
    triplet sum, an exact Jacobian, and the same bytes on any thread
    count."""

    LEVELS = {"simplex": 3, "pentatope": 2, "prism": 1}

    @staticmethod
    def problem(family, rng):
        return {"simplex": twisted_simplex_problem,
                "pentatope": lambda: pentatope_problem(rng),
                "prism": lambda: twisted_prism_problem(rng),
                "periodic": periodic_problem}[family]()

    @staticmethod
    def field(family, problem, rng):
        """A random iterate with its Dirichlet values, or for the
        ``periodic`` family a level-periodic one."""
        if family == "periodic":
            return periodic_field(problem, rng)
        return problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp)))

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

    @pytest.mark.parametrize("family", ["simplex", "pentatope", "prism",
                                        "periodic"])
    def test_residual_same_with_and_without_matrix(self, family, rng,
                                                   monkeypatch):
        problem = split_into_chunks(monkeypatch, self.problem(family, rng))
        U = self.field(family, problem, rng)
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
        _, chunks, lanes = problem._chunks
        assert len(lanes) == 2 and len(chunks) >= 3
        assert line.startswith(f"assembly plan pairs={len(plan.keys)} "
                               f"nnz={plan.nnz} levels={self.LEVELS[family]} "
                               f"lanes=2 chunks={len(chunks)} "
                               "plan_s=")
        seconds = dict(field.split("=") for field in line.split()[7:])
        assert list(seconds) == ["plan_s", "geometry_s", "metric_s"]
        assert all(float(v) >= 0.0 for v in seconds.values())

    @pytest.mark.parametrize("family", ["simplex", "pentatope", "prism",
                                        "periodic"])
    def test_same_bytes_on_any_thread_count(self, family, rng, monkeypatch):
        """One, two and four workers (more than this machine's cores), with
        threads switched every microsecond: a lost update in the lanes
        would change the bytes.  The level-periodic system's element level
        0 is cut into two chunks, so its base system and its turn of the
        levels both run on two lanes."""
        U = None
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        # half a level of the 4-level periodic problem per chunk
        n_chunks = 8 if family == "periodic" else 4
        try:
            for workers in (1, 2, 4):
                # a new problem each time, so the plan is built on each pool
                problem = split_into_chunks(
                    monkeypatch,
                    self.problem(family, np.random.default_rng(3)), n_chunks)
                if U is None:
                    U = self.field(family, problem, rng)
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(assembly, "_pool", pool)
                    system, rhs, _ = problem.system(U)
                A = system.matrix
                out.append([a.tobytes() for a in (A.data, A.indices,
                                                  A.indptr, rhs)])
        finally:
            sys.setswitchinterval(interval)
        assert out[0] == out[1] == out[2]
        if family == "periodic":
            assert system.stack is problem.level_stack
            assert len(problem._base_chunks[1]) == 2
            assert len(problem._base_chunks[2]) == len(problem._chunks[2]) == 2

    def test_lanes_sum_as_if_alone(self, rng, monkeypatch):
        """The volume matrix of two pentatope lanes has the bytes of each
        lane's chunks summed alone into zeros and the two sums added, and
        the later lane buffers only the node rows from its first to the
        earlier lane's last."""
        problem = split_into_chunks(monkeypatch, pentatope_problem(rng))
        U = problem.impose_dirichlet(
            0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp)))
        problem.system(U)
        plan, stab = problem._csr_plan, problem.stabilization(U)
        _, chunks, lanes = problem._chunks
        assert len(lanes) == 2
        nen, nc = problem.elements.shape[1], problem.ncomp
        alone = [np.zeros(plan.nnz) for _ in lanes]
        for data, lane in zip(alone, lanes):
            for c in lane:
                sl = chunks[c]
                _, blocks = _element_terms(
                    *problem._volume_geometry(sl), U[problem.elements[sl]],
                    problem.material.rho, problem.material.mu,
                    stab.tau_mom[sl], stab.tau_cont[sl], None, True, True)
                glob, local = plan.chunks[c]
                part = np.empty((nc, nc, len(glob)))
                assembly._block_sums(blocks, local.astype(np.intp), part,
                                     *np.empty((2, nen, nen,
                                                sl.stop - sl.start)))
                plan.add(data, glob, part)
        _, data = problem._volume(U, stab, chunks, lanes, plan.chunks)
        assert data.tobytes() == (alone[0] + alone[1]).tobytes()

        (first, _), (buf, lo) = plan.lane_buffers(
            [[plan.chunks[c][0] for c in lane] for lane in lanes])
        rows = [np.unique(problem.elements[chunks[lane[0]].start:
                                           chunks[lane[-1]].stop])
                for lane in lanes]
        ptr, nc = plan.indptr, problem.ncomp
        assert len(first) == 0
        assert rows[1].min() < rows[0].max() < rows[1].max()
        assert lo == ptr[rows[1].min() * nc]
        assert lo + len(buf) == ptr[(rows[0].max() + 1) * nc]
        assert len(buf) < ptr[(rows[1].max() + 1) * nc] - lo

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
        """The kernel's component-pair blocks, each summed over the local
        pair ids in the lane's (nen, nen, E) buffer, and the element-first
        dense local matrices, one ``np.bincount`` per component pair of
        their strided slices, give the same pair sums; a lane buffer over
        the slot range of the elements' own node rows takes all of theirs,
        as the whole data would."""
        problem = pentatope_problem(rng)
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        Re, blocks = volume_terms(_element_terms,
                                  problem._volume_geometry(slice(None)),
                                  problem, U, True)
        Ke = assembly._dense(Re.shape, blocks)
        E, nen, nc = Re.shape
        plan = problem._csr_plan

        def dense_sums(K, local, n):
            return np.array([[np.bincount(
                local, K[:, :, i, :, j].transpose(1, 2, 0).ravel(),
                minlength=n) for j in range(nc)] for i in range(nc)])

        glob, local = plan.pair_ids(problem.elements)
        local = local.astype(np.intp)
        part = np.empty((nc, nc, len(glob)))
        out, tmp = np.empty((2, nen, nen, E))
        assembly._block_sums(blocks, local, part, out, tmp)
        assert part.tobytes() == dense_sums(Ke, local, len(glob)).tobytes()

        # the elements whose lowest node is the highest: later rows only
        low = problem.elements.min(axis=1)
        sel = np.flatnonzero(low == low.max())
        glob, local = plan.pair_ids(problem.elements[sel])
        sums = dense_sums(Ke[sel], local.astype(np.intp), len(glob))
        lo, hi = plan.row_range(glob[0], glob[-1])
        assert 0 < lo < hi
        buf = np.zeros(hi - lo)
        data, full = np.zeros(plan.nnz), np.zeros(plan.nnz)
        plan.add(data, glob, sums, (buf, lo))
        plan.add(full, glob, sums)
        assert not data.any()
        assert np.array_equal(full[lo:hi], buf)
        assert not full[:lo].any() and not full[hi:].any()


def global_pair_ids(plan, ids):
    """(a, b, element)-ordered global pair ids of the node pairs of ``ids``,
    by one ``searchsorted`` of every pair's key in all keys."""
    ids = ids.T.astype(np.int64)
    keys = ids[:, None, :] * plan.n_nodes + ids[None, :, :]
    return np.searchsorted(plan.keys, keys.ravel())


def bsr_to_csr(plan, blocks):
    """The CSR matrix of ``blocks`` (n_pairs, nc, nc) in the plan's pair
    order, by scipy's block-row conversion."""
    row, col = np.divmod(plan.keys, plan.n_nodes)
    bptr = np.searchsorted(row, np.arange(plan.n_nodes + 1))
    n = plan.n_nodes * plan.nc
    return sp.bsr_matrix((blocks, col, bptr), shape=(n, n)).tocsr()


class TestMemory:
    """What a Newton system leaves behind and what it holds at its peak."""

    @pytest.mark.parametrize("family", ["simplex", "pentatope"])
    def test_no_per_element_copies_or_blocks(self, family, rng, monkeypatch):
        problem = split_into_chunks(monkeypatch,
                                    TestLanes.problem(family, rng))
        U = problem.initial_guess()
        A = problem.system(U)[0].matrix
        B = problem.system(U + 0.1)[0].matrix
        assert len(problem._chunks[2]) == 2
        assert "element_coords" not in vars(problem.mesh)
        assert "edof" not in vars(problem)
        # the plan holds 1-D index arrays only, its chunks' pair ids too:
        # no block, data or slot-list array
        plan = problem._csr_plan
        arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
        arrays += [a for pairs in plan.chunks for a in pairs]
        assert all(a.ndim == 1 and a.dtype.kind in "iu" for a in arrays)
        # every matrix wraps the plan's read-only index arrays and new data
        for M in (A, B):
            assert np.shares_memory(M.indices, plan.indices)
            assert np.shares_memory(M.indptr, plan.indptr)
            assert not M.indices.flags.writeable
            assert not M.indptr.flags.writeable
        assert not np.shares_memory(A.data, B.data)

    def test_one_level_of_gradients_and_shared_local_ids(self, rng,
                                                          monkeypatch):
        """A stacked pentatope problem caches the P1 gradients of level 0
        alone, reads no whole-mesh copy of them, and its chunks of one
        template, here the same slice of either level, share one array of
        local pair ids."""
        problem = split_into_chunks(monkeypatch, pentatope_problem(rng))
        problem.system(problem.initial_guess())
        mesh = problem.mesh
        stack = mesh.level_stack
        n_per, rotations = stack.n_per, stack.rotations
        assert len(rotations) == 2 and 2 * n_per == mesh.n_elements
        assert "gradients" not in vars(mesh)
        assert problem._gradients0.shape == (n_per, 5, 4)
        chunks, plan = problem._chunks[1], problem._csr_plan
        assert [c.start % n_per for c in chunks] == [0, 12, 0, 12]
        local = [ids for _, ids in plan.chunks]
        assert np.shares_memory(local[0], local[2])
        assert np.shares_memory(local[1], local[3])
        assert not np.shares_memory(local[0], local[1])

    # one lane's arrays at its peak, in (nen, nen, E) blocks of a full
    # chunk: the kernel's (about 13, with the per-element factors its blocks
    # are built from), the two block buffers and the fill's pair ids, sums
    # and slots; two lanes traced together peak at 14-17 blocks a lane.  A
    # chunk's local matrices at once are nc^2 blocks more, 9 in 2D and 16
    # in 3D, and do not fit (20-22 and 27 blocks a lane).
    LANE_BLOCKS = 18

    def test_later_system_peak(self):
        """A later ``system()`` of the stirrer2d fixture, two lanes of 3
        chunks, traced: its peak is the matrix's data, with 20% for the
        later lane's buffer of shared rows and tau, plus at most
        ``LANE_BLOCKS`` component-pair blocks of a chunk, 0.9 MB each, per
        lane, with no earlier chunk's arrays still held."""
        import tracemalloc

        from ustflow.scenarios import make_stirrer2d
        spec = make_stirrer2d()
        problem = spec.problem(spec.ust_mesh())
        U = problem.initial_guess()
        problem.system(U)
        size, chunks, lanes = problem._chunks
        nen = problem.elements.shape[1]
        block_bytes = 8 * size * nen * nen
        assert [len(lane) for lane in lanes] == [3, 3]
        assert block_bytes * problem.ncomp ** 2 <= 8e6
        tracemalloc.start()
        try:
            A = problem.system(U + 0.01)[0].matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.2 * A.data.nbytes
                        + self.LANE_BLOCKS * len(lanes) * block_bytes)


    def test_later_pentatope_system_peak(self):
        """A later ``system()`` of the coarse stirrer3d fixture, two lanes
        of 17 chunks, traced: its peak is the matrix's data, with 20% for
        the later lane's buffer of shared rows and tau, plus at most
        ``LANE_BLOCKS`` component-pair blocks of a chunk, 0.5 MB each, per
        lane.  A later lane's buffer over all of its rows, half of the data,
        would not fit.  The problem keeps only Ginv:Ginv and g.g of the
        metric, one value per element."""
        import tracemalloc

        from ustflow.scenarios import make_stirrer3d
        spec = make_stirrer3d(coarse=True)
        problem = spec.problem(spec.ust_mesh())
        U = problem.initial_guess()
        problem.system(U)
        size, _, lanes = problem._chunks
        nen = problem.elements.shape[1]
        block_bytes = 8 * size * nen * nen
        assert [len(lane) for lane in lanes] == [17, 17]
        assert block_bytes * problem.ncomp ** 2 <= 8e6
        n_el = len(problem.elements)
        assert [a.shape for a in problem._metric] == [(n_el,), (n_el,)]
        tracemalloc.start()
        try:
            A = problem.system(U + 0.01)[0].matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.2 * A.data.nbytes
                        + self.LANE_BLOCKS * len(lanes) * block_bytes)


class TestChunkLocalPairs:
    """Each chunk's (glob, local) pair ids against a global ``searchsorted``
    of its element pairs, and its CSR-order fill against one ``bincount``
    per component pair over the global ids into node-pair blocks, which
    scipy converts from block-row (BSR) to CSR form, on problems split into
    two lanes."""

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
            # the smallest unsigned dtype that holds len(glob)
            size = local.dtype.itemsize
            assert local.dtype.kind == "u"
            assert np.iinfo(local.dtype).max >= len(glob)
            assert size == 1 or np.iinfo(f"u{size // 2}").max < len(glob)
            assert (np.diff(glob) > 0).all()
            assert np.array_equal(glob[local],
                                  global_pair_ids(plan, problem.elements[sl]))
            assert len(glob) == len(np.unique(local)) == local.max() + 1

    def test_fill_matches_global_bincount(self, problem, rng):
        """Each chunk's kernel blocks, summed over its local pair ids and
        filled at their slots, against a global ``np.bincount`` of the same
        chunk's dense local matrices."""
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        problem.system(U)
        plan, stab = problem._csr_plan, problem.stabilization(U)
        nen, nc = problem.elements.shape[1], problem.ncomp
        got, want = np.zeros(plan.nnz), np.zeros((len(plan.keys), nc, nc))
        for sl, (glob, local) in zip(problem._chunks[1], plan.chunks):
            Re, blocks = _element_terms(
                *problem._volume_geometry(sl), U[problem.elements[sl]],
                problem.material.rho, problem.material.mu, stab.tau_mom[sl],
                stab.tau_cont[sl], problem.body_force, problem.convective,
                True)
            part = np.empty((nc, nc, len(glob)))
            assembly._block_sums(blocks, local.astype(np.intp), part,
                                 *np.empty((2, nen, nen, len(Re))))
            plan.add(got, glob, part)
            K = assembly._dense(Re.shape, blocks)
            idx = global_pair_ids(plan, problem.elements[sl])
            first = idx.min()
            n = idx.max() + 1 - first
            for i in range(nc):
                for j in range(nc):
                    want[first:first + n, i, j] += np.bincount(
                        idx - first,
                        K[:, :, i, :, j].transpose(1, 2, 0).ravel(),
                        minlength=n)
        want = bsr_to_csr(plan, want)
        A = plan.matrix(got)
        assert np.array_equal(A.indptr, want.indptr)
        assert np.array_equal(A.indices, want.indices)
        assert got.tobytes() == want.data.tobytes()


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
        from ustflow.scenarios import make_stirrer2d
        monkeypatch.setattr(assembly, "_pool", None)
        before = threading.active_count()
        spec = make_stirrer2d()
        slab3d = twisted_slab(3)
        problems = [make_problem(small_st_mesh_2d), pentatope_problem(rng),
                    twisted_simplex_problem(), twisted_prism_problem(rng),
                    periodic_problem(),  # a level-periodic first system
                    spec.problem(spec.slab(0)),  # run_slab's first
                    PrismSlabProblem(
                        slab3d, MaterialParams(1.0, 0.1),
                        BCSpec(dirichlet={"x0": zero_velocity}),
                        gauge=(0, 0.0),
                        jump_data=rng.uniform(
                            -1, 1, size=(slab3d.spatial.n_nodes, 3)))]
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
        # the extrusions are stacks of their levels, the slabs one level
        assert len(periodic_lines(caplog)) == 3
        for line, problem, levels in zip(lines, problems,
                                         [2, 2, 3, 1, 4, 1, 1]):
            plan = problem._csr_plan
            assert line.startswith(f"assembly plan pairs={len(plan.keys)} "
                                   f"nnz={plan.nnz} levels={levels} lanes=1 "
                                   "chunks=1 plan_s=")


class TestLaneThreads:
    def test_threads_from_chunk_count(self, monkeypatch):
        """A one-chunk system runs one lane on the calling thread and starts
        no thread.  One of three chunks runs its first lane on the calling
        thread and its later lane on the pool, which starts exactly one
        thread."""
        monkeypatch.setattr(assembly, "_pool", None)
        ran = []

        def record(lane):
            def run(*args):
                ran.append((list(args[-1]), threading.current_thread()))
                return lane(*args)
            return run

        before = threading.active_count()
        try:
            # chunks of 3 levels or of 1 of the 3 levels: 1 or 3 chunks
            for levels_per_chunk, n_lanes in ((3, 1), (1, 2)):
                problem = twisted_simplex_problem()
                nloc = problem.edof.shape[1]
                size = problem.mesh.level_stack.n_per * levels_per_chunk
                monkeypatch.setattr(assembly, "_CHUNK_ENTRIES",
                                    float(size * nloc * nloc))
                _, chunks, lanes = problem._chunks
                assert len(chunks) == 3 // levels_per_chunk
                assert len(lanes) == n_lanes
                monkeypatch.setattr(problem, "_lane", record(problem._lane))
                ran.clear()
                problem.system(problem.initial_guess())
                assert sorted(ids for ids, _ in ran) == [list(lane)
                                                         for lane in lanes]
                threads = dict((ids[0], t) for ids, t in ran)
                assert threads[0] is threading.current_thread()
                if n_lanes == 1:
                    assert assembly._pool is None
                    assert threading.active_count() == before
                else:
                    assert threads[lanes[1][0]] is not threads[0]
                    assert assembly._pool._max_workers == 1
                    assert threading.active_count() == before + 1
        finally:
            if assembly._pool is not None:
                assembly._pool.shutdown(wait=True)


def stacked_problem(name, rng):
    """A problem on a twisted 2D or 3D extrusion or a static one, each a
    stack of its 3-4 levels, with Dirichlet data, a gauge and jump data."""
    if name == "disk2d":
        traj = NodeTrajectory((0.1, -0.2), omega=0.7)
        st = extrude_simplex_st(disk2d(1.0, 2, 10),
                                ExtrusionSpec(0.0, 0.3, 4, traj))
        tag = "outer"
    elif name == "box3d":
        traj = NodeTrajectory((0.5, 0.4, 0.5), axis=(1.0, 2.0, 3.0), omega=0.8)
        st = extrude_simplex_st(box3d(2, 2, 2),
                                ExtrusionSpec(0.1, 0.4, 3, traj))
        tag = "x0"
    else:
        st = extrude_simplex_st(box2d(3, 2), ExtrusionSpec(0.0, 0.4, 4))
        tag = "x0"
    n_sd = st.n_sd
    return SpaceTimeProblem(
        st, MaterialParams(rho=1.1, mu=0.2),
        BCSpec(dirichlet={tag: lambda x, t: 0.3 * np.cos(x + t[:, None])}),
        gauge=(0, 0.0), jump_data=rng.uniform(-1, 1, size=(st.n_nodes, n_sd)))


def level0_order_norms(mesh, n_per):
    """(GG, gg) of every element from its own ``mesh.gradients``, with its
    vertices in the canonical order of its level-0 twin: the norms that
    level 0's repeat exactly when both are invariant under the levels'
    rigid rotations."""
    X = mesh.element_coords[:n_per]
    order = canonical_vertex_order(X - X[:, :1])
    order = np.tile(order, (len(mesh.elements) // n_per, 1))
    rows = np.take_along_axis(mesh.gradients, order[:, 1:, None], axis=1)
    return metric_terms(regular_simplex_map(mesh.dim) @ rows)[2:]


def same_order(mesh):
    """Where each element's canonical vertex order, in the whole mesh, is
    that of its level-0 twin."""
    n_per = mesh.level_stack.n_per
    X = mesh.element_coords
    order = canonical_vertex_order(X - X[:, :1])
    return (order == np.tile(order[:n_per], (len(X) // n_per, 1))).all(axis=1)


class TestLevelStack:
    """Level 0's set-up, rotated and repeated, against the whole-mesh
    oracles: ``mesh.gradients``, ``metric_norms``, ``mesh_metric`` and
    ``element_jacobian_matrix``."""

    @pytest.fixture(params=["disk2d", "box3d", "static"])
    def name(self, request):
        return request.param

    def test_finds_the_extrusion_levels(self, name, rng):
        problem = stacked_problem(name, rng)
        mesh = problem.mesh
        stack = mesh.level_stack
        n_per, rotations = stack.n_per, stack.rotations
        levels = {"disk2d": 4, "box3d": 3, "static": 4}[name]
        assert rotations.shape == (levels, mesh.n_sd, mesh.n_sd)
        assert n_per * levels == mesh.n_elements
        if name == "static":
            assert np.array_equal(rotations, np.tile(np.eye(2), (4, 1, 1)))
            return
        # R_k turns level 0 by the trajectory's angle over k levels
        traj = {"disk2d": (None, 0.7, 0.3 / 4), "box3d": ((1.0, 2.0, 3.0),
                                                          0.8, 0.1)}[name]
        axis, omega, dt = traj
        for k, R in enumerate(rotations):
            want = rotation_matrix(mesh.n_sd, axis, omega * k * dt)
            assert np.abs(R - want).max() <= 1e-14

    def test_gradients_metric_and_tau(self, name, rng):
        problem = stacked_problem(name, rng)
        mesh = problem.mesh
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        stab = problem.stabilization(U)
        n_per = mesh.level_stack.n_per
        G = np.moveaxis(problem._gradients(slice(None)), -1, 0)
        assert np.abs(G - mesh.gradients).max() <= (
            1e-13 * np.abs(mesh.gradients).max())
        GG, gg = problem._metric
        GG_mesh, gg_mesh = metric_norms(mesh)
        assert np.abs(GG - GG_mesh).max() <= 1e-13 * GG_mesh.max()
        # g.g follows the vertex order, which level 0 sets for every level
        # (see test_tied_elements_take_level0_order)
        gg_level0 = level0_order_norms(mesh, n_per)[1]
        assert np.abs(gg - gg_level0).max() <= 1e-13 * gg_level0.max()
        assert np.abs(gg - gg_mesh)[same_order(mesh)].max() <= (
            1e-13 * gg_mesh.max())
        # tau against tau_parameters fed the whole-mesh metric
        Ginv, _, GG_full, _ = mesh_metric(mesh)
        u = U[mesh.elements, :mesh.n_sd].mean(axis=1)
        tau_mom, tau_cont = tau_parameters(advective_form(u, Ginv),
                                           problem.material.nu, GG_full,
                                           gg_level0)
        assert np.abs(stab.tau_mom - tau_mom).max() <= 1e-13 * tau_mom.max()
        assert np.abs(stab.tau_cont - tau_cont).max() <= (
            1e-13 * tau_cont.max())

    def test_tied_elements_take_level0_order(self):
        """The whole mesh's canonical vertex order breaks exact ties of its
        first key, a vertex's distance to the barycentre, by rounding.  On
        the channel2d mesh, a static extrusion of a structured mesh through
        20 levels, the time offsets of the later levels break some ties
        another way than level 0, and ``metric_norms(mesh)`` gives those
        elements another g.g than their level-0 twins.  The problem gives
        every level level 0's order and g.g; Ginv:Ginv does not depend on
        the order."""
        from ustflow.scenarios import make_channel2d
        spec = make_channel2d()
        problem = spec.problem(spec.ust_mesh())
        mesh = problem.mesh
        stack = mesh.level_stack
        n_per, rotations = stack.n_per, stack.rotations
        assert len(rotations) == 20
        GG, gg = problem._metric
        GG_mesh, gg_mesh = metric_norms(mesh)
        assert np.abs(GG - GG_mesh).max() <= 1e-13 * GG_mesh.max()
        same = same_order(mesh)
        assert not same.all()
        assert np.abs(gg - gg_mesh)[same].max() <= 1e-13 * gg_mesh.max()
        assert np.abs(gg - gg_mesh)[~same].max() > 0.1 * gg_mesh.max()
        gg_level0 = level0_order_norms(mesh, n_per)[1]
        assert np.abs(gg - gg_level0).max() <= 1e-13 * gg_level0.max()

    def test_matrix_is_the_sum_of_element_matrices(self, name, rng,
                                                   monkeypatch):
        """Chunks of whole levels or of the same slices of every level: the
        templates' local ids and shifted keys fill the dense sum of
        ``element_jacobian_matrix``, the jump term and the Dirichlet rows."""
        for n_chunks in (1.3, 5):
            problem = split_into_chunks(monkeypatch,
                                        stacked_problem(name, rng), n_chunks)
            mesh, nc = problem.mesh, problem.ncomp
            # 1.3: all levels but the last in one chunk, the last its own
            # template; 5: two or more slices of every level
            n_per = mesh.level_stack.n_per
            sizes = [c.stop - c.start for c in problem._chunks[1]]
            assert (sizes == [mesh.n_elements - n_per, n_per] if n_chunks < 2
                    else max(sizes) < n_per)
            U = problem.impose_dirichlet(
                0.5 * rng.uniform(-1, 1, size=(problem.n_nodes, nc)))
            A = problem.system(U)[0].matrix.toarray()
            stab = problem.stabilization(U)
            want = jump_term(problem, U)[1].toarray()
            for e, dofs in enumerate(problem.edof):
                want[np.ix_(dofs, dofs)] += element_jacobian_matrix(
                    mesh, e, U, problem.material, None, stab)
            dirs = problem.dir_dofs
            want[dirs] = 0.0
            want[dirs, dirs] = 1.0
            assert np.abs(A - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("broken", ["moved_node", "swapped_nodes",
                                        "renumbered"])
    def test_broken_stack_is_one_level(self, broken, rng):
        """A mesh that is almost a stack is one level, with the whole-mesh
        bytes of the metric norms and the gradients."""
        stacked = stacked_problem("box3d", rng).mesh
        n_per = stacked.level_stack.n_per
        n_sp = stacked.n_nodes // 4
        nodes, elements = stacked.nodes.copy(), stacked.elements.copy()
        if broken == "moved_node":
            nodes[2 * n_sp + 5, 1] += 1e-9 * np.ptp(nodes[:, :3], axis=0).max()
            mesh = copy_mesh(stacked, nodes=nodes)
        elif broken == "swapped_nodes":
            elements[2 * n_per + 7, [0, 1]] = elements[2 * n_per + 7, [1, 0]]
            mesh = copy_mesh(stacked, elements=elements)
        else:
            perm = rng.permutation(stacked.n_nodes)
            new_id = np.argsort(perm)
            mesh = SpaceTimeMesh(
                nodes[perm], new_id[elements], new_id[stacked.boundary_facets],
                stacked.boundary_tags, stacked.tag_names, stacked.t0,
                stacked.tN, facet_groups=(stacked.bottom_facets,
                                          stacked.top_facets,
                                          stacked.mantle_facets))
        problem = SpaceTimeProblem(mesh, MaterialParams(1.0, 0.1),
                                   BCSpec(initial=zero_ic), gauge=(0, 0.0))
        stack = mesh.level_stack
        n_per, rotations = stack.n_per, stack.rotations
        assert n_per == mesh.n_elements
        assert np.array_equal(rotations, np.eye(3)[None])
        for got, want in zip(problem._metric, metric_norms(mesh)):
            assert got.tobytes() == want.tobytes()
        assert problem._gradients0.tobytes() == mesh.gradients.tobytes()
        G = problem._gradients(slice(None))
        assert G.tobytes() == np.moveaxis(mesh.gradients, 0, -1).tobytes()


class TestLevelPeriodic:
    """A level-periodic iterate's system from element level 0, turned into
    the other levels, against the path that assembles every level."""

    @staticmethod
    def ust_problem(name):
        from ustflow.scenarios import builtin_cases
        spec = builtin_cases()[name]()
        return spec.problem(spec.ust_mesh())

    @staticmethod
    def systems(problem, U):
        """(A, rhs, norm) of ``problem`` at ``U`` and its residual norm."""
        system, rhs, norm = problem.system(U)
        return system.matrix, rhs, norm, problem.residual_norm(U)

    @pytest.mark.parametrize("name", ["stirrer2d", "stirrer3d", "channel2d",
                                      "couette2d"])
    def test_matches_every_level_path(self, name, monkeypatch, caplog):
        problem = self.ust_problem(name)
        U = problem.initial_guess()
        with caplog.at_level(logging.INFO, logger="ustflow"):
            A, rhs, norm, rnorm = self.systems(problem, U)
        L = problem.level_stack.L
        lines = periodic_lines(caplog)
        assert len(lines) == 2
        assert lines[0].startswith(f"assembly periodic levels=1/{L} dev=")
        assert float(lines[0].split("dev=")[1]) <= 1e-12
        # system and residual_norm take the same path and the same bytes
        assert rnorm == norm
        every_level_path(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ustflow"):
            A0, rhs0, norm0, _ = self.systems(problem, U)
        assert periodic_lines(caplog) == []
        assert np.array_equal(A.indptr, A0.indptr)
        assert np.array_equal(A.indices, A0.indices)
        assert np.abs(A.data - A0.data).max() <= 1e-14 * np.abs(A0.data).max()
        assert np.abs(rhs - rhs0).max() <= 1e-14 * np.abs(rhs0).max()
        assert abs(norm - norm0) <= 1e-14 * norm0

    def test_three_levels_match_every_level_path(self, rng, monkeypatch,
                                                 caplog):
        """The shallowest stack that takes the turn: the top is node level
        1 turned by R_2, and node level 2 the one interior level."""
        problem = periodic_problem(levels=3)
        U = periodic_field(problem, rng)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            system, rhs, norm = problem.system(U)
        assert periodic_lines(caplog)[0].startswith(
            "assembly periodic levels=1/3 dev=")
        assert system.stack is problem.level_stack
        every_level_path(monkeypatch)
        system0, rhs0, norm0 = problem.system(U)
        A, A0 = system.matrix, system0.matrix
        assert np.array_equal(A.indices, A0.indices)
        assert np.abs(A.data - A0.data).max() <= 1e-14 * np.abs(A0.data).max()
        assert np.abs(rhs - rhs0).max() <= 1e-14 * np.abs(rhs0).max()
        assert abs(norm - norm0) <= 1e-14 * norm0

    @pytest.mark.parametrize("name", ["stirrer2d", "stirrer3d", "couette2d"])
    def test_rotations_compose(self, name):
        """R_{k+1} = R_k R_1, which element level 1's share, moved and
        turned from element level 0's, relies on."""
        from ustflow.scenarios import builtin_cases
        R = builtin_cases()[name]().ust_mesh().level_stack.rotations
        assert len(R) >= 3
        assert np.abs(R[1:] - R[:-1] @ R[1]).max() <= 1e-12

    @pytest.mark.parametrize("level, comp", [(5, 0), (5, 2), (1, 1),
                                             (17, 0)])
    def test_perturbed_level_takes_every_level_path(self, level, comp,
                                                    monkeypatch, caplog):
        """One value of one node moved by 1e-9 max|U|, a velocity or the
        pressure, at node level 5, 1 or the top (17): the full path, with
        its bytes."""
        problem = self.ust_problem("stirrer2d")
        U = problem.initial_guess()
        n_sp = problem.level_stack.n_sp
        U[level * n_sp + 17, comp] += 1e-9 * np.abs(U).max()
        with caplog.at_level(logging.INFO, logger="ustflow"):
            A, rhs, norm, rnorm = self.systems(problem, U)
        assert periodic_lines(caplog) == []
        every_level_path(monkeypatch)
        A0, rhs0, norm0, rnorm0 = self.systems(problem, U)
        assert A.data.tobytes() == A0.data.tobytes()
        assert rhs.tobytes() == rhs0.tobytes()
        assert (norm, rnorm) == (norm0, rnorm0)

    def test_body_force_and_prisms_take_every_level_path(self, caplog):
        """The manufactured case, whose body force depends on where and
        when, and a prism slab assemble every level, and their systems have
        no stack."""
        from ustflow.scenarios import make_manufactured, make_stirrer2d
        spec = make_manufactured()
        manufactured = spec.problem(spec.ust_mesh())
        assert manufactured.level_stack.L >= 3
        spec = make_stirrer2d()
        slab = spec.problem(spec.slab(0))
        with caplog.at_level(logging.INFO, logger="ustflow"):
            for problem in (manufactured, slab):
                assert problem.system(problem.initial_guess())[0].stack is None
                problem.residual_norm(problem.initial_guess())
        assert periodic_lines(caplog) == []

    def test_repeating_frozen_tau_takes_periodic_path(self, rng, caplog):
        """A frozen tau that repeats level 0's on every element level, as
        tau computed at a level-periodic iterate does, gives that iterate's
        system, byte for byte, and its stack."""
        periodic = periodic_problem()
        U = periodic_field(periodic, rng)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            A, rhs, norm, rnorm = self.systems(periodic, U)
            system, rhs0, norm0 = periodic.system(
                U, tau_override=periodic.stabilization(U))
            rnorm0 = periodic.residual_norm(
                U, tau_override=periodic.stabilization(U))
        assert len(periodic_lines(caplog)) == 4
        assert system.stack is periodic.level_stack
        assert A.data.tobytes() == system.matrix.data.tobytes()
        assert rhs.tobytes() == rhs0.tobytes()
        assert (norm, rnorm) == (norm0, rnorm0)

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_frozen_tau_off_on_one_level_takes_every_level_path(
            self, level, rng, monkeypatch, caplog):
        """One element's tau_MOM or tau_CONT moved by 1e-9 of its largest
        value, on element level 0, 1 or 3: the full path, with its bytes."""
        periodic = periodic_problem()
        U = periodic_field(periodic, rng)
        n_per = periodic.level_stack.n_per
        for name in ("tau_mom", "tau_cont"):
            stab = periodic.stabilization(U)
            tau = getattr(stab, name)
            tau[level * n_per + 7] += 1e-9 * tau.max()
            with caplog.at_level(logging.INFO, logger="ustflow"):
                system, rhs, norm = periodic.system(U, tau_override=stab)
            assert periodic_lines(caplog) == [] and system.stack is None
            with monkeypatch.context() as m:
                every_level_path(m)
                system0, rhs0, norm0 = periodic.system(U, tau_override=stab)
            assert (system.matrix.data.tobytes()
                    == system0.matrix.data.tobytes())
            assert rhs.tobytes() == rhs0.tobytes() and norm == norm0

    def test_only_the_first_run_ust_system(self, caplog):
        """In ``run_ust`` the initial guess is level-periodic, and no later
        iterate is."""
        from ustflow.scenarios import make_stirrer2d, run_ust
        from ustflow.solver import NewtonConfig
        with caplog.at_level(logging.INFO, logger="ustflow"):
            run_ust(make_stirrer2d(), NewtonConfig(max_iter=2))
        messages = [r.getMessage() for r in caplog.records]
        first = [i for i, m in enumerate(messages)
                 if m.startswith("assembly periodic ")]
        iters = [i for i, m in enumerate(messages)
                 if m.startswith("newton iter=")]
        assert len(first) == 1 and len(iters) == 3
        assert first[0] < iters[0]


class TestDirichletNodes:
    @pytest.mark.parametrize("name", ["stirrer2d", "stirrer3d", "channel2d",
                                      "slab"])
    def test_same_as_unique_of_faces(self, name):
        """The node mask gives the Dirichlet dofs and values of each tag's
        ``np.unique`` of its mantle faces."""
        from ustflow.scenarios import builtin_cases
        spec = builtin_cases()["stirrer2d" if name == "slab" else name]()
        problem = spec.problem(spec.slab(1) if name == "slab"
                               else spec.ust_mesh())
        nc, n_sd = problem.ncomp, problem.n_sd
        coords = (problem.slab.node_coords() if name == "slab"
                  else problem.mesh.nodes)
        mask = np.zeros(problem.n_dofs, dtype=bool)
        values = np.zeros(problem.n_dofs)
        for tag in sorted(spec.bcs.dirichlet):
            nodes = np.unique(problem._mantle_faces(tag))
            x = coords[nodes]
            velocity = spec.bcs.dirichlet[tag](x[:, :n_sd], x[:, n_sd])
            for c in range(n_sd):
                mask[nodes * nc + c] = True
                values[nodes * nc + c] = velocity[:, c]
        gauge = problem.dir_dofs[problem.dir_dofs % nc == n_sd]
        mask[gauge] = True
        values[gauge] = problem.dir_values[gauge]
        assert problem.dir_dofs.tobytes() == np.flatnonzero(mask).tobytes()
        assert problem.dir_values.tobytes() == values.tobytes()


class TestPartition:
    def test_fixture_chunks(self):
        """The stirrer3d fixture's levels cut into 6 slices each, the
        stirrer2d fixture's taken 3 at a time and then 2."""
        size, chunks, lanes = assembly._partition(14112, 17, 20)
        assert size == 2500 and len(chunks) == 102
        assert [len(lane) for lane in lanes] == [51, 51]
        assert all(c.stop - c.start == 2352 for c in chunks)
        size, chunks, lanes = assembly._partition(2142, 17, 12)
        assert [(c.stop - c.start) // 2142 for c in chunks] == [3] * 5 + [2]
        assert [len(lane) for lane in lanes] == [3, 3]

