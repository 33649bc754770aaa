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
                              _element_terms, _simplex_terms, traction_term,
                              zero_velocity)
import ustflow.assembly as assembly
from ustflow.errors import ConfigurationError
from ustflow.extrude import (ExtrusionSpec, NodeTrajectory,
                             extrude_simplex_st, rigid_rotation_positions)
from ustflow.geometry import box2d, box3d
from ustflow.stabilization import StabilizationContext

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
        stab = StabilizationContext(None, None, tau_m, tau_c)
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
        stab = StabilizationContext(None, None, tau, tau)
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


class TestTractionTerm:
    def test_zero_traction(self, small_st_mesh_2d):
        problem = make_problem(small_st_mesh_2d,
                               neumann={"x1": zero_velocity})
        R = traction_term(problem)
        assert np.abs(R).max() == 0.0

    def test_constant_traction_hand_value(self, small_st_mesh_2d):
        mesh = small_st_mesh_2d
        h = np.array([0.7, -0.3])

        def hfn(x, t):
            return np.broadcast_to(h, (len(np.atleast_2d(x)), 2)).copy()

        problem = make_problem(mesh, neumann={"x1": hfn})
        R = traction_term(problem).reshape(-1, 3)

        expected = np.zeros((mesh.n_nodes, 2))
        tag = mesh.tag_id("x1")
        for fidx in mesh.mantle_facets:
            if mesh.boundary_tags[fidx] != tag:
                continue
            ids = mesh.boundary_facets[fidx]
            coords = mesh.nodes[ids]
            edges = coords[1:] - coords[0]
            area = math.sqrt(abs(np.linalg.det(edges @ edges.T))) / 2.0
            for node in ids:
                expected[node] -= h * area / 3.0
        assert np.allclose(R[:, :2], expected, atol=1e-14)

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
        spatial = box2d(2, 2)
        traj = NodeTrajectory("rigid_rotation", (0.5, 0.5), omega=0.6)
        dt = 0.15
        cb = rigid_rotation_positions(spatial.nodes, traj, 0.1)
        ct = rigid_rotation_positions(spatial.nodes, traj, 0.1 + dt)
        slab = PrismSlab(spatial, cb, ct, 0.1, dt)

        def hfn(x, t):
            return np.column_stack([np.cos(x[:, 1] + t), np.sin(x[:, 0])])

        problem = PrismSlabProblem(
            slab, MaterialParams(rho=1.2, mu=0.3),
            BCSpec(dirichlet={"x0": lambda x, tt: np.column_stack(
                       [np.sin(x[:, 1]), np.cos(tt)])},
                   neumann={"x1": hfn},
                   initial=lambda x: 0.3 * x),
            body_force=lambda x, t: np.column_stack([x[:, 1] * 0 + np.sin(t),
                                                     x[:, 0]]),
            gauge=(0, 0.1))
        U = problem.impose_dirichlet(
            0.4 * rng.uniform(-1, 1, size=(problem.n_nodes, 3)))
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
        zero_tau = StabilizationContext(
            None, None, np.zeros(mesh.n_elements), np.zeros(mesh.n_elements))
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
        stab = StabilizationContext(None, None, tau, tauc)
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


class TestPrismViscousOperator:
    def test_spatial_second_derivatives_vanish(self, rng):
        # at fixed t the prism map is an affine blend of affine maps, so the
        # strong viscous operator is identically zero even when twisted
        spatial = box2d(2, 2)
        traj = NodeTrajectory("rigid_rotation", (0.5, 0.5), omega=0.9)
        cb = rigid_rotation_positions(spatial.nodes, traj, 0.0)
        ct = rigid_rotation_positions(spatial.nodes, traj, 0.2)
        slab = PrismSlab(spatial, cb, ct, 0.0, 0.2)
        problem = PrismSlabProblem(slab, MaterialParams(1.0, 0.8),
                                   BCSpec(initial=lambda x: 0 * x))
        _, _, _, VV = problem._geometry()
        assert np.abs(VV).max() == 0.0

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


def p1_oracle_geometry(problem, sl):
    """The geometry ``_element_terms`` takes, for the P1 simplices ``sl`` of
    a ``SpaceTimeProblem``: the constant gradients broadcast over the
    quadrature points."""
    mesh = problem.mesh
    n_sd = mesh.n_sd
    grads = mesh.gradients[sl]
    E, nen = grads.shape[:2]
    nq = len(problem.rule.weights)
    wdet = problem.rule.weights * np.abs(mesh.jacobian_dets[sl])[:, None]
    D = np.broadcast_to(grads[:, None, :, :n_sd], (E, nq, nen, n_sd))
    B = np.broadcast_to(grads[:, None, :, n_sd], (E, nq, nen))
    x_q = np.einsum("qa,ead->eqd", problem.Nq, mesh.element_coords[sl])
    return problem.Nq, wdet, D, B, None, x_q


def volume_terms(kernel, geometry, problem, U, want_matrix):
    """(Re, Ke) of every element of ``problem`` at ``U`` from ``kernel``."""
    stab = problem.stabilization(U)
    return kernel(*geometry, U[problem.elements], problem.material.rho,
                  problem.material.mu, stab.tau_mom, stab.tau_cont,
                  problem.body_force, problem.convective, want_matrix)


def reference_terms(problem, U, want_matrix):
    """(Re, Ke) of every element from the quadrature-point kernel."""
    geometry = (p1_oracle_geometry(problem, slice(None))
                if isinstance(problem, SpaceTimeProblem)
                else problem._volume_geometry(slice(None)))
    return volume_terms(_element_terms, geometry, problem, U, want_matrix)


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
    """The per-element P1 kernel against the quadrature-point kernel fed
    broadcast P1 geometry, at random fields that ignore the Dirichlet data."""

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
        Re_only, Ke_none = volume_terms(_simplex_terms, geometry, problem, U,
                                        False)
        Re, Ke = volume_terms(_simplex_terms, geometry, problem, U, True)
        assert Ke_none is None
        assert np.array_equal(Re_only, Re)
        assert np.abs(Re - Re_ref).max() <= 1e-13 * np.abs(Re_ref).max()
        assert Ke.shape == Ke_ref.shape
        assert np.abs(Ke - Ke_ref).max() <= 1e-13 * np.abs(Ke_ref).max()


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
        return (twisted_simplex_problem() if family == "simplex"
                else pentatope_problem(rng))

    @pytest.fixture(params=["simplex", "pentatope"])
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
        assert float(line.split("plan_s=")[1]) >= 0.0

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
        """The simplex kernel's element-last local matrices and an
        element-first copy (the prism kernel's and the jump term's order)
        fill the same blocks, also into a block range of their own."""
        problem = pentatope_problem(rng)
        U = rng.uniform(-1, 1, size=(problem.n_nodes, problem.ncomp))
        _, Ke = volume_terms(_simplex_terms,
                             problem._volume_geometry(slice(None)), problem,
                             U, True)
        assert not Ke.flags.c_contiguous
        plan = problem._csr_plan
        filled = []
        for K in (Ke, np.ascontiguousarray(Ke)):
            blocks = plan.blocks()
            plan.add(blocks, 0, plan.pairs, K)
            filled.append(blocks)
        assert np.array_equal(filled[0], filled[1])

        sl = slice(10, 30)
        lo, hi = plan.pairs[sl].min(), plan.pairs[sl].max() + 1
        part, full = plan.blocks(lo, hi), plan.blocks()
        plan.add(part, lo, plan.pairs[sl], Ke[sl])
        plan.add(full, 0, plan.pairs[sl], np.ascontiguousarray(Ke[sl]))
        assert np.array_equal(full[lo:hi], part)
        assert not full[:lo].any() and not full[hi:].any()


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
