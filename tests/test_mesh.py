from fractions import Fraction

import numpy as np
import pytest

from ustflow.errors import DegenerateElement
from ustflow.extrude import ExtrusionSpec, NodeTrajectory, extrude_simplex_st
from ustflow.geometry import box2d
from ustflow.mesh import (SimplexMesh, _det_of, basis_eval, basis_gradients,
                          classify_boundary, cofactor_det, element_jacobian,
                          element_measure, in_reference, jacobians_last,
                          map_local_to_global, time_levels, validate_mesh)

from conftest import random_simplex


def exact_inverse(J):
    """The inverse of the float matrix J in exact rational arithmetic,
    by Gauss-Jordan elimination with the first nonzero pivot."""
    d = len(J)
    M = [[Fraction(float(v)) for v in row] + [Fraction(int(i == k))
                                              for k in range(d)]
         for i, row in enumerate(J)]
    for c in range(d):
        p = next(r for r in range(c, d) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(d):
            if r != c:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    return [row[d:] for row in M]


def reference_simplex_mesh(dim):
    nodes = np.vstack([np.zeros(dim), np.eye(dim)])
    elements = np.arange(dim + 1)[None, :]
    facets = np.array([[j for j in range(dim + 1) if j != k][: dim]
                       for k in range(dim + 1)], dtype=np.int64)
    tags = np.zeros(dim + 1, dtype=np.int64)
    return SimplexMesh(nodes, elements, facets, tags, ["b"],
                       fix_orientation=False)


class TestElementJacobian:
    def test_reference_tetrahedron_identity(self):
        mesh = reference_simplex_mesh(3)
        J, det = element_jacobian(mesh, 0)
        assert np.allclose(J, np.eye(3))
        assert det == pytest.approx(1.0)

    def test_reference_pentatope_identity(self):
        mesh = reference_simplex_mesh(4)
        J, det = element_jacobian(mesh, 0)
        assert np.allclose(J, np.eye(4))
        assert det == pytest.approx(1.0)

    def test_scaled_tetrahedron(self):
        nodes = 2.0 * np.vstack([np.zeros(3), np.eye(3)])
        mesh = SimplexMesh(nodes, [[0, 1, 2, 3]], np.zeros((0, 3), dtype=int),
                           np.zeros(0, dtype=int), [])
        J, det = element_jacobian(mesh, 0)
        assert det == pytest.approx(8.0)
        assert element_measure(mesh, 0) == pytest.approx(8.0 / 6.0)

    def test_jacobian_columns_are_edge_vectors(self, rng):
        for dim in (2, 3, 4):
            X = random_simplex(rng, dim)
            mesh = SimplexMesh(X, [list(range(dim + 1))],
                               np.zeros((0, dim), dtype=int),
                               np.zeros(0, dtype=int), [],
                               fix_orientation=False)
            J, _ = element_jacobian(mesh, 0)
            for d in range(dim):
                assert np.array_equal(J[:, d], X[d + 1] - X[0])

    def test_degenerate_element_raises(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-17]])
        mesh = SimplexMesh(nodes, [[0, 1, 2]], np.zeros((0, 2), dtype=int),
                           np.zeros(0, dtype=int), [], fix_orientation=False)
        with pytest.raises(DegenerateElement):
            element_jacobian(mesh, 0)

    def test_coincident_vertices_are_degenerate(self):
        # three node ids at one point: det = h = 0 meets the bound exactly
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] + [[0.5, 0.5]] * 3)
        mesh = SimplexMesh(nodes, [[0, 1, 2], [3, 4, 5]],
                           np.zeros((0, 2), dtype=int),
                           np.zeros(0, dtype=int), [])
        with pytest.raises(DegenerateElement, match=r"\[1\]"):
            mesh.gradients
        with pytest.raises(DegenerateElement):
            element_jacobian(mesh, 1)
        assert element_jacobian(mesh, 0)[1] == 1.0
        assert any("1 element(s)" in p and "degenerate" in p
                   for p in validate_mesh(mesh))


class TestMeasures:
    def test_unit_reference_measures(self):
        assert element_measure(reference_simplex_mesh(3), 0) == pytest.approx(1 / 6)
        assert element_measure(reference_simplex_mesh(4), 0) == pytest.approx(1 / 24)

    def test_flat_extrusion_volume_identity(self):
        spatial = box2d(3, 3)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 4))
        assert st.total_measure == pytest.approx(1.0, rel=1e-12)


class TestBasis:
    def test_vertex_values(self):
        for dim in (2, 3, 4):
            vals = basis_eval(np.zeros(dim), dim)
            expect = np.zeros(dim + 1)
            expect[0] = 1.0
            assert np.allclose(vals, expect)

    def test_barycenter_symmetry(self):
        for dim in (2, 3, 4):
            vals = basis_eval(np.full(dim, 1.0 / (dim + 1)), dim)
            assert np.allclose(vals, 1.0 / (dim + 1))

    def test_direct_evaluation_4d(self):
        vals = basis_eval([0.1, 0.2, 0.3, 0.2], 4)
        assert np.allclose(vals, [0.2, 0.1, 0.2, 0.3, 0.2])

    def test_partition_of_unity_random(self, rng):
        for dim in (3, 4):
            xi = rng.dirichlet(np.ones(dim + 1), size=10000)[:, :dim]
            vals = basis_eval(xi, dim)
            assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-14

    def test_outside_reference_flagged(self):
        assert not in_reference(np.array([1.2, 0.0, 0.0]))
        assert in_reference(np.array([0.2, 0.2, 0.2]))


class TestGradients:
    def test_reference_tetrahedron(self):
        mesh = reference_simplex_mesh(3)
        g = basis_gradients(mesh, 0)
        assert np.allclose(g[0], [-1, -1, -1])
        assert np.allclose(g[1:], np.eye(3))

    def test_scaling_halves_gradients(self):
        base = reference_simplex_mesh(3)
        scaled = SimplexMesh(2.0 * base.nodes, base.elements,
                             base.boundary_facets, base.boundary_tags,
                             ["b"], fix_orientation=False)
        assert np.allclose(basis_gradients(scaled, 0),
                           0.5 * basis_gradients(base, 0))

    def test_kronecker_reproduction_random_pentatope(self, rng):
        X = random_simplex(rng, 4)
        mesh = SimplexMesh(X, [[0, 1, 2, 3, 4]], np.zeros((0, 4), dtype=int),
                           np.zeros(0, dtype=int), [], fix_orientation=False)
        g = basis_gradients(mesh, 0)
        X0 = mesh.element_coords[0]
        # affine form N_k(x) = N_k(x0) + g_k . (x - x0) must hit delta_kj
        N_at_nodes = np.empty((5, 5))
        for j in range(5):
            N_at_nodes[:, j] = basis_eval(np.zeros(4), 4) + g @ (X0[j] - X0[0])
        assert np.allclose(N_at_nodes, np.eye(5), atol=1e-12)

    def test_gradient_sum_zero(self, rng):
        for dim in (3, 4):
            X = random_simplex(rng, dim)
            mesh = SimplexMesh(X, [list(range(dim + 1))],
                               np.zeros((0, dim), dtype=int),
                               np.zeros(0, dtype=int), [],
                               fix_orientation=False)
            g = basis_gradients(mesh, 0)
            assert np.abs(g.sum(axis=0)).max() < 1e-12

    def test_jacobian_invs_are_inverse_jacobians(self, small_st_mesh_3d):
        mesh = small_st_mesh_3d
        Jl = jacobians_last(mesh.element_coords)
        J = np.moveaxis(Jl, -1, 0)
        adj = np.empty_like(Jl)
        det = cofactor_det(Jl, adj)
        assert np.array_equal(mesh.jacobian_dets, det)
        assert np.array_equal(mesh.jacobian_invs,
                              np.moveaxis(adj / det, -1, 0))
        ref = np.linalg.inv(J)
        scale = np.abs(ref).max(axis=(1, 2))
        err = np.abs(mesh.jacobian_invs - ref).max(axis=(1, 2))
        assert (err <= 4 * np.finfo(float).eps * np.linalg.cond(J)
                * scale).all()
        # an oracle independent of both: the exact inverse of each float J,
        # which every entry matches within 2 ulps of the element's largest
        for inv, Je in zip(mesh.jacobian_invs, J):
            exact = exact_inverse(Je)
            top = max(abs(v) for row in exact for v in row)
            for got, want in zip(inv.ravel(), sum(exact, [])):
                assert abs(Fraction(float(got)) - want) <= (
                    2 * Fraction(np.finfo(float).eps) * top)
        assert np.array_equal(mesh.gradients[:, 0],
                              -mesh.jacobian_invs.sum(axis=1))

    def test_degenerate_mesh_raises_before_any_inverse(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1e-17]])
        mesh = SimplexMesh(nodes, [[0, 1, 2], [0, 1, 3]],
                           np.zeros((0, 2), dtype=int),
                           np.zeros(0, dtype=int), [], fix_orientation=False)
        with pytest.raises(DegenerateElement, match=r"\[1\]"):
            mesh.gradients
        assert "gradients" not in vars(mesh)
        assert mesh.jacobian_dets[0] == 1.0
        assert any("degenerate" in p for p in validate_mesh(mesh))

    def test_linear_reproduction_at_barycenters(self, rng):
        mesh = box2d(3, 3)
        a = np.array([0.7, -1.3])
        f = mesh.nodes @ a + 0.25
        vals = f[mesh.elements].mean(axis=1)
        exact = mesh.barycenters @ a + 0.25
        assert np.abs(vals - exact).max() < 1e-12


class TestCofactorDet:
    """The closed-form determinant and inverse against LAPACK's, on random
    Jacobians over forty decades of scale, in both orientations."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("flip", [False, True])
    def test_against_lapack(self, dim, flip, rng):
        n = 2000
        J = rng.uniform(-1, 1, size=(n, dim, dim)) * np.exp(
            rng.uniform(-20, 20, size=(n, 1, 1)))
        if flip:      # swap the last two columns: det changes sign
            J = J[:, :, list(range(dim - 2)) + [dim - 1, dim - 2]]
        Jl = np.ascontiguousarray(np.moveaxis(J, 0, -1))
        adj = np.empty_like(Jl)
        det = cofactor_det(Jl, adj)
        assert np.array_equal(cofactor_det(Jl), det)
        inv = np.moveaxis(adj / det, -1, 0)
        eps = np.finfo(float).eps
        cond = np.linalg.cond(J)
        ref_det = np.linalg.det(J)
        assert (np.abs(det - ref_det)
                <= 16 * dim * eps * cond * np.abs(ref_det)).all()
        ref = np.linalg.inv(J)
        scale = np.abs(ref).max(axis=(1, 2))
        assert (np.abs(inv - ref).max(axis=(1, 2))
                <= 4 * eps * cond * scale).all()

    def test_signs_follow_orientation(self, rng):
        for dim in (2, 3, 4):
            X = rng.uniform(-1, 1, size=(50, dim + 1, dim))
            det = cofactor_det(jacobians_last(X))
            swapped = cofactor_det(jacobians_last(X[:, [0] + list(
                range(dim, 0, -1))]))
            flips = dim // 2      # transpositions reversing dim vertices
            assert np.allclose(swapped, (-1) ** flips * det, rtol=1e-12,
                               atol=0)

    def test_other_sizes_rejected(self):
        with pytest.raises(ValueError):
            cofactor_det(np.ones((5, 5, 3)))


def max_edge_lengths_by_node_pair(X):
    """The longest edge of each simplex, one strided (E, dim) node pair at a
    time: the loop ``SimplexMesh.max_edge_lengths`` replaces."""
    h = np.zeros(len(X))
    for i in range(X.shape[1]):
        for j in range(i + 1, X.shape[1]):
            np.maximum(h, np.linalg.norm(X[:, i, :] - X[:, j, :], axis=1),
                       out=h)
    return h


class TestMaxEdgeLengths:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_equals_node_pair_loop(self, dim, rng):
        n = 500
        X = rng.uniform(-1, 1, size=(n, dim + 1, dim)) * np.exp(
            rng.uniform(-20, 20, size=(n, 1, 1)))
        elements = np.arange(n * (dim + 1)).reshape(n, dim + 1)
        mesh = SimplexMesh(X.reshape(-1, dim), elements,
                           np.zeros((0, dim), dtype=int),
                           np.zeros(0, dtype=int), [], fix_orientation=False)
        assert np.array_equal(mesh.max_edge_lengths,
                              max_edge_lengths_by_node_pair(X))

    def test_equals_node_pair_loop_on_space_time_mesh(self, small_st_mesh_3d):
        assert np.array_equal(
            small_st_mesh_3d.max_edge_lengths,
            max_edge_lengths_by_node_pair(small_st_mesh_3d.element_coords))


class TestLocalToGlobal:
    def test_vertices_and_barycenter(self, rng):
        X = random_simplex(rng, 3)
        mesh = SimplexMesh(X, [[0, 1, 2, 3]], np.zeros((0, 3), dtype=int),
                           np.zeros(0, dtype=int), [], fix_orientation=False)
        X0 = mesh.element_coords[0]
        assert np.allclose(map_local_to_global(mesh, 0, np.zeros(3)), X0[0])
        for d in range(3):
            assert np.allclose(map_local_to_global(mesh, 0, np.eye(3)[d]),
                               X0[d + 1])
        bary = map_local_to_global(mesh, 0, np.full(3, 0.25))
        assert np.allclose(bary, X0.mean(axis=0))


class TestClassifyBoundary:
    def test_flat_extrusion_counts(self):
        spatial = box2d(3, 3)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 1))
        bottom, top, mantle = classify_boundary(st, 0.0, 1.0)
        assert len(bottom) == spatial.n_elements
        assert len(top) == spatial.n_elements
        assert len(mantle) == len(spatial.boundary_facets) * 2

    def test_twisted_extrusion_same_counts(self):
        spatial = box2d(3, 3)
        traj = NodeTrajectory("rigid_rotation", (0.5, 0.5), omega=0.3)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2, traj))
        bottom, top, mantle = classify_boundary(st, 0.0, 1.0)
        assert len(bottom) == spatial.n_elements
        assert len(top) == spatial.n_elements
        assert len(mantle) == len(spatial.boundary_facets) * 2 * 2

    def test_zero_tolerance_matches_default(self):
        spatial = box2d(2, 2)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2))
        strict = classify_boundary(st, 0.0, 1.0, tol=0.0)
        loose = classify_boundary(st, 0.0, 1.0, tol=1e-12)
        for a, b in zip(strict, loose):
            assert np.array_equal(a, b)

    def test_classification_matches_construction(self, small_st_mesh_2d):
        st = small_st_mesh_2d
        bottom, top, mantle = classify_boundary(st, st.t0, st.tN)
        assert np.array_equal(np.sort(bottom), np.sort(st.bottom_facets))
        assert np.array_equal(np.sort(top), np.sort(st.top_facets))
        assert np.array_equal(np.sort(mantle), np.sort(st.mantle_facets))

    def test_mixed_caps_zero_extent_facet_rejected(self):
        from ustflow.errors import MeshTopologyError
        # a facet joining t0 and tN nodes with no spatial extent is bogus
        nodes = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.5],
                          [2.0, 0.0, 0.2], [2.0, 1.0, 0.3], [3.0, 0.0, 0.8],
                          [2.5, 0.5, 0.0]])
        mesh = SimplexMesh(nodes, [[3, 4, 5, 6]],
                           np.array([[0, 1, 2]]), np.array([0]), ["x"],
                           fix_orientation=False)
        with pytest.raises(MeshTopologyError):
            classify_boundary(mesh, 0.0, 1.0)


class TestTimeLevels:
    def test_groups_within_tolerance_in_any_order(self):
        times = np.array([0.5, 0.0, 1.0, 0.5 + 1e-14, 1e-13, 0.5])
        levels, heads = time_levels(times)
        assert levels.tolist() == [1, 0, 2, 1, 0, 1]
        assert heads.tolist() == [1, 0, 2]  # first of each level by time

    def test_tolerance_measured_from_first_time_of_level(self):
        # 1.2e-12 is within 1e-12 of its neighbour but not of 0.0
        levels, _ = time_levels(np.array([0.0, 0.6e-12, 1.2e-12]))
        assert levels.tolist() == [0, 0, 1]


class TestValidateMesh:
    def test_valid_box(self):
        assert validate_mesh(box2d(4, 3)) == []

    def test_extruded_meshes_valid(self, small_st_mesh_2d, small_st_mesh_3d):
        assert validate_mesh(small_st_mesh_2d) == []
        assert validate_mesh(small_st_mesh_3d) == []

    def test_missing_boundary_facet_detected(self):
        mesh = box2d(2, 2)
        bad = SimplexMesh(mesh.nodes, mesh.elements,
                          mesh.boundary_facets[:-1], mesh.boundary_tags[:-1],
                          mesh.tag_names)
        assert any("not listed" in p for p in validate_mesh(bad))

    def test_interior_facet_listed_detected(self):
        mesh = box2d(2, 2)
        # triangle (a, b, c) / (a, c, d) pairs share the diagonal (a, c)
        interior = np.array([[mesh.elements[0][0], mesh.elements[0][2]]])
        bad = SimplexMesh(mesh.nodes, mesh.elements,
                          np.vstack([mesh.boundary_facets, interior]),
                          np.append(mesh.boundary_tags, 0), mesh.tag_names)
        problems = validate_mesh(bad)
        assert problems

    def test_orientation_fix_applied(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = SimplexMesh(nodes, [[0, 2, 1]], np.zeros((0, 2), dtype=int),
                           np.zeros(0, dtype=int), [])
        assert mesh.jacobian_dets[0] > 0

    @pytest.mark.parametrize("mesh_name", ["small_st_mesh_2d",
                                           "small_st_mesh_3d"])
    def test_fix_keeps_dets_of_fixed_elements(self, mesh_name, request):
        mesh = request.getfixturevalue(mesh_name)
        els = mesh.elements.copy()
        els[::2, :2] = els[::2, 1::-1]  # flip every other element
        fixed = SimplexMesh(mesh.nodes, els, mesh.boundary_facets,
                            mesh.boundary_tags, mesh.tag_names)
        assert np.array_equal(fixed.elements[1::2], mesh.elements[1::2])
        assert not np.array_equal(fixed.elements[::2], mesh.elements[::2])
        assert np.array_equal(fixed.jacobian_dets,
                              _det_of(fixed.nodes, fixed.elements))
        assert (fixed.jacobian_dets > 0).all()
