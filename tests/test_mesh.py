from fractions import Fraction

import numpy as np
import pytest

import ustflow.mesh as mesh_module
from ustflow.errors import DegenerateElement, MeshTopologyError
from ustflow.extrude import ExtrusionSpec, NodeTrajectory, extrude_simplex_st
from ustflow.geometry import box2d, box3d, disk2d
from ustflow.mesh import (SimplexMesh, _det_of, basis_eval, basis_gradients,
                          classify_boundary, cofactor_det, element_jacobian,
                          element_measure, in_reference, jacobians_last,
                          map_local_to_global, require_element_facets,
                          time_levels, validate_mesh)
from ustflow.scenarios import make_stirrer2d, make_stirrer3d

from conftest import copy_mesh, random_simplex


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
        exact = mesh.element_coords.mean(axis=1) @ a + 0.25
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
        # level 0's bytes; the other level takes them, within rounding
        mesh = small_st_mesh_3d
        n_per = mesh.level_stack.n_per
        assert 2 * n_per == mesh.n_elements
        got = mesh.max_edge_lengths
        want = max_edge_lengths_by_node_pair(mesh.element_coords)
        assert got[:n_per].tobytes() == want[:n_per].tobytes()
        assert np.abs(got - want).max() <= 1e-13 * want.max()


def stack_mesh(name, levels):
    """A twisted 2D or 3D extrusion or a static 2D one through ``levels``
    levels."""
    if name == "disk2d":
        traj = NodeTrajectory((0.1, -0.2), omega=0.7)
        return extrude_simplex_st(disk2d(1.0, 2, 10),
                                  ExtrusionSpec(0.0, 0.3, levels, traj))
    if name == "box3d":
        traj = NodeTrajectory((0.5, 0.4, 0.5), axis=(1.0, 2.0, 3.0), omega=0.8)
        return extrude_simplex_st(box3d(1, 1, 1),
                                  ExtrusionSpec(0.1, 0.4, levels, traj))
    return extrude_simplex_st(box2d(3, 2), ExtrusionSpec(0.0, 0.4, levels))


def counted_det_of(monkeypatch):
    """The element counts of every ``_det_of`` call from now on."""
    det_of, calls = mesh_module._det_of, []

    def counted(nodes, elements):
        calls.append(len(elements))
        return det_of(nodes, elements)

    monkeypatch.setattr(mesh_module, "_det_of", counted)
    return calls


class TestLevelGeometry:
    """A stacked mesh takes the determinants, the orientation fix and the
    longest edges of level 0 for every level."""

    @pytest.mark.parametrize("name,levels", [
        ("disk2d", 1), ("disk2d", 2), ("disk2d", 3), ("disk2d", 17),
        ("box3d", 3), ("static", 3)])
    def test_level0_geometry_repeats(self, name, levels, monkeypatch):
        made = stack_mesh(name, levels)
        calls = counted_det_of(monkeypatch)
        mesh = copy_mesh(made)
        stack = mesh.level_stack
        n_per, rotations = stack.n_per, stack.rotations
        assert len(rotations) == (levels if levels > 1 else 1)
        assert n_per * len(rotations) == mesh.n_elements
        assert calls == [n_per]
        own_det = _det_of(mesh.nodes, mesh.elements)
        own_h = max_edge_lengths_by_node_pair(mesh.element_coords)
        for got, want in ((mesh.jacobian_dets, own_det),
                          (mesh.max_edge_lengths, own_h)):
            assert got[:n_per].tobytes() == want[:n_per].tobytes()
            assert np.array_equal(np.sign(got), np.sign(want))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            # every level has level 0's bytes
            assert np.array_equal(got.reshape(-1, n_per),
                                  np.tile(got[:n_per], (len(rotations), 1)))
        assert mesh.jacobian_dets.tobytes() == made.jacobian_dets.tobytes()

    @pytest.mark.parametrize("name", ["disk2d", "box3d"])
    def test_reversed_elements_fixed_as_a_whole_mesh(self, name):
        made = stack_mesh(name, 3)
        n_per = made.level_stack.n_per
        els = made.elements.reshape(3, n_per, -1).copy()
        els[:, ::3, :2] = els[:, ::3, 1::-1]  # the same elements every level
        els = els.reshape(made.elements.shape)
        mesh = copy_mesh(made, elements=els)
        whole = SimplexMesh(made.nodes, els, made.boundary_facets,
                            made.boundary_tags, made.tag_names)
        assert mesh.level_stack.n_per == n_per
        assert not np.array_equal(els, whole.elements)
        assert np.array_equal(mesh.elements, whole.elements)
        got, want = mesh.jacobian_dets, whole.jacobian_dets
        assert got[:n_per].tobytes() == want[:n_per].tobytes()
        assert (got > 0).all()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_perturbed_level_is_one_level(self, monkeypatch):
        made = stack_mesh("disk2d", 3)
        n_sp = made.n_nodes // 4
        nodes = made.nodes.copy()
        nodes[2 * n_sp:3 * n_sp, 0] += 1e-9
        calls = counted_det_of(monkeypatch)
        mesh = copy_mesh(made, nodes=nodes)
        assert mesh.level_stack.n_per == mesh.n_elements
        assert calls == [mesh.n_elements]
        assert mesh.jacobian_dets.tobytes() == _det_of(
            nodes, mesh.elements).tobytes()
        assert mesh.max_edge_lengths.tobytes() == (
            max_edge_lengths_by_node_pair(mesh.element_coords).tobytes())


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
        traj = NodeTrajectory((0.5, 0.5), omega=0.3)
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


def broken_box(how):
    """box2d(2, 2), elements [[0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2],
    [3, 6, 7], [3, 7, 4], [4, 7, 8], [4, 8, 5]], broken one way."""
    mesh = box2d(2, 2)
    nodes, elements = mesh.nodes, mesh.elements
    facets, tags = mesh.boundary_facets, mesh.boundary_tags
    if how == "missing":
        facets, tags = facets[:-1], tags[:-1]
    elif how in ("interior", "duplicate", "unknown"):
        # (0, 4) is the diagonal of elements 0 and 1; (0, 8) joins corners
        extra = {"interior": [0, 4], "duplicate": facets[0],
                 "unknown": [0, 8]}[how]
        facets, tags = np.vstack([facets, extra]), np.append(tags, tags[0])
    elif how == "none":
        facets, tags = facets[:0], tags[:0]
    elif how == "three":
        nodes = np.vstack([nodes, [0.7, 0.2]])
        elements = np.vstack([elements, [0, 4, 9]])
    elif how == "repeated":
        elements = np.vstack([elements, [0, 0, 4]])
    return SimplexMesh(nodes, elements, facets, tags, mesh.tag_names)


# validate_mesh's list for each broken_box
BROKEN_BOX_PROBLEMS = {
    "missing": ["1 element facet(s) on the boundary but not listed"],
    "interior": ["1 boundary facet(s) listed but interior or unknown",
                 "1 listed boundary facet(s) in excess of the true boundary"],
    "duplicate": ["duplicate boundary facet listed",
                  "1 listed boundary facet(s) in excess of the true boundary"],
    "unknown": ["1 boundary facet(s) listed but interior or unknown",
                "1 listed boundary facet(s) in excess of the true boundary"],
    "none": ["8 element facet(s) on the boundary but not listed"],
    "three": ["facet shared by more than two elements",
              "2 element facet(s) on the boundary but not listed"],
    "repeated": ["element with repeated node ids",
                 "1 element(s) with non-positive/degenerate measure",
                 "facet shared by more than two elements",
                 "1 element facet(s) on the boundary but not listed"],
}


class TestValidateMesh:
    def test_valid_box(self):
        assert validate_mesh(box2d(4, 3)) == []
        assert validate_mesh(box3d(2, 2, 1)) == []

    @pytest.mark.parametrize("how", BROKEN_BOX_PROBLEMS)
    def test_broken_mesh_problems(self, how):
        assert validate_mesh(broken_box(how)) == BROKEN_BOX_PROBLEMS[how]

    @pytest.mark.parametrize("make", [make_stirrer2d, make_stirrer3d],
                             ids=["stirrer2d", "stirrer3d"])
    def test_fixtures_and_extrusions_valid(self, make):
        spec = make()
        assert validate_mesh(spec.mesh) == []
        assert validate_mesh(spec.ust_mesh()) == []

    def test_require_element_facets(self):
        mesh = box2d(2, 2)
        require_element_facets(mesh.elements, np.array([[0, 4], [3, 4]]))
        require_element_facets(mesh.elements, np.zeros((0, 2), dtype=int))
        with pytest.raises(MeshTopologyError, match="not a facet of any"):
            require_element_facets(mesh.elements, np.array([[0, 4], [0, 8]]))

    @pytest.mark.parametrize("node", [9, -1])
    def test_facet_node_id_out_of_range(self, node):
        mesh = box2d(2, 2)
        facets = mesh.boundary_facets.copy()
        facets[0, 0] = node
        with pytest.raises(MeshTopologyError, match="node id out of range"):
            SimplexMesh(mesh.nodes, mesh.elements, facets,
                        mesh.boundary_tags, mesh.tag_names)

    def test_extruded_meshes_valid(self, small_st_mesh_2d, small_st_mesh_3d):
        assert validate_mesh(small_st_mesh_2d) == []
        assert validate_mesh(small_st_mesh_3d) == []

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
