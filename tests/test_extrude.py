import logging
import math

import numpy as np
import pytest

import ustflow.extrude as extrude_module
import ustflow.mesh as mesh_module
from ustflow.errors import InvertedElement, MeshTopologyError
from ustflow.extrude import (ExtrusionSpec, NodeTrajectory, decompose_prism,
                             extrude_simplex_st, max_admissible_twist,
                             rigid_rotation_positions, rotation_matrix)
from ustflow.geometry import box2d, box3d, disk2d
from ustflow.mesh import SimplexMesh, validate_mesh
from ustflow.scenarios import STIRRER_DT, make_stirrer2d, make_stirrer3d

from conftest import single_triangle_mesh


def simplex_volume(nodes):
    J = (nodes[1:] - nodes[0]).T
    return abs(np.linalg.det(J)) / math.factorial(len(nodes) - 1)


class TestDecomposePrism:
    def test_sorted_path_rule_triangle(self):
        tets = decompose_prism([0, 1, 2], [10, 11, 12])
        assert set(map(frozenset, tets)) == {
            frozenset({0, 1, 2, 12}), frozenset({0, 1, 11, 12}),
            frozenset({0, 10, 11, 12})}

    def test_unsorted_input_follows_global_order(self):
        tets = decompose_prism([2, 0, 1], [12, 10, 11])
        assert set(map(frozenset, tets)) == {
            frozenset({0, 1, 2, 12}), frozenset({0, 1, 11, 12}),
            frozenset({0, 10, 11, 12})}

    def test_triangle_prism_volume_sum(self, rng):
        tri = rng.uniform(-1, 1, size=(3, 2))
        area = simplex_volume(tri)
        dt = 0.3
        coords = {i: np.append(tri[i], 0.0) for i in range(3)}
        coords.update({10 + i: np.append(tri[i], dt) for i in range(3)})
        tets = decompose_prism([0, 1, 2], [10, 11, 12])
        vol = sum(simplex_volume(np.array([coords[i] for i in tet]))
                  for tet in tets)
        assert vol == pytest.approx(area * dt, rel=1e-12)

    def test_tet_prism_four_pentatopes(self, rng):
        tet = rng.uniform(-1, 1, size=(4, 3))
        vol3 = simplex_volume(tet)
        dt = 0.25
        coords = {i: np.append(tet[i], 0.0) for i in range(4)}
        coords.update({10 + i: np.append(tet[i], dt) for i in range(4)})
        pents = decompose_prism([0, 1, 2, 3], [10, 11, 12, 13])
        assert len(pents) == 4
        vol4 = sum(simplex_volume(np.array([coords[i] for i in p]))
                   for p in pents)
        assert vol4 == pytest.approx(vol3 * dt, rel=1e-12)

    def test_shared_face_diagonal_agrees(self):
        # two triangles sharing edge (1, 2): their prisms must split the
        # shared quadrilateral side face along the same diagonal
        tets_a = decompose_prism([0, 1, 2], [10, 11, 12])
        tets_b = decompose_prism([1, 2, 3], [11, 12, 13])

        def quad_faces(tets, quad_nodes):
            faces = set()
            for tet in tets:
                for omit in range(4):
                    face = frozenset(v for k, v in enumerate(tet) if k != omit)
                    if face <= quad_nodes:
                        faces.add(face)
            return faces

        quad = frozenset({1, 2, 11, 12})
        assert quad_faces(tets_a, quad) == quad_faces(tets_b, quad)


class TestExtrusion:
    def test_non_integer_level_count_rejected(self):
        with pytest.raises(ValueError,
                           match="n_levels must be an integer, got 2.5"):
            ExtrusionSpec(0.0, 1.0, 2.5)
        assert ExtrusionSpec(0.0, 1.0, np.int64(2)).level_times.tolist() == [
            0.0, 0.5, 1.0]

    def test_one_triangle_flat(self):
        spatial = single_triangle_mesh()
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.5, 1))
        assert st.n_elements == 3
        assert st.n_nodes == 6
        assert st.total_measure == pytest.approx(0.5 * 0.5, rel=1e-12)

    def test_count_identity(self):
        spatial = box2d(4, 3)
        L = 5
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, L))
        assert st.n_elements == spatial.n_elements * L * 3
        assert st.n_nodes == spatial.n_nodes * (L + 1)

    def test_count_identity_3d(self):
        spatial = box3d(1, 1, 1)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2))
        assert st.n_elements == spatial.n_elements * 2 * 4

    def test_paper_count_arithmetic(self):
        # published element counts follow the same identity
        assert 4502 * 17 * 3 == 229602
        assert 24608 * 17 * 4 == 1673344

    def test_mantle_tags_inherited(self):
        spatial = box2d(2, 2)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2))
        mantle_tags = {st.tag_names[t]
                       for t in st.boundary_tags[st.mantle_facets]}
        assert mantle_tags == {"x0", "x1", "y0", "y1"}

    def test_conforming_flat_and_twisted(self):
        spatial = disk2d(1.0, 3, 12)
        flat = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2))
        assert validate_mesh(flat) == []
        assert flat.total_measure == pytest.approx(spatial.total_measure,
                                                   rel=1e-12)
        traj = NodeTrajectory((0.0, 0.0), omega=0.4)
        twisted = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2, traj))
        assert validate_mesh(twisted) == []
        # the twisted discrete domain loses a first-order-in-twist sliver
        # along the polygonal boundary; it stays close to, and below, the
        # flat volume
        assert 0.9 * flat.total_measure < twisted.total_measure <= flat.total_measure

    def test_conforming_twisted_3d(self):
        spatial = box3d(1, 1, 1, lx=0.5, ly=0.5)
        traj = NodeTrajectory((0.25, 0.25, 0.0), (0.0, 0.0, 1.0), omega=0.3)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.4, 2, traj))
        assert validate_mesh(st) == []

    @pytest.mark.parametrize("n_sd", [2, 3])
    def test_orientation_equals_constructor_fix(self, n_sd):
        # the sign rule orients each path simplex as the constructor's fix
        # would, also over spatial elements of either orientation
        if n_sd == 2:
            spatial = disk2d(1.0, 3, 12)
            traj = NodeTrajectory((0.0, 0.0), omega=0.4)
        else:
            spatial = box3d(2, 2, 1, lx=0.5, ly=0.5)
            traj = NodeTrajectory((0.25, 0.25, 0.0),
                                  (0.0, 0.0, 1.0), omega=0.3)
        els = spatial.elements.copy()
        els[::2, :2] = els[::2, 1::-1]
        spatial = SimplexMesh(spatial.nodes, els, spatial.boundary_facets,
                              spatial.boundary_tags, spatial.tag_names,
                              fix_orientation=False)
        assert (spatial.jacobian_dets[::2] < 0).all()
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.4, 3, traj))
        n = spatial.n_nodes
        path = [s for lev in range(3) for el in spatial.elements
                for s in decompose_prism(el + lev * n, el + (lev + 1) * n)]
        fixed = SimplexMesh(st.nodes, path, st.boundary_facets,
                            st.boundary_tags, st.tag_names)
        assert not np.array_equal(np.asarray(path), fixed.elements)
        assert np.array_equal(st.elements, fixed.elements)
        # level 0's determinants are the fixed mesh's; every later level
        # takes them, which moves its own by rounding only, with no sign
        n_per = st.level_stack.n_per
        assert n_per * 3 == st.n_elements
        got, want = st.jacobian_dets, fixed.jacobian_dets
        assert got[:n_per].tobytes() == want[:n_per].tobytes()
        assert np.array_equal(np.sign(got), np.sign(want))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_one_determinant_pass_through_first_system(self, monkeypatch):
        spec = make_stirrer2d(levels=2)
        det_of, calls = mesh_module._det_of, []

        def counted(nodes, elements):
            calls.append(len(elements))
            return det_of(nodes, elements)

        monkeypatch.setattr(mesh_module, "_det_of", counted)
        st = spec.ust_mesh()
        problem = spec.problem(st)
        problem.system(problem.initial_guess())
        n_per = st.level_stack.n_per
        assert 2 * n_per == st.n_elements
        assert calls == [n_per]

    @pytest.mark.parametrize("levels,stack", [(1, "one-level"),
                                              (3, "found")])
    def test_logs_one_line(self, levels, stack, caplog):
        spatial = disk2d(1.0, 2, 8)
        traj = NodeTrajectory((0.0, 0.0), omega=0.5)
        with caplog.at_level(logging.INFO, logger="ustflow"):
            st = extrude_simplex_st(spatial,
                                    ExtrusionSpec(0.0, 0.3, levels, traj))
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("extrude ")]
        assert len(lines) == 1
        n_per = st.n_elements // levels if levels > 1 else st.n_elements
        assert lines[0].startswith(
            f"extrude levels={levels} n_per={n_per} "
            f"elements={st.n_elements} stack={stack} s=")

    def test_inverted_element_raises(self):
        spatial = disk2d(1.0, 2, 8)
        traj = NodeTrajectory((0.0, 0.0), omega=40.0)
        with pytest.raises(InvertedElement):
            extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 1, traj))

    def test_inverted_pentatope_raises(self):
        spatial = box3d(2, 2, 1, lx=2.0, ly=2.0)
        traj = NodeTrajectory((1.0, 1.0, 0.0), (0.0, 0.0, 1.0), omega=5.0)
        with pytest.raises(InvertedElement) as err:
            extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2, traj))
        assert err.value.level == 0

    @pytest.mark.parametrize("levels", [1, 3])
    def test_inverted_element_is_the_whole_mesh_check_s_first(
            self, levels, monkeypatch):
        """A found stack checks level 0 alone and a one-level mesh every
        element; both raise for the first element that a check of the
        whole mesh flags."""
        spatial = disk2d(1.0, 2, 8)
        traj = NodeTrajectory((0.0, 0.0), omega=40.0)
        spec = ExtrusionSpec(0.0, 1.0 * levels, levels, traj)
        checked = []
        real = extrude_module.degenerate

        def spy(det, h, dim):
            checked.append(len(det))
            return real(det, h, dim)

        monkeypatch.setattr(extrude_module, "degenerate", spy)
        with pytest.raises(InvertedElement) as err:
            extrude_simplex_st(spatial, spec)
        # the mesh as built, unchecked, and the check of all its elements
        monkeypatch.setattr(extrude_module, "degenerate",
                            lambda det, h, dim: np.zeros(len(det), bool))
        mesh = extrude_simplex_st(spatial, spec)
        first = np.flatnonzero(real(mesh.jacobian_dets, mesh.max_edge_lengths,
                                    mesh.dim))[0]
        n_path = mesh.n_elements // levels
        assert checked == [n_path]
        assert (err.value.element, err.value.level) == (first, first // n_path)

    @pytest.mark.parametrize("n_sd", [2, 3])
    def test_non_element_boundary_facet_raises(self, n_sd):
        # the first and last nodes are opposite corners of the box, so no
        # element has a facet through both
        spatial = box2d(2, 2) if n_sd == 2 else box3d(2, 1, 1)
        assert validate_mesh(spatial) == []
        stray = [0, spatial.n_nodes - 1, 1][:n_sd]
        bad = SimplexMesh(spatial.nodes, spatial.elements,
                          np.vstack([spatial.boundary_facets, stray]),
                          np.append(spatial.boundary_tags, 0),
                          spatial.tag_names)
        with pytest.raises(MeshTopologyError, match="not a facet of any"):
            extrude_simplex_st(bad, ExtrusionSpec(0.0, 1.0, 2))
        with pytest.raises(MeshTopologyError, match="not a facet of any"):
            max_admissible_twist(bad, NodeTrajectory(omega=1.0))

    def test_twist_continuity_linear_in_omega(self):
        spatial = disk2d(1.0, 2, 8)
        flat = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2))
        deltas = []
        for omega in (1e-3, 1e-6):
            traj = NodeTrajectory((0.0, 0.0), omega=omega)
            tw = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2, traj))
            deltas.append(np.abs(tw.nodes - flat.nodes).max())
        assert deltas[0] == pytest.approx(1e3 * deltas[1], rel=1e-2)


class TestRigidRotation:
    def test_identity_at_t0(self, rng):
        pts = rng.uniform(-1, 1, size=(10, 2))
        traj = NodeTrajectory((0.3, -0.2), omega=2.0)
        assert np.allclose(rigid_rotation_positions(pts, traj, 0.0), pts)

    def test_half_turn(self):
        traj = NodeTrajectory((0.0, 0.0), omega=math.pi)
        out = rigid_rotation_positions(np.array([[1.0, 0.0]]), traj, 1.0)
        assert np.allclose(out, [[-1.0, 0.0]], atol=1e-15)

    def test_isometry(self, rng):
        pts = rng.uniform(-2, 2, size=(20, 3))
        traj = NodeTrajectory((0.1, 0.2, 0.0), (0.0, 0.0, 1.0), omega=0.7)
        out = rigid_rotation_positions(pts, traj, 1.3)
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(out[:, None] - out[None, :], axis=2)
        assert np.abs(d0 - d1).max() < 1e-12

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0),
                                      (float("nan"), 0.0, 1.0),
                                      (float("inf"), 0.0, 0.0)])
    def test_zero_or_non_finite_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="rotation axis"):
            NodeTrajectory((0.0, 0.0, 0.0), axis, omega=1.0)

    def test_rotation_matrix_3d_axis(self):
        R = rotation_matrix(3, (0.0, 0.0, 1.0), math.pi / 2)
        assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-15)


class TestMaxAdmissibleTwist:
    def test_static_returns_inf(self):
        spatial = box2d(2, 2)
        assert max_admissible_twist(spatial, NodeTrajectory()) == math.inf

    def test_bound_is_admissible_and_sharp(self):
        spatial = disk2d(1.0, 2, 8)
        traj = NodeTrajectory((0.0, 0.0), omega=1.0)
        dt = max_admissible_twist(spatial, traj)
        extrude_simplex_st(spatial, ExtrusionSpec(0.0, dt, 1, traj))
        with pytest.raises(InvertedElement):
            extrude_simplex_st(spatial, ExtrusionSpec(0.0, dt * 1.05, 1, traj))

    @pytest.mark.parametrize("make, bound, element", [
        (None, 0.67724609375, 70),
        (make_stirrer2d, 0.0017240625, 124),
        (make_stirrer3d, 0.00203625, 470),
    ], ids=["disk2d", "stirrer2d", "stirrer3d"])
    def test_bounds_without_space_time_mesh(self, make, bound, element,
                                            caplog, monkeypatch):
        """The bounds of the fixtures at their slab dt, found with no
        ``extrude`` record and one facet check; a sweep a little past the
        bound, over two levels, names the first inverted element of level
        0."""
        if make is None:
            spatial, traj = disk2d(1.0, 2, 8), NodeTrajectory(omega=1.0)
            dt_hi = 1.0
        else:
            spec = make()
            spatial, traj, dt_hi = spec.mesh, spec.trajectory, STIRRER_DT
        checks = []

        def check(*args):
            checks.append(args)
            return mesh_module.require_element_facets(*args)

        with monkeypatch.context() as m:
            m.setattr(extrude_module, "require_element_facets", check)
            with caplog.at_level(logging.INFO, logger="ustflow"):
                assert max_admissible_twist(spatial, traj,
                                            dt_hi=dt_hi) == bound
        assert len(checks) == 1
        assert not [r for r in caplog.records
                    if r.getMessage().startswith("extrude")]
        dt = 1.05 * bound
        with pytest.raises(InvertedElement) as err:
            extrude_simplex_st(spatial, ExtrusionSpec(0.0, 2 * dt, 2, traj))
        assert (err.value.element, err.value.level) == (element, 0)


class TestExtrudeSpatial:
    def test_box3d_counts_and_validity(self):
        mesh = box3d(2, 2, 2)
        assert mesh.dim == 3
        assert mesh.n_elements == 8 * 2 * 3
        assert validate_mesh(mesh) == []
        assert mesh.total_measure == pytest.approx(1.0, rel=1e-12)

    def test_tags(self):
        mesh = box3d(1, 1, 1)
        names = set(mesh.tag_names)
        assert {"x0", "x1", "y0", "y1", "z0", "z1"} <= names
        for tag in ("z0", "z1"):
            assert len(mesh.facets_with_tag(tag)) == 2
