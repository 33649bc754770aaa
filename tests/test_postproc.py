import math

import numpy as np
import pytest

from ustflow.errors import EmptySlice
from ustflow.extrude import ExtrusionSpec, NodeTrajectory, extrude_simplex_st
from ustflow.geometry import box2d, box3d, disk2d
from ustflow.mesh import SpaceTimeMesh
from ustflow.postproc import (element_vorticity, export_vtk,
                              global_divergence, l2_error, probe,
                              probe_exhaustive, probe_vorticity,
                              slice_at_time)


def st_mesh_from(nodes, elements, t0, tN):
    nodes = np.asarray(nodes, dtype=float)
    dim = nodes.shape[1]
    return SpaceTimeMesh(nodes, elements, np.zeros((0, dim), dtype=int),
                         np.zeros(0, dtype=int), [], t0, tN,
                         facet_groups=(np.zeros(0, dtype=int),) * 3)


def brute_slice_measure(st, t, tol=None):
    """Independent cross-section measure: per-element convex clip."""
    span = st.tN - st.t0
    tol = 1e-12 * span if tol is None else tol
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
            ang = np.arctan2(V[:, 1] - c[1], V[:, 0] - c[0])
            V = V[np.argsort(ang)]
            x, y = V[:, 0], V[:, 1]
            total += 0.5 * abs(np.dot(x, np.roll(y, -1))
                               - np.dot(y, np.roll(x, -1)))
        else:
            from scipy.spatial import ConvexHull
            total += ConvexHull(V, qhull_options="QJ").volume
    return total


class TestSliceGeometryOracles:
    def test_tet_three_below_one_above(self):
        # 3 nodes at t=0, 1 at t=1, slice at 0.5: triangle of edge midpoints
        nodes = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        st = st_mesh_from(nodes, [[0, 1, 2, 3]], 0.0, 1.0)
        vals = np.zeros((4, 3))
        sl = slice_at_time(st, vals, 0.5)
        assert sl.mesh.n_elements == 1
        got = sorted(map(tuple, np.round(sl.mesh.nodes, 12)))
        expected = sorted([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
        assert got == expected
        assert sl.mesh.total_measure == pytest.approx(0.125 / 2.0 * 2.0)

    def test_pentatope_four_below_one_above(self):
        # 4 nodes at t=0 and the apex at t=1: slice at 0.5 is the
        # tetrahedron of the 4 apex-edge midpoints
        nodes = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                 [0, 0, 0, 1]]
        st = st_mesh_from(nodes, [[0, 1, 2, 3, 4]], 0.0, 1.0)
        vals = np.zeros((5, 4))
        sl = slice_at_time(st, vals, 0.5)
        assert sl.mesh.n_elements == 1
        got = sorted(map(tuple, np.round(sl.mesh.nodes, 12)))
        expected = sorted([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0),
                           (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)])
        assert got == expected
        assert sl.mesh.total_measure == pytest.approx((0.5 ** 3) / 6.0)

    def test_pentatope_two_three_prism_cut(self):
        # 2 below / 3 above: six cut points forming a prism-like polyhedron;
        # volume checked against the independent convex-hull oracle
        rng = np.random.default_rng(5)
        while True:
            X = rng.uniform(0, 1, size=(5, 4))
            X[:2, 3] = 0.0
            X[2:, 3] = 1.0
            J = (X[1:] - X[0]).T
            if abs(np.linalg.det(J)) > 1e-3:
                break
        st = st_mesh_from(X, [[0, 1, 2, 3, 4]], 0.0, 1.0)
        vals = np.zeros((5, 4))
        sl = slice_at_time(st, vals, 0.4)
        assert sl.mesh.n_nodes == 6
        from scipy.spatial import ConvexHull
        hull = ConvexHull(np.unique(np.round(sl.mesh.nodes, 14), axis=0))
        assert sl.mesh.total_measure == pytest.approx(hull.volume, rel=1e-10)


class TestSliceFieldInterpolation:
    def test_affine_field_reproduced(self, small_st_mesh_2d, rng):
        st = small_st_mesh_2d
        a = rng.uniform(-1, 1, size=(3, 3))  # per-component affine coeffs
        vals = st.nodes @ a.T
        for t in rng.uniform(st.t0, st.tN, size=4):
            sl = slice_at_time(st, vals, t)
            expect = np.column_stack([sl.mesh.nodes, np.full(sl.mesh.n_nodes, t)]) @ a.T
            assert np.abs(sl.values - expect).max() < 1e-12

    def test_linear_in_time_field_exact(self, small_st_mesh_2d):
        st = small_st_mesh_2d
        vals = np.column_stack([st.times, 2.0 * st.times, -st.times])
        sl = slice_at_time(st, vals, 0.137 * (st.tN - st.t0))
        t = sl.time
        assert np.abs(sl.values - np.array([t, 2 * t, -t])).max() < 1e-12

    def test_interpolation_weights_in_unit_range(self, small_st_mesh_3d, rng):
        st = small_st_mesh_3d
        vals = rng.uniform(0.0, 1.0, size=(st.n_nodes, 4))
        sl = slice_at_time(st, vals, 0.1)
        assert sl.values.min() >= vals.min() - 1e-12
        assert sl.values.max() <= vals.max() + 1e-12


class TestSliceMeasure:
    def test_flat_measure_conserved_random_times(self, rng):
        spatial = disk2d(1.0, 3, 14)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 4))
        vals = np.zeros((st.n_nodes, 3))
        for t in rng.uniform(0.0, 1.0, size=6):
            sl = slice_at_time(st, vals, t)
            assert sl.mesh.total_measure == pytest.approx(
                spatial.total_measure, rel=1e-10)

    def test_twisted_measure_matches_cross_section(self, rng):
        spatial = disk2d(1.0, 3, 14)
        traj = NodeTrajectory("rigid_rotation", (0.0, 0.0), omega=0.5)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 4, traj))
        vals = np.zeros((st.n_nodes, 3))
        for t in rng.uniform(0.0, 1.0, size=4):
            sl = slice_at_time(st, vals, t)
            assert sl.mesh.total_measure == pytest.approx(
                brute_slice_measure(st, t), rel=1e-10)

    def test_twisted_measure_exact_at_level_times(self):
        spatial = disk2d(1.0, 3, 14)
        traj = NodeTrajectory("rigid_rotation", (0.0, 0.0), omega=0.5)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 4, traj))
        vals = np.zeros((st.n_nodes, 3))
        for level in range(5):
            sl = slice_at_time(st, vals, level * 0.25)
            assert sl.mesh.total_measure == pytest.approx(
                spatial.total_measure, rel=1e-10)

    def test_bottom_top_trace_matches_spatial_mesh(self):
        spatial = box2d(3, 2)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 2))
        vals = np.zeros((st.n_nodes, 3))
        for t in (0.0, 1.0):
            sl = slice_at_time(st, vals, t)
            assert sl.mesh.n_elements == spatial.n_elements
            got = np.unique(np.round(sl.mesh.nodes, 12), axis=0)
            expect = np.unique(np.round(spatial.nodes, 12), axis=0)
            assert np.array_equal(got, expect)

    def test_4d_slice_measure(self, rng):
        spatial = box3d(1, 1, 1)
        traj = NodeTrajectory("rigid_rotation", (0.5, 0.5, 0.0),
                              (0.0, 0.0, 1.0), omega=0.4)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.5, 2, traj))
        vals = np.zeros((st.n_nodes, 4))
        # level time: cross-section is the rotated unit cube
        sl = slice_at_time(st, vals, 0.25)
        assert sl.mesh.total_measure == pytest.approx(1.0, rel=1e-10)
        for t in rng.uniform(0.0, 0.5, size=2):
            sl = slice_at_time(st, vals, t)
            assert sl.mesh.total_measure == pytest.approx(
                brute_slice_measure(st, t), rel=1e-9)

    def test_outside_range_raises(self, small_st_mesh_2d):
        with pytest.raises(EmptySlice):
            slice_at_time(small_st_mesh_2d, np.zeros(
                (small_st_mesh_2d.n_nodes, 3)), 5.0)


class TestProbe:
    def test_nodal_values_exact(self, small_st_mesh_2d, rng):
        st = small_st_mesh_2d
        vals = rng.uniform(-1, 1, size=(st.n_nodes, 3))
        picks = rng.integers(0, st.n_nodes, size=8)
        out, found = probe(st, vals, st.nodes[picks])
        assert found.all()
        assert np.abs(out - vals[picks]).max() < 1e-12

    def test_barycenter_mean(self, small_st_mesh_2d, rng):
        st = small_st_mesh_2d
        vals = rng.uniform(-1, 1, size=(st.n_nodes, 3))
        e = 11
        out, found = probe(st, vals, st.barycenters[[e]])
        assert found.all()
        assert np.allclose(out[0], vals[st.elements[e]].mean(axis=0))

    def test_matches_exhaustive_oracle(self, small_st_mesh_3d, rng):
        st = small_st_mesh_3d
        vals = rng.uniform(-1, 1, size=(st.n_nodes, 4))
        pts = rng.uniform(0.05, 0.95, size=(12, 4))
        pts[:, 3] *= 0.2
        out1, f1 = probe(st, vals, pts)
        out2, f2 = probe_exhaustive(st, vals, pts)
        assert np.array_equal(f1, f2)
        assert np.allclose(out1[f1], out2[f2], atol=1e-12)

    def test_outside_points_flagged(self, small_st_mesh_2d):
        st = small_st_mesh_2d
        out, found = probe(st, np.zeros((st.n_nodes, 3)),
                           np.array([[5.0, 5.0, 0.1]]))
        assert not found.any()
        assert np.isnan(out).all()

    def test_probe_agrees_with_slice(self, small_st_mesh_2d, rng):
        st = small_st_mesh_2d
        vals = rng.uniform(-1, 1, size=(st.n_nodes, 3))
        t = 0.123
        sl = slice_at_time(st, vals, t)
        pts_sp = rng.uniform(0.1, 0.9, size=(6, 2))
        pts_st = np.column_stack([pts_sp, np.full(6, t)])
        v_st, f1 = probe(st, vals, pts_st)
        v_sl, f2 = probe(sl.mesh, sl.values, pts_sp)
        assert f1.all() and f2.all()
        assert np.abs(v_st - v_sl).max() < 1e-12


class TestNormsAndVtk:
    def test_l2_error_constant_field(self, small_st_mesh_2d):
        st = small_st_mesh_2d
        vals = np.tile([1.0, 2.0, 3.0], (st.n_nodes, 1))

        def exact(x, t):
            return np.tile([1.0, 2.0, 3.0], (len(x), 1))

        err = l2_error(st, vals, exact)
        assert err["total"] < 1e-14
        assert err["exact_total"] == pytest.approx(
            math.sqrt(14.0 * st.total_measure), rel=1e-12)

    def test_global_divergence_linear_field(self, small_st_mesh_2d):
        st = small_st_mesh_2d
        vals = np.zeros((st.n_nodes, 3))
        vals[:, 0] = st.nodes[:, 0]          # du1/dx = 1
        vals[:, 1] = -st.nodes[:, 1]         # du2/dy = -1
        assert global_divergence(st, vals) < 1e-13
        vals[:, 1] = st.nodes[:, 1]
        assert global_divergence(st, vals) == pytest.approx(
            2.0 * math.sqrt(st.total_measure), rel=1e-12)

    def test_vorticity_rigid_rotation(self):
        mesh = box2d(3, 3)
        omega = 1.7
        vals = np.zeros((mesh.n_nodes, 3))
        vals[:, 0] = -omega * mesh.nodes[:, 1]
        vals[:, 1] = omega * mesh.nodes[:, 0]
        vort = element_vorticity(mesh, vals)
        assert np.allclose(vort, 2.0 * omega, atol=1e-12)

    def test_probe_vorticity_owner_matches_exhaustive_scan(self, rng):
        # random interior points, plus nodes and edge midpoints, which
        # several elements contain: the lowest-index one owns the point
        mesh = box2d(5, 4)
        vals = rng.uniform(-1, 1, size=(mesh.n_nodes, 3))
        edges = mesh.elements[:, :2]
        pts = np.vstack([rng.uniform(0.01, 0.99, size=(40, 2)),
                         mesh.nodes,
                         mesh.nodes[edges].mean(axis=1)])
        w, found = probe_vorticity(mesh, vals, pts)
        assert found.all()
        X0 = mesh.element_coords[:, 0, :]
        owner = []
        for p in pts:
            xi = np.einsum("edk,ek->ed", mesh.jacobian_invs, p - X0)
            inside = ((xi >= -1e-10).all(axis=1)
                      & (1.0 - xi.sum(axis=1) >= -1e-10))
            owner.append(np.flatnonzero(inside)[0])
        assert np.array_equal(w, element_vorticity(mesh, vals)[owner])

    def test_vtk_export_roundtrip_structure(self, tmp_path, small_st_mesh_2d):
        st = small_st_mesh_2d
        vals = np.random.default_rng(3).uniform(-1, 1, size=(st.n_nodes, 3))
        sl = slice_at_time(st, vals, 0.1)
        path = tmp_path / "slice.vtk"
        export_vtk(sl.mesh, sl.values[:, :2], sl.values[:, 2], path)
        text = path.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {sl.mesh.n_nodes} double" in text
        assert f"CELL_TYPES {sl.mesh.n_elements}" in text
        idx = text.index(f"CELL_TYPES {sl.mesh.n_elements}")
        assert text[idx + 1] == "5"
        assert "VECTORS velocity double" in text
        assert "SCALARS pressure double" in text
