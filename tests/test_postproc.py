import math

import numpy as np
import pytest

import ustflow.mesh as mesh_module
from ustflow import postproc, scenarios
from ustflow.errors import EmptySlice
from ustflow.extrude import ExtrusionSpec, NodeTrajectory, extrude_simplex_st
from ustflow.geometry import box2d, box3d, disk2d
from ustflow.mesh import SimplexMesh, SpaceTimeMesh

from conftest import twisted_slab
from ustflow.postproc import (SliceResult, _locate, _polygon_order,
                              element_vorticity, export_vtk,
                              global_divergence, l2_error, l2_error_slab,
                              probe,
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


def _cyclic_order(points2d):
    c = points2d.mean(axis=0)
    ang = np.arctan2(points2d[:, 1] - c[1], points2d[:, 0] - c[0])
    return np.argsort(ang)


def _order_polygon(coords, keys):
    """Cyclic vertex order of a planar convex polygon embedded in 2D or 3D,
    rotated so the lowest-key vertex comes first."""
    pts = coords
    if coords.shape[1] == 3:
        c = coords.mean(axis=0)
        d = coords - c
        # plane basis from the two most independent directions
        nu = np.linalg.norm(d, axis=1)
        if nu.max() < 1e-300:  # coincident vertices: order is immaterial
            return sorted(range(len(coords)), key=lambda i: keys[i])
        u = d[np.argmax(nu)]
        u = u / np.linalg.norm(u)
        w = None
        wn = 0.0
        for cand in d:
            v = cand - (cand @ u) * u
            n = np.linalg.norm(v)
            if w is None or n > wn:
                w, wn = v, n
        if wn < 1e-300:        # collinear vertices: degenerate sliver
            return sorted(range(len(coords)), key=lambda i: keys[i])
        w = w / wn
        pts = np.column_stack([d @ u, d @ w])
    order = list(_cyclic_order(pts))
    start = min(range(len(order)), key=lambda i: keys[order[i]])
    return order[start:] + order[:start]


def _triangulate_polyhedron(keys, verts, member, nen):
    """Fan tetrahedralization of a convex cut polyhedron (3D slices).

    The polyhedron's faces are its intersections with the element's
    tetrahedral facets (facet f omits local node f; ``member[v]`` lists the
    facets containing vertex v).  Each face polygon is ordered cyclically
    and fanned from its lowest-key vertex; the volume fan goes from the
    polytope's lowest-key vertex over the face triangles avoiding it.
    """
    nv = len(verts)
    apex = min(range(nv), key=lambda v: keys[v])
    tets = []
    for f in range(nen):
        face = [v for v in range(nv) if f in member[v]]
        if len(face) < 3 or apex in face:
            continue
        coords = verts[face]
        order = _order_polygon(coords, [keys[v] for v in face])
        ring = [face[o] for o in order]
        for m in range(1, len(ring) - 1):
            tet = [apex, ring[0], ring[m], ring[m + 1]]
            # skip slivers produced by nearly-degenerate cuts
            e = verts[tet[1:]] - verts[tet[0]]
            if abs(np.linalg.det(e)) > 0.0:
                tets.append(tet)
    return tets


def reference_slice(st_mesh, values, t, tol=None):
    """Element-by-element slicer: the oracle for ``slice_at_time``'s arrays."""
    span = st_mesh.tN - st_mesh.t0
    if tol is None:
        tol = 1e-12 * span
    at_bottom = t <= st_mesh.t0 + tol

    n_sd = st_mesh.n_sd
    times = st_mesh.times
    els = st_mesh.elements
    el_times = times[els]
    tmin, tmax = el_times.min(axis=1), el_times.max(axis=1)
    candidates = np.flatnonzero((tmin <= t + tol) & (tmax >= t - tol))

    out_nodes, out_values, out_simplices = [], [], []
    n_out = 0
    for e in candidates:
        ids = els[e]
        tk = times[ids]
        below = tk < t - tol
        above = tk > t + tol
        onpl = ~(below | above)
        if below.any():
            if not (above.any() or onpl.any()):
                continue
        elif not (at_bottom and onpl.any() and above.any()):
            continue

        nen = len(ids)
        verts, wts, keys, member = [], [], [], []
        for i in np.flatnonzero(onpl):
            verts.append(st_mesh.nodes[ids[i], :n_sd])
            w = np.zeros(nen)
            w[i] = 1.0
            wts.append(w)
            keys.append((0, int(i)))
            member.append(frozenset(f for f in range(nen) if f != i))
        edge = 0
        for i in np.flatnonzero(below):
            for j in np.flatnonzero(above):
                s = (t - tk[i]) / (tk[j] - tk[i])
                verts.append((1.0 - s) * st_mesh.nodes[ids[i], :n_sd]
                             + s * st_mesh.nodes[ids[j], :n_sd])
                w = np.zeros(nen)
                w[i], w[j] = 1.0 - s, s
                wts.append(w)
                keys.append((1, edge))
                member.append(frozenset(f for f in range(nen)
                                        if f != i and f != j))
                edge += 1
        nv = len(verts)
        if nv < n_sd + 1:
            continue
        verts = np.asarray(verts)
        wts = np.asarray(wts)
        vals = wts @ values[ids]

        if nv == n_sd + 1:
            local_simplices = [list(range(nv))]
        elif n_sd == 2:
            order = _order_polygon(verts, keys)
            local_simplices = [[order[0], order[m], order[m + 1]]
                               for m in range(1, nv - 1)]
        else:
            local_simplices = _triangulate_polyhedron(keys, verts, member, nen)
            if not local_simplices:
                continue

        base = n_out
        out_nodes.append(verts)
        out_values.append(vals)
        for simp in local_simplices:
            out_simplices.append([base + v for v in simp])
        n_out += nv

    mesh = SimplexMesh(np.vstack(out_nodes),
                       np.asarray(out_simplices, dtype=np.int64),
                       np.zeros((0, n_sd), dtype=np.int64),
                       np.zeros(0, dtype=np.int64), [])
    return SliceResult(mesh, np.vstack(out_values), t)


@pytest.fixture(scope="module")
def stirrer2d_st():
    return scenarios.make_stirrer2d().ust_mesh()


@pytest.fixture(scope="module")
def stirrer3d_coarse_st():
    return scenarios.make_stirrer3d(coarse=True).ust_mesh()


def assert_same_slice(st, t, rng):
    vals = rng.uniform(-1.0, 1.0, size=(st.n_nodes, st.n_sd + 1))
    got = slice_at_time(st, vals, t)
    ref = reference_slice(st, vals, t)
    assert np.array_equal(got.mesh.nodes, ref.mesh.nodes)
    assert np.array_equal(got.mesh.elements, ref.mesh.elements)
    assert np.array_equal(got.values, ref.values)


class TestSliceMatchesReference:
    """The grouped slicer returns the element-by-element slicer's arrays."""

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.137, 0.2])
    def test_small_2d(self, small_st_mesh_2d, rng, t):
        assert_same_slice(small_st_mesh_2d, t, rng)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.137, 0.2])
    def test_small_3d(self, small_st_mesh_3d, rng, t):
        assert_same_slice(small_st_mesh_3d, t, rng)

    def test_twisted_3d(self, rng):
        spatial = box3d(2, 1, 1)
        traj = NodeTrajectory((0.5, 0.5, 0.0), (0.0, 0.0, 1.0), omega=0.4)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.5, 2, traj))
        for t in (0.0, 0.25, 0.31, 0.5):
            assert_same_slice(st, t, rng)

    @pytest.mark.parametrize("fixture", ["small_st_mesh_2d",
                                         "small_st_mesh_3d"])
    def test_mixed_patterns(self, request, rng, fixture):
        # move half the middle-level nodes off the level, so that cuts at
        # the level mix on-plane nodes with cut edges
        st = request.getfixturevalue(fixture)
        nodes = st.nodes.copy()
        mid = np.flatnonzero(np.isclose(st.times, 0.1))
        moved = mid[rng.random(mid.size) < 0.5]
        nodes[moved, -1] += rng.uniform(-0.03, 0.03, size=moved.size)
        jittered = st_mesh_from(nodes, st.elements, st.t0, st.tN)
        for t in (0.1, 0.11, 0.09):
            assert_same_slice(jittered, t, rng)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_polygon_order_rows(self, rng, n):
        # convex polygons in the plane and in random planes of 3D, plus
        # coincident and collinear vertex sets, which keep their order
        ang = rng.uniform(0.0, 2.0 * np.pi, size=(40, n))
        circle = np.stack([np.cos(ang), np.sin(ang)], axis=2)
        frames = rng.standard_normal((40, 2, 3))
        in3d = circle @ frames + rng.standard_normal((40, 1, 3))
        line = np.zeros((1, n, 3))
        line[0, :, 0] = rng.permutation(n)
        same = np.full((1, n, 3), 0.25)
        for P in (circle, np.concatenate([in3d, line, same])):
            ref = [_order_polygon(p, list(range(n))) for p in P]
            assert np.array_equal(_polygon_order(P), ref)

    # the bottom, an interior node level, mid-level and the top: the
    # slicer reads one or two element levels of the stack, the reference
    # filters every element
    @pytest.mark.parametrize("level", [0, 9, 8.5, 17])
    def test_stirrer2d(self, stirrer2d_st, rng, level):
        assert_same_slice(stirrer2d_st, level * scenarios.STIRRER_DT, rng)

    @pytest.mark.parametrize("level", [0, 9, 8.5, 17])
    def test_stirrer3d_coarse(self, stirrer3d_coarse_st, rng, level):
        assert_same_slice(stirrer3d_coarse_st, level * scenarios.STIRRER_DT,
                          rng)


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
        traj = NodeTrajectory((0.0, 0.0), omega=0.5)
        st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 1.0, 4, traj))
        vals = np.zeros((st.n_nodes, 3))
        for t in rng.uniform(0.0, 1.0, size=4):
            sl = slice_at_time(st, vals, t)
            assert sl.mesh.total_measure == pytest.approx(
                brute_slice_measure(st, t), rel=1e-10)

    def test_twisted_measure_exact_at_level_times(self):
        spatial = disk2d(1.0, 3, 14)
        traj = NodeTrajectory((0.0, 0.0), omega=0.5)
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
        traj = NodeTrajectory((0.5, 0.5, 0.0), (0.0, 0.0, 1.0), omega=0.4)
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


def exhaustive_owner(mesh, points, tol=1e-10):
    """Lowest-index element containing each point, by a scan of all."""
    X0 = mesh.element_coords[:, 0, :]
    owner = []
    for p in points:
        xi = np.einsum("edk,ek->ed", mesh.jacobian_invs, p - X0)
        inside = np.flatnonzero((xi >= -tol).all(axis=1)
                                & (1.0 - xi.sum(axis=1) >= -tol))
        owner.append(inside[0] if inside.size else -1)
    return np.array(owner)


class TestLocatorOnPentatopes:
    """Points that several thin pentatopes share, and points outside."""

    def test_owner_is_lowest_containing_element(self, stirrer3d_coarse_st,
                                                rng):
        st = stirrer3d_coarse_st
        dt, t_end = scenarios.STIRRER_DT, st.tN
        els = st.elements[rng.choice(st.n_elements, 60, replace=False)]
        facets = np.delete(els, rng.integers(0, 5, size=60)[:, None]
                           + 5 * np.arange(60)[:, None]).reshape(60, 4)
        ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        ring = np.array([(r * np.cos(a + 0.1 * k), r * np.sin(a + 0.1 * k),
                          z, t_end * (j + 0.5) / 16)
                         for k, (r, z) in enumerate(((2.7, 0.03), (2.7, 0.07),
                                                     (2.85, 0.03),
                                                     (2.85, 0.07)))
                         for j, a in enumerate(ang)])
        on_level = ring[:18].copy()
        on_level[:, 3] = np.arange(18) * dt
        inside = np.vstack([
            st.nodes[rng.choice(st.n_nodes, 60, replace=False)],
            st.nodes[facets].mean(axis=1),
            st.nodes[els[:, :2]].mean(axis=1),
            ring, on_level])
        outside = np.array([[10.0, 0.0, 0.05, 0.001],
                            [0.0, 2.7, 0.5, 0.001],
                            [2.7, 0.0, 0.05, -dt],
                            [2.7, 0.0, 0.05, t_end + dt],
                            [2.7, 0.0, 0.05, t_end * (1.0 + 1e-6)]])
        pts = np.vstack([inside, outside])

        owner = _locate(st, pts, 1e-10)
        assert np.array_equal(owner, exhaustive_owner(st, pts))
        assert (owner[:len(inside)] >= 0).all()
        assert (owner[len(inside):] == -1).all()

        vals = rng.uniform(-1.0, 1.0, size=(st.n_nodes, 4))
        out, found = probe(st, vals, pts)
        ref, ref_found = probe_exhaustive(st, vals, pts)
        assert np.array_equal(found, owner >= 0)
        assert np.array_equal(found, ref_found)
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.isnan(out[~found]).all()


    def test_no_whole_mesh_vertex_array(self, stirrer3d_coarse_st, rng,
                                        monkeypatch):
        """64 probes, as the 3D benchmark places them, in element slices
        of 4,096 and batches of about 4,096 pairs: the locator's traced peak
        stays below one (n_el, 5, 4) array of the element vertices, and the
        owners are the oracle's."""
        import tracemalloc
        st = stirrer3d_coarse_st
        st.gradients                     # the mesh's own cache, not probe's
        monkeypatch.setattr(mesh_module, "_SLICE", 4096)
        monkeypatch.setattr(postproc, "_PAIR_BATCH", 4096)
        ang = 2.0 * np.pi * np.arange(16) / 16
        pts = np.array([(r * np.cos(a + 0.1 * k), r * np.sin(a + 0.1 * k),
                         z, st.tN * (j + 0.5) / 16)
                        for k, (r, z) in enumerate(((2.7, 0.03), (2.7, 0.07),
                                                    (2.85, 0.03),
                                                    (2.85, 0.07)))
                        for j, a in enumerate(ang)])
        vals = rng.uniform(-1.0, 1.0, size=(st.n_nodes, 4))
        tracemalloc.start()
        try:
            out, found = probe(st, vals, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < st.elements.size * st.dim * 8
        ref, ref_found = probe_exhaustive(st, vals, pts)
        assert found.all() and np.array_equal(found, ref_found)
        assert np.array_equal(out, ref)

    def test_small_batches(self, small_st_mesh_3d, rng, monkeypatch):
        # candidate pairs split into many batches, some points alone in one
        st = small_st_mesh_3d
        monkeypatch.setattr(postproc, "_PAIR_BATCH", 5)
        pts = np.vstack([st.nodes, rng.uniform(0.0, 0.2, size=(30, 4)),
                         [[np.nan, 0.5, 0.5, 0.1]]])
        owner = _locate(st, pts, 1e-10)
        assert np.array_equal(owner, exhaustive_owner(st, pts))
        assert (owner[:st.n_nodes] >= 0).all() and owner[-1] == -1


def stack_points(st, rng, n=200):
    """Random points over the mesh's bounding box and a little beyond, at
    node-level times, at mesh nodes, outside in space or time, and rows
    with a non-finite coordinate."""
    lo, hi = st.nodes.min(axis=0), st.nodes.max(axis=0)
    pad = 0.05 * (hi - lo)
    box = rng.uniform(lo - pad, hi + pad, size=(n, st.dim))
    on_level = rng.uniform(lo, hi, size=(n, st.dim))
    on_level[:, -1] = rng.choice(np.unique(st.times), n)
    nodes = st.nodes[rng.choice(st.n_nodes, n // 2, replace=False)]
    outside = rng.uniform(lo, hi, size=(4, st.dim))
    outside[:, -1] = [st.t0 - 1e-9, st.t0 - (hi - lo)[-1],
                      st.tN * (1.0 + 1e-6), st.tN + (hi - lo)[-1]]
    bad = box[:4].copy()
    bad[[0, 1, 2, 3], [0, 1, -1, -1]] = [np.nan, np.nan, np.nan, np.inf]
    return np.vstack([box, on_level, nodes, outside, bad])


class TestLevelStackLocator:
    """The locator searches element level 0 of the mesh's stack and tests
    the candidates on the mesh's own elements: its owners and probes are
    those of a scan of every element."""

    @pytest.mark.parametrize("fixture", ["stirrer2d_st",
                                         "stirrer3d_coarse_st"])
    def test_owners_match_exhaustive(self, request, rng, fixture):
        st = request.getfixturevalue(fixture)
        assert st.level_stack.L == 17
        pts = stack_points(st, rng)
        owner = _locate(st, pts, 1e-10)
        # the oracle's scan would sum an infinite coordinate to NaN
        finite = pts[:-4]
        assert np.array_equal(owner[:-4], exhaustive_owner(st, finite))
        levels = owner[owner >= 0] // st.level_stack.n_per
        assert len(np.unique(levels)) == 17
        assert (owner[-8:] == -1).all()

        vals = rng.uniform(-1.0, 1.0, size=(st.n_nodes, st.dim))
        out, found = probe(st, vals, pts)
        ref, ref_found = probe_exhaustive(st, vals, finite)
        assert np.array_equal(found[:-4], ref_found) and not found[-4:].any()
        assert np.array_equal(out[:-4], ref, equal_nan=True)
        assert np.isnan(out[-4:]).all()

    def test_node_level_point_goes_to_lower_level(self, stirrer2d_st):
        # a point on node level 9, inside the mesh, lies in elements of
        # element levels 8 and 9; the lowest index is in level 8
        st = stirrer2d_st
        n_per = st.level_stack.n_per
        e = 9 * n_per + 5
        X = st.nodes[st.elements[e]]
        bottom = X[X[:, -1] == X[:, -1].min()]
        pts = bottom.mean(axis=0, keepdims=True)
        owner = _locate(st, pts, 1e-10)
        assert owner[0] // n_per == 8
        assert np.array_equal(owner, exhaustive_owner(st, pts))

    def test_level_motions(self, stirrer3d_coarse_st, rng):
        """Level 0's image of a point is the point itself; every level's
        motion takes its nodes onto level 0's to about rounding."""
        st = stirrer3d_coarse_st
        n_sp, L = st.level_stack.n_sp, st.level_stack.L
        M, d, dev = postproc._level_motions(st, np.ones(st.dim))
        assert np.array_equal(M[0], np.eye(st.dim)) and not d[0].any()
        pts = rng.uniform(-3.0, 3.0, size=(5, st.dim))
        assert np.array_equal(pts @ M[0] + d[0], pts)
        k = L - 1
        image = st.nodes[k * n_sp:(k + 2) * n_sp] @ M[k] + d[k]
        assert np.abs(image - st.nodes[:2 * n_sp]).max() <= dev < 1e-12

    def test_one_level_mesh_same_path(self, small_st_mesh_3d, rng):
        """A mesh without a stack, and a spatial mesh, are one level under
        the identity motion, and take the same path."""
        st = small_st_mesh_3d
        nodes = st.nodes.copy()
        mid = np.flatnonzero(np.isclose(st.times, 0.1))
        nodes[mid, -1] += rng.uniform(-0.02, 0.02, size=mid.size)
        jittered = st_mesh_from(nodes, st.elements, st.t0, st.tN)
        assert jittered.level_stack.L == 1
        n_per, lo, hi = postproc._level_spans(jittered)
        assert (n_per, lo.tolist(), hi.tolist()) == (
            jittered.n_elements, [nodes[:, -1].min()], [nodes[:, -1].max()])
        M, d, dev = postproc._level_motions(jittered, np.ones(4))
        assert np.array_equal(M, np.eye(4)[None]) and not d.any()
        assert dev == 0.0
        pts = np.vstack([rng.uniform(-0.1, 1.1, size=(60, 4)) * [1, 1, 1, 0.2],
                         jittered.nodes, [[0.5, 0.5, 0.5, -0.1]],
                         [[0.5, np.nan, 0.5, 0.1]]])
        owner = _locate(jittered, pts, 1e-10)
        assert np.array_equal(owner, exhaustive_owner(jittered, pts))
        assert (owner[60:-2] >= 0).all() and (owner[-2:] == -1).all()

        spatial = box2d(3, 3)
        assert postproc._level_spans(spatial)[0] == spatial.n_elements
        pts = np.vstack([rng.uniform(-0.1, 1.1, size=(40, 2)), spatial.nodes])
        assert np.array_equal(_locate(spatial, pts, 1e-10),
                              exhaustive_owner(spatial, pts))


class TestProbe:
    def test_non_finite_points_not_found(self, rng):
        mesh = box2d(3, 3)
        vals = rng.uniform(-1, 1, size=(mesh.n_nodes, 3))
        pts = [[np.nan, 0.5], [0.5, 0.5], [np.inf, 0.2], [0.3, -np.inf]]
        out, found = probe(mesh, vals, pts)
        assert found.tolist() == [False, True, False, False]
        assert np.isnan(out[~found]).all() and np.isfinite(out[1]).all()
        w, wfound = probe_vorticity(mesh, vals, pts)
        assert wfound.tolist() == [False, True, False, False]
        assert np.isnan(w[~wfound]).all()
        out, found = probe(mesh, vals, [[np.nan, np.nan]])
        assert not found.any() and np.isnan(out).all()

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
        out, found = probe(st, vals, st.element_coords[[e]].mean(axis=1))
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

    def test_no_whole_mesh_gradients(self, rng, monkeypatch):
        """Probing and the divergence norm compute the P1 gradients of the
        elements they read, with the bytes of the whole-mesh array, and
        leave no gradients cached on the mesh; the probes still match the
        exhaustive oracle and the norm the whole-mesh sum.  Point location
        inverts each batch's distinct candidates (2 points, fewer pairs
        than elements) or every element once (40 points, more pairs)."""
        traj = NodeTrajectory((0.5, 0.5, 0.5), axis=(0.0, 0.0, 1.0), omega=0.8)
        st = extrude_simplex_st(box3d(2, 2, 2),
                                ExtrusionSpec(0.0, 0.3, 3, traj))
        vals = rng.uniform(-1, 1, size=(st.n_nodes, 4))
        pts = rng.uniform(0.2, 0.8, size=(40, 4))
        pts[:, 3] *= 0.3
        gradients_of, inverted = st.gradients_of, []

        def record(which):
            grads = gradients_of(which)
            inverted.append(len(grads))
            return grads

        monkeypatch.setattr(st, "gradients_of", record)
        probes = []
        for n, whole in ((2, False), (40, True)):
            inverted.clear()
            probes.append(probe(st, vals, pts[:n]))
            # the pairs' inverses, then the owners'
            assert (inverted[0] == st.n_elements) == whole
            assert sum(inverted[:-1]) <= st.n_elements
        div_l2 = global_divergence(st, vals)
        assert "gradients" not in vars(st)
        assert probes[1][1].sum() > 20
        for n, (out, found) in zip((2, 40), probes):
            ref, ref_found = probe_exhaustive(st, vals, pts[:n])
            assert np.array_equal(found, ref_found)
            assert np.array_equal(out, ref, equal_nan=True)
        div = np.einsum("eai,eai->e", st.gradients[:, :, :3],
                        vals[st.elements][:, :, :3])
        assert div_l2 == float(np.sqrt((st.measures * div * div).sum()))
        some = rng.choice(st.n_elements, 7)
        assert st.gradients_of(some).tobytes() == st.gradients[some].tobytes()

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


def reference_vtk(mesh, velocity, pressure, path, title):
    """Row-by-row legacy VTK writer: the oracle for ``export_vtk``'s bytes."""
    cell_type = {2: 5, 3: 10}[mesh.dim]
    nen = mesh.dim + 1

    def fmt(x):
        return f"{x:.9g}"

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(title + "\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_nodes} double\n")
        for p in mesh.nodes:
            row = list(p) + [0.0] * (3 - mesh.dim)
            f.write(" ".join(fmt(v) for v in row) + "\n")
        f.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (nen + 1)}\n")
        for el in mesh.elements:
            f.write(f"{nen} " + " ".join(str(int(v)) for v in el) + "\n")
        f.write(f"CELL_TYPES {mesh.n_elements}\n")
        for _ in range(mesh.n_elements):
            f.write(f"{cell_type}\n")
        f.write(f"POINT_DATA {mesh.n_nodes}\n")
        f.write("VECTORS velocity double\n")
        for v in velocity:
            row = list(v) + [0.0] * (3 - velocity.shape[1])
            f.write(" ".join(fmt(x) for x in row) + "\n")
        f.write("SCALARS pressure double\n")
        f.write("LOOKUP_TABLE default\n")
        for q in pressure:
            f.write(fmt(q) + "\n")


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

    def test_l2_error_slab_affine_and_constant_fields(self, rng):
        for n_sd in (2, 3):
            slab = twisted_slab(n_sd)
            xt = slab.node_coords()
            # an affine field in (x, t) is interpolated exactly
            A, b = rng.uniform(-1, 1, size=(n_sd + 1, n_sd + 1)), 0.3

            def affine(x, t):
                return np.column_stack([x, t]) @ A.T + b

            err = l2_error_slab(slab, affine(xt[:, :n_sd], xt[:, n_sd]),
                                affine)
            assert err["total"] <= 1e-13 * err["exact_total"]

            # a constant field: exact_total = |c| sqrt(slab volume), the
            # volume by Simpson's rule in theta (the element measures at
            # fixed theta are polynomials of degree n_sd in theta)
            c = np.arange(1.0, n_sd + 2)
            els = slab.spatial.elements
            volume = 0.0
            for th, w in ((0.0, 1.0), (0.5, 4.0), (1.0, 1.0)):
                X = ((1.0 - th) * slab.coords_bottom
                     + th * slab.coords_top)[els]
                det = np.linalg.det(X[:, 1:] - X[:, :1])
                volume += w / 6.0 * np.abs(det).sum() / math.factorial(n_sd)
            volume *= slab.dt

            def const(x, t):
                return np.tile(c, (len(x), 1))

            err = l2_error_slab(slab, const(xt, xt[:, 0]), const)
            assert err["total"] < 1e-14
            assert err["exact_total"] == pytest.approx(
                np.linalg.norm(c) * math.sqrt(volume), rel=1e-13)

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

    @pytest.mark.parametrize("fixture", ["small_st_mesh_2d",
                                         "small_st_mesh_3d"])
    def test_vtk_bytes_match_row_by_row_writer(self, request, tmp_path, rng,
                                               fixture):
        st = request.getfixturevalue(fixture)
        n_sd = st.n_sd
        vals = rng.uniform(-1, 1, size=(st.n_nodes, n_sd + 1))
        vals *= 10.0 ** rng.integers(-300, 300, size=vals.shape)
        vals[::7, 0] = -0.0
        vals[::11, -1] = 1.0 / 3.0
        sl = slice_at_time(st, vals, 0.137)
        args = (sl.mesh, sl.values[:, :n_sd], sl.values[:, n_sd])
        export_vtk(*args, tmp_path / "new.vtk", title="t=0.137")
        reference_vtk(*args, tmp_path / "ref.vtk", title="t=0.137")
        assert (tmp_path / "new.vtk").read_bytes() == \
            (tmp_path / "ref.vtk").read_bytes()

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
