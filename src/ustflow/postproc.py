"""Slicing, probing, norms and VTK export.

Slicing intersects every space-time simplex with a constant-time
hyperplane.  Cut cross-sections are convex polytopes assembled from
cut-edge points and on-plane vertices; they are fan-triangulated from the
vertex with the lowest deterministic key.  Nodes on the plane are owned by
the element on their lower-time side (half-open rule), except at the very
bottom of the domain where the upper elements own the trace.  Slice
vertices are not welded across elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySlice, IoFailure
from .mesh import SimplexMesh, SpaceTimeMesh, basis_eval
from .quadrature import simplex_quadrature
from .stabilization import prism_geometry


@dataclass
class SliceResult:
    """Spatial mesh extracted at a fixed time with interpolated nodal fields."""
    mesh: SimplexMesh
    values: np.ndarray  # (n_slice_nodes, n_sd+1): velocity components + pressure
    time: float


def _field_values(field) -> np.ndarray:
    """Accept a SolutionField or a plain (n_nodes, ncomp) array."""
    return np.asarray(getattr(field, "values", field), dtype=float)


def _cyclic_order(points2d: np.ndarray) -> np.ndarray:
    c = points2d.mean(axis=0)
    ang = np.arctan2(points2d[:, 1] - c[1], points2d[:, 0] - c[0])
    return np.argsort(ang)


def _order_polygon(coords: np.ndarray, keys: list) -> list:
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


def slice_at_time(st_mesh: SpaceTimeMesh, values, t: float,
                  tol: float = None) -> SliceResult:
    """Intersect the mesh with the hyperplane time = t and interpolate fields."""
    values = _field_values(values)
    span = st_mesh.tN - st_mesh.t0
    if tol is None:
        tol = 1e-12 * span
    if t < st_mesh.t0 - tol or t > st_mesh.tN + tol:
        raise EmptySlice(f"slice time {t} outside [{st_mesh.t0}, {st_mesh.tN}]")
    at_bottom = t <= st_mesh.t0 + tol

    n_sd = st_mesh.n_sd
    nc = values.shape[1]
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

    if not out_nodes:
        raise EmptySlice(f"no elements intersect time {t}")
    nodes = np.vstack(out_nodes)
    vals = np.vstack(out_values)
    simplices = np.asarray(out_simplices, dtype=np.int64)
    mesh = SimplexMesh(nodes, simplices,
                       np.zeros((0, n_sd), dtype=np.int64),
                       np.zeros(0, dtype=np.int64), [])
    return SliceResult(mesh, vals, t)


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


def _locate(mesh: SimplexMesh, points: np.ndarray, tol: float) -> np.ndarray:
    """Owning element of each point, -1 for points outside the mesh.

    The elements with the 32 nearest barycenters (kd-tree) are tested
    first, then all elements; the lowest-index containing element owns the
    point.
    """
    Jinv = mesh.jacobian_invs
    X0 = mesh.element_coords[:, 0, :]
    k = min(32, mesh.n_elements)
    _, cand = cKDTree(mesh.barycenters).query(points, k=k)
    owner = np.array([_locate_in(p, c, Jinv, X0, tol)
                      for p, c in zip(points, cand.reshape(len(points), k))],
                     dtype=int)
    for p in np.flatnonzero(owner < 0):
        owner[p] = _locate_in(points[p], np.arange(mesh.n_elements), Jinv, X0,
                              tol)
    return owner


def _locate_in(point, element_ids, Jinv, X0, tol) -> int:
    xi = np.einsum("edk,ek->ed", Jinv[element_ids], point - X0[element_ids])
    lam0 = 1.0 - xi.sum(axis=1)
    inside = (xi >= -tol).all(axis=1) & (lam0 >= -tol)
    return int(element_ids[inside].min()) if inside.any() else -1


def _interpolate(mesh: SimplexMesh, values, points, owner):
    """(P1 values at ``points`` from their owners, NaN outside; found mask)."""
    values = _field_values(values)
    found = owner >= 0
    out = np.full((len(points), values.shape[1]), np.nan)
    for p in np.flatnonzero(found):
        e = owner[p]
        xi = mesh.jacobian_invs[e] @ (points[p] - mesh.element_coords[e, 0])
        out[p] = basis_eval(xi, mesh.dim) @ values[mesh.elements[e]]
    return out, found


def probe(mesh: SimplexMesh, values, points, tol: float = 1e-10):
    """P1 interpolation at arbitrary points.

    Point location uses a kd-tree over element barycenters with a
    barycentric containment test; points outside the mesh are flagged.
    Returns (values (m, ncomp), found (m,) bool).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _interpolate(mesh, values, pts, _locate(mesh, pts, tol))


def probe_exhaustive(mesh: SimplexMesh, values: np.ndarray, points,
                     tol: float = 1e-10):
    """Brute-force point location over all elements (test oracle)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Jinv = mesh.jacobian_invs
    X0 = mesh.element_coords[:, 0, :]
    owner = np.array([_locate_in(p, np.arange(mesh.n_elements), Jinv, X0, tol)
                      for p in pts], dtype=int)
    return _interpolate(mesh, values, pts, owner)


def l2_error(mesh: SimplexMesh, values: np.ndarray, exact_fn,
             time_is_last_coord: bool = True):
    """Elementwise degree-2 quadrature of |field - exact|^2.

    ``exact_fn(x, t)`` (or ``exact_fn(x)`` for spatial meshes) returns the
    first k reference components; only those are compared.  Returns a dict
    with per-component and total absolute errors and exact-solution norms.
    """
    values = _field_values(values)
    rule = simplex_quadrature(mesh.dim, 2)
    N = basis_eval(rule.points, mesh.dim)
    x_q = np.einsum("qa,ead->eqd", N, mesh.element_coords)
    u_q = np.einsum("qa,eac->eqc", N, values[mesh.elements])
    wdet = rule.weights[None, :] * np.abs(mesh.jacobian_dets)[:, None]
    flat = x_q.reshape(-1, mesh.dim)
    if time_is_last_coord and isinstance(mesh, SpaceTimeMesh):
        exact = np.asarray(exact_fn(flat[:, :-1], flat[:, -1]))
    else:
        exact = np.asarray(exact_fn(flat))
    k = exact.shape[1]
    exact = exact.reshape(x_q.shape[0], x_q.shape[1], k)
    diff2 = (u_q[:, :, :k] - exact) ** 2
    err2 = np.einsum("eq,eqc->c", wdet, diff2)
    ref2 = np.einsum("eq,eqc->c", wdet, exact ** 2)
    return {"components": np.sqrt(err2), "total": float(np.sqrt(err2.sum())),
            "exact_components": np.sqrt(ref2),
            "exact_total": float(np.sqrt(ref2.sum()))}


def l2_error_slab(slab, values: np.ndarray, exact_fn):
    """Slab-mode analogue of :func:`l2_error` on tensor-product elements."""
    from .quadrature import prism_quadrature
    n_sd = slab.n_sd
    rule = prism_quadrature(n_sd, 2)
    els = slab.spatial.elements
    cb = slab.coords_bottom[els]
    ct = slab.coords_top[els]
    n_sp = slab.spatial.n_nodes
    conn = np.hstack([els, els + n_sp])
    Uv = values[conn]
    err2 = ref2 = 0.0
    for pt, w in zip(rule.points, rule.weights):
        xi, th = pt[:n_sd], pt[n_sd]
        x, _, dJ, _ = prism_geometry(cb, ct, slab.t_bottom, slab.dt, xi, th)
        Ns = basis_eval(xi, n_sd)
        Nface = np.concatenate([Ns * (1.0 - th), Ns * th])
        u = np.einsum("a,eac->ec", Nface, Uv)
        exact = np.asarray(exact_fn(x[:, :n_sd], x[:, n_sd]))
        k = exact.shape[1]
        d2 = (u[:, :k] - exact) ** 2
        wdet = w * np.abs(dJ)
        err2 += np.einsum("e,ec->c", wdet, d2)
        ref2 += np.einsum("e,ec->c", wdet, exact ** 2)
    return {"components": np.sqrt(err2), "total": float(np.sqrt(err2.sum())),
            "exact_components": np.sqrt(ref2),
            "exact_total": float(np.sqrt(ref2.sum()))}


def global_divergence(mesh: SpaceTimeMesh, values: np.ndarray) -> float:
    """sqrt of the integral of (div u)^2 over the space-time domain."""
    n_sd = mesh.n_sd
    D = mesh.gradients[:, :, :n_sd]
    div = np.einsum("eai,eai->e", D, values[mesh.elements][:, :, :n_sd])
    return float(np.sqrt((mesh.measures * div * div).sum()))


def element_vorticity(mesh: SimplexMesh, values: np.ndarray) -> np.ndarray:
    """Constant per-element vorticity (2D: scalar du2/dx - du1/dy)."""
    if mesh.dim != 2:
        raise ValueError("element_vorticity expects a 2D spatial mesh")
    D = mesh.gradients
    Uv = values[mesh.elements][:, :, :2]
    return (np.einsum("ea,ea->e", D[:, :, 0], Uv[:, :, 1])
            - np.einsum("ea,ea->e", D[:, :, 1], Uv[:, :, 0]))


def probe_vorticity(mesh: SimplexMesh, values: np.ndarray, points,
                    tol: float = 1e-10):
    """Vorticity of the owning element at each probe point (2D)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vort = element_vorticity(mesh, values)
    owner = _locate(mesh, pts, tol)
    found = owner >= 0
    return np.where(found, vort[owner], np.nan), found


def export_vtk(mesh: SimplexMesh, velocity: np.ndarray, pressure: np.ndarray,
               path, title: str = "ustflow output"):
    """Legacy ASCII VTK unstructured grid (triangles or tetrahedra)."""
    if mesh.dim == 2:
        cell_type = 5
    elif mesh.dim == 3:
        cell_type = 10
    else:
        raise IoFailure(f"cannot export meshes of dimension {mesh.dim}")
    nen = mesh.dim + 1

    def fmt(x):
        return f"{x:.9g}"

    try:
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
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
