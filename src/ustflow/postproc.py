"""Slicing, probing, norms and VTK export.

Slicing intersects every space-time simplex with a constant-time
hyperplane.  Cut cross-sections are convex polytopes assembled from
on-plane vertices and cut-edge points, in that order; they are
fan-triangulated from their first vertex, which has the lowest
deterministic key.  Nodes on the plane are owned by the element on their
lower-time side (half-open rule), except at the very bottom of the domain
where the upper elements own the trace.  Slice vertices are not welded
across elements.  Elements whose nodes share one below/on/above pattern
are cut together, one array operation per step, and the pieces are
written out in element order.

Probing finds, for each point, every element whose barycenter lies within
a radius that provably covers all elements containing the point (one
kd-tree ball query), tests those pairs in barycentric coordinates, and
gives the point to the lowest-index containing element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySlice, IoFailure
from .mesh import SimplexMesh, SpaceTimeMesh, basis_eval, element_slices
from .quadrature import prism_quadrature, simplex_quadrature
from .stabilization import prism_geometry, prism_shape_functions

# Candidate (point, element) pairs tested in one batch by _locate; on
# pentatopes a batch holds about 250 bytes per pair.
_PAIR_BATCH = 1 << 16


@dataclass
class SliceResult:
    """Spatial mesh extracted at a fixed time with interpolated nodal fields."""
    mesh: SimplexMesh
    values: np.ndarray  # (n_slice_nodes, n_sd+1): velocity components + pressure
    time: float


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes.  A batched matmul makes one BLAS dot
    per row, so each result equals ``np.dot`` of that row, bit for bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _polygon_order(P: np.ndarray) -> np.ndarray:
    """Cyclic vertex order of planar convex polygons, one per row of
    ``P`` (m, n, 2 or 3), rotated so that vertex 0 comes first.

    A polygon in 3D is projected onto the basis spanned by its vertex
    farthest from the centroid and the component of another vertex
    orthogonal to it; coincident or collinear vertices keep their order.
    The angles are sorted row by row.
    """
    m, n, k = P.shape
    flat = np.zeros(m, dtype=bool)
    if k == 3:
        d = P - P.mean(axis=1)[:, None]
        nu = np.linalg.norm(d, axis=2)
        rows = np.arange(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = d[rows, nu.argmax(axis=1)]
            u = u / np.sqrt(_row_dot(u, u))[:, None]
            v = d - _row_dot(d, u[:, None])[..., None] * u[:, None]
            vn = np.sqrt(_row_dot(v, v))
            w = v[rows, vn.argmax(axis=1)] / vn.max(axis=1)[:, None]
        flat = (nu.max(axis=1) < 1e-300) | (vn.max(axis=1) < 1e-300)
        P = np.concatenate([d @ u[:, :, None], d @ w[:, :, None]], axis=2)
    c = P.mean(axis=1)
    ang = np.arctan2(P[..., 1] - c[:, 1:], P[..., 0] - c[:, :1])
    order = np.argsort(ang, axis=1)
    start = (order == 0).argmax(axis=1)
    order = np.take_along_axis(order, (start[:, None] + np.arange(n)) % n,
                               axis=1)
    order[flat] = np.arange(n)
    return order


def _fan_polyhedra(V: np.ndarray, touched: list, nen: int):
    """Fan tetrahedralization of convex cut polyhedra (3D slices), one per
    row of ``V`` (m, nv, 3).

    A polyhedron's faces are its intersections with the element's
    tetrahedral facets (facet f omits local node f; ``touched[v]`` lists
    the element nodes that cut vertex v is made of, so v lies on every
    other facet).  Each face polygon is ordered cyclically and fanned from
    its first vertex; the volume fan goes from vertex 0 over the face
    triangles that avoid it.  Returns local tetrahedra (m, s, 4) and a
    mask (m, s) of the non-degenerate ones.
    """
    m, nv = V.shape[:2]
    tris = []
    for f in range(nen):
        face = [v for v in range(nv) if f not in touched[v]]
        if len(face) < 3 or 0 in face:
            continue
        ring = np.asarray(face)[_polygon_order(V[:, face])]
        tris += [ring[:, [0, k, k + 1]] for k in range(1, len(face) - 1)]
    T = np.pad(np.stack(tris, axis=1), ((0, 0), (0, 0), (1, 0)))
    X = V[np.arange(m)[:, None, None], T]
    # skip slivers produced by nearly-degenerate cuts
    return T, np.abs(np.linalg.det(X[:, :, 1:] - X[:, :, :1])) > 0.0


def _cut_group(st_mesh: SpaceTimeMesh, values: np.ndarray, t: float,
               elems: np.ndarray, below, on, above):
    """Cut the elements ``elems``, whose local nodes ``below``, ``on`` and
    ``above`` the plane are the same for all of them.

    Returns the cut vertices (m, nv, n_sd), their field values
    (m, nv, ncomp), local simplices (m, s, n_sd+1) and a mask (m, s) of
    the simplices kept.  The vertices are the on-plane nodes, then one
    point per (below, above) edge.
    """
    n_sd = st_mesh.n_sd
    ids = st_mesh.elements[elems]
    m, nen = ids.shape
    X = st_mesh.nodes[ids][:, :, :n_sd]
    tk = st_mesh.times[ids]
    verts, wts, touched = [], [], []
    for i in on:
        verts.append(X[:, i])
        w = np.zeros((m, nen))
        w[:, i] = 1.0
        wts.append(w)
        touched.append({i})
    for i in below:
        for j in above:
            s = (t - tk[:, i]) / (tk[:, j] - tk[:, i])
            verts.append((1.0 - s)[:, None] * X[:, i] + s[:, None] * X[:, j])
            w = np.zeros((m, nen))
            w[:, i], w[:, j] = 1.0 - s, s
            wts.append(w)
            touched.append({i, j})
    nv = len(verts)
    V = np.stack(verts, axis=1)
    # a stacked matmul makes the same BLAS call per element as a single one
    vals = np.stack(wts, axis=1) @ values[ids]
    if nv == n_sd + 1:
        S = np.broadcast_to(np.arange(nv), (m, 1, nv))
        keep = np.ones((m, 1), dtype=bool)
    elif n_sd == 2:
        ring = _polygon_order(V)
        S = np.stack([ring[:, [0, k, k + 1]] for k in range(1, nv - 1)],
                     axis=1)
        keep = np.ones(S.shape[:2], dtype=bool)
    else:
        S, keep = _fan_polyhedra(V, touched, nen)
    return V, vals, S, keep


def slice_at_time(st_mesh: SpaceTimeMesh, values, t: float,
                  tol: float = None) -> SliceResult:
    """Intersect the mesh with the hyperplane time = t and interpolate fields."""
    values = np.asarray(values, dtype=float)
    span = st_mesh.tN - st_mesh.t0
    if tol is None:
        tol = 1e-12 * span
    if t < st_mesh.t0 - tol or t > st_mesh.tN + tol:
        raise EmptySlice(f"slice time {t} outside [{st_mesh.t0}, {st_mesh.tN}]")
    at_bottom = t <= st_mesh.t0 + tol

    n_sd = st_mesh.n_sd
    els = st_mesh.elements
    nen = els.shape[1]
    el_times = st_mesh.times[els]
    candidates = np.flatnonzero((el_times.min(axis=1) <= t + tol)
                                & (el_times.max(axis=1) >= t - tol))
    # node sides: 0 below, 1 on the plane, 2 above; one base-3 code each
    side = ((el_times[candidates] >= t - tol).astype(np.int64)
            + (el_times[candidates] > t + tol))
    code = side @ 3 ** np.arange(nen)
    pieces = []
    for c in np.unique(code):
        sides = c // 3 ** np.arange(nen) % 3
        below, on, above = (np.flatnonzero(sides == k) for k in range(3))
        if below.size:
            if not (above.size or on.size):
                continue
        elif not (at_bottom and on.size and above.size):
            continue
        if on.size + below.size * above.size < n_sd + 1:
            continue
        elems = candidates[code == c]
        V, vals, S, keep = _cut_group(st_mesh, values, t, elems,
                                      below, on, above)
        has = keep.any(axis=1)
        if has.any():
            pieces.append((elems[has], V[has], vals[has], S[has], keep[has]))
    if not pieces:
        raise EmptySlice(f"no elements intersect time {t}")

    # each element's vertices go out as one block, in element order
    elems = np.concatenate([p[0] for p in pieces])
    size = np.concatenate([np.full(len(p[0]), p[1].shape[1]) for p in pieces])
    order = np.argsort(elems)
    start = np.empty_like(size)
    start[order] = np.cumsum(size[order]) - size[order]
    nodes = np.empty((size.sum(), n_sd))
    vals = np.empty((size.sum(), values.shape[1]))
    simplices, owner = [], []
    first = 0
    for _, V, W, S, keep in pieces:
        m, nv = V.shape[:2]
        base = start[first:first + m]
        first += m
        rows = base[:, None] + np.arange(nv)
        nodes[rows] = V
        vals[rows] = W
        simplices.append((S + base[:, None, None])[keep])
        owner.append(np.broadcast_to(base[:, None], keep.shape)[keep])
    # a stable sort keeps each element's simplices in their fan order
    simplices = np.concatenate(simplices)[
        np.argsort(np.concatenate(owner), kind="stable")]
    mesh = SimplexMesh(nodes, simplices,
                       np.zeros((0, n_sd), dtype=np.int64),
                       np.zeros(0, dtype=np.int64), [])
    return SliceResult(mesh, vals, t)


def _inside(Jinv: np.ndarray, X0: np.ndarray, points: np.ndarray,
            tol: float) -> np.ndarray:
    """Whether each point lies in its element (all barycentric coordinates
    at least -tol), for (point, element) pairs given row by row."""
    xi = np.einsum("edk,ek->ed", Jinv, points - X0)
    return (xi >= -tol).all(axis=1) & (1.0 - xi.sum(axis=1) >= -tol)


def _locate(mesh: SimplexMesh, points: np.ndarray, tol: float) -> np.ndarray:
    """Owning element of each point: the lowest-index element that contains
    it, -1 for points outside the mesh or with a non-finite coordinate.

    A point with barycentric coordinates lam >= -tol in an element is
    x - b = sum(lam_i (x_i - b)) away from the barycenter b, so at most
    r (1 + 2 (dim+1) tol) in any axis scaling, r the largest
    barycenter-to-vertex distance.  One kd-tree ball query of that radius
    over the barycenters therefore returns every containing element.  Each
    axis is scaled by the largest element extent along it, which keeps the
    ball small on meshes whose elements are far thinner in time than in
    space.  The extents, the barycenters and the radius are computed over
    ``element_slices``, each gathering its vertices vertex-first, (dim+1,
    E, dim), so that every reduction runs over the leading axis and no
    (n_el, dim+1, dim) array of vertices is formed, and the candidate
    pairs are tested in batches of about
    _PAIR_BATCH, each gathering the first vertex of its candidates.  The
    inverse Jacobians are those of each batch's distinct candidates, or,
    when the pairs outnumber the elements, those of all elements at once,
    held for this call only: either way no more than min(pairs, n_el) are
    computed.
    """
    dim, n_el = mesh.dim, mesh.n_elements
    bary = np.empty((n_el, dim))
    extent = np.zeros(dim)
    for sl in element_slices(n_el):
        X = mesh.nodes[mesh.elements[sl].T]
        lo, hi = X.min(axis=0), X.max(axis=0)
        np.maximum(extent, (hi - lo).max(axis=0, initial=0.0), out=extent)
        bary[sl] = X.mean(axis=0)
    scale = 1.0 / extent
    r2 = 0.0
    for sl in element_slices(n_el):
        offsets = mesh.nodes[mesh.elements[sl].T] - bary[sl]
        offsets *= scale
        r2 = max(r2, np.einsum("vek,vek->ve", offsets, offsets).max(
            initial=0.0))
    radius = np.sqrt(r2) * (1.0 + 2 * (dim + 1) * tol)
    bary *= scale
    tree = cKDTree(bary, balanced_tree=False)
    finite = np.flatnonzero(np.isfinite(points).all(axis=1))
    query = points[finite] * scale
    counts = tree.query_ball_point(query, radius, return_length=True)
    batch = np.cumsum(counts) // _PAIR_BATCH
    Jinv = (mesh.gradients_of(slice(None))[:, 1:] if counts.sum() > n_el
            else None)
    owner = np.full(len(points), n_el, dtype=np.int64)
    for sel in np.split(np.arange(finite.size),
                        np.flatnonzero(np.diff(batch)) + 1):
        lists = tree.query_ball_point(query[sel], radius)
        cand = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                           count=counts[sel].sum())
        pid = np.repeat(finite[sel], counts[sel])
        inside = _inside(_inverse_jacobians(mesh, cand) if Jinv is None
                         else Jinv[cand],
                         mesh.nodes[mesh.elements[cand, 0]], points[pid], tol)
        np.minimum.at(owner, pid[inside], cand[inside])
    owner[owner == n_el] = -1
    return owner


def _inverse_jacobians(mesh: SimplexMesh, e: np.ndarray) -> np.ndarray:
    """(len(e), dim, dim) inverse Jacobians of the elements ``e``, which may
    repeat: ``gradients_of`` computes each distinct element once."""
    distinct, back = np.unique(e, return_inverse=True)
    return mesh.gradients_of(distinct)[:, 1:][back]


def _interpolate(mesh: SimplexMesh, values, points, owner):
    """(P1 values at ``points`` from their owners, NaN outside; found mask)."""
    values = np.asarray(values, dtype=float)
    found = owner >= 0
    out = np.full((len(points), values.shape[1]), np.nan)
    e = owner[found]
    # stacked matmuls make the BLAS calls of a one-point evaluation, so a
    # value does not depend on the other points probed with it
    x0 = mesh.nodes[mesh.elements[e, 0]]
    xi = _inverse_jacobians(mesh, e) @ (points[found] - x0)[:, :, None]
    N = basis_eval(xi[:, :, 0], mesh.dim)
    out[found] = (N[:, None, :] @ values[mesh.elements[e]])[:, 0]
    return out, found


def probe(mesh: SimplexMesh, values, points, tol: float = 1e-10):
    """P1 interpolation at arbitrary points.

    Each point goes to the lowest-index element containing it (barycentric
    coordinates at least -tol), found with a kd-tree ball query over
    element barycenters whose radius covers every containing element.
    Points outside the mesh and points with a non-finite coordinate are
    flagged as not found and get a NaN row.
    Returns (values (m, ncomp), found (m,) bool).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _interpolate(mesh, values, pts, _locate(mesh, pts, tol))


def probe_exhaustive(mesh: SimplexMesh, values: np.ndarray, points,
                     tol: float = 1e-10):
    """Brute-force point location over all elements (test oracle)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Jinv = mesh.jacobian_invs
    X0 = mesh.nodes[mesh.elements[:, 0]]
    owner = np.full(len(pts), -1, dtype=np.int64)
    for p, x in enumerate(pts):
        inside = np.flatnonzero(_inside(Jinv, X0, x, tol))
        if inside.size:
            owner[p] = inside[0]
    return _interpolate(mesh, values, pts, owner)


def l2_error(mesh: SimplexMesh, values: np.ndarray, exact_fn):
    """Elementwise degree-2 quadrature of |field - exact|^2.

    ``exact_fn(x, t)`` on a ``SpaceTimeMesh`` (``exact_fn(x)`` on a spatial
    mesh) returns the first k reference components; only those are
    compared.  Returns a dict with per-component and total absolute errors
    and exact-solution norms.
    """
    values = np.asarray(values, dtype=float)
    rule = simplex_quadrature(mesh.dim, 2)
    N = basis_eval(rule.points, mesh.dim)
    x_q = np.einsum("qa,ead->eqd", N, mesh.element_coords)
    u_q = np.einsum("qa,eac->eqc", N, values[mesh.elements])
    wdet = rule.weights[None, :] * np.abs(mesh.jacobian_dets)[:, None]
    return _l2_sums(x_q, u_q, wdet, exact_fn, isinstance(mesh, SpaceTimeMesh))


def _l2_sums(x_q, u_q, wdet, exact_fn, space_time):
    """The norms of :func:`l2_error` from the points ``x_q`` (E, nq, dim),
    values ``u_q`` and weights ``wdet`` of a quadrature rule on E elements."""
    flat = x_q.reshape(-1, x_q.shape[-1])
    if space_time:
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
    n_sd = slab.n_sd
    rule = prism_quadrature(n_sd, 2)
    xi, th = rule.points[:, :n_sd], rule.points[:, n_sd]
    x_q, _, detJ, _ = prism_geometry(*slab.corners(), slab.t_bottom, slab.dt,
                                     xi, th)
    els = slab.spatial.elements
    conn = np.hstack([els, els + slab.spatial.n_nodes])
    u_q = np.einsum("qa,eac->eqc", prism_shape_functions(xi, th),
                    values[conn])
    wdet = rule.weights[None, :] * np.abs(detJ)
    return _l2_sums(x_q, u_q, wdet, exact_fn, True)


def global_divergence(mesh: SpaceTimeMesh, values: np.ndarray) -> float:
    """sqrt of the integral of (div u)^2 over the space-time domain.

    div u is taken per element in ``element_slices``, from each slice's own
    P1 gradients, and the integral is one sum over all elements."""
    n_sd = mesh.n_sd
    div = np.empty(mesh.n_elements)
    for sl in element_slices(len(div)):
        div[sl] = np.einsum("eai,eai->e", mesh.gradients_of(sl)[:, :, :n_sd],
                            values[mesh.elements[sl]][:, :, :n_sd])
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


def _rows(row_format: str, array) -> str:
    """One ``row_format`` line per row of a 2D array, as a single string."""
    array = np.asarray(array)
    return (row_format * len(array)) % tuple(array.ravel().tolist())


def export_vtk(mesh: SimplexMesh, velocity: np.ndarray, pressure: np.ndarray,
               path, title: str = "ustflow output"):
    """Legacy ASCII VTK unstructured grid (triangles or tetrahedra).

    Reals are written with ``%.9g``, padded to three components with 0.
    """
    if mesh.dim == 2:
        cell_type = 5
    elif mesh.dim == 3:
        cell_type = 10
    else:
        raise IoFailure(f"cannot export meshes of dimension {mesh.dim}")
    nen = mesh.dim + 1

    def padded(a):
        a = np.asarray(a, dtype=float)
        return np.hstack([a, np.zeros((len(a), 3 - a.shape[1]))])

    try:
        with open(path, "w") as f:
            f.write("# vtk DataFile Version 3.0\n")
            f.write(title + "\n")
            f.write("ASCII\n")
            f.write("DATASET UNSTRUCTURED_GRID\n")
            f.write(f"POINTS {mesh.n_nodes} double\n")
            f.write(_rows("%.9g %.9g %.9g\n", padded(mesh.nodes)))
            f.write(f"CELLS {mesh.n_elements} {mesh.n_elements * (nen + 1)}\n")
            f.write(_rows(f"{nen}" + " %d" * nen + "\n", mesh.elements))
            f.write(f"CELL_TYPES {mesh.n_elements}\n")
            f.write(f"{cell_type}\n" * mesh.n_elements)
            f.write(f"POINT_DATA {mesh.n_nodes}\n")
            f.write("VECTORS velocity double\n")
            f.write(_rows("%.9g %.9g %.9g\n", padded(velocity)))
            f.write("SCALARS pressure double\n")
            f.write("LOOKUP_TABLE default\n")
            f.write(_rows("%.9g\n", np.reshape(pressure, (-1, 1))))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
