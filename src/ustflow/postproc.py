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
written out in element order.  On a space-time stack
(``SpaceTimeMesh.level_stack``) only the element levels whose node times
meet the plane are read.

Probing and slicing see a mesh as its ``LevelStack``: L element levels,
each level 0 under a rigid motion; a mesh without a stack, and every
spatial mesh, is one level under the identity.  Probing builds one kd-tree
over level 0's element barycenters.  Each point goes to the element levels
whose time span holds it (two near a node-level time), is moved into level
0's frame by that level's inverse motion, and takes every level-0
element whose barycenter lies within a radius that provably covers all
containing elements (one ball query).  Those elements, shifted back to
the point's level, are tested in barycentric coordinates on the mesh's
own nodes, and the point goes to the lowest-index containing element, so
the owners are those of a test of every element.
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
# a probe's owner has barycentric coordinates at least -PROBE_TOL
PROBE_TOL = 1e-10
# a slice meets the node times within SLICE_TOL times the time span
SLICE_TOL = 1e-12


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


def slice_at_time(st_mesh: SpaceTimeMesh, values, t: float) -> SliceResult:
    """Intersect the mesh with the hyperplane time = t and interpolate fields.

    Only the element levels of the mesh's ``LevelStack`` whose node times
    (``_level_spans``) meet [t - tol, t + tol], tol = ``SLICE_TOL`` times
    the time span, are read: their elements' node times are gathered and
    filtered as the whole mesh's would be, so the candidates, and the
    slice, are those of an all-element filter.
    A mesh without a stack is one level.
    """
    values = np.asarray(values, dtype=float)
    tol = SLICE_TOL * (st_mesh.tN - st_mesh.t0)
    if t < st_mesh.t0 - tol or t > st_mesh.tN + tol:
        raise EmptySlice(f"slice time {t} outside [{st_mesh.t0}, {st_mesh.tN}]")
    at_bottom = t <= st_mesh.t0 + tol

    n_sd = st_mesh.n_sd
    nen = st_mesh.elements.shape[1]
    n_per, lo, hi = _level_spans(st_mesh)
    levels = np.flatnonzero((lo <= t + tol) & (hi >= t - tol))
    near = (levels[:, None] * n_per + np.arange(n_per)).ravel()
    el_times = st_mesh.times[st_mesh.elements[near]]
    meets = ((el_times.min(axis=1) <= t + tol)
             & (el_times.max(axis=1) >= t - tol))
    candidates = near[meets]
    # node sides: 0 below, 1 on the plane, 2 above; one base-3 code each
    side = ((el_times[meets] >= t - tol).astype(np.int64)
            + (el_times[meets] > t + tol))
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


def _level_spans(mesh: SimplexMesh):
    """(n_per, lo, hi): element level k of ``mesh``'s ``LevelStack`` is
    elements k*n_per to (k+1)*n_per, and [lo_k, hi_k] spans the times of
    its nodes, node levels k and k+1.  A space-time mesh without a stack
    is one level over all its node times; a spatial mesh is one level at
    time 0."""
    if not isinstance(mesh, SpaceTimeMesh):
        return mesh.n_elements, np.zeros(1), np.zeros(1)
    stack = mesh.level_stack
    if stack.L == 1:
        return (stack.n_per, mesh.times.min(keepdims=True),
                mesh.times.max(keepdims=True))
    times = mesh.times.reshape(stack.L + 1, stack.n_sp)
    lo, hi = times.min(axis=1), times.max(axis=1)
    return (stack.n_per, np.minimum(lo[:-1], lo[1:]),
            np.maximum(hi[:-1], hi[1:]))


def _level_motions(mesh: SimplexMesh, scale: np.ndarray):
    """(M, d, dev): x @ M[k] + d[k] takes a point of element level k to
    level 0's frame, and ``dev`` is the largest distance, each axis
    scaled by ``scale``, of a node of level k's image from its level-0
    twin.

    M[k] is diag(R_k, 1), R_k the stack's rotation of level k (a node
    q of level k is about (p - p_0) R_k^T + q_k, p its level-0 twin), and
    d[k] = p_0 - q_k M[k] takes level k's centroid q_k, the mean of node
    levels k and k+1 as ``_level_stack`` forms it, to level 0's, p_0,
    time included.  So d[0] = 0 and level 0's image of a point is the
    point itself, bit for bit.  A mesh that is one level has M = [I],
    d = [0] and dev = 0.
    """
    dim = mesh.dim
    if not isinstance(mesh, SpaceTimeMesh) or mesh.level_stack.L == 1:
        return np.eye(dim)[None], np.zeros((1, dim)), 0.0
    stack = mesh.level_stack
    n_sp, L = stack.n_sp, stack.L
    M = np.zeros((L, dim, dim))
    M[:, :-1, :-1] = stack.rotations
    M[:, -1, -1] = 1.0
    base = mesh.nodes[:2 * n_sp]
    p0 = base.mean(axis=0)
    d = np.empty((L, dim))
    dev = 0.0
    for k in range(L):
        q = mesh.nodes[k * n_sp:(k + 2) * n_sp]
        d[k] = p0 - q.mean(axis=0) @ M[k]
        err = (q @ M[k] + d[k] - base) * scale
        dev = max(dev, np.einsum("ij,ij->i", err, err).max())
    return M, d, float(np.sqrt(dev))


def _locate(mesh: SimplexMesh, points: np.ndarray, tol: float) -> np.ndarray:
    """Owning element of each point: the lowest-index element that contains
    it, -1 for points outside the mesh or with a non-finite coordinate.

    The search runs on element level 0 of the mesh's ``LevelStack``
    (``_level_spans``): one kd-tree over its barycenters answers every
    level.  A point with barycentric coordinates lam >= -tol in an element
    has a time within 2 (dim+1) tol (hi_k - lo_k) of its level's span
    [lo_k, hi_k] (twice the exact bound, for rounding), so each point is
    sent to the one or two levels whose widened span holds it, and there
    to level 0's frame by that level's rigid motion (``_level_motions``).
    In level 0 the point's image is x - b = sum(lam_i (x_i - b)) away from
    the barycenter b of the level-0 twin of a containing element, so at
    most (r + dev) (1 + 2 (dim+1) tol) in any axis scaling: r is level
    0's largest barycenter-to-vertex distance, and ``dev`` bounds how far
    the motion's image of a level's vertices lies from level 0's.  One
    ball query of that radius therefore returns every containing
    element's twin.  Each axis is scaled by level 0's largest element
    extent along it, which keeps the ball small on meshes whose elements
    are far thinner in time than in space.  The extents, the barycenters
    and the radius are computed over ``element_slices`` of level 0, each
    gathering its vertices vertex-first, (dim+1, E, dim), so that every
    reduction runs over the leading axis.

    The twins, shifted by k*n_per, are tested on the mesh's own elements
    with the point's own coordinates, in batches of about _PAIR_BATCH
    pairs, each gathering the first vertex of its candidates, and the
    lowest-index container wins: the owners are those of a test of every
    element.  The inverse Jacobians are those of each batch's distinct
    candidates, or, when the pairs outnumber the elements, those of all
    elements at once, held for this call only: either way no more than
    min(pairs, n_el) are computed.  A mesh without a stack, and every
    spatial mesh, is one level under the identity, and its points are
    located in place.
    """
    dim, n_el = mesh.dim, mesh.n_elements
    n_per, lo, hi = _level_spans(mesh)
    base = mesh.elements[:n_per]
    bary = np.empty((n_per, dim))
    extent = np.zeros(dim)
    for sl in element_slices(n_per):
        X = mesh.nodes[base[sl].T]
        lo_x, hi_x = X.min(axis=0), X.max(axis=0)
        np.maximum(extent, (hi_x - lo_x).max(axis=0, initial=0.0), out=extent)
        bary[sl] = X.mean(axis=0)
    scale = 1.0 / extent
    r2 = 0.0
    for sl in element_slices(n_per):
        offsets = mesh.nodes[base[sl].T] - bary[sl]
        offsets *= scale
        r2 = max(r2, np.einsum("vek,vek->ve", offsets, offsets).max(
            initial=0.0))
    M, d, dev = _level_motions(mesh, scale)
    radius = (np.sqrt(r2) + dev) * (1.0 + 2 * (dim + 1) * tol)
    bary *= scale
    tree = cKDTree(bary, balanced_tree=False)

    # the element levels of each finite point, first to stop - 1
    finite = np.flatnonzero(np.isfinite(points).all(axis=1))
    t = (points[finite, -1] if isinstance(mesh, SpaceTimeMesh)
         else np.zeros(finite.size))
    wide = 2 * (dim + 1) * tol * (hi - lo)
    first = np.searchsorted(hi + wide, t, side="left")
    n_levels = np.maximum(np.searchsorted(lo - wide, t, side="right") - first,
                          0)
    point = np.repeat(finite, n_levels)
    level = np.arange(point.size) + np.repeat(
        first - np.cumsum(n_levels) + n_levels, n_levels)
    query = (np.einsum("pi,pij->pj", points[point], M[level])
             + d[level]) * scale

    counts = tree.query_ball_point(query, radius, return_length=True)
    batch = np.cumsum(counts) // _PAIR_BATCH
    Jinv = (mesh.gradients_of(slice(None))[:, 1:] if counts.sum() > n_el
            else None)
    owner = np.full(len(points), n_el, dtype=np.int64)
    for sel in np.split(np.arange(point.size),
                        np.flatnonzero(np.diff(batch)) + 1):
        lists = tree.query_ball_point(query[sel], radius)
        cand = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                           count=counts[sel].sum())
        cand += np.repeat(level[sel] * n_per, counts[sel])
        pid = np.repeat(point[sel], counts[sel])
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


def probe(mesh: SimplexMesh, values, points):
    """P1 interpolation at arbitrary points.

    Each point goes to the lowest-index element containing it (barycentric
    coordinates at least -``PROBE_TOL``), found by ``_locate``: a kd-tree
    ball query over level 0's element barycenters, in level 0's frame,
    from the element levels that the point's time touches, whose radius
    covers every containing element.
    Points outside the mesh and points with a non-finite coordinate are
    flagged as not found and get a NaN row.
    Returns (values (m, ncomp), found (m,) bool).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _interpolate(mesh, values, pts, _locate(mesh, pts, PROBE_TOL))


def probe_exhaustive(mesh: SimplexMesh, values: np.ndarray, points):
    """Brute-force point location over all elements (test oracle)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Jinv = mesh.jacobian_invs
    X0 = mesh.nodes[mesh.elements[:, 0]]
    owner = np.full(len(pts), -1, dtype=np.int64)
    for p, x in enumerate(pts):
        inside = np.flatnonzero(_inside(Jinv, X0, x, PROBE_TOL))
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


def probe_vorticity(mesh: SimplexMesh, values: np.ndarray, points):
    """Vorticity of the owning element at each probe point (2D)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vort = element_vorticity(mesh, values)
    owner = _locate(mesh, pts, PROBE_TOL)
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
