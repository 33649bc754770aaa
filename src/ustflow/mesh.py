"""Simplicial meshes in dimensions 2 to 4.

A mesh is a flat array bundle: node coordinates, element connectivity and a
tagged boundary facet list.  Space-time meshes carry time as the last
coordinate and additionally classify their boundary facets into the bottom
cap (t = t0), the top cap (t = tN) and the mantle (everything else, which
inherits the spatial tags).

The constructor computes ``jacobian_dets``, the mesh's one determinant
pass.  With ``fix_orientation`` it swaps the last two nodes of each element
with det J < 0, so that every element is positively oriented, and
recomputes only those determinants.

Element geometry is computed element-last (the element axis last, so each
arithmetic step runs over a slice of elements) in slices of ``_SLICE``
elements.  Determinants and inverses of the d x d Jacobians, d <= 4, come
from the cofactor expansion in ``cofactor_det``, not from a batched LAPACK
call per element.  The only cached copy of the inverse Jacobians is the P1
``gradients`` array.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property

import numpy as np

from .errors import DegenerateElement, MeshTopologyError

DEGENERACY_FACTOR = 1e-14


def degenerate(det, h, dim: int):
    """det <= DEGENERACY_FACTOR * h^dim, h the longest edge: the one
    degeneracy bound.  Pass |det J| to flag flat elements, det J to flag
    inverted ones too; ``<=`` flags coincident vertices (det = h = 0)."""
    return det <= DEGENERACY_FACTOR * h ** dim


def reference_gradients(dim: int) -> np.ndarray:
    """Gradients of the P1 basis on the unit right simplex, shape (dim+1, dim)."""
    grads = np.zeros((dim + 1, dim))
    grads[0, :] = -1.0
    grads[1:, :] = np.eye(dim)
    return grads


def basis_eval(xi, dim: int) -> np.ndarray:
    """Evaluate the dim+1 P1 basis functions at reference coordinates.

    ``xi`` may be a single point of length ``dim`` or an array (..., dim).
    Evaluation outside the reference simplex is permitted (used when
    interpolating along cut edges); use :func:`in_reference` to flag it.
    """
    xi = np.asarray(xi, dtype=float)
    vals = np.empty(xi.shape[:-1] + (dim + 1,))
    vals[..., 0] = 1.0 - xi.sum(axis=-1)
    vals[..., 1:] = xi
    return vals


def in_reference(xi, tol: float = 1e-12) -> np.ndarray:
    """True where reference coordinates lie inside the unit simplex."""
    xi = np.asarray(xi, dtype=float)
    return (xi >= -tol).all(axis=-1) & (xi.sum(axis=-1) <= 1.0 + tol)


def _sorted_facet_rows(elements: np.ndarray):
    """All element facets as sorted node-id rows.

    Returns (facets, owners, local) where ``facets`` has one row per
    (element, omitted-node) pair with node ids sorted ascending.
    """
    n_el, nen = elements.shape
    facets = np.empty((n_el * nen, nen - 1), dtype=elements.dtype)
    owners = np.repeat(np.arange(n_el), nen)
    local = np.tile(np.arange(nen), n_el)
    for k in range(nen):
        keep = [j for j in range(nen) if j != k]
        facets[k::nen, :] = elements[:, keep]
    facets.sort(axis=1)
    return facets, owners, local


class SimplexMesh:
    """Conforming simplicial mesh with tagged boundary facets.

    Parameters
    ----------
    nodes : (n_nodes, dim) float array
    elements : (n_el, dim+1) int array
    boundary_facets : (n_bf, dim) int array
    boundary_tags : (n_bf,) int array of indices into ``tag_names``
    tag_names : list of str
    boundary_owners : optional (n_bf,) int array; derived when omitted
    fix_orientation : swap the last two nodes of each element with det J < 0
    """

    def __init__(self, nodes, elements, boundary_facets, boundary_tags,
                 tag_names, boundary_owners=None, fix_orientation=True):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        self.boundary_facets = np.ascontiguousarray(boundary_facets, dtype=np.int64)
        self.boundary_tags = np.ascontiguousarray(boundary_tags, dtype=np.int64)
        self.tag_names = list(tag_names)

        if self.nodes.ndim != 2:
            raise MeshTopologyError("nodes must be a 2-d array")
        dim = self.nodes.shape[1]
        if dim not in (2, 3, 4):
            raise MeshTopologyError(f"unsupported mesh dimension {dim}")
        if self.elements.shape[1] != dim + 1:
            raise MeshTopologyError("elements must have dim+1 nodes")
        if not np.isfinite(self.nodes).all():
            raise MeshTopologyError("non-finite node coordinates")
        if self.elements.size and (self.elements.min() < 0
                                   or self.elements.max() >= len(self.nodes)):
            raise MeshTopologyError("element node id out of range")

        det = _det_of(self.nodes, self.elements)
        neg = np.flatnonzero(det < 0.0) if fix_orientation else []
        if len(neg):
            els = self.elements.copy()
            els[neg, -2:] = els[neg, -1:-3:-1]
            self.elements = els
            det[neg] = _det_of(self.nodes, els[neg])
        self.jacobian_dets = det

        if boundary_owners is None:
            self._boundary_owners = None
        else:
            self._boundary_owners = np.ascontiguousarray(boundary_owners,
                                                         dtype=np.int64)

        for arr in (self.nodes, self.elements, self.boundary_facets,
                    self.boundary_tags, self.jacobian_dets):
            arr.setflags(write=False)

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def tag_id(self, name: str) -> int:
        return self.tag_names.index(name)

    def facets_with_tag(self, name: str) -> np.ndarray:
        """Indices of boundary facets carrying the given tag."""
        return np.flatnonzero(self.boundary_tags == self.tag_id(name))

    @property
    def boundary_owners(self) -> np.ndarray:
        if self._boundary_owners is None:
            self._boundary_owners = self._derive_owners()
            self._boundary_owners.setflags(write=False)
        return self._boundary_owners

    def _derive_owners(self) -> np.ndarray:
        facets, owners, _ = _sorted_facet_rows(self.elements)
        order = np.lexsort(facets.T[::-1])
        facets = facets[order]
        owners = owners[order]
        listed = np.sort(self.boundary_facets, axis=1)
        idx = _find_rows(facets, listed)
        if (idx < 0).any():
            raise MeshTopologyError("boundary facet is not a facet of any element")
        return owners[idx]

    # -- element geometry --------------------------------------------------

    @cached_property
    def element_coords(self) -> np.ndarray:
        """(n_el, dim+1, dim) coordinates of element nodes."""
        return self.nodes[self.elements]

    @cached_property
    def measures(self) -> np.ndarray:
        """Element measures |det J| / dim!."""
        return np.abs(self.jacobian_dets) / math.factorial(self.dim)

    @property
    def jacobian_invs(self) -> np.ndarray:
        """(n_el, dim, dim) inverse Jacobians: a view of ``gradients``."""
        return self.gradients[:, 1:]

    @cached_property
    def gradients(self) -> np.ndarray:
        """(n_el, dim+1, dim) physical gradients of the P1 basis (constant per
        element).

        A degenerate mesh raises before any inverse is formed; then each
        slice's inverse Jacobians, adj J / det J, are built element-last and
        copied into rows 1..dim, with row 0 their negated column sums.
        """
        det = self.jacobian_dets
        bad = degenerate(np.abs(det), self.max_edge_lengths, self.dim)
        if bad.any():
            raise DegenerateElement(
                f"degenerate elements: {np.flatnonzero(bad)[:10].tolist()}")
        X, dim = self.element_coords, self.dim
        grads = np.empty((len(X), dim + 1, dim))
        for sl in element_slices(len(X)):
            inv = np.empty((dim + 1, dim, len(det[sl])))
            cofactor_det(jacobians_last(X[sl]), inv[1:])
            np.divide(inv[1:], det[sl], out=inv[1:])
            np.negative(inv[1], out=inv[0])
            for k in range(2, dim + 1):
                inv[0] -= inv[k]
            grads[sl] = inv.transpose(2, 0, 1)
        return grads

    @cached_property
    def barycenters(self) -> np.ndarray:
        return self.element_coords.mean(axis=1)

    @cached_property
    def max_edge_lengths(self) -> np.ndarray:
        # per slice, (nen, dim, E): each node's coordinates are contiguous
        # rows; the squared lengths add the coordinates in order, as a norm
        # does, and one sqrt of their maximum follows
        X, nen = self.element_coords, self.dim + 1
        h2 = np.zeros(len(X))
        for sl in element_slices(len(X)):
            Xl = np.ascontiguousarray(X[sl].transpose(1, 2, 0))
            h = h2[sl]
            for i in range(nen):
                for j in range(i + 1, nen):
                    d = Xl[i] - Xl[j]
                    d *= d
                    np.maximum(h, d.sum(axis=0), out=h)
        return np.sqrt(h2)

    @cached_property
    def total_measure(self) -> float:
        return float(self.measures.sum())


class SpaceTimeMesh(SimplexMesh):
    """Simplicial space-time mesh; the last coordinate is time.

    ``bottom_facets`` / ``top_facets`` / ``mantle_facets`` are index arrays
    into the boundary facet list and partition it.
    """

    def __init__(self, nodes, elements, boundary_facets, boundary_tags,
                 tag_names, t0, tN, boundary_owners=None,
                 facet_groups=None, fix_orientation=True, tol=None):
        super().__init__(nodes, elements, boundary_facets, boundary_tags,
                         tag_names, boundary_owners=boundary_owners,
                         fix_orientation=fix_orientation)
        self.t0 = float(t0)
        self.tN = float(tN)
        if facet_groups is None:
            facet_groups = classify_boundary(self, self.t0, self.tN, tol=tol)
        self.bottom_facets, self.top_facets, self.mantle_facets = (
            np.ascontiguousarray(g, dtype=np.int64) for g in facet_groups)
        for arr in (self.bottom_facets, self.top_facets, self.mantle_facets):
            arr.setflags(write=False)

    @property
    def n_sd(self) -> int:
        return self.dim - 1

    @property
    def times(self) -> np.ndarray:
        return self.nodes[:, -1]

    @property
    def spatial_coords(self) -> np.ndarray:
        return self.nodes[:, :-1]


# -- spec-level per-element operations --------------------------------------

def element_jacobian(mesh: SimplexMesh, e: int):
    """Jacobian of element ``e`` and its determinant.

    Raises DegenerateElement when |det| falls below the scale-invariant
    degeneracy threshold.
    """
    J = jacobians_last(mesh.element_coords[e][None])[..., 0]
    det = mesh.jacobian_dets[e]
    if degenerate(abs(det), mesh.max_edge_lengths[e], mesh.dim):
        raise DegenerateElement(f"element {e} is degenerate (det={det:g})")
    return J, det


def element_measure(mesh: SimplexMesh, e: int) -> float:
    _, det = element_jacobian(mesh, e)
    return abs(det) / math.factorial(mesh.dim)


def basis_gradients(mesh: SimplexMesh, e: int) -> np.ndarray:
    """(dim+1, dim) physical gradients of the P1 basis on element ``e``."""
    element_jacobian(mesh, e)  # degeneracy guard
    return mesh.gradients[e]


def map_local_to_global(mesh: SimplexMesh, e: int, xi) -> np.ndarray:
    """Affine map from reference coordinates to global coordinates."""
    N = basis_eval(xi, mesh.dim)
    return N @ mesh.element_coords[e]


def time_levels(times):
    """Group node times into distinct time levels.

    Times are visited in stable sorted order; a time within 1e-12 * span
    (span = max(t_max - t_min, 1)) of the first time of the current level
    joins it, any other opens the next level.  Returns (level index of
    every node, the node that opens each level).
    """
    times = np.asarray(times, dtype=float)
    tol = 1e-12 * max(times.max() - times.min(), 1.0)
    order = np.argsort(times, kind="stable")
    ts = times[order].tolist()
    starts = [0]
    while starts[-1] < len(ts):
        t0 = ts[starts[-1]]
        starts.append(bisect.bisect_right(ts, tol, lo=starts[-1],
                                          key=lambda t: t - t0))
    starts = np.asarray(starts)
    levels = np.empty(len(ts), dtype=np.int64)
    levels[order] = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    return levels, order[starts[:-1]]


def classify_boundary(mesh: SimplexMesh, t0: float, tN: float, tol=None):
    """Partition boundary facets into (bottom, top, mantle) index arrays.

    A facet is bottom iff all node times are within ``tol`` of ``t0``, top
    iff within ``tol`` of ``tN``.  ``tol`` defaults to 1e-12 * (tN - t0);
    tol = 0 demands exact equality.
    """
    if tol is None:
        tol = 1e-12 * (tN - t0)
    times = mesh.nodes[:, -1][mesh.boundary_facets]
    at_bottom = np.abs(times - t0) <= tol
    at_top = np.abs(times - tN) <= tol
    bottom = at_bottom.all(axis=1)
    top = at_top.all(axis=1)

    mixed = at_bottom.any(axis=1) & at_top.any(axis=1) & ~(bottom | top)
    if mixed.any():
        coords = mesh.nodes[:, :-1][mesh.boundary_facets[mixed]]
        extent = (coords.max(axis=1) - coords.min(axis=1)).max(axis=1)
        if (extent <= tol).any():
            raise MeshTopologyError(
                "facet mixes t0 and tN nodes with zero spatial extent")

    bottom_idx = np.flatnonzero(bottom)
    top_idx = np.flatnonzero(top & ~bottom)
    mantle_idx = np.flatnonzero(~(bottom | (top & ~bottom)))
    return bottom_idx, top_idx, mantle_idx


def validate_mesh(mesh: SimplexMesh) -> list:
    """Check conformity, positive measures and boundary closure.

    Returns a list of violation strings; an empty list means the mesh is
    valid.
    """
    problems = []

    if not np.isfinite(mesh.nodes).all():
        problems.append("non-finite node coordinates")

    nen = mesh.dim + 1
    ids = mesh.elements
    sorted_ids = np.sort(ids, axis=1)
    if (np.diff(sorted_ids, axis=1) == 0).any():
        problems.append("element with repeated node ids")

    small = degenerate(np.abs(mesh.jacobian_dets), mesh.max_edge_lengths,
                       mesh.dim)
    if small.any():
        problems.append(
            f"{int(small.sum())} element(s) with non-positive/degenerate measure")

    facets, owners, _ = _sorted_facet_rows(mesh.elements)
    order = np.lexsort(facets.T[::-1])
    facets = facets[order]
    owners = owners[order]
    uniq, start, counts = _unique_rows(facets)

    if (counts > 2).any():
        problems.append("facet shared by more than two elements")

    once = counts == 1
    boundary_rows = uniq[once]
    listed = np.sort(mesh.boundary_facets, axis=1)
    listed_order = np.lexsort(listed.T[::-1])
    listed_sorted = listed[listed_order]
    dup = (np.diff(listed_sorted, axis=0) == 0).all(axis=1)
    if dup.any():
        problems.append("duplicate boundary facet listed")

    idx = _find_rows(boundary_rows, listed_sorted)
    if (idx < 0).any():
        problems.append(
            f"{int((idx < 0).sum())} boundary facet(s) listed but interior or unknown")
    missing = len(boundary_rows) - len(listed_sorted)
    if missing > 0:
        problems.append(
            f"{missing} element facet(s) on the boundary but not listed")
    elif missing < 0:
        problems.append(
            f"{-missing} listed boundary facet(s) in excess of the true boundary")

    # owners stated vs derived
    if mesh._boundary_owners is not None and not problems:
        stated = mesh._boundary_owners
        derived_idx = _find_rows(facets, listed)
        ok = derived_idx >= 0
        if not ok.all() or not (owners[derived_idx[ok]] == stated[ok]).all():
            problems.append("boundary facet owner inconsistent with connectivity")

    if isinstance(mesh, SpaceTimeMesh):
        groups = np.concatenate([mesh.bottom_facets, mesh.top_facets,
                                 mesh.mantle_facets])
        if len(groups) != len(mesh.boundary_facets) or \
                len(np.unique(groups)) != len(mesh.boundary_facets):
            problems.append("bottom/top/mantle do not partition the boundary")

    return problems


def _unique_rows(sorted_rows: np.ndarray):
    """(unique rows, start index, counts) of a lexsorted row array."""
    if len(sorted_rows) == 0:
        return sorted_rows, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    change = np.empty(len(sorted_rows), dtype=bool)
    change[0] = True
    change[1:] = (np.diff(sorted_rows, axis=0) != 0).any(axis=1)
    start = np.flatnonzero(change)
    counts = np.diff(np.append(start, len(sorted_rows)))
    return sorted_rows[start], start, counts


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Rows of non-negative ints as void scalars whose byte order is row order."""
    rows = np.ascontiguousarray(rows, dtype=">i8")  # big-endian: byte order == value order
    dt = np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    return rows.view(dt).ravel()


def _find_rows(haystack_sorted: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Index of each needle row in a lexsorted haystack, -1 when absent."""
    if len(needles) == 0:
        return np.zeros(0, dtype=np.int64)
    if len(haystack_sorted) == 0:
        return np.full(len(needles), -1, dtype=np.int64)
    hv = _row_bytes(haystack_sorted)
    nv = _row_bytes(needles)
    pos = np.searchsorted(hv, nv)
    pos = np.clip(pos, 0, len(hv) - 1)
    found = hv[pos] == nv
    return np.where(found, pos.astype(np.int64), -1)


def _det_of(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    return np.concatenate([cofactor_det(jacobians_last(nodes[elements[sl]]))
                           for sl in element_slices(len(elements))])


# elements per slice of the element-last geometry; bounds its transients
_SLICE = 1 << 15


def element_slices(n: int) -> list:
    """Slices of at most ``_SLICE`` of n elements, in order; one when n = 0."""
    return [slice(lo, lo + _SLICE) for lo in range(0, max(n, 1), _SLICE)]


def jacobians_last(X: np.ndarray) -> np.ndarray:
    """Element-last Jacobians (dim, dim, n) of simplices with vertex
    coordinates X (n, dim+1, dim): column d is x_{d+1} - x_1."""
    Xl = np.moveaxis(X, 0, -1)
    J = np.empty((X.shape[2], X.shape[2], len(X)))
    np.subtract(Xl[1:].swapaxes(0, 1), Xl[0][:, None], out=J)
    return J


def cofactor_det(J: np.ndarray, adj: np.ndarray = None) -> np.ndarray:
    """Determinants of element-last square matrices J (d, d, n), d = 2, 3
    or 4, by cofactor expansion along the first row.

    With ``adj`` (d, d, n) it also writes there the adjugate, the transposed
    cofactors, so that J^-1 = adj / det.  A 4x4 cofactor is expanded along
    the row that pairs with the 2x2 minors of rows (2, 3), or of rows (0, 1)
    for the cofactors of rows 2 and 3, so each minor is formed once.  The
    result is within a few ulps times cond(J) of LAPACK's ``det`` and
    ``inv``, at a fraction of their cost for small matrices.
    """
    d = J.shape[0]
    if d == 2:
        def cofactor(i, j):
            c = J[1 - i, 1 - j]
            return c if i == j else -c
    elif d == 3:
        def cofactor(i, j):
            i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
            return J[i1, j1] * J[i2, j2] - J[i1, j2] * J[i2, j1]
    elif d == 4:
        minors = {}

        def minor(rows, a, b):
            key = (rows, a, b)
            if key not in minors:
                r0, r1 = rows
                minors[key] = J[r0, a] * J[r1, b] - J[r0, b] * J[r1, a]
            return minors[key]

        def cofactor(i, j):
            rows, r = ((2, 3), 1 - i) if i < 2 else ((0, 1), 5 - i)
            k0, k1, k2 = (k for k in range(4) if k != j)
            t0 = J[r, k0] * minor(rows, k1, k2)
            t1 = J[r, k1] * minor(rows, k0, k2)
            t2 = J[r, k2] * minor(rows, k0, k1)
            return t0 - t1 + t2 if (i + j) % 2 == 0 else t1 - t0 - t2
    else:
        raise ValueError(f"cofactor_det takes d = 2, 3 or 4, not {d}")
    first = [cofactor(0, k) for k in range(d)]
    det = J[0, 0] * first[0]
    for k in range(1, d):
        det += J[0, k] * first[k]
    if adj is not None:
        for j in range(d):
            adj[j, 0] = first[j]
            for i in range(1, d):
                adj[j, i] = cofactor(i, j)
    return det
