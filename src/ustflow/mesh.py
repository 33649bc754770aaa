"""Simplicial meshes in dimensions 2 to 4.

A mesh is a flat array bundle: node coordinates, element connectivity and a
tagged boundary facet list.  Space-time meshes carry time as the last
coordinate and additionally classify their boundary facets into the bottom
cap (t = t0), the top cap (t = tN) and the mantle (everything else, which
inherits the spatial tags).

The constructor computes ``jacobian_dets``, the mesh's one determinant
pass.  With ``fix_orientation`` it swaps the last two nodes of each element
with det J < 0, so that every element is positively oriented, and
recomputes only those determinants.  On a space-time stack (below) that
pass covers level 0 alone, and so do the fix and ``max_edge_lengths``.

Element geometry is computed element-last (the element axis last, so each
arithmetic step runs over a slice of elements) in slices of ``_SLICE``
elements.  Determinants and inverses of the d x d Jacobians, d <= 4, come
from the cofactor expansion in ``cofactor_det``, not from a batched LAPACK
call per element.  The mesh caches the inverse Jacobians only as the P1
``gradients`` array of all elements, which the whole-mesh metric and the
2D vorticity read.  Everything else reads no cached copy: it takes
the gradients of just the elements it needs from ``gradients_of``, the
same slice loop: an assembly problem those of one level of the mesh's
``level_stack``, point location its candidates (or all elements once
per call, when there are more candidate pairs), interpolation the
owners, the divergence norm one slice at a time and the per-element
helpers one element.  No copy of the element coordinates
is cached: each slice loop and each per-element helper gathers
``nodes[elements[sl]]`` for its own elements.

A space-time mesh extruded through L levels is a stack: element level k is
level 0's elements with node ids shifted by k levels, on nodes that are
level 0's under a rigid motion.  The mesh's ``LevelStack``,
``SpaceTimeMesh.level_stack``, is found by comparison, never by assumption;
a mesh that is not such a stack is a stack of one level.  The
constructor finds it, on the elements as given, and then takes the
per-element geometry of level 0 for every level: the motions are proper
rotations with a uniform time shift, so an element's determinant, its
sign and its longest edge are its level-0 twin's, up to rounding.
Level 0's orientation fix is applied to every level's copies, so the
fixed elements are those of a whole-mesh fix.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
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


def _facet_bytes(elements: np.ndarray) -> np.ndarray:
    """All element facets, one per (element, omitted node), each as the
    ``_row_bytes`` of its node ids ascending: the element's sorted ids
    less one."""
    ids = np.sort(elements, axis=1)
    nen = ids.shape[1]
    keep = [[j for j in range(nen) if j != k] for k in range(nen)]
    return _row_bytes(ids[:, keep].reshape(-1, nen - 1))


def require_element_facets(elements: np.ndarray, facets: np.ndarray) -> None:
    """Raise MeshTopologyError unless every row of ``facets``, node ids
    ascending, is a facet of one of ``elements``."""
    if not np.isin(_row_bytes(facets), _facet_bytes(elements)).all():
        raise MeshTopologyError("boundary facet is not a facet of any element")


class SimplexMesh:
    """Conforming simplicial mesh with tagged boundary facets.

    Parameters
    ----------
    nodes : (n_nodes, dim) float array
    elements : (n_el, dim+1) int array
    boundary_facets : (n_bf, dim) int array
    boundary_tags : (n_bf,) int array of indices into ``tag_names``
    tag_names : list of str
    fix_orientation : swap the last two nodes of each element with det J < 0

    The boundary facets are stored as given; ``validate_mesh`` checks them
    against the elements.
    """

    def __init__(self, nodes, elements, boundary_facets, boundary_tags,
                 tag_names, fix_orientation=True):
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
        if any(ids.size and (ids.min() < 0 or ids.max() >= len(self.nodes))
               for ids in (self.elements, self.boundary_facets)):
            raise MeshTopologyError("element or boundary facet node id out "
                                    "of range")

        # the geometry of the first n_per elements repeats, level by level
        n_per = self._n_per = self._level_size()
        det = _det_of(self.nodes, self.elements[:n_per])
        neg = np.flatnonzero(det < 0.0) if fix_orientation else []
        if len(neg):
            every = (neg + np.arange(0, self.n_elements, n_per)[:, None])
            els = self.elements.copy()
            els[every.ravel(), -2:] = els[every.ravel(), -1:-3:-1]
            self.elements = els
            det[neg] = _det_of(self.nodes, els[neg])
        self.jacobian_dets = self._per_level(det)

        for arr in (self.nodes, self.elements, self.boundary_facets,
                    self.boundary_tags, self.jacobian_dets):
            arr.setflags(write=False)

    def _level_size(self) -> int:
        """Elements per level of a stack whose levels share their geometry:
        all of them, one level, for a spatial mesh."""
        return len(self.elements)

    def _per_level(self, a: np.ndarray) -> np.ndarray:
        """``a``, given for the elements of the first level, for all."""
        if self._n_per in (0, self.n_elements):
            return a
        return np.tile(a, self.n_elements // self._n_per)

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

    # -- element geometry --------------------------------------------------

    @property
    def element_coords(self) -> np.ndarray:
        """(n_el, dim+1, dim) coordinates of element nodes, gathered on each
        access."""
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
        element), ``gradients_of`` all elements."""
        return self.gradients_of(slice(None))

    def gradients_of(self, which) -> np.ndarray:
        """(n, dim+1, dim) P1 gradients of the elements ``which``, a slice
        or an index array, not cached.

        A degenerate element among them raises before any inverse is formed;
        then each slice's inverse Jacobians, adj J / det J, are built
        element-last and copied into rows 1..dim, with row 0 their negated
        column sums.  Each element's arithmetic is its own, so an element
        gets the same bytes in any selection.
        """
        det = self.jacobian_dets[which]
        bad = degenerate(np.abs(det), self.max_edge_lengths[which], self.dim)
        if bad.any():
            ids = np.arange(self.n_elements)[which][bad]
            raise DegenerateElement(
                f"degenerate elements: {ids[:10].tolist()}")
        dim, elements = self.dim, self.elements[which]
        grads = np.empty((len(det), dim + 1, dim))
        for sl in element_slices(len(det)):
            inv = np.empty((dim + 1, dim, len(det[sl])))
            cofactor_det(jacobians_last(self.nodes[elements[sl]]),
                         inv[1:])
            np.divide(inv[1:], det[sl], out=inv[1:])
            np.negative(inv[1], out=inv[0])
            for k in range(2, dim + 1):
                inv[0] -= inv[k]
            grads[sl] = inv.transpose(2, 0, 1)
        return grads

    @cached_property
    def max_edge_lengths(self) -> np.ndarray:
        """The longest edge of each element: those of the first level,
        repeated for every level (see ``jacobian_dets``)."""
        # per slice, (nen, dim, E): each node's coordinates are contiguous
        # rows; the squared lengths add the coordinates in order, as a norm
        # does, and one sqrt of their maximum follows
        nen, n_per = self.dim + 1, self._n_per
        elements = self.elements[:n_per]
        h2 = np.zeros(n_per)
        for sl in element_slices(n_per):
            Xl = np.ascontiguousarray(
                self.nodes[elements[sl]].transpose(1, 2, 0))
            h = h2[sl]
            for i in range(nen):
                for j in range(i + 1, nen):
                    d = Xl[i] - Xl[j]
                    d *= d
                    np.maximum(h, d.sum(axis=0), out=h)
        return self._per_level(np.sqrt(h2))

    @cached_property
    def total_measure(self) -> float:
        return float(self.measures.sum())


class SpaceTimeMesh(SimplexMesh):
    """Simplicial space-time mesh; the last coordinate is time.

    ``bottom_facets`` / ``top_facets`` / ``mantle_facets`` are index arrays
    into the boundary facet list and partition it.  They are
    ``facet_groups`` when given, else ``classify_boundary`` derives them
    from the node times.
    """

    def __init__(self, nodes, elements, boundary_facets, boundary_tags,
                 tag_names, t0, tN, facet_groups=None, fix_orientation=True):
        super().__init__(nodes, elements, boundary_facets, boundary_tags,
                         tag_names, fix_orientation=fix_orientation)
        self.t0 = float(t0)
        self.tN = float(tN)
        if facet_groups is None:
            facet_groups = classify_boundary(self, self.t0, self.tN)
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

    def _level_size(self) -> int:
        self._stack = _level_stack(self.nodes, self.elements)
        return self._stack.n_per

    @property
    def level_stack(self) -> LevelStack:
        """The mesh as a ``LevelStack``, found by the constructor on the
        elements as given, before the orientation fix and the determinants,
        which then take level 0's for every level."""
        return self._stack


@dataclass(frozen=True, eq=False)
class LevelStack:
    """A space-time mesh as a stack of L element levels of ``n_per``
    elements each, on L + 1 node levels of ``n_sp`` nodes.

    Element level k, elements k*n_per to (k+1)*n_per, is level 0's with
    every node id shifted by k*n_sp, and its nodes, node levels k and k+1,
    are those of node levels 0 and 1 moved rigidly: rotated by
    ``rotations[k]`` = R_k, (L, n_sd, n_sd), and shifted in space and time.
    So element e's P1 gradients are element e % n_per's with the spatial
    columns rotated, G[:, :n_sd] @ R^T for R = R_{e // n_per}, and, with
    its vertices in the same order, its metric norms are that element's.
    A mesh that fails any test of ``_level_stack`` is one level, L = 1:
    (n_el, n_nodes // 2, [I]); so is a prism slab.
    """

    n_per: int
    n_sp: int
    rotations: np.ndarray

    def __post_init__(self):
        self.rotations.setflags(write=False)

    @property
    def L(self) -> int:
        return len(self.rotations)

    def node_rotation(self, m: int) -> np.ndarray:
        """Q_m: node level m is node level 0 turned by Q_m (and shifted).
        Q_m = R_m for m < L, as the bottom of element level m, and the top
        of a stack of L >= 2 levels, node level 1 turned by R_{L-1}, has
        Q_L = R_{L-1} R_1."""
        R = self.rotations
        return R[m] if m < self.L else R[m - 1] @ R[1]

    @staticmethod
    def turn(a: np.ndarray, R: np.ndarray) -> np.ndarray:
        """``a`` turned by the rotation R (n_sd, n_sd): the rows of an
        (n, nc) field, whose first n_sd entries are a vector and the rest
        scalars, to a diag(R, 1)^T, or a stack (n, nc, nc) of pair blocks B
        to T B T^T, T = diag(R, 1).  ``a`` itself, with no arithmetic, when
        R is the identity."""
        n_sd = len(R)
        if np.array_equal(R, np.eye(n_sd)):
            return a
        if a.ndim == 3:
            n, nc = len(a), a.shape[1]
            T = np.eye(nc)
            T[:n_sd, :n_sd] = R
            return (a.reshape(n, -1) @ np.kron(T, T).T).reshape(n, nc, nc)
        out = a.copy()
        out[:, :n_sd] = a[:, :n_sd] @ R.T
        return out


# -- spec-level per-element operations --------------------------------------

def element_jacobian(mesh: SimplexMesh, e: int):
    """Jacobian of element ``e`` and its determinant.

    Raises DegenerateElement when |det| falls below the scale-invariant
    degeneracy threshold.
    """
    J = jacobians_last(mesh.nodes[mesh.elements[e]][None])[..., 0]
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
    return mesh.gradients_of([e])[0]


def map_local_to_global(mesh: SimplexMesh, e: int, xi) -> np.ndarray:
    """Affine map from reference coordinates to global coordinates."""
    N = basis_eval(xi, mesh.dim)
    return N @ mesh.nodes[mesh.elements[e]]


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


def _level_stack(nodes, elements):
    """The ``LevelStack`` of ``nodes`` and ``elements``.

    A mesh is a stack of L >= 2 levels when
    - its nodes are level-major: L+1 blocks of n_sp nodes, block j the
      nodes of time level j (``time_levels``);
    - element block k equals element block 0 plus k*n_sp exactly;
    - node levels k and k+1 are node levels 0 and 1 under one rigid motion,
      with a uniform time shift: the rotation is the least-squares fit of
      Kabsch (an SVD of an n_sd x n_sd matrix) and every node must lie
      within 1e-12 of the spatial extent of its image, and every node's
      time shift within 1e-12 of the time span of the first node's.
    A level whose spatial coordinates equal level 0's gets the identity.
    """
    n_el = len(elements)
    n_sd = nodes.shape[1] - 1
    eye = np.eye(n_sd)
    one = LevelStack(n_el, len(nodes) // 2, eye[None])
    levels = time_levels(nodes[:, n_sd])[0]
    n_levels = int(levels.max())
    n_sp, rest = divmod(len(nodes), n_levels + 1)
    if (n_levels < 2 or rest or n_el % n_levels
            or (levels != np.repeat(np.arange(n_levels + 1), n_sp)).any()):
        return one
    n_per = n_el // n_levels
    base = elements[:n_per]
    if not all(np.array_equal(elements[k * n_per:(k + 1) * n_per],
                              base + k * n_sp) for k in range(1, n_levels)):
        return one
    x, t = nodes[:, :n_sd], nodes[:, n_sd]
    tol = 1e-12 * np.ptp(x, axis=0).max()
    t_tol = 1e-12 * np.ptp(t)
    p = x[:2 * n_sp]
    p0 = p.mean(axis=0)
    rotations = np.empty((n_levels, n_sd, n_sd))
    for k in range(n_levels):
        q = x[k * n_sp:(k + 2) * n_sp]
        shift = t[k * n_sp:(k + 2) * n_sp] - t[:2 * n_sp]
        if np.abs(shift - shift[0]).max() > t_tol:
            return one
        if np.array_equal(q, p):
            rotations[k] = eye
            continue
        q0 = q.mean(axis=0)
        u, _, vt = np.linalg.svd((p - p0).T @ (q - q0))
        flip = np.ones(n_sd)
        flip[-1] = np.sign(np.linalg.det(vt.T @ u.T))
        R = (vt.T * flip) @ u.T
        if np.abs((p - p0) @ R.T + q0 - q).max() > tol:
            return one
        rotations[k] = R
    return LevelStack(n_per, n_sp, rotations)


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

    sorted_ids = np.sort(mesh.elements, axis=1)
    if (np.diff(sorted_ids, axis=1) == 0).any():
        problems.append("element with repeated node ids")

    small = degenerate(np.abs(mesh.jacobian_dets), mesh.max_edge_lengths,
                       mesh.dim)
    if small.any():
        problems.append(
            f"{int(small.sum())} element(s) with non-positive/degenerate measure")

    uniq, counts = np.unique(_facet_bytes(mesh.elements), return_counts=True)

    if (counts > 2).any():
        problems.append("facet shared by more than two elements")

    boundary_rows = uniq[counts == 1]
    listed = _row_bytes(np.sort(mesh.boundary_facets, axis=1))
    if len(np.unique(listed)) < len(listed):
        problems.append("duplicate boundary facet listed")

    unknown = np.count_nonzero(~np.isin(listed, boundary_rows))
    if unknown:
        problems.append(
            f"{unknown} boundary facet(s) listed but interior or unknown")
    missing = len(boundary_rows) - len(listed)
    if missing > 0:
        problems.append(
            f"{missing} element facet(s) on the boundary but not listed")
    elif missing < 0:
        problems.append(
            f"{-missing} listed boundary facet(s) in excess of the true boundary")

    if isinstance(mesh, SpaceTimeMesh):
        groups = np.concatenate([mesh.bottom_facets, mesh.top_facets,
                                 mesh.mantle_facets])
        if len(groups) != len(mesh.boundary_facets) or \
                len(np.unique(groups)) != len(mesh.boundary_facets):
            problems.append("bottom/top/mantle do not partition the boundary")

    return problems


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Rows of ints as void scalars, equal where the rows are equal: the
    items of numpy's set operations."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


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
