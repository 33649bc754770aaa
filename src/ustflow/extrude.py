"""Space-time meshes by temporal extrusion of spatial simplicial meshes.

Each spatial element swept between two consecutive time levels forms a
prism, which is decomposed into simplices by the sorted-path (Kuhn) rule:
with the prism's spatial vertices ordered by global node id w_0 < ... < w_n,
simplex j uses bottom copies of w_0..w_j and top copies of w_j..w_n.  The
rule is purely local yet neighboring prisms split shared quadrilateral
faces along the same diagonal, so the result is conforming.

Node trajectories move the spatial nodes between levels; rigid rotation
about a center (2D) or axis (3D) twists the space-time mesh around the time
axis and keeps node correspondence across levels exact.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElement, InvertedElement, MeshTopologyError
from .mesh import (SimplexMesh, SpaceTimeMesh, degenerate,
                   require_element_facets)

logger = logging.getLogger("ustflow")


@dataclass(frozen=True)
class NodeTrajectory:
    """Prescribed motion of the spatial nodes: a rigid rotation with angular
    velocity ``omega`` about ``center``, static for omega = 0.  ``axis``
    (unit vector) is read for 3D meshes only.  Evaluation at t0 is the
    identity.
    """
    center: tuple = (0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)
    omega: float = 0.0

    def __post_init__(self):
        if self.omega != 0.0 and len(self.axis) == 3:
            n = math.sqrt(sum(a * a for a in self.axis))
            if not 0.0 < n < math.inf:
                raise ValueError(f"rotation axis {self.axis!r} is zero or "
                                 "not finite")
            if abs(n - 1.0) > 1e-12:
                object.__setattr__(self, "axis",
                                   tuple(a / n for a in self.axis))


@dataclass(frozen=True)
class ExtrusionSpec:
    """Uniform time levels t0 = level 0, ..., tN = level L."""
    t0: float
    tN: float
    n_levels: int
    trajectory: NodeTrajectory = field(default_factory=NodeTrajectory)

    def __post_init__(self):
        if not self.tN > self.t0:
            raise ValueError("tN must exceed t0")
        if self.n_levels < 1:
            raise ValueError("need at least one level")

    @property
    def dt(self) -> float:
        return (self.tN - self.t0) / self.n_levels

    @property
    def level_times(self) -> np.ndarray:
        return np.linspace(self.t0, self.tN, self.n_levels + 1)


def rotation_matrix(dim: int, axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` in 2D, or about ``axis`` (Rodrigues) in 3D."""
    c, s = math.cos(angle), math.sin(angle)
    if dim == 2:
        return np.array([[c, -s], [s, c]])
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([[0.0, -a[2], a[1]],
                  [a[2], 0.0, -a[0]],
                  [-a[1], a[0], 0.0]])
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def rigid_rotation_positions(nodes: np.ndarray, trajectory: NodeTrajectory,
                             t: float, t0: float = 0.0) -> np.ndarray:
    """Spatial node positions at time ``t`` under the trajectory."""
    nodes = np.asarray(nodes, dtype=float)
    if trajectory.omega == 0.0:
        return nodes.copy()
    dim = nodes.shape[1]
    angle = trajectory.omega * (t - t0)
    R = rotation_matrix(dim, trajectory.axis, angle)
    center = np.zeros(dim)
    given = np.asarray(trajectory.center, dtype=float)
    center[: min(dim, len(given))] = given[:dim]
    return (nodes - center) @ R.T + center


def decompose_prism(bottom_ids, top_ids) -> list:
    """Split the prism between corresponding simplices into simplices.

    ``bottom_ids`` and ``top_ids`` list the same spatial nodes at two
    consecutive levels.  Ordering follows the sorted bottom ids, so
    face-adjacent prisms agree on shared-face diagonals.
    Returns n+1 tuples of n+2 node ids each (n+1 = len(bottom_ids)).
    """
    order = np.argsort(bottom_ids, kind="stable")
    b, t = np.asarray(bottom_ids)[order], np.asarray(top_ids)[order]
    return [tuple(s) for s in _path_simplices(b[None], t[None])[0].tolist()]


def _path_simplices(sorted_ids_bottom: np.ndarray,
                    sorted_ids_top: np.ndarray) -> np.ndarray:
    """Vectorized sorted-path decomposition.

    Inputs are (n_el, n+1) id arrays already sorted along axis 1 by bottom
    id.  Returns (n_el, n+1, n+2): per element the n+1 simplices.
    """
    n_el, m = sorted_ids_bottom.shape
    out = np.empty((n_el, m, m + 1), dtype=np.int64)
    for j in range(m):
        out[:, j, : j + 1] = sorted_ids_bottom[:, : j + 1]
        out[:, j, j + 1:] = sorted_ids_top[:, j:]
    return out


def _sweep(spatial: SimplexMesh, spec: ExtrusionSpec) -> tuple:
    """(nodes, elements, path signs) of ``spatial`` swept through the
    levels of ``spec``.

    The nodes are level-major blocks of the spatial nodes, moved by the
    trajectory, with the level time appended.  The elements are the
    sorted-path simplices of every spatial element, the same at every
    level.  The signs, (n_el, n_sd + 1), orient the path simplices; a zero
    marks a spatial element of zero determinant.
    """
    n_sd = spatial.dim
    n_sp = spatial.n_nodes
    L = spec.n_levels

    nodes = np.empty(((L + 1) * n_sp, n_sd + 1))
    for lev, t in enumerate(spec.level_times):
        pos = rigid_rotation_positions(spatial.nodes, spec.trajectory, t,
                                       t0=spec.t0)
        nodes[lev * n_sp: (lev + 1) * n_sp, :n_sd] = pos
        nodes[lev * n_sp: (lev + 1) * n_sp, n_sd] = t

    # In the flat limit, path simplex j of a prism has det sign
    # (-1)^(n_sd + j) relative to the sorted spatial element, whose sign is
    # the spatial det's times the parity of the sort.  Each simplex is
    # oriented by that sign rather than by its own det: the constructor's
    # fix would turn an inverted simplex positive and hide it.
    sorted_spatial = np.sort(spatial.elements, axis=1)
    path = _path_simplices(sorted_spatial, sorted_spatial + n_sp)
    swaps = sum(spatial.elements[:, i] > spatial.elements[:, k]
                for i in range(n_sd + 1) for k in range(i + 1, n_sd + 1))
    sign_sp = np.sign(spatial.jacobian_dets) * (-1) ** swaps
    sign = sign_sp[:, None] * (-1) ** (n_sd + np.arange(n_sd + 1))
    path[sign < 0, -2:] = path[sign < 0, -1:-3:-1]
    path = path.reshape(-1, n_sd + 2)
    elements = np.concatenate([path + lev * n_sp for lev in range(L)])
    return nodes, elements, sign


def _sweep_boundary(spatial: SimplexMesh, n_levels: int, cap_tags) -> tuple:
    """(boundary facets, their tags) of ``spatial`` swept through
    ``n_levels`` levels by ``_sweep``: the bottom cap, one facet per
    spatial element tagged ``cap_tags[0]``, the top cap tagged
    ``cap_tags[1]``, then n_sd mantle facets per spatial boundary facet per
    level, which inherit its tag.  Raises MeshTopologyError when a spatial
    boundary facet is not a facet of the spatial elements."""
    n_sd, n_sp, L = spatial.dim, spatial.n_nodes, n_levels
    sorted_spatial = np.sort(spatial.elements, axis=1)
    spatial_bf = np.sort(spatial.boundary_facets, axis=1)
    require_element_facets(spatial.elements, spatial_bf)
    mantle = _path_simplices(spatial_bf, spatial_bf + n_sp).reshape(-1, n_sd + 1)
    boundary = np.concatenate([sorted_spatial, sorted_spatial + L * n_sp]
                              + [mantle + lev * n_sp for lev in range(L)])
    tags = np.concatenate([np.repeat(np.asarray(cap_tags, dtype=np.int64),
                                     spatial.n_elements)]
                          + [np.repeat(spatial.boundary_tags, n_sd)] * L)
    return boundary, tags


def extrude_simplex_st(spatial: SimplexMesh, spec: ExtrusionSpec) -> SpaceTimeMesh:
    """Extrude a spatial mesh through the time levels of ``spec``.

    Produces (L+1) * n_nodes space-time nodes and L * (n_sd+1) * n_el
    simplices (``_sweep``), with the boundary built directly
    (``_sweep_boundary``): one bottom facet per spatial element, one top
    facet, both tagged ``_cap``, and n_sd mantle facets per spatial
    boundary facet per level (inheriting the spatial tag).  The mesh is a
    ``LevelStack`` (``SpaceTimeMesh.level_stack``) whose geometry comes
    from level 0; one ``extrude`` log line gives the levels, the elements
    per level, the element count, whether the stack was found or the mesh
    set up as one level, and the seconds.

    Simplices are oriented by the sign rule of ``_sweep``, so the mesh is
    built without the constructor's orientation fix.  Raises
    InvertedElement when the twist per level makes any simplex
    non-positive or degenerate by the mesh's own bound
    (``mesh.degenerate``), and MeshTopologyError when the spatial mesh
    lists a boundary facet that is not a facet of its elements.
    """
    start = time.perf_counter()
    cap_tag = len(spatial.tag_names)  # synthetic tag for bottom/top caps
    nodes, elements, sign = _sweep(spatial, spec)
    boundary, tags = _sweep_boundary(spatial, spec.n_levels,
                                     (cap_tag, cap_tag))
    nb = spatial.n_elements
    groups = np.split(np.arange(len(boundary)), [nb, 2 * nb])
    mesh = SpaceTimeMesh(nodes, elements, boundary, tags,
                         list(spatial.tag_names) + ["_cap"], spec.t0, spec.tN,
                         facet_groups=groups, fix_orientation=False)
    stack = mesh.level_stack
    first = _first_inverted(mesh, sign, stack.n_per)
    if first is not None:
        raise InvertedElement(
            f"twist per level too large: element {first} inverted",
            element=first, level=first // sign.size)
    logger.info("extrude levels=%d n_per=%d elements=%d stack=%s s=%.3f",
                spec.n_levels, stack.n_per, mesh.n_elements,
                "found" if stack.L > 1 else "one-level",
                time.perf_counter() - start)
    return mesh


def _first_inverted(mesh: SimplexMesh, sign: np.ndarray, n_per: int):
    """The first of the swept ``mesh``'s first ``n_per`` elements that is
    non-positive or degenerate (``mesh.degenerate``), or whose path sign
    is zero, built on a flat spatial element; None when there is none.

    A found stack's levels hold level 0's determinants and edges, so its
    level 0, n_per = ``sign.size``, holds the first such element; a mesh
    that is one level, n_per its element count, is checked whole.
    """
    bad = degenerate(mesh.jacobian_dets[:n_per], mesh.max_edge_lengths[:n_per],
                     mesh.dim)
    bad |= np.tile(sign.ravel() == 0, n_per // sign.size)
    return int(np.argmax(bad)) if bad.any() else None


def max_admissible_twist(spatial: SimplexMesh, trajectory: NodeTrajectory,
                         dt_hi: float = 1.0) -> float:
    """Largest uniform level spacing keeping a one-level extrusion positive.

    Bisection to a relative resolution of 1e-3.  The spatial boundary
    facets are checked once, before it, as ``extrude_simplex_st`` checks
    them (MeshTopologyError).  Each probe sweeps the nodes and elements of
    one level (``_sweep``) into a plain ``SimplexMesh`` with no boundary
    and asks ``_first_inverted``, as ``extrude_simplex_st`` does, with no
    space-time mesh built and no log line.  A static trajectory
    (omega = 0) admits any spacing; returns inf in that case.
    """
    if trajectory.omega == 0.0:
        return math.inf
    require_element_facets(spatial.elements,
                           np.sort(spatial.boundary_facets, axis=1))
    no_facets = np.empty((0, spatial.dim + 1), dtype=np.int64)

    def ok(dt: float) -> bool:
        nodes, elements, sign = _sweep(
            spatial, ExtrusionSpec(0.0, dt, 1, trajectory))
        # a mesh for its geometry alone
        swept = SimplexMesh(nodes, elements, no_facets, [], [],
                            fix_orientation=False)
        return _first_inverted(swept, sign, swept.n_elements) is None

    hi = dt_hi
    while ok(hi):
        if hi > 1e12:
            return math.inf
        hi *= 2.0
    lo = 0.5 * hi
    while not ok(lo):
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    while (hi - lo) > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def extrude_spatial(spatial: SimplexMesh, z0: float, z1: float, n_layers: int,
                    lo_tag: str = "bottom", hi_tag: str = "top") -> SimplexMesh:
    """Extrude a 2D spatial mesh in z into a 3D spatial mesh of tetrahedra.

    Side facets inherit the 2D tags; the z = z0 / z = z1 caps get
    ``lo_tag`` / ``hi_tag``.  The same sweep as ``extrude_simplex_st``,
    through n_layers uniform layers with z in place of time, so the result
    is conforming.  Raises DegenerateElement, naming the spatial element,
    for a 2D element that is degenerate by the mesh's own bound.
    """
    if spatial.dim != 2:
        raise MeshTopologyError("extrude_spatial expects a 2D mesh")
    if lo_tag in spatial.tag_names or hi_tag in spatial.tag_names:
        raise MeshTopologyError("cap tag name collides with a spatial tag")
    bad = degenerate(np.abs(spatial.jacobian_dets), spatial.max_edge_lengths, 2)
    if bad.any():
        e = int(np.flatnonzero(bad)[0])
        raise DegenerateElement(f"spatial element {e} is degenerate "
                                f"(det={spatial.jacobian_dets[e]:g})")
    n = len(spatial.tag_names)
    nodes, elements, _ = _sweep(spatial, ExtrusionSpec(z0, z1, n_layers))
    boundary, tags = _sweep_boundary(spatial, n_layers, (n, n + 1))
    return SimplexMesh(nodes, elements, boundary, tags,
                       list(spatial.tag_names) + [lo_tag, hi_tag])
