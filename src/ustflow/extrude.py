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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvertedElement, MeshTopologyError
from .mesh import SimplexMesh, SpaceTimeMesh, degenerate


@dataclass(frozen=True)
class NodeTrajectory:
    """Prescribed motion of the spatial nodes.

    kind: "static" or "rigid_rotation".  For rigid rotation, ``omega`` is
    the angular velocity and ``center`` the rotation center; ``axis`` (unit
    vector) is required for 3D meshes only.  Evaluation at t0 is the
    identity.
    """
    kind: str = "static"
    center: tuple = (0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "rigid_rotation"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.kind == "rigid_rotation" and len(self.axis) == 3:
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
    if trajectory.kind == "static" or trajectory.omega == 0.0:
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
    bottom = list(bottom_ids)
    top = list(top_ids)
    order = sorted(range(len(bottom)), key=lambda i: bottom[i])
    b = [bottom[i] for i in order]
    t = [top[i] for i in order]
    n = len(b) - 1
    return [tuple(b[: j + 1] + t[j:]) for j in range(n + 1)]


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


def extrude_simplex_st(spatial: SimplexMesh, spec: ExtrusionSpec) -> SpaceTimeMesh:
    """Extrude a spatial mesh through the time levels of ``spec``.

    Produces (L+1) * n_nodes space-time nodes and L * (n_sd+1) * n_el
    simplices, with the boundary built directly: one bottom facet per
    spatial element, one top facet, and n_sd mantle facets per spatial
    boundary facet per level (inheriting the spatial tag).

    Simplices are oriented by the sign rule below, so the mesh is built
    without the constructor's orientation fix.  Raises InvertedElement when
    the twist per level makes any simplex non-positive or degenerate by the
    mesh's own bound (``mesh.degenerate``).
    """
    n_sd = spatial.dim
    n_sp = spatial.n_nodes
    L = spec.n_levels
    times = spec.level_times

    # nodes: level-major blocks of the (possibly rotated) spatial nodes
    nodes = np.empty(((L + 1) * n_sp, n_sd + 1))
    for lev, t in enumerate(times):
        pos = rigid_rotation_positions(spatial.nodes, spec.trajectory, t,
                                       t0=spec.t0)
        nodes[lev * n_sp: (lev + 1) * n_sp, :n_sd] = pos
        nodes[lev * n_sp: (lev + 1) * n_sp, n_sd] = t

    # elements: sorted-path decomposition, the same at every level.  In the
    # flat limit, path simplex j of a prism has det sign (-1)^(n_sd + j)
    # relative to the sorted spatial element, whose sign is the spatial
    # det's times the parity of the sort.  Each simplex is oriented by that
    # sign rather than by its own det: the constructor's fix would turn an
    # inverted simplex positive and hide it.
    sorted_spatial = np.sort(spatial.elements, axis=1)
    path = _path_simplices(sorted_spatial, sorted_spatial + n_sp)
    swaps = sum(spatial.elements[:, i] > spatial.elements[:, k]
                for i in range(n_sd + 1) for k in range(i + 1, n_sd + 1))
    sign_sp = np.sign(spatial.jacobian_dets) * (-1) ** swaps
    sign = sign_sp[:, None] * (-1) ** (n_sd + np.arange(n_sd + 1))
    path[sign < 0, -2:] = path[sign < 0, -1:-3:-1]
    path = path.reshape(-1, n_sd + 2)
    elements = np.concatenate([path + lev * n_sp for lev in range(L)])

    # boundary: bottom and top caps, then the mantle level by level
    n_path = n_sd + 1  # simplices per prism
    el_base = np.arange(spatial.n_elements, dtype=np.int64) * n_path
    bottom_facets = sorted_spatial.copy()
    bottom_owners = el_base + n_sd          # path simplex j = n holds the full bottom
    top_facets = sorted_spatial + L * n_sp
    top_owners = (L - 1) * spatial.n_elements * n_path + el_base  # j = 0 at last level

    spatial_bf = np.sort(spatial.boundary_facets, axis=1)
    owners_sp = spatial.boundary_owners
    # position of the element node missing from the facet, in sorted element order
    elem_sorted = sorted_spatial[owners_sp]                      # (B, n_sd+1)
    is_in_facet = (elem_sorted[:, :, None] == spatial_bf[:, None, :]).any(axis=2)
    pos_missing = np.argmin(is_in_facet, axis=1)                 # (B,)

    mantle_rows = []
    mantle_tags = []
    mantle_owners = []
    B = len(spatial_bf)
    if B:
        for lev in range(L):
            fb = spatial_bf + lev * n_sp
            ft = spatial_bf + (lev + 1) * n_sp
            sub = _path_simplices(fb, ft)                        # (B, n_sd, n_sd+1)
            mantle_rows.append(sub.reshape(-1, n_sd + 1))
            mantle_tags.append(np.repeat(spatial.boundary_tags, n_sd))
            # owner path index k = j + (0 if pos_missing > j else 1)
            j = np.arange(n_sd)
            k = j[None, :] + (pos_missing[:, None] <= j[None, :])
            owner = (lev * spatial.n_elements * n_path
                     + owners_sp[:, None] * n_path + k)
            mantle_owners.append(owner.reshape(-1))

    cap_tag = len(spatial.tag_names)  # synthetic tag for bottom/top caps
    tag_names = list(spatial.tag_names) + ["_cap"]

    boundary = np.concatenate([bottom_facets, top_facets] + mantle_rows)
    tags = np.concatenate([
        np.full(len(bottom_facets), cap_tag, dtype=np.int64),
        np.full(len(top_facets), cap_tag, dtype=np.int64),
    ] + mantle_tags)
    owners = np.concatenate([bottom_owners, top_owners] + mantle_owners)

    nb = len(bottom_facets)
    groups = (np.arange(nb, dtype=np.int64),
              np.arange(nb, 2 * nb, dtype=np.int64),
              np.arange(2 * nb, len(boundary), dtype=np.int64))

    mesh = SpaceTimeMesh(nodes, elements, boundary, tags, tag_names,
                         spec.t0, spec.tN, boundary_owners=owners,
                         facet_groups=groups, fix_orientation=False)
    bad = degenerate(mesh.jacobian_dets, mesh.max_edge_lengths, mesh.dim)
    bad |= np.tile(sign.ravel() == 0, L)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise InvertedElement(
            f"twist per level too large: element {first} inverted",
            element=first, level=first // len(path))
    return mesh


def max_admissible_twist(spatial: SimplexMesh, trajectory: NodeTrajectory,
                         dt_hi: float = 1.0, rel_resolution: float = 1e-3) -> float:
    """Largest uniform level spacing keeping a one-level extrusion positive.

    Bisection to the given relative resolution.  Static trajectories (or
    omega = 0) admit any spacing; returns inf in that case.
    """
    if trajectory.kind == "static" or trajectory.omega == 0.0:
        return math.inf

    def ok(dt: float) -> bool:
        try:
            extrude_simplex_st(spatial, ExtrusionSpec(0.0, dt, 1, trajectory))
            return True
        except InvertedElement:
            return False

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
    while (hi - lo) > rel_resolution * hi:
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
    ``lo_tag`` / ``hi_tag``.  Uses the same sorted-path rule, so the result
    is conforming.
    """
    if spatial.dim != 2:
        raise MeshTopologyError("extrude_spatial expects a 2D mesh")
    if lo_tag in spatial.tag_names or hi_tag in spatial.tag_names:
        raise MeshTopologyError("cap tag name collides with a spatial tag")
    spec = ExtrusionSpec(z0, z1, n_layers)
    st = extrude_simplex_st(spatial, spec)
    tag_names = list(spatial.tag_names) + [lo_tag, hi_tag]
    lo_id, hi_id = len(tag_names) - 2, len(tag_names) - 1
    tags = st.boundary_tags.copy()
    tags[st.bottom_facets] = lo_id
    tags[st.top_facets] = hi_id
    return SimplexMesh(st.nodes, st.elements, st.boundary_facets, tags,
                       tag_names, boundary_owners=st.boundary_owners)
