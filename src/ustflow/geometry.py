"""Structured spatial mesh generators for verification cases.

Boxes, disks and annuli only; the stirrer meshes are unstructured fixtures
shipped as package data (see tools/make_stirrer_meshes.py).

Each 2D generator numbers its nodes on a grid of node ids, ids[i, j]
(an annulus or disk repeats its first column as the last, so the grid
closes around the circle), and takes its triangles from ``_cell_split``
and its boundary facets from ``_polyline_edges``.
"""

from __future__ import annotations

import numpy as np

from .extrude import extrude_spatial
from .mesh import SimplexMesh


def _cell_split(ids: np.ndarray) -> np.ndarray:
    """Triangles (a, b, c), (a, c, d) of every cell of the node-id grid
    ``ids``, cells row-major: a = ids[i, j], b = ids[i + 1, j],
    c = ids[i + 1, j + 1], d = ids[i, j + 1]."""
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def _polyline_edges(*lines, first_tag: int = 0) -> tuple:
    """(facets, tags) of polylines of node ids of one length: edge k of
    each line in turn, (p[k], p[k + 1]), tagged first_tag + the line's
    position."""
    p = np.stack(lines)
    facets = np.stack([p[:, :-1], p[:, 1:]], axis=-1).swapaxes(0, 1)
    tags = np.tile(np.arange(len(lines)) + first_tag, p.shape[1] - 1)
    return facets.reshape(-1, 2), tags


def _rings(radii: np.ndarray, n_theta: int) -> tuple:
    """(nodes, ids): n_theta nodes on each circle of ``radii``, circle by
    circle, and their id grid with the first column repeated as the last."""
    angles = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    nodes = np.column_stack([np.outer(radii, np.cos(angles)).ravel(),
                             np.outer(radii, np.sin(angles)).ravel()])
    ids = np.arange(len(radii) * n_theta).reshape(len(radii), n_theta)
    return nodes, np.hstack([ids, ids[:, :1]])


def box2d(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
          x0: float = 0.0, y0: float = 0.0) -> SimplexMesh:
    """Triangulated rectangle; side tags x0, x1, y0, y1."""
    xs = np.linspace(x0, x0 + lx, nx + 1)
    ys = np.linspace(y0, y0 + ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ids = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    facets, tags = zip(_polyline_edges(ids[0], ids[nx]),
                       _polyline_edges(ids[:, 0], ids[:, ny], first_tag=2))
    return SimplexMesh(nodes, _cell_split(ids), np.concatenate(facets),
                       np.concatenate(tags), ["x0", "x1", "y0", "y1"])


def annulus2d(r_inner: float, r_outer: float, n_r: int, n_theta: int) -> SimplexMesh:
    """Structured annulus; tags inner, outer."""
    nodes, ids = _rings(np.linspace(r_inner, r_outer, n_r + 1), n_theta)
    return SimplexMesh(nodes, _cell_split(ids),
                       *_polyline_edges(ids[0], ids[n_r]), ["inner", "outer"])


def disk2d(radius: float, n_r: int, n_theta: int) -> SimplexMesh:
    """Structured disk with a center fan; tag outer."""
    rings, ids = _rings(np.linspace(0.0, radius, n_r + 1)[1:], n_theta)
    ids += 1  # node 0 is the center
    fan = np.column_stack([np.zeros(n_theta, dtype=np.int64),
                           ids[0, :-1], ids[0, 1:]])
    return SimplexMesh(np.vstack([np.zeros((1, 2)), rings]),
                       np.vstack([fan, _cell_split(ids)]),
                       *_polyline_edges(ids[-1]), ["outer"])


def box3d(nx: int, ny: int, nz: int, lx: float = 1.0, ly: float = 1.0,
          lz: float = 1.0) -> SimplexMesh:
    """Tetrahedral box from a z-extruded 2D grid; tags x0, x1, y0, y1, z0, z1."""
    base = box2d(nx, ny, lx=lx, ly=ly)
    return extrude_spatial(base, 0.0, lz, nz, lo_tag="z0", hi_tag="z1")
