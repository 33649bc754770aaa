#!/usr/bin/env python3
"""Generate the stirrer fixture meshes shipped as package data.

Geometry: circular tank of diameter 6.0 around a four-blade cross stirrer,
tip-to-tip span 5.2 vertically and 4.0 horizontally, blade thickness 0.3;
the 3D variants extrude the cross-section through thickness 0.1.

Meshing: boundary polylines sampled at a graded target size, interior
points from a rejection-thinned hex lattice, Delaunay triangulation with
removal of triangles inside the stirrer or outside the tank, and a few
Laplacian smoothing / re-triangulation rounds.  Deterministic (fixed seed).

Writes into src/ustflow/data/: stirrer2d.stmesh, stirrer3d.stmesh
(one z-layer over a ~1000-triangle base, about 3000 tets) and
stirrer3d_coarse.stmesh (~660 tets).
"""

import math
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay, cKDTree

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ustflow.extrude import (ExtrusionSpec, NodeTrajectory, extrude_simplex_st,
                             extrude_spatial, max_admissible_twist)
from ustflow.io import write_stmesh
from ustflow.mesh import SimplexMesh, validate_mesh
from ustflow.scenarios import STIRRER_DT, STIRRER_OMEGA

R_OUT = 3.0
HALF_T = 0.15      # blade half thickness
ARM_V = 2.6        # vertical blade tip radius (span 5.2)
ARM_H = 2.0        # horizontal blade tip radius (span 4.0)
GEO_TOL = 1e-9


def cross_outline():
    w, av, ah = HALF_T, ARM_V, ARM_H
    return np.array([
        (w, w), (w, av), (-w, av), (-w, w), (-ah, w), (-ah, -w),
        (-w, -w), (-w, -av), (w, -av), (w, -w), (ah, -w), (ah, w)])


def inside_cross(pts, pad=0.0):
    x, y = pts[:, 0], pts[:, 1]
    vert = (np.abs(x) < HALF_T + pad) & (np.abs(y) < ARM_V + pad)
    horz = (np.abs(y) < HALF_T + pad) & (np.abs(x) < ARM_H + pad)
    return vert | horz


def on_cross_outline(pts, tol=GEO_TOL):
    x, y = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    on_v = (np.abs(x - HALF_T) < tol) & (y < ARM_V + tol) & (y > HALF_T - tol)
    cap_v = (np.abs(y - ARM_V) < tol) & (x < HALF_T + tol)
    on_h = (np.abs(y - HALF_T) < tol) & (x < ARM_H + tol) & (x > HALF_T - tol)
    cap_h = (np.abs(x - ARM_H) < tol) & (y < HALF_T + tol)
    return on_v | cap_v | on_h | cap_h


def sample_segments(poly, h, closed=True):
    pts = []
    n = len(poly)
    last = n if closed else n - 1
    for k in range(last):
        a, b = poly[k], poly[(k + 1) % n]
        length = np.linalg.norm(b - a)
        m = max(1, int(round(length / h)))
        for j in range(m):
            pts.append(a + (b - a) * j / m)
    return np.array(pts)


def target_size(pts, h_fine, h_coarse):
    """Graded size: fine near the cross, coarse near the outer wall."""
    d = np.full(len(pts), np.inf)
    # distance to the cross region (crude: to the two rectangles)
    x, y = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    dxv = np.maximum(x - HALF_T, 0.0)
    dyv = np.maximum(y - ARM_V, 0.0)
    d = np.minimum(d, np.hypot(dxv, dyv))
    dxh = np.maximum(x - ARM_H, 0.0)
    dyh = np.maximum(y - HALF_T, 0.0)
    d = np.minimum(d, np.hypot(dxh, dyh))
    ramp = np.clip(d / 1.0, 0.0, 1.0)
    return h_fine + (h_coarse - h_fine) * ramp


def hex_lattice(h):
    pts = []
    dy = h * math.sqrt(3.0) / 2.0
    ny = int(2 * R_OUT / dy) + 2
    for row in range(-ny, ny + 1):
        y = row * dy
        off = 0.5 * h if row % 2 else 0.0
        nx = int(2 * R_OUT / h) + 2
        for col in range(-nx, nx + 1):
            pts.append((col * h + off, y))
    return np.array(pts)


def build_stirrer_mesh(h_fine, h_coarse, seed=7, smooth_rounds=3):
    rng = np.random.default_rng(seed)
    outline = cross_outline()

    circle_h = 0.9 * h_coarse
    n_circle = max(24, int(round(2 * math.pi * R_OUT / circle_h)))
    ang = np.linspace(0.0, 2 * math.pi, n_circle, endpoint=False)
    circle_pts = np.column_stack([R_OUT * np.cos(ang), R_OUT * np.sin(ang)])
    cross_pts = sample_segments(outline, h_fine)
    boundary = np.vstack([circle_pts, cross_pts])

    lattice = hex_lattice(h_fine)
    r = np.linalg.norm(lattice, axis=1)
    size = target_size(lattice, h_fine, h_coarse)
    keep = (r < R_OUT - 0.55 * size) & ~inside_cross(lattice, pad=0.5 * h_fine)
    keep &= rng.uniform(0.0, 1.0, len(lattice)) < (h_fine / size) ** 2
    interior = lattice[keep]
    tree = cKDTree(boundary)
    dist, _ = tree.query(interior)
    interior = interior[dist > 0.55 * target_size(interior, h_fine, h_coarse)]

    points = np.vstack([boundary, interior])
    n_boundary = len(boundary)

    def triangulate(pts):
        tri = Delaunay(pts)
        cells = tri.simplices
        cent = pts[cells].mean(axis=1)
        good = (np.linalg.norm(cent, axis=1) < R_OUT) \
            & ~inside_cross(cent)
        return cells[good]

    for _ in range(smooth_rounds):
        cells = triangulate(points)
        # Laplacian smoothing of interior points
        neigh = {}
        for tri_cell in cells:
            for a in tri_cell:
                for b in tri_cell:
                    if a != b:
                        neigh.setdefault(a, set()).add(b)
        new_pts = points.copy()
        for k in range(n_boundary, len(points)):
            if k in neigh:
                new_pts[k] = points[list(neigh[k])].mean(axis=0)
        points = new_pts
    cells = triangulate(points)

    # drop unused points and remap
    used = np.unique(cells)
    remap = -np.ones(len(points), dtype=np.int64)
    remap[used] = np.arange(len(used))
    points = points[used]
    cells = remap[cells]

    # boundary edges: shared by exactly one triangle
    edges = np.vstack([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    edges_sorted = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges_sorted, axis=0, return_counts=True)
    bedges = uniq[counts == 1]

    on_circle = np.abs(np.linalg.norm(points, axis=1) - R_OUT) < 1e-7
    on_cross = on_cross_outline(points, tol=1e-7)
    tags = []
    for e in bedges:
        if on_circle[e].all():
            tags.append(0)
        elif on_cross[e].all():
            tags.append(1)
        else:
            raise RuntimeError(
                f"untaggable boundary edge at {points[e].tolist()}")
    mesh = SimplexMesh(points, cells, bedges, np.array(tags),
                       ["outer_wall", "stirrer"])
    problems = validate_mesh(mesh)
    if problems:
        raise RuntimeError(f"invalid mesh: {problems}")
    return mesh


def quality_report(mesh):
    X = mesh.element_coords
    a = np.linalg.norm(X[:, 1] - X[:, 0], axis=1)
    b = np.linalg.norm(X[:, 2] - X[:, 1], axis=1)
    c = np.linalg.norm(X[:, 0] - X[:, 2], axis=1)
    s = 0.5 * (a + b + c)
    area = mesh.measures
    inradius = area / s
    circum = a * b * c / (4.0 * area)
    ratio = (2.0 * inradius / circum)
    return mesh.n_elements, mesh.n_nodes, float(ratio.min()), float(area.min())


def check_twist(mesh, axis_dim):
    traj = NodeTrajectory((0.0, 0.0, 0.0)[: axis_dim], (0.0, 0.0, 1.0),
                          STIRRER_OMEGA)
    bound = max_admissible_twist(mesh, traj, dt_hi=STIRRER_DT)
    if bound < STIRRER_DT:
        raise RuntimeError(f"twist bound {bound} below slab dt {STIRRER_DT}")
    # one full-depth extrusion as a smoke test
    extrude_simplex_st(mesh, ExtrusionSpec(0.0, 17 * STIRRER_DT, 17, traj))


def main():
    out = Path(__file__).resolve().parents[1] / "src" / "ustflow" / "data"
    out.mkdir(parents=True, exist_ok=True)

    mesh2d = build_stirrer_mesh(h_fine=0.175, h_coarse=0.40)
    print("stirrer2d:", quality_report(mesh2d))
    check_twist(mesh2d, 2)
    write_stmesh(mesh2d, out / "stirrer2d.stmesh")

    base3d = build_stirrer_mesh(h_fine=0.16, h_coarse=0.5)
    print("3d base:", quality_report(base3d))
    mesh3d = extrude_spatial(base3d, 0.0, 0.1, 2,
                             lo_tag="bottom", hi_tag="top")
    problems = validate_mesh(mesh3d)
    if problems:
        raise RuntimeError(f"invalid 3d mesh: {problems}")
    print("stirrer3d tets:", mesh3d.n_elements, "nodes:", mesh3d.n_nodes)
    check_twist(mesh3d, 3)
    write_stmesh(mesh3d, out / "stirrer3d.stmesh")

    base3dc = build_stirrer_mesh(h_fine=0.3, h_coarse=0.85)
    print("3d coarse base:", quality_report(base3dc))
    mesh3dc = extrude_spatial(base3dc, 0.0, 0.1, 2,
                              lo_tag="bottom", hi_tag="top")
    problems = validate_mesh(mesh3dc)
    if problems:
        raise RuntimeError(f"invalid coarse 3d mesh: {problems}")
    print("stirrer3d_coarse tets:", mesh3dc.n_elements,
          "nodes:", mesh3dc.n_nodes)
    check_twist(mesh3dc, 3)
    write_stmesh(mesh3dc, out / "stirrer3d_coarse.stmesh")


if __name__ == "__main__":
    main()
