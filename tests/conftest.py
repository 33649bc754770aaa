import numpy as np
import pytest

from ustflow.assembly import PrismSlab
from ustflow.extrude import (ExtrusionSpec, NodeTrajectory, extrude_simplex_st,
                             rigid_rotation_positions)
from ustflow.geometry import box2d, box3d
from ustflow.mesh import SimplexMesh, SpaceTimeMesh


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def single_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2]])
    facets = np.array([[0, 1], [1, 2], [2, 0]])
    tags = np.array([0, 0, 0])
    return SimplexMesh(nodes, elements, facets, tags, ["wall"])


def copy_mesh(mesh, nodes=None, elements=None):
    """``mesh`` with other nodes or elements (the same boundary), through
    the constructor."""
    return SpaceTimeMesh(
        mesh.nodes if nodes is None else nodes,
        mesh.elements if elements is None else elements,
        mesh.boundary_facets, mesh.boundary_tags, mesh.tag_names, mesh.t0,
        mesh.tN, facet_groups=(mesh.bottom_facets, mesh.top_facets,
                               mesh.mantle_facets))


def random_simplex(rng, dim, min_det=1e-3):
    """Random non-degenerate simplex node coordinates (dim+1, dim)."""
    while True:
        X = rng.uniform(-1.0, 1.0, size=(dim + 1, dim))
        J = (X[1:] - X[0]).T
        h = max(np.linalg.norm(X[i] - X[j]) for i in range(dim + 1)
                for j in range(i))
        if abs(np.linalg.det(J)) > min_det * h ** dim:
            return X


def twisted_slab(n_sd, omega=0.6, t0=0.1, dt=0.15):
    """Rigidly rotating prism slab: 2D about (0.5, 0.5), 3D about a tilted
    axis."""
    if n_sd == 2:
        spatial = box2d(2, 2)
        traj = NodeTrajectory((0.5, 0.5), omega=omega)
    else:
        spatial = box3d(1, 1, 1)
        traj = NodeTrajectory((0.5, 0.4, 0.5),
                              axis=(1.0, 2.0, 3.0), omega=omega)
    return PrismSlab(spatial,
                     rigid_rotation_positions(spatial.nodes, traj, t0),
                     rigid_rotation_positions(spatial.nodes, traj, t0 + dt),
                     t0, dt)


@pytest.fixture
def small_st_mesh_2d():
    """48-tet space-time mesh over a 2x2 unit square grid, 2 levels."""
    spatial = box2d(2, 2)
    return extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.2, 2))


@pytest.fixture
def small_st_mesh_3d():
    """48-pentatope space-time mesh over a 6-tet unit cube, 2 levels."""
    spatial = box3d(1, 1, 1)
    return extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.2, 2))
