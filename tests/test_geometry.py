import hashlib

import numpy as np
import pytest

from ustflow.errors import DegenerateElement
from ustflow.extrude import extrude_spatial
from ustflow.geometry import annulus2d, box2d, box3d, disk2d
from ustflow.mesh import SimplexMesh, validate_mesh


def mesh_digest(mesh) -> str:
    """sha256 of the dtype, shape and bytes of the nodes, elements, boundary
    facets and boundary tags, then the tag names."""
    h = hashlib.sha256()
    for a in (mesh.nodes, mesh.elements, mesh.boundary_facets,
              mesh.boundary_tags):
        h.update(f"{a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    h.update(" ".join(mesh.tag_names).encode())
    return h.hexdigest()


# Digests of the generators' outputs, pinned from the per-cell loops that
# the cell split replaced; the ring nodes' bytes depend on numpy's cos and
# sin.
GENERATED = [
    ("box2d(1, 1)", lambda: box2d(1, 1),
     "131725e6adf986307501ae74b99e56a2f8c5eab34fa9c9cb80edf71e5e73724a"),
    ("box2d(3, 2)", lambda: box2d(3, 2),
     "b622a9e1dc09bfc7f3bb9d0a3f2b7a9bc526ef3681f77983c7cc1749ef4373ca"),
    ("box2d(5, 4, offset)",
     lambda: box2d(5, 4, lx=2.0, ly=0.5, x0=-1.0, y0=0.25),
     "01844d335cfee875b55fff616eb90d1f09b2bee68c6b1c65d4a236749511cdb2"),
    ("annulus2d(1, 3)", lambda: annulus2d(1.0, 2.0, 1, 3),
     "e6ee0aa047af098e91e43b7d0a8746cb570e89eaf23b15f5cc14d840598f8d9e"),
    ("annulus2d(3, 9)", lambda: annulus2d(1.0, 2.0, 3, 9),
     "3d225a35a8449a5ee69efc361d03112f457dd91b53de604a6e838f6f3c4335fb"),
    ("disk2d(1, 6)", lambda: disk2d(1.0, 1, 6),
     "4558f6c80e3c9cbd8814dffd49d74d280bd12a35a36f400366fbb5354834abc5"),
    ("disk2d(4, 7)", lambda: disk2d(1.5, 4, 7),
     "fc83e3b3d739ab43eef54adbd2c65ab2b6e2f79fac8b6c1b3cbd850e77e85613"),
    ("box3d(1, 1, 1)", lambda: box3d(1, 1, 1),
     "0b7023c0842ec4330b4365316ab806faec8a156513b60c2df492bd60fc8297ed"),
    ("box3d(3, 2, 2, lengths)",
     lambda: box3d(3, 2, 2, lx=2.0, ly=0.5, lz=3.0),
     "721d5a41da04f46d5219d4f63d7c0b537a4b3ab207282479a9abe1a49a86a3e4"),
    ("extrude_spatial(disk2d)",
     lambda: extrude_spatial(disk2d(1.0, 2, 8), -0.5, 0.7, 3,
                             lo_tag="z0", hi_tag="z1"),
     "f8234698ead64fc83f1213bfe4525c861bb04376331cc41493af79506a5c83af"),
]


@pytest.mark.parametrize("make, digest", [g[1:] for g in GENERATED],
                         ids=[g[0] for g in GENERATED])
def test_generator_bytes_pinned(make, digest):
    mesh = make()
    assert validate_mesh(mesh) == []
    assert mesh_digest(mesh) == digest


def test_extrude_spatial_names_degenerate_spatial_element():
    # element 1 has three collinear nodes
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    spatial = SimplexMesh(nodes, [[0, 1, 2], [0, 1, 3]], np.zeros((0, 2)),
                          np.zeros(0), [])
    with pytest.raises(DegenerateElement,
                       match=r"^spatial element 1 is degenerate \(det=0\)$"):
        extrude_spatial(spatial, 0.0, 1.0, 2)
