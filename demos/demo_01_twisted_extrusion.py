"""Build a twisted space-time mesh around a rotating disk.

The spatial disk is swept through time while rotating rigidly; each
triangle-prism between consecutive levels is split into three tetrahedra by
the sorted-path rule, which keeps the mesh conforming.  The admissible
twist per level is bounded; beyond it elements invert.
"""

from ustflow import (ExtrusionSpec, NodeTrajectory, extrude_simplex_st,
                     max_admissible_twist, validate_mesh, write_stmesh)
from ustflow.geometry import disk2d

spatial = disk2d(radius=1.0, n_r=4, n_theta=20)
print(f"spatial disk: {spatial.n_elements} triangles, "
      f"{spatial.n_nodes} nodes, area {spatial.total_measure:.6f}")

trajectory = NodeTrajectory(center=(0.0, 0.0), omega=1.5)
dt_max = max_admissible_twist(spatial, trajectory)
print(f"largest admissible level spacing for omega=1.5: {dt_max:.4f}")

spec = ExtrusionSpec(t0=0.0, tN=1.0, n_levels=5, trajectory=trajectory)
st = extrude_simplex_st(spatial, spec)
print(f"space-time mesh: {st.n_elements} tetrahedra "
      f"(= {spatial.n_elements} x {spec.n_levels} x 3), "
      f"{st.n_nodes} nodes")
print(f"boundary: {len(st.bottom_facets)} bottom, {len(st.top_facets)} top, "
      f"{len(st.mantle_facets)} mantle facets")
print("conformity violations:", validate_mesh(st))

write_stmesh(st, "twisted_disk.stmesh")
print("wrote twisted_disk.stmesh")
