"""Slicing a 4D pentatope mesh back into tetrahedra.

A rotating box is extruded into pentatopes; intersecting the 4D mesh with a
constant-time hyperplane recovers a tetrahedral mesh with interpolated
fields, ready for standard visualization.
"""

import numpy as np

from ustflow import (ExtrusionSpec, NodeTrajectory, export_vtk,
                     extrude_simplex_st, slice_at_time)
from ustflow.geometry import box3d

spatial = box3d(2, 2, 1)
trajectory = NodeTrajectory(center=(0.5, 0.5, 0.0),
                            axis=(0.0, 0.0, 1.0), omega=0.6)
st = extrude_simplex_st(spatial, ExtrusionSpec(0.0, 0.5, 3, trajectory))
print(f"4D mesh: {st.n_elements} pentatopes over {spatial.n_elements} tets")

# a solenoidal sample field plus a pressure-like scalar
x, y, z, t = st.nodes.T
values = np.column_stack([-(y - 0.5), x - 0.5, np.zeros_like(z),
                          np.cos(np.pi * t) * x * y])

for frac in (0.25, 0.5, 0.83):
    t_cut = 0.5 * frac
    sl = slice_at_time(st, values, t_cut)
    print(f"slice t = {t_cut:5.3f}: {sl.mesh.n_elements} tetrahedra, "
          f"volume {sl.mesh.total_measure:.6f}")

sl = slice_at_time(st, values, 0.21)
export_vtk(sl.mesh, sl.values[:, :3], sl.values[:, 3], "box_slice.vtk")
print("wrote box_slice.vtk")
