"""The rotating-stirrer benchmark, both ways.

The same four-blade stirrer problem is solved (a) with one nonlinear solve
over the fully twisted unstructured space-time mesh, and (b) by marching
time slabs whose nodes rotate rigidly with the stirrer (the ALE-equivalent
tensor-product mode).  Velocity magnitudes at a probe ring and vorticity
near the blade tips are compared between the modes.
"""

import numpy as np

from ustflow import export_vtk, probe, probe_vorticity, slice_at_time
from ustflow.scenarios import STIRRER_OMEGA, make_stirrer2d, run_slab, run_ust
from ustflow.solver import NewtonConfig

spec = make_stirrer2d()
print(f"stirrer2d: {spec.mesh.n_elements} triangles, omega = {spec.omega:.2f}, "
      f"mu = {spec.material.mu}, {spec.levels} levels of dt = {spec.dt}")

ust = run_ust(spec, newton_cfg=NewtonConfig(max_iter=30))
print(f"UST solve: {ust.newton.iterations} Newton iterations "
      f"over {ust.mesh.n_elements} tetrahedra")

slab = run_slab(spec, newton_cfg=NewtonConfig(max_iter=15))
print(f"slab marching: {slab.diagnostics['n_slabs']} slabs, iterations "
      f"{slab.diagnostics['newton_iterations']}")

t_end = spec.t_end
sl = slice_at_time(ust.mesh, ust.field.values, t_end)
final_mesh = slab.final_mesh

ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
ring = np.column_stack([2.8 * np.cos(ang), 2.8 * np.sin(ang)])
v_ust, _ = probe(sl.mesh, sl.values, ring)
v_slab, _ = probe(final_mesh, slab.final_values, ring)
m_ust = np.hypot(v_ust[:, 0], v_ust[:, 1])
m_slab = np.hypot(v_slab[:, 0], v_slab[:, 1])
print("probe ring r = 2.8, |u| UST vs slab:")
for a, mu_, ms_ in zip(np.degrees(ang), m_ust, m_slab):
    print(f"  {a:5.1f} deg: {mu_:8.2f} vs {ms_:8.2f}")

theta_end = STIRRER_OMEGA * t_end
tip_pts = []
for r_tip, base in ((2.6, np.pi / 2), (2.6, 3 * np.pi / 2),
                    (2.0, 0.0), (2.0, np.pi)):
    for s in (0.12, -0.12):
        a = base + theta_end + s
        tip_pts.append(((r_tip + 0.15) * np.cos(a),
                        (r_tip + 0.15) * np.sin(a)))
w_ust, _ = probe_vorticity(sl.mesh, sl.values, np.array(tip_pts))
w_slab, _ = probe_vorticity(final_mesh, slab.final_values, np.array(tip_pts))
print("vorticity sign pattern at blade tips, UST :", np.sign(w_ust))
print("vorticity sign pattern at blade tips, slab:", np.sign(w_slab))

export_vtk(sl.mesh, sl.values[:, :2], sl.values[:, 2], "stirrer_ust.vtk")
export_vtk(final_mesh, slab.final_values[:, :2], slab.final_values[:, 2],
           "stirrer_slab.vtk")
print("wrote stirrer_ust.vtk and stirrer_slab.vtk")
