"""The rotating-stirrer benchmark, both ways.

The same four-blade stirrer problem is solved (a) with one nonlinear solve
over the fully twisted unstructured space-time mesh, and (b) by marching
time slabs whose nodes rotate rigidly with the stirrer (the ALE-equivalent
tensor-product mode).  Both runs end on the spatial mesh rotated to t_end;
velocity magnitudes at a probe ring and vorticity near the blade tips are
compared there between the modes.
"""

import numpy as np

from ustflow import export_vtk, probe, probe_vorticity
from ustflow.scenarios import STIRRER_OMEGA, make_stirrer2d, run_slab, run_ust
from ustflow.solver import NewtonConfig

spec = make_stirrer2d()
print(f"stirrer2d: {spec.mesh.n_elements} triangles, omega = {spec.omega:.2f}, "
      f"mu = {spec.material.mu}, {spec.levels} levels of dt = {spec.dt}")

runs = {"UST": run_ust(spec, newton_cfg=NewtonConfig(max_iter=30)),
        "slab": run_slab(spec, newton_cfg=NewtonConfig(max_iter=15))}
for name, res in runs.items():
    print(f"{name}: {res.diagnostics['n_slabs']} solves, Newton iterations "
          f"{res.diagnostics['newton_iterations']}")

ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
ring = np.column_stack([2.8 * np.cos(ang), 2.8 * np.sin(ang)])
theta_end = STIRRER_OMEGA * spec.t_end
tip_pts = []
for r_tip, base in ((2.6, np.pi / 2), (2.6, 3 * np.pi / 2),
                    (2.0, 0.0), (2.0, np.pi)):
    for s in (0.12, -0.12):
        a = base + theta_end + s
        tip_pts.append(((r_tip + 0.15) * np.cos(a),
                        (r_tip + 0.15) * np.sin(a)))

speed, vorticity = {}, {}
for name, res in runs.items():
    mesh, values = res.final_mesh, res.final_values
    v, _ = probe(mesh, values, ring)
    speed[name] = np.hypot(v[:, 0], v[:, 1])
    vorticity[name], _ = probe_vorticity(mesh, values, np.array(tip_pts))
    export_vtk(mesh, values[:, :2], values[:, 2], f"stirrer_{name.lower()}.vtk")

print("probe ring r = 2.8, |u| UST vs slab:")
for a, mu_, ms_ in zip(np.degrees(ang), speed["UST"], speed["slab"]):
    print(f"  {a:5.1f} deg: {mu_:8.2f} vs {ms_:8.2f}")
for name, w in vorticity.items():
    print(f"vorticity sign pattern at blade tips, {name:4s}:", np.sign(w))
print("wrote stirrer_ust.vtk and stirrer_slab.vtk")
