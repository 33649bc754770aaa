"""Rotating Couette flow solved in one space-time shot.

An annulus with a spinning inner wall is extruded flat in time; a single
nonlinear solve over the whole space-time domain reaches the steady state,
which has the closed-form azimuthal profile
u_theta(r) = omega r_i^2 (r_o^2 / r - r) / (r_o^2 - r_i^2).
"""

import numpy as np

from ustflow import export_vtk, l2_error, slice_at_time
from ustflow.scenarios import make_couette2d, run_ust

spec = make_couette2d(n_r=8, n_theta=24)
result = run_ust(spec)
print(f"Newton iterations: {result.newton.iterations}, "
      f"final residual {result.newton.trace[-1]:.2e}")

sl = slice_at_time(result.mesh, result.field.values, spec.t_end)
exact = spec.exact_solution
err = l2_error(sl.mesh, sl.values, exact)
rel = np.sqrt((err["components"][:2] ** 2).sum()) \
    / np.sqrt((err["exact_components"][:2] ** 2).sum())
print(f"relative L2 velocity error at t_end: {rel:.3%}")

# sample the radial profile along the +x axis
radii = np.linspace(1.05, 1.95, 10)
from ustflow import probe
vals, found = probe(sl.mesh, sl.values, np.column_stack(
    [radii, np.zeros_like(radii)]))
print(" r     u_theta_h   u_theta_exact")
for r, v in zip(radii, vals):
    u_exact = exact(np.array([[r, 0.0]]))[0, 1]
    print(f"{r:5.2f}  {v[1]:9.5f}   {u_exact:9.5f}")

export_vtk(sl.mesh, sl.values[:, :2], sl.values[:, 2], "couette_final.vtk")
print("wrote couette_final.vtk")
