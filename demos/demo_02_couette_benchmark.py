"""Rotating Couette flow solved in one space-time shot.

An annulus with a spinning inner wall is extruded flat in time; a single
nonlinear solve over the whole space-time domain reaches the steady state,
which has the closed-form azimuthal profile
u_theta(r) = omega r_i^2 (r_o^2 / r - r) / (r_o^2 - r_i^2).
"""

import numpy as np

from ustflow import export_vtk, l2_error, probe
from ustflow.scenarios import make_couette2d, run_ust

spec = make_couette2d(n_r=8, n_theta=24)
result = run_ust(spec)
(newton,) = result.newtons
print(f"Newton iterations: {newton.iterations}, "
      f"final residual {newton.trace[-1]:.2e}")

# the field at t_end: the top node level of the space-time solution
mesh, values = result.final_mesh, result.final_values
exact = spec.exact_solution
err = l2_error(mesh, values, exact)
rel = np.sqrt((err["components"][:2] ** 2).sum()) \
    / np.sqrt((err["exact_components"][:2] ** 2).sum())
print(f"relative L2 velocity error at t_end: {rel:.3%}")

# sample the radial profile along the +x axis
radii = np.linspace(1.05, 1.95, 10)
vals, found = probe(mesh, values, np.column_stack(
    [radii, np.zeros_like(radii)]))
print(" r     u_theta_h   u_theta_exact")
for r, v in zip(radii, vals):
    u_exact = exact(np.array([[r, 0.0]]))[0, 1]
    print(f"{r:5.2f}  {v[1]:9.5f}   {u_exact:9.5f}")

export_vtk(mesh, values[:, :2], values[:, 2], "couette_final.vtk")
print("wrote couette_final.vtk")
