#!/usr/bin/env python3
"""Print sha256 digests of the stirrer pipeline's numeric outputs.

    python3 tools/fingerprint.py

Two trees that print the same lines compute the same bytes: the metric,
the first Newton system and the final solved fields.  The digests cover

- ``mesh_metric`` (Ginv, g, Ginv:Ginv, g.g) on the stirrer2d and stirrer3d
  UST meshes;
- the first Newton system (CSR ``data``, ``indices``, ``indptr`` and the
  right-hand side) of the stirrer2d UST problem, of its first prism slab
  and of the stirrer3d UST problem;
- the final stirrer2d fields of ``run_ust`` and ``run_slab``.

The final UST field's bytes depend on the BLAS thread count, so the
thread counts are pinned to 1 before numpy is imported.  The script peaks
at about 0.6 GB of RSS and takes under ten seconds on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ustflow.assembly import (PrismSlab, PrismSlabProblem,  # noqa: E402
                              SpaceTimeProblem)
from ustflow.extrude import (ExtrusionSpec, extrude_simplex_st,  # noqa: E402
                             rigid_rotation_positions)
from ustflow.scenarios import (make_stirrer2d, make_stirrer3d,  # noqa: E402
                               run_slab, run_ust)
from ustflow.stabilization import mesh_metric  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ust_problem(spec) -> SpaceTimeProblem:
    mesh = extrude_simplex_st(spec.mesh, ExtrusionSpec(
        0.0, spec.t_end, spec.levels, spec.trajectory))
    return SpaceTimeProblem(mesh, spec.material, spec.bcs,
                            body_force=spec.body_force,
                            convective=spec.convective,
                            gauge=spec.gauge_for(mesh.nodes))


def first_slab_problem(spec) -> PrismSlabProblem:
    nodes, traj, dt = spec.mesh.nodes, spec.trajectory, spec.dt
    slab = PrismSlab(spec.mesh, rigid_rotation_positions(nodes, traj, 0.0),
                     rigid_rotation_positions(nodes, traj, dt), 0.0, dt)
    return PrismSlabProblem(slab, spec.material, spec.bcs,
                            body_force=spec.body_force,
                            convective=spec.convective,
                            gauge=spec.gauge_for(slab.node_coords()))


def first_system(problem) -> str:
    system, _, _ = problem.system(problem.initial_guess())
    A = system.matrix
    return digest(A.data, A.indices, A.indptr, system.rhs)


def main():
    s2, s3 = make_stirrer2d(), make_stirrer3d()
    ust2 = ust_problem(s2)
    print("metric stirrer2d ust  ", digest(*mesh_metric(ust2.mesh)))
    print("system stirrer2d ust  ", first_system(ust2))
    print("system stirrer2d slab ", first_system(first_slab_problem(s2)))
    del ust2
    ust3 = ust_problem(s3)
    print("metric stirrer3d ust  ", digest(*mesh_metric(ust3.mesh)))
    print("system stirrer3d ust  ", first_system(ust3))
    del ust3
    print("field  stirrer2d ust  ", digest(run_ust(s2).field.values))
    slab = run_slab(s2)
    print("field  stirrer2d slab ", digest(slab.final_values, *slab.fields))


if __name__ == "__main__":
    main()
