#!/usr/bin/env python3
"""Print sha256 digests of the stirrer pipeline's numeric outputs.

    python3 tools/fingerprint.py

Two trees that print the same lines compute the same bytes: the UST
meshes, the metric, the first Newton system and the final solved fields.
The digests cover

- the stirrer2d and stirrer3d UST meshes (nodes, elements, boundary
  facets, their tags and the bottom/top/mantle groups);
- ``mesh_metric`` (Ginv, g, Ginv:Ginv, g.g) on those meshes;
- the first Newton system (CSR ``data``, ``indices``, ``indptr`` and the
  right-hand side) of the stirrer2d UST problem, of its first prism slab
  and of the stirrer3d UST problem;
- the final stirrer2d fields of ``run_ust`` and ``run_slab``;
- the first Newton system of channel2d in both modes, the one shipped
  case with a Neumann tag, so the only lines that cover the traction term.

The final UST field's bytes depend on the BLAS thread count: OpenBLAS
sums a dot product of more than about 10,000 entries in a different
order on more threads, and the UST residual norms and GMRES's
Gram-Schmidt dots are that long.  So the thread counts are pinned to 1
before numpy is imported.  The script peaks
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

from ustflow.scenarios import (make_channel2d, make_stirrer2d,  # noqa: E402
                               make_stirrer3d, run_slab, run_ust)
from ustflow.stabilization import mesh_metric  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def mesh_digest(mesh) -> str:
    return digest(mesh.nodes, mesh.elements, mesh.boundary_facets,
                  mesh.boundary_tags, mesh.bottom_facets, mesh.top_facets,
                  mesh.mantle_facets)


def first_system(problem) -> str:
    system, _, _ = problem.system(problem.initial_guess())
    A = system.matrix
    return digest(A.data, A.indices, A.indptr, system.rhs)


def main():
    s2, s3 = make_stirrer2d(), make_stirrer3d()
    ust2 = s2.problem(s2.ust_mesh())
    print("mesh   stirrer2d ust  ", mesh_digest(ust2.mesh))
    print("metric stirrer2d ust  ", digest(*mesh_metric(ust2.mesh)))
    print("system stirrer2d ust  ", first_system(ust2))
    print("system stirrer2d slab ", first_system(s2.problem(s2.slab(0))))
    del ust2
    ust3 = s3.problem(s3.ust_mesh())
    print("mesh   stirrer3d ust  ", mesh_digest(ust3.mesh))
    print("metric stirrer3d ust  ", digest(*mesh_metric(ust3.mesh)))
    print("system stirrer3d ust  ", first_system(ust3))
    del ust3
    print("field  stirrer2d ust  ", digest(run_ust(s2).field.values))
    slab = run_slab(s2)
    print("field  stirrer2d slab ", digest(slab.final_values, *slab.fields))
    c2 = make_channel2d()
    print("system channel2d ust  ", first_system(c2.problem(c2.ust_mesh())))
    print("system channel2d slab ", first_system(c2.problem(c2.slab(0))))


if __name__ == "__main__":
    main()
