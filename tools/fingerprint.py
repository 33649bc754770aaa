#!/usr/bin/env python3
"""Print sha256 digests of the stirrer pipeline's numeric outputs.

    python3 tools/fingerprint.py [--save DIR] [--against DIR]

Two trees that print the same lines compute the same bytes: the UST
meshes, the metric, the first Newton system and the final solved fields.
The digests cover

- the stirrer2d and stirrer3d UST meshes (nodes, elements, boundary
  facets, their tags and the bottom/top/mantle groups);
- the ``LevelStack`` the assembly finds in each of those meshes
  (``SpaceTimeMesh.level_stack``): its ``n_per``, the elements per level,
  and its ``rotations``, R_k of each element level;
- the per-element geometry of those meshes, ``jacobian_dets`` and
  ``max_edge_lengths``, which a stacked mesh takes from level 0;
- ``mesh_metric`` (Ginv, g, Ginv:Ginv, g.g) on those meshes;
- tau_MOM and tau_CONT of the stirrer2d and stirrer3d UST problems at
  their initial guess, so that a change in how tau is evaluated shows on
  a line of its own;
- probes and slices of the stirrer3d UST mesh, with a seeded random field
  (``post``): the owning element, the interpolated values and the found
  flags of seeded random points over the mesh's bounding box and a little
  beyond, a quarter of them moved onto node-level times, plus mesh nodes;
  and the nodes, simplices and values of its slices at t0, at node level
  9, halfway between node levels 8 and 9 and at tN;
- the first Newton system (CSR ``data``, ``indices``, ``indptr`` and the
  right-hand side) of the stirrer2d UST problem, of its first prism slab
  and of the stirrer3d UST problem.  Their UST initial guesses are
  level-periodic, so those systems are built from element level 0 alone
  (see ``assembly``); the ``perturbed`` line, the stirrer2d UST system at
  its initial guess with node level 5's pressure raised by 1.0, assembles
  every level, and the ``frozen-tau`` line, the same system with tau
  computed on every level and passed as ``tau_override``, takes the
  level-periodic path too, so it prints the ``system stirrer2d ust``
  digest;
- the final stirrer2d fields of ``run_ust`` and ``run_slab``;
- the first Newton system of channel2d in both modes, the one shipped
  case with a Neumann tag, so the only lines that cover the traction term;
- the structured generators ``box2d``, ``annulus2d``, ``disk2d`` and
  ``box3d`` at two sizes each, and the z-extrusion of the stirrer3d tank
  (``build_stirrer_mesh`` of tools/make_stirrer_meshes.py at the
  stirrer3d fixture's sizes, two layers over thickness 0.1): nodes,
  elements, boundary facets, their tags and the tag names (as UTF-8
  bytes);
- ``max_admissible_twist`` of ``disk2d(1.0, 2, 8)`` at omega = 1 and of
  the stirrer2d and stirrer3d fixtures from their slab dt (``twist``);
- the ``validate_mesh`` problem lists of ``box2d(2, 2)`` broken seven
  ways (``validate``).

``--save DIR`` also writes the arrays behind each line to DIR, one
``.npz`` file per line.  ``--against DIR`` reads such a directory, written
by another tree, and prints after each digest the deviation of each of
the line's arrays from the saved one, max|a - ref| / max|ref| (max|a - ref|
where ref is all zeros; ``shape`` where the shapes differ; ``unsaved``
where DIR has no arrays for the line; entries NaN in both agree), so
that a change that moves results by rounding can quote by how much.

The final UST field's bytes depend on the BLAS thread count: OpenBLAS
sums a dot product of more than about 10,000 entries in a different
order on more threads, and the UST residual norms and GMRES's
Gram-Schmidt dots are that long.  So the thread counts are pinned to 1
before numpy is imported.  The script peaks at about 0.35 GB of RSS and
takes under ten seconds on a 2-core machine; ``--save`` writes about
0.2 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from make_stirrer_meshes import build_stirrer_mesh  # noqa: E402
from ustflow.extrude import (NodeTrajectory, extrude_spatial,  # noqa: E402
                             max_admissible_twist)
from ustflow.geometry import annulus2d, box2d, box3d, disk2d  # noqa: E402
from ustflow.mesh import SimplexMesh, time_levels, validate_mesh  # noqa: E402
from ustflow.postproc import _locate, probe, slice_at_time  # noqa: E402
from ustflow.scenarios import (STIRRER_DT, make_channel2d,  # noqa: E402
                               make_stirrer2d, make_stirrer3d, run_slab,
                               run_ust)
from ustflow.stabilization import mesh_metric  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def mesh_arrays(mesh) -> dict:
    return {name: getattr(mesh, name)
            for name in ("nodes", "elements", "boundary_facets",
                         "boundary_tags", "bottom_facets", "top_facets",
                         "mantle_facets")}


def spatial_arrays(*meshes) -> dict:
    """Nodes, elements, boundary facets, their tags and the tag names, as
    UTF-8 bytes, of each mesh, keyed by its position."""
    arrays = {}
    for k, mesh in enumerate(meshes):
        arrays.update({f"{k}_{name}": getattr(mesh, name)
                       for name in ("nodes", "elements", "boundary_facets",
                                    "boundary_tags")})
        arrays[f"{k}_tag_names"] = np.frombuffer(
            " ".join(mesh.tag_names).encode(), dtype=np.uint8)
    return arrays


def stack(mesh) -> dict:
    levels = mesh.level_stack
    return {"n_per": np.array(levels.n_per), "rotations": levels.rotations}


def geometry(mesh) -> dict:
    return {name: getattr(mesh, name)
            for name in ("jacobian_dets", "max_edge_lengths")}


def tau(problem) -> dict:
    stab = problem.stabilization(problem.initial_guess())
    return {"tau_mom": stab.tau_mom, "tau_cont": stab.tau_cont}


def first_system(problem, values=None, frozen_tau=False) -> dict:
    """The Newton system at ``values``, by default the initial guess, with
    tau frozen at ``values`` and passed as ``tau_override`` when
    ``frozen_tau``."""
    if values is None:
        values = problem.initial_guess()
    tau = problem.stabilization(values) if frozen_tau else None
    system, rhs, _ = problem.system(values, tau_override=tau)
    A = system.matrix
    return {"data": A.data, "indices": A.indices, "indptr": A.indptr,
            "rhs": rhs}


def perturbed(problem):
    """The initial guess with the pressure of node level 5 raised by 1.0:
    not level-periodic, so its system assembles every element level."""
    values = problem.initial_guess()
    values[time_levels(problem.mesh.times)[0] == 5, problem.n_sd] += 1.0
    return values


def post(mesh):
    """(probe arrays, slice arrays) of ``mesh`` with a seeded random field."""
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, size=(mesh.n_nodes, mesh.dim))
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    pad = 0.05 * (hi - lo)
    points = rng.uniform(lo - pad, hi + pad, size=(2000, mesh.dim))
    levels = np.unique(mesh.times)
    points[:500, -1] = rng.choice(levels, 500)
    points = np.vstack([points, mesh.nodes[rng.choice(mesh.n_nodes, 100)]])
    at, found = probe(mesh, values, points)
    probes = {"owner": _locate(mesh, points, 1e-10), "values": at,
              "found": found}
    slices = {}
    for name, t in (("t0", mesh.t0), ("level9", levels[9]),
                    ("mid", 0.5 * (levels[8] + levels[9])), ("tN", mesh.tN)):
        sl = slice_at_time(mesh, values, t)
        slices.update({f"{name}_nodes": sl.mesh.nodes,
                       f"{name}_simplices": sl.mesh.elements,
                       f"{name}_values": sl.values})
    return probes, slices


def twist_bounds(*specs) -> dict:
    """The twist bound of ``disk2d(1.0, 2, 8)`` at omega = 1, then of each
    scenario's mesh and trajectory from its slab dt."""
    bounds = [max_admissible_twist(disk2d(1.0, 2, 8),
                                   NodeTrajectory(omega=1.0))]
    bounds += [max_admissible_twist(s.mesh, s.trajectory, dt_hi=STIRRER_DT)
               for s in specs]
    return {"bounds": np.array(bounds)}


def broken_problems() -> dict:
    """``validate_mesh`` of box2d(2, 2) with a facet missing; an interior,
    a duplicated and an unknown facet listed; no facet listed; a facet of
    three elements; and an element with a repeated node id: one list per
    line, as UTF-8 bytes."""
    m = box2d(2, 2)
    n, e, f, t = m.nodes, m.elements, m.boundary_facets, m.boundary_tags
    broken = [(n, e, f[:-1], t[:-1]),
              (n, e, np.vstack([f, [0, 4]]), np.append(t, 0)),
              (n, e, np.vstack([f, f[:1]]), np.append(t, 0)),
              (n, e, np.vstack([f, [0, 8]]), np.append(t, 0)),
              (n, e, f[:0], t[:0]),
              (np.vstack([n, [0.7, 0.2]]), np.vstack([e, [0, 4, 9]]), f, t),
              (n, np.vstack([e, [0, 0, 4]]), f, t)]
    text = "\n".join(repr(validate_mesh(SimplexMesh(*arrays, m.tag_names)))
                     for arrays in broken)
    return {"problems": np.frombuffer(text.encode(), dtype=np.uint8)}


def lines():
    """(label, {name: array}) of each line, computed one at a time."""
    s2, s3 = make_stirrer2d(), make_stirrer3d()
    ust2 = s2.problem(s2.ust_mesh())
    metric = ("Ginv", "g", "GG", "gg")
    yield "mesh   stirrer2d ust  ", mesh_arrays(ust2.mesh)
    yield "stack  stirrer2d ust  ", stack(ust2.mesh)
    yield "geometry stirrer2d ust", geometry(ust2.mesh)
    yield "metric stirrer2d ust  ", dict(zip(metric, mesh_metric(ust2.mesh)))
    yield "tau    stirrer2d ust  ", tau(ust2)
    yield "system stirrer2d ust  ", first_system(ust2)
    yield "system stirrer2d ust perturbed", first_system(ust2, perturbed(ust2))
    yield "system stirrer2d ust frozen-tau", first_system(ust2, frozen_tau=True)
    yield "system stirrer2d slab ", first_system(s2.problem(s2.slab(0)))
    del ust2
    ust3 = s3.problem(s3.ust_mesh())
    yield "mesh   stirrer3d ust  ", mesh_arrays(ust3.mesh)
    yield "stack  stirrer3d ust  ", stack(ust3.mesh)
    yield "geometry stirrer3d ust", geometry(ust3.mesh)
    yield "metric stirrer3d ust  ", dict(zip(metric, mesh_metric(ust3.mesh)))
    yield "tau    stirrer3d ust  ", tau(ust3)
    yield "system stirrer3d ust  ", first_system(ust3)
    probes, slices = post(ust3.mesh)
    yield "probe  stirrer3d ust  ", probes
    yield "slice  stirrer3d ust  ", slices
    del ust3, probes, slices
    yield "field  stirrer2d ust  ", {"values": run_ust(s2).fields[0]}
    slab = run_slab(s2)
    yield "field  stirrer2d slab ", {"final": slab.final_values,
                                     **{f"slab{k}": f
                                        for k, f in enumerate(slab.fields)}}
    c2 = make_channel2d()
    yield "system channel2d ust  ", first_system(c2.problem(c2.ust_mesh()))
    yield "system channel2d slab ", first_system(c2.problem(c2.slab(0)))
    yield "mesh   box2d          ", spatial_arrays(
        box2d(3, 2), box2d(5, 4, lx=2.0, ly=0.5, x0=-1.0, y0=0.25))
    yield "mesh   annulus2d      ", spatial_arrays(annulus2d(1.0, 2.0, 3, 9),
                                                   annulus2d(0.5, 1.0, 2, 16))
    yield "mesh   disk2d         ", spatial_arrays(disk2d(1.0, 1, 6),
                                                   disk2d(1.5, 4, 7))
    yield "mesh   box3d          ", spatial_arrays(
        box3d(2, 2, 1), box3d(3, 2, 2, lx=2.0, ly=0.5, lz=3.0))
    tank = build_stirrer_mesh(h_fine=0.16, h_coarse=0.5)
    yield "mesh   stirrer3d tank z", spatial_arrays(
        extrude_spatial(tank, 0.0, 0.1, 2, lo_tag="bottom", hi_tag="top"))
    yield "twist  disk2d stirrer2d stirrer3d", twist_bounds(s2, s3)
    yield "validate box2d broken ", broken_problems()


def deviation(a, ref) -> str:
    """max|a - ref| / max|ref| as text, or ``shape``; entries that are NaN
    in both arrays (probes outside the mesh) agree, a NaN in one alone
    gives ``nan``."""
    a, ref = np.asarray(a, dtype=float), np.asarray(ref, dtype=float)
    if a.shape != ref.shape:
        return "shape"
    if a.size == 0:
        return "0"
    both = np.isnan(a) & np.isnan(ref)
    err = np.abs(np.where(both, 0.0, a - ref)).max()
    scale = np.abs(ref[~both]).max(initial=0.0)
    return f"{err / scale if scale else err:.1e}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="write each line's arrays to DIR")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="print each array's deviation from DIR's")
    args = parser.parse_args(argv)
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    for label, arrays in lines():
        out = [label, digest(*arrays.values())]
        name = "_".join(label.split()) + ".npz"
        if args.save:
            np.savez(args.save / name, **arrays)
        if args.against and not (args.against / name).exists():
            out.append("unsaved")
        elif args.against:
            with np.load(args.against / name) as ref:
                out += [f"{key} {deviation(a, ref[key])}"
                        for key, a in arrays.items()]
        print(*out)


if __name__ == "__main__":
    main()
