"""Command-line entry point.

Subcommands: mesh-gen, run, slice, probe, validate, convergence.
Exit codes: 0 success, 1 runtime error, 2 usage error.  Logs go to stderr;
artifacts go to files only.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import io as stio
from .errors import (ConfigurationError, IoFailure, ParseError,
                     UstflowError)
from .extrude import ExtrusionSpec, NodeTrajectory, extrude_simplex_st
from .mesh import validate_mesh
from .postproc import export_vtk, probe, slice_at_time
from .scenarios import builtin_cases, convergence_study, run_slab, run_ust
from .solver import NewtonConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ustflow",
        description="Incompressible Navier-Stokes on simplex space-time meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-gen", help="extrude a spatial mesh in time")
    p.add_argument("--input", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--center", default="0 0",
                   help="rotation center, space-separated floats")
    p.add_argument("--axis", default="0 0 1")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="solve a scenario")
    p.add_argument("--case", help="builtin case name")
    p.add_argument("--config", help="scenario config file")
    p.add_argument("--mode", choices=["ust", "slab"])
    p.add_argument("--levels", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--out", default=".")
    p.add_argument("--slice-time", type=float)
    p.add_argument("--max-iter", type=int, default=40)

    p = sub.add_parser("slice", help="extract a spatial slice from a result")
    p.add_argument("--result", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("probe", help="sample a result at points")
    p.add_argument("--result", required=True)
    p.add_argument("--points", required=True,
                   help="file with one 'x y [z] t' line per probe")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check a mesh file")
    p.add_argument("--mesh", required=True)

    p = sub.add_parser("convergence", help="run a refinement study")
    p.add_argument("--case", required=True)
    p.add_argument("--mode", choices=["ust", "slab"], default="ust")
    p.add_argument("--sizes", default="6,12,24")
    p.add_argument("--out", required=True)
    return parser


def _floats(name: str, text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split())
    except ValueError:
        raise ConfigurationError(
            f"{name} must be space-separated floats, got {text!r}") from None


def _cmd_mesh_gen(args) -> int:
    center = _floats("--center", args.center)
    axis = _floats("--axis", args.axis)
    mesh = stio.read_stmesh(args.input)
    kind = "rigid_rotation" if args.omega != 0.0 else "static"
    try:
        traj = NodeTrajectory(kind, center, axis, args.omega)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    st = extrude_simplex_st(mesh, ExtrusionSpec(0.0, args.t_end, args.levels,
                                                traj))
    stio.write_stmesh(st, args.out)
    logging.getLogger("ustflow").info(
        "mesh-gen: %d nodes, %d elements", st.n_nodes, st.n_elements)
    return 0


def _cmd_run(args, parser) -> int:
    if args.case is None and args.config is None:
        parser.error("run needs --case or --config")
    if args.config is not None:
        spec = stio.read_config(args.config)
    else:
        registry = builtin_cases()
        if args.case not in registry:
            parser.error(f"unknown case {args.case!r} "
                         f"(known: {sorted(registry)})")
        spec = registry[args.case]()
    mode = args.mode or spec.mode
    if mode == "ust" and args.dt is not None:
        parser.error("--dt applies to slab mode only")
    if mode == "slab" and args.levels is not None:
        parser.error("--levels applies to ust mode only")
    if args.levels is not None and args.levels < 1:
        parser.error(f"--levels must be at least 1, got {args.levels}")
    if args.dt is not None and not args.dt > 0:
        parser.error(f"--dt must be positive, got {args.dt:g}")
    if args.levels is not None:
        spec.levels = args.levels
    if args.dt is not None:
        spec.dt = args.dt

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = NewtonConfig(max_iter=args.max_iter)
    if mode == "ust":
        res = run_ust(spec, newton_cfg=cfg)
        stio.write_result(res.mesh, res.field.values, out / "result.dat")
        newtons = [res.newton]
        if args.slice_time is not None:
            sl = slice_at_time(res.mesh, res.field.values, args.slice_time)
            export_vtk(sl.mesh, sl.values[:, : res.mesh.n_sd],
                       sl.values[:, res.mesh.n_sd],
                       out / f"slice_t{args.slice_time:g}.vtk",
                       title=f"{spec.name} t={args.slice_time:g}")
    else:
        res = run_slab(spec, newton_cfg=cfg)
        final = res.spatial
        moved = type(final)(
            res.final_positions, final.elements, final.boundary_facets,
            final.boundary_tags, final.tag_names, fix_orientation=False)
        stio.write_result(moved, res.final_values, out / "result.dat")
        newtons = res.newtons
    with open(out / "newton_trace.log", "w") as f:
        for k, newton in enumerate(newtons):
            etas = ["-"] + [f"{eta:.3e}" for eta in newton.eta]
            for it, (r, t, eta) in enumerate(zip(newton.trace,
                                                 newton.assemble_s, etas)):
                f.write(f"solve={k} newton iter={it} res={r:.6e} "
                        f"assemble_s={t:.3f} eta={eta}\n")
    if not res.diagnostics["converged"]:
        failed = res.diagnostics.get("failed_slab")
        where = "" if failed is None else f" in slab {failed}"
        print(f"warning: Newton did not reach tolerance{where}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_slice(args) -> int:
    mesh, values = stio.read_result(args.result)
    if not hasattr(mesh, "n_sd"):
        print("slice requires a space-time result", file=sys.stderr)
        return 1
    sl = slice_at_time(mesh, values, args.time)
    export_vtk(sl.mesh, sl.values[:, : mesh.n_sd], sl.values[:, mesh.n_sd],
               args.out, title=f"slice t={args.time:g}")
    return 0


def _cmd_probe(args) -> int:
    mesh, values = stio.read_result(args.result)
    try:
        pts = np.loadtxt(args.points, ndmin=2)
    except OSError as exc:
        raise IoFailure(f"cannot read {args.points}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{args.points}: probe points must be rows of "
                         f"floats ({exc})") from exc
    if pts.shape[1] != mesh.dim:
        print(f"probe points need {mesh.dim} columns", file=sys.stderr)
        return 1
    vals, found = probe(mesh, values, pts)
    stio.write_probe_csv(args.out, pts, vals, found)
    return 0 if found.all() else 1


def _cmd_validate(args) -> int:
    mesh = stio.read_stmesh(args.mesh)
    problems = validate_mesh(mesh)
    if problems:
        for msg in problems:
            print(f"invalid: {msg}", file=sys.stderr)
        return 1
    print(f"valid: {mesh.n_nodes} nodes, {mesh.n_elements} elements, "
          f"{len(mesh.boundary_facets)} boundary facets")
    return 0


def _cmd_convergence(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = convergence_study(args.case, sizes, args.mode)
    stio.write_convergence_csv(args.out, rows)
    for row in rows:
        print(",".join(f"{k}={v}" for k, v in row.items()))
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mesh-gen":
            return _cmd_mesh_gen(args)
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "slice":
            return _cmd_slice(args)
        if args.command == "probe":
            return _cmd_probe(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        parser.error("unknown command")
    except UstflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
