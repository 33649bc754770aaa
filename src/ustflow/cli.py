"""Command-line entry point.

Subcommands: mesh-gen, run, slice, probe, validate, convergence.
Exit codes: 0 success, 1 runtime error, 2 usage error.  Logs go to stderr;
artifacts go to files only.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .scenarios import (STUDY_CASES, builtin_cases, convergence_study,
                        run_slab, run_ust)
from .solver import NewtonConfig, newton_line


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
    p.add_argument("--levels", type=int,
                   help="time levels of the grid, in both modes")
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
    p.add_argument("--case", required=True, choices=sorted(STUDY_CASES))
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


def _cmd_mesh_gen(args, parser) -> int:
    try:
        grid = ExtrusionSpec(0.0, args.t_end, args.levels)
    except ValueError as exc:
        parser.error(f"--levels {args.levels} --t-end {args.t_end:g}: {exc}")
    center = _floats("--center", args.center)
    axis = _floats("--axis", args.axis)
    mesh = stio.read_stmesh(args.input)
    try:
        traj = NodeTrajectory(center, axis, args.omega)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    st = extrude_simplex_st(mesh, dataclasses.replace(grid, trajectory=traj))
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
    if args.slice_time is not None and mode != "ust":
        parser.error("--slice-time needs --mode ust: a slice is cut from "
                     "the space-time field of a UST run")
    if args.levels is not None:
        try:
            spec = dataclasses.replace(spec, levels=args.levels)
        except ValueError as exc:
            parser.error(f"--levels {args.levels}: {exc}")

    try:
        newton_cfg = NewtonConfig(max_iter=args.max_iter)
    except ValueError as exc:
        parser.error(f"--max-iter {args.max_iter}: {exc}")

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {out}: "
                        f"{exc}") from exc
    res = (run_ust if mode == "ust" else run_slab)(spec, newton_cfg=newton_cfg)
    # a UST run writes its space-time field, which slice and probe read
    mesh, values = ((res.slabs[0], res.fields[0]) if mode == "ust"
                    else (res.final_mesh, res.final_values))
    stio.write_result(mesh, values, out / "result.dat")
    if args.slice_time is not None:
        sl = slice_at_time(mesh, values, args.slice_time)
        export_vtk(sl.mesh, sl.values[:, : mesh.n_sd], sl.values[:, mesh.n_sd],
                   out / f"slice_t{args.slice_time:g}.vtk",
                   title=f"{spec.name} t={args.slice_time:g}")
    with stio.writing(out / "newton_trace.log") as f:
        for k, newton in enumerate(res.newtons):
            for it, entry in enumerate(zip(
                    newton.trace, newton.res_mom, newton.res_cont,
                    newton.res_dir, newton.assemble_s, [None] + newton.eta)):
                f.write(f"solve={k} {newton_line(it, *entry)}\n")
    if not res.diagnostics["converged"]:
        print(f"warning: Newton did not reach tolerance in slab "
              f"{res.diagnostics['failed_slab']}", file=sys.stderr)
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


def _cmd_convergence(args, parser) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        if not sizes or min(sizes) < 1:
            raise ValueError
    except ValueError:
        parser.error(f"--sizes {args.sizes}: need comma-separated positive "
                     f"integers")
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
            return _cmd_mesh_gen(args, parser)
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "slice":
            return _cmd_slice(args)
        if args.command == "probe":
            return _cmd_probe(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "convergence":
            return _cmd_convergence(args, parser)
        parser.error("unknown command")
    except UstflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
