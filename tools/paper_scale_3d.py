#!/usr/bin/env python3
"""Solve the 3D stirrer at paper size and record its stages and peak RSS.

    python3 tools/paper_scale_3d.py [--step | --stirrer2d]

The spatial mesh is ``build_stirrer_mesh(H_FINE, H_COARSE, seed=SEED)``
extruded through the tank's thickness 0.1 in ``LAYERS`` layers, which gives
1,785,000 pentatopes and 514,728 dofs, the nearest generated mesh to the
paper's 1,673,344.  ``run_ust`` then solves the stirrer3d scenario on it
with its default Newton and linear-solver settings.  With ``--step`` the
run stops after what the ``ust3d_stirrer_step`` benchmark times: the
space-time mesh and the problem, one Newton system (matrix and residual)
and one residual norm at the initial guess, with no linear solve.  With
``--stirrer2d`` it solves the 2D stirrer at paper size instead: the same
spatial mesh, not extruded, under ``run_ust`` (223,125 space-time
tetrahedra, 128,682 dofs, 34 assembly chunks against the 2D fixture's
6).

Memory is watched from inside the process: a thread polls VmRSS every 0.1 s
and ends the process with exit code 3 once it passes ``RSS_LIMIT_GB``.
An address-space cap (``ulimit -v``) is no substitute: it counts mapped
but untouched memory, so it fails allocations far below the RSS the run
reaches.  Every log line of the run is printed to stderr with the seconds
since the start and the RSS at that moment; the last line of stdout is a
JSON summary with the time of each stage, the peak RSS (VmHWM) and, from
the run's ``NewtonResult.solves``, the number of free dofs the linear
solves were for, the number of time levels factored out of all levels,
the nonzeros of the level LUs kept, and each solve's GMRES iterations,
``factor_s`` and ``krylov_s`` (with ``--step``, the system's nnz and norms,
and null for the level counts and LU nonzeros, as it runs no linear
solve).  Each log line also carries VmHWM, so the line where it last
rises names the stage of the peak.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

import numpy as np  # noqa: E402

from make_stirrer_meshes import build_stirrer_mesh  # noqa: E402
from ustflow.extrude import extrude_spatial  # noqa: E402
from ustflow.scenarios import (make_stirrer2d, make_stirrer3d,  # noqa: E402
                               run_ust)

H_FINE = 0.07
H_COARSE = 0.16
LAYERS = 2
SEED = 7
RSS_LIMIT_GB = 6.0


def status_mb(field: str) -> float:
    """A memory field of /proc/self/status (VmRSS, VmHWM), in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def start_watchdog(limit_mb: float, period_s: float = 0.1) -> None:
    """Exit with code 3 as soon as VmRSS passes ``limit_mb``."""
    def watch():
        while True:
            rss = status_mb("VmRSS")
            if rss > limit_mb:
                print(f"watchdog: VmRSS {rss:.0f} MB above {limit_mb:.0f} MB",
                      file=sys.stderr, flush=True)
                os._exit(3)
            time.sleep(period_s)

    threading.Thread(target=watch, name="rss-watchdog", daemon=True).start()


class StampedFormatter(logging.Formatter):
    """Prefix each record with the seconds since ``t0`` and the RSS."""

    def __init__(self, t0: float):
        super().__init__("%(message)s")
        self.t0 = t0

    def format(self, record):
        return (f"[{time.perf_counter() - self.t0:8.2f} s "
                f"{status_mb('VmRSS'):6.0f} MB hwm {status_mb('VmHWM'):6.0f} "
                f"MB] {super().format(record)}")


def step(spec, t0: float) -> int:
    """Set-up, one Newton system and one residual norm at the initial
    guess, as the ``ust3d_stirrer_step`` benchmark runs them."""
    log = logging.getLogger("ustflow")
    stamps = [time.perf_counter()]

    def stage(name):
        stamps.append(time.perf_counter())
        log.info("stage %s done in %.2f s", name, stamps[-1] - stamps[-2])

    problem = spec.problem(spec.ust_mesh())
    stage("setup")
    U0 = problem.initial_guess()
    system, rhs, rnorm = problem.system(U0)
    stage("system")
    rnorm2 = problem.residual_norm(U0)
    stage("residual")
    A = system.matrix
    print(json.dumps({
        "elements": problem.mesh.n_elements,
        "dofs": problem.n_dofs,
        "nnz": int(A.nnz),
        "residual_norm": rnorm,
        "residual_norms_equal": rnorm2 == rnorm,
        "matrix_fro": float(np.sqrt(np.dot(A.data, A.data))),
        "levels": None,
        "factored_levels": None,
        "lu_nnz": None,
        "mesh_s": round(stamps[0] - t0, 2),
        "setup_s": round(stamps[1] - stamps[0], 2),
        "system_s": round(stamps[2] - stamps[1], 2),
        "residual_s": round(stamps[3] - stamps[2], 2),
        "total_s": round(stamps[3] - t0, 2),
        "peak_rss_mb": round(status_mb("VmHWM")),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--step", action="store_true",
                      help="set-up, one Newton system and one residual "
                           "norm only, as the ust3d_stirrer_step benchmark")
    mode.add_argument("--stirrer2d", action="store_true",
                      help="solve the 2D stirrer on the same spatial mesh")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(StampedFormatter(t0))
    log = logging.getLogger("ustflow")
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    start_watchdog(1024.0 * RSS_LIMIT_GB)

    base = build_stirrer_mesh(H_FINE, H_COARSE, seed=SEED)
    if args.stirrer2d:
        spec = make_stirrer2d(mesh=base)
    else:
        spec = make_stirrer3d(mesh=extrude_spatial(
            base, 0.0, 0.1, LAYERS, lo_tag="bottom", hi_tag="top"))
    if args.step:
        return step(spec, t0)
    t_mesh = time.perf_counter()
    res = run_ust(spec)
    t_run = time.perf_counter()
    (newton,), (st_mesh,), (values,) = res.newtons, res.slabs, res.fields
    first = newton.solves[0]
    print(json.dumps({
        "elements": st_mesh.n_elements,
        "dofs": values.size,
        "free_dofs": first["free"],
        "levels": first["levels"],
        "factored_levels": first["factored"],
        "lu_nnz": first["lu_nnz"],
        "gmres_iters": [s["iterations"] for s in newton.solves],
        "factor_s": [round(s["factor_s"], 2) for s in newton.solves],
        "krylov_s": [round(s["krylov_s"], 2) for s in newton.solves],
        "mesh_s": round(t_mesh - t0, 2),
        "run_ust_s": round(t_run - t_mesh, 2),
        "total_s": round(t_run - t0, 2),
        "assemble_s": [round(s, 2) for s in newton.assemble_s],
        "newton_trace": newton.trace,
        "converged": bool(newton.converged),
        "peak_rss_mb": round(status_mb("VmHWM")),
    }))
    return 0 if newton.converged else 1


if __name__ == "__main__":
    sys.exit(main())
