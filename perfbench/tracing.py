"""Spans around calls into ustflow, recorded from outside the package.

A span is a dict with its id, name, parent span id, run id, start and end
(``time.perf_counter`` seconds) and any counts the wrapper attaches.  Spans
stay in memory until the worker hands them back to the harness.

``install_layer_wrappers`` replaces module and class attributes, so code
that looks a name up at call time goes through the wrappers:
``newton_solve`` finds ``solve_linear_system`` in ``ustflow.solver`` and
``run_slab`` finds ``PrismSlabProblem`` and ``newton_solve`` in
``ustflow.scenarios``.  No file of the package is changed.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def coo_entries(problem) -> int:
    """Triplets the assembly emits: element blocks, jump blocks, Dirichlet
    diagonal.  Against the matrix nnz this gives the duplicate ratio."""
    n_el, nloc = problem.edof.shape
    n_sd = problem.n_sd
    if hasattr(problem, "slab"):
        n_jump = problem.slab.spatial.n_elements
    else:
        n_jump = len(problem.mesh.bottom_facets)
    return (n_el * nloc * nloc + n_jump * ((n_sd + 1) * n_sd) ** 2
            + len(problem.dir_dofs))


def install_layer_wrappers(tr: Tracer) -> None:
    """Wrap the solver, assembly, stabilization and slab-problem entry points.

    ``system`` gets its tau from a separately timed ``stabilization`` call
    and passes it back as ``tau_override``, which is the value ``system``
    would have computed itself, so every number stays the same.
    """
    import numpy as np

    import ustflow.scenarios as scenarios
    import ustflow.solver as solver
    from ustflow.assembly import PrismSlabProblem, SpaceTimeProblem

    solve = solver.solve_linear_system

    def traced_solve(A, b, cfg=None, block_size=1):
        with tr.span("solver.solve") as s:
            x = solve(A, b, cfg, block_size)
        bnorm = float(np.linalg.norm(b))
        s["relres"] = float(np.linalg.norm(b - A @ x)) / bnorm if bnorm else 0.0
        s["n_dofs"], s["nnz"] = int(A.shape[0]), int(A.nnz)
        return x

    newton = solver.newton_solve

    def traced_newton(problem, initial_values, cfg=None, lin_cfg=None):
        with tr.span("solver.newton") as s:
            result = newton(problem, initial_values, cfg, lin_cfg)
        s["iterations"] = int(result.iterations)
        return result

    slab_problem = scenarios.PrismSlabProblem

    def traced_slab_problem(*args, **kwargs):
        with tr.span("scenarios.slab_problem"):
            return slab_problem(*args, **kwargs)

    tr.patch(solver, "solve_linear_system", traced_solve)
    tr.patch(solver, "newton_solve", traced_newton)
    tr.patch(scenarios, "newton_solve", traced_newton)
    tr.patch(scenarios, "PrismSlabProblem", traced_slab_problem)

    for cls in (SpaceTimeProblem, PrismSlabProblem):
        tr.patch(cls, "stabilization", _traced_stabilization(tr, cls.stabilization))
        tr.patch(cls, "system", _traced_system(tr, cls.system))


def _traced_stabilization(tr, stabilization):
    def traced(self, values):
        with tr.span("stabilization.tau"):
            return stabilization(self, values)
    return traced


def _traced_system(tr, system):
    def traced(self, values, tau_override=None, want_matrix=True):
        if tau_override is None:
            tau_override = self.stabilization(values)
        if not want_matrix:
            with tr.span("assembly.residual"):
                return system(self, values, tau_override=tau_override,
                              want_matrix=False)
        # tracemalloc slows every allocation (a third more time on the prism
        # assembly), so only the first matrix of the run is traced; it also
        # builds the lazily cached geometry, so its peak bounds the later ones
        first = not any(s["name"] == "assembly.matrix" for s in tr.spans)
        if first:
            tracemalloc.start()
        try:
            with tr.span("assembly.matrix") as s:
                out = system(self, values, tau_override=tau_override,
                             want_matrix=True)
            if first:
                s["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            if first:
                tracemalloc.stop()
        s["nnz"] = int(out[0].matrix.nnz)
        s["coo_entries"] = coo_entries(self)
        return out
    return traced


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
