"""Residual and Newton-matrix assembly of the stabilized space-time weak form.

Unknowns are node-major: node k carries (u_1..u_{n_sd}, p) at dofs
k*(n_sd+1) .. k*(n_sd+1)+n_sd.  The weak form combines the Galerkin
transient/convection term, the stress and continuity terms, the jump term
on the bottom cap, a GLS momentum term (its strong operator has no viscous
part, which is exactly zero on both element families: P1 simplices have no
second derivatives, and on a prism t depends on theta alone, so
d(theta)/dx = 0 and at fixed t the map is affine), a grad-div continuity
stabilization and a traction term on Neumann mantle facets.  Dirichlet
conditions are imposed by identity rows; tau is frozen at the current
iterate (Picard treatment), everything else is linearized exactly.

One driver, ``_ProblemBase``, assembles both element families: the chunked
volume loop, the jump term, the traction term, the stabilization
parameters, the sparse matrix and the Dirichlet rows.  ``_CsrPlan`` builds
the matrix pattern once per problem, on the first matrix request, from the
element connectivity: every element node pair becomes a dense ncomp x ncomp
block.  It numbers each chunk's pairs locally, by one ``np.unique`` per
chunk, and keeps the chunk's sorted global pair ids beside them.  Each
Newton step sums a chunk's local matrices over the local ids with one
``np.bincount`` per component pair, with no sort, adds those sums at the
global ids, and hands the solver the blocks' CSR form.

The volume loop runs in ``_LANES`` fixed, contiguous element lanes once a
system has that many chunks; ``_partition`` cuts the elements into lanes
and chunks, once per problem, for the plan and the lanes alike.  Each lane
sums its chunks into its own residual and blocks, on a small module-level
thread pool, and the lanes' sums are added in lane order, so the result has
the same bytes on any core count.  A one-chunk system runs its one lane
inline and starts no thread.  On the first matrix of a two-lane problem the
plan is built on a lane thread while the calling thread fills the geometry
and then computes the metric and tau; the problem's one ``assembly plan``
log line gives the seconds of each and the calling thread's wait for the
plan.  A family supplies the geometry of its elements:

- ``_volume_geometry(sl)``: the arguments of the element kernel
  ``_element_terms`` for a chunk of elements;
- ``_bottom_cap()``: node ids and spatial coordinates of the bottom-cap
  simplices that carry the jump term;
- ``_metric``: the per-element metric (Ginv, g, Ginv:Ginv, g.g) of tau;
- ``_mantle_faces(tag)``: node ids of a tag's faces on the space-time
  mantle, which carry its Dirichlet rows or its traction;
- ``_face_quadrature(ids)``: shape values, points, tangents and weights of
  the quadrature on those faces.

One element kernel, ``_element_terms``, serves both families.  It assumes
only that |detJ| and the spatial gradients are constant on each of nt
groups of quadrature points.  On a tensor-product prism the groups are the
theta points of the rule: t depends on theta alone, so at fixed theta the
prism map is affine in xi.  A P1 simplex is the case nt = 1, since its
gradients are constant on the element.  Every term with two gradients is
then a weighted outer product per group, and only the time derivatives,
u, the advective derivative and the strong residual vary within a group.
A slab's geometry is one ``prism_geometry`` call at its nt theta points
and the element centre, which the metric of tau reads; the time
derivatives at the other quadrature points follow from the gradients at
the theta points (see ``PrismSlabProblem._geometry``).  The kernel
computes with the element axis last, so that every broadcast product runs
over the elements in its inner loop, and returns element-first views.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (ConfigurationError, MissingPreviousState,
                     NonFiniteResidual)
from .mesh import (SimplexMesh, SpaceTimeMesh, basis_eval, cofactor_det,
                   jacobians_last, reference_gradients, time_levels)
from .quadrature import interval_gauss, prism_quadrature, simplex_quadrature
from .stabilization import (StabilizationContext, mesh_metric, metric_terms,
                            prism_geometry, prism_shape_functions,
                            regular_simplex_map, tau_parameters)

logger = logging.getLogger("ustflow")

# local-matrix entries per assembly chunk (7,500 pentatopes, 9,259 2D or
# 2,929 3D prisms).  It bounds the chunk's arrays of that size, on each
# lane: the local matrices and the kernel's outer products.
_CHUNK_ENTRIES = 3.0e6

# element lanes of a system with two or more chunks.  The lanes are a fixed
# partition of the elements whatever the core count, so the sums, and the
# bytes of the result, are the same on any machine.
_LANES = 2
_pool = None


def _lane_pool() -> ThreadPoolExecutor:
    """The threads that run the lanes, started on the first two-lane system."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(min(_LANES, os.cpu_count() or 1),
                                   thread_name_prefix="ustflow-lane")
    return _pool


def _forget_pool():
    global _pool
    _pool = None


# a forked child has none of its parent's threads, so it starts its own pool
os.register_at_fork(after_in_child=_forget_pool)


@dataclass
class MaterialParams:
    """Constant density and dynamic viscosity."""
    rho: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not (self.rho > 0.0 and self.mu >= 0.0):
            raise ConfigurationError("need rho > 0 and mu >= 0")

    @property
    def nu(self) -> float:
        return self.mu / self.rho


@dataclass
class BCSpec:
    """Boundary and initial data.

    ``dirichlet`` and ``neumann`` map boundary tags to functions
    fn(x, t) -> (n, n_sd) with x of shape (n, n_sd); ``initial`` maps
    fn(x) -> (n, n_sd).  Dirichlet and Neumann tag sets must be disjoint.
    """
    dirichlet: dict = dc_field(default_factory=dict)
    neumann: dict = dc_field(default_factory=dict)
    initial: object = None

    def __post_init__(self):
        overlap = set(self.dirichlet) & set(self.neumann)
        if overlap:
            raise ConfigurationError(
                f"tags with both Dirichlet and Neumann data: {sorted(overlap)}")


class SolutionField:
    """Nodal velocity + pressure unknowns on a mesh."""

    def __init__(self, values: np.ndarray, n_sd: int):
        self.values = np.asarray(values, dtype=float)
        self.n_sd = n_sd
        if self.values.ndim != 2 or self.values.shape[1] != n_sd + 1:
            raise ValueError("values must be (n_nodes, n_sd+1)")

    @classmethod
    def zeros(cls, n_nodes: int, n_sd: int) -> "SolutionField":
        return cls(np.zeros((n_nodes, n_sd + 1)), n_sd)

    @property
    def velocity(self) -> np.ndarray:
        return self.values[:, : self.n_sd]

    @property
    def pressure(self) -> np.ndarray:
        return self.values[:, self.n_sd]

    def copy(self) -> "SolutionField":
        return SolutionField(self.values.copy(), self.n_sd)


@dataclass
class LinearSystem:
    """Newton system: matrix @ delta = rhs, rhs = -(residual) with Dirichlet
    rows replaced by identity rows carrying (prescribed - current)."""
    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_sd: int


def zero_velocity(x, t=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.zeros_like(x)


def rigid_surface_velocity(omega: float, center, axis=(0.0, 0.0, 1.0)):
    """Instantaneous rigid-body surface velocity omega x (x - center)."""
    center = np.asarray(center, dtype=float)
    axis = np.asarray(axis, dtype=float)

    def fn(x, t=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n_sd = x.shape[1]
        d = x - center[:n_sd]
        if n_sd == 2:
            return omega * np.column_stack([-d[:, 1], d[:, 0]])
        w = omega * axis
        return np.cross(np.broadcast_to(w, d.shape), d)

    return fn


# -- element kernel ----------------------------------------------------------

def _element_terms(N, w, det, D, B, x, Ue, rho, mu, tau_m, tau_c,
                   body_force, convective, want_matrix):
    """Volume terms of one chunk of E elements, computed with the element
    axis last.

    The rule has ns points in each of nt groups, and |detJ| and the spatial
    gradients are constant on each group.  N (ns, nt, nen) and w (ns, nt)
    are the reference shape values and weights; B (ns, nt, nen, E) the time
    derivatives and x (ns, nt, dim, E) the points, which only a body force
    reads (None without one).  det (nt, E) is |detJ| and D (nt, nen, n_sd,
    E) the spatial gradients of each group.  Ue: (E, nen, ncomp).  Returns
    (Re, Ke) element-first, Ke None when not requested.

    grad u, grad p and div u are therefore constant on each group, and each
    term of the weak form with two gradients is a sum over the groups of
    weighted outer products; only u, du/dt, the advective derivative
    adv_a = dN_a/dt + u.grad N_a and the strong residual r vary within a
    group, and their quadrature sums are contractions with the weights.
    """
    ns, nt, nen = N.shape
    n_sd = D.shape[2]
    nc = n_sd + 1
    E = det.shape[-1]
    U = np.ascontiguousarray(Ue.transpose(1, 2, 0))      # (nen, nc, E)
    Uv, Up = U[:, :n_sd], U[:, n_sd]
    wq = w[:, :, None] * det                             # (ns, nt, E)
    om = wq.sum(axis=0)                                  # measure per group

    u = np.tensordot(N, Uv, 1)                           # (ns, nt, n_sd, E)
    gradu = np.einsum("aie,taje->tije", Uv, D)           # du_i/dx_j
    gradp = np.einsum("ae,taje->tje", Up, D)
    divu = np.einsum("tiie->te", gradu)
    P = (wq * np.tensordot(N, Up, 1)).sum(axis=0)        # sum_xi w p

    acc = np.einsum("stae,aie->stie", B, Uv)             # du/dt
    if body_force is not None:
        xt = np.moveaxis(x, 2, -1).reshape(-1, x.shape[2])
        f = np.asarray(body_force(xt[:, :n_sd], xt[:, n_sd]))
        acc -= np.moveaxis(f.reshape(ns, nt, E, n_sd), -1, 2)
    if convective:
        acc += np.einsum("stje,tije->stie", u, gradu)
        adv = B + np.einsum("stje,taje->stae", u, D)     # (ns, nt, nen, E)
    else:
        adv = B
    r = rho * acc + gradp                                # strong residual
    wadv = wq[:, :, None] * adv
    wr = wq[:, :, None] * r
    # sums over each group: sum w adv_a and sum w N_a
    A1 = wadv.sum(axis=0)
    N1 = (w[:, :, None] * N).sum(axis=0)[..., None] * det[:, None]
    # rho times the momentum test function: Galerkin N_a plus GLS tau adv_a
    Z = rho * (N[..., None] + tau_m * adv)

    Re = np.empty((nen, nc, E))
    # momentum: sum w Z_a acc_i and the GLS pressure gradient, then the
    # terms with a test gradient, D[a,j] S[i,j]: stress 2 mu eps(w):eps(u),
    # -p div w and grad-div
    S = mu * om[:, None, None] * (gradu + gradu.swapaxes(1, 2))
    idx = np.arange(n_sd)
    S[:, idx, idx] += (rho * tau_c * om * divu - P)[:, None]
    Re[:, :n_sd] = (np.einsum("stae,stie->aie", Z, wq[:, :, None] * acc)
                    + tau_m * np.einsum("tae,tie->aie", A1, gradp)
                    + np.einsum("taje,tije->aie", D, S))
    # continuity and the PSPG-like GLS test
    Re[:, n_sd] = (np.einsum("tae,te->ae", N1, divu)
                   + tau_m / rho * np.einsum("taie,tie->ae", D,
                                             wr.sum(axis=0)))
    if not want_matrix:
        return np.moveaxis(Re, -1, 0), None

    omD = om[:, None, None] * D
    DD = np.einsum("tame,tbme->abe", D, omD)             # sum w D_a.D_b
    Ke = np.empty((nen, nc, nen, nc, E))
    Kvv = Ke[:, :n_sd, :, :n_sd]
    # grad-div: D[a,i] D[b,j]
    np.einsum("taie,tbje->aibje", D, rho * tau_c * omD, out=Kvv)
    # stress mu D[a,j] D[b,i]; the linearization of u inside the GLS weight
    # adds D[a,j] sum_xi w N_b r_i
    H = mu * omD
    if convective:
        H = H + tau_m * np.einsum("stb,stie->tbie", N, wr)
        # Galerkin and GLS linearization of u.grad u: C[a,b] gradu[i,j]
        C = np.einsum("stae,stb->tabe", wq[:, :, None] * Z, N)
        Kvv += np.einsum("tabe,tije->aibje", C, gradu)
    Kvv += np.einsum("taje,tbie->aibje", D, H)
    # delta_ij: transient/convection (Galerkin and GLS) and stress
    diag = np.einsum("stae,stbe->abe", Z, wadv) + mu * DD
    for i in range(n_sd):
        Kvv[:, i, :, i] += diag
    # velocity rows, pressure columns: -p div w and the GLS pressure gradient
    Ke[:, :n_sd, :, n_sd] = (np.einsum("tae,tbie->aibe", tau_m * A1, D)
                             - np.einsum("taie,tbe->aibe", D, N1))
    # pressure rows: continuity and the PSPG-like GLS test
    GLS_p = np.einsum("taje,tbe->abje", D, A1)
    if convective:
        GLS_p += np.einsum("taje,tbe->abje",
                           np.einsum("tame,tmje->taje", D, gradu), N1)
    Ke[:, n_sd, :, :n_sd] = np.einsum("tae,tbje->abje", N1, D) + tau_m * GLS_p
    Ke[:, n_sd, :, n_sd] = tau_m / rho * DD
    return np.moveaxis(Re, -1, 0), np.moveaxis(Ke, -1, 0)


def _add_local(R, dofs, Re):
    """Add local residuals ``Re`` at ``dofs`` (n, L) into ``R``."""
    R += np.bincount(dofs.ravel(), Re.ravel(), minlength=len(R))


def _unique(a):
    """``np.unique(a)``, sorting ``a`` in place: each value where it first
    differs from its sorted predecessor."""
    a.sort()
    first = np.empty(len(a), bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _partition(n_el, nloc):
    """(size, chunks, lanes) of a system of ``n_el`` elements with ``nloc``
    dofs each: ``chunks`` are element slices of at most ``size`` elements
    (``_CHUNK_ENTRIES`` local-matrix entries), ``lanes`` the ranges of the
    chunk indices of each lane.

    The lanes split the elements evenly, and each lane cuts its share into
    chunks from its first element.  The plan and the lanes both take this
    partition, so a chunk's pair ids are the plan's ids for that chunk.
    """
    chunk = max(1, int(_CHUNK_ENTRIES / (nloc * nloc)))
    n_lanes = min(_LANES, -(-n_el // chunk))
    chunks, lanes = [], []
    for k in range(n_lanes):
        start, stop = n_el * k // n_lanes, n_el * (k + 1) // n_lanes
        first = len(chunks)
        chunks += [slice(lo, min(lo + chunk, stop))
                   for lo in range(start, stop, chunk)]
        lanes.append(range(first, len(chunks)))
    return chunk, chunks, lanes


class _CsrPlan:
    """Block pattern of a problem's matrix, built once from the elements.

    The pattern holds every node pair that shares an element, plus each
    node's diagonal pair, as a dense ncomp x ncomp block.  ``keys`` are the
    pairs' row * n_nodes + col, sorted, so the blocks in pair order form a
    block-row (BSR) matrix with sorted block columns, whose CSR form is the
    canonical CSR form of the summed element matrices.  ``chunks`` holds,
    for each element chunk of the partition, its pairs as ``pair_ids``
    gives them: the chunk's sorted global pair ids and int32 chunk-local
    ids, so a chunk's fill spans only the pairs it touches.  ``dir_slots``
    are the CSR entries of the Dirichlet rows, ``diag_slots`` their diagonal
    entries; ``dir_slots``, ``col``, ``bptr`` and the chunks' global ids take
    the CSR index dtype (int32 while nnz < 2**31).
    """

    def __init__(self, elements, n_nodes, nc, dir_mask, chunks):
        start = time.perf_counter()
        self.n_nodes, self.nc = n_nodes, nc
        # the global keys are the union of the chunks' distinct keys and the
        # diagonal, so no array of every element pair's key is formed
        local = [self._local_ids(elements[sl]) for sl in chunks]
        diag = np.arange(n_nodes, dtype=np.int64) * (n_nodes + 1)
        self.keys = _unique(np.concatenate([k for k, _ in local] + [diag]))
        diag_pairs = np.searchsorted(self.keys, diag)
        row, col = np.divmod(self.keys, n_nodes)
        bptr = np.searchsorted(row, np.arange(n_nodes + 1))
        self.nnz = nc * nc * len(row)
        index = np.int32 if self.nnz < 2 ** 31 else np.int64
        self.col, self.bptr = col.astype(index), bptr.astype(index)
        self.chunks = [(np.searchsorted(self.keys, k).astype(index), ids)
                       for k, ids in local]

        # CSR row node*nc + i holds nc entries of each block of its node
        deg = np.diff(bptr)
        indptr = np.append(nc * nc * bptr[:-1, None]
                           + nc * deg[:, None] * np.arange(nc), self.nnz)
        self.dir_slots = np.flatnonzero(
            np.repeat(dir_mask, np.diff(indptr))).astype(index)
        dir_dofs = np.flatnonzero(dir_mask)
        node, i = np.divmod(dir_dofs, nc)
        self.diag_slots = (indptr[dir_dofs]
                           + nc * (diag_pairs[node] - bptr[node]) + i)
        self.build_s = time.perf_counter() - start

    def _local_ids(self, ids):
        """(keys, local) of the node pairs of ``ids`` (n, m): their distinct
        keys row * n_nodes + col, sorted, and each pair's int32 index into
        them, in (a, b, element) order."""
        ids = ids.T.astype(np.int64)
        keys, local = np.unique(
            (ids[:, None, :] * self.n_nodes + ids[None, :, :]).ravel(),
            return_inverse=True)
        return keys, local.astype(np.int32)

    def pair_ids(self, ids):
        """(glob, local) of the node pairs of ``ids`` (n, m), which must
        share an element or be diagonal: the pairs' sorted global ids and
        each pair's int32 index into ``glob``, in (a, b, element) order."""
        keys, local = self._local_ids(ids)
        return np.searchsorted(self.keys, keys), local

    def blocks(self, lo=0, hi=None):
        """Zero blocks of pairs ``lo`` to ``hi`` (default: the last)."""
        hi = len(self.keys) if hi is None else hi
        return np.zeros((hi - lo, self.nc, self.nc))

    def add(self, blocks, lo, pairs, K):
        """Add local matrices ``K`` (n, m, nc, m, nc) at ``pairs``, a
        (glob, local) pair of ``pair_ids`` of their elements, into
        ``blocks``, whose first block is pair ``lo``.

        One ``np.bincount`` per component pair sums over (a, b, element) in
        that order, whatever the memory order of ``K``, into the len(glob)
        pairs the elements touch, a contiguous row of ``part`` per component
        pair; those sums are then added at ``glob``.
        """
        glob, local = pairs
        local = local.astype(np.intp)
        part = np.empty((self.nc, self.nc, len(glob)))
        for i in range(self.nc):
            for j in range(self.nc):
                part[i, j] = np.bincount(
                    local, K[:, :, i, :, j].transpose(1, 2, 0).ravel(),
                    minlength=len(glob))
        blocks[glob - lo] += part.transpose(2, 0, 1)

    def matrix(self, blocks):
        """The CSR matrix of ``blocks`` (all pairs); its arrays are new."""
        n = self.n_nodes * self.nc
        return sp.bsr_matrix((blocks, self.col, self.bptr),
                             shape=(n, n)).tocsr()


class _ProblemBase:
    """The assembly driver of both element families.

    A family sets ``mesh`` or ``slab`` and its quadrature, then calls this
    constructor; it supplies the geometry named in the module docstring.
    """

    def __init__(self, node_coords, elements, tag_names, levels, material,
                 bcs, body_force, convective, gauge, jump_data):
        """``node_coords`` are the space-time nodes (time last), ``levels``
        their time levels, the partition of the block Gauss-Seidel sweep.

        The velocity of a Dirichlet tag's mantle nodes takes the tag's data
        at their coordinates; tags go in sorted order, so a node on two tags
        keeps the later one.  ``gauge`` is a (node, value) pair, or a list of
        them, pinning the pressure.
        """
        for tag in list(bcs.dirichlet) + list(bcs.neumann):
            if tag not in tag_names:
                raise ConfigurationError(f"unknown boundary tag {tag!r}")
        self.material = material
        self.bcs = bcs
        self.body_force = body_force
        self.convective = convective
        self.jump_data = jump_data  # previous nodal trace, or None -> IC
        self.elements = elements
        self.n_nodes, nc = node_coords.shape
        self.n_sd = n_sd = nc - 1
        self.edof = (elements[:, :, None] * nc
                     + np.arange(nc)[None, None, :]).reshape(len(elements), -1)
        self.dof_levels = np.repeat(levels, nc)

        self.dir_mask = np.zeros(self.n_dofs, dtype=bool)
        self.dir_values = np.zeros(self.n_dofs)
        for tag in sorted(bcs.dirichlet):
            nodes = np.unique(self._mantle_faces(tag))
            x = node_coords[nodes]
            velocity = np.asarray(bcs.dirichlet[tag](x[:, :n_sd], x[:, n_sd]))
            for c in range(n_sd):
                self.dir_mask[nodes * nc + c] = True
                self.dir_values[nodes * nc + c] = velocity[:, c]
        if gauge is not None:
            for node, value in [gauge] if isinstance(gauge, tuple) else gauge:
                self.dir_mask[node * nc + n_sd] = True
                self.dir_values[node * nc + n_sd] = value
        self.dir_dofs = np.flatnonzero(self.dir_mask)

    @property
    def ncomp(self) -> int:
        return self.n_sd + 1

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.ncomp

    def impose_dirichlet(self, values: np.ndarray) -> np.ndarray:
        out = values.reshape(-1).copy()
        out[self.dir_dofs] = self.dir_values[self.dir_dofs]
        return out.reshape(self.n_nodes, self.ncomp)

    def initial_guess(self) -> np.ndarray:
        """Initial-condition field extended constantly in time, BCs imposed."""
        vals = np.zeros((self.n_nodes, self.ncomp))
        u0 = self._initial_velocity_at_nodes()
        if u0 is not None:
            vals[:, : self.n_sd] = u0
        return self.impose_dirichlet(vals)

    def stabilization(self, values: np.ndarray) -> StabilizationContext:
        """tau_MOM and tau_CONT per element at the barycentric velocity."""
        n_sd = self.n_sd
        values = np.asarray(values, dtype=float).reshape(self.n_nodes,
                                                         self.ncomp)
        if self.convective:
            # the mean of the nodal velocities, one node column at a time
            vel = values[:, :n_sd]
            u_bary = vel[self.elements[:, 0]]
            for k in range(1, self.elements.shape[1]):
                u_bary += vel[self.elements[:, k]]
            u_bary /= self.elements.shape[1]
        else:
            # Stokes limit: tau must not depend on the iterate so the
            # system stays exactly linear
            u_bary = np.zeros((len(self.elements), n_sd))
        Ginv, _, GG, gg = self._metric
        return StabilizationContext(*tau_parameters(
            u_bary, self.material.nu, Ginv, GG, gg=gg))

    # interface used by the Newton solver
    def system(self, values, tau_override=None, want_matrix=True):
        """(LinearSystem or None, rhs, |rhs|) of the Newton step at ``values``.

        ``tau_override`` supplies frozen stabilization parameters; without it
        they are evaluated at ``values``.
        """
        values = np.asarray(values, dtype=float).reshape(self.n_nodes,
                                                         self.ncomp)
        size, chunks, lanes = self._chunks
        n_lanes = len(lanes)
        new_plan = want_matrix and "_csr_plan" not in vars(self)
        # a first plan of two lanes is built on a lane thread while this one
        # computes the geometry and tau
        future = (_lane_pool().submit(lambda: self._csr_plan)
                  if new_plan and n_lanes > 1 else None)
        t0 = time.perf_counter()
        # cached geometry is filled here, before the metric and the lanes
        # read it
        self._volume_geometry(slice(0, 0))
        t1 = time.perf_counter()
        stab = tau_override or self.stabilization(values)
        t2 = time.perf_counter()
        plan = None
        if future is not None:
            plan = future.result()
        elif want_matrix:
            plan = self._csr_plan
        if new_plan:
            logger.info("assembly plan pairs=%d nnz=%d lanes=%d threads=%d "
                        "chunks=%d plan_s=%.3f geometry_s=%.3f metric_s=%.3f "
                        "wait_s=%.3f", len(plan.keys), plan.nnz, n_lanes,
                        _pool._max_workers if n_lanes > 1 else 0,
                        -(-len(self.elements) // size),
                        plan.build_s, t1 - t0, t2 - t1,
                        time.perf_counter() - t2)

        R, blocks = self._volume(values, stab, plan, chunks, lanes)
        self._add_jump(values, R, blocks)
        for dofs, Rloc in self._traction:
            _add_local(R, dofs, Rloc)

        if not np.isfinite(R).all():
            raise NonFiniteResidual("residual contains non-finite entries")
        rhs = -R
        rhs[self.dir_dofs] = (self.dir_values[self.dir_dofs]
                              - values.reshape(-1)[self.dir_dofs])
        norm = float(np.linalg.norm(rhs))
        if not want_matrix:
            return None, rhs, norm
        A = plan.matrix(blocks)
        A.data[plan.dir_slots] = 0.0
        A.data[plan.diag_slots] = 1.0
        return LinearSystem(A, rhs, self.n_sd), rhs, norm

    def _volume(self, values, stab, plan, chunks, lanes):
        """(R, blocks) of the volume terms: the lanes' sums, added in lane
        order; ``blocks`` is None without a ``plan``."""
        def lane(k):
            return self._lane(values, stab, plan, chunks, lanes[k], k == 0)

        sums = (map(lane, range(len(lanes))) if len(lanes) == 1
                else _lane_pool().map(lane, range(len(lanes))))
        R, _, blocks = next(sums)
        for R_k, lo, blocks_k in sums:
            R += R_k
            if plan is not None:
                blocks[lo:lo + len(blocks_k)] += blocks_k
        return R, blocks

    def _lane(self, values, stab, plan, chunks, ids, full):
        """(R, lo, blocks) of the chunks ``ids``.

        ``blocks`` covers all pairs if ``full``, else only this lane's, from
        pair ``lo``; it is None without a ``plan``.
        """
        rho, mu = self.material.rho, self.material.mu
        R = np.zeros(self.n_dofs)
        lo, blocks = 0, None
        if plan is not None:
            glob = [plan.chunks[c][0] for c in ids]
            lo, hi = ((0, None) if full
                      else (int(min(g[0] for g in glob)),
                            int(max(g[-1] for g in glob)) + 1))
            blocks = plan.blocks(lo, hi)
        for c in ids:
            sl = chunks[c]
            Re, Ke = _element_terms(*self._volume_geometry(sl),
                                    values[self.elements[sl]], rho, mu,
                                    stab.tau_mom[sl], stab.tau_cont[sl],
                                    self.body_force, self.convective,
                                    plan is not None)
            _add_local(R, self.edof[sl], Re)
            if plan is not None:
                plan.add(blocks, lo, plan.chunks[c], Ke)
        return R, lo, blocks

    def residual_norm(self, values, tau_override=None) -> float:
        return self.system(values, tau_override=tau_override,
                           want_matrix=False)[2]

    @cached_property
    def _chunks(self):
        """The (size, chunks, lanes) of ``_partition``, fixed at the first
        system so that the plan and the lanes keep sharing it."""
        return _partition(*self.edof.shape)

    @cached_property
    def _csr_plan(self) -> _CsrPlan:
        """Built on the first matrix request, never by the constructor or a
        residual-only call."""
        return _CsrPlan(self.elements, self.n_nodes, self.ncomp, self.dir_mask,
                        self._chunks[1])

    @cached_property
    def _cap(self):
        """(ids, Mq, R_minus) of the jump term, computed once per problem:
        the bottom cap's node ids, its facet mass matrices and the residual
        of u-, the previous nodal trace ``jump_data`` or else the initial
        condition at the quadrature points."""
        n_sd = self.n_sd
        if self.jump_data is None and self.bcs.initial is None:
            raise MissingPreviousState(
                "jump term needs an initial condition or previous trace")
        ids, coords = self._bottom_cap()
        det = np.abs(cofactor_det(jacobians_last(coords)))
        rule = simplex_quadrature(n_sd, 2)
        Nf = basis_eval(rule.points, n_sd)               # (nq, n_sd+1)
        wdet = rule.weights[None, :] * det[:, None]      # (nf, nq)
        rho = self.material.rho
        # facet mass matrix via the degree-2 rule
        Mq = np.einsum("fq,qa,qb->fab", wdet, Nf, Nf)
        if self.jump_data is not None:
            u_minus = np.asarray(self.jump_data)[ids]
            return ids, Mq, rho * np.einsum("fab,fbi->fai", Mq, u_minus)
        x_q = np.einsum("qa,fad->fqd", Nf, coords)
        u0 = np.asarray(self.bcs.initial(x_q.reshape(-1, n_sd)))
        u0 = u0.reshape(len(ids), len(rule.weights), n_sd)
        return ids, Mq, rho * np.einsum("fq,qa,fqi->fai", wdet, Nf, u0)

    @cached_property
    def _cap_pairs(self):
        """The plan's (glob, local) of the bottom-cap node pairs, which are
        element node pairs in both families."""
        return self._csr_plan.pair_ids(self._cap[0])

    def _add_jump(self, values, R, blocks):
        """rho (u+ - u-) . w on the bottom cap.  Its matrix, rho times the
        facet mass matrix in each velocity component, goes into the plan's
        ``blocks`` unless that is None."""
        n_sd, nc = self.n_sd, self.ncomp
        ids, Mq, R_minus = self._cap
        rho = self.material.rho
        Rloc = rho * np.einsum("fab,fbi->fai", Mq, values[ids, :n_sd])
        Rloc -= R_minus
        vdofs = ids[:, :, None] * nc + np.arange(n_sd)[None, None, :]
        _add_local(R, vdofs.reshape(len(ids), -1), Rloc)
        if blocks is not None:
            glob, local = self._cap_pairs
            M = np.bincount(local, (rho * Mq).transpose(1, 2, 0).ravel(),
                            minlength=len(glob))
            for i in range(n_sd):
                blocks[glob, i, i] += M

    @cached_property
    def _traction(self):
        """[(dofs, Rloc)] of the Neumann term -h . w of each tag, computed
        once per problem, as its data do not depend on the iterate.

        The measure of a face at each quadrature point is sqrt|det(T T^T)|
        for its n_sd tangents T, and the tag's function is called once, with
        all points of its faces.
        """
        n_sd, nc = self.n_sd, self.ncomp
        out = []
        for tag, fn in self.bcs.neumann.items():
            ids = self._mantle_faces(tag)
            if len(ids) == 0:
                continue
            N, x, T, w = self._face_quadrature(ids)
            gram = np.einsum("...id,...jd->ij...", T, T)
            wdet = w * np.sqrt(np.abs(cofactor_det(gram)))
            h = np.asarray(fn(x[..., :n_sd].reshape(-1, n_sd),
                              x[..., n_sd].reshape(-1)))
            Rloc = -np.einsum("fq,qa,fqi->fai", wdet, N,
                              h.reshape(len(ids), -1, n_sd))
            vdofs = ids[:, :, None] * nc + np.arange(n_sd)[None, None, :]
            out.append((vdofs.reshape(len(ids), -1), Rloc))
        return out


def _simplex_geometry(mesh: SpaceTimeMesh, Nq, weights, sl, with_points):
    """The geometry ``_element_terms`` takes for the space-time simplices
    ``sl``: their nq points form one group, on which the P1 gradients are
    constant.  The points are computed only ``with_points``, else None."""
    nq, nen = Nq.shape
    grads = np.ascontiguousarray(np.moveaxis(mesh.gradients[sl], 0, -1))
    x = (np.moveaxis(Nq @ mesh.element_coords[sl], 0, -1)[:, None]
         if with_points else None)
    return (Nq[:, None, :], weights[:, None],
            np.abs(mesh.jacobian_dets[sl])[None], grads[None, :, :mesh.n_sd],
            np.broadcast_to(grads[:, mesh.n_sd], (nq, 1, nen, grads.shape[2])),
            x)


class SpaceTimeProblem(_ProblemBase):
    """Stabilized weak form on a simplex space-time mesh (UST mode)."""

    def __init__(self, mesh: SpaceTimeMesh, material: MaterialParams,
                 bcs: BCSpec, body_force=None, convective=True,
                 gauge=None, jump_data=None):
        self.mesh = mesh
        self.rule = simplex_quadrature(mesh.dim, 2)
        self.Nq = basis_eval(self.rule.points, mesh.dim)
        super().__init__(mesh.nodes, mesh.elements, mesh.tag_names,
                         time_levels(mesh.times)[0], material, bcs,
                         body_force, convective, gauge, jump_data)

    def _initial_velocity_at_nodes(self):
        if self.bcs.initial is None:
            return None
        return np.asarray(self.bcs.initial(self.mesh.spatial_coords))

    def _volume_geometry(self, sl):
        return _simplex_geometry(self.mesh, self.Nq, self.rule.weights, sl,
                                 self.body_force is not None)

    def _bottom_cap(self):
        mesh = self.mesh
        ids = mesh.boundary_facets[mesh.bottom_facets]
        return ids, mesh.nodes[ids][:, :, : self.n_sd]

    @cached_property
    def _metric(self):
        return mesh_metric(self.mesh)

    def _mantle_faces(self, tag):
        mesh = self.mesh
        fidx = mesh.facets_with_tag(tag)
        return mesh.boundary_facets[fidx[np.isin(fidx, mesh.mantle_facets)]]

    def _face_quadrature(self, ids):
        """The degree-2 rule on each simplex facet, whose tangents are its
        edges from its first node."""
        coords = self.mesh.nodes[ids]                    # (nf, n_sd+1, dim)
        rule = simplex_quadrature(self.n_sd, 2)
        N = basis_eval(rule.points, self.n_sd)
        return (N, np.einsum("qa,fad->fqd", N, coords),
                (coords[:, 1:] - coords[:, :1])[:, None], rule.weights)


@dataclass
class PrismSlab:
    """Tensor-product slab between two time levels of a moving spatial mesh."""
    spatial: SimplexMesh
    coords_bottom: np.ndarray  # (n_sp, n_sd) node positions at t_bottom
    coords_top: np.ndarray     # (n_sp, n_sd) node positions at t_bottom + dt
    t_bottom: float
    dt: float

    @property
    def n_sd(self) -> int:
        return self.spatial.dim

    @property
    def n_nodes(self) -> int:
        return 2 * self.spatial.n_nodes

    def corners(self):
        """(n_el, n_sd+1, n_sd) bottom and top node positions of the prisms."""
        els = self.spatial.elements
        return self.coords_bottom[els], self.coords_top[els]

    def node_coords(self) -> np.ndarray:
        """(2*n_sp, n_sd+1) space-time coordinates, bottom block first."""
        n_sp, n_sd = self.coords_bottom.shape
        out = np.empty((2 * n_sp, n_sd + 1))
        out[:n_sp, :n_sd] = self.coords_bottom
        out[:n_sp, n_sd] = self.t_bottom
        out[n_sp:, :n_sd] = self.coords_top
        out[n_sp:, n_sd] = self.t_bottom + self.dt
        return out


class PrismSlabProblem(_ProblemBase):
    """Stabilized weak form on one tensor-product slab (slab/ALE mode)."""

    def __init__(self, slab: PrismSlab, material: MaterialParams, bcs: BCSpec,
                 body_force=None, convective=True, gauge=None,
                 jump_data=None):
        self.slab = slab
        n_sd, n_sp = slab.n_sd, slab.spatial.n_nodes
        self.rule = prism_quadrature(n_sd, 2)
        # the rule's ns spatial times 2 theta points, theta fastest
        shape = (len(self.rule.weights) // 2, 2)
        self.weights = self.rule.weights.reshape(shape)
        self.Nq = prism_shape_functions(
            self.rule.points[:, :n_sd],
            self.rule.points[:, n_sd]).reshape(shape + (-1,))
        # bottom nodes are time level 0 and top nodes level 1
        super().__init__(slab.node_coords(),
                         np.hstack([slab.spatial.elements,
                                    slab.spatial.elements + n_sp]),
                         slab.spatial.tag_names, np.repeat(np.arange(2), n_sp),
                         material, bcs, body_force, convective, gauge,
                         jump_data)

    def _initial_velocity_at_nodes(self):
        if self.jump_data is not None:
            prev = np.asarray(self.jump_data)
            return np.vstack([prev, prev])
        if self.bcs.initial is None:
            return None
        xt = self.slab.node_coords()
        return np.asarray(self.bcs.initial(xt[:, : self.n_sd]))

    @cached_property
    def _geometry(self):
        """((det, D, B, x), metric) of all prisms from one ``prism_geometry``
        call at 1 + nt points: the rule's nt theta points at its first
        spatial point, and the element centre.

        det, D, B and x have the element axis last, as ``_element_terms``
        takes them; x is None without a body force.  At fixed theta the map
        is affine in xi, so |detJ| and the spatial gradients D at the theta
        points hold at every spatial point, up to rounding.  The time
        derivatives at each point are B = (dN/dtheta - D.dx/dtheta) / dt,
        with dx/dtheta = Ns(xi).(x_top - x_bottom).  The metric of tau is
        taken at the centre (xi = 1/(n_sd+1), theta = 1/2): the spatial
        block composed with the regular-simplex map, the temporal
        coordinate kept as theta.
        """
        slab, n_sd = self.slab, self.n_sd
        ns, nt = self.weights.shape
        points = self.rule.points
        theta = points[:nt, n_sd]
        cb, ct = slab.corners()
        _, Jinv, detJ, grads = prism_geometry(
            cb, ct, slab.t_bottom, slab.dt,
            np.vstack([points[:nt, :n_sd], np.full(n_sd, 1.0 / (n_sd + 1))]),
            np.append(theta, 0.5))

        D = np.ascontiguousarray(np.moveaxis(grads[:, :nt, :, :n_sd], 0, -1))
        Ns = basis_eval(points[::nt, :n_sd], n_sd)        # (ns, n_sd+1)
        xb, xt = (np.einsum("sc,ecd->sde", Ns, c) for c in (cb, ct))
        dN = np.hstack([-Ns, Ns])[:, None, :, None]       # dN/dtheta
        B = (dN - np.einsum("tade,sde->stae", D, xt - xb)) / slab.dt
        x = None
        if self.body_force is not None:
            th = theta[:, None, None]
            x = np.empty((ns, nt, n_sd + 1, len(cb)))
            x[:, :, :n_sd] = (1.0 - th) * xb[:, None] + th * xt[:, None]
            x[:, :, n_sd] = (slab.t_bottom + theta * slab.dt)[:, None]

        Bmat = np.zeros((n_sd + 1, n_sd + 1))
        Bmat[:n_sd, :n_sd] = regular_simplex_map(n_sd)
        Bmat[n_sd, n_sd] = 1.0
        metric = metric_terms(np.einsum("ij,njk->nik", Bmat, Jinv[:, nt]))
        return (np.abs(detJ[:, :nt]).T.copy(), D, B, x), metric

    def _volume_geometry(self, sl):
        return (self.Nq, self.weights) + tuple(
            None if a is None else a[..., sl] for a in self._geometry[0])

    def _bottom_cap(self):
        ids = self.slab.spatial.elements  # bottom-level node ids == spatial ids
        return ids, self.slab.coords_bottom[ids]

    @property
    def _metric(self):
        return self._geometry[1]

    def _mantle_faces(self, tag):
        """The prism faces over the tag's spatial facets, bottom nodes then
        top nodes."""
        spatial = self.slab.spatial
        sids = spatial.boundary_facets[spatial.facets_with_tag(tag)]
        return np.hstack([sids, sids + spatial.n_nodes])

    def _face_quadrature(self, ids):
        """The spatial facet rule times the 2-point Gauss rule in theta,
        theta fastest.  The tangents at each point are the spatial reference
        directions of the facet blended at theta, and (Ns.(x_top -
        x_bottom), dt) along theta."""
        slab, n_sd = self.slab, self.n_sd
        sids = ids[:, :n_sd]
        cb, ct = slab.coords_bottom[sids], slab.coords_top[sids]
        srule = (interval_gauss(2) if n_sd == 2
                 else simplex_quadrature(n_sd - 1, 2))
        trule = interval_gauss(2)
        ps = np.repeat(srule.points, 2, axis=0)
        th = np.tile(trule.points[:, 0], len(srule.weights))
        w = np.outer(srule.weights, trule.weights).ravel()
        Ns = basis_eval(ps, n_sd - 1)                     # (nq, n_sd)
        # the facet at each point's theta: (nf, nq, n_sd, n_sd)
        blend = ((1.0 - th)[:, None, None] * cb[:, None]
                 + th[:, None, None] * ct[:, None])
        x = np.empty(blend.shape[:2] + (n_sd + 1,))
        x[..., :n_sd] = np.einsum("qa,fqad->fqd", Ns, blend)
        x[..., n_sd] = slab.t_bottom + th * slab.dt
        T = np.zeros(blend.shape[:2] + (n_sd, n_sd + 1))
        T[..., :n_sd - 1, :n_sd] = np.einsum(
            "ad,fqae->fqde", reference_gradients(n_sd - 1), blend)
        T[..., n_sd - 1, :n_sd] = np.einsum("qa,fad->fqd", Ns, ct - cb)
        T[..., n_sd - 1, n_sd] = slab.dt
        return prism_shape_functions(ps, th), x, T, w


# -- standalone operation wrappers -------------------------------------------

def _one_element(mesh: SpaceTimeMesh, e: int, field: SolutionField,
                 material: MaterialParams, body_force,
                 stab: StabilizationContext, convective, want_matrix):
    rule = simplex_quadrature(mesh.dim, 2)
    Nq = basis_eval(rule.points, mesh.dim)
    sl = slice(e, e + 1)
    return _element_terms(*_simplex_geometry(mesh, Nq, rule.weights, sl,
                                             body_force is not None),
                          field.values[mesh.elements[sl]], material.rho,
                          material.mu, stab.tau_mom[sl], stab.tau_cont[sl],
                          body_force, convective, want_matrix)


def element_residual(mesh: SpaceTimeMesh, e: int, field: SolutionField,
                     material: MaterialParams, body_force,
                     stab: StabilizationContext, convective=True) -> np.ndarray:
    """Interior residual vector of one simplex element, local dof order
    (node-major, components within node)."""
    Re, _ = _one_element(mesh, e, field, material, body_force, stab,
                         convective, want_matrix=False)
    return Re.reshape(-1)


def element_jacobian_matrix(mesh: SpaceTimeMesh, e: int, field: SolutionField,
                            material: MaterialParams, body_force,
                            stab: StabilizationContext,
                            convective=True) -> np.ndarray:
    """Exact linearization of the interior residual of one element, with tau
    frozen at the supplied values."""
    _, Ke = _one_element(mesh, e, field, material, body_force, stab,
                         convective, want_matrix=True)
    nloc = (mesh.dim + 1) * (mesh.n_sd + 1)
    return Ke.reshape(nloc, nloc)


def jump_term(problem, field: SolutionField):
    """Global jump residual vector and Jacobian of the bottom-cap term; the
    Jacobian is stored in the problem's full matrix pattern."""
    plan = problem._csr_plan
    R = np.zeros(problem.n_dofs)
    blocks = plan.blocks()
    problem._add_jump(field.values, R, blocks)
    return R, plan.matrix(blocks)


def traction_term(problem) -> np.ndarray:
    """Global residual contribution of the Neumann traction term."""
    R = np.zeros(problem.n_dofs)
    for dofs, Rloc in problem._traction:
        _add_local(R, dofs, Rloc)
    return R


def dirichlet_values(bcs: BCSpec, mesh: SpaceTimeMesh):
    """(dofs, values) of the strong velocity constraints on the mantle."""
    problem = SpaceTimeProblem(mesh, MaterialParams(), bcs)
    return problem.dir_dofs, problem.dir_values[problem.dir_dofs]


def assemble(mesh, field: SolutionField, scenario, mode: str,
             tau_override=None, jump_data=None):
    """Assemble the Newton system for a scenario in the requested mode.

    ``mode`` is "ust_simplex" (mesh: SpaceTimeMesh) or "slab_prism"
    (mesh: PrismSlab).  Returns (LinearSystem, residual_norm).
    """
    kwargs = dict(material=scenario.material, bcs=scenario.bcs,
                  body_force=scenario.body_force,
                  convective=scenario.convective, jump_data=jump_data)
    if mode == "ust_simplex":
        problem = SpaceTimeProblem(mesh, gauge=scenario.gauge_for(mesh.nodes),
                                   **kwargs)
    elif mode == "slab_prism":
        problem = PrismSlabProblem(
            mesh, gauge=scenario.gauge_for(mesh.node_coords()), **kwargs)
    else:
        raise ConfigurationError(f"unknown assembly mode {mode!r}")
    system, _, norm = problem.system(field.values, tau_override=tau_override)
    return system, norm
