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
the matrix's CSR pattern once per problem, on the first matrix request,
from the element connectivity: every element node pair becomes a dense
ncomp x ncomp block of entries.  Its ``indptr`` and ``indices`` are
read-only and shared by every matrix of the problem, which owns only its
``data``.  The plan numbers each chunk's pairs locally and keeps the
chunk's sorted global pair ids beside them.  Each Newton step fills the
matrix one component pair at a time: the kernel writes a chunk's (nen,
nen, E) block of component pair (i, j) into a buffer of its lane, one
``np.bincount`` sums that block over the local ids, with no sort, and
the chunk's sums are added straight at their CSR slots.  No chunk's local
matrices exist as one array, and there is no format conversion.

Every problem is a stack of L >= 1 identical element levels, its
``level_stack``: a space-time mesh's ``LevelStack``, which the mesh finds
by comparison, or one level (a prism slab, or a mesh that is not such a
stack).  Level k is level 0 with node ids shifted by k levels and its
nodes moved by a rigid motion with rotation R_k, so the set-up is done
for level 0 alone and reused, and every rotation is the stack's:
- the chunks of ``_partition`` repeat from level to level, so the plan
  numbers the pairs of each distinct chunk of level 0 on, a template, by
  one ``np.unique``, and every chunk of that template shares its local ids;
- the CSR pattern is that of element levels 0 and 1 moved by whole levels:
  node level 0's rows, node level 1's rows for every interior node level
  and node level 2's for the top, and a chunk of interior node levels only
  takes its level-1 twin's global ids plus whole levels of pairs;
- the mesh's determinants and longest edges are level 0's (see
  ``mesh``);
- a simplex problem caches the P1 gradients of level 0 only, and the
  kernel takes a level-k element's spatial gradients rotated by R_k;
- the metric norms of tau are rotation-invariant, so those of level 0
  repeat for every level;
- the system at a level-periodic iterate, one whose every node level
  holds node level 0's values with the velocity turned by that level's
  rotation (``SpaceTimeProblem._periodic``), with tau evaluated there or
  frozen at values that repeat level 0's, is element level 0's turned:
  tau and the kernel run on that level only, on the chunks that start in
  it, cut at its end (``_base_chunks``, ``_base_ids``), and element level
  k's rows and pair blocks are level 0's turned by R_k, each block B to
  T B T^T, T = diag(R_k, 1) (``LevelStack.turn``).  So the top node
  level's rows are node level 1's, still element level 0's share alone,
  turned by R_{L-1}; node level 1 then adds node level 0's turned by
  R_1, and node level m's are node level 1's turned by R_{m-1}
  (``_turn_levels``), written on the problem's lanes.  The jump, traction
  and Dirichlet terms are added after the turn.  The first Newton system
  of an extrusion whose initial and wall data are constant in time and
  turn with the mesh, as in every shipped UST case but the manufactured
  one (it has a body force), is such a system; a later Newton iterate is
  not.  This is the one place that decides level periodicity: the
  system's ``LinearSystem.stack`` tells the solver.

A chunk has at most ``_CHUNK_ENTRIES`` local-matrix entries, which
would be 8 MB of local matrices; a lane holds one component-pair block of
them at a time, in its two block buffers, and the kernel's per-element
factors, a few arrays of that block's size.  No per-element copy of the
element coordinates or dofs is cached: each chunk gathers its own from
``elements``.  ``_partition`` cuts the elements into chunks and lanes,
once per problem, for the plan and the lanes alike: ``_LANES`` fixed,
contiguous element lanes once a system has two chunks, else one (cut by
``_lanes``, the one contiguous split).  Each lane sums its chunks into
its own residual and adds its matrix sums straight into the one ``data``
array, allocated before the lanes start, except at the node rows that an
earlier lane also spans: those go into a buffer of the lane's own, a
small range where two lanes meet.  ``_on_lanes``, the one lane runner,
runs the first lane on the calling thread and the later one on a pool of
one thread, so only one thread heap beside the caller's holds a lane's
arrays; the lanes' residuals and buffers are added in lane order, so the
result has the same bytes on any core count.  A one-chunk system starts
no thread.  The first matrix fills the geometry, then computes the metric
and tau, then builds the plan, all on the calling thread; the problem's
one ``assembly plan`` log line gives the seconds of each and the depth of
the level stack.  A family supplies the geometry of its elements:

- ``level_stack``: its ``LevelStack``, the elements and nodes per level,
  the depth L and the rotations;
- ``_volume_geometry(sl)``: the arguments of the element kernel
  ``_element_terms`` for a chunk of elements;
- ``_bottom_cap()``: node ids and spatial coordinates of the bottom-cap
  simplices that carry the jump term;
- ``_tau_terms(u)``: the terms of tau per element, the advective form
  uhat . Ginv uhat at the barycentric velocities ``u``, Ginv:Ginv and
  g.g (a simplex mesh forms the first from level 0's P1 gradients and
  caches only the other two, and takes ``u`` of its first len(u)
  elements, all or a level-periodic system's level 0; a slab keeps
  its whole small metric);
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
from .mesh import (LevelStack, SimplexMesh, SpaceTimeMesh, basis_eval,
                   cofactor_det, jacobians_last, reference_gradients,
                   time_levels)
from .quadrature import interval_gauss, prism_quadrature, simplex_quadrature
from .stabilization import (StabilizationContext, advective_form,
                            metric_norms, metric_terms, prism_geometry,
                            prism_shape_functions, regular_simplex_map,
                            simplex_advective_form, tau_parameters)

logger = logging.getLogger("ustflow")

# an iterate, or a frozen tau, repeats level 0 on every level when it does
# so to within this share of its largest entry, the bar of
# ``SpaceTimeMesh.level_stack``
SHARE_TOL = 1e-12

# local-matrix entries per assembly chunk, 8 MB if they were held at once
# (2,500 pentatopes, 6,944 space-time tetrahedra, 3,086 2D or 976 3D
# prisms).  No array of that size is formed: a lane holds one (nen, nen, E)
# component-pair block of a chunk at a time, 1/nc^2 of it, and the kernel's
# per-element factors, a few arrays of that block's size.  The chunk sets the
# sum order of a multi-chunk system, hence its bytes.
_CHUNK_ENTRIES = 1.0e6

# element lanes of a system with two or more chunks.  The lanes are a fixed
# partition of the elements whatever the core count, so the sums, and the
# bytes of the result, are the same on any machine.  On a 2-core machine
# two lanes cut a later system of a 3D prism slab (4 chunks) from 0.06-0.08
# to 0.045-0.06 s and the 3D fixture's (102 chunks) from 1.06-1.41 to
# 0.67-0.90 s; the later lane's thread keeps its heap, about one chunk's
# kernel arrays, resident.
_LANES = 2
_pool = None


def _lane_pool() -> ThreadPoolExecutor:
    """The thread that runs the later lane, started on the first two-lane
    system; the first lane runs on the calling thread."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_LANES - 1,
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


@dataclass
class LinearSystem:
    """Newton system matrix @ delta = rhs, rhs = -(residual) with Dirichlet
    rows replaced by identity rows carrying (prescribed - current).
    ``stack`` is the ``LevelStack`` that a level-periodic system was turned
    on, so that every interior node level's block is node level 1's turned
    (see ``TimeLevelPreconditioner``), and None for a system assembled
    level by level."""
    matrix: sp.csr_matrix
    stack: LevelStack | None


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
    (Re, blocks): the local residuals element-first and, when requested,
    else None, the local matrices as ``blocks(out, tmp)``, a generator that
    writes one (nen, nen, E) component-pair block at a time into a buffer
    of the caller's (see ``_block_sums`` and ``_dense``).

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
    # delta_ij: transient/convection (Galerkin and GLS) and stress
    diag = np.einsum("stae,stbe->abe", Z, wadv) + mu * DD
    # stress mu D[a,j] D[b,i]; the linearization of u inside the GLS weight
    # adds D[a,j] sum_xi w N_b r_i
    H = mu * omD
    if convective:
        H = H + tau_m * np.einsum("stb,stie->tbie", N, wr)
        # Galerkin and GLS linearization of u.grad u: C[a,b] gradu[i,j]
        C = np.einsum("stae,stb->tabe", wq[:, :, None] * Z, N)
    # the blocks read only these factors; the quadrature-point arrays go
    del u, acc, adv, r, wadv, wr, Z
    tA1, mN1 = tau_m * A1, -N1
    # component-major copies (nt, n_sd, nen, E), so that the nodes of one
    # component are contiguous rows in the blocks' outer products: D, the
    # grad-div factor rho tau_C om D, H and D.grad u
    Dm = np.ascontiguousarray(D.swapaxes(1, 2))
    gdm = rho * tau_c * (om[:, None, None] * Dm)
    Hm = np.ascontiguousarray(H.swapaxes(1, 2))
    if convective:
        DgUm = np.ascontiguousarray(
            np.einsum("tame,tmje->taje", D, gradu).swapaxes(1, 2))
    del omD, H
    groups = range(nt)

    def blocks(out, tmp):
        """Write the (nen, nen, E) block of each component pair (i, j) into
        ``out``, then yield (i, j); ``tmp`` is scratch of that shape.

        A block is a sum of products of the factors above, the groups'
        terms added in turn; on one group (a simplex) the operations are
        those of the whole-array einsums, term by term."""
        def put(terms, first=True):
            for x, y in terms:
                if first:
                    np.multiply(x, y, out=out)
                    first = False
                else:
                    np.multiply(x, y, out=tmp)
                    np.add(out, tmp, out=out)

        for i in range(n_sd):
            for j in range(n_sd):
                # grad-div D[a,i] D[b,j], then C[a,b] gradu[i,j] and
                # D[a,j] H[b,i], then delta_ij
                terms = [(Dm[t, i, :, None], gdm[t, j, None])
                         for t in groups]
                if convective:
                    terms += [(C[t], gradu[t, i, j]) for t in groups]
                put(terms + [(Dm[t, j, :, None], Hm[t, i, None])
                             for t in groups])
                if i == j:
                    out += diag
                yield i, j
            # velocity rows, pressure columns: the GLS pressure gradient and
            # -p div w
            put([(tA1[t, :, None], Dm[t, i, None]) for t in groups]
                + [(Dm[t, i, :, None], mN1[t, None]) for t in groups])
            yield i, n_sd
        # pressure rows: the PSPG-like GLS test, then continuity
        for j in range(n_sd):
            terms = [(Dm[t, j, :, None], A1[t, None]) for t in groups]
            if convective:
                terms += [(DgUm[t, j, :, None], N1[t, None]) for t in groups]
            put(terms)
            out *= tau_m
            put([(N1[t, :, None], Dm[t, j, None]) for t in groups],
                first=False)
            yield n_sd, j
        np.multiply(tau_m / rho, DD, out=out)
        yield n_sd, n_sd

    return np.moveaxis(Re, -1, 0), blocks


def _dense(shape, blocks):
    """(E, nen, nc, nen, nc) local matrices gathered from the kernel's
    ``blocks``, for local residuals of ``shape`` (E, nen, nc)."""
    E, nen, nc = shape
    Ke = np.empty((E, nen, nc, nen, nc))
    out, tmp = np.empty((2, nen, nen, E))
    for i, j in blocks(out, tmp):
        Ke[:, :, i, :, j] = np.moveaxis(out, -1, 0)
    return Ke


def _block_sums(blocks, local, part, out, tmp):
    """Sum each of the kernel's ``blocks``, written into ``out`` (nen, nen,
    E), over the chunk-local pair ids ``local`` (intp, in (a, b, element)
    order) into its row part[i, j] of the pairs' sums."""
    for i, j in blocks(out, tmp):
        part[i, j] = np.bincount(local, out.ravel(), minlength=part.shape[2])


def _node_dofs(ids, comps, nc):
    """(n, m * len(comps)) dofs of components ``comps`` of the nodes ``ids``
    (n, m), node-major."""
    return (ids[:, :, None] * nc + comps).reshape(len(ids), -1)


def _add_local(R, dofs, Re):
    """Add local residuals ``Re`` at ``dofs`` (n, L) into ``R``.

    The sums span the range of ``dofs`` only: a chunk's elements are
    contiguous, and a sum over every dof per chunk would cost O(n_dofs)
    for each of a large system's many chunks.
    """
    if dofs.size == 0:
        return
    lo, hi = dofs.min(), dofs.max() + 1
    R[lo:hi] += np.bincount((dofs - lo).ravel(), Re.ravel(),
                            minlength=hi - lo)


def _repeats(a, n):
    """Whether every run of ``n`` entries of ``a`` is its first, to within
    ``SHARE_TOL`` of max|a| (False where ``a`` is not finite)."""
    a = np.asarray(a).reshape(-1, n)
    return bool(np.abs(a - a[0]).max() <= SHARE_TOL * np.abs(a).max())


def _unique(a):
    """``np.unique(a)``, sorting ``a`` in place: each value where it first
    differs from its sorted predecessor."""
    a.sort()
    first = np.empty(len(a), bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _by_levels(a, lo, hi, n_levels, shift):
    """The whole stack's array of ``a``, an array over the rows of node
    levels 0 to 2 of a stack's first two element levels, ``a[lo:hi]`` those
    of node level 1: node level 0's part, node level 1's part repeated for
    each interior node level l = 1..L-1 plus (l - 1) * ``shift``, and node
    level 2's part, the top's, plus (L - 2) * ``shift``.  ``a`` itself on
    a stack of L <= 2 levels, which has nothing to repeat."""
    if n_levels < 3:
        return a
    n = hi - lo
    out = np.empty(len(a) + (n_levels - 2) * n, a.dtype)
    out[:hi] = a[:hi]
    for m in range(1, n_levels - 1):
        np.add(a[lo:hi], m * shift, out=out[lo + m * n:hi + m * n])
    np.add(a[hi:], (n_levels - 2) * shift, out=out[hi + (n_levels - 2) * n:])
    return out


def _partition(n_per, n_levels, nloc):
    """(size, chunks, lanes) of a system of ``n_levels`` levels of ``n_per``
    elements with ``nloc`` dofs each: ``chunks`` are element slices of at
    most ``size`` elements (``_CHUNK_ENTRIES`` local-matrix entries),
    ``lanes`` the ranges of the chunk indices of each lane: ``_LANES`` of
    them, or one per chunk if there are fewer chunks (``_lanes``).

    The chunks repeat by levels.  A level of at least ``size`` elements is
    cut into the same s = ceil(n_per / size) even slices at every level; a
    smaller one goes whole into chunks of m = size // n_per levels, and the
    last chunk takes the levels that remain.  So every chunk is a chunk that
    starts at level 0, its template, shifted by whole levels.  The lanes
    split the chunk list into contiguous halves.  The plan and the lanes
    both take this partition, so a chunk's pair ids are the plan's ids for
    that chunk.
    """
    size = max(1, int(_CHUNK_ENTRIES / (nloc * nloc)))
    n_el = n_per * n_levels
    if n_per >= size:
        s = -(-n_per // size)
        starts = [k * n_per + n_per * j // s
                  for k in range(n_levels) for j in range(s)]
    else:
        starts = list(range(0, n_el, size // n_per * n_per))
    bounds = starts + [n_el]
    chunks = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    return size, chunks, _lanes(len(chunks), _LANES)


def _lanes(n, k, first=0):
    """``range(first, first + n)`` cut into min(k, n) contiguous parts of
    sizes that differ by at most one, later parts the larger."""
    k = min(k, n)
    return [range(first + n * j // k, first + n * (j + 1) // k)
            for j in range(k)]


def _on_lanes(fn, parts):
    """[fn(part) for part in ``parts``], the first on the calling thread
    and the later on the lane pool.  Every part has ended when this returns
    or raises, so no later lane still writes an array the caller reads."""
    later = [_lane_pool().submit(fn, part) for part in parts[1:]]
    try:
        first = fn(parts[0])
    finally:
        rest = [f.result() for f in later]
    return [first] + rest


class _CsrPlan:
    """CSR pattern of a problem's matrix, built once from the elements.

    The pattern holds every node pair that shares an element, plus each
    node's diagonal pair, as a dense ncomp x ncomp block of entries.
    ``keys`` are the pairs' row * n_nodes + col, sorted; pair p of node row
    r holds nc entries in each of the CSR rows r*nc + i, in key order, so
    its component pair (i, j) sits at

        slot(p, i, j) = indptr[r*nc + i] + nc*(p - bptr[r]) + j
                      = start[p] + i*stride[p] + j,

    the canonical CSR form of the summed element matrices (sorted columns,
    no duplicates).  ``indptr`` and ``indices`` are read-only and shared by
    every matrix the plan wraps.  ``chunks`` holds, for each element chunk
    of the partition, its pairs as ``pair_ids`` gives them: the chunk's
    sorted global pair ids and its chunk-local ids, so a chunk's fill
    spans only the pairs it touches (``_base_ids`` reuses them).

    The pairs are numbered once per template (see ``_partition``): a chunk
    k levels on has its template's elements plus k*n_sp, so its keys are
    the template's plus k*n_sp*(n_nodes + 1), in the same order.  One
    ``np.unique`` per template gives the keys and local ids that all its
    chunks share.

    The pattern is built by level offsets.  Element levels 0 and 1 and the
    diagonal give the rows of node level 0, of node level 1, whose pairs
    every interior node level 1..L-1 repeats, and of node level 2 from
    element level 1 alone, which the top node level L repeats.  Node level
    l's rows are then those rows moved l - 1 (the top's L - 2) levels on in
    row and column, so ``keys``, ``indices``, ``start``, ``stride`` and the
    row degrees are whole-level offsets of the first rows' (``_by_levels``),
    and no array of the whole stack's keys is sorted.  A chunk whose node
    levels are all interior takes its level-1 twin's global ids plus whole
    levels of pairs; only the chunks that touch node level 0 or L, and each
    template's twin, ``searchsorted`` their keys.  A stack of L <= 2
    levels, a prism slab and a mesh that is no stack have nothing to
    repeat: their first rows are all rows.  ``diag_slots`` are the diagonal
    entries of the Dirichlet rows; the rows themselves are whole CSR rows,
    which ``indptr`` delimits.  The global index arrays take the CSR index
    dtype (int32 while nnz < 2**31), the local ids the smallest unsigned
    dtype that holds a chunk's pair count (uint16 on every pentatope
    chunk, at most 62,500 pairs).
    """

    def __init__(self, elements, n_nodes, nc, dir_mask, chunks, n_per, n_sp):
        """The plan of ``elements`` in the ``chunks`` of ``_partition``, on a
        stack of levels of ``n_per`` elements and ``n_sp`` nodes."""
        start = time.perf_counter()
        self.n_nodes, self.nc = n_nodes, nc
        n_levels = len(elements) // n_per
        level = n_sp * (n_nodes + 1)  # a key one level on
        templates, shifted = {}, []
        for sl in chunks:
            k = sl.start // n_per
            t = (sl.start - k * n_per, sl.stop - k * n_per)
            if t not in templates:
                templates[t] = self._local_ids(elements[slice(*t)])
            # a chunk of interior node levels only is its level-1 twin
            # shifted by whole levels
            inner = k >= 1 and (sl.stop - 1) // n_per + 1 < n_levels
            shifted.append((t, k, inner))
        # the pairs of element levels 0 and 1, and the diagonal, give the
        # rows of node levels 0, 1 (an interior level) and 2 (the top's)
        own = [keys for t, (keys, _) in templates.items() if t[1] <= n_per]
        if sum(b - a for a, b in templates if b <= n_per) < n_per:
            own = [self._local_ids(elements[:n_per])[0]]
        own = np.concatenate(own)
        first = n_nodes if n_levels < 3 else 3 * n_sp
        base = _unique(np.concatenate(
            [own] + [own + level] * (n_levels > 1)
            + [np.arange(first, dtype=np.int64) * (n_nodes + 1)]))
        row, col = np.divmod(base, n_nodes)
        lo, hi = np.searchsorted(row, [n_sp, 2 * n_sp])
        per = hi - lo  # the pairs of an interior node level
        self.nnz = nc * nc * (len(base) + max(n_levels - 2, 0) * per)
        index = np.int32 if self.nnz < 2 ** 31 else np.int64
        bptr = np.searchsorted(row, np.arange(first + 1))
        deg = np.diff(bptr)
        # a pair's nc entries in one CSR row start at a multiple of nc, so
        # the indices fill whole rows of an (nnz/nc, nc) view, row i of pair
        # p at run[p] + i*deg[r]
        run = np.arange(len(row)) + (nc - 1) * bptr[row]
        step = deg[row]
        indices = np.empty(nc * nc * len(row), index)
        cols = (col[:, None] * nc + np.arange(nc)).astype(index)
        for i in range(nc):
            indices.reshape(-1, nc)[run + i * step] = cols
        # the diagonal pair's place in its node row
        diag = np.searchsorted(base, np.arange(first) * (n_nodes + 1))
        diag -= bptr[:-1]

        # the whole stack's arrays: per pair, per CSR entry and per node row
        self.keys = _by_levels(base, lo, hi, n_levels, level)
        self.start = _by_levels((nc * run).astype(index), lo, hi, n_levels,
                                nc * nc * per)
        self.stride = _by_levels((nc * step).astype(index), lo, hi, n_levels,
                                 0)
        self.indices = _by_levels(indices, nc * nc * lo, nc * nc * hi,
                                  n_levels, n_sp * nc)
        deg, diag = (_by_levels(a, n_sp, 2 * n_sp, n_levels, 0)
                     for a in (deg, diag))
        bptr = np.append(0, np.cumsum(deg))
        # CSR row node*nc + i holds nc entries of each pair of its node
        indptr = np.append(nc * nc * bptr[:-1, None]
                           + nc * deg[:, None] * np.arange(nc), self.nnz)
        self.indptr = indptr.astype(index)
        self.indices.setflags(write=False)
        self.indptr.setflags(write=False)

        twins, self.chunks = {}, []
        for t, k, inner in shifted:
            keys, local = templates[t]
            if not inner:
                glob = np.searchsorted(self.keys, keys + k * level)
            else:
                if t not in twins:
                    twins[t] = np.searchsorted(self.keys,
                                               keys + level).astype(index)
                glob = twins[t] + (k - 1) * per
            self.chunks.append((glob.astype(index, copy=False), local))

        dir_dofs = np.flatnonzero(dir_mask)
        node, i = np.divmod(dir_dofs, nc)
        self.diag_slots = (indptr[dir_dofs] + nc * diag[node]
                           + i).astype(index)
        self.build_s = time.perf_counter() - start

    def _local_ids(self, ids):
        """(keys, local) of the node pairs of ``ids`` (n, m): their distinct
        keys row * n_nodes + col, sorted, and each pair's index into them,
        in (a, b, element) order, in the smallest unsigned dtype that holds
        len(keys)."""
        ids = ids.T.astype(np.int64)
        keys, local = np.unique(
            (ids[:, None, :] * self.n_nodes + ids[None, :, :]).ravel(),
            return_inverse=True)
        return keys, local.astype(np.min_scalar_type(len(keys)))

    def pair_ids(self, ids):
        """(glob, local) of the node pairs of ``ids`` (n, m), which must
        share an element or be diagonal: the pairs' sorted global ids and
        each pair's index into ``glob``, in (a, b, element) order."""
        keys, local = self._local_ids(ids)
        return np.searchsorted(self.keys, keys), local

    def slots(self, glob):
        """(nc, nc, len(glob)) CSR slots of the component pairs (i, j) of
        the pairs ``glob``."""
        j = np.arange(self.nc)
        rows = (self.start[glob].astype(np.intp)
                + j[:, None] * self.stride[glob])
        return rows[:, None, :] + j[None, :, None]

    def block_offsets(self, pairs, first):
        """(n, nc, nc) CSR slots of the component pairs (i, j) of the
        ``pairs`` (a slice or an array of pair ids), less the slot
        ``first``, as ``intp``: each pair's block, row-major."""
        j = np.arange(self.nc, dtype=np.intp)
        return ((self.start[pairs].astype(np.intp) - first)[:, None]
                + self.stride[pairs][:, None] * j)[:, :, None] + j

    def row_range(self, first, last):
        """(lo, hi) of the CSR data of the whole node rows of pairs
        ``first`` to ``last``."""
        r0, r1 = self.keys[[first, last]] // self.n_nodes
        ptr, nc = self.indptr, self.nc
        return int(ptr[r0 * nc]), int(ptr[(r1 + 1) * nc])

    def lane_buffers(self, lanes):
        """(buf, lo) of each lane, given as the ``glob`` arrays of its
        chunks: zeros over the CSR data of the lane's node rows that an
        earlier lane's node rows also span, from slot ``lo``; empty where
        there are none, as on the first lane."""
        out, top = [], 0
        for glob in lanes:
            lo, hi = self.row_range(min(g[0] for g in glob),
                                    max(g[-1] for g in glob))
            out.append((np.zeros(max(0, min(hi, top) - lo)), lo))
            top = max(top, hi)
        return out

    def add(self, data, glob, part, shared=None):
        """Add the sums ``part`` (nc, nc, len(glob)) of the component pairs
        of the pairs ``glob`` at their slots of the CSR ``data``.  With
        ``shared``, a (buf, lo) pair of ``lane_buffers``, the sums of the
        pairs whose slots lie in ``buf``'s range, from slot ``lo``, go into
        ``buf`` instead.

        A buffer ends at a node row, and the slots of node rows follow the
        pair order, so the pairs before the first pair of that row go into
        the buffer.
        """
        q = 0
        if shared is not None:
            buf, buf_lo = shared
            q = np.searchsorted(glob, (buf_lo + len(buf)) // self.nc ** 2)
            buf[self.slots(glob[:q]) - buf_lo] += part[:, :, :q]
        data[self.slots(glob[q:])] += part[:, :, q:]

    def matrix(self, data):
        """The CSR matrix of ``data`` (all slots), which it wraps, with the
        plan's shared, read-only ``indices`` and ``indptr``."""
        n = self.n_nodes * self.nc
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


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
        self.dof_levels = np.repeat(levels, nc)

        self.dir_mask = np.zeros(self.n_dofs, dtype=bool)
        self.dir_values = np.zeros(self.n_dofs)
        # a tag's nodes, sorted, by a node mask: no sort of its faces
        on_tag = np.empty(self.n_nodes, dtype=bool)
        for tag in sorted(bcs.dirichlet):
            on_tag[:] = False
            on_tag[self._mantle_faces(tag)] = True
            nodes = np.flatnonzero(on_tag)
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

    @property
    def edof(self) -> np.ndarray:
        """(n_el, nloc) dofs of every element, built on each access: the
        assembly gathers each chunk's dofs from ``elements`` instead."""
        return _node_dofs(self.elements, np.arange(self.ncomp), self.ncomp)

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
        return self._stabilization(values, len(self.elements))

    def _stabilization(self, values, n):
        """``stabilization`` of the first ``n`` elements alone."""
        n_sd = self.n_sd
        values = np.asarray(values, dtype=float).reshape(self.n_nodes,
                                                         self.ncomp)
        elements = self.elements[:n]
        if self.convective:
            # the mean of the nodal velocities, one node column at a time
            vel = values[:, :n_sd]
            u_bary = vel[elements[:, 0]]
            for k in range(1, elements.shape[1]):
                u_bary += vel[elements[:, k]]
            u_bary /= elements.shape[1]
        else:
            # Stokes limit: tau must not depend on the iterate so the
            # system stays exactly linear
            u_bary = np.zeros((n, n_sd))
        uGu, GG, gg = self._tau_terms(u_bary)
        return StabilizationContext(*tau_parameters(
            uGu, self.material.nu, GG, gg=gg))

    # interface used by the Newton solver
    def system(self, values, tau_override=None, want_matrix=True):
        """(LinearSystem or None, rhs, |rhs|) of the Newton step at ``values``.

        ``tau_override`` supplies frozen stabilization parameters; without it
        they are evaluated at ``values``.  For a level-periodic ``values``
        (``_periodic``) tau and the volume terms are those of element level
        0 alone (``_base_chunks``), turned into the other levels
        (``_turn_levels``), the system's ``stack`` is the problem's
        ``level_stack``, and one ``assembly periodic levels=1/<L>
        dev=<deviation>`` line is logged.  A frozen tau takes that path too
        when its ``tau_mom`` and ``tau_cont`` repeat level 0's on every
        element level, to within ``SHARE_TOL`` of their largest entry, and
        then only its level 0 is read; any other frozen tau assembles every
        level.  ``residual_norm`` takes the same decision, so it gives the
        same bytes.
        """
        values = np.asarray(values, dtype=float).reshape(self.n_nodes,
                                                         self.ncomp)
        _, chunks, lanes = self._chunks
        new_plan = want_matrix and "_csr_plan" not in vars(self)
        dev = self._periodic(values)
        if dev is not None and tau_override is not None and not all(
                _repeats(tau, self.level_stack.n_per)
                for tau in (tau_override.tau_mom, tau_override.tau_cont)):
            dev = None
        t0 = time.perf_counter()
        # cached geometry is filled here, before the metric and the lanes
        # read it
        self._volume_geometry(slice(0, 0))
        t1 = time.perf_counter()
        if tau_override is not None:
            # a level-periodic system's chunks read its first level
            stab = tau_override
        elif dev is None:
            stab = self.stabilization(values)
        else:
            stab = self._stabilization(values, self.level_stack.n_per)
        t2 = time.perf_counter()
        plan = self._csr_plan if want_matrix else None
        if new_plan:
            logger.info("assembly plan pairs=%d nnz=%d levels=%d lanes=%d "
                        "chunks=%d plan_s=%.3f geometry_s=%.3f metric_s=%.3f",
                        len(plan.keys), plan.nnz, self.level_stack.L,
                        len(lanes), len(chunks), plan.build_s, t1 - t0,
                        t2 - t1)

        ids = None if plan is None else plan.chunks
        if dev is not None:
            logger.info("assembly periodic levels=1/%d dev=%.1e",
                        self.level_stack.L, dev)
            _, chunks, lanes = self._base_chunks
            ids = None if plan is None else self._base_ids
        R, data = self._volume(values, stab, chunks, lanes, ids)
        if dev is not None:
            self._turn_levels(R, data, plan)
        self._add_jump(values, R, data)
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
        # the Dirichlet rows are whole CSR rows: a one-byte mask per stored
        # entry, freed at once, picks their entries
        data[np.repeat(self.dir_mask, np.diff(plan.indptr))] = 0.0
        data[plan.diag_slots] = 1.0
        return (LinearSystem(plan.matrix(data),
                             None if dev is None else self.level_stack),
                rhs, norm)

    def _volume(self, values, stab, chunks, lanes, ids):
        """(R, data) of the volume terms of ``chunks`` on ``lanes``, with
        each chunk's (glob, local) pair ids ``ids`` (``plan.chunks`` or
        ``_base_ids``); ``data`` is None when ``ids`` is.

        ``data`` holds every CSR slot and is allocated before any lane
        starts.  Each lane adds its sums straight into it, except at the
        node rows that an earlier lane also spans: those go into the lane's
        buffer of ``_CsrPlan.lane_buffers``.  The lanes' residuals and then
        their buffers are added in lane order, so every slot gets the same
        sums in the same order on any number of threads.
        """
        data, shared = None, [None] * len(lanes)
        if ids is not None:
            plan = self._csr_plan
            data = np.zeros(plan.nnz)
            shared = plan.lane_buffers([[ids[c][0] for c in lane]
                                        for lane in lanes])
        R, *sums = _on_lanes(
            lambda k: self._lane(values, stab, data, shared[k], chunks, ids,
                                 lanes[k]),
            range(len(lanes)))
        for R_k in sums:
            R += R_k
        if data is not None:
            for buf, lo in shared:
                data[lo:lo + len(buf)] += buf
        return R, data

    def _lane(self, values, stab, data, shared, chunks, ids, lane):
        """The residual of the chunks ``lane``.  Unless ``ids`` is None,
        their local matrices go into ``data`` and the lane's buffer
        ``shared`` (see ``_CsrPlan.add``), one component-pair block at a
        time: the lane's two block buffers hold the kernel's blocks, and
        each block is summed over the chunk's pairs into ``part``."""
        rho, mu, nc = self.material.rho, self.material.mu, self.ncomp
        nen = self.elements.shape[1]
        R = np.zeros(self.n_dofs)
        comps = np.arange(nc)
        if ids is not None:
            plan = self._csr_plan
            size = max(chunks[c].stop - chunks[c].start for c in lane)
            buffers = np.empty((2, nen * nen * size))
        for c in lane:
            sl = chunks[c]
            elements = self.elements[sl]
            Re, blocks = _element_terms(*self._volume_geometry(sl),
                                        values[elements], rho, mu,
                                        stab.tau_mom[sl], stab.tau_cont[sl],
                                        self.body_force, self.convective,
                                        ids is not None)
            _add_local(R, _node_dofs(elements, comps, nc), Re)
            if ids is not None:
                glob, local = ids[c]
                n = nen * nen * len(elements)
                out, tmp = buffers[:, :n].reshape(2, nen, nen, -1)
                part = np.empty((nc, nc, len(glob)))
                _block_sums(blocks, local.astype(np.intp), part, out, tmp)
                plan.add(data, glob, part, shared)
            # the next chunk's kernel runs without this chunk's arrays
            del Re, blocks
        return R

    def residual_norm(self, values, tau_override=None) -> float:
        return self.system(values, tau_override=tau_override,
                           want_matrix=False)[2]

    @cached_property
    def _chunks(self):
        """The (size, chunks, lanes) of ``_partition``, fixed at the first
        system so that the plan and the lanes keep sharing it."""
        stack = self.level_stack
        return _partition(stack.n_per, stack.L,
                          self.elements.shape[1] * self.ncomp)

    @cached_property
    def _csr_plan(self) -> _CsrPlan:
        """Built on the first matrix request, never by the constructor or a
        residual-only call."""
        stack = self.level_stack
        return _CsrPlan(self.elements, self.n_nodes, self.ncomp, self.dir_mask,
                        self._chunks[1], stack.n_per, stack.n_sp)

    @cached_property
    def _base_chunks(self):
        """The (size, chunks, lanes) of a level-periodic system: each chunk
        of ``_chunks`` that starts in element level 0, cut at that level's
        end (in 2D chunk 0 spans several levels).  It reads no plan."""
        size, chunks, _ = self._chunks
        n_per = self.level_stack.n_per
        base = [slice(sl.start, min(sl.stop, n_per)) for sl in chunks
                if sl.start < n_per]
        return size, base, _lanes(len(base), _LANES)

    @cached_property
    def _base_ids(self):
        """The pair ids of each chunk of ``_base_chunks``: the plan's of a
        whole chunk, those that ``pair_ids`` gives a cut one, from the
        plan's by one ``np.unique`` of its level-0 local ids."""
        nen, out = self.elements.shape[1], []
        for sl, whole, (glob, local) in zip(self._base_chunks[1],
                                            self._chunks[1],
                                            self._csr_plan.chunks):
            if sl != whole:
                used, local = np.unique(local.reshape(nen, nen, -1)[
                    ..., :sl.stop - sl.start].ravel(), return_inverse=True)
                glob = glob[used]
            out.append((glob, local))
        return out

    def _periodic(self, values):
        """None: a family whose levels are not turned copies of one
        another assembles every level (see ``SpaceTimeProblem``)."""
        return None

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
    def _cap_slots(self):
        """(slots, local) of the jump term's matrix: the CSR slots (n_sd,
        n_pairs) of the velocity component pairs (i, i) of the bottom-cap
        node pairs, which are element node pairs in both families, and each
        facet pair's index into them, in (a, b, facet) order."""
        plan = self._csr_plan
        glob, local = plan.pair_ids(self._cap[0])
        i = np.arange(self.n_sd)
        return plan.slots(glob)[i, i], local

    def _add_jump(self, values, R, data):
        """rho (u+ - u-) . w on the bottom cap.  Its matrix, rho times the
        facet mass matrix in each velocity component, goes into the plan's
        CSR ``data`` unless that is None."""
        n_sd, nc = self.n_sd, self.ncomp
        ids, Mq, R_minus = self._cap
        rho = self.material.rho
        Rloc = rho * np.einsum("fab,fbi->fai", Mq, values[ids, :n_sd])
        Rloc -= R_minus
        _add_local(R, _node_dofs(ids, np.arange(n_sd), nc), Rloc)
        if data is not None:
            slots, local = self._cap_slots
            data[slots] += np.bincount(
                local, (rho * Mq).transpose(1, 2, 0).ravel(),
                minlength=slots.shape[1])

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
            out.append((_node_dofs(ids, np.arange(n_sd), nc), Rloc))
        return out


def _simplex_geometry(mesh: SpaceTimeMesh, Nq, weights, sl, grads,
                      with_points):
    """The geometry ``_element_terms`` takes for the space-time simplices
    ``sl`` with P1 gradients ``grads`` (dim+1, dim, E), element-last: their
    nq points form one group, on which the gradients are constant.  The
    points are computed only ``with_points``, else None."""
    nq, nen = Nq.shape
    x = (np.moveaxis(Nq @ mesh.nodes[mesh.elements[sl]], 0, -1)[:, None]
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

    @property
    def level_stack(self) -> LevelStack:
        return self.mesh.level_stack

    @cached_property
    def _gradients0(self):
        """(n_per, dim+1, dim) P1 gradients of level 0 of the mesh's level
        stack, the problem's one copy of them."""
        return self.mesh.gradients_of(slice(self.level_stack.n_per))

    def _gradients(self, sl):
        """(dim+1, dim, E) P1 gradients of the elements ``sl``, element-last:
        level 0's, with the spatial columns of a level-k element rotated by
        R_k, G[:, :n_sd] R_k^T; d/dt is unchanged."""
        grads0, stack = self._gradients0, self.level_stack
        n_per, shape = stack.n_per, grads0.shape[1:]
        start, stop, _ = sl.indices(len(self.elements))
        out = np.empty(shape + (stop - start,))
        for k in range(start // n_per, -(-stop // n_per)):
            lo, hi = max(start, k * n_per), min(stop, (k + 1) * n_per)
            G = grads0[lo - k * n_per:hi - k * n_per].reshape(-1, shape[1])
            G = stack.turn(G, stack.rotations[k]).reshape((hi - lo,) + shape)
            out[..., lo - start:hi - start] = np.moveaxis(G, 0, -1)
        return out

    def _volume_geometry(self, sl):
        return _simplex_geometry(self.mesh, self.Nq, self.rule.weights, sl,
                                 self._gradients(sl),
                                 self.body_force is not None)

    def _periodic(self, values):
        """The largest deviation of ``values`` (n_nodes, nc) from a
        level-periodic iterate, relative to max|values|, or None.

        An iterate is level-periodic when each node level m of a stack of
        L >= 3 levels holds node level 0's values with the velocity turned
        by ``LevelStack.node_rotation`` Q_m, within ``SHARE_TOL`` of
        max|values|.  Without a body force, whose value depends on where
        and when a point lies, element level k then computes level 0's
        terms turned by R_k.  None for any other iterate, for fewer levels,
        with a body force, and where ``values`` are not finite."""
        stack = self.level_stack
        L = stack.L
        if L < 3 or self.body_force is not None:
            return None
        scale = np.abs(values).max()
        if not np.isfinite(scale):
            return None
        levels = values.reshape(L + 1, stack.n_sp, self.ncomp)
        gap = 0.0
        for m in range(1, L + 1):
            turned = stack.turn(levels[0], stack.node_rotation(m))
            gap = max(gap, np.abs(levels[m] - turned).max())
            if not gap <= SHARE_TOL * scale:
                return None
        return gap / scale if scale else 0.0

    def _turn_levels(self, R, data, plan):
        """Fill the rows of node levels 1 to L of a level-periodic system,
        in the residual ``R`` and, unless it is None, the CSR ``data`` of
        ``plan``, from those that element level 0 alone left.

        Element level k is element level 0 turned by R_k, its rows by
        diag(R_k, 1) and its pair blocks B to T B T^T, T = diag(R_k, 1)
        (``LevelStack.turn``), and R_{k+1} = R_k R_1, which the stack's fit
        holds to 1e-12.  So, in this order:

        1. the top node level L, which element level L-1 alone touches, is
           node level 1 turned by R_{L-1}, while node level 1 still holds
           element level 0's share alone;
        2. node level 1 takes element level 1's share, node level 0's rows
           and blocks turned by R_1, each moved one level on;
        3. each interior node level m = 2..L-1 is node level 1 turned by
           R_{m-1}.

        In the plan's layout (``_by_levels``) node level m's CSR data is
        node level 1's range moved by m - 1 levels, so node level 1's
        blocks are gathered once, by ``intp`` offsets, which numpy indexes
        without a conversion, and the pairs of the top and of node level 0
        are found among node level 1's by their keys moved by whole levels.
        Step 3 cuts levels 2..L-1 into contiguous parts (``_lanes``), at
        most one per lane of ``_chunks``, and turns them through
        ``_on_lanes``.  Each level is written by one thread, so the bytes
        are the same on any core count, and a one-lane problem, or one
        interior level, starts no thread."""
        stack = self.level_stack
        L, n_sp, turns = stack.L, stack.n_sp, stack.rotations
        rows = R.reshape(L + 1, n_sp, self.ncomp)
        rows[L] = stack.turn(rows[1], turns[L - 1])
        rows[1] += stack.turn(rows[0], turns[1])
        if data is not None:
            keys, level = plan.keys, n_sp * (plan.n_nodes + 1)
            lo, hi, top = np.searchsorted(
                keys, np.array([1, 2, L]) * n_sp * plan.n_nodes)
            first, second, last = (int(plan.start[p]) for p in (lo, hi, top))
            step = second - first  # the entries of an interior node level
            inner = plan.block_offsets(slice(lo, hi), first)
            level1 = data[first:second]

            def among(moved):
                """node level 1's block offsets of the pairs ``moved``"""
                return inner[np.searchsorted(keys[lo:hi], moved)]

            data[last:][plan.block_offsets(slice(top, None), last)] = (
                stack.turn(level1[among(keys[top:] - (L - 1) * level)],
                           turns[L - 1]))
            level1[among(keys[:lo] + level)] += stack.turn(
                data[:first][plan.block_offsets(slice(0, lo), 0)], turns[1])
            blocks = level1[inner]

        def fill(levels):
            for m in levels:
                rows[m] = stack.turn(rows[1], turns[m - 1])
                if data is not None:
                    data[first + (m - 1) * step:][inner] = stack.turn(
                        blocks, turns[m - 1])

        _on_lanes(fill, _lanes(L - 2, len(self._chunks[2]), 2))

    def _bottom_cap(self):
        mesh = self.mesh
        ids = mesh.boundary_facets[mesh.bottom_facets]
        return ids, mesh.nodes[ids][:, :, : self.n_sd]

    def _tau_terms(self, u):
        """The advective form from level 0's gradients and each element's
        velocity in level 0's frame, R_k^T u, then the cached norms, for
        the first len(u) elements."""
        stack = self.level_stack
        n_per = stack.n_per
        u0 = np.concatenate([stack.turn(u[k * n_per:(k + 1) * n_per], R.T)
                             for k, R in enumerate(
                                 stack.rotations[:len(u) // n_per])])
        return ((simplex_advective_form(self._gradients0, u0),)
                + tuple(a[:len(u)] for a in self._metric))

    @cached_property
    def _metric(self):
        """(Ginv:Ginv, g.g) per element: all that tau keeps of the metric.
        Both are rotation-invariant, so level 0's repeat for every level."""
        return tuple(np.tile(a, self.level_stack.L)
                     for a in metric_norms(self.mesh, self._gradients0))

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

    @cached_property
    def level_stack(self) -> LevelStack:
        """One level: the slab's prisms between its two node levels."""
        return LevelStack(len(self.elements), self.slab.spatial.n_nodes,
                          np.eye(self.n_sd)[None])

    def _volume_geometry(self, sl):
        return (self.Nq, self.weights) + tuple(
            None if a is None else a[..., sl] for a in self._geometry[0])

    def _bottom_cap(self):
        ids = self.slab.spatial.elements  # bottom-level node ids == spatial ids
        return ids, self.slab.coords_bottom[ids]

    @property
    def _metric(self):
        return self._geometry[1]

    def _tau_terms(self, u):
        Ginv, _, GG, gg = self._metric
        return advective_form(u, Ginv), GG, gg

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

def _one_element(mesh: SpaceTimeMesh, e: int, values: np.ndarray,
                 material: MaterialParams, body_force,
                 stab: StabilizationContext, convective, want_matrix):
    rule = simplex_quadrature(mesh.dim, 2)
    Nq = basis_eval(rule.points, mesh.dim)
    sl = slice(e, e + 1)
    grads = np.moveaxis(mesh.gradients_of(sl), 0, -1)
    Re, blocks = _element_terms(
        *_simplex_geometry(mesh, Nq, rule.weights, sl, grads,
                           body_force is not None),
        np.asarray(values, dtype=float)[mesh.elements[sl]], material.rho,
        material.mu, stab.tau_mom[sl], stab.tau_cont[sl], body_force,
        convective, want_matrix)
    return Re, None if blocks is None else _dense(Re.shape, blocks)


def element_residual(mesh: SpaceTimeMesh, e: int, values: np.ndarray,
                     material: MaterialParams, body_force,
                     stab: StabilizationContext, convective=True) -> np.ndarray:
    """Interior residual vector of one simplex element at the nodal
    ``values`` (n_nodes, ncomp), local dof order (node-major, components
    within node)."""
    Re, _ = _one_element(mesh, e, values, material, body_force, stab,
                         convective, want_matrix=False)
    return Re.reshape(-1)


def element_jacobian_matrix(mesh: SpaceTimeMesh, e: int, values: np.ndarray,
                            material: MaterialParams, body_force,
                            stab: StabilizationContext,
                            convective=True) -> np.ndarray:
    """Exact linearization of the interior residual of one element, with tau
    frozen at the supplied values."""
    _, Ke = _one_element(mesh, e, values, material, body_force, stab,
                         convective, want_matrix=True)
    nloc = (mesh.dim + 1) * (mesh.n_sd + 1)
    return Ke.reshape(nloc, nloc)


def jump_term(problem, values: np.ndarray):
    """Global jump residual vector and Jacobian of the bottom-cap term at
    the nodal ``values`` (n_nodes, ncomp); the Jacobian is stored in the
    problem's full matrix pattern."""
    plan = problem._csr_plan
    R = np.zeros(problem.n_dofs)
    data = np.zeros(plan.nnz)
    problem._add_jump(np.asarray(values, dtype=float), R, data)
    return R, plan.matrix(data)


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

