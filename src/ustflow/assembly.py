"""Residual and Newton-matrix assembly of the stabilized space-time weak form.

Unknowns are node-major: node k carries (u_1..u_{n_sd}, p) at dofs
k*(n_sd+1) .. k*(n_sd+1)+n_sd.  The weak form combines the Galerkin
transient/convection term, the stress and continuity terms, the jump term
on the bottom cap, a GLS momentum term (with the full operator including
pressure gradient and, on tensor-product elements, second spatial
derivatives), a grad-div continuity stabilization and a traction term on
Neumann mantle facets.  Dirichlet conditions are imposed by identity rows;
tau is frozen at the current iterate (Picard treatment), everything else is
linearized exactly.

One driver, ``_ProblemBase``, assembles both element families: the chunked
volume loop, the jump term, the stabilization parameters, the sparse matrix
and the Dirichlet rows.  ``_CsrPlan`` builds the matrix pattern once per
problem, on the first matrix request, from the element connectivity: every
element node pair becomes a dense ncomp x ncomp block.  Each Newton step
adds its local matrices into the blocks with one ``np.bincount`` per
component pair, with no sort, and hands the solver the blocks' CSR form.

The volume loop runs in ``_LANES`` fixed, contiguous element lanes once a
system has that many chunks.  Each lane sums its chunks into its own
residual and blocks, on a small module-level thread pool, and the lanes'
sums are added in lane order, so the result has the same bytes on any core
count.  A one-chunk system runs its one lane inline and starts no thread.
On the first matrix of a two-lane problem the plan is built on a lane
thread while the calling thread computes tau and the geometry.  A family
supplies its geometry and the volume kernel that takes it:

- ``_kernel`` and ``_volume_geometry(sl)``: the element kernel and its
  geometry arguments for a chunk of elements;
- ``_bottom_cap()``: node ids and spatial coordinates of the bottom-cap
  simplices that carry the jump term;
- ``_metric``: the per-element metric (Ginv, g, Ginv:Ginv, g.g) of tau;
- ``_add_traction(R)``: the Neumann term on its mantle faces.

Space-time simplices use ``_simplex_terms``: P1 gradients are constant per
element and the strong viscous operator vanishes, so every term is a
per-element constant times a few quadrature sums, and each local matrix is
built once from outer products, with no per-point matrix intermediates.
Tensor-product prisms use the quadrature-point kernel ``_element_terms``:
their gradients vary over the element, and the viscous operator is retained
where nonzero.  Fed the constant P1 gradients broadcast over the quadrature
points, ``_element_terms`` is also the tests' oracle for ``_simplex_terms``.
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
from .mesh import (SimplexMesh, SpaceTimeMesh, basis_eval, reference_gradients,
                   time_levels)
from .quadrature import interval_gauss, prism_quadrature, simplex_quadrature
from .stabilization import (StabilizationContext, mesh_metric, metric_terms,
                            prism_geometry, prism_shape_functions,
                            regular_simplex_map, tau_parameters)

logger = logging.getLogger("ustflow")

# local-matrix entries per assembly chunk (7,500 pentatopes or 9,259 2D
# prisms).  It bounds the chunk's arrays of that size, on each lane: the
# local matrices and the simplex kernel's outer products; the prism
# kernel's per-quadrature-point products are nq times larger.
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
        if self.rho <= 0.0 or self.mu < 0.0:
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


# -- element kernels ---------------------------------------------------------

def _element_terms(Nq, wdet, D, B, VV, x_q, Ue, rho, mu, tau_m, tau_c,
                   body_force, convective, want_matrix):
    """Quadrature-point volume kernel for one chunk of elements.

    Nq: (nq, nen) shape values; wdet: (E, nq) weight*|detJ|;
    D: (E, nq, nen, n_sd) spatial gradients; B: (E, nq, nen) time
    derivatives; VV: None or (E, nq, nen, n_sd, n_sd) strong viscous
    operator mu*(lap N delta_ij + d2N/dxidxj); x_q: (E, nq, dim);
    Ue: (E, nen, ncomp).  Returns (Re, Ke) with Ke None when not requested.
    """
    def ein(*args):
        return np.einsum(*args, optimize=True)

    E, nq, nen, n_sd = D.shape
    nc = n_sd + 1
    Uv = Ue[:, :, :n_sd]
    Up = Ue[:, :, n_sd]

    u_q = ein("qa,eai->eqi", Nq, Uv)
    p_q = ein("qa,ea->eq", Nq, Up)
    gradu = ein("eqaj,eai->eqij", D, Uv)
    dudt = ein("eqa,eai->eqi", B, Uv)
    gradp = ein("eqaj,ea->eqj", D, Up)
    divu = ein("eqii->eq", gradu)

    if body_force is None:
        f_q = 0.0
        acc = dudt.copy()
    else:
        xt = x_q.reshape(-1, x_q.shape[-1])
        f_q = np.asarray(body_force(xt[:, :n_sd], xt[:, n_sd])).reshape(E, nq, n_sd)
        acc = dudt - f_q
    if convective:
        acc = acc + ein("eqj,eqij->eqi", u_q, gradu)
        adv = B + ein("eqj,eqaj->eqa", u_q, D)
    else:
        adv = np.broadcast_to(B, (E, nq, nen))

    r_q = rho * acc + gradp
    if VV is not None:
        r_q = r_q - ein("eqaij,eaj->eqi", VV, Uv)

    Re = np.zeros((E, nen, nc))
    # Galerkin transient + convection + body force
    Re[:, :, :n_sd] += rho * ein("eq,qa,eqi->eai", wdet, Nq, acc)
    # stress: 2 mu eps(w):eps(u) - p div w
    Re[:, :, :n_sd] += mu * ein("eq,eqaj,eqij->eai", wdet, D,
                                      gradu + np.swapaxes(gradu, 2, 3))
    Re[:, :, :n_sd] -= ein("eq,eq,eqai->eai", wdet, p_q, D)
    # continuity
    Re[:, :, n_sd] += ein("eq,qa,eq->ea", wdet, Nq, divu)
    # GLS momentum: weight rho(dw/dt + u.grad w) part
    Re[:, :, :n_sd] += ein("e,eq,eqa,eqi->eai", tau_m, wdet, adv, r_q)
    if VV is not None:
        Re[:, :, :n_sd] -= ein("e,eq,eqami,eqm->eai",
                                     tau_m / rho, wdet, VV, r_q)
    # GLS momentum: pressure-test part (PSPG-like)
    Re[:, :, n_sd] += ein("e,eq,eqai,eqi->ea", tau_m / rho, wdet, D, r_q)
    # grad-div
    Re[:, :, :n_sd] += rho * ein("e,eq,eqai,eq->eai", tau_c, wdet, D, divu)

    if not want_matrix:
        return Re, None

    eye = np.eye(n_sd)
    Ke = np.zeros((E, nen, nc, nen, nc))
    # d(strong residual)/dU (velocity block), without viscous part
    drdu_rho = rho * (ein("eqb,ij->eqibj", adv, eye)
                      + (ein("qb,eqij->eqibj", Nq, gradu)
                         if convective else 0.0))
    drdu = drdu_rho if VV is None else drdu_rho - ein("eqbmj->eqmbj", VV)

    # Galerkin
    Ke[:, :, :n_sd, :, :n_sd] += ein("eq,qa,eqibj->eaibj",
                                           wdet, Nq, drdu_rho)
    # stress
    Ke[:, :, :n_sd, :, :n_sd] += mu * (
        ein("eq,eqak,eqbk,ij->eaibj", wdet, D, D, eye)
        + ein("eq,eqaj,eqbi->eaibj", wdet, D, D))
    Ke[:, :, :n_sd, :, n_sd] -= ein("eq,qb,eqai->eaib", wdet, Nq, D)
    # continuity
    Ke[:, :, n_sd, :, :n_sd] += ein("eq,qa,eqbj->eabj", wdet, Nq, D)
    # GLS, velocity test rows
    Ke[:, :, :n_sd, :, :n_sd] += ein("e,eq,eqa,eqibj->eaibj",
                                           tau_m, wdet, adv, drdu)
    Ke[:, :, :n_sd, :, n_sd] += ein("e,eq,eqa,eqbi->eaib",
                                          tau_m, wdet, adv, D)
    if VV is not None:
        Ke[:, :, :n_sd, :, :n_sd] -= ein("e,eq,eqami,eqmbj->eaibj",
                                               tau_m / rho, wdet, VV, drdu)
        Ke[:, :, :n_sd, :, n_sd] -= ein("e,eq,eqami,eqbm->eaib",
                                              tau_m / rho, wdet, VV, D)
    if convective:  # linearization of u inside the GLS weight
        Ke[:, :, :n_sd, :, :n_sd] += ein("e,eq,qb,eqaj,eqi->eaibj",
                                               tau_m, wdet, Nq, D, r_q)
    # GLS, pressure test rows
    Ke[:, :, n_sd, :, :n_sd] += ein("e,eq,eqam,eqmbj->eabj",
                                          tau_m / rho, wdet, D, drdu)
    Ke[:, :, n_sd, :, n_sd] += ein("e,eq,eqam,eqbm->eab",
                                         tau_m / rho, wdet, D, D)
    # grad-div
    Ke[:, :, :n_sd, :, :n_sd] += rho * ein("e,eq,eqai,eqbj->eaibj",
                                                 tau_c, wdet, D, D)
    return Re, Ke


def _simplex_terms(Nq, weights, det, G, Bt, X, Ue, rho, mu, tau_m, tau_c,
                   body_force, convective, want_matrix):
    """Volume kernel of P1 space-time simplices for one chunk of elements.

    Nq: (nq, nen) shape values and weights: (nq,) of the reference rule;
    det: (E,) |detJ|; G: (E, nen, n_sd) spatial gradients and Bt: (E, nen)
    time derivatives, constant on each element; X: (E, nen, dim) node
    coordinates; Ue: (E, nen, ncomp).  Returns (Re, Ke) as
    ``_element_terms`` does on the same rule, up to rounding.

    u, p, the advective derivative adv_a = dN_a/dt + u.grad N_a and the
    strong residual r are linear in the shape functions (r up to the body
    force), and everything else is constant per element, so each term of
    the weak form is a per-element constant times one of a few sums over
    the quadrature points.
    """
    def swap(a):
        return np.swapaxes(a, 1, 2)

    E, nen, n_sd = G.shape
    nc = n_sd + 1
    Uv = Ue[:, :, :n_sd]
    Up = Ue[:, :, n_sd]
    w = det[:, None] * weights                           # (E, nq)
    W = w.sum(axis=1)                                    # element measure
    wN = weights[:, None] * Nq                           # (nq, nen)
    M1 = det[:, None] * wN.sum(axis=0)                   # sum w N_a

    gradu = np.einsum("eaj,eai->eij", G, Uv)             # du_i/dx_j
    dudt = np.einsum("ea,eai->ei", Bt, Uv)
    gradp = np.einsum("eaj,ea->ej", G, Up)
    divu = np.trace(gradu, axis1=1, axis2=2)
    u_q = Nq @ Uv                                        # (E, nq, n_sd)

    acc = np.repeat(dudt[:, None, :], len(weights), axis=1)
    if body_force is not None:
        xt = (Nq @ X).reshape(-1, X.shape[-1])
        acc -= np.asarray(body_force(xt[:, :n_sd], xt[:, n_sd])).reshape(
            acc.shape)
    if convective:
        acc += u_q @ swap(gradu)
        adv = Bt[:, None, :] + u_q @ swap(G)             # (E, nq, nen)
    else:
        adv = np.broadcast_to(Bt[:, None, :], w.shape + (nen,))
    r_q = rho * acc + gradp[:, None, :]
    wadv = w[:, :, None] * adv

    NAcc = det[:, None, None] * (wN.T @ acc)             # sum w N_a acc_i
    AR = swap(wadv) @ r_q                                # sum w adv_a r_i
    R1 = np.einsum("eq,eqi->ei", w, r_q)                 # sum w r_i

    Re = np.empty((E, nen, nc))
    # Galerkin transient + convection + body force, GLS momentum, stress
    # 2 mu eps(w):eps(u) - p div w, grad-div
    Re[:, :, :n_sd] = (rho * NAcc + tau_m[:, None, None] * AR
                       + (mu * W)[:, None, None] * (G @ (gradu + swap(gradu)))
                       + G * (rho * tau_c * W * divu
                              - np.einsum("ea,ea->e", M1, Up))[:, None, None])
    # continuity and the PSPG-like GLS test
    Re[:, :, n_sd] = (M1 * divu[:, None]
                      + (tau_m / rho)[:, None] * np.einsum("eai,ei->ea", G, R1))
    if not want_matrix:
        return Re, None

    # The matrix is built with the element axis last, so that every
    # broadcast product runs over the elements in its inner loop.
    def last(a):
        return np.ascontiguousarray(np.moveaxis(a, 0, -1))

    NAdv = last(det[:, None, None] * (wN.T @ adv))       # sum w N_a adv_b
    AA = last(swap(wadv) @ adv)                          # sum w adv_a adv_b
    A1 = last(wadv.sum(axis=1))                          # sum w adv_a
    G, M1, gradu = last(G), last(M1), last(gradu)
    GG = np.einsum("aie,bie->abe", G, G)
    Ke = np.empty((nen, nc, nen, nc, E))
    Kvv = Ke[:, :n_sd, :, :n_sd]
    # grad-div: G[a,i] G[b,j]
    np.multiply(G[:, :, None, None], rho * tau_c * W * G, out=Kvv)
    # stress mu G[a,j] G[b,i]; the linearization of u inside the GLS weight
    # adds G[a,j] sum w N_b r_i
    H = mu * W * G
    if convective:
        H = H + tau_m * (rho * last(NAcc) + M1[:, None] * last(gradp))
        # Galerkin and GLS linearization of u.grad u: C[a,b] gradu[i,j]
        NN = (wN.T @ Nq)[:, :, None] * det               # sum w N_a N_b
        C = rho * (NN + tau_m * np.swapaxes(NAdv, 0, 1))
        Kvv += C[:, None, :, None] * gradu[None, :, None, :]
    Kvv += G[:, None, None, :] * np.swapaxes(H, 0, 1)[None, :, :, None]
    # delta_ij: transient/convection (Galerkin and GLS) and stress
    diag = rho * NAdv + mu * W * GG + rho * tau_m * AA
    for i in range(n_sd):
        Kvv[:, i, :, i] += diag
    # velocity rows, pressure columns: -p div w and the GLS pressure gradient
    Ke[:, :n_sd, :, n_sd] = (tau_m * A1[:, None, None] * np.swapaxes(G, 0, 1)
                             - G[:, :, None] * M1)
    # pressure rows: continuity and the PSPG-like GLS test
    GLS_p = A1[None, :, None] * G[:, None]
    if convective:
        GLS_p += M1[None, :, None] * np.einsum("aje,jke->ake", G, gradu)[:, None]
    Ke[:, n_sd, :, :n_sd] = M1[:, None, None] * G + tau_m * GLS_p
    Ke[:, n_sd, :, n_sd] = tau_m / rho * W * GG
    return Re, np.moveaxis(Ke, -1, 0)


def _facet_simplex_rule(n_facet_dim: int):
    if n_facet_dim == 1:
        return interval_gauss(2)
    return simplex_quadrature(n_facet_dim, 2)


def _embedded_measure_factor(coords):
    """sqrt(det(E^T E)) for edge matrices of facets embedded in higher dim.

    coords: (n_f, m, d) facet node coordinates with m-1 <= d.
    """
    edges = coords[:, 1:, :] - coords[:, :1, :]
    gram = np.einsum("nid,njd->nij", edges, edges)
    return np.sqrt(np.abs(np.linalg.det(gram)))


def _add_local(R, dofs, Re):
    """Add local residuals ``Re`` at ``dofs`` (n, L) into ``R``."""
    R += np.bincount(dofs.ravel(), Re.ravel(), minlength=len(R))


class _CsrPlan:
    """Block pattern of a problem's matrix, built once from the elements.

    The pattern holds every node pair that shares an element, plus each
    node's diagonal pair, as a dense ncomp x ncomp block.  ``keys`` are the
    pairs' row * n_nodes + col, sorted, so the blocks in pair order form a
    block-row (BSR) matrix with sorted block columns, whose CSR form is the
    canonical CSR form of the summed element matrices.  ``pairs`` (n, m, m)
    are the int32 pair ids of the element node pairs.  ``dir_slots`` are the
    CSR entries of the Dirichlet rows, ``diag_slots`` their diagonal
    entries.
    """

    def __init__(self, elements, n_nodes, nc, dir_mask):
        start = time.perf_counter()
        self.n_nodes, self.nc = n_nodes, nc
        diag = np.arange(n_nodes)[:, None]
        self.keys = np.unique(np.concatenate([self._keys(elements).ravel(),
                                              self._keys(diag).ravel()]))
        # looked up in slices, so no int64 array of all element pairs is kept
        self.pairs = np.empty(elements.shape + elements.shape[1:], np.int32)
        for lo in range(0, len(elements), 1 << 16):
            sl = slice(lo, lo + (1 << 16))
            self.pairs[sl] = self.pair_ids(elements[sl])
        diag_pairs = self.pair_ids(diag).ravel()
        row, col = np.divmod(self.keys, n_nodes)
        bptr = np.searchsorted(row, np.arange(n_nodes + 1))
        self.nnz = nc * nc * len(row)
        index = np.int32 if self.nnz < 2 ** 31 else np.int64
        self.col, self.bptr = col.astype(index), bptr.astype(index)

        # CSR row node*nc + i holds nc entries of each block of its node
        deg = np.diff(bptr)
        indptr = np.append(nc * nc * bptr[:-1, None]
                           + nc * deg[:, None] * np.arange(nc), self.nnz)
        self.dir_slots = np.flatnonzero(np.repeat(dir_mask, np.diff(indptr)))
        dir_dofs = np.flatnonzero(dir_mask)
        node, i = np.divmod(dir_dofs, nc)
        self.diag_slots = (indptr[dir_dofs]
                           + nc * (diag_pairs[node] - bptr[node]) + i)
        self.build_s = time.perf_counter() - start

    def _keys(self, ids):
        """(n, m, m) keys row * n_nodes + col of the node pairs of ``ids``."""
        ids = ids.astype(np.int64)
        return ids[:, :, None] * self.n_nodes + ids[:, None, :]

    def pair_ids(self, ids):
        """(n, m, m) pair ids of the node pairs of ``ids`` (n, m), which must
        share an element or be diagonal."""
        return np.searchsorted(self.keys, self._keys(ids))

    def blocks(self, lo=0, hi=None):
        """Zero blocks of pairs ``lo`` to ``hi`` (default: the last)."""
        hi = len(self.keys) if hi is None else hi
        return np.zeros((hi - lo, self.nc, self.nc))

    def add(self, blocks, lo, pairs, K):
        """Add local matrices ``K`` (n, m, c, m, c) at ``pairs`` (n, m, m)
        into components < c of ``blocks``, whose first block is pair ``lo``.

        One ``np.bincount`` per component pair sums over (a, b, element) in
        that order, whatever the memory order of ``K``; its range is the
        pairs' own [min, max].
        """
        idx = pairs.transpose(1, 2, 0).astype(np.intp, order="C").ravel()
        first = int(idx.min())
        idx -= first
        n = int(idx.max()) + 1
        out = blocks[first - lo:first - lo + n]
        for i in range(K.shape[2]):
            for j in range(K.shape[4]):
                out[:, i, j] += np.bincount(
                    idx, K[:, :, i, :, j].transpose(1, 2, 0).ravel(),
                    minlength=n)

    def matrix(self, blocks):
        """The CSR matrix of ``blocks`` (all pairs); its arrays are new."""
        n = self.n_nodes * self.nc
        return sp.bsr_matrix((blocks, self.col, self.bptr),
                             shape=(n, n)).tocsr()


def _mantle_dirichlet_nodes(bcs: BCSpec, mesh: SpaceTimeMesh) -> dict:
    """{tag: nodes} of each Dirichlet tag's facets on the space-time mantle."""
    nodes = {}
    for tag in bcs.dirichlet:
        fidx = mesh.facets_with_tag(tag)
        fidx = fidx[np.isin(fidx, mesh.mantle_facets)]
        nodes[tag] = np.unique(mesh.boundary_facets[fidx])
    return nodes


def _constraints(bcs: BCSpec, nodes_by_tag: dict, node_coords, gauge):
    """Dirichlet mask and values over all dofs.

    The velocity of ``nodes_by_tag[tag]`` takes the tag's data at the
    space-time ``node_coords`` (time last); tags go in sorted order, so a
    node on two tags keeps the later one.  ``gauge`` is a (node, value)
    pair, or a list of them, pinning the pressure.
    """
    n_nodes, nc = node_coords.shape
    n_sd = nc - 1
    mask = np.zeros(n_nodes * nc, dtype=bool)
    values = np.zeros(n_nodes * nc)
    for tag in sorted(nodes_by_tag):
        nodes = nodes_by_tag[tag]
        x = node_coords[nodes]
        velocity = np.asarray(bcs.dirichlet[tag](x[:, :n_sd], x[:, n_sd]))
        for c in range(n_sd):
            dofs = nodes * nc + c
            mask[dofs] = True
            values[dofs] = velocity[:, c]
    if gauge is not None:
        if isinstance(gauge, tuple):
            gauge = [gauge]
        for node, value in gauge:
            dof = node * nc + n_sd
            mask[dof] = True
            values[dof] = value
    return mask, values


class _ProblemBase:
    """The assembly driver of both element families.

    A family's constructor sets ``n_sd`` and ``n_nodes`` and calls
    ``_init_common`` and ``_init_constraints``; it supplies the geometry
    named in the module docstring.
    """

    n_sd: int
    n_nodes: int

    @property
    def ncomp(self) -> int:
        return self.n_sd + 1

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.ncomp

    def _init_common(self, material, bcs, body_force, convective, jump_data,
                     C_I, elements, tag_names):
        for tag in list(bcs.dirichlet) + list(bcs.neumann):
            if tag not in tag_names:
                raise ConfigurationError(f"unknown boundary tag {tag!r}")
        self.material = material
        self.bcs = bcs
        self.body_force = body_force
        self.convective = convective
        self.jump_data = jump_data  # previous nodal trace, or None -> IC
        self.C_I = C_I
        self.elements = elements
        nc = self.ncomp
        self.edof = (elements[:, :, None] * nc
                     + np.arange(nc)[None, None, :]).reshape(len(elements), -1)

    def _init_constraints(self, nodes_by_tag, node_coords, gauge):
        self.dir_mask, self.dir_values = _constraints(self.bcs, nodes_by_tag,
                                                      node_coords, gauge)
        self.dir_dofs = np.flatnonzero(self.dir_mask)

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
            u_bary = values[self.elements, :n_sd].mean(axis=1)
        else:
            # Stokes limit: tau must not depend on the iterate so the
            # system stays exactly linear
            u_bary = np.zeros((len(self.elements), n_sd))
        Ginv, g, GG, gg = self._metric
        tau_m, tau_c = tau_parameters(u_bary, self.material.nu, Ginv, GG,
                                      self.C_I, gg)
        return StabilizationContext(Ginv, g, tau_m, tau_c, self.C_I)

    # interface used by the Newton solver
    def system(self, values, tau_override=None, want_matrix=True):
        """(LinearSystem or None, rhs, |rhs|) of the Newton step at ``values``.

        ``tau_override`` supplies frozen stabilization parameters; without it
        they are evaluated at ``values``.
        """
        values = np.asarray(values, dtype=float).reshape(self.n_nodes,
                                                         self.ncomp)
        n_el, nloc = self.edof.shape
        chunk = max(1, int(_CHUNK_ENTRIES / (nloc * nloc)))
        n_chunks = -(-n_el // chunk)
        n_lanes = min(_LANES, n_chunks)
        new_plan = want_matrix and "_csr_plan" not in vars(self)
        # a first plan of two lanes is built on a lane thread while this one
        # computes tau and the geometry
        future = (_lane_pool().submit(lambda: self._csr_plan)
                  if new_plan and n_lanes > 1 else None)
        stab = tau_override or self.stabilization(values)
        # cached geometry is filled here, before the lanes read it
        self._volume_geometry(slice(0, 0))
        plan = None
        if future is not None:
            plan = future.result()
        elif want_matrix:
            plan = self._csr_plan
        if new_plan:
            logger.info("assembly plan pairs=%d nnz=%d lanes=%d threads=%d "
                        "chunks=%d plan_s=%.3f", len(plan.keys), plan.nnz,
                        n_lanes, _pool._max_workers if n_lanes > 1 else 0,
                        n_chunks, plan.build_s)

        R, blocks = self._volume(values, stab, plan, chunk, n_lanes)
        self._add_jump(values, R, blocks)
        self._add_traction(R)

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

    def _volume(self, values, stab, plan, chunk, n_lanes):
        """(R, blocks) of the volume terms: the lanes' sums, added in lane
        order; ``blocks`` is None without a ``plan``."""
        n_el = len(self.elements)

        def lane(k):
            return self._lane(values, stab, plan, chunk, k == 0,
                              n_el * k // n_lanes, n_el * (k + 1) // n_lanes)

        lanes = (map(lane, range(n_lanes)) if n_lanes == 1
                 else _lane_pool().map(lane, range(n_lanes)))
        R, _, blocks = next(lanes)
        for R_k, lo, blocks_k in lanes:
            R += R_k
            if plan is not None:
                blocks[lo:lo + len(blocks_k)] += blocks_k
        return R, blocks

    def _lane(self, values, stab, plan, chunk, full, start, stop):
        """(R, lo, blocks) of elements ``start`` to ``stop``, in chunks.

        ``blocks`` covers all pairs if ``full``, else only this lane's, from
        pair ``lo``; it is None without a ``plan``.
        """
        rho, mu = self.material.rho, self.material.mu
        R = np.zeros(self.n_dofs)
        lo, blocks = 0, None
        if plan is not None:
            pairs = plan.pairs[start:stop]
            lo, hi = ((0, None) if full
                      else (int(pairs.min()), int(pairs.max()) + 1))
            blocks = plan.blocks(lo, hi)
        for first in range(start, stop, chunk):
            sl = slice(first, min(first + chunk, stop))
            Re, Ke = self._kernel(*self._volume_geometry(sl),
                                  values[self.elements[sl]], rho, mu,
                                  stab.tau_mom[sl], stab.tau_cont[sl],
                                  self.body_force, self.convective,
                                  plan is not None)
            _add_local(R, self.edof[sl], Re)
            if plan is not None:
                plan.add(blocks, lo, plan.pairs[sl], Ke)
        return R, lo, blocks

    def residual_norm(self, values, tau_override=None) -> float:
        return self.system(values, tau_override=tau_override,
                           want_matrix=False)[2]

    @cached_property
    def _csr_plan(self) -> _CsrPlan:
        """Built on the first matrix request, never by the constructor or a
        residual-only call."""
        return _CsrPlan(self.elements, self.n_nodes, self.ncomp, self.dir_mask)

    def _add_jump(self, values, R, blocks):
        """rho (u+ - u-) . w on the bottom cap, u- the previous nodal trace
        ``jump_data`` or else the initial condition at the quadrature points.
        Its matrix goes into the plan's ``blocks`` unless that is None."""
        n_sd, nc = self.n_sd, self.ncomp
        if self.jump_data is None and self.bcs.initial is None:
            raise MissingPreviousState(
                "jump term needs an initial condition or previous trace")
        ids, coords = self._bottom_cap()
        nf = len(ids)
        J = np.swapaxes(coords[:, 1:, :] - coords[:, :1, :], 1, 2)
        det = np.abs(np.linalg.det(J))
        rule = simplex_quadrature(n_sd, 2)
        Nf = basis_eval(rule.points, n_sd)               # (nq, n_sd+1)
        wdet = rule.weights[None, :] * det[:, None]      # (nf, nq)
        rho = self.material.rho

        u_plus = values[ids, :n_sd]                      # (nf, n_sd+1, n_sd)
        # facet mass matrix via the degree-2 rule
        Mq = np.einsum("fq,qa,qb->fab", wdet, Nf, Nf)
        Rloc = rho * np.einsum("fab,fbi->fai", Mq, u_plus)
        if self.jump_data is not None:
            u_minus = np.asarray(self.jump_data)[ids]
            Rloc -= rho * np.einsum("fab,fbi->fai", Mq, u_minus)
        else:
            x_q = np.einsum("qa,fad->fqd", Nf, coords)
            u0 = np.asarray(self.bcs.initial(x_q.reshape(-1, n_sd)))
            u0 = u0.reshape(nf, len(rule.weights), n_sd)
            Rloc -= rho * np.einsum("fq,qa,fqi->fai", wdet, Nf, u0)

        vdofs = ids[:, :, None] * nc + np.arange(n_sd)[None, None, :]
        _add_local(R, vdofs.reshape(nf, -1), Rloc)
        if blocks is not None:
            # bottom-cap node pairs are element node pairs in both families
            plan = self._csr_plan
            plan.add(blocks, 0, plan.pair_ids(ids),
                     rho * np.einsum("fab,ij->faibj", Mq, np.eye(n_sd)))


def _simplex_geometry(mesh: SpaceTimeMesh, Nq, weights, sl):
    """(Nq, weights, |detJ|, G, Bt, X) of the space-time simplices ``sl``,
    the geometry ``_simplex_terms`` takes."""
    grads = mesh.gradients[sl]
    return (Nq, weights, np.abs(mesh.jacobian_dets[sl]),
            grads[:, :, :mesh.n_sd], grads[:, :, mesh.n_sd],
            mesh.element_coords[sl])


class SpaceTimeProblem(_ProblemBase):
    """Stabilized weak form on a simplex space-time mesh (UST mode)."""

    _kernel = staticmethod(_simplex_terms)

    def __init__(self, mesh: SpaceTimeMesh, material: MaterialParams,
                 bcs: BCSpec, body_force=None, convective=True,
                 gauge=None, jump_data=None, C_I: float = 1.0):
        self.mesh = mesh
        self.n_sd = mesh.n_sd
        self.n_nodes = mesh.n_nodes
        self._init_common(material, bcs, body_force, convective, jump_data,
                          C_I, mesh.elements, mesh.tag_names)
        # node-time level of every dof, the partition of the block
        # Gauss-Seidel preconditioner
        self.dof_levels = np.repeat(time_levels(mesh.times)[0], self.ncomp)

        self.rule = simplex_quadrature(mesh.dim, 2)
        self.Nq = basis_eval(self.rule.points, mesh.dim)
        self._init_constraints(_mantle_dirichlet_nodes(bcs, mesh), mesh.nodes,
                               gauge)

    def _initial_velocity_at_nodes(self):
        if self.bcs.initial is None:
            return None
        return np.asarray(self.bcs.initial(self.mesh.spatial_coords))

    def _volume_geometry(self, sl):
        return _simplex_geometry(self.mesh, self.Nq, self.rule.weights, sl)

    def _bottom_cap(self):
        mesh = self.mesh
        ids = mesh.boundary_facets[mesh.bottom_facets]
        return ids, mesh.nodes[ids][:, :, : self.n_sd]

    @cached_property
    def _metric(self):
        return mesh_metric(self.mesh)

    def _add_traction(self, R):
        mesh = self.mesh
        n_sd, nc = self.n_sd, self.ncomp
        for tag, fn in self.bcs.neumann.items():
            fidx = mesh.facets_with_tag(tag)
            fidx = fidx[np.isin(fidx, mesh.mantle_facets)]
            if len(fidx) == 0:
                continue
            ids = mesh.boundary_facets[fidx]
            coords = mesh.nodes[ids]                     # (nf, m, dim)
            rule = _facet_simplex_rule(mesh.dim - 1)
            Nf = basis_eval(rule.points, mesh.dim - 1)
            area = _embedded_measure_factor(coords)
            # reference weights sum to 1/(dim-1)!; area factor rescales them
            wdet = rule.weights[None, :] * area[:, None]
            x_q = np.einsum("qa,fad->fqd", Nf, coords)
            h = np.asarray(fn(x_q[..., :n_sd].reshape(-1, n_sd),
                              x_q[..., n_sd].reshape(-1)))
            h = h.reshape(len(ids), -1, n_sd)
            Rloc = -np.einsum("fq,qa,fqi->fai", wdet, Nf, h)
            vdofs = ids[:, :, None] * nc + np.arange(n_sd)[None, None, :]
            _add_local(R, vdofs.reshape(len(ids), -1), Rloc)


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

    _kernel = staticmethod(_element_terms)

    def __init__(self, slab: PrismSlab, material: MaterialParams, bcs: BCSpec,
                 body_force=None, convective=True, gauge=None,
                 jump_data=None, C_I: float = 1.0):
        self.slab = slab
        self.n_sd = slab.n_sd
        self.n_nodes = slab.n_nodes
        spatial = slab.spatial
        n_sp = spatial.n_nodes
        self._init_common(material, bcs, body_force, convective, jump_data,
                          C_I, np.hstack([spatial.elements,
                                          spatial.elements + n_sp]),
                          spatial.tag_names)

        self.rule = prism_quadrature(self.n_sd, 2)
        self.Nq = prism_shape_functions(self.rule.points[:, :self.n_sd],
                                        self.rule.points[:, self.n_sd])

        nodes = {}
        for tag in bcs.dirichlet:
            snodes = np.unique(spatial.boundary_facets[spatial.facets_with_tag(tag)])
            nodes[tag] = np.concatenate([snodes, snodes + n_sp])
        self._init_constraints(nodes, slab.node_coords(), gauge)

    def _initial_velocity_at_nodes(self):
        if self.jump_data is not None:
            prev = np.asarray(self.jump_data)
            return np.vstack([prev, prev])
        if self.bcs.initial is None:
            return None
        xt = self.slab.node_coords()
        return np.asarray(self.bcs.initial(xt[:, : self.n_sd]))

    def _geometry(self):
        """Per-qpoint geometry arrays for all prisms (cached)."""
        if hasattr(self, "_geom"):
            return self._geom
        slab = self.slab
        n_sd = self.n_sd
        els = slab.spatial.elements
        cb = slab.coords_bottom[els]
        ct = slab.coords_top[els]
        nq = len(self.rule.weights)
        E = len(els)
        nen = 2 * (n_sd + 1)

        x_q = np.empty((E, nq, n_sd + 1))
        detJ = np.empty((E, nq))
        grads = np.empty((E, nq, nen, n_sd + 1))
        VV = np.empty((E, nq, nen, n_sd, n_sd))
        Gs = reference_gradients(n_sd)
        # map curvature: d2x_m / dxi_d dtheta, constant per element
        T = np.einsum("ad,nam->nmd", Gs, ct - cb)
        mu = self.material.mu

        for q, (pt, w) in enumerate(zip(self.rule.points, self.rule.weights)):
            xi, th = pt[:n_sd], pt[n_sd]
            x, J, dJ, g = prism_geometry(cb, ct, slab.t_bottom, slab.dt, xi, th)
            x_q[:, q] = x
            detJ[:, q] = np.abs(dJ)
            grads[:, q] = g
            Jinv = np.linalg.inv(J)
            # reference Hessian entries (d, theta) of the shape functions
            Ha = np.concatenate([-Gs, Gs], axis=0)            # (nen, n_sd)
            inner = Ha[None] - np.einsum("nam,nmd->nad", g[:, :, :n_sd], T)
            Ji_sp = Jinv[:, :n_sd, :n_sd]   # dxi_d / dx_i (spatial cols)
            Ji_th = Jinv[:, n_sd, :n_sd]    # dtheta / dx_i
            S = (np.einsum("nad,ndi,nj->naij", inner, Ji_sp, Ji_th)
                 + np.einsum("nad,ndj,ni->naij", inner, Ji_sp, Ji_th))
            lap = np.einsum("naii->na", S)
            VV[:, q] = mu * (np.einsum("na,ij->naij", lap, np.eye(n_sd)) + S)
        self._geom = (x_q, detJ, grads, VV)
        return self._geom

    def _volume_geometry(self, sl):
        x_q, detJ, grads, VV = self._geometry()
        n_sd = self.n_sd
        wdet = self.rule.weights[None, :] * detJ[sl]
        return (self.Nq, wdet, grads[sl, :, :, :n_sd], grads[sl, :, :, n_sd],
                VV[sl], x_q[sl])

    def _bottom_cap(self):
        ids = self.slab.spatial.elements  # bottom-level node ids == spatial ids
        return ids, self.slab.coords_bottom[ids]

    @cached_property
    def _metric(self):
        """Metric at the element center; spatial block composed with the
        regular-simplex map, temporal coordinate kept as theta."""
        slab = self.slab
        n_sd = self.n_sd
        els = slab.spatial.elements
        cb = slab.coords_bottom[els]
        ct = slab.coords_top[els]
        center = np.full(n_sd, 1.0 / (n_sd + 1))
        _, J, _, _ = prism_geometry(cb, ct, slab.t_bottom, slab.dt, center, 0.5)
        Bmat = np.zeros((n_sd + 1, n_sd + 1))
        Bmat[:n_sd, :n_sd] = regular_simplex_map(n_sd)
        Bmat[n_sd, n_sd] = 1.0
        return metric_terms(np.einsum("ij,njk->nik", Bmat, np.linalg.inv(J)))

    def _add_traction(self, R):
        slab = self.slab
        n_sd, nc = self.n_sd, self.ncomp
        n_sp = slab.spatial.n_nodes
        for tag, fn in self.bcs.neumann.items():
            fidx = slab.spatial.facets_with_tag(tag)
            if len(fidx) == 0:
                continue
            sids = slab.spatial.boundary_facets[fidx]     # (nf, n_sd)
            ids = np.hstack([sids, sids + n_sp])          # face nodes b then t
            cb = slab.coords_bottom[sids]
            ct = slab.coords_top[sids]
            m = sids.shape[1]                             # spatial facet nodes
            srule = _facet_simplex_rule(n_sd - 1)
            trule = interval_gauss(2)
            Gs = reference_gradients(n_sd - 1)            # (m, n_sd-1)
            Rloc = np.zeros((len(ids), 2 * m, n_sd))
            for ps, ws in zip(srule.points, srule.weights):
                Ns = basis_eval(ps, n_sd - 1)
                for pt, wt in zip(trule.points[:, 0], trule.weights):
                    blend = (1.0 - pt) * cb + pt * ct     # (nf, m, n_sd)
                    x = np.einsum("a,fad->fd", Ns, blend)
                    t = slab.t_bottom + pt * slab.dt
                    # tangents: spatial reference directions and theta
                    tang = np.empty((len(ids), n_sd, n_sd + 1))
                    tang[:, : n_sd - 1, :n_sd] = np.einsum("ad,fae->fde",
                                                           Gs, blend)
                    tang[:, : n_sd - 1, n_sd] = 0.0
                    tang[:, n_sd - 1, :n_sd] = np.einsum("a,fad->fd",
                                                         Ns, ct - cb)
                    tang[:, n_sd - 1, n_sd] = slab.dt
                    gram = np.einsum("fid,fjd->fij", tang, tang)
                    area = np.sqrt(np.abs(np.linalg.det(gram)))
                    h = np.asarray(fn(x, np.full(len(ids), t)))
                    Nface = np.concatenate([Ns * (1.0 - pt), Ns * pt])
                    Rloc -= (ws * wt) * np.einsum("f,a,fi->fai", area, Nface, h)
            vdofs = ids[:, :, None] * nc + np.arange(n_sd)[None, None, :]
            _add_local(R, vdofs.reshape(len(ids), -1), Rloc)


# -- standalone operation wrappers -------------------------------------------

def _one_element(mesh: SpaceTimeMesh, e: int, field: SolutionField,
                 material: MaterialParams, body_force,
                 stab: StabilizationContext, convective, want_matrix):
    rule = simplex_quadrature(mesh.dim, 2)
    Nq = basis_eval(rule.points, mesh.dim)
    sl = slice(e, e + 1)
    return _simplex_terms(*_simplex_geometry(mesh, Nq, rule.weights, sl),
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
    problem._add_traction(R)
    return R


def dirichlet_values(bcs: BCSpec, mesh: SpaceTimeMesh):
    """(dofs, values) of the strong velocity constraints on the mantle."""
    mask, values = _constraints(bcs, _mantle_dirichlet_nodes(bcs, mesh),
                                mesh.nodes, None)
    dofs = np.flatnonzero(mask)
    return dofs, values[dofs]


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
