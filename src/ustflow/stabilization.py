"""Element metric tensor and GLS stabilization parameters.

The per-element reference frame is built in two stages: physical
coordinates are mapped onto the unit right simplex through the element
Jacobian, then through a fixed affine map onto the regular simplex of unit
measure.  With A = d(xi_regular)/d(x), the metric is

    Ginv = A^T A,

which is invariant under node renumbering: a renumbering composes A with
an orthogonal symmetry of the regular simplex, which cancels in A^T A.  The
g vector collects column sums of A over all reference coordinates,
restricted to the spatial physical components; since no column-sum
expression is renumbering-invariant by itself, the metric pipeline always
evaluates A with the element nodes in canonical order.  Both hold up to
rounding, not bit for bit: the canonical order is found from coordinates
relative to the element's vertex 0, and A from P1 gradients inverted in
the mesh's node order, both of which a renumbering changes in the last
bits.  ``test_node_permutation_invariance_pentatope`` and criterion 2 of
the acceptance suite hold Ginv, g and tau to 1e-12 of their maxima under
every renumbering.

With the vertices in canonical order sigma, the inverse of the canonical
Jacobian has as its rows the P1 gradients of vertices sigma(1..d), so A is
the regular-simplex map times those rows of the P1 gradients.  A
is evaluated on one code path, in the element slices of
``mesh.element_slices`` in an element-last layout, where every reduction
runs over whole slices.  The per-Jacobian helpers (``reference_derivative``,
``metric_contravariant``, ``g_vector``) build the simplices {0, columns of
J} as a mesh and run that same path, with the mesh's degeneracy bound.

Stabilization parameters, with the constant C_I = 1:

    tau_MOM  = (uhat . Ginv uhat + C_I nu^2 Ginv:Ginv)^(-1/2),
               uhat = (u, 1) the space-time advective vector,
    tau_CONT = (tau_MOM * g.g)^(-1).

On P1 simplices the advective form needs no stored metric.  The regular
simplex's edges from vertex 0 have the Gram matrix M^T M = (d^2/2)(I +
1 1^T), d its edge length, and the dim+1 P1 gradients sum to zero, so

    uhat . Ginv uhat = (d^2/2) sum_a (grad N_a . uhat)^2

over all vertices a, in any order (``simplex_advective_form``).  A
simplex problem therefore caches only Ginv:Ginv and g.g, (n_el,) each
(``metric_norms``), and forms the advective form from P1 gradients at
each evaluation of tau; ``mesh_metric`` still returns the whole metric.
A prism slab keeps its small per-slab metric and takes the advective form
from its Ginv (``advective_form``).

With the vertices in the same order, both norms are invariant under a
rigid rotation of an element, and the advective form is that of the
rotated-back velocity.  On a mesh that is a stack of rotated levels
(``SpaceTimeMesh.level_stack``) a problem therefore computes the norms of
level 0 alone, from level 0's gradients, and repeats them for every level,
so every level takes level 0's vertex order; the advective form takes
level 0's gradients and each element's velocity turned into level 0's
frame.  The whole-mesh canonical order agrees with level 0's but where
its first key ties exactly, which rounding then breaks level by level;
g.g follows the order there, Ginv:Ginv does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteTau, ZeroDenominator
from .mesh import (SimplexMesh, basis_eval, cofactor_det, element_slices,
                   reference_gradients)

C_I = 1.0  # inverse-estimate constant of the viscous term in tau_MOM


@lru_cache(maxsize=None)
def regular_simplex_map(dim: int) -> np.ndarray:
    """Matrix whose columns are edge vectors of a regular simplex of measure 1.

    Maps the unit right simplex onto that regular simplex:
    xi_regular = M @ xi_right (vertex 0 pinned at the origin).
    """
    half = _half_edge2(dim)
    gram = np.full((dim, dim), half)
    np.fill_diagonal(gram, 2.0 * half)
    M = np.linalg.cholesky(gram).T  # upper triangular, M^T M = gram
    M.setflags(write=False)
    return M


def _half_edge2(dim: int) -> float:
    """d^2 / 2 for the edge length d of the regular simplex of measure 1:
    the Gram matrix of its edges from vertex 0 is (d^2 / 2)(I + 1 1^T)."""
    return (math.factorial(dim) / math.sqrt(dim + 1.0)) ** (2.0 / dim)


@dataclass
class StabilizationContext:
    """Stabilization parameters per element."""
    tau_mom: np.ndarray   # (n_el,)
    tau_cont: np.ndarray  # (n_el,)


def canonical_vertex_order(V: np.ndarray) -> np.ndarray:
    """Canonical vertex order per element, shape (n_el, n_vert).

    Primary key: squared distance to the element barycenter (rotation and
    translation stable for elements without symmetry ties); tie-break:
    coordinates relative to the componentwise minimum, lexicographically.
    All keys are evaluated from a pre-sorted vertex sequence, so they are
    bitwise identical under any renumbering of the same vertex set.
    """
    return _canonical_order(_last(V)).T


def _last(a: np.ndarray) -> np.ndarray:
    """Element-last copy (..., n) of an array (n, ...)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _canonical_order(V: np.ndarray) -> np.ndarray:
    """:func:`canonical_vertex_order` of element-last vertices V
    (n_vert, dim, n), element-last (n_vert, n)."""
    rel = V - V.min(axis=0)
    pre = np.lexsort(rel[:, ::-1].transpose(1, 0, 2), axis=0)
    rel_sorted = np.take_along_axis(rel, pre[:, None, :], axis=0)
    d2_sorted = ((rel_sorted - rel_sorted.mean(axis=0)) ** 2).sum(axis=1)
    # ties in d2 keep the pre-sort's coordinate order, the tie-break
    sub = np.argsort(d2_sorted, axis=0, kind="stable")
    return np.take_along_axis(pre, sub, axis=0)


def _reference_derivative(mesh: SimplexMesh, sl: slice,
                          gradients: np.ndarray) -> np.ndarray:
    """A of the elements ``sl`` of ``mesh``, element-last (dim, dim, n),
    from their P1 ``gradients[sl]``.

    The canonical order is found from the element coordinates relative to
    vertex 0; with the vertices in canonical order sigma, the inverse
    canonical Jacobian is rows sigma(1..dim) of the gradients.
    """
    X = mesh.nodes[mesh.elements[:len(gradients)][sl]]
    order = _canonical_order(_last(X - X[:, :1]))
    inv_jc = np.take_along_axis(_last(gradients[sl]), order[1:, None, :],
                                axis=0)
    return np.tensordot(regular_simplex_map(mesh.dim), inv_jc, 1)


def reference_derivative(J: np.ndarray) -> np.ndarray:
    """A = d(xi_regular)/dx for Jacobian(s) J; accepts (d, d) or (n, d, d).

    The simplices {0, columns of J} go through the mesh path of
    :func:`mesh_metric`, so a mesh's own Jacobians give its A bit for bit
    (on a level stack, level 0's: the later levels take level 0's
    determinants, see ``mesh``).
    """
    J = np.asarray(J, dtype=float)
    single = J.ndim == 2
    if single:
        J = J[None]
    n, dim, _ = J.shape
    V = np.concatenate([np.zeros((n, 1, dim)), np.swapaxes(J, 1, 2)], axis=1)
    elements = np.arange(n * (dim + 1)).reshape(n, dim + 1)
    mesh = SimplexMesh(V.reshape(-1, dim), elements, np.zeros((0, dim), int),
                       np.zeros(0, int), [], fix_orientation=False)
    A = np.concatenate([np.moveaxis(
        _reference_derivative(mesh, sl, mesh.gradients), -1, 0)
        for sl in element_slices(n)])
    return A[0] if single else A


def metric_contravariant(J: np.ndarray) -> np.ndarray:
    """Metric tensor Ginv = A^T A from element Jacobian(s)."""
    return _per_jacobian(J, 0)


def g_vector(J: np.ndarray) -> np.ndarray:
    """Column sums of A over all reference coordinates, spatial components
    only (time is the last coordinate)."""
    return _per_jacobian(J, 1)


def _per_jacobian(J, k):
    """Term k of :func:`metric_terms` for Jacobian(s) J, (d, d) or (n, d, d)."""
    A = reference_derivative(J)
    out = metric_terms(A.reshape((-1,) + A.shape[-2:]))[k]
    return out[0] if A.ndim == 2 else out


def tau_parameters(uGu, nu: float, GG: np.ndarray, gg: np.ndarray = None):
    """tau_MOM and, when ``gg`` is given, tau_CONT per element.

    The one evaluation of the formulas in the module docstring, with their
    checks.  ``uGu`` (n,) is the advective form uhat . Ginv uhat at the
    velocity of each element's barycenter (:func:`advective_form`, or
    :func:`simplex_advective_form` on P1 simplices), ``GG`` = Ginv:Ginv
    and ``gg`` = g.g.  Returns (tau_mom, tau_cont), tau_cont None without
    ``gg``.
    """
    val = uGu + C_I * nu * nu * GG
    if (val <= 0.0).any() or not np.isfinite(val).all():
        raise NonFiniteTau("tau_MOM argument vanished or is non-finite")
    tau_mom = val ** -0.5
    return tau_mom, None if gg is None else _tau_cont(tau_mom, gg)


def advective_form(u, Ginv: np.ndarray) -> np.ndarray:
    """uhat . Ginv uhat per element, uhat = (u, 1), for velocities ``u``
    (n, dim-1) and metrics ``Ginv`` (n, dim, dim)."""
    n, dim = len(Ginv), Ginv.shape[-1]
    uhat = np.ones((n, dim))
    uhat[:, : dim - 1] = u
    return np.einsum("ni,nij,nj->n", uhat, Ginv, uhat)


def simplex_advective_form(gradients: np.ndarray, u) -> np.ndarray:
    """uhat . Ginv uhat per element of a P1 simplex mesh, uhat = (u, 1),
    from P1 gradients (n_per, dim+1, dim) by the identity in the module
    docstring: Ginv = R^T M^T M R for the gradient rows R of vertices
    1..dim in canonical order, and 1^T R is minus the gradient of vertex
    0.  It agrees with :func:`mesh_metric`'s Ginv to rounding.

    ``u`` (n, dim-1) may cover several levels, n a multiple of n_per:
    element e takes the gradients of element e % n_per, and its velocity
    must then be given in that element's frame."""
    n_per, _, dim = gradients.shape
    half = _half_edge2(dim)
    out = np.empty(len(u))
    for lo in range(0, len(u), max(n_per, 1)):
        for sl in element_slices(n_per):
            G = gradients[sl]
            e = slice(lo + sl.start, lo + sl.start + len(G))
            s = np.einsum("eak,ek->ea", G[:, :, :-1], u[e]) + G[:, :, -1]
            out[e] = half * np.einsum("ea,ea->e", s, s)
    return out


def _tau_cont(tau_mom, gg):
    denom = tau_mom * gg
    if (denom == 0.0).any() or not np.isfinite(denom).all():
        raise ZeroDenominator("tau_MOM * (g.g) vanished")
    return 1.0 / denom


def tau_momentum(u_elem, nu: float, Ginv: np.ndarray):
    """Momentum stabilization parameter from the space-time metric.

    ``u_elem`` holds the velocity at the element barycenter; the advective
    space-time vector is (u, 1), so the temporal direction always enters.
    Accepts a single element or stacked arrays.
    """
    u = np.atleast_2d(np.asarray(u_elem, dtype=float))
    G = np.asarray(Ginv, dtype=float)
    single = G.ndim == 2
    if single:
        G = G[None]
    GG = np.einsum("nij,nij->n", G, G)
    tau, _ = tau_parameters(advective_form(u, G), nu, GG)
    return float(tau[0]) if single else tau


def tau_continuity(tau_mom, g):
    """Continuity stabilization parameter 1 / (tau_MOM * g.g)."""
    g = np.atleast_2d(np.asarray(g, dtype=float))
    tau = np.atleast_1d(np.asarray(tau_mom, dtype=float))
    out = _tau_cont(tau, (g * g).sum(axis=1))
    return float(out[0]) if out.shape == (1,) else out


def metric_terms(A: np.ndarray):
    """(Ginv, g, Ginv:Ginv, g.g) from reference derivatives A (n, dim, dim),
    time the last of the dim coordinates."""
    Ginv, g = (np.ascontiguousarray(np.moveaxis(t, -1, 0))
               for t in _metric_and_g(_last(A)))
    return _with_norms(Ginv, g)


def _metric_and_g(A: np.ndarray):
    """(Ginv, g) of element-last A (dim, dim, n), element-last."""
    return np.einsum("kin,kjn->ijn", A, A), A.sum(axis=0)[:-1]


def _with_norms(Ginv: np.ndarray, g: np.ndarray):
    """(Ginv, g, Ginv:Ginv, g.g) of Ginv (n, dim, dim) and g (n, dim-1)."""
    return Ginv, g, np.einsum("nij,nij->n", Ginv, Ginv), (g * g).sum(axis=1)


def _metric_slices(mesh: SimplexMesh, gradients: np.ndarray):
    """(sl, Ginv, g) of each element slice ``sl`` of the first
    len(gradients) elements of ``mesh``, from their P1 ``gradients``,
    element-first and contiguous."""
    for sl in element_slices(len(gradients)):
        Ginv, g = _metric_and_g(_reference_derivative(mesh, sl, gradients))
        yield (sl, np.ascontiguousarray(np.moveaxis(Ginv, -1, 0)),
               np.ascontiguousarray(g.T))


def mesh_metric(mesh: SimplexMesh):
    """(Ginv, g, Ginv:Ginv, g.g) for all elements, canonical node order.

    A comes from the cached ``mesh.gradients`` (see the module docstring),
    which raise ``DegenerateElement`` on a degenerate mesh.
    """
    n, dim = mesh.n_elements, mesh.dim
    Ginv, g = np.empty((n, dim, dim)), np.empty((n, dim - 1))
    for sl, Ginv_s, g_s in _metric_slices(mesh, mesh.gradients):
        Ginv[sl], g[sl] = Ginv_s, g_s
    return _with_norms(Ginv, g)


def metric_norms(mesh: SimplexMesh, gradients: np.ndarray = None):
    """(Ginv:Ginv, g.g), (n,) each, of the first n elements of ``mesh`` from
    their P1 ``gradients`` (n, dim+1, dim), by default all elements and
    ``mesh.gradients``: the terms of tau besides the advective form,
    formed one element slice at a time without a stored metric, with the
    bytes of :func:`mesh_metric`'s.  A problem on a level stack passes
    level 0's gradients (see the module docstring)."""
    if gradients is None:
        gradients = mesh.gradients
    GG, gg = np.empty(len(gradients)), np.empty(len(gradients))
    for sl, Ginv_s, g_s in _metric_slices(mesh, gradients):
        GG[sl], gg[sl] = _with_norms(Ginv_s, g_s)[2:]
    return GG, gg


# -- tensor-product (prism) elements ----------------------------------------

def prism_shape_functions(xi_spatial, theta):
    """Values of the 2(n_sd+1) prism shape functions at (xi, theta).

    Ordering: bottom nodes first, then top nodes, each block in spatial
    node order.  Returns an array (..., 2*(n_sd+1)).
    """
    xi = np.asarray(xi_spatial, dtype=float)
    th = np.asarray(theta, dtype=float)
    n_sd = xi.shape[-1]
    Ns = basis_eval(xi, n_sd)
    out = np.empty(np.broadcast(Ns[..., 0], th).shape + (2 * (n_sd + 1),))
    out[..., : n_sd + 1] = Ns * (1.0 - th)[..., None]
    out[..., n_sd + 1:] = Ns * th[..., None]
    return out


def prism_geometry(coords_bottom, coords_top, t_bottom, dt, xi_spatial, theta):
    """Isoparametric data of twisted prisms at reference points.

    Parameters are (n_el, n_sd+1, n_sd) bottom/top node positions, the
    bottom time level, the temporal thickness, and reference points
    ``xi_spatial`` (..., n_sd) and ``theta`` (...).  Returns (x, Jinv,
    detJ, grads), each with the point axes after the element axis: ``x``
    (n_el, ..., n_sd+1) space-time coordinates, ``Jinv`` the inverse of the
    square space-time Jacobian J, ``detJ`` its determinant and ``grads``
    (n_el, ..., 2(n_sd+1), n_sd+1) the space-time gradients of the shape
    functions.  As t = t_bottom + theta*dt, the spatial part of Jinv's last
    row, d(theta)/dx, is exactly zero.
    """
    cb = np.asarray(coords_bottom, dtype=float)
    ct = np.asarray(coords_top, dtype=float)
    n_el, _, n_sd = cb.shape
    xi = np.asarray(xi_spatial, dtype=float)
    th = np.asarray(theta, dtype=float)
    Ns = basis_eval(xi, n_sd)                       # (..., n_sd+1)
    Gs = reference_gradients(n_sd)                  # (n_sd+1, n_sd)

    cb, ct = (c.reshape((n_el,) + (1,) * th.ndim + c.shape[1:])
              for c in (cb, ct))
    # (n_el, ..., n_sd+1, n_sd)
    blend = (1.0 - th)[..., None, None] * cb + th[..., None, None] * ct
    pts = blend.shape[:-2]                          # (n_el, ...)
    x = np.empty(pts + (n_sd + 1,))
    x[..., :n_sd] = np.einsum("...a,n...ad->n...d", Ns, blend)
    x[..., n_sd] = t_bottom + th * dt

    J = np.zeros(pts + (n_sd + 1, n_sd + 1))
    J[..., :n_sd, :n_sd] = np.einsum("ae,n...ad->n...de", Gs, blend)
    J[..., :n_sd, n_sd] = np.einsum("...a,n...ad->n...d", Ns, ct - cb)
    J[..., n_sd, n_sd] = dt
    # closed-form inverses, element-last, then back in J's layout
    d = n_sd + 1
    adj = np.empty((d, d, math.prod(pts)))
    detJ = cofactor_det(np.moveaxis(J.reshape(-1, d, d), 0, -1), adj)
    adj /= detJ
    Jinv = np.ascontiguousarray(np.moveaxis(adj, -1, 0)).reshape(J.shape)
    detJ = detJ.reshape(pts)

    # reference gradients (..., 2(n_sd+1), n_sd+1), by (xi, theta)
    ref = np.zeros(th.shape + (2 * (n_sd + 1), n_sd + 1))
    ref[..., : n_sd + 1, :n_sd] = Gs * (1.0 - th)[..., None, None]
    ref[..., n_sd + 1:, :n_sd] = Gs * th[..., None, None]
    ref[..., : n_sd + 1, n_sd] = -Ns
    ref[..., n_sd + 1:, n_sd] = Ns
    grads = ref @ Jinv
    return x, Jinv, detJ, grads
