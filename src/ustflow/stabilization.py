"""Element metric tensor and GLS stabilization parameters.

The per-element reference frame is built in two stages: physical
coordinates are mapped onto the unit right simplex through the element
Jacobian, then through a fixed affine map onto the regular simplex of unit
measure.  With A = d(xi_regular)/d(x), the metric is

    Ginv = A^T A,

which is exactly invariant under node renumbering (a renumbering composes A
with an orthogonal symmetry of the regular simplex, which cancels in A^T A).
The g vector collects column sums of A over all reference coordinates,
restricted to the spatial physical components; since no column-sum
expression is renumbering-invariant by itself, the metric pipeline always
evaluates A with the element nodes in canonical (ascending id) order.

Stabilization parameters:

    tau_MOM  = (uhat . Ginv uhat + C_I nu^2 Ginv:Ginv)^(-1/2),
               uhat = (u, 1) the space-time advective vector,
    tau_CONT = (tau_MOM * g.g)^(-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateElement, NonFiniteTau, ZeroDenominator
from .mesh import SimplexMesh, basis_eval, reference_gradients


@lru_cache(maxsize=None)
def regular_simplex_map(dim: int) -> np.ndarray:
    """Matrix whose columns are edge vectors of a regular simplex of measure 1.

    Maps the unit right simplex onto that regular simplex:
    xi_regular = M @ xi_right (vertex 0 pinned at the origin).
    """
    d2 = 2.0 * (math.factorial(dim) / math.sqrt(dim + 1.0)) ** (2.0 / dim)
    gram = np.full((dim, dim), 0.5 * d2)
    np.fill_diagonal(gram, d2)
    M = np.linalg.cholesky(gram).T  # upper triangular, M^T M = gram
    M.setflags(write=False)
    return M


@dataclass
class StabilizationContext:
    """Per-element metric data and stabilization parameters (arrays over elements)."""
    Ginv: np.ndarray      # (n_el, dim, dim), symmetric positive definite
    g: np.ndarray         # (n_el, n_sd)
    tau_mom: np.ndarray   # (n_el,)
    tau_cont: np.ndarray  # (n_el,)
    C_I: float = 1.0


def canonical_vertex_order(V: np.ndarray) -> np.ndarray:
    """Canonical vertex order per element, shape (n_el, n_vert).

    Primary key: squared distance to the element barycenter (rotation and
    translation stable for elements without symmetry ties); tie-break:
    coordinates relative to the componentwise minimum, lexicographically.
    All keys are evaluated from a pre-sorted vertex sequence, so they are
    bitwise identical under any renumbering of the same vertex set and
    the resulting metric quantities are exactly permutation-invariant.
    """
    rel = V - V.min(axis=1, keepdims=True)
    coord_keys = np.moveaxis(rel, 2, 0)[::-1]  # last key = first coordinate
    pre = np.lexsort(coord_keys, axis=1)
    rel_sorted = np.take_along_axis(rel, pre[:, :, None], axis=1)
    bary = rel_sorted.mean(axis=1, keepdims=True)
    d2_sorted = ((rel_sorted - bary) ** 2).sum(axis=2)
    keys = np.concatenate([np.moveaxis(rel_sorted, 2, 0)[::-1],
                           d2_sorted[None]], axis=0)
    sub = np.lexsort(keys, axis=1)
    return np.take_along_axis(pre, sub, axis=1)


def _canonicalize_jacobian(J: np.ndarray) -> np.ndarray:
    """Rebuild Jacobian(s) with vertices in canonical order.

    The vertex set {0, col_1, ..., col_d} is recovered from the columns,
    reordered canonically, and differenced again.  This makes the metric
    pipeline (in particular g, the column sums of A) invariant under node
    renumbering.
    """
    J = np.asarray(J, dtype=float)
    single = J.ndim == 2
    if single:
        J = J[None]
    n, dim, _ = J.shape
    V = np.concatenate([np.zeros((n, 1, dim)), np.swapaxes(J, 1, 2)], axis=1)
    order = canonical_vertex_order(V)
    Vc = np.take_along_axis(V, order[:, :, None], axis=1)
    Jc = np.swapaxes(Vc[:, 1:, :] - Vc[:, :1, :], 1, 2)
    return Jc[0] if single else Jc


def reference_derivative(J: np.ndarray) -> np.ndarray:
    """A = d(xi_regular)/dx for Jacobian(s) J; accepts (d, d) or (n, d, d).

    The element vertices are brought into canonical order first, so every
    quantity derived from A is invariant under node renumbering.
    """
    J = _canonicalize_jacobian(J)
    single = J.ndim == 2
    if single:
        J = J[None]
    dim = J.shape[-1]
    det = np.linalg.det(J)
    h = np.abs(J).sum(axis=(-2, -1)) / dim + 1e-300  # crude scale
    if (np.abs(det) < 1e-14 * h ** dim).any():
        raise DegenerateElement("singular Jacobian in metric evaluation")
    A = np.einsum("ij,njk->nik", regular_simplex_map(dim), np.linalg.inv(J))
    return A[0] if single else A


def metric_contravariant(J: np.ndarray) -> np.ndarray:
    """Metric tensor Ginv = A^T A from element Jacobian(s)."""
    A = reference_derivative(J)
    if A.ndim == 2:
        return A.T @ A
    return np.einsum("nki,nkj->nij", A, A)


def g_vector(J: np.ndarray, n_sd=None) -> np.ndarray:
    """Column sums of A over all reference coordinates, spatial components only.

    ``n_sd`` defaults to dim - 1 (space-time convention: last coordinate is
    time).
    """
    A = reference_derivative(J)
    single = A.ndim == 2
    if single:
        A = A[None]
    dim = A.shape[-1]
    if n_sd is None:
        n_sd = dim - 1
    g = A.sum(axis=1)[:, :n_sd]
    return g[0] if single else g


def tau_parameters(u, nu: float, Ginv: np.ndarray, GG: np.ndarray,
                   C_I: float = 1.0, gg: np.ndarray = None):
    """tau_MOM and, when ``gg`` is given, tau_CONT per element.

    The one evaluation of the formulas in the module docstring, with their
    checks.  ``u`` (n, dim-1) is the velocity at the element barycenter,
    ``Ginv`` (n, dim, dim) the metric, ``GG`` = Ginv:Ginv and ``gg`` = g.g.
    Returns (tau_mom, tau_cont), tau_cont None without ``gg``.
    """
    n, dim = len(Ginv), Ginv.shape[-1]
    uhat = np.ones((n, dim))
    uhat[:, : dim - 1] = u
    val = np.einsum("ni,nij,nj->n", uhat, Ginv, uhat) + C_I * nu * nu * GG
    if (val <= 0.0).any() or not np.isfinite(val).all():
        raise NonFiniteTau("tau_MOM argument vanished or is non-finite")
    tau_mom = val ** -0.5
    return tau_mom, None if gg is None else _tau_cont(tau_mom, gg)


def _tau_cont(tau_mom, gg):
    denom = tau_mom * gg
    if (denom == 0.0).any() or not np.isfinite(denom).all():
        raise ZeroDenominator("tau_MOM * (g.g) vanished")
    return 1.0 / denom


def tau_momentum(u_elem, nu: float, Ginv: np.ndarray, C_I: float = 1.0):
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
    tau, _ = tau_parameters(u, nu, G, GG, C_I)
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
    Ginv = np.einsum("nki,nkj->nij", A, A)
    g = A.sum(axis=1)[:, : A.shape[-1] - 1]
    GG = np.einsum("nij,nij->n", Ginv, Ginv)
    gg = (g * g).sum(axis=1)
    return Ginv, g, GG, gg


def mesh_metric(mesh: SimplexMesh):
    """(Ginv, g, Ginv:Ginv, g.g) for all elements, canonical node order."""
    return metric_terms(reference_derivative(mesh.jacobians))


def stabilization_for_mesh(mesh: SimplexMesh, u_bary: np.ndarray, nu: float,
                           C_I: float = 1.0,
                           metric=None) -> StabilizationContext:
    """Evaluate tau_MOM / tau_CONT per element at the barycenter velocity.

    ``metric`` may carry a precomputed :func:`mesh_metric` result (the
    metric is geometry-only, so callers solving repeatedly cache it).
    """
    Ginv, g, GG, gg = metric if metric is not None else mesh_metric(mesh)
    tau_mom, tau_cont = tau_parameters(u_bary, nu, Ginv, GG, C_I, gg)
    return StabilizationContext(Ginv, g, tau_mom, tau_cont, C_I)


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


def prism_reference_gradients(xi_spatial, theta):
    """Reference-space gradients of the prism shape functions.

    Returns (..., 2*(n_sd+1), n_sd+1): derivatives with respect to
    (xi_1..xi_{n_sd}, theta).
    """
    xi = np.asarray(xi_spatial, dtype=float)
    th = np.asarray(theta, dtype=float)
    n_sd = xi.shape[-1]
    Ns = basis_eval(xi, n_sd)
    Gs = reference_gradients(n_sd)  # (n_sd+1, n_sd)
    shape = np.broadcast(Ns[..., 0], th).shape
    out = np.zeros(shape + (2 * (n_sd + 1), n_sd + 1))
    out[..., : n_sd + 1, :n_sd] = Gs * (1.0 - th)[..., None, None]
    out[..., n_sd + 1:, :n_sd] = Gs * th[..., None, None]
    out[..., : n_sd + 1, n_sd] = -Ns
    out[..., n_sd + 1:, n_sd] = Ns
    return out


def prism_geometry(coords_bottom, coords_top, t_bottom, dt, xi_spatial, theta):
    """Pointwise isoparametric data for twisted prisms.

    Parameters are (n_el, n_sd+1, n_sd) bottom/top node positions, the
    bottom time level, the temporal thickness, and a single reference
    point.  Returns (x, J, detJ, grads) with ``x`` space-time coordinates,
    J the (n_sd+1) square space-time Jacobian and ``grads`` the space-time
    gradients of the 2(n_sd+1) shape functions.
    """
    cb = np.asarray(coords_bottom, dtype=float)
    ct = np.asarray(coords_top, dtype=float)
    n_el, _, n_sd = cb.shape
    xi = np.asarray(xi_spatial, dtype=float)
    th = float(theta)
    Ns = basis_eval(xi, n_sd)                       # (n_sd+1,)
    Gs = reference_gradients(n_sd)                  # (n_sd+1, n_sd)

    blend = (1.0 - th) * cb + th * ct               # (n_el, n_sd+1, n_sd)
    x = np.empty((n_el, n_sd + 1))
    x[:, :n_sd] = np.einsum("a,nad->nd", Ns, blend)
    x[:, n_sd] = t_bottom + th * dt

    J = np.zeros((n_el, n_sd + 1, n_sd + 1))
    J[:, :n_sd, :n_sd] = np.einsum("ae,nad->nde", Gs, blend)
    J[:, :n_sd, n_sd] = np.einsum("a,nad->nd", Ns, ct - cb)
    J[:, n_sd, n_sd] = dt
    detJ = np.linalg.det(J)
    Jinv = np.linalg.inv(J)

    ref_grads = prism_reference_gradients(xi, th)   # (2(n_sd+1), n_sd+1)
    grads = np.einsum("ak,nkd->nad", ref_grads, Jinv)
    return x, J, detJ, grads
