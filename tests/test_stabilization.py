import itertools
import math

import numpy as np
import pytest

import ustflow.mesh as mesh_module
from ustflow import scenarios
from ustflow.errors import ZeroDenominator
from ustflow.extrude import ExtrusionSpec, extrude_simplex_st
from ustflow.mesh import SimplexMesh, jacobians_last
from ustflow.stabilization import (canonical_vertex_order, g_vector,
                                   mesh_metric, metric_contravariant,
                                   metric_terms, prism_shape_functions,
                                   prism_geometry, reference_derivative,
                                   regular_simplex_map, stabilization_for_mesh,
                                   tau_continuity, tau_momentum)

from conftest import random_simplex


def mesh_of(X):
    dim = X.shape[1]
    return SimplexMesh(X, [list(range(dim + 1))], np.zeros((0, dim), dtype=int),
                       np.zeros(0, dtype=int), [], fix_orientation=False)


def lexsort_vertex_order(V):
    """The canonical order by two lexsorts: coordinates, then d2 with the
    sorted coordinates as tie-breaks (the oracle)."""
    rel = V - V.min(axis=1, keepdims=True)
    pre = np.lexsort(np.moveaxis(rel, 2, 0)[::-1], axis=1)
    rel_sorted = np.take_along_axis(rel, pre[:, :, None], axis=1)
    bary = rel_sorted.mean(axis=1, keepdims=True)
    d2_sorted = ((rel_sorted - bary) ** 2).sum(axis=2)
    keys = np.concatenate([np.moveaxis(rel_sorted, 2, 0)[::-1],
                           d2_sorted[None]], axis=0)
    return np.take_along_axis(pre, np.lexsort(keys, axis=1), axis=1)


def inverse_jacobian_reference_derivative(J):
    """A = M inv(Jc), Jc the Jacobian differenced again from the vertices
    {0, columns of J} in canonical order (the oracle)."""
    n, dim, _ = J.shape
    V = np.concatenate([np.zeros((n, 1, dim)), np.swapaxes(J, 1, 2)], axis=1)
    Vc = np.take_along_axis(V, lexsort_vertex_order(V)[:, :, None], axis=1)
    Jc = np.swapaxes(Vc[:, 1:, :] - Vc[:, :1, :], 1, 2)
    return np.einsum("ij,njk->nik", regular_simplex_map(dim),
                     np.linalg.inv(Jc))


def mirror_simplices(rng, dim, n):
    """Simplices symmetric about x_0 = 0 on a grid of eighths, so that
    squared distances to the barycenter tie exactly; vertex order shuffled."""
    out = []
    for _ in range(n):
        p = rng.integers(1, 8, size=dim) / 8.0
        plane = rng.integers(-8, 8, size=(dim - 1, dim)) / 8.0
        plane[:, 0] = 0.0
        X = np.vstack([p, p * np.r_[-1.0, np.ones(dim - 1)], plane])
        out.append(X[rng.permutation(dim + 1)])
    return np.array(out)


def ust_mesh(spec):
    return extrude_simplex_st(spec.mesh, ExtrusionSpec(
        0.0, spec.t_end, spec.levels, spec.trajectory))


@pytest.fixture(scope="module")
def stirrer_meshes():
    return {"stirrer2d": ust_mesh(scenarios.make_stirrer2d()),
            "stirrer3d_coarse": ust_mesh(
                scenarios.make_stirrer3d(coarse=True))}


class TestCanonicalOrder:
    """The stable argsort on d2 against the two-lexsort oracle."""

    def test_random_tets_and_pentatopes(self, rng):
        for dim in (3, 4):
            V = rng.uniform(-1.0, 1.0, size=(2000, dim + 1, dim))
            assert np.array_equal(canonical_vertex_order(V),
                                  lexsort_vertex_order(V))

    def test_ties_in_d2(self, rng):
        for dim in (3, 4):
            right = np.vstack([np.zeros(dim), np.eye(dim)])
            regular = np.vstack([np.zeros(dim), regular_simplex_map(dim).T])
            perms = [list(p) for p in itertools.permutations(range(dim + 1))]
            V = np.concatenate([right[perms], regular[perms],
                                mirror_simplices(rng, dim, 500)])
            order = canonical_vertex_order(V)
            assert np.array_equal(order, lexsort_vertex_order(V))
            # every ordering of the right simplex gives one vertex sequence
            canon = np.take_along_axis(V[:len(perms)], order[:len(perms), :,
                                                             None], axis=1)
            assert (canon == canon[0]).all()

    def test_stirrer3d_coarse(self, stirrer_meshes):
        X = stirrer_meshes["stirrer3d_coarse"].element_coords
        V = X - X[:, :1]
        assert np.array_equal(canonical_vertex_order(V),
                              lexsort_vertex_order(V))


class TestMeshMetricFromGradients:
    """A from the cached P1 gradients against A from the inverse of the
    canonical Jacobian."""

    @pytest.mark.parametrize("name", ["stirrer2d", "stirrer3d_coarse"])
    def test_matches_inverse_jacobian(self, name, stirrer_meshes):
        mesh = stirrer_meshes[name]
        ref = metric_terms(inverse_jacobian_reference_derivative(
            np.moveaxis(jacobians_last(mesh.element_coords), -1, 0)))
        for got, want in zip(mesh_metric(mesh), ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_reference_derivative_matches_inverse_jacobian(self, rng):
        for dim in (3, 4):
            X = np.array([random_simplex(rng, dim) for _ in range(200)])
            J = np.swapaxes(X[:, 1:, :] - X[:, :1, :], 1, 2)
            want = inverse_jacobian_reference_derivative(J)
            got = reference_derivative(J)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(reference_derivative(J[3]), got[3])

    def test_slices(self, small_st_mesh_3d, monkeypatch):
        mesh = small_st_mesh_3d
        whole = mesh_metric(mesh)
        monkeypatch.setattr(mesh_module, "_SLICE", 7)
        assert mesh.n_elements % 7 != 0
        for got, want in zip(mesh_metric(mesh), whole):
            assert np.array_equal(got, want)


class TestRegularSimplexMap:
    def test_unit_measure_and_equilateral(self):
        for dim in (2, 3, 4):
            M = regular_simplex_map(dim)
            assert abs(np.linalg.det(M)) == pytest.approx(math.factorial(dim))
            verts = np.vstack([np.zeros(dim), M.T])
            d = [np.linalg.norm(verts[i] - verts[j])
                 for i in range(dim + 1) for j in range(i)]
            assert np.ptp(d) < 1e-12 * d[0]


class TestMetric:
    def test_regular_element_gives_identity(self):
        for dim in (2, 3, 4):
            M = regular_simplex_map(dim)
            # element whose physical-to-regular map is the identity
            X = np.vstack([np.zeros(dim), M.T])
            J = (X[1:] - X[0]).T
            Ginv = metric_contravariant(J)
            assert np.allclose(Ginv, np.eye(dim), atol=1e-12)

    def test_uniform_scaling(self, rng):
        X = random_simplex(rng, 4)
        J = (X[1:] - X[0]).T
        G1 = metric_contravariant(J)
        G2 = metric_contravariant(2.0 * J)
        assert np.allclose(G2, G1 / 4.0, atol=1e-12 * np.abs(G1).max())
        GG1 = np.tensordot(G1, G1)
        GG2 = np.tensordot(G2, G2)
        assert GG2 == pytest.approx(GG1 / 16.0, rel=1e-12)

    def test_node_permutation_invariance_pentatope(self, rng):
        X = random_simplex(rng, 4)
        mesh_ref = mesh_of(X)
        Gref, gref, _, _ = mesh_metric(mesh_ref)
        for perm in itertools.permutations(range(5)):
            m = mesh_of(X[list(perm)])
            G, g, _, _ = mesh_metric(m)
            assert np.abs(G - Gref).max() < 1e-12 * np.abs(Gref).max()
            assert np.abs(g - gref).max() < 1e-12 * max(np.abs(gref).max(), 1)

    def test_spd_on_random_elements(self, rng):
        for dim in (3, 4):
            for _ in range(500):
                X = random_simplex(rng, dim)
                G = metric_contravariant((X[1:] - X[0]).T)
                ev = np.linalg.eigvalsh(G)
                assert ev.min() > 0.0
                assert np.abs(G - G.T).max() < 1e-12 * np.abs(G).max()


class TestTauMomentum:
    def test_identity_metric_pure_advection(self):
        tau = tau_momentum(np.array([1.0, 0.0]), 0.0, np.eye(3), C_I=1.0)
        assert tau == pytest.approx(2.0 ** -0.5, rel=1e-14)

    def test_identity_metric_viscous_4d(self):
        tau = tau_momentum(np.zeros(3), 1.0, np.eye(4), C_I=1.0)
        assert tau == pytest.approx(5.0 ** -0.5, rel=1e-14)

    def test_scaling_homogeneity(self, rng):
        X = random_simplex(rng, 3)
        J = (X[1:] - X[0]).T
        u = rng.uniform(-1, 1, size=2)
        for s in (2.0, 5.0, 0.3):
            t1 = tau_momentum(u, 0.0, metric_contravariant(J))
            t2 = tau_momentum(u, 0.0, metric_contravariant(s * J))
            assert t2 == pytest.approx(s * t1, rel=1e-12)


class TestGVector:
    def test_right_reference_simplex_oracle(self):
        # Hand oracle for the unit right simplex.  Canonical order: the
        # origin is strictly closest to the barycenter (n/(n+1)^2 vs
        # (n^2+n-1)/(n+1)^2), and the tied unit vectors sort as
        # e_n < e_{n-1} < ... < e_1 by coordinates.  The canonical Jacobian
        # is then the column-reversal permutation P, so A = M @ P.
        for dim in (3, 4):
            X = np.vstack([np.zeros(dim), np.eye(dim)])
            J = (X[1:] - X[0]).T
            M = regular_simplex_map(dim)
            P = np.eye(dim)[:, ::-1]
            A = reference_derivative(J)
            assert np.allclose(A, M @ P, atol=1e-13)
            g = g_vector(J)
            assert np.allclose(g, (M @ P).sum(axis=0)[: dim - 1], atol=1e-13)

    def test_definition_composition(self, rng):
        # A recomputed from its definition: regular map composed with the
        # inverse canonically-ordered element Jacobian
        from ustflow.stabilization import canonical_vertex_order
        for dim in (3, 4):
            X = random_simplex(rng, dim)
            J = (X[1:] - X[0]).T
            V = np.vstack([np.zeros((1, dim)), J.T])[None]
            order = canonical_vertex_order(V)[0]
            Vc = V[0][order]
            Jc = (Vc[1:] - Vc[0]).T
            A_expected = regular_simplex_map(dim) @ np.linalg.inv(Jc)
            assert np.allclose(reference_derivative(J), A_expected,
                               atol=1e-12)
            assert np.allclose(g_vector(J),
                               A_expected.sum(axis=0)[: dim - 1], atol=1e-12)

    def test_uniform_scaling(self, rng):
        X = random_simplex(rng, 4)
        J = (X[1:] - X[0]).T
        g1 = g_vector(J)
        g2 = g_vector(3.0 * J)
        assert np.allclose(g2, g1 / 3.0, atol=1e-13)

    def test_norm_invariant_under_spatial_rotation(self, rng):
        # rotating the element in space (time fixed) preserves |g|
        X = random_simplex(rng, 3)
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                      [math.sin(theta), math.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        g1 = g_vector((X[1:] - X[0]).T)
        Xr = X @ R.T
        g2 = g_vector((Xr[1:] - Xr[0]).T)
        assert np.linalg.norm(g1) == pytest.approx(np.linalg.norm(g2),
                                                   rel=1e-12)


class TestTauContinuity:
    def test_direct_formula(self):
        assert tau_continuity(1.0, np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_doubling_tau_mom_halves(self):
        g = np.array([0.3, -0.4])
        assert tau_continuity(2.0, g) == pytest.approx(
            0.5 * tau_continuity(1.0, g))

    def test_identity_on_random_elements(self, rng):
        for _ in range(50):
            X = random_simplex(rng, 4)
            J = (X[1:] - X[0]).T
            G = metric_contravariant(J)
            g = g_vector(J)
            u = rng.uniform(-1, 1, size=3)
            tm = tau_momentum(u, 0.1, G)
            tc = tau_continuity(tm, g)
            assert tc * tm * (g @ g) == pytest.approx(1.0, rel=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            tau_continuity(0.0, np.array([1.0, 0.0]))


class TestMeshStabilization:
    def test_tau_positive_on_mesh(self, rng):
        from ustflow.extrude import ExtrusionSpec, extrude_simplex_st
        from ustflow.geometry import box2d
        st = extrude_simplex_st(box2d(3, 3), ExtrusionSpec(0.0, 0.1, 2))
        u = rng.uniform(-1, 1, size=(st.n_elements, 2))
        ctx = stabilization_for_mesh(st, u, nu=0.01)
        assert (ctx.tau_mom > 0).all()
        assert (ctx.tau_cont > 0).all()
        assert ctx.C_I == 1.0


class TestPrismShapeFunctions:
    def test_bottom_top_limits(self, rng):
        xi = rng.dirichlet(np.ones(3))[:2]
        Ns = prism_shape_functions(xi, 0.0)
        from ustflow.mesh import basis_eval
        assert np.allclose(Ns[:3], basis_eval(xi, 2))
        assert np.allclose(Ns[3:], 0.0)
        Nt = prism_shape_functions(xi, 1.0)
        assert np.allclose(Nt[:3], 0.0)
        assert np.allclose(Nt[3:], basis_eval(xi, 2))

    def test_partition_of_unity(self, rng):
        for n_sd in (2, 3):
            xi = rng.dirichlet(np.ones(n_sd + 1), size=200)[:, :n_sd]
            th = rng.uniform(0, 1, size=200)
            vals = prism_shape_functions(xi, th)
            assert np.abs(vals.sum(axis=-1) - 1.0).max() < 1e-14

    def test_twisted_prism_geometry_volume(self, rng):
        # straight prism: sum of w * detJ over the rule = area * dt
        tri = rng.uniform(-1, 1, size=(3, 2))
        area = abs(np.linalg.det((tri[1:] - tri[0]).T)) / 2.0
        dt = 0.37
        from ustflow.quadrature import prism_quadrature
        rule = prism_quadrature(2)
        total = 0.0
        for p, w in zip(rule.points, rule.weights):
            _, _, dJ, _ = prism_geometry(tri[None], tri[None], 0.0, dt,
                                         p[:2], p[2])
            total += w * abs(dJ[0])
        assert total == pytest.approx(area * dt, rel=1e-12)

    def test_prism_gradients_reproduce_linear_field(self, rng):
        # twisted prism: space-time gradients must differentiate an affine
        # field in (x, t) exactly at every quadrature point
        tri = rng.uniform(-1, 1, size=(3, 2))
        ang = 0.3
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        top = tri @ R.T
        dt = 0.5
        a = np.array([0.7, -1.1, 0.4])  # gradient in (x, y, t)
        nodes_b = np.column_stack([tri, np.zeros(3)])
        nodes_t = np.column_stack([top, np.full(3, dt)])
        vals = np.concatenate([nodes_b @ a, nodes_t @ a])
        from ustflow.quadrature import prism_quadrature
        rule = prism_quadrature(2)
        for p, w in zip(rule.points, rule.weights):
            _, _, _, grads = prism_geometry(tri[None], top[None], 0.0, dt,
                                            p[:2], p[2])
            got = np.einsum("ad,a->d", grads[0], vals)
            assert np.allclose(got, a, atol=1e-12)
