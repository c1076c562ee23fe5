from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from crp import ChartExit, ChartManifold, DomainError, LogFailure, NearCutLocus, SO3, ShapeError, Sphere
from crp.convergence import estimate_order
from crp.linalg import hat, so3_exp, so3_log
from paper_reference import ProductManifold, from_metric


def decay_slope(errs, scales):
    slope, _, exact = estimate_order(errs, scales, discard_coarsest=False)
    return float("inf") if exact else slope


SPHERE = Sphere()
SO3M = SO3()


def sphere_transport_reference(n, m):
    """The per-pair closed form of the sphere's parallelism U(n, m), through ``np.outer``."""
    c = float(np.dot(m, n))
    mn = m + n
    return np.eye(3) - np.outer(mn, mn) / (1.0 + c) + 2.0 * np.outer(n, m)


class TestSphereClosedForms:
    def test_exp_zero_vector(self):
        m = np.array([0.0, 0.0, 1.0])
        assert np.allclose(SPHERE.exp(m, np.zeros(3)), m)

    def test_exp_quarter_turn(self):
        m = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, np.pi / 2, 0.0])
        assert np.allclose(SPHERE.exp(m, v), [0.0, 1.0, 0.0], atol=1e-14)

    def test_log_identity_pair(self):
        m = SPHERE.random_point(np.random.default_rng(0))
        assert np.allclose(SPHERE.log(m, m), 0.0)

    def test_log_quarter_turn(self):
        m = np.array([1.0, 0.0, 0.0])
        n = np.array([0.0, 0.0, 1.0])
        assert np.allclose(SPHERE.log(m, n), [0.0, 0.0, np.pi / 2], atol=1e-14)

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = SPHERE.random_point(rng)
            n = SPHERE.random_point(rng)
            if SPHERE.distance(m, n) >= SPHERE.gauge_radius - 1e-3:
                continue
            assert np.linalg.norm(SPHERE.exp(m, SPHERE.log(m, n)) - n) < 1e-10

    def test_near_cut_locus_raises(self):
        m = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NearCutLocus):
            SPHERE.log(m, -m)

    def test_batch_transport_through_antipode_raises_like_scalar(self):
        ms = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        ns = np.array([[0.0, 1.0, 0.0], [0.0, -0.6, -0.8]])  # the second pair is antipodal
        with pytest.raises(NearCutLocus, match="antipode"):
            SPHERE.transport(ns[1], ms[1])
        with pytest.raises(NearCutLocus, match="antipode"):
            SPHERE.transport(ns, ms)
        assert np.array_equal(SPHERE.transport(ns[:1], ms[:1])[0], sphere_transport_reference(ns[0], ms[0]))

    def test_exp_matches_geodesic_ode_oracle(self):
        rng = np.random.default_rng(2)
        m = SPHERE.random_point(rng)
        v = SPHERE.random_tangent(rng, m)

        def rhs(t, s):
            p, dp = s[:3], s[3:]
            return np.concatenate([dp, -(dp @ dp) * p])

        sol = solve_ivp(rhs, (0, 1), np.concatenate([m, v]), rtol=1e-12, atol=1e-14, dense_output=True)
        assert np.linalg.norm(SPHERE.exp(m, v) - sol.y[:3, -1]) < 1e-8

    def test_transport_matches_ode_oracle(self):
        rng = np.random.default_rng(3)
        m = SPHERE.random_point(rng)
        n = SPHERE.random_point(rng)
        if SPHERE.distance(m, n) >= SPHERE.gauge_radius - 1e-2:
            n = SPHERE.exp(m, 0.5 * SPHERE.random_tangent(rng, m))
        v = SPHERE.random_tangent(rng, m)
        w = SPHERE.log(m, n)

        def rhs(t, s):
            # geodesic sigma(t) = exp_m(t w); parallel field keeps normal balance
            p = SPHERE.exp(m, t * w)
            dp_norm = w  # constant-speed parametrization has |sigma'| = |w|
            dp = SPHERE.transport(p, m) @ w if False else None
            return -(s @ SPHERE.exp_velocity(m, w, t)) * p if False else None

        # direct ODE: u' = -(u . sigma') sigma along sigma(t)
        def rhs2(t, u):
            th = np.linalg.norm(w)
            if th == 0:
                return np.zeros(3)
            p = np.cos(t * th) * m + np.sin(t * th) * w / th
            dp = -th * np.sin(t * th) * m + np.cos(t * th) * w
            return -(u @ dp) * p

        sol = solve_ivp(rhs2, (0, 1), v, rtol=1e-12, atol=1e-14)
        got = SPHERE.transport(n, m) @ v
        assert np.linalg.norm(got - sol.y[:, -1]) < 1e-8

    def test_transport_equator_fixes_normal(self):
        m = np.array([1.0, 0.0, 0.0])
        n = np.array([0.0, 1.0, 0.0])
        u = SPHERE.transport(n, m) @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(u, [0.0, 0.0, 1.0], atol=1e-14)

    def test_transport_is_isometry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = SPHERE.random_point(rng)
            n = SPHERE.exp(m, 0.8 * SPHERE.random_tangent(rng, m))
            bm = SPHERE.tangent_basis(m)
            u = SPHERE.transport(n, m)
            gram = (u @ bm).T @ (u @ bm)
            assert np.max(np.abs(gram - bm.T @ bm)) < 1e-8

    def test_embedded_lemma_slopes(self):
        rng = np.random.default_rng(5)
        m = SPHERE.random_point(rng)
        v = SPHERE.random_tangent(rng, m)
        v /= np.linalg.norm(v)
        scales = [0.4 / 2**j for j in range(5)]
        e_log, e_trans = [], []
        for s in scales:
            n = SPHERE.exp(m, s * v)
            p = SPHERE.tangent_projector(m)
            e_log.append(np.linalg.norm(p @ (SPHERE.log(m, n) - (n - m))))
            bn = SPHERE.tangent_basis(n)
            diff = (SPHERE.transport(n, m) - SPHERE.tangent_projector(n)) @ p @ bn
            e_trans.append(np.max(np.abs(diff)))
        assert decay_slope(e_log, scales) >= 2.75
        assert decay_slope(e_trans, scales) >= 1.75

    def test_d2log_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        m = SPHERE.random_point(rng)
        n = SPHERE.exp(m, 0.7 * SPHERE.random_tangent(rng, m))
        w = SPHERE.random_tangent(rng, n)
        h = 1e-6
        fd = (SPHERE.log(m, SPHERE.exp(n, h * w)) - SPHERE.log(m, SPHERE.exp(n, -h * w))) / (2 * h)
        assert np.linalg.norm(SPHERE.d2log(m, n) @ w - fd) < 1e-7

    @pytest.mark.parametrize("method", ["log", "distance", "transport", "d2log"])
    @pytest.mark.parametrize(
        "a, b",
        [
            (np.array([1.0, 0.0]), np.array([0.0, 1.0])),  # 2-vectors: log and distance used to answer
            (np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])),  # 4-vectors
            (np.array([0.0, 0.0, 1.0]), np.array([[0.6, 0.8], [0.8, 0.6]])),  # one stack of 2-vectors
            (np.array([0.0, 0.0, 1.0]), np.float64(1.0)),
        ],
    )
    def test_points_of_another_shape_raise_shape_error(self, method, a, b):
        for m, n in ((a, b), (b, a)):
            with pytest.raises(ShapeError, match="sphere points of shape"):
                getattr(SPHERE, method)(m, n)


class TestSO3ClosedForms:
    def test_rodrigues_against_expm_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = rng.standard_normal(3)
            assert np.max(np.abs(so3_exp(w) - expm(hat(w)))) < 1e-12

    def test_log_inverts_exp(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = rng.standard_normal(3)
            w *= min(1.0, 2.9 / np.linalg.norm(w))
            assert np.linalg.norm(so3_log(so3_exp(w)) - w) < 1e-10

    def test_exp_left_invariant(self):
        g = so3_exp(np.array([0.3, -0.2, 0.5]))
        a = np.array([0.0, 0.0, np.pi])
        got = SO3M.exp(g, g @ hat(a))
        assert np.max(np.abs(got - g @ expm(hat(a)))) < 1e-12

    def test_transport_is_left_translation(self):
        rng = np.random.default_rng(9)
        g = SO3M.random_point(rng)
        k = SO3M.random_point(rng)
        xi = k @ hat(rng.standard_normal(3))
        got = (SO3M.transport(g, k) @ xi.reshape(9)).reshape(3, 3)
        assert np.max(np.abs(got - g @ k.T @ xi)) < 1e-12

    def test_d2log_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        k = SO3M.random_point(rng)
        g = SO3M.exp(k, k @ hat(0.4 * rng.standard_normal(3)))
        om = rng.standard_normal(3)
        xi = g @ hat(om)
        h = 1e-6
        fd = (
            SO3M.flatten(SO3M.log(k, g @ so3_exp(h * om))) - SO3M.flatten(SO3M.log(k, g @ so3_exp(-h * om)))
        ) / (2 * h)
        assert np.linalg.norm(SO3M.d2log(k, g) @ xi.reshape(9) - fd) < 1e-7

    def test_atlas_covers_group(self):
        rng = np.random.default_rng(11)
        charts = SO3M.charts()
        for _ in range(50):
            g = SO3M.random_point(rng)
            assert max(c.margin(g) for c in charts) > 0.2 * (np.pi - 0.1)

    def test_chart_roundtrip_and_differentials(self):
        rng = np.random.default_rng(12)
        chart = SO3M.charts()[0]
        for _ in range(5):
            g = so3_exp(0.8 * rng.standard_normal(3))
            x = chart.to_coords(g)
            assert np.max(np.abs(chart.from_coords(x) - g)) < 1e-12
            # dto o dfrom = identity on coordinates
            assert np.max(np.abs(chart.dto(g) @ chart.dfrom(x) - np.eye(3))) < 1e-9
            # dfrom matches finite differences of from_coords
            for j in range(3):
                e = np.zeros(3)
                e[j] = 1e-6
                fd = (chart.from_coords(x + e) - chart.from_coords(x - e)).reshape(9) / 2e-6
                assert np.linalg.norm(chart.dfrom(x)[:, j] - fd) < 1e-6


def so3_pairs(rng, angles):
    """Pairs (k, k exp(angle hat(u))) with random k and random unit axes u."""
    ks = np.array([so3_exp(rng.standard_normal(3)) for _ in angles])
    axes = rng.standard_normal((len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    return ks, np.array([k @ so3_exp(a * u) for k, a, u in zip(ks, angles, axes)])


def stacked_scalar_log(ks, gs):
    """The per-pair closed form through ``so3_log``, stacked: an independent reference for ``SO3.log``."""
    return np.stack([SO3M.flatten(k @ hat(so3_log(k.T @ g))) for k, g in zip(ks, gs)])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSO3LogBatch:
    def test_bit_identical_to_stacked_scalar_log(self):
        rng = np.random.default_rng(21)
        angles = np.concatenate([rng.uniform(0.0, np.pi - 0.2, 400), np.zeros(20), rng.uniform(0.0, 1e-8, 20)])
        ks, gs = so3_pairs(rng, angles)
        gs[400:420] = ks[400:420]  # identical pairs: R = k^T k is not exactly the identity
        assert same_bits(SO3M.flatten(SO3M.log_batch(ks, gs)), stacked_scalar_log(ks, gs))
        assert "log_batch" in SO3.__dict__  # the perfbench tracer wraps it there

    def test_block_straddling_the_pair_budget(self):
        from crp.pairs import BLOCK_PAIRS

        rng = np.random.default_rng(22)
        ks, gs = so3_pairs(rng, rng.uniform(0.0, 2.5, BLOCK_PAIRS + 7))
        whole = SO3M.log(ks, gs)
        assert same_bits(SO3M.flatten(whole), stacked_scalar_log(ks, gs))
        head = SO3M.log(ks[:BLOCK_PAIRS], gs[:BLOCK_PAIRS])
        assert same_bits(whole, np.concatenate([head, SO3M.log(ks[BLOCK_PAIRS:], gs[BLOCK_PAIRS:])]))

    @pytest.mark.parametrize("far", [np.pi - 0.05, np.pi - 1e-7])
    def test_first_pair_past_the_gauge_ball_raises_the_scalar_message(self, far):
        rng = np.random.default_rng(23)
        ks, gs = so3_pairs(rng, [0.3, far, 1.0, np.pi - 0.02])
        with pytest.raises(NearCutLocus) as scalar:
            SO3M.log(ks[1], gs[1])
        with pytest.raises(NearCutLocus) as batch:
            SO3M.log(ks, gs)
        assert str(batch.value) == str(scalar.value)


class TestSphereCharts:
    def test_roundtrip_and_margins(self):
        rng = np.random.default_rng(13)
        north, south = SPHERE.charts()
        for _ in range(20):
            m = SPHERE.random_point(rng)
            chart = north if north.margin(m) > 0 else south
            x = chart.to_coords(m)
            assert np.linalg.norm(chart.from_coords(x) - m) < 1e-10

    def test_differentials_match_fd(self):
        rng = np.random.default_rng(14)
        chart = SPHERE.charts()[0]
        m = np.array([0.1, -0.3, -0.9])
        m /= np.linalg.norm(m)
        x = chart.to_coords(m)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (chart.from_coords(x + e) - chart.from_coords(x - e)) / 2e-6
            assert np.linalg.norm(chart.dfrom(x)[:, j] - fd) < 1e-6
        bm = SPHERE.tangent_basis(m)
        comp = chart.dfrom(x) @ chart.dto(m) @ bm
        assert np.max(np.abs(comp - bm)) < 1e-9

    def test_projector_properties(self):
        rng = np.random.default_rng(15)
        for mani in (SPHERE, SO3M):
            m = mani.random_point(rng)
            p = mani.tangent_projector(m)
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p - p.T)) < 1e-12


def quadratic_connection(c=0.25):
    def gamma(x):
        # smooth, symmetric coefficients in two dimensions
        a = np.zeros(x.shape[:-1] + (2, 2, 2))
        a[..., 0, 0, 0] = c * np.sin(x[..., 1])
        a[..., 1, 0, 1] = c * x[..., 0]
        a[..., 1, 1, 0] = c * x[..., 0]
        a[..., 0, 1, 1] = -c * np.cos(x[..., 0])
        return a

    return gamma


def torsion_block(x):
    # Gamma^0_{01} = 0.3 and Gamma^1_{10} = x_0: a torsionful connection
    a = np.zeros(x.shape[:-1] + (2, 2, 2))
    a[..., 0, 0, 1], a[..., 1, 1, 0] = 0.3, x[..., 0]
    return a


class TestChartManifold:
    def test_flat_exp_log(self):
        m2 = ChartManifold(2)
        a = np.array([0.1, 0.2])
        b = np.array([-0.4, 0.6])
        assert np.allclose(m2.log(a, b), b - a)
        assert np.allclose(m2.exp(a, b - a), b)

    def test_curved_exp_log_roundtrip(self):
        mani = ChartManifold(2, gamma=quadratic_connection(), h_geo=0.005)
        m = np.array([0.2, -0.1])
        n = np.array([0.9, 0.5])
        v = mani.log(m, n)
        assert np.linalg.norm(mani.exp(m, v) - n) < 1e-10

    def test_log_shoots_at_fd_stencil_scale(self):
        # |n - m| = 3e-6: the guess n - m has residual ~ Gamma |v|^2 / 2 < 1e-12, so an
        # absolute 1e-12 stopping rule would return it unshot
        mani = ChartManifold(2, gamma=quadratic_connection(), h_geo=0.1)
        m = np.array([0.2, -0.1])
        n = m + 3e-6 * np.array([0.6, 0.8])
        v = mani.log(m, n)
        guess_res = np.linalg.norm(mani.exp(m, n - m) - n)
        assert 0.0 < guess_res <= 1e-12
        assert np.linalg.norm(mani.exp(m, v) - n) < 0.1 * guess_res

    def test_log_raises_when_newton_stalls(self):
        mani = ChartManifold(2, gamma=quadratic_connection(), h_geo=0.1)
        with pytest.raises(LogFailure):
            mani.log(np.array([0.2, -0.1]), np.array([0.9, 0.5]), max_iter=1)

    def test_geodesic_matches_ivp_oracle(self):
        g = quadratic_connection()
        mani = ChartManifold(2, gamma=g, h_geo=0.002)
        m = np.array([0.3, 0.1])
        v = np.array([0.5, -0.7])

        def rhs(t, s):
            p, dp = s[:2], s[2:]
            acc = -np.einsum("ijl,j,l->i", g(p), dp, dp)
            return np.concatenate([dp, acc])

        sol = solve_ivp(rhs, (0, 1), np.concatenate([m, v]), rtol=1e-12, atol=1e-14)
        assert np.linalg.norm(mani.exp(m, v) - sol.y[:2, -1]) < 1e-8

    def test_connection_expansion_slopes(self):
        # chart-coefficient expansions of the logarithm and the transport
        c = 0.3
        g = quadratic_connection(c)
        mani = ChartManifold(2, gamma=g, h_geo=0.002)
        x = np.array([0.25, -0.15])
        ax = g(x)
        rng = np.random.default_rng(16)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        scales = [0.4 / 2**j for j in range(5)]
        e_log, e_tr = [], []
        for s in scales:
            y = x + s * v
            lg = mani.log(x, y)
            pred = (y - x) + 0.5 * np.einsum("ijl,j,l->i", ax, y - x, y - x)
            e_log.append(np.linalg.norm(lg - pred))
            u = mani.transport(y, x)
            pred_u = np.eye(2) - np.einsum("ijl,j->il", ax, y - x)
            e_tr.append(np.max(np.abs(u - pred_u)))
        assert decay_slope(e_log, scales) >= 2.75
        assert decay_slope(e_tr, scales) >= 1.75

    def test_exp_leaving_domain_raises(self):
        mani = ChartManifold(2, radius=1.0)
        with pytest.raises(ChartExit):
            # flat manifold: straight line exits the ball -> domain guard
            mani_curved = ChartManifold(2, radius=1.0, gamma=quadratic_connection(0.0), h_geo=0.05)
            mani_curved.exp(np.zeros(2), np.array([5.0, 0.0]))

    def test_torsion_tensor_antisymmetry(self):
        g = quadratic_connection(0.4)
        mani = ChartManifold(2, gamma=g)
        t = mani.torsion_tensor(np.array([0.3, 0.2]))
        assert np.allclose(t, -np.swapaxes(t, 1, 2))

    def test_matrix_points_take_the_center_shape(self):
        gl = ChartManifold(4, center=np.zeros((2, 2)))
        assert gl.point_shape == (2, 2)
        m = np.array([[1.0, 0.5], [-0.2, 2.0]])
        chart = gl.chart_at(m)
        assert np.array_equal(chart.to_coords(m), m.reshape(4))
        assert np.array_equal(chart.from_coords(chart.to_coords(m)), m)
        assert gl.random_point(np.random.default_rng(3)).shape == (2, 2)

    @pytest.mark.parametrize(
        "dim,center,gamma",
        [(3, [0.0, 0.0], None), (4, np.zeros((2, 2)), lambda x: np.zeros((4, 4, 4)))],
    )
    def test_bad_center_raises(self, dim, center, gamma):
        with pytest.raises(ShapeError):
            ChartManifold(dim, center=center, gamma=gamma)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_below_one_raises(self, dim):
        with pytest.raises(ShapeError, match="dimension at least 1"):
            ChartManifold(dim)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan])
    def test_radius_not_positive_raises(self, radius):
        with pytest.raises(DomainError, match="positive radius"):
            ChartManifold(2, radius=radius)

    def test_domain_distance_batch_on_matrix_points(self):
        mani = ChartManifold(4, center=np.zeros((2, 2)))
        rng = np.random.default_rng(29)
        ms, ns = rng.standard_normal((5, 2, 2)), rng.standard_normal((5, 2, 2))
        want = [np.linalg.norm(n - m, "fro") for m, n in zip(ms, ns)]
        assert np.allclose(mani.distance(ms, ns), want, rtol=1e-15, atol=0.0)


class TestProductManifold:
    def test_componentwise_geometry(self):
        prod = ProductManifold(SPHERE, SO3M)
        rng = np.random.default_rng(17)
        m = prod.random_point(rng)
        n = prod.join(
            SPHERE.exp(prod.split(m)[0], 0.3 * SPHERE.random_tangent(rng, prod.split(m)[0])),
            prod.split(m)[1],
        )
        v = prod.log(m, n)
        assert np.linalg.norm(prod.flatten(prod.exp(m, v)) - prod.flatten(n)) < 1e-10
        u = prod.transport(n, m)
        assert u.shape == (12, 12)

    @pytest.mark.parametrize(
        "first,second",
        [(SPHERE, SO3M), (SO3M, ChartManifold(2, gamma=torsion_block))],
    )
    def test_torsion_is_blockwise(self, first, second):
        # T[c, a, b] vanishes unless a, b and c lie in one factor, where it is that factor's
        prod = ProductManifold(first, second)
        m = prod.random_point(np.random.default_rng(23))
        a, b = prod.split(m)
        d1 = first.flat_dim
        got = prod.torsion_tensor(m)
        want = np.zeros((prod.flat_dim,) * 3)
        want[:d1, :d1, :d1] = first.torsion_tensor(a)
        want[d1:, d1:, d1:] = second.torsion_tensor(b)
        assert np.array_equal(got, want)
        assert np.max(np.abs(got[d1:, d1:, d1:])) > 0.1

    def test_centred_factor_chart_is_measured_from_its_centre(self):
        # the centre of the flat factor lies 7 from the origin, outside a radius-3 ball about it
        flat = ChartManifold(2, radius=3.0, center=(5.0, 5.0))
        prod = ProductManifold(SPHERE, flat)
        p = prod.join(np.array([0.6, 0.0, -0.8]), np.array([5.0, 5.0]))
        chart = prod.chart_at(p)
        assert chart.margin(p) > 0.0
        # conservative: inside a product chart, each factor lies inside its own chart
        rng = np.random.default_rng(3)
        factors = [(c1, c2) for c1 in SPHERE.charts() for c2 in flat.charts()]
        inside = 0
        for _ in range(200):
            q = prod.join(SPHERE.random_point(rng), flat.center + rng.uniform(-4.0, 4.0, 2))
            a, b = prod.split(q)
            for c, (c1, c2) in zip(prod.charts(), factors):
                if c.margin(q) > 0:
                    inside += 1
                    assert c1.margin(a) > 0 and c2.margin(b) > 0
        assert inside > 50
        q = prod.join(np.array([0.6, 0.0, -0.8]), np.array([5.0, 8.5]))
        assert not chart.margin(q) > 0 and not flat.charts()[0].margin(prod.split(q)[1]) > 0


def test_levi_civita_from_metric_matches_sphere_chart_coefficients():
    # round-metric pullback through the stereographic chart
    def metric(x):
        s = 2.0 / (1.0 + np.sum(x * x, axis=-1))
        return (s * s)[..., None, None] * np.eye(2)

    mani = from_metric(2, metric, radius=5.0)
    from crp.transport import chart_christoffels

    chart = Sphere().charts()[1]
    for x in (np.array([0.3, -0.2]), np.array([0.0, 0.5])):
        got = mani._gamma(x)
        want = chart_christoffels(Sphere(), chart, x)
        assert np.max(np.abs(got - want)) < 1e-8
