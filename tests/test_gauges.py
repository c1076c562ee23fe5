from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from crp import ChartManifold, DomainError, GaugeMismatch, SO3, Sphere
from crp.convergence import estimate_order
from crp.gauges import (
    Parallelism,
    change_tensor,
    chart_gauge,
    compatibility_tensor,
    connection_gauge,
    logarithm_gauge,
    standard_gauge,
    torsion_check,
)
from crp.linalg import FD_STEP, hat
from paper_reference import ProductManifold, manifold_taylor_check

SPHERE = Sphere()
SO3M = SO3()


def decay_slope(errs, scales):
    slope, _, exact = estimate_order(errs, scales, discard_coarsest=False)
    return float("inf") if exact else slope


def sample_gauges():
    out = [
        ("sphere-connection", SPHERE, connection_gauge(SPHERE)),
        ("sphere-chart", SPHERE, chart_gauge(SPHERE, SPHERE.charts()[0])),
        ("so3-connection", SO3M, connection_gauge(SO3M)),
        ("so3-chart", SO3M, chart_gauge(SO3M, SO3M.charts()[0])),
    ]
    return out


@pytest.mark.parametrize("name,mani,gauge", sample_gauges())
def test_gauge_axioms_at_random_points(name, mani, gauge):
    rng = np.random.default_rng(19)
    kept = 0
    worst_psi = worst_u = worst_d = 0.0
    while kept < 100:
        m = mani.random_point(rng)
        if gauge.chart is not None and gauge.chart.margin(m) <= 0.1:
            continue
        kept += 1
        p = mani.tangent_projector(m)
        worst_psi = max(worst_psi, float(np.max(np.abs(gauge.psi(m, m)))))
        worst_u = max(worst_u, float(np.max(np.abs((gauge.U(m, m) - np.eye(mani.flat_dim)) @ p))))
        worst_d = max(worst_d, float(np.max(np.abs((gauge.d2psi(m, m) - np.eye(mani.flat_dim)) @ p))))
    assert worst_psi <= 1e-12
    assert worst_u <= 1e-12
    assert worst_d <= 1e-6


@pytest.mark.parametrize("name,mani,gauge", sample_gauges())
def test_inverse_transport_approximation_slope(name, mani, gauge):
    # U(n, m)^{-1} agrees with U(m, n) to second order in the separation
    rng = np.random.default_rng(23)
    m = mani.random_point(rng)
    if gauge.chart is not None:
        while gauge.chart.margin(m) <= 1.0:
            m = mani.random_point(rng)
    v = mani.flatten(mani.random_tangent(rng, m))
    v /= np.linalg.norm(v)
    scales = [0.2 / 2**j for j in range(5)]
    errs = []
    bm = mani.tangent_basis(m)
    for s in scales:
        n = mani.exp(m, s * mani.unflatten(v))
        bn = mani.tangent_basis(n)
        u_nm = bn.T @ gauge.U(n, m) @ bm  # T_m -> T_n in bases
        u_mn = bm.T @ gauge.U(m, n) @ bn
        errs.append(float(np.max(np.abs(np.linalg.inv(u_nm) - u_mn))))
    # connection transports invert exactly along the same geodesic; the
    # second-order approximation statement is about the generic (chart) case
    assert max(errs) < 1e-12 or decay_slope(errs, scales) >= 1.75


@pytest.mark.parametrize("mani", [SPHERE, SO3M], ids=["sphere", "so3"])
def test_fd_logarithm_differential_runs_along_a_tangent_basis(mani):
    # the fallback without d2_fn: 4 psi evaluations per tangent basis vector (sphere 2, not 3;
    # SO(3) 3, not 9), against the stencil along all D projector columns it replaced
    calls = [0]

    def psi(m, n):
        calls[0] += 1
        return mani.log(m, n)

    log = logarithm_gauge(mani, psi).log
    rng = np.random.default_rng(37)
    m = mani.random_point(rng)
    n = mani.exp(m, 0.3 * mani.random_tangent(rng, m))
    got = log.d2(m, n)
    assert calls[0] == 4 * mani.dim
    p = mani.tangent_projector(n)
    h = FD_STEP * max(1.0, float(np.linalg.norm(mani.flatten(n))))
    ns = np.broadcast_to(n, (mani.flat_dim,) + n.shape)
    want = mani.derivative_along(ns, p.T, lambda qs, _: log.value(m, qs), h).T
    assert np.max(np.abs(got - want)) <= 1e-9
    assert np.max(np.abs(got - mani.d2log(m, n) @ p)) <= 1e-8


class TestCompatibilityTensor:
    def test_same_parallelism_is_exact_zero(self):
        g = connection_gauge(SPHERE)
        s = compatibility_tensor(g.par, g.par, SPHERE)
        assert s.exact_zero
        assert np.all(s.at(np.array([0.0, 0.0, 1.0])) == 0.0)

    def test_evaluation_counts(self):
        # a stack costs 1 evaluation of each parallelism per chart its points fall in
        # (one call for the whole Richardson stencil, at +-h and +-h/2, on every (point,
        # direction) pair of the chart's points), one chart evaluation for the stencil shared
        # by both, and one more dfrom per chart at the points themselves; nothing is cached, so
        # a repeated point costs again, and an exact zero costs none
        calls = {"u": 0, "ut": 0, "from_coords": 0, "dfrom": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        class CountingSphere(Sphere):
            def charts(self):
                return [
                    replace(c, from_coords=counted("from_coords", c.from_coords), dfrom=counted("dfrom", c.dfrom))
                    for c in super().charts()
                ]

        sphere = CountingSphere()
        u = Parallelism(sphere, counted("u", SPHERE.transport))
        ut = Parallelism(sphere, counted("ut", chart_gauge(SPHERE, SPHERE.charts()[0]).par.matrix))
        s = compatibility_tensor(ut, u, sphere)
        lower = np.array([[0.6, 0.0, -0.8], [0.0, 0.6, -0.8], [0.36, 0.48, -0.8]])
        assert {sphere.chart_at(m).name for m in lower} == {"stereo-north"}
        assert {sphere.chart_at(m).name for m in -lower} == {"stereo-south"}
        per_chart = {"u": 1, "ut": 1, "from_coords": 1, "dfrom": 2}

        def assert_charts(k):
            assert calls == {key: k * v for key, v in per_chart.items()}

        assert s.stack(lower).shape == (3, 3, 3, 3)
        assert_charts(1)
        s.at(lower[0])
        s.at(lower[0].copy())
        assert_charts(3)
        assert s.stack(np.concatenate([lower, -lower])).shape == (6, 3, 3, 3)
        assert_charts(5)
        assert np.all(compatibility_tensor(u, u, sphere).stack(lower) == 0.0)
        assert_charts(5)

    def test_parallelisms_of_another_manifold_raise_gauge_mismatch(self):
        # a sphere/SO(3) pair used to build, then raise a raw einsum ValueError at its first evaluation
        sphere, so3 = connection_gauge(SPHERE).par, connection_gauge(SO3M).par
        chart_par = chart_gauge(SPHERE, SPHERE.charts()[0]).par
        for u_tilde, u in ((chart_par, so3), (so3, chart_par), (sphere, so3)):
            with pytest.raises(GaugeMismatch):
                compatibility_tensor(u_tilde, u, SPHERE)
            with pytest.raises(GaugeMismatch):
                change_tensor(u_tilde, u, SPHERE)
        with pytest.raises(GaugeMismatch):
            change_tensor(chart_par, sphere, SO3M)

    def test_chart_gauge_self_compatibility_zero(self):
        g = chart_gauge(SPHERE, SPHERE.charts()[0])
        assert g.compatibility().exact_zero

    def test_so3_left_gauge_matches_commutator_formula(self):
        g = connection_gauge(SO3M)
        s = g.compatibility()
        rng = np.random.default_rng(29)
        for _ in range(3):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            gpt = np.eye(3)
            got = s.apply(gpt, hat(a).reshape(9), hat(b).reshape(9)).reshape(3, 3)
            comm = hat(a) @ hat(b) - hat(b) @ hat(a)
            assert np.max(np.abs(got - (-0.5) * comm)) < 1e-6

    def test_quadratic_logarithm_on_line(self):
        c = 0.3
        line = ChartManifold(1, radius=5.0)

        def psi(m, n):
            d = float(n[0] - m[0])
            return np.array([d + c * d * d])

        gq = logarithm_gauge(line, psi, d2_fn=lambda m, n: np.array([[1.0 + 2.0 * c * float(n[0] - m[0])]]))
        flat = standard_gauge(line)
        s = compatibility_tensor(gq.par, flat.par, line)  # S^{psi*, I}
        got = float(s.apply(np.array([0.1]), np.array([1.0]), np.array([1.0]))[0])
        assert abs(got - (-2.0 * c)) < 1e-6
        s_rev = compatibility_tensor(flat.par, gq.par, line)
        got_rev = float(s_rev.apply(np.array([0.1]), np.array([1.0]), np.array([1.0]))[0])
        assert abs(got_rev - 2.0 * c) < 1e-6

    def test_cocycle_and_antisymmetry_on_sphere(self):
        g1 = connection_gauge(SPHERE).par
        g2 = chart_gauge(SPHERE, SPHERE.charts()[0]).par
        g3 = chart_gauge(SPHERE, SPHERE.charts()[1]).par
        rng = np.random.default_rng(31)
        for _ in range(3):
            m = SPHERE.random_point(rng)
            if SPHERE.charts()[0].margin(m) < 1.0 or SPHERE.charts()[1].margin(m) < 1.0:
                continue
            v = SPHERE.flatten(SPHERE.random_tangent(rng, m))
            w = SPHERE.flatten(SPHERE.random_tangent(rng, m))
            s31 = compatibility_tensor(g3, g1, SPHERE).apply(m, v, w)
            s32 = compatibility_tensor(g3, g2, SPHERE).apply(m, v, w)
            s21 = compatibility_tensor(g2, g1, SPHERE).apply(m, v, w)
            assert np.linalg.norm(s31 - (s32 + s21)) < 1e-8
            s12 = compatibility_tensor(g1, g2, SPHERE).apply(m, v, w)
            assert np.linalg.norm(s12 + s21) < 1e-8

    def test_derivative_definition_agrees_on_sphere(self):
        # alternative characterization: derivative of U(., m)^{-1} Utilde(., m)
        u = connection_gauge(SPHERE).par
        ut = chart_gauge(SPHERE, SPHERE.charts()[0]).par
        s = compatibility_tensor(ut, u, SPHERE)
        rng = np.random.default_rng(37)
        m = np.array([0.2, -0.3, -0.5])
        m /= np.linalg.norm(m)
        v = SPHERE.random_tangent(rng, m)
        w = SPHERE.random_tangent(rng, m)
        h = 1e-5
        bm = SPHERE.tangent_basis(m)

        def comp(eps):
            x = SPHERE.exp(m, eps * v)
            bx = SPHERE.tangent_basis(x)
            u_xm = bx.T @ u.matrix(x, m) @ bm
            ut_xm = bx.T @ ut.matrix(x, m) @ bm
            return np.linalg.solve(u_xm, ut_xm) @ (bm.T @ SPHERE.flatten(w))

        d1 = (comp(h) - comp(-h)) / (2 * h)
        d2 = (comp(h / 2) - comp(-h / 2)) / h
        fd = bm @ ((4.0 * d2 - d1) / 3.0)
        got = s.apply(m, SPHERE.flatten(v), SPHERE.flatten(w))
        assert np.linalg.norm(got - fd) < 1e-6


class TestTorsion:
    def test_sphere_levi_civita_torsion_free(self):
        rep = torsion_check(SPHERE)
        assert rep["max_residual"] <= 1e-6
        assert rep["pass"]

    def test_so3_left_connection_half_torsion(self):
        rep = torsion_check(SO3M)
        assert rep["max_residual"] <= 1e-5
        assert rep["pass"]

    def test_flat_chart_manifold_zero(self):
        rep = torsion_check(ChartManifold(2))
        assert rep["max_residual"] <= 1e-10

    def test_no_point_raises_domain_error(self):
        # a check over no point used to report a zero residual and pass
        with pytest.raises(DomainError):
            torsion_check(SPHERE, n_points=0)


class TestLogarithmComparison:
    def test_two_logarithms_second_order_identity(self):
        g1 = connection_gauge(SPHERE)
        g2 = chart_gauge(SPHERE, SPHERE.charts()[0])
        s = compatibility_tensor(g2.log.induced_parallelism(), g1.log.induced_parallelism(), SPHERE)
        rng = np.random.default_rng(41)
        m = np.array([0.3, 0.1, -0.8])
        m /= np.linalg.norm(m)
        v = SPHERE.random_tangent(rng, m)
        v /= np.linalg.norm(SPHERE.flatten(v))
        scales = [0.3 / 2**j for j in range(5)]
        errs = []
        for sc in scales:
            n = SPHERE.exp(m, sc * v)
            psi1 = g1.psi(m, n)
            psi2 = g2.psi(m, n)
            pred = 0.5 * s.apply(m, psi1, psi1)
            errs.append(np.linalg.norm(psi1 - psi2 - pred))
        assert decay_slope(errs, scales) >= 2.75
        # symmetry of the logarithm-pair tensor
        w1 = SPHERE.flatten(SPHERE.random_tangent(rng, m))
        w2 = SPHERE.flatten(SPHERE.random_tangent(rng, m))
        assert np.linalg.norm(s.apply(m, w1, w2) - s.apply(m, w2, w1)) < 1e-8

    def test_transport_ratio_expansion_slope(self):
        # U(m,n) Utilde(m,n)^{-1} = I + S(psi (x) .) up to second order
        u = connection_gauge(SPHERE).par
        ut = chart_gauge(SPHERE, SPHERE.charts()[0]).par
        g = connection_gauge(SPHERE)
        s = compatibility_tensor(ut, u, SPHERE)
        rng = np.random.default_rng(43)
        m = np.array([-0.2, 0.5, -0.6])
        m /= np.linalg.norm(m)
        v = SPHERE.random_tangent(rng, m)
        v /= np.linalg.norm(SPHERE.flatten(v))
        bm = SPHERE.tangent_basis(m)
        scales = [0.3 / 2**j for j in range(5)]
        errs = []
        for sc in scales:
            n = SPHERE.exp(m, sc * v)
            bn = SPHERE.tangent_basis(n)
            u_mn = bm.T @ u.matrix(m, n) @ bn
            ut_mn = bm.T @ ut.matrix(m, n) @ bn
            lhs = u_mn @ np.linalg.inv(ut_mn)
            psi = g.psi(m, n)
            smat = bm.T @ np.einsum("cab,a->cb", s.at(m), psi) @ bm
            errs.append(float(np.max(np.abs(lhs - np.eye(2) - smat))))
        assert decay_slope(errs, scales) >= 1.75


def asymmetric_connection(x):
    # Gamma^0_{01} != Gamma^0_{10} and Gamma^1_{10} != Gamma^1_{01}, varying with x
    a = np.zeros(x.shape[:-1] + (2, 2, 2))
    a[..., 0, 0, 1] = 0.3 + 0.1 * x[..., 0]
    a[..., 1, 1, 0] = -0.2 + 0.05 * x[..., 1]
    return a


def diagonal_connection(x):
    # a diagonal term Gamma^0_{11} bends the geodesics along the axes, so the
    # Newton logarithm must shoot even at FD stencil points |n - m| ~ 1e-5, where
    # an unshot guess is off by O(|n - m|^2), an error the FD oracle's stencil
    # divides by h = 1e-5
    a = np.zeros((2, 2, 2))
    a[0, 0, 1], a[1, 1, 0], a[0, 1, 1] = 0.3, -0.2, 0.05
    return a


DIAGONAL_CHART = ChartManifold(2, radius=1.0, gamma=diagonal_connection, h_geo=0.1)


def closed_form_cases():
    return [
        ("sphere", SPHERE),
        ("so3", SO3M),
        ("chart-asymmetric", ChartManifold(2, radius=1.0, gamma=asymmetric_connection, h_geo=0.1)),
        ("sphere*so3", ProductManifold(SPHERE, SO3M)),
        ("chart-diagonal", DIAGONAL_CHART),
    ]


def fd_compatibility(gauge):
    return compatibility_tensor(gauge.log.induced_parallelism(), gauge.par, gauge.manifold)


class TestClosedFormCompatibility:
    @pytest.mark.parametrize("name,mani", closed_form_cases())
    def test_connection_gauge_matches_fd_oracle(self, name, mani):
        g = connection_gauge(mani)
        closed, fd = g.compatibility(), fd_compatibility(g)
        rng = np.random.default_rng(31)
        for _ in range(3):
            m = mani.random_point(rng)
            p = mani.tangent_projector(m)

            def on_tangents(t):
                return np.einsum("Cc,cab,aA,bB->CAB", p, t, p, p)

            assert np.array_equal(closed.at(m), 0.5 * mani.torsion_tensor(m))
            assert np.max(np.abs(on_tangents(closed.at(m)) - on_tangents(fd.at(m)))) <= 1e-5

    def test_connection_gauge_makes_no_transport_or_log_calls(self):
        calls = {"transport": 0, "d2log": 0}

        class CountingSO3(SO3):
            def transport(self, to_pt, from_pt):
                calls["transport"] += 1
                return super().transport(to_pt, from_pt)

            def d2log(self, k, g):
                calls["d2log"] += 1
                return super().d2log(k, g)

        mani = CountingSO3()
        g = connection_gauge(mani)
        m = mani.random_point(np.random.default_rng(2))
        s = g.compatibility().at(m)
        assert calls == {"transport": 0, "d2log": 0}
        assert np.max(np.abs(s)) > 0.01
        fd_compatibility(g).at(m)
        assert calls["transport"] > 0 and calls["d2log"] > 0

    def test_torsion_check_passes_with_a_diagonal_christoffel_symbol(self):
        # an unshot logarithm at the FD stencil points puts the residual at 6.5e-3
        rep = torsion_check(DIAGONAL_CHART)
        assert rep["pass"] and rep["max_residual"] <= 1e-5

    def test_torsion_check_reads_the_fd_tensor(self):
        # the closed form equals half the torsion exactly, so a zero residual would
        # mean the check compared the closed form with itself
        for mani, bound in ((SPHERE, 1e-6), (SO3M, 1e-5)):
            res = torsion_check(mani)["max_residual"]
            assert 0.0 < res <= bound


class TestManifoldTaylor:
    def test_no_direction_raises_domain_error(self):
        # a check over no direction used to report an exact pass
        with pytest.raises(DomainError):
            manifold_taylor_check(SPHERE, lambda m: m[2], lambda m: SPHERE.tangent_projector(m)[2], n_dirs=0)

    def test_constant_function_exact(self):
        rep = manifold_taylor_check(SPHERE, lambda m: 1.0, lambda m: np.zeros(3))
        assert rep["exact"]
        assert rep["pass"]

    def test_sphere_height_slope(self):
        rep = manifold_taylor_check(
            SPHERE,
            lambda m: m[2],
            lambda m: SPHERE.tangent_projector(m)[2],
            hess=lambda m, v: -m[2] * float(v @ v),
        )
        assert rep["slope"] >= 2.75
        assert rep["pass"]

    def test_flat_quadratic_exact(self):
        mani = ChartManifold(3)
        amat = np.diag([1.0, 2.0, -0.5])
        rep = manifold_taylor_check(
            mani,
            lambda x: float(x @ amat @ x),
            lambda x: 2.0 * amat @ x,
            hess=lambda x, v: 2.0 * float(v @ amat @ v),
        )
        assert rep["exact"] or max(rep["remainders"]) <= 1e-12
