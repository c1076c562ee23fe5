from __future__ import annotations

import numpy as np
import pytest

from crp import ControlledPath, DomainError, GaugeMismatch, NearCutLocus
from crp.convergence import ConvergenceReport, dyadic_levels, estimate_order
from crp.fixtures import (
    LINE,
    SPHERE,
    equator_crp,
    flat3_crp,
    latitude_crp,
    line_quadratic_crp,
    sphere_spiral_crp,
)
from crp.gauges import Gauge, chart_gauge, compatibility_tensor, connection_gauge, standard_gauge
from crp.oneforms import (
    ControlledOneForm,
    associativity_check,
    fundamental_theorem,
    gauge_change,
    gauge_defect_by_level,
    gauge_integrate,
    integrate_smooth_oneform,
    oneform_from_smooth,
    push_pull_check,
)
from crp.linalg import FD_STEP
from crp.manifolds import ChartManifold
from crp.mcrp import crp_pushforward
from crp.sewing import rough_integrate
from paper_reference import (
    coarsen,
    dyadic_ladder,
    flat_smooth_integral,
    integrator_difference_defect,
    line_quadratic_gauge,
    log_almost_additivity_defect,
    oneform_from_flat,
    richardson_levels,
    transport_commutation_defect,
)


def order_passes(levels, fine_n, target):
    """The order verdict of a dyadic ladder [(h, error)] down from ``fine_n`` steps, finest first."""
    hs, es = zip(*levels)
    return ConvergenceReport.from_levels("ladder", dyadic_levels(fine_n, len(levels)), hs, es, target).passed


def area_form(m):
    # alpha_m(v) = (m x v)_3, the spherical area-type form
    return np.array([[-m[1], m[0], 0.0]])  # e3 . (m x v) = m1 v2 - m2 v1


def height_form(m):
    return np.array([[0.0, 0.0, 1.0]])


def test_zero_oneform_integrates_to_zero():
    y = equator_crp(64)
    g = connection_gauge(SPHERE)
    a = oneform_from_smooth(lambda m: np.zeros((1, 3)), y, g.par)
    z = gauge_integrate(a, y, g)
    assert np.max(np.abs(z.values)) == 0.0


def test_flat_standard_gauge_reduces_to_rough_integrate():
    y = flat3_crp(128)
    g = standard_gauge(y.manifold)
    n = y.times.size
    rng = np.random.default_rng(2)
    av = np.empty((n, 2, 3))
    ad = np.empty((n, 2, 3, 3))
    for i in range(n):
        x = y.points[i]
        av[i] = np.array([[np.sin(x[0]), x[1], 1.0], [x[2], 0.0, np.cos(x[1])]])
        grad = np.zeros((2, 3, 3))
        grad[0, 0, 0] = np.cos(x[0])
        grad[0, 1, 1] = 1.0
        grad[1, 0, 2] = 1.0
        grad[1, 2, 1] = -np.sin(x[1])
        ad[i] = grad
    flat_alpha = ControlledPath(y.times, av, ad)
    z_flat = rough_integrate(flat_alpha, y.as_flat(), y.driver)
    a = oneform_from_flat(flat_alpha, y, g.par)
    z_gauge = gauge_integrate(a, y, g)
    assert np.max(np.abs(z_flat.values - z_gauge.values)) < 1e-13


def test_gauge_mismatch_rejected():
    y = equator_crp(32)
    g1 = connection_gauge(SPHERE)
    g2 = chart_gauge(SPHERE, SPHERE.charts()[0])
    a = oneform_from_smooth(area_form, y, g1.par)
    with pytest.raises(GaugeMismatch):
        gauge_integrate(a, y, g2)


def test_smooth_oneform_derivative_matches_hessian_closed_form():
    y = sphere_spiral_crp(64)
    g = connection_gauge(SPHERE)
    a = oneform_from_smooth(height_form, y, g.par)
    # covariant derivative of d(height) is -m3 <.,.>
    for idx in (3, 17, 40):
        m = y.points[idx]
        p = SPHERE.tangent_projector(m)
        for col in range(3):
            v = y.derivative[idx][:, col]
            want = -m[2] * (p @ v)  # row vector acting as <v, .> restricted
            got = a.alpha_dag[idx, 0, col] @ p
            assert np.linalg.norm(got - want @ p) < 1e-6


def test_controlled_oneform_invariants_hold():
    y = sphere_spiral_crp(128)
    g = connection_gauge(SPHERE)
    a = oneform_from_smooth(area_form, y, g.par)
    rep = a.verify()
    assert rep["pass"], rep


def test_oneform_derivative_constant_reads_a_constant_covector_on_the_equator():
    # alpha' = e_x^T in driver slot 0: e_x^T (U(y_t, y_s) - I) P(y_s) = (sin s - sin t) e_s^T, whose largest ratio
    # to the control, omega = (2 sin(h / 2) / h) (t - s), is cos(h / 2), at adjacent and at two-step pairs
    n = 64
    y = equator_crp(n)
    dag = np.zeros((n + 1, 1, 3, 3))
    dag[:, 0, 0, 0] = 1.0
    a = ControlledOneForm(y.times, np.zeros((n + 1, 1, 3)), dag, connection_gauge(SPHERE).par, y)
    assert a.verify()["C_derivative"] == pytest.approx(np.cos(np.pi / n), rel=1e-12)


def test_oneform_constants_through_antipode_raise():
    # a probe radius past half the loop pairs antipodal samples, whose transport does not exist
    y = equator_crp(64)
    a = oneform_from_smooth(area_form, y, connection_gauge(SPHERE).par)
    with pytest.raises(NearCutLocus):
        a.verify(delta=4.0)


def test_equator_area_form_full_loop():
    # closed form: integral of (m x dm)_3 over the equator is 2 pi;
    # quadrature oracle below confirms before the rough integral is compared
    ts = np.linspace(0.0, 2.0 * np.pi, 200_001)
    integrand = np.cos(ts) ** 2 + np.sin(ts) ** 2  # (m x m')_3 on the equator
    w = np.ones(ts.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    oracle = float(np.sum(w * integrand) * (ts[1] - ts[0]) / 3.0)
    assert abs(oracle - 2.0 * np.pi) < 1e-10
    y = equator_crp(1024)
    z = integrate_smooth_oneform(area_form, y, connection_gauge(SPHERE))
    assert abs(z.values[-1, 0] - 2.0 * np.pi) < 1e-6


def test_ftc_on_polar_cap():
    y = latitude_crp(512, theta=np.pi / 6, T=1.5 * np.pi)
    rep = fundamental_theorem(
        lambda m: float(m[2]),
        lambda m: np.array([0.0, 0.0, 1.0]),
        y,
        connection_gauge(SPHERE),
    )
    assert rep["endpoint_residual"] <= 1e-7
    assert rep["derivative_residual"] <= 1e-12


def test_ftc_reads_df_once_per_node_and_stencil_point():
    y = sphere_spiral_crp(16)  # a projection path: k = 3 driver columns, a 2-dim tangent basis per node
    gauge, calls = connection_gauge(SPHERE), []

    def f(m):
        return m[0] ** 2 + m[2]

    def df(m):
        calls.append(m)
        return np.array([2.0 * m[0], 0.0, 1.0])

    rep = fundamental_theorem(f, df, y, gauge)
    assert len(calls) == 9 * 17  # each node once, and 4 stencil points in each of 2 directions
    # the push-forward that read df again as its Jacobian gives the same residuals bit for bit
    z = integrate_smooth_oneform(lambda m: [df(m)], y, gauge)
    fy = crp_pushforward(f, lambda m: [df(m)], y, ChartManifold(1))
    assert rep["endpoint_residual"] == abs(float(z.values[-1, 0]) - float(fy.points[-1, 0] - fy.points[0, 0]))
    assert rep["derivative_residual"] == float(np.max(np.abs(z.derivative - fy.derivative)))
    assert np.array_equal(rep["integral"].values, z.values)


def test_ftc_constant_function():
    y = equator_crp(64)
    rep = fundamental_theorem(lambda m: 1.0, lambda m: np.zeros(3), y, connection_gauge(SPHERE))
    assert rep["endpoint_residual"] == 0.0


def test_almost_additivity_slope_smooth():
    y = sphere_spiral_crp(256)
    g = connection_gauge(SPHERE)
    a = oneform_from_smooth(area_form, y, g.par)
    levels = gauge_defect_by_level(a, y, g, levels=5)
    assert order_passes(levels, 256, 3.0)


def test_gauge_independence_same_parallelism():
    # two logarithms over one parallelism integrate to the same limit
    y = sphere_spiral_crp(256)
    conn = connection_gauge(SPHERE)
    chart_g = chart_gauge(SPHERE, SPHERE.charts()[0])
    mixed = Gauge(SPHERE, chart_g.log, conn.par)
    a = oneform_from_smooth(area_form, y, conn.par)
    z1 = gauge_integrate(a, y, conn)
    z2 = gauge_integrate(a, y, mixed)
    errs, hs = [], []
    cur_y, cur_a = y, a
    for lev in range(4):
        za = gauge_integrate(cur_a, cur_y, conn)
        zb = gauge_integrate(cur_a, cur_y, mixed)
        errs.append(float(np.max(np.abs(za.values - zb.values))))
        hs.append(float(np.max(np.diff(cur_y.times))))
        cur_y, cur_a = coarsen(cur_y), coarsen(cur_a)
    assert abs(z1.values[-1, 0] - z2.values[-1, 0]) < 5e-3
    assert order_passes(list(zip(hs, errs)), 256, 2.0)


def test_gauge_change_identity_and_roundtrip():
    y = sphere_spiral_crp(64)
    conn = connection_gauge(SPHERE)
    chart_g = chart_gauge(SPHERE, SPHERE.charts()[0])
    a = oneform_from_smooth(area_form, y, conn.par)
    same = gauge_change(a, conn.par)
    assert np.max(np.abs(same.alpha_dag - a.alpha_dag)) == 0.0  # exact-zero tensor path
    moved = gauge_change(a, chart_g.par)
    back = gauge_change(moved, conn.par)
    assert np.max(np.abs(back.alpha_dag - a.alpha_dag)) < 1e-8


def test_gauge_change_preserves_integral():
    conn = connection_gauge(SPHERE)
    chart_g = chart_gauge(SPHERE, SPHERE.charts()[0])
    errs, hs = [], []
    for n in (64, 128, 256, 512):
        y = sphere_spiral_crp(n)
        a = oneform_from_smooth(area_form, y, conn.par)
        z1 = gauge_integrate(a, y, conn)
        z2 = gauge_integrate(gauge_change(a, chart_g.par), y, chart_g)
        errs.append(abs(float(z1.values[-1, 0] - z2.values[-1, 0])))
        hs.append(float(np.max(np.diff(y.times))))
    assert errs[-1] < 1e-3
    assert ConvergenceReport.from_levels("gauge-change", (64, 128, 256, 512), hs, errs, 2.0).passed


def test_line_quadratic_gauge_change_closed_form():
    c = 0.3
    y = line_quadratic_crp(64)
    flat = standard_gauge(LINE)
    quad = line_quadratic_gauge(c)
    a = oneform_from_smooth(lambda m: np.array([[np.cos(m[0])]]), y, flat.par)
    moved = gauge_change(a, quad.par)
    # shift is alpha * S^{quad*, I}(y' (x) .) = -2c alpha y'
    for i in (0, 10, 40):
        shift = moved.alpha_dag[i, 0, 0, 0] - a.alpha_dag[i, 0, 0, 0]
        want = -2.0 * c * a.alpha[i, 0, 0] * y.derivative[i, 0, 0]
        assert abs(shift - want) < 1e-6


def test_integrator_difference_slope():
    y = sphere_spiral_crp(256)
    g1 = connection_gauge(SPHERE)
    g2 = chart_gauge(SPHERE, SPHERE.charts()[0])
    levels = list(zip(*dyadic_ladder(lambda cur: integrator_difference_defect(cur, g1, g2), (y,), 4, 4)))
    assert order_passes(levels, 256, 3.0)


def test_log_almost_additivity_slope():
    y = sphere_spiral_crp(256)
    g = connection_gauge(SPHERE)
    levels = list(zip(*dyadic_ladder(lambda cur: log_almost_additivity_defect(cur, g), (y,), 4, 4)))
    assert order_passes(levels, 256, 3.0)


def test_transport_commutation_slope():
    y = sphere_spiral_crp(128)
    u1 = chart_gauge(SPHERE, SPHERE.charts()[0]).par
    u2 = connection_gauge(SPHERE).par
    levels = list(zip(*dyadic_ladder(lambda cur: transport_commutation_defect(cur, u1, u2), (y,), 4, 4)))
    assert order_passes(levels, 128, 1.0)


class TestAssociativity:
    def test_identity_multiplier_is_exact(self):
        y = sphere_spiral_crp(64)
        g = connection_gauge(SPHERE)
        a = oneform_from_smooth(area_form, y, g.par)
        n = y.times.size
        fpath = ControlledPath(
            y.times, np.broadcast_to(np.eye(1), (n, 1, 1)).copy(), np.zeros((n, 1, 1, 1))
        )
        rep = associativity_check(fpath, a, y, g)
        assert rep["diff_sup"] < 1e-14

    def test_flat_scalar_matches_direct_computation(self):
        y = flat3_crp(128)
        g = standard_gauge(y.manifold)
        a = oneform_from_smooth(lambda x: np.array([[x[1], 0.0, 1.0]]), y, g.par)
        n = y.times.size
        fv = y.driver.values[:, :1, None] * 1.0  # f_s = x^1_s as a 1x1 matrix
        fd = np.zeros((n, 1, 1, 3))
        fd[:, 0, 0, 0] = 1.0
        fpath = ControlledPath(y.times, fv, fd)
        rep = associativity_check(fpath, a, y, g)
        z = gauge_integrate(a, y, g)
        direct = rough_integrate(fpath, z, y.driver)
        assert np.max(np.abs(direct.values - rep["rhs"].values)) < 1e-10

    def test_product_associativity_is_discretely_exact(self):
        # the compensated sums on both sides are algebraically identical
        g = connection_gauge(SPHERE)
        y = sphere_spiral_crp(256)
        a = oneform_from_smooth(area_form, y, g.par)
        nn = y.times.size
        fv = np.empty((nn, 1, 1))
        fd = np.empty((nn, 1, 1, 3))
        for i in range(nn):
            fv[i, 0, 0] = y.points[i][2] + 2.0
            fd[i, 0, 0] = np.array([0.0, 0.0, 1.0]) @ y.derivative[i]
        fpath = ControlledPath(y.times, fv, fd)
        rep = associativity_check(fpath, a, y, g)
        assert rep["diff_sup"] < 1e-12

    def test_smooth_product_variant_slope_on_sphere(self):
        # smooth-map multiplier: the product form is rebuilt smoothly, so the
        # two sides are genuinely different discretizations
        g = connection_gauge(SPHERE)

        def kfun(m):
            return np.array([[m[2] + 2.0]])

        def kalpha(m):
            return kfun(m) @ area_form(m)

        errs, hs = [], []
        for n in (64, 128, 256, 512):
            y = sphere_spiral_crp(n)
            z = integrate_smooth_oneform(area_form, y, g)
            nn = y.times.size
            fv = np.empty((nn, 1, 1))
            fd = np.empty((nn, 1, 1, 3))
            for i in range(nn):
                fv[i, 0, 0] = kfun(y.points[i])[0, 0]
                fd[i, 0, 0] = np.array([0.0, 0.0, 1.0]) @ y.derivative[i]
            fpath = ControlledPath(y.times, fv, fd)
            lhs = integrate_smooth_oneform(kalpha, y, g)
            rhs = rough_integrate(fpath, z, y.driver)
            errs.append(float(np.max(np.abs(lhs.values - rhs.values))))
            hs.append(float(np.max(np.diff(y.times))))
        # the two discretizations coincide up to finite-difference noise, far
        # below the required global tolerance; a slope fit on noise is
        # meaningless, so assert machine-level agreement instead
        assert max(errs) < 1e-12


class TestPushPull:
    def test_identity_map_exact(self):
        y = sphere_spiral_crp(64)
        g = connection_gauge(SPHERE)
        rep = push_pull_check(lambda m: m, lambda m: np.eye(3), area_form, y, g, g, SPHERE)
        assert rep["diff_sup"] < 1e-13

    def test_radial_projection_agreement(self):
        def f(x):
            return x / np.linalg.norm(x)

        def jac(x):
            r = np.linalg.norm(x)
            u = x / r
            return (np.eye(3) - np.outer(u, u)) / r

        errs, hs = [], []
        for n in (64, 128, 256, 512):
            y = flat3_crp(n)
            rep = push_pull_check(
                f, jac, height_form, y, standard_gauge(y.manifold), connection_gauge(SPHERE), SPHERE
            )
            errs.append(rep["diff_sup"])
            hs.append(float(np.max(np.diff(y.times))))
        assert ConvergenceReport.from_levels("radial-push-pull", (64, 128, 256, 512), hs, errs, 2.0).passed
        assert errs[-1] < 1e-4

    def test_height_observable_matches_ftc(self):
        from crp.fixtures import FLAT3
        from crp.manifolds import ChartManifold

        line = ChartManifold(1, radius=10.0)
        y = latitude_crp(512, theta=np.pi / 4, T=np.pi)

        def f(m):
            return np.array([m[2]])

        def jac(m):
            return np.array([[0.0, 0.0, 1.0]])

        rep = push_pull_check(
            f,
            jac,
            lambda x: np.array([[1.0]]),
            y,
            connection_gauge(SPHERE),
            standard_gauge(line),
            line,
        )
        want = y.points[-1][2] - y.points[0][2]
        assert abs(rep["lhs"].values[-1, 0] - want) < 1e-7
        assert abs(rep["rhs"].values[-1, 0] - want) < 1e-12


def test_pure_area_product_ftc_first_order_behavior():
    """Exact-form integral along the commutator solution: true behavior.

    The antisymmetric pure-area tensor annihilates the symmetric second-order
    term, so the compensated sum reduces to sum alpha_s dy_s whose defect
    against the endpoint difference is 2N(cosh h - 1) ~ h: genuinely first
    order in the mesh, no scheme can do better from these increments.
    """
    from crp.flatrde import DrivingField, rde_solve_flat
    from crp.manifolds import ChartManifold
    from crp.mcrp import ManifoldControlledPath
    from crp.roughpath import pure_area_driver

    mats = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    errs, hs = [], []
    for n in (256, 512, 1024, 2048):
        rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, n + 1))
        sol = rde_solve_flat(DrivingField(matrices=mats), rp, np.array([1.0, 1.0]), scheme="exp")
        flat2 = ChartManifold(2, radius=50.0)
        ymc = ManifoldControlledPath(flat2, rp.times, sol.values.copy(), sol.derivative.copy(), rp)
        rep = fundamental_theorem(
            lambda v: float(v[0] * v[1]), lambda v: np.array([v[1], v[0]]), ymc, standard_gauge(flat2)
        )
        errs.append(rep["endpoint_residual"])
        hs.append(1.0 / n)
        # first-order envelope: residual tracks h = 2N(cosh h - 1) closely
        assert 0.5 / n < rep["endpoint_residual"] < 2.0 / n
    slope, _, _ = estimate_order(errs, hs)
    assert 0.75 <= slope <= 1.25


# -- the per-node loops the stacked checks replaced, as references -----------------------------


def per_node_log_almost_additivity(y, gauge):
    worst = 0.0
    for i in range(y.times.size - 2):
        m, t, u = y.points[i], y.points[i + 1], y.points[i + 2]
        rhs = gauge.d2psi(t, m) @ (gauge.psi(m, u) - gauge.psi(m, t))
        worst = max(worst, float(np.linalg.norm(gauge.psi(t, u) - rhs)))
    return worst


def per_node_transport_commutation(y, u_tilde, u):
    s = compatibility_tensor(u_tilde, u, y.manifold)
    worst = 0.0
    for i in range(y.times.size - 1):
        m, t = y.points[i], y.points[i + 1]
        umat = u.matrix(t, m)
        diff = np.einsum("cab,ad,be->cde", s.at(t), umat, umat) - np.einsum("cf,fde->cde", umat, s.at(m))
        p = y.manifold.tangent_projector(m)
        worst = max(worst, float(np.max(np.abs(np.einsum("cde,df,eg->cfg", diff, p, p)))))
    return worst


def compensated_sum(alpha_fn, z, rp):
    """Node by node: alpha_i dz + grad(alpha)_i (z' (x) z') X_i, the gradient by one stencil per axis."""
    vals, d = z.values, z.values.shape[1]
    out = [np.zeros(np.asarray(alpha_fn(vals[0])).shape[0])]
    for i in range(vals.shape[0] - 1):
        x = vals[i]
        h = FD_STEP * max(1.0, float(np.max(np.abs(x))))
        cols = [richardson_levels(lambda eps, _e=e: np.asarray(alpha_fn(x + eps * _e), float), h) for e in np.eye(d)]
        grad = np.stack(cols, axis=-1)
        second = np.einsum("mej,ab,ja,eb->m", grad, rp.step_areas[i], z.derivative[i], z.derivative[i])
        out.append(out[-1] + np.asarray(alpha_fn(x)) @ (vals[i + 1] - x) + second)
    return np.array(out)


@pytest.mark.parametrize("gauge", ["connection", "chart", "quadratic"])
def test_log_almost_additivity_matches_the_per_triple_loop(gauge):
    if gauge == "quadratic":
        y, g = line_quadratic_crp(32), line_quadratic_gauge()
    else:
        y = sphere_spiral_crp(32)
        g = connection_gauge(SPHERE) if gauge == "connection" else chart_gauge(SPHERE, SPHERE.charts()[0])
    # the chart gauge's defect is exactly zero up to rounding
    want = per_node_log_almost_additivity(y, g)
    assert log_almost_additivity_defect(y, g) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_transport_commutation_matches_the_per_pair_loop():
    y = sphere_spiral_crp(16)
    u1 = chart_gauge(SPHERE, SPHERE.charts()[0]).par
    u2 = connection_gauge(SPHERE).par
    want = per_node_transport_commutation(y, u1, u2)
    assert transport_commutation_defect(y, u1, u2) == pytest.approx(want, rel=1e-12, abs=1e-17)


def test_flat_smooth_integral_matches_the_node_by_node_sum():
    y = sphere_spiral_crp(64, T=np.pi / 2)
    chart = SPHERE.charts()[0]
    z = ControlledPath(y.times, chart.to_coords(y.points), chart.dto(y.points) @ y.derivative)

    def form(x):
        return np.array([[np.sin(x[0]), x[0] * x[1]], [x[1] ** 2, 1.0]])

    got = flat_smooth_integral(form, z, y.driver)
    assert np.max(np.abs(got.values - compensated_sum(form, z, y.driver))) <= 1e-14
    assert np.max(np.abs(got.derivative - np.stack([form(x) @ zd for x, zd in zip(z.values, z.derivative)]))) <= 1e-15
    # finite at the nodes only
    with pytest.raises(DomainError, match="stencil point"):
        flat_smooth_integral(lambda x: form(x) * (1.0 if (z.values == x).all(1).any() else np.nan), z, y.driver)
