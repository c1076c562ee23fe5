from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from crp import ControlledPath, Explosion
from crp.controlled import driver_as_controlled
from crp.convergence import ConvergenceReport, estimate_order
from crp.fixtures import (
    SO3M,
    SPHERE,
    equator_crp,
    latitude_crp,
    sphere_spiral_crp,
)
from crp.gauges import connection_gauge
from crp.linalg import hat, so3_exp
from crp.manifolds import Manifold
from crp.mcrp import crp_from_projection, verify_gauge_crp
from crp.oneforms import oneform_from_smooth
from crp.roughpath import lift_smooth, pure_area_driver, time_lift
from crp.transport import (
    MatrixGroup,
    chart_christoffels,
    group_rde,
    maurer_cartan_check,
    parallel_translate_frame,
    roll,
    rolled_integral_check,
    unroll,
)
from paper_reference import ConnectionForm, frame_transport_defect, horizontal_lift, vertical_horizontal_split

SO3G = MatrixGroup("so3")


def tangent_frame(m):
    """Deterministic orthonormal frame of T_mS^2."""
    ref = np.array([0.0, 0.0, 1.0]) if abs(m[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(m, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(m, e1)
    return np.stack([e1, e2], axis=1)


def meridian_crp(n, phase=0.3):
    """Great circle through both poles, so no single stereographic chart covers it."""
    grid = np.linspace(0.0, 2.0 * np.pi, n + 1)
    rp = lift_smooth(
        lambda t: np.array([np.sin(t + phase), 0.0, np.cos(t + phase)]),
        grid,
        dpath=lambda t: np.array([np.cos(t + phase), 0.0, -np.sin(t + phase)]),
    )
    return crp_from_projection(SPHERE, rp)


def smooth_alg_path(n, T=1.0):
    """Algebra-valued controlled path z(t) with closed-form derivative."""
    grid = np.linspace(0.0, T, n + 1)
    rp = time_lift(grid)
    vals = np.stack([np.array([np.sin(t), 0.3 * t, 0.2 * np.cos(t) - 0.2]) for t in grid])
    dag = np.stack([np.array([[np.cos(t)], [0.3], [-0.2 * np.sin(t)]]) for t in grid])
    return ControlledPath(grid, vals, dag), rp


class TestConnectionForm:
    def connection(self, kappa=0.7):
        return ConnectionForm(SPHERE, SO3G, lambda m: kappa * SPHERE.tangent_projector(m))

    def test_axioms(self):
        rep = self.connection().axiom_residuals()
        assert rep["vertical"] <= 1e-10
        assert rep["equivariance"] <= 1e-8

    def test_vertical_horizontal_split(self):
        conn = self.connection()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(5):
            m = SPHERE.random_point(rng)
            g = SO3M.random_point(rng)
            worst = max(worst, vertical_horizontal_split(conn, m, g))
        assert worst <= 1e-10


class TestGroupRDE:
    def test_zero_path_constant(self):
        z, rp = smooth_alg_path(32)
        zero = ControlledPath(z.times, np.zeros_like(z.values), np.zeros_like(z.derivative))
        g0 = so3_exp(np.array([0.1, 0.2, -0.3]))
        sol = group_rde(zero, rp, g0, SO3G)
        assert np.max(np.abs(sol.points - g0)) == 0.0

    def test_constant_direction_matrix_exponential(self):
        a0 = 0.9 * np.array([0.2, -0.5, 0.8])
        grid = np.linspace(0.0, 1.0, 1025)
        rp = time_lift(grid)
        z = ControlledPath(grid, np.outer(grid, a0), np.broadcast_to(a0[:, None], (1025, 3, 1)).copy())
        g0 = so3_exp(np.array([0.3, 0.0, 0.1]))
        sol = group_rde(z, rp, g0, SO3G)
        want = expm(-hat(a0)) @ g0
        assert np.max(np.abs(sol.points[-1] - want)) <= 1e-9

    def test_equivariance_exact(self):
        z, rp = smooth_alg_path(64)
        h = so3_exp(np.array([0.5, -0.1, 0.2]))
        lift_e = group_rde(z, rp, np.eye(3), SO3G)
        lift_h = group_rde(z, rp, h, SO3G)
        assert np.max(np.abs(lift_h.points - np.einsum("pij,jk->pik", lift_e.points, h))) <= 1e-12

    def test_orthogonality_preserved(self):
        z, rp = smooth_alg_path(256)
        sol = group_rde(z, rp, np.eye(3), SO3G)
        gtg = np.einsum("pji,pjk->pik", sol.points, sol.points)
        assert np.max(np.abs(gtg - np.eye(3))) <= 1e-8

    def test_maurer_cartan_duality(self):
        errs = []
        for n in (64, 128, 256, 512):
            z, rp = smooth_alg_path(n)
            sol = group_rde(z, rp, np.eye(3), SO3G)
            rep = maurer_cartan_check(sol, z, SO3G)
            errs.append(rep["diff_sup"])
        assert errs[-1] <= 1e-5
        # the exponential step is g_{i+1} = expm(-hat(dz_i)) g_i here (a one-dimensional
        # driver pushes symmetric step areas), so the duality holds to rounding on every
        # level, tighter than any order a fit could read from the residuals
        assert max(errs) <= 1e-12

    def test_solution_is_crp_on_group(self):
        z, rp = smooth_alg_path(256)
        sol = group_rde(z, rp, np.eye(3), SO3G)
        rep = verify_gauge_crp(sol, connection_gauge(SO3M))
        assert rep["pass"], rep


class TestHorizontalLift:
    def test_flat_connection_keeps_fiber_constant(self):
        conn = ConnectionForm(SPHERE, SO3G, lambda m: np.zeros((3, 3)))
        y = sphere_spiral_crp(64)
        lift = horizontal_lift(y, conn, np.eye(3))
        assert np.max(np.abs(lift.group_path.points - np.eye(3))) <= 1e-14

    def test_equivariance_of_lift(self):
        conn = ConnectionForm(SPHERE, SO3G, lambda m: 0.5 * SPHERE.tangent_projector(m))
        y = sphere_spiral_crp(64)
        h = so3_exp(np.array([0.2, 0.7, -0.4]))
        l1 = horizontal_lift(y, conn, np.eye(3))
        l2 = horizontal_lift(y, conn, h)
        got = np.einsum("pij,jk->pik", l1.group_path.points, h)
        assert np.max(np.abs(l2.group_path.points - got)) <= 1e-10

    def test_smooth_ode_oracle(self):
        kappa = 0.6
        conn = ConnectionForm(SPHERE, SO3G, lambda m: kappa * SPHERE.tangent_projector(m))
        n = 1024
        y = equator_crp(n, T=1.0)
        lift = horizontal_lift(y, conn, np.eye(3))

        # fine RK4 on g' = -Gamma(y')^ g along the equator
        def gam(t):
            dy = np.array([-np.sin(t), np.cos(t), 0.0])
            return kappa * hat(dy)

        g = np.eye(3)
        h = 1e-4
        steps = int(round(1.0 / h))
        for k in range(steps):
            t = k * h

            def rhs(tt, gg):
                return -gam(tt) @ gg

            k1 = rhs(t, g)
            k2 = rhs(t + h / 2, g + h / 2 * k1)
            k3 = rhs(t + h / 2, g + h / 2 * k2)
            k4 = rhs(t + h, g + h * k3)
            g = g + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(lift.group_path.points[-1] - g)) <= 1e-7

    def test_horizontality_residual_small(self):
        conn = ConnectionForm(SPHERE, SO3G, lambda m: 0.4 * SPHERE.tangent_projector(m))
        y = sphere_spiral_crp(128)
        lift = horizontal_lift(y, conn, np.eye(3))
        assert lift.horizontality_residual() <= 1e-4


class TestFrameTransport:
    def test_constant_path_constant_frame(self):
        grid = np.linspace(0.0, 1.0, 17)
        from crp.roughpath import lift_smooth

        rp = lift_smooth(lambda t: np.array([1.0, 0.0, 0.0]), grid, dpath=lambda t: np.zeros(3))
        from crp.mcrp import crp_from_projection

        y = crp_from_projection(SPHERE, rp)
        u0 = tangent_frame(y.points[0])
        lift = parallel_translate_frame(y, u0)
        assert np.max(np.abs(lift.frames - u0)) <= 1e-12

    def test_geodesic_segment_matches_closed_form_transport(self):
        n = 4096
        y = equator_crp(n, T=2.0)
        u0 = tangent_frame(y.points[0])
        lift = parallel_translate_frame(y, u0)
        want = SPHERE.transport(y.points[-1], y.points[0]) @ u0
        assert np.max(np.abs(lift.frames[-1] - want)) <= 1e-7

    def test_short_pair_transport_slope(self):
        y = sphere_spiral_crp(256)
        u0 = tangent_frame(y.points[0])
        lift = parallel_translate_frame(y, u0)
        errs, hs = [], []
        for step in (1, 2, 4, 8, 16):
            errs.append(max(frame_transport_defect(lift, step=step), 1e-18))
            hs.append(step * float(np.max(np.diff(y.times))))
        slope, _, exact = estimate_order(errs, hs, discard_coarsest=False)
        assert exact or slope >= 1.75

    def test_latitude_holonomy_closed_form(self):
        theta = np.pi / 3
        n = 4096
        y = latitude_crp(n, theta=theta)
        u0 = tangent_frame(y.points[0])
        lift = parallel_translate_frame(y, u0)
        angle = abs(lift.holonomy_angle())
        want = 2.0 * np.pi * (1.0 - np.cos(theta))
        want = min(want, 2.0 * np.pi - want)  # principal angle
        assert abs(angle - want) <= 1e-6

    def test_meridian_segments_match_margin_scan(self, margin_scan):
        y = meridian_crp(256)
        u0 = tangent_frame(y.points[0])
        lift = parallel_translate_frame(y, u0)
        names = [(i0, i1, c.name) for i0, i1, c in lift.segments]
        assert names == margin_scan(y.points, SPHERE.charts())
        assert len(names) == 3
        # rolling the anti-development back re-charts along its own points
        z, _ = unroll(y, u0, lift=lift)
        y2, lift2 = roll(z, y.driver, SPHERE, y.points[0], u0)
        assert [(i0, i1, c.name) for i0, i1, c in lift2.segments] == margin_scan(y2.points, SPHERE.charts())
        assert len(lift2.segments) == 3

    def test_leaving_every_chart_reports_the_last_valid_time(self):
        y = meridian_crp(256, phase=np.pi / 2)  # from the equator down, round and up to the north pole
        north = SPHERE.charts()[0]
        first_out = next(i for i, p in enumerate(y.points) if north.margin(p) <= 0)
        with pytest.raises(Explosion, match="left every atlas chart") as exc:
            parallel_translate_frame(y, tangent_frame(y.points[0]), atlas=[north])
        assert exc.value.time == y.times[first_out - 1]


class TestDevelopment:
    def test_unroll_geodesic_is_straight_line(self):
        n = 4096
        y = equator_crp(n, T=2.0)
        u0 = tangent_frame(y.points[0])
        z, _ = unroll(y, u0)
        speeds = np.linalg.norm(np.diff(z.values, axis=0), axis=1) / np.diff(z.times)
        direction = np.diff(z.values, axis=0)
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        assert np.max(np.abs(speeds - 1.0)) <= 1e-6
        assert np.max(np.abs(direction - direction[0])) <= 1e-6
        total = np.sum(np.linalg.norm(np.diff(z.values, axis=0), axis=1))
        assert abs(total - 2.0) <= 1e-6

    def test_unroll_constant_path_is_zero(self):
        from crp.roughpath import lift_smooth
        from crp.mcrp import crp_from_projection

        grid = np.linspace(0.0, 1.0, 17)
        rp = lift_smooth(lambda t: np.array([0.0, 1.0, 0.0]), grid, dpath=lambda t: np.zeros(3))
        y = crp_from_projection(SPHERE, rp)
        z, _ = unroll(y, tangent_frame(y.points[0]))
        assert np.max(np.abs(z.values)) <= 1e-14

    def test_equator_loop_unrolls_with_length_preserved(self):
        n = 8192  # full 2 pi loop: the h^2 length drift needs one level past 2^12
        y = equator_crp(n)
        z, _ = unroll(y, tangent_frame(y.points[0]))
        total = np.sum(np.linalg.norm(np.diff(z.values, axis=0), axis=1))
        assert abs(total - 2.0 * np.pi) <= 1e-6

    def test_roll_line_gives_geodesic(self):
        n = 512
        grid = np.linspace(0.0, 1.5, n + 1)
        rp = time_lift(grid)
        vals = np.stack([np.array([t, 0.0]) for t in grid])
        dag = np.zeros((n + 1, 2, 1))
        dag[:, 0, 0] = 1.0
        z = ControlledPath(grid, vals, dag)
        o = np.array([0.0, 1.0, 0.0])
        u0 = tangent_frame(o)
        y, _ = roll(z, rp, SPHERE, o, u0)
        want = np.stack([SPHERE.exp(o, t * u0[:, 0]) for t in grid])
        assert np.max(np.linalg.norm(y.points - want, axis=1)) <= 1e-5

    def test_roundtrip_unroll_of_roll(self):
        n = 1024
        grid = np.linspace(0.0, 2.0 * np.pi, n + 1)
        rp = time_lift(grid)
        r = np.sin(np.pi / 4)
        vals = np.stack([r * np.array([np.sin(t), 1.0 - np.cos(t)]) for t in grid])
        dag = np.stack([r * np.array([[np.cos(t)], [np.sin(t)]]) for t in grid])
        z = ControlledPath(grid, vals, dag)
        o = np.array([0.0, 1.0, 0.0])
        u0 = tangent_frame(o)
        y, lift = roll(z, rp, SPHERE, o, u0)
        z2, _ = unroll(y, u0, lift=lift)
        assert np.max(np.abs(z2.values - z.values)) <= 1e-5

    def test_roundtrip_roll_of_unroll_is_exact(self):
        # frame transport takes roll's own frame step, so roll inverts unroll up to rounding
        for n in (128, 256, 512, 1024):
            y = sphere_spiral_crp(n, T=np.pi)
            u0 = tangent_frame(y.points[0])
            z, lift = unroll(y, u0)
            y2, _ = roll(z, y.driver, SPHERE, y.points[0], u0)
            assert float(np.max(np.linalg.norm(y.flat_points() - y2.flat_points(), axis=1))) <= 1e-12

    def test_pure_area_roll_roundtrip(self):
        n = 512
        rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, n + 1))
        z = driver_as_controlled(rp)
        o = np.array([0.0, 1.0, 0.0])
        u0 = tangent_frame(o)
        y, lift = roll(z, rp, SPHERE, o, u0)
        rep = verify_gauge_crp(y, connection_gauge(SPHERE))
        assert rep["pass"], rep
        errs, hs = [], []
        for n2 in (64, 128, 256, 512):
            rp2 = pure_area_driver(1.0, np.linspace(0.0, 1.0, n2 + 1))
            z2 = driver_as_controlled(rp2)
            yy, ll = roll(z2, rp2, SPHERE, o, u0)
            back, _ = unroll(yy, u0, lift=ll)
            errs.append(float(np.max(np.abs(back.values - z2.values))))
            hs.append(1.0 / n2)
        # the unroll increments invert the roll steps exactly when the driver
        # has zero first level, so the roundtrip sits at rounding noise
        slope, _, exact = estimate_order(errs, hs)
        assert max(errs) < 1e-10 or exact or slope >= 0.75


class TestRolledIntegral:
    def test_zero_form(self):
        y = sphere_spiral_crp(64)
        g = connection_gauge(SPHERE)
        a = oneform_from_smooth(lambda m: np.zeros((1, 3)), y, g.par)
        rep = rolled_integral_check(a, y, g, tangent_frame(y.points[0]))
        assert rep["diff_sup"] == 0.0

    def test_exact_form_matches_ftc(self):
        y = equator_crp(1024, T=2.0)
        g = connection_gauge(SPHERE)
        a = oneform_from_smooth(lambda m: np.array([[1.0, 0.0, 0.0]]), y, g.par)
        rep = rolled_integral_check(a, y, g, tangent_frame(y.points[0]))
        want = y.points[-1][0] - y.points[0][0]
        assert abs(rep["lhs"].values[-1, 0] - want) <= 1e-6
        assert abs(rep["rhs"].values[-1, 0] - want) <= 1e-6

    def test_generic_form_agreement_slope(self):
        g = connection_gauge(SPHERE)

        def form(m):
            return np.array([[-m[1], m[0], 0.5 * m[2]]])

        errs, hs = [], []
        for n in (128, 256, 512, 1024):
            y = sphere_spiral_crp(n, T=np.pi)
            a = oneform_from_smooth(form, y, g.par)
            rep = rolled_integral_check(a, y, g, tangent_frame(y.points[0]))
            errs.append(rep["diff_sup"])
            hs.append(float(np.max(np.diff(y.times))))
        assert errs[-1] <= 1e-4
        assert ConvergenceReport.from_levels("rolled-integral", (128, 256, 512, 1024), hs, errs, 2.0).passed


def test_chart_christoffels_closed_form_matches_fd():
    chart = SPHERE.charts()[1]
    x = np.array([[0.3, -0.2], [-1.2, 0.8]])
    closed = chart_christoffels(SPHERE, chart, x)
    fd = Manifold.chart_christoffels(SPHERE, chart, x)  # the base class's FD of the transport's chart representative
    assert np.max(np.abs(closed - fd)) <= 1e-7


def test_orthogonality_drift_without_retraction():
    # every step is the exponential of a skew matrix, an exact rotation, so the
    # drift sits at rounding without any retraction (well inside the h^2
    # envelope the invariant allows)
    for n in (64, 256):
        z, rp = smooth_alg_path(n)
        sol = group_rde(z, rp, np.eye(3), SO3G)
        gtg = np.einsum("pji,pjk->pik", sol.points, sol.points)
        assert float(np.max(np.abs(gtg - np.eye(3)))) <= 1e-12


def test_frame_lift_annihilates_connection_form():
    # horizontality of the frame lift: on each chart segment the right-invariant form
    # integrated along the chart frames reproduces minus the integrated chart connection form
    from crp.mcrp import ManifoldControlledPath
    from crp.oneforms import integrate_smooth_oneform

    y = sphere_spiral_crp(256)
    u0 = tangent_frame(y.points[0])
    lift = parallel_translate_frame(y, u0)
    group = MatrixGroup("gl", 2)
    segments = [s for s in lift.segments if s[1] > s[0]]
    assert len(segments) >= 1
    for i0, i1, chart in segments:

        def gamma_fn(m, _chart=chart):
            a = chart_christoffels(SPHERE, _chart, _chart.to_coords(m))
            return np.einsum("ijl,jD->ilD", a, _chart.dto(m)).reshape(4, 3)

        sub = ManifoldControlledPath(
            SPHERE, y.times[i0 : i1 + 1], y.points[i0 : i1 + 1], y.derivative[i0 : i1 + 1], y.driver.restrict(i0, i1)
        )
        z = integrate_smooth_oneform(gamma_fn, sub, connection_gauge(SPHERE))
        ubar = np.stack([chart.dto(y.points[i]) @ lift.frames[i] for i in range(i0, i1 + 1)])
        # chain rule: dg = -(dz) g with dz = Gamma(y' .) in algebra coordinates
        gd = np.empty((i1 - i0 + 1, 4, y.driver_dim))
        for off in range(i1 - i0 + 1):
            gam = z.derivative[off].reshape(2, 2, -1)
            gd[off] = (-np.einsum("abk,bc->ack", gam, ubar[off])).reshape(4, -1)
        gpath = ManifoldControlledPath(group.manifold, z.times, ubar, gd, y.driver.restrict(i0, i1))
        rep = maurer_cartan_check(gpath, z, group)
        assert rep["diff_sup"] <= 1e-4
