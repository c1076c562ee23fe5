from __future__ import annotations

import numpy as np
import pytest

from crp import SO3, ChartManifold, DomainError, GaugeMismatch, NotOnManifold, OffGrid
from crp.fixtures import (
    FLAT3,
    LINE,
    SO3M,
    SPHERE,
    equator_crp,
    example_67_crp,
    flat3_crp,
    line_quadratic_crp,
    so3_curve_crp,
    sphere_observables,
    sphere_spiral_crp,
)
from crp.gauges import chart_gauge, connection_gauge, standard_gauge
from crp.linalg import so3_exp
from crp.mcrp import (
    crp_from_projection,
    crp_from_smooth_curve,
    crp_pushforward,
    ratio_at_pair,
    scalar_test_suite,
    verify_chart_crp,
    verify_gauge_crp,
)
from crp.roughpath import lift_smooth, time_lift
from paper_reference import basepoint_residual, pushforward_covariance_residual


class TestProjectionConstruction:
    def test_equator_derivative_is_projector(self):
        y = equator_crp(64)
        m = y.points[5]
        assert np.allclose(y.derivative[5], np.eye(3) - np.outer(m, m), atol=1e-12)

    def test_basepoint_consistency(self):
        y = sphere_spiral_crp(64)
        assert basepoint_residual(y) <= 1e-10

    def test_nan_sample_makes_the_residual_nan(self):
        y = sphere_spiral_crp(8)
        y.derivative[3, 0, 0] = np.nan
        assert np.isnan(basepoint_residual(y))  # never read as finite, so `<= tol` fails

    def test_off_manifold_sample_rejected(self):
        grid = np.linspace(0.0, 1.0, 9)
        rp = lift_smooth(
            lambda t: np.array([1.0 + 0.1 * t, 0.0, 0.0]),
            grid,
            dpath=lambda t: np.array([0.1, 0.0, 0.0]),
        )
        with pytest.raises(NotOnManifold):
            crp_from_projection(SPHERE, rp)

    def test_zero_driver_values_rejected(self):
        # the sphere's projection of 0 is NaN, whose distance compares False against any tolerance
        rp = lift_smooth(lambda t: np.zeros(3), np.linspace(0.0, 1.0, 9), dpath=lambda t: np.zeros(3))
        with pytest.raises(NotOnManifold, match="sample 0"):
            crp_from_projection(SPHERE, rp)

    @pytest.mark.parametrize(
        "manifold,scale,first",
        [
            (SO3M, lambda t: 2.0, 0),  # 2 R(t) lies 2 sqrt(3) - sqrt(3) = 1.73 from SO(3)
            (SPHERE, lambda t: 1.5, 0),  # a circle of radius 1.5
            (SPHERE, lambda t: 1.0 + (t > 0.55), 5),  # the first sample past t = 0.55 doubles
        ],
    )
    def test_smooth_curve_off_the_manifold_rejected(self, manifold, scale, first):
        rp = time_lift(np.linspace(0.0, 1.0, 9))
        if manifold is SO3M:
            curve, dcurve = lambda t: scale(t) * so3_exp(np.array([0.0, 0.0, t])), lambda t: np.zeros((3, 3))
        else:
            curve, dcurve = lambda t: scale(t) * np.array([np.cos(t), np.sin(t), 0.0]), lambda t: np.zeros(3)
        with pytest.raises(NotOnManifold, match=f"sample {first} lies") as err:
            crp_from_smooth_curve(manifold, curve, dcurve, rp)
        assert err.value.index == first

    def test_points_do_not_alias_the_driver(self):
        y = sphere_spiral_crp(16)
        assert not np.shares_memory(y.points, y.driver.values)
        want = y.driver.values.copy()
        y.points[3, 0] = np.nan
        assert np.array_equal(y.driver.values, want)

    def test_constant_path(self):
        grid = np.linspace(0.0, 1.0, 9)
        rp = lift_smooth(
            lambda t: np.array([1.0, 0.0, 0.0]), grid, dpath=lambda t: np.zeros(3)
        )
        y = crp_from_projection(SPHERE, rp)
        rep = verify_gauge_crp(y, connection_gauge(SPHERE))
        assert rep["C2"] == 0.0 and rep["pass"]


class TestGaugeVerifier:
    def test_equator_passes_connection_gauge(self):
        y = equator_crp(256)
        rep = verify_gauge_crp(y, connection_gauge(SPHERE))
        assert rep["pass"], rep
        assert np.isfinite(rep["C2"]) and np.isfinite(rep["C1"])

    def test_equator_derivative_constant_is_one_under_connection_gauge(self):
        # U(y_s, y_t) P(y_t) - P(y_s) = e_s (e_t - e_s)^T for the unit tangents e of the equator, so its norm is
        # the chord 2 sin((t - s) / 2) = |x_t - x_s|, whose largest ratio to t - s calibrated the control
        rep = verify_gauge_crp(equator_crp(64), connection_gauge(SPHERE))
        assert rep["C_derivative"] == pytest.approx(1.0, rel=1e-12)

    def test_spiral_passes_both_gauges(self):
        y = sphere_spiral_crp(256)
        g1 = connection_gauge(SPHERE)
        g2 = chart_gauge(SPHERE, SPHERE.charts()[0])
        r1 = verify_gauge_crp(y, g1)
        r2 = verify_gauge_crp(y, g2)
        assert r1["pass"] and r2["pass"]
        # constants are gauge-covariant within a modest factor
        ratio = max(r1["C2"], r2["C2"]) / max(min(r1["C2"], r2["C2"]), 1e-300)
        assert ratio < 1e3

    def test_so3_curve_passes(self):
        y = so3_curve_crp(128)
        rep = verify_gauge_crp(y, connection_gauge(y.manifold))
        assert rep["pass"]

    def test_gauge_and_oneform_verifiers_default_to_the_domain_feasible_delta(self):
        from crp.mcrp import domain_feasible_delta
        from crp.oneforms import oneform_from_smooth

        y = equator_crp(64)
        conn, chart = connection_gauge(SPHERE), chart_gauge(SPHERE, SPHERE.charts()[0])
        # the loop leaves the geodesic ball within its horizon; a chart gauge reads every pair
        assert domain_feasible_delta(y, conn) < domain_feasible_delta(y, chart) == y.times[-1] - y.times[0]
        for gauge in (conn, chart):
            form = oneform_from_smooth(lambda m: np.array([[-m[1], m[0], 0.0]]), y, gauge.par)
            assert verify_gauge_crp(y, gauge)["delta"] == form.verify()["delta"] == domain_feasible_delta(y, gauge)

    def test_domain_error_names_pair(self):
        # near-antipodal pair on the sphere exits the gauge ball
        grid = np.linspace(0.0, np.pi * 0.995, 65)
        rp = lift_smooth(
            lambda t: np.array([np.cos(t), np.sin(t), 0.0]),
            grid,
            dpath=lambda t: np.array([-np.sin(t), np.cos(t), 0.0]),
        )
        y = crp_from_projection(SPHERE, rp)
        with pytest.raises(DomainError):
            verify_gauge_crp(y, connection_gauge(SPHERE), delta=np.pi)


    def test_gauge_of_another_manifold_raises_gauge_mismatch(self):
        with pytest.raises(GaugeMismatch):
            verify_gauge_crp(sphere_spiral_crp(16), connection_gauge(SO3()))

    def test_nan_sample_fails_gauge_and_oneform_verifiers(self):
        from crp.oneforms import oneform_from_smooth

        y = sphere_spiral_crp(64)
        gauge = connection_gauge(SPHERE)
        form = oneform_from_smooth(lambda m: np.array([[-m[1], m[0], 0.0]]), y, gauge.par)
        y.points[20, 0] = np.nan
        rep = verify_gauge_crp(y, gauge)
        assert not rep["pass"] and np.isnan(rep["C2"]) and rep["worst_pair"] == (0, 20)
        rep = form.verify()
        assert not rep["pass"] and np.isnan(rep["C_remainder"])

    def test_sample_outside_chart_raises_even_when_no_pair_is_probed(self):
        # a meridian climbing past m3 = 0.9, out of the north stereographic chart
        grid = np.linspace(0.0, 0.49 * np.pi, 33)
        rp = lift_smooth(
            lambda t: np.array([np.cos(t), 0.0, np.sin(t)]),
            grid,
            dpath=lambda t: np.array([-np.sin(t), 0.0, np.cos(t)]),
        )
        y = crp_from_projection(SPHERE, rp)
        gauge = chart_gauge(SPHERE, SPHERE.charts()[0])
        with pytest.raises(DomainError, match="outside chart"):
            verify_gauge_crp(y, gauge, delta=0.5 * (grid[1] - grid[0]))

class TestChartVerifier:
    def test_flat_identity_chart_matches_flat_verifier(self):
        from crp.controlled import verify_crp

        y = flat3_crp(128)
        chart = FLAT3.charts()[0]
        rep_chart = verify_chart_crp(y, chart)
        rep_flat = verify_crp(y.as_flat(), y.driver)
        assert abs(rep_chart["C_remainder"] - rep_flat["C_remainder"]) < 1e-12
        assert abs(rep_chart["C_derivative"] - rep_flat["C_derivative"]) < 1e-12

    def test_window_ends_must_be_grid_nodes(self):
        y = flat3_crp(64)
        chart = FLAT3.charts()[0]
        h = y.times[1] - y.times[0]
        rep = verify_chart_crp(y, chart, window=(y.times[8], y.times[40]))
        assert rep["levels"]["h"][0] == pytest.approx(h)
        with pytest.raises(OffGrid):
            verify_chart_crp(y, chart, window=(y.times[8] + 0.3 * h, y.times[40]))
        with pytest.raises(OffGrid):
            verify_chart_crp(y, chart, window=(y.times[8], y.times[-1] + h))

    def test_spiral_passes_stereographic_chart(self):
        y = sphere_spiral_crp(256)
        rep = verify_chart_crp(y, SPHERE.charts()[0])
        assert rep["pass"]


class TestExample67:
    def test_gauge_passes_at_half_delta(self):
        y = example_67_crp()
        rep = verify_gauge_crp(y, standard_gauge(LINE), delta=0.5)
        assert rep["C2"] == 0.0
        assert rep["pass_remainder"]

    def test_chart_fails_with_ratio_ten(self):
        y = example_67_crp()
        rep = verify_chart_crp(y, LINE.charts()[0])
        assert abs(rep["C_remainder"] - 10.0) < 1e-9
        assert not rep["pass_remainder"]
        r = ratio_at_pair(y, LINE.charts()[0], 0.0, y.times[np.searchsorted(y.times, 1.0) + 1])
        assert abs(r - 10.0) < 1e-9

    def test_gauge_fails_at_existential_delta(self):
        # over the full horizon the gauge verdict matches the chart verdict
        y = example_67_crp()
        rep = verify_gauge_crp(y, standard_gauge(LINE), delta=2.0)
        assert not rep["pass_remainder"]


class TestEquivalence:
    @pytest.mark.parametrize(
        "maker,n",
        [(equator_crp, 128), (sphere_spiral_crp, 128), (so3_curve_crp, 64), (flat3_crp, 128), (line_quadratic_crp, 128)],
    )
    def test_gauge_and_chart_verdicts_agree(self, maker, n):
        y = maker(n)
        mani = y.manifold
        gauge = connection_gauge(mani)
        from crp.mcrp import domain_feasible_delta

        chart = mani.chart_at(y.points[0])
        g = verify_gauge_crp(y, gauge, delta=domain_feasible_delta(y, gauge))
        try:
            c = verify_chart_crp(y, chart)
            chart_pass = c["pass_remainder"]
        except Exception:
            chart_pass = None
        if chart_pass is not None:
            assert g["pass_remainder"] == chart_pass

    def test_example_67_verdicts_agree_existentially(self):
        y = example_67_crp()
        g = verify_gauge_crp(y, standard_gauge(LINE), delta=2.0)
        c = verify_chart_crp(y, LINE.charts()[0])
        assert g["pass_remainder"] == c["pass_remainder"] == False  # noqa: E712


class TestPushforward:
    def test_identity_pushforward(self):
        y = sphere_spiral_crp(64)
        out = crp_pushforward(lambda m: m, lambda m: np.eye(3), y, SPHERE)
        assert np.allclose(out.flat_points(), y.flat_points())
        assert np.allclose(out.derivative, y.derivative)

    def test_pushforward_to_the_origin_raises_domain_error(self):
        # the sphere's projection of 0 is NaN: a typed error, not a RuntimeWarning
        with pytest.raises(DomainError, match="sample 0"):
            crp_pushforward(lambda m: np.zeros(3), lambda m: np.zeros((3, 3)), sphere_spiral_crp(8), SPHERE)

    def test_radial_projection_to_sphere_is_crp(self):
        y = flat3_crp(256)

        def f(x):
            return x / np.linalg.norm(x)

        def jac(x):
            r = np.linalg.norm(x)
            u = x / r
            return (np.eye(3) - np.outer(u, u)) / r

        out = crp_pushforward(f, jac, y, SPHERE)
        rep = verify_gauge_crp(out, connection_gauge(SPHERE))
        assert rep["pass"], rep

    def test_covariance_of_composition(self):
        y = flat3_crp(64)

        def f(x):
            return x / np.linalg.norm(x)

        def jf(x):
            r = np.linalg.norm(x)
            u = x / r
            return (np.eye(3) - np.outer(u, u)) / r

        def g(m):
            return np.array([m[2]])

        def jg(m):
            return np.array([[0.0, 0.0, 1.0]])

        res = pushforward_covariance_residual(f, jf, g, jg, y, SPHERE, ChartManifold(1, radius=5.0))
        assert res <= 1e-10

    def test_height_of_equator_is_constant_zero(self):
        y = equator_crp(64)
        out = crp_pushforward(
            lambda m: np.array([m[2]]), lambda m: np.array([[0.0, 0.0, 1.0]]), y, ChartManifold(1, radius=5.0)
        )
        assert np.max(np.abs(out.points)) < 1e-12
        # derivative is the third row of the projector
        want = np.stack([(np.eye(3) - np.outer(p, p))[2][None, :] for p in y.points])
        assert np.allclose(out.derivative, want, atol=1e-12)


class TestScalarSuite:
    def test_constant_observable_zero(self):
        y = equator_crp(64)
        rep = scalar_test_suite(y, [(lambda m: 1.0, lambda m: np.zeros(3))])
        assert rep["C_remainder"] == 0.0 and rep["pass"]

    def test_sphere_observables_pass(self):
        y = sphere_spiral_crp(256)
        rep = scalar_test_suite(y, sphere_observables())
        assert rep["pass"]


def test_serialization_roundtrip():
    y = equator_crp(16)
    doc = y.to_json()
    assert set(doc) == {"manifold", "times", "points", "gubinelli", "driver"}
    import json

    json.dumps(doc)  # must be serializable


@pytest.mark.parametrize("maker", [equator_crp, sphere_spiral_crp])
def test_crp_class_is_gauge_independent(maker):
    # connection-gauge and chart-gauge verdicts agree fixture by fixture
    y = maker(128)
    conn = connection_gauge(SPHERE)
    chart = chart_gauge(SPHERE, SPHERE.charts()[0])
    r1 = verify_gauge_crp(y, conn)
    r2 = verify_gauge_crp(y, chart)
    assert r1["pass"] == r2["pass"] == True  # noqa: E712
