from __future__ import annotations

import numpy as np
import pytest

import crp.fixtures as fx
import crp.suite as suite
from crp import Control, ControlledPath, GridMismatch, RoughPath, ShapeError, verify_crp
from crp.controlled import associated_roughpath, driver_as_controlled, dyadic_strides, stability_verdict
from crp.gauges import connection_gauge
from crp.mcrp import verify_gauge_crp
from crp.mrde import rde_solve_manifold
from crp.oneforms import ControlledOneForm, gauge_defect_by_level, gauge_expression, oneform_from_smooth
from crp.pairs import triple_defect
from crp.roughpath import lift_smooth, time_lift
from crp.sewing import defect_by_level, local_expression
from paper_reference import check_rde_gauge_form, dyadic_ladder


def smooth_driver(n=64, T=1.0):
    grid = np.linspace(0.0, T, n + 1)
    return lift_smooth(
        lambda t: np.array([np.sin(t), np.cos(2.0 * t) / 2.0]),
        grid,
        dpath=lambda t: np.array([np.cos(t), -np.sin(2.0 * t)]),
    )


def test_driver_controls_itself():
    rp = smooth_driver()
    rep = verify_crp(driver_as_controlled(rp), rp)
    assert rep["pass"]
    assert np.isfinite(rep["C_remainder"])


def test_nan_value_fails_flat_verifier():
    rp = smooth_driver(32)
    y = driver_as_controlled(rp)
    y.values[5, 0] = np.nan
    rep = verify_crp(y, rp)
    assert not rep["pass"] and np.isnan(rep["C_remainder"]) and rep["worst_pair"] == (0, 5)

def test_constant_path_zero_constants():
    rp = smooth_driver(32)
    n = rp.times.size
    y = ControlledPath(rp.times, np.ones((n, 3)), np.zeros((n, 3, 2)))
    rep = verify_crp(y, rp)
    assert rep["C_remainder"] == 0.0 and rep["C_derivative"] == 0.0
    assert rep["pass"]


def test_flat_verifier_reads_the_constants_of_t_squared():
    # y = t^2 on the time driver: y_t - y_s - 2s (t - s) = (t - s)^2 and |2t - 2s| = 2 (t - s), with omega = t - s
    grid = np.linspace(0.0, 1.0, 257)
    rep = verify_crp(ControlledPath(grid, grid[:, None] ** 2, 2.0 * grid[:, None, None]), time_lift(grid))
    assert rep["C_derivative"] == 2.0 and rep["C_remainder"] == 1.0


def test_grid_mismatch_rejected():
    rp = smooth_driver(32)
    other = time_lift(np.linspace(0, 1, 17))
    with pytest.raises(GridMismatch):
        verify_crp(driver_as_controlled(other), rp)


def test_derivative_of_another_driver_dimension_rejected():
    # three driver columns against a one-dimensional time lift: zero values read as `pass: True` before
    grid = np.linspace(0.0, 1.0, 17)
    y = ControlledPath(grid, np.zeros((17, 2)), np.zeros((17, 2, 3)))
    with pytest.raises(ShapeError, match="3 driver columns"):
        verify_crp(y, time_lift(grid))


def example_67_fixture(eps=0.01, p=2.0):
    """Closed-form degenerate-control path on [0, 2]."""
    n = int(round(2.0 / eps))
    grid = np.linspace(0.0, 2.0, n + 1)
    x = np.maximum(grid - 1.0, 0.0) ** (1.0 / p)
    ydag = np.where(grid <= 0.5, 2.0 - 2.0 * grid, 1.0)
    control = Control.from_callable(
        lambda s, t: np.where(t <= 1.0, 0.0, t - np.maximum(s, 1.0)), grid, p=p
    )
    dx = np.diff(x)
    areas = (0.5 * dx * dx)[:, None, None]
    rp = RoughPath(grid, x[:, None], areas, control)
    y = ControlledPath(grid, x[:, None].copy(), ydag[:, None, None])
    return y, rp


def test_example_67_flat_remainder_constant_diverges():
    y, rp = example_67_fixture()
    rep = verify_crp(y, rp)
    # max ratio is at the pair (0, 1+eps): eps^{-1/p} = 10 for eps=0.01, p=2
    assert abs(rep["C_remainder"] - 10.0) < 1e-9
    assert rep["slope_remainder"] < -0.25
    assert not rep["pass_remainder"]


def test_example_67_delta_restricted_constant_vanishes():
    y, rp = example_67_fixture()
    rep = verify_crp(y, rp, delta=0.5)
    assert rep["C_remainder"] == 0.0
    assert rep["pass_remainder"]


def test_associated_roughpath_satisfies_chen_and_geometry():
    rp = smooth_driver(64)
    z = driver_as_controlled(rp)
    zrp = associated_roughpath(z, rp)
    assert zrp.chen_residual() <= 1e-12
    assert np.allclose(zrp.step_areas, rp.step_areas, atol=1e-14)


class TestDyadicLadder:
    """The stop rule of every ladder, ``dyadic_strides``; the defect ladders take it with min_steps 4."""

    @staticmethod
    def steps(n, levels, min_steps):
        strides, _ = dyadic_strides(np.linspace(0.0, 1.0, n + 1), levels, min_steps)
        return [n // s for s in strides]

    @staticmethod
    def defect_steps(n, levels):
        """The step counts of the flat defect ladder's grids, read off its meshes."""
        rp = smooth_driver(n)
        alpha = ControlledPath(rp.times, np.ones((n + 1, 2, 2)), np.zeros((n + 1, 2, 2, 2)))
        return [round(1.0 / h) for h, _ in defect_by_level(alpha, driver_as_controlled(rp), rp, levels)]

    def test_stops_after_an_odd_step_count(self):
        assert self.steps(40, 9, 4) == self.defect_steps(40, 9) == [40, 20, 10, 5]
        assert self.steps(40, 9, 8) == [40, 20, 10, 5]

    def test_stops_below_min_steps(self):
        assert self.steps(64, 9, 8) == [64, 32, 16, 8, 4]
        assert self.steps(64, 9, 4) == self.defect_steps(64, 9) == [64, 32, 16, 8, 4, 2]
        assert self.steps(24, 9, 8) == [24, 12, 6]
        assert self.steps(24, 9, 4) == self.defect_steps(24, 9) == [24, 12, 6, 3]

    def test_stops_at_levels(self):
        assert self.steps(64, 2, 4) == self.defect_steps(64, 2) == [64, 32]
        assert self.steps(64, 1, 4) == self.defect_steps(64, 1) == [64]


def _coarsened_flat_ladder(alpha, y, rp, levels):
    """The flat defect ladder on per-level copies of the three paths."""

    def measure(r, a, yy):
        return triple_defect(lambda i, j: local_expression(a, yy, r.area_pairs(i, j), i, j), r.n_steps, 1)

    return list(zip(*dyadic_ladder(measure, (rp, alpha, y), levels, 4)))


def _coarsened_gauge_ladder(a, y, gauge, levels):
    """The gauge defect ladder on per-level copies of the path and the one-form."""
    stensor = gauge.compatibility()

    def measure(yy, aa):
        return triple_defect(lambda i, j: gauge_expression(aa, yy, gauge, stensor, i, j), yy.times.size - 1, 1)

    return list(zip(*dyadic_ladder(measure, (y, a), levels, 4)))


def test_criterion_02_ladders_equal_the_coarsened_reference(monkeypatch):
    # the ladders read each coarse triple at its stride on the fine grid, the reference on per-level
    # copies whose coarse areas are re-summed: the pure-area ladders agree exactly, the smooth ones to
    # rounding (at most 3.2e-11 relative, 2e-17 absolute, on the second grid of flat-defect-smooth)
    seen = []
    for name, ladder, reference in [
        ("defect_by_level", defect_by_level, _coarsened_flat_ladder),
        ("gauge_defect_by_level", gauge_defect_by_level, _coarsened_gauge_ladder),
    ]:

        def recorded(*args, levels, ladder=ladder, reference=reference):
            rows = ladder(*args, levels)
            seen.append((rows, reference(*args, levels)))
            return rows

        monkeypatch.setattr(suite, name, recorded)
    checks = suite.criterion_02_sewing_order()
    assert [c["check"] for c in checks] == [
        "flat-defect-smooth", "flat-defect-pure-area", "gauge-defect-smooth", "gauge-defect-pure-area"
    ]
    assert all(c["pass"] for c in checks) and len(seen) == 4
    for check, (rows, ref) in zip(checks, seen):
        (hs, ds), (hs_ref, ds_ref) = zip(*rows), zip(*ref)
        assert hs == hs_ref and len(hs) == 5
        if check["check"].endswith("pure-area"):
            assert np.array_equal(ds, ds_ref)
        else:
            np.testing.assert_allclose(ds, ds_ref, rtol=1e-10, atol=0.0)


class TestStabilityVerdict:
    def test_exact_constants_pass(self):
        assert stability_verdict([0.0, 0.0, 0.0], [0.1, 0.2, 0.4]) == (0.0, True)

    def test_diverging_constants_fail(self):
        slope, ok = stability_verdict([8.0, 4.0, 2.0], [0.1, 0.2, 0.4])
        assert abs(slope + 1.0) < 1e-12 and not ok

    def test_stable_constants_pass(self):
        slope, ok = stability_verdict([1.0, 1.0, 1.0], [0.1, 0.2, 0.4])
        assert abs(slope) < 1e-12 and ok

    def test_nan_constant_fails(self):
        assert not stability_verdict([np.nan, 1.0, 1.0], [0.1, 0.2, 0.4])[1]


def _area_form(m):
    return np.array([[-m[1], m[0], 0.0]])


def _meshes(times, count):
    return [float(np.max(np.diff(times[:: 2**k]))) for k in range(count)]


class TestLadderCallers:
    """Every multilevel check walks the same ladder: on 24 steps the verifiers
    (min_steps 8) stop at 6 steps and the defect ladders (min_steps 4) at 3."""

    def test_flat_verifier(self):
        y = fx.sphere_spiral_crp(24)
        rep = verify_crp(y.as_flat(), y.driver, levels=9)
        assert rep["levels"]["h"] == _meshes(y.times, 3)

    def test_gauge_verifier(self):
        y = fx.sphere_spiral_crp(24)
        rep = verify_gauge_crp(y, connection_gauge(fx.SPHERE), levels=9)
        assert rep["levels"]["h"] == _meshes(y.times, 3)

    def test_oneform_verifier(self, monkeypatch):
        y = fx.sphere_spiral_crp(24)
        form = oneform_from_smooth(_area_form, y, connection_gauge(fx.SPHERE).par)
        sizes = []
        original = ControlledOneForm._pair_constants

        def counted(self, delta, strides=(1,)):
            sizes.append([(self.times.size - 1) // s for s in strides])
            return original(self, delta, strides)

        monkeypatch.setattr(ControlledOneForm, "_pair_constants", counted)
        rep = form.verify(levels=9)
        assert sizes == [[24, 12, 6]]  # one sweep measures all three grids
        assert rep["levels"]["h"] == _meshes(y.times, 3)

    def test_flat_defect_ladder(self):
        rp = fx.smooth_2d_driver(24)
        n = rp.times.size
        alpha = ControlledPath(rp.times, np.ones((n, 2, 2)), np.zeros((n, 2, 2, 2)))
        levels = defect_by_level(alpha, driver_as_controlled(rp), rp, levels=9)
        assert [h for h, _ in levels] == _meshes(rp.times, 4)

    def test_gauge_defect_ladder(self):
        y = fx.sphere_spiral_crp(24)
        g = connection_gauge(fx.SPHERE)
        levels = gauge_defect_by_level(oneform_from_smooth(_area_form, y, g.par), y, g, levels=9)
        assert [h for h, _ in levels] == _meshes(y.times, 4)

    def test_rde_gauge_form_ladder(self):
        field = fx.sphere_projection_field()
        sol = rde_solve_manifold(field, fx.linear_drive_driver(24), np.array([0.0, 1.0, 0.0]))
        rep = check_rde_gauge_form(sol, field, connection_gauge(fx.SPHERE), levels=9)
        assert [h for h, _ in rep["levels"]] == _meshes(sol.times, 4)
