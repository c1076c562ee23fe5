"""The chart-stepped RDE solve against a per-step reference, and its explosion check.

``rde_solve_manifold`` steps a field without generators in the charts of a ``ChartWalk``,
one ``mrde._chart_step`` per step.  ``reference_solve`` below is that loop written
plainly, one numpy reduction per check: the FD scale and each column's length by
``np.max``/``np.linalg.norm``, each area row's liveness by ``np.any``, the step's
field columns recomputed from the stored node, and the explosion check by
``np.isfinite`` and ``np.linalg.norm``.  The library must give the same points,
derivative samples and chart switches, bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from crp import ChartManifold, Explosion, NotOnManifold
from crp.fixtures import (
    SPHERE,
    linear_drive_driver,
    smooth_2d_driver,
    so3_constant_driver,
    so3_left_invariant_field,
    so3_right_invariant_field,
    sphere_projection_field,
)
from crp.flatrde import EXPLOSION_BOUND
from crp.mrde import FD_STEP, ChartWalk, ManifoldDrivingField, rde_solve_manifold
from crp.roughpath import time_lift


def reference_step(rep, x, cols, dx, area):
    out = cols @ dx
    scale = max(1.0, float(np.max(np.abs(x))))
    for a in range(dx.size):
        row = area[a]
        if not np.any(row):
            continue
        v = cols[:, a]
        nv = float(np.linalg.norm(v))
        if nv < 1e-300:
            continue
        h = FD_STEP * scale / nv if nv > FD_STEP else FD_STEP * scale
        dcols = (rep(x + h * v) - rep(x - h * v)) / (2.0 * h)
        out = out + dcols @ row
    return out


def reference_solve(field, rp, y0):
    """(points, derivative, chart switch times) of the chart-stepped solve, one node at a time."""
    mani, n, dxs = field.manifold, rp.n_steps, np.diff(rp.values, axis=0)
    y = np.asarray(y0, dtype=float)
    points = np.empty((n + 1,) + mani.point_shape)
    deriv = np.empty((n + 1, mani.flat_dim, rp.dim))
    points[0], deriv[0] = y, field.value_matrix(y)
    walk = ChartWalk(mani, rp.times, y)
    chart = walk.chart
    rep = field.chart_rep(chart, deriv[0].shape)
    x = chart.to_coords(y)
    for i in range(n):
        x = x + reference_step(rep, x, chart.dto(points[i]) @ deriv[i], dxs[i], rp.step_areas[i])
        y = chart.from_coords(x)
        flat = mani.flatten(y)
        if not np.all(np.isfinite(flat)) or float(np.linalg.norm(flat)) > EXPLOSION_BOUND:
            raise Explosion(rp.times[i])
        got = walk.visit(i + 1, y, chart.coords_margin(x))
        if got is not None:
            if got is not chart:
                chart, rep = got, field.chart_rep(got, deriv[0].shape)
            x = chart.to_coords(y)
        points[i + 1] = y
        deriv[i + 1] = field.value_matrix(y)
    return points, deriv, [float(rp.times[i0]) for i0, _, _ in walk.close(n)[1:]]


def rotation_through_a_pole(n=128):
    """A rotation about a horizontal axis that heads for the pole its start chart cannot reach."""
    omega, phi, beta = 1.3, 1.1, -0.4
    axis = np.array([np.cos(phi), np.sin(phi), 0.0])
    y0 = np.cos(beta) * np.array([-np.sin(phi), np.cos(phi), 0.0]) + np.sin(beta) * np.array([0.0, 0.0, 1.0])
    field = ManifoldDrivingField(SPHERE, lambda m: np.cross(omega * axis, m)[:, None], name="rotation")
    return field, time_lift(np.linspace(0.0, np.pi, n + 1)), y0


def flat_nonlinear():
    field = ManifoldDrivingField(
        ChartManifold(2, radius=1e3),
        lambda a: np.array([[np.sin(a[1]), a[0] * a[1]], [np.cos(a[0]), 1.0 + a[1] ** 2]]),
    )
    return field, smooth_2d_driver(96), np.array([0.3, -0.2])


CASES = {  # name: (field, driver, start point)
    "projection-linear-drive": lambda: (sphere_projection_field(), linear_drive_driver(128), np.array([0.0, 0.6, 0.8])),
    "rotation-through-a-pole": rotation_through_a_pole,
    "flat-nonlinear": flat_nonlinear,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_chart_stepped_solve_equals_the_per_step_reference(name):
    field, rp, y0 = CASES[name]()
    sol = rde_solve_manifold(field, rp, y0)
    points, deriv, switches = reference_solve(field, rp, y0)
    assert np.array_equal(sol.points, points)
    assert np.array_equal(sol.derivative, deriv)
    assert sol.meta == {"chart_switches": switches}
    if name == "rotation-through-a-pole":
        assert switches  # the case re-charts
    if name == "projection-linear-drive":
        live = np.any(rp.step_areas != 0, axis=-1)
        assert rp.dim == 3 and np.array_equal(live.sum(axis=1), np.ones(rp.n_steps))  # k = 3, one live area row


@pytest.mark.parametrize(
    "field,driver,y0",
    [
        (sphere_projection_field, linear_drive_driver, np.array([0.0, 2.0, 0.0])),
        (so3_left_invariant_field, so3_constant_driver, 2.0 * np.eye(3)),
        (so3_right_invariant_field, so3_constant_driver, 2.0 * np.eye(3)),  # the whole-grid branch
    ],
    ids=["sphere-chart-stepped", "so3-chart-stepped", "so3-whole-grid"],
)
def test_a_start_off_the_manifold_raises_in_both_branches(field, driver, y0):
    # the chart step's from_coords lands on the manifold, so the chart-stepped solve went on from |y_0| = 2
    with pytest.raises(NotOnManifold, match="sample 0 lies") as err:
        rde_solve_manifold(field(), driver(16), y0)
    assert err.value.index == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_value_raises_explosion_at_its_step(bad):
    # the rotation about the first axis from (0, 0.6, 0.8); the field turns non-finite where m3 < 0.3
    axis = np.array([1.0, 0.0, 0.0])
    good = ManifoldDrivingField(SPHERE, lambda m: np.cross(axis, m)[:, None])
    field = ManifoldDrivingField(SPHERE, lambda m: np.full((3, 1), bad) if m[2] < 0.3 else np.cross(axis, m)[:, None])
    rp, y0 = time_lift(np.linspace(0.0, 3.0, 65)), np.array([0.0, 0.6, 0.8])
    heights = rde_solve_manifold(good, rp, y0).points[:, 2]
    first = int(np.argmax(heights < 0.3))  # the first node whose field value is not finite
    assert first > 0 and np.min(np.abs(heights - 0.3)) > 1e-3  # no FD stencil point crosses m3 = 0.3 before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Explosion) as exc:
            rde_solve_manifold(field, rp, y0)
        with pytest.raises(Explosion) as at_start:  # non-finite at the start point itself
            rde_solve_manifold(ManifoldDrivingField(SPHERE, lambda m: np.full((3, 1), bad)), rp, y0)
    assert exc.value.time == rp.times[first]
    assert at_start.value.time == rp.times[0]


def test_explosion_message_reads_the_time_as_a_plain_number():
    axis = np.array([1.0, 0.0, 0.0])
    field = ManifoldDrivingField(SPHERE, lambda m: np.full((3, 1), np.nan) if m[2] < 0.3 else np.cross(axis, m)[:, None])
    rp = time_lift(np.linspace(0.0, 3.0, 65))
    with pytest.raises(Explosion) as exc:
        rde_solve_manifold(field, rp, np.array([0.0, 0.6, 0.8]))
    assert 0.0 < exc.value.time < 3.0
    assert str(exc.value) == f"solution exploded after t={exc.value.time}"
    assert "np.float64" not in str(exc.value)
