"""Roll without finite differences: the frame-bundle step from the Christoffel jet (A, dA).

``Manifold.chart_christoffels_jet`` gives the chart connection coefficients and their
derivative, in closed form in the sphere's stereographic charts and by one Richardson
stencil elsewhere.  ``roll`` takes the exact derivative of its horizontal field from one
jet call per step; the finite-difference step it replaced is kept here as a reference.
Frame transport takes the same frame step along a given path, so along roll's own path
it gives roll's frames.
The chart walk of frame transport reads each chart's margin over the whole path at once,
and a curved ``ChartManifold.exp`` carries the geodesic alone.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import crp.mrde
import crp.transport
from crp import AtlasGap
from crp.controlled import ControlledPath, driver_as_controlled, pushed_step_areas
from crp.fixtures import SO3M, SPHERE, so3_curve_crp, tangent_frame
from crp.manifolds import Chart, ChartManifold, Manifold, Sphere
from crp.mrde import ChartWalk
from crp.roughpath import lift_piecewise_linear, pure_area_driver, time_lift
from crp.transport import parallel_translate_frame, roll
from paper_reference import ProductManifold
from test_manifolds import quadratic_connection
from test_transport_grid import meridian_crp, roll_ending_in_a_chart_switch


def quadratic_connection_jet(x, c=0.25):
    """The analytic d_k A[i, j, l] of ``quadratic_connection(c)``, (..., k, i, j, l)."""
    da = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
    da[..., 1, 0, 0, 0] = c * np.cos(x[..., 1])
    da[..., 0, 1, 0, 1] = c
    da[..., 0, 1, 1, 0] = c
    da[..., 0, 0, 1, 1] = c * np.sin(x[..., 0])
    return da


def chart_points(chart, rng, k=8, scale=2.0):
    """Random coordinates inside ``chart``."""
    return rng.uniform(-scale, scale, (k, chart.dim))


# -- the jet -----------------------------------------------------------------------------------


@pytest.mark.parametrize("idx", [0, 1])
def test_sphere_jet_matches_the_default_stencil(idx):
    chart = SPHERE.charts()[idx]
    xs = chart_points(chart, np.random.default_rng(idx))
    a, da = SPHERE.chart_christoffels_jet(chart, xs)
    a_fd, da_fd = Manifold.chart_christoffels_jet(SPHERE, chart, xs)
    assert np.array_equal(a, SPHERE.chart_christoffels(chart, xs))
    assert np.array_equal(a, a_fd)
    assert da.shape == (len(xs), 2, 2, 2, 2)
    assert np.max(np.abs(da - da_fd)) <= 1e-8


def test_default_jet_matches_the_analytic_derivative():
    mani = ChartManifold(2, gamma=quadratic_connection())
    chart = mani.charts()[0]
    xs = chart_points(chart, np.random.default_rng(3), scale=1.5)
    a, da = mani.chart_christoffels_jet(chart, xs)
    assert np.array_equal(a, quadratic_connection()(xs))
    assert np.max(np.abs(da - quadratic_connection_jet(xs))) <= 1e-9


@pytest.mark.parametrize("case", ["sphere", "so3", "chart", "product"])
def test_stacked_jet_equals_its_rows(case):
    rng = np.random.default_rng(7)
    if case == "sphere":
        mani, chart = SPHERE, SPHERE.charts()[1]
        xs = chart_points(chart, rng, k=4).reshape(2, 2, 2)
    elif case == "so3":
        mani, chart = SO3M, SO3M.charts()[2]
        xs = rng.uniform(-1.0, 1.0, (3, 3))
    elif case == "chart":
        mani = ChartManifold(2, gamma=quadratic_connection())
        chart, xs = mani.charts()[0], rng.uniform(-1.0, 1.0, (5, 2))
    else:
        mani = ProductManifold(SPHERE, ChartManifold(1))
        chart = mani.charts()[0]
        xs = rng.uniform(-1.0, 1.0, (3, 3))
    a, da = mani.chart_christoffels_jet(chart, xs)
    d = chart.dim
    assert a.shape == xs.shape[:-1] + (d,) * 3 and da.shape == xs.shape[:-1] + (d,) * 4
    for idx in np.ndindex(xs.shape[:-1]):
        a1, da1 = mani.chart_christoffels_jet(chart, xs[idx])
        assert np.array_equal(a1, a[idx]) and np.array_equal(da1, da[idx])


# -- roll against the finite-difference step it replaced ---------------------------------------


def node_roll(z, rp, manifold, o, u0, step):
    """``roll`` node by node: ``step(chart, x, ub, dz, area)`` gives the next chart coordinates and
    chart frame, and each node's ambient frame is its own ``dfrom`` call."""
    n = rp.n_steps
    pts = np.empty((n + 1,) + manifold.point_shape)
    frames = np.empty((n + 1, manifold.flat_dim, manifold.dim))
    pts[0], frames[0] = o, u0
    walk = ChartWalk(manifold, rp.times, o)
    chart = walk.chart
    x, ub = chart.to_coords(o), chart.dto(o) @ u0
    dz, areas = np.diff(z.values, axis=0), pushed_step_areas(z, rp)
    for i in range(n):
        x, ub = step(chart, x, ub, dz[i], areas[i])
        p = chart.from_coords(x)
        new = walk.visit(i + 1, p, chart.coords_margin(x))
        if new is not None and new is not chart:
            x, ub = new.to_coords(p), new.dto(p) @ (chart.dfrom(x) @ ub)
            chart = new
        pts[i + 1] = p
        frames[i + 1] = chart.dfrom(x) @ ub
    return pts, frames, walk.close(n)


def fd_roll(z, rp, manifold, o, u0):
    """``roll`` before the jet: ``mrde._chart_step`` on the horizontal field, its derivative by central FD."""
    d = manifold.dim

    def step(chart, x, ub, dz, area):
        def step_field(state):
            xx, uu = state[:d], state[d:].reshape(d, d)
            du = -np.einsum("ijl,ja,lc->ica", manifold.chart_christoffels(chart, xx), uu, uu)
            return np.concatenate([uu, du.reshape(d * d, d)])

        state = np.concatenate([x, ub.reshape(-1)])
        state = state + crp.mrde._chart_step(step_field, state, step_field(state), dz, area)
        return state[:d], state[d:].reshape(d, d)

    return node_roll(z, rp, manifold, o, u0, step)


def jet_roll(z, rp, manifold, o, u0):
    """``roll``'s jet step with a ``dfrom`` call per node, as it was before one call per chart segment."""

    def step(chart, x, ub, dz, area):
        a, da = manifold.chart_christoffels_jet(chart, x)
        m = ub @ area @ ub.T
        dx = ub @ dz - np.einsum("ijl,jl->i", a, m)
        rot = np.einsum("ijl,j->il", a, dx) + np.einsum("kijl,kj->il", da, m) - np.einsum("ijm,kj,mkl->il", a, m, a)
        return x + dx, ub - rot @ ub

    return node_roll(z, rp, manifold, o, u0, step)


def driver(kind, n):
    grid = np.linspace(0.0, 1.0, n + 1)
    if kind == "pure-area":
        rp = pure_area_driver(1.2, grid)
        return driver_as_controlled(rp), rp
    if kind == "piecewise-linear":
        steps = np.random.default_rng(n).standard_normal((n, 2)) * (0.5 / np.sqrt(n))
        rp = lift_piecewise_linear(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]), grid)
        return driver_as_controlled(rp), rp
    # a geodesic through both polar caps: the roll changes chart
    grid = 2.0 * np.pi * grid
    vals = np.stack([np.zeros_like(grid), grid], axis=1)
    dag = np.zeros((n + 1, 2, 1))
    dag[:, 1, 0] = 1.0
    return ControlledPath(grid, vals, dag), time_lift(grid)


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("kind", ["pure-area", "piecewise-linear", "meridian"])
def test_roll_matches_the_finite_difference_step(kind, n):
    z, rp = driver(kind, n)
    o = np.array([0.0, 1.0, 0.0]) if kind == "meridian" else np.array([0.3, 0.4, np.sqrt(0.75)])
    u0 = tangent_frame(o)
    y, lift = roll(z, rp, SPHERE, o, u0)
    pts, frames, segs = fd_roll(z, rp, SPHERE, o, u0)
    assert [s[:2] for s in lift.segments] == [s[:2] for s in segs]
    assert (len(segs) > 1) == (kind == "meridian")
    assert np.max(np.abs(y.points - pts)) <= 1e-9
    assert np.max(np.abs(lift.frames - frames)) <= 1e-9


@pytest.mark.parametrize("case", ["pure-area", "meridian", "ends-in-a-switch"])
def test_roll_frames_per_segment_equal_the_per_node_frames(case):
    o = np.array([0.0, 1.0, 0.0])
    if case == "ends-in-a-switch":  # a one-node last segment
        z, _, u0, _ = roll_ending_in_a_chart_switch()
        rp = time_lift(z.times)
    else:
        z, rp = driver(case, 128)
        u0 = tangent_frame(o)
    y, lift = roll(z, rp, SPHERE, o, u0)
    pts, frames, segs = jet_roll(z, rp, SPHERE, o, u0)
    assert [s[:2] for s in lift.segments] == [s[:2] for s in segs]
    assert (len(segs) > 1) == (case != "pure-area")
    assert np.array_equal(y.points, pts)
    assert np.array_equal(lift.frames, frames)


@pytest.mark.parametrize("kind", ["pure-area", "piecewise-linear", "piecewise-linear-through-a-switch"])
def test_frame_transport_along_the_rolled_path_reproduces_the_rolled_frames(kind):
    # roll and frame transport take one frame step, so along roll's own path they agree up to rounding
    n = 128
    if kind == "piecewise-linear-through-a-switch":  # a random walk drifting over a pole
        steps = np.random.default_rng(n).standard_normal((n, 2)) * (0.2 / np.sqrt(n)) + [0.0, 2.0 * np.pi / n]
        rp = lift_piecewise_linear(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]), np.linspace(0.0, 1.0, n + 1))
        z, o = driver_as_controlled(rp), np.array([0.0, 1.0, 0.0])
    else:
        (z, rp), o = driver(kind, n), np.array([0.3, 0.4, np.sqrt(0.75)])
    u0 = tangent_frame(o)
    y, lift = roll(z, rp, SPHERE, o, u0)
    got = parallel_translate_frame(y, u0)
    assert [s[:2] for s in got.segments] == [s[:2] for s in lift.segments]
    assert (len(lift.segments) > 1) == (kind == "piecewise-linear-through-a-switch")
    assert np.max(np.abs(got.frames - lift.frames)) <= 1e-12


def test_roll_makes_one_jet_call_per_step_and_no_chart_steps(monkeypatch):
    steps, jets = [], []
    original = Sphere.chart_christoffels_jet

    def counted_step(*args):
        steps.append(1)
        raise AssertionError("roll took a finite-difference chart step")

    def counted_jet(self, chart, x):
        jets.append(np.shape(x))
        return original(self, chart, x)

    monkeypatch.setattr(crp.mrde, "_chart_step", counted_step)
    monkeypatch.setattr(Sphere, "chart_christoffels_jet", counted_jet)
    assert not hasattr(crp.transport, "_chart_step")
    for kind in ("pure-area", "meridian"):
        jets.clear()
        z, rp = driver(kind, 64)
        o = np.array([0.0, 1.0, 0.0])
        _, lift = roll(z, rp, SPHERE, o, tangent_frame(o))
        assert jets == [(2,)] * 64
    assert len(lift.segments) > 1
    assert steps == []


# -- the chart walk of frame transport on stacks ----------------------------------------------


def test_frame_transport_reads_each_chart_margin_once_per_path(monkeypatch, margin_scan):
    calls = []
    original = Chart.margin

    def counted(self, p):
        calls.append(np.shape(p))
        return original(self, p)

    monkeypatch.setattr(Chart, "margin", counted)
    y = meridian_crp(256)
    lift = parallel_translate_frame(y, tangent_frame(y.points[0]))
    during = list(calls)
    assert [(i0, i1, c.name) for i0, i1, c in lift.segments] == margin_scan(y.points, SPHERE.charts())
    assert len(lift.segments) == 3
    stacked = [s for s in during if s == y.points.shape]
    assert len(stacked) == 2  # one read of each atlas chart over the path
    # every other read is one point, by chart_at at the two re-charts and the start
    assert len(during) - len(stacked) == 2 * 3


@pytest.mark.parametrize("case", ["sphere", "so3"])
def test_chart_walk_scan_matches_visits_node_by_node(case):
    mani, y = (SPHERE, meridian_crp(512, phase=1.0)) if case == "sphere" else (SO3M, so3_curve_crp(128, T=6.0))
    walk = ChartWalk(mani, y.times, y.points[0])
    for i in range(1, y.times.size):
        walk.visit(i, y.points[i], walk.chart.margin(y.points[i]))
    want = walk.close(y.times.size - 1)
    got = ChartWalk(mani, y.times, y.points[0]).scan(y.points)
    assert len(want) > 1
    assert [(i0, i1, c.name) for i0, i1, c in got] == [(i0, i1, c.name) for i0, i1, c in want]


# -- the curved chart manifold's exp -----------------------------------------------------------


def test_curved_exp_carries_only_the_geodesic():
    shapes = []
    gamma = quadratic_connection()

    def counted(x):
        shapes.append(np.shape(x))
        return gamma(x)

    mani = ChartManifold(2, gamma=counted, h_geo=0.1)
    rng = np.random.default_rng(11)
    ms, vs = rng.uniform(-0.5, 0.5, (2, 5, 2))
    ends = mani.exp(ms, vs)
    assert shapes == [(5, 2)] * 40  # ten RK4 steps of four stages, each at the points alone
    assert np.max(np.abs(ends - mani._geodesic(ms, vs)[0])) <= 1e-15


# -- a point at infinity ----------------------------------------------------------------------


def test_infinite_sphere_point_raises_atlas_gap_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AtlasGap):
            SPHERE.chart_at(np.full(3, np.inf))
        for chart in SPHERE.charts():
            assert chart.margin(np.full(3, np.inf)) == -np.inf
