"""Frame transport by roll's frame step, chart segment by chart segment.

``parallel_translate_frame`` takes roll's Christoffel-jet step of the frame along
the path: one ``chart_christoffels_jet`` call on the nodes of each chart segment,
and the step products from one log-depth scan.  The paper's construction, the
horizontal lift of the chart connection form, its integral evaluated one point at
a time and its GL(d) group equation solved by ``linear_flow``, is the reference
the frames converge to.  Also: the one-node last segment, the check that a frame lift belongs to its path, and the
whole-grid ``frame_transport_defect``.
"""

from __future__ import annotations

import numpy as np
import pytest

from crp import DomainError, GridMismatch
from crp.controlled import pushed_step_areas
from crp.convergence import ConvergenceReport
from crp.fixtures import SPHERE, latitude_crp, sphere_spiral_crp, tangent_frame, tilted_great_circle_crp
from crp.flatrde import linear_flow
from crp.manifolds import Sphere
from crp.gauges import connection_gauge
from crp.mcrp import ManifoldControlledPath, crp_from_projection
from crp.oneforms import integrate_smooth_oneform, oneform_from_smooth
from crp.roughpath import lift_smooth
from crp.transport import chart_christoffels, parallel_translate_frame, rolled_oneform, unroll
from paper_reference import frame_transport_defect


def meridian_to_the_switch(n):
    """The meridian (sin t, 0, cos t), t in [0, 2.62]: its chart walk switches chart at the last node."""
    grid = np.linspace(0.0, 2.62, n + 1)
    rp = lift_smooth(
        lambda t: np.array([np.sin(t), 0.0, np.cos(t)]),
        grid,
        dpath=lambda t: np.array([np.cos(t), 0.0, -np.sin(t)]),
    )
    return crp_from_projection(SPHERE, rp)


def per_point_frame_lift(y, u0, segments):
    """Frame transport as the horizontal lift of the chart connection form, evaluated one point at a time.

    On each chart segment the chart frame solves the GL(d) group equation d ubar = -(dz) ubar, z the
    integral of the chart connection form, by the additive step of ``linear_flow`` from the identity.
    """
    mani = y.manifold
    d = mani.dim
    frames = np.empty((y.times.size, mani.flat_dim, d))
    frames[0] = u0
    for i0, i1, chart in segments:

        def gamma_fn(m, _chart=chart):
            a = chart_christoffels(mani, _chart, _chart.to_coords(m))
            return np.einsum("ijl,jD->ilD", a, _chart.dto(m)).reshape(d * d, mani.flat_dim)

        rp = y.driver.restrict(i0, i1)
        sub = ManifoldControlledPath(mani, rp.times, y.points[i0 : i1 + 1], y.derivative[i0 : i1 + 1], rp)
        z = integrate_smooth_oneform(gamma_fn, sub, connection_gauge(mani))
        gens = -np.eye(d * d).reshape(d * d, d, d)
        ubar0 = chart.dto(y.points[i0]) @ frames[i0]
        ubars = linear_flow(gens, rp.times, np.diff(z.values, axis=0), pushed_step_areas(z, rp), None, "davie") @ ubar0
        for off in range(i1 - i0 + 1):
            frames[i0 + off] = chart.dfrom(chart.to_coords(y.points[i0 + off])) @ ubars[off]
    return frames


# -- the jet step against the paper's construction ---------------------------------------------


@pytest.mark.parametrize("path", ["small-circle", "tilted-great-circle"])
def test_frame_transport_converges_to_the_per_point_horizontal_lift(path):
    # two second-order discretizations of one lift: their frames meet at order two
    errs, hs = [], []
    for n in (64, 128, 256, 512):
        y = latitude_crp(n, theta=np.pi / 5) if path == "small-circle" else tilted_great_circle_crp(n)
        u0 = tangent_frame(y.points[0])
        lift = parallel_translate_frame(y, u0)
        if path == "tilted-great-circle":
            assert len(lift.segments) >= 2
        errs.append(float(np.max(np.abs(lift.frames - per_point_frame_lift(y, u0, lift.segments)))))
        hs.append(float(np.max(np.diff(y.times))))
    assert ConvergenceReport.from_levels(path, (64, 128, 256, 512), hs, errs, 2.0).passed


def count_jet_calls(monkeypatch, y):
    calls = []
    original = Sphere.chart_christoffels_jet

    def counting(self, chart, x):
        calls.append(np.shape(x))
        return original(self, chart, x)

    monkeypatch.setattr(Sphere, "chart_christoffels_jet", counting)
    lift = parallel_translate_frame(y, tangent_frame(y.points[0]))
    return calls, lift


def test_frame_transport_makes_one_jet_call_per_chart_segment(monkeypatch):
    for y in (latitude_crp(64), latitude_crp(256), tilted_great_circle_crp(256), meridian_to_the_switch(32)):
        calls, lift = count_jet_calls(monkeypatch, y)
        # one call on the nodes of each segment of two or more nodes, whatever N
        assert calls == [(i1 - i0, 2) for i0, i1, _ in lift.segments if i1 > i0]
    assert len(lift.segments) == 2 and lift.segments[-1][:2] == (32, 32)


def test_oneform_from_smooth_names_a_bad_stencil_point():
    y = latitude_crp(8)
    nodes = {p.tobytes() for p in y.points}

    def nan_off_the_nodes(m):
        return np.ones((1, 3)) if np.asarray(m).tobytes() in nodes else np.full((1, 3), np.nan)

    with pytest.raises(DomainError, match="stencil point"):
        oneform_from_smooth(nan_off_the_nodes, y, connection_gauge(SPHERE).par)


# -- a chart switch at the last node ----------------------------------------------------------


def test_frame_transport_through_a_one_node_last_segment():
    errs = []
    for n in (16, 32, 64):
        y = meridian_to_the_switch(n)
        u0 = tangent_frame(y.points[0])
        lift = parallel_translate_frame(y, u0)
        assert lift.segments[-1][:2] == (n, n)
        # along a geodesic shorter than pi, the closed-form transport is the parallel transport
        want = np.stack([SPHERE.transport(p, y.points[0]) @ u0 for p in y.points])
        errs.append(float(np.max(np.abs(lift.frames - want))))
    assert errs[0] <= 0.15
    assert errs[1] <= errs[0] / 3.0 and errs[2] <= errs[1] / 3.0


def test_unroll_without_a_lift_through_a_one_node_last_segment():
    y = meridian_to_the_switch(16)
    u0 = tangent_frame(y.points[0])
    z, lift = unroll(y, u0)
    assert lift.segments[-1][:2] == (16, 16)
    z_given, _ = unroll(y, u0, lift=parallel_translate_frame(y, u0))
    assert np.array_equal(z.values, z_given.values)
    # the unrolled geodesic is a segment of its length
    assert abs(np.linalg.norm(z.values[-1]) - 2.62) <= 0.1


# -- a lift must belong to its path -----------------------------------------------------------


def test_unroll_refuses_a_lift_on_another_grid():
    y = sphere_spiral_crp(32)
    u0 = tangent_frame(y.points[0])
    other = parallel_translate_frame(sphere_spiral_crp(16), u0)
    with pytest.raises(GridMismatch):
        unroll(y, u0, lift=other)


def test_unroll_refuses_a_lift_of_another_path_on_the_same_grid():
    y = sphere_spiral_crp(32)
    u0 = tangent_frame(y.points[0])
    other = parallel_translate_frame(latitude_crp(32), tangent_frame(latitude_crp(32).points[0]))
    with pytest.raises(DomainError, match="another path"):
        unroll(y, u0, lift=other)


def spiral_oneform(n):
    y = sphere_spiral_crp(n)
    return oneform_from_smooth(lambda m: np.array([[m[1], -m[0], 0.5]]), y, connection_gauge(SPHERE).par)


def test_rolled_oneform_refuses_a_lift_on_another_grid():
    a = spiral_oneform(32)
    other = parallel_translate_frame(sphere_spiral_crp(16), tangent_frame(a.path.points[0]))
    with pytest.raises(GridMismatch):
        rolled_oneform(a, other)


def test_rolled_oneform_refuses_a_lift_of_another_path_on_the_same_grid():
    a = spiral_oneform(32)
    y = latitude_crp(32)
    with pytest.raises(DomainError, match="another path"):
        rolled_oneform(a, parallel_translate_frame(y, tangent_frame(y.points[0])))
    # a lift of an equal copy of the path is its own
    same = parallel_translate_frame(sphere_spiral_crp(32), tangent_frame(a.path.points[0]))
    assert rolled_oneform(a, same).values.shape == (33, 1, 2)


# -- the whole-grid transport defect -----------------------------------------------------------


def pairwise_defect(lift, step):
    """``frame_transport_defect`` as a loop over pairs, as before the whole-grid form."""
    y = lift.base
    worst = 0.0
    for i in range(0, y.times.size - step, step):
        u = y.manifold.transport(y.points[i + step], y.points[i])
        worst = max(worst, float(np.max(np.abs(lift.frames[i + step] - u @ lift.frames[i]))))
    return worst


def test_frame_transport_defect_matches_the_pairwise_loop():
    y = sphere_spiral_crp(64)
    lift = parallel_translate_frame(y, tangent_frame(y.points[0]))
    for step in (1, 2, 8, 64, 65):
        assert frame_transport_defect(lift, step=step) == pytest.approx(pairwise_defect(lift, step), rel=1e-14, abs=0)
    assert frame_transport_defect(lift, step=65) == 0.0
