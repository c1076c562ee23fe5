"""Chart maps on stacks.

Every chart map (``to_coords``, ``from_coords``, ``dto``, ``dfrom``) and
``coords_margin`` takes one point or a stack with leading axes, so the chart
gauge, the chart–connection compatibility tensor and the chart reads of the
integral and transport code make one call per stack.  Checked here: stacked
against per-point calls on every chart kind, the single-point shapes, the
chart gauge's stacked pairs against its single-pair calls, the number of chart reads
per stack, and the stacked membership check on points outside a chart.
"""

from __future__ import annotations

import numpy as np
import pytest

from crp import AtlasGap, ChartSingular, DomainError
from crp.fixtures import SO3M, SPHERE, latitude_crp
from crp.gauges import change_tensor, chart_gauge, compatibility_tensor, connection_gauge
from crp.manifolds import Chart, ChartManifold
from crp.oneforms import gauge_integrate, oneform_from_smooth
from paper_reference import ProductManifold

CENTRED = ChartManifold(3, radius=4.0, center=np.array([1.0, -2.0, 0.5]))
SPHERE_X_SPHERE = ProductManifold(SPHERE, SPHERE)
SPHERE_X_FLAT = ProductManifold(SPHERE, ChartManifold(2, radius=3.0, center=np.array([0.5, -0.5])))


def chart_cases():
    """(manifold, chart) for each chart kind: both stereographic charts, the four SO(3) log
    charts, a centred identity chart and charts of sphere x sphere and sphere x chart manifold."""
    cases = [(SPHERE, c) for c in SPHERE.charts()] + [(SO3M, c) for c in SO3M.charts()]
    cases += [(CENTRED, CENTRED.charts()[0])]
    cases += [(SPHERE_X_SPHERE, c) for c in SPHERE_X_SPHERE.charts()[1:3]]
    cases += [(SPHERE_X_FLAT, c) for c in SPHERE_X_FLAT.charts()]
    return cases


CASES = chart_cases()
IDS = [f"{m.name}:{c.name}" for m, c in CASES]


def points_in(manifold, chart, n, seed=0):
    """n random points of the manifold well inside the chart."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        p = manifold.random_point(rng)
        if chart.margin(p) > 0.2 * chart.radius:
            out.append(p)
    return np.stack(out)


@pytest.mark.parametrize("manifold,chart", CASES, ids=IDS)
def test_stacked_maps_equal_the_per_point_maps(manifold, chart):
    pts = points_in(manifold, chart, 12)
    xs = chart.to_coords(pts)
    want_shapes = {
        "to_coords": (chart.dim,),
        "dto": (chart.dim, manifold.flat_dim),
        "from_coords": manifold.point_shape,
        "dfrom": (manifold.flat_dim, chart.dim),
    }
    for name, args in (("to_coords", pts), ("dto", pts), ("from_coords", xs), ("dfrom", xs)):
        fn = getattr(chart, name)
        single = np.stack([fn(a) for a in args])
        assert fn(args[0]).shape == want_shapes[name]
        stacked = fn(args)
        assert stacked.shape == (len(args),) + want_shapes[name]
        assert np.max(np.abs(stacked - single)) <= 1e-15
        # two leading axes read like one
        grid = fn(args.reshape((3, 4) + args.shape[1:]))
        assert np.max(np.abs(grid.reshape(stacked.shape) - single)) <= 1e-15
    margins = chart.coords_margin(xs)
    assert margins.shape == (len(pts),)
    assert np.array_equal(margins, [chart.coords_margin(x) for x in xs])
    assert np.array_equal(chart.read(pts), xs)


@pytest.mark.parametrize("manifold,chart", CASES, ids=IDS)
def test_chart_gauge_batches_equal_its_single_pair_maps(manifold, chart):
    gauge = chart_gauge(manifold, chart)
    ms, ns = points_in(manifold, chart, 8, seed=1), points_in(manifold, chart, 8, seed=2)
    u = gauge.U(ms, ns)
    psi = gauge.psi(ms, ns)
    assert u.shape == (8, manifold.flat_dim, manifold.flat_dim) and psi.shape == (8, manifold.flat_dim)
    assert np.max(np.abs(u - np.stack([gauge.par.matrix(m, n) for m, n in zip(ms, ns)]))) <= 1e-15
    assert np.max(np.abs(psi - np.stack([gauge.log.value(m, n) for m, n in zip(ms, ns)]))) <= 1e-15


def counted_chart(base, reads):
    """``base`` with its ``to_coords`` calls recorded in ``reads``."""
    return Chart(base.name, base.dim, lambda p: reads.append(np.shape(p)) or base.to_coords(p),
                 base.from_coords, base.dto, base.dfrom, base.radius)


def test_chart_gauge_batches_read_each_stack_once_and_make_no_margin_calls(monkeypatch):
    ms, ns = points_in(SPHERE, SPHERE.charts()[1], 40, seed=3), points_in(SPHERE, SPHERE.charts()[1], 40, seed=4)
    margins, reads = [], []
    monkeypatch.setattr(Chart, "margin", lambda self, p: margins.append(1) or 0.0)
    gauge = chart_gauge(SPHERE, counted_chart(SPHERE.charts()[1], reads))
    gauge.par.matrix(ms, ns)
    assert len(reads) == 2 and margins == []
    reads.clear()
    gauge.psi(ms, ns)
    assert len(reads) == 2 and margins == []


def test_chart_oneform_reads_the_chart_a_fixed_number_of_times(monkeypatch):
    counts = {}
    for n in (64, 256):
        reads = []
        y = latitude_crp(n)
        gauge = chart_gauge(SPHERE, counted_chart(SPHERE.chart_at(y.points[0]), reads))
        a = oneform_from_smooth(lambda m: m[None, :], y, gauge.par)
        counts[n] = len(reads)
        gauge_integrate(a, y, gauge)
        # one membership check of the nodes, then psi reads the left and the right ends of the steps
        assert len(reads) == counts[n] + 3
    assert counts[64] == counts[256] == 2  # two stacks, each of all four Richardson stencil levels


def test_non_finite_point_is_outside_the_chart_gauge():
    chart = SPHERE.charts()[0]
    gauge = chart_gauge(SPHERE, chart)
    m, bad = np.array([0.6, 0.0, -0.8]), np.array([np.nan, 0.0, -0.8])
    assert not chart.margin(bad) > 0
    with pytest.raises(ChartSingular):
        gauge.log.value(m, bad)
    with pytest.raises(ChartSingular):
        gauge.par.matrix(bad, m)
    with pytest.raises(ChartSingular, match="point 1 outside"):
        change_tensor(gauge.par, connection_gauge(SPHERE).par, SPHERE).stack(np.stack([m, bad, m]))
    with pytest.raises(AtlasGap):
        SPHERE.chart_at(bad)


def test_stacked_read_names_the_first_point_outside():
    chart = SPHERE.charts()[0]  # stereographic from the north pole: m3 < 0.9
    inside = np.array([0.6, 0.0, -0.8])
    near_pole = np.array([0.3, 0.0, np.sqrt(1 - 0.09)])
    pole = np.array([0.0, 0.0, 1.0])
    for bad in (near_pole, pole, np.array([0.0, np.inf, 0.0])):
        pts = np.stack([inside, inside, bad, bad])
        with pytest.raises(ChartSingular, match="point 2 outside"):
            chart.read(pts)
        with pytest.raises(DomainError, match="sample 2"):
            chart.read(pts, lambda i: DomainError(f"sample {i}"))
    with pytest.raises(ChartSingular, match="point 0 outside"):
        chart.read(pole)


def test_stacked_margins_and_chart_choice_equal_the_per_point_ones():
    # a pole makes the stacked stereographic read raise, so that chart bisects the stack down to it
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((40, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts[3], pts[7] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
    atlas = SPHERE.charts()
    for chart in atlas:
        assert np.array_equal(chart.margin(pts), [chart.margin(p) for p in pts])
        assert np.array_equal(chart.margin(pts.reshape(8, 5, 3)), chart.margin(pts).reshape(8, 5))
    owners = SPHERE.chart_index(pts, atlas)
    assert [atlas[k].name for k in owners] == [SPHERE.chart_at(p).name for p in pts]
    # a tie goes to the first chart, as in chart_at: the equator is 1 from both poles
    equator = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert atlas[0].margin(equator[0]) == atlas[1].margin(equator[0])
    assert list(SPHERE.chart_index(equator, atlas)) == [0, 0]
    for bad in (np.array([np.nan, 0.0, -0.8]), np.array([0.0, np.inf, 0.0])):
        with pytest.raises(AtlasGap, match="point 2"):
            SPHERE.chart_index(np.stack([pts[0], pts[1], bad]), atlas)


def test_margins_of_a_stack_with_both_poles_bisect_down_to_the_poles():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((925, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    stack = np.insert(pts, [300, 925], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], axis=0)
    atlas = SPHERE.charts()
    calls = []
    for chart in atlas:
        chart.to_coords = lambda p, read=chart.to_coords: calls.append(np.shape(p)) or read(p)
    margins = [chart.margin(stack) for chart in atlas]
    # each chart has one failing point: its root read, two half reads per level and the point itself
    assert len(calls) <= 4 * int(np.ceil(np.log2(len(stack)))) + 4
    north, south = margins
    assert north[300] == -np.inf and south[926] == -np.inf
    for chart, m in zip(atlas, margins):
        assert np.array_equal(np.delete(m, [300, 926]), chart.margin(pts))
    assert list(SPHERE.chart_index(stack, atlas)[[300, 926]]) == [1, 0]


def test_fd_oracle_picks_each_points_chart_in_one_stacked_choice(monkeypatch):
    rng = np.random.default_rng(8)
    pts = np.stack([SPHERE.random_point(rng) for _ in range(20)])
    g = connection_gauge(SPHERE)
    s = compatibility_tensor(g.log.induced_parallelism(), g.par, SPHERE)
    want = np.stack([s.at(p) for p in pts])  # each point's chart chosen on its own
    calls = []
    margin = Chart.margin
    monkeypatch.setattr(Chart, "margin", lambda self, p: calls.append(np.shape(p)) or margin(self, p))
    got = s.stack(pts)
    assert calls == [(20, 3), (20, 3)]  # each chart's margins read once, on the whole stack
    assert np.max(np.abs(got - want)) <= 1e-12
