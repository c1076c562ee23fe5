"""Frame transport without per-step finite differences.

The SO(3) group equation runs on the flat linear solver, ``unroll`` works on
each chart segment's whole grid, and the SO(3) chart differentials, group
fields and right Maurer-Cartan form are closed forms.  Each is checked against
the construction it replaced, kept here as a reference: the per-node unroll
and the list comprehensions of ``vee``/``hat``.
"""

from __future__ import annotations

import numpy as np
import pytest

import crp.mrde
from crp import ChartSingular, ControlledPath, DomainError, GaugeMismatch, NotOnManifold, ShapeError
from crp.controlled import driver_as_controlled
from crp.fixtures import (
    SO3M,
    SPHERE,
    so3_curve_crp,
    so3_left_invariant_field,
    so3_right_invariant_field,
    sphere_spiral_crp,
    tangent_frame,
)
from crp.gauges import chart_gauge, connection_gauge
from crp.linalg import SO3_BASIS, hat, so3_exp, so3_left_jacobian, so3_left_jacobian_inv, so3_log, vee
from crp.manifolds import Chart, ChartManifold
from crp.mcrp import ManifoldControlledPath, crp_from_projection
from crp.mrde import ManifoldDrivingField
from crp.oneforms import oneform_from_smooth
from crp.roughpath import lift_smooth, pure_area_driver, time_lift
from crp.transport import (
    FrameLift,
    chart_christoffels,
    group_rde,
    parallel_translate_frame,
    right_maurer_cartan_form,
    roll,
    unroll,
)
from paper_reference import ProductManifold


def gl_alg_path(n, d=2):
    """gl(d)-valued controlled path driven by time, with closed-form derivative."""
    grid = np.linspace(0.0, 1.0, n + 1)
    rates = np.linspace(-0.6, 0.9, d * d)
    vals = np.sin(np.outer(grid, rates) + rates)
    dag = (rates * np.cos(np.outer(grid, rates) + rates))[:, :, None]
    return ControlledPath(grid, vals - vals[0], dag), time_lift(grid)


def per_node_unroll_values(y, lift):
    """The unroll increments one node at a time, as before the whole-grid form."""
    mani = y.manifold
    values = np.zeros((y.times.size, mani.dim))
    for i0, i1, chart in lift.segments:
        xs = np.stack([chart.to_coords(y.points[i]) for i in range(i0, i1 + 1)])
        xdag = np.stack([chart.dto(y.points[i]) @ y.derivative[i] for i in range(i0, i1 + 1)])
        ubars = np.stack([chart.dto(y.points[i]) @ lift.frames[i] for i in range(i0, i1 + 1)])
        for off in range(i1 - i0):
            i = i0 + off
            ub_inv = np.linalg.inv(ubars[off])
            first = ub_inv @ (xs[off + 1] - xs[off])
            x_at = chart_christoffels(mani, chart, xs[off])
            xd = xdag[off]
            second = ub_inv @ np.einsum("ijl,ja,lb,ab->i", x_at, xd, xd, y.driver.step_areas[i])
            values[i + 1] = values[i] + first + second
    return values


def meridian_crp(n, phase=0.3):
    """Great circle through both poles: the frame lift switches chart."""
    grid = np.linspace(0.0, 2.0 * np.pi, n + 1)
    rp = lift_smooth(
        lambda t: np.array([np.sin(t + phase), 0.0, np.cos(t + phase)]),
        grid,
        dpath=lambda t: np.array([np.cos(t + phase), 0.0, -np.sin(t + phase)]),
    )
    return crp_from_projection(SPHERE, rp)


# -- SO(3) group equation on the flat solver ---------------------------------------------


def test_group_rde_makes_no_chart_steps(monkeypatch):
    calls = []
    original = crp.mrde._chart_step

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(crp.mrde, "_chart_step", counted)
    y = sphere_spiral_crp(32)
    parallel_translate_frame(y, tangent_frame(y.points[0]))
    assert calls == []
    # the SO(3) solve takes the exponential step on the whole grid: no chart steps either
    z, rp = gl_alg_path(32)
    zs = ControlledPath(z.times, z.values[:, :3], z.derivative[:, :3])
    group_rde(zs, rp, np.eye(3))
    assert calls == []


def so3_rotations(k, seed):
    return so3_exp(np.random.default_rng(seed).standard_normal((k, 3)))


def test_right_maurer_cartan_form_matches_the_inverse_formula():
    for g in so3_rotations(200, 21):
        want = np.stack([vee(xi.reshape(3, 3) @ np.linalg.inv(g)) for xi in np.eye(9)], axis=1)
        assert np.max(np.abs(right_maurer_cartan_form(g) - want)) <= 1e-14


def test_right_maurer_cartan_form_reproduces_right_invariant_tangents():
    rng = np.random.default_rng(22)
    for g in so3_rotations(100, 23):
        a = rng.standard_normal(3)
        assert np.max(np.abs(right_maurer_cartan_form(g) @ (hat(a) @ g).reshape(9) - a)) <= 1e-14


# -- whole-grid unroll -----------------------------------------------------------------------


@pytest.mark.parametrize("path", ["meridian", "spiral", "so3"])
def test_whole_grid_unroll_matches_per_node_reference(path):
    if path == "so3":
        y = so3_curve_crp(24)
        u0 = (y.points[0] @ np.stack([hat(e) for e in np.eye(3)])).reshape(3, 9).T  # left-invariant frame
    else:
        y = meridian_crp(96) if path == "meridian" else sphere_spiral_crp(96)
        u0 = tangent_frame(y.points[0])
    lift = parallel_translate_frame(y, u0)
    if path == "meridian":
        assert len(lift.segments) > 1
    z, _ = unroll(y, u0, lift=lift)
    want = per_node_unroll_values(y, lift)
    assert np.max(np.abs(z.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    for i in (0, 5, y.times.size - 1):
        assert np.allclose(z.derivative[i], np.linalg.pinv(lift.frames[i]) @ y.derivative[i], rtol=0, atol=1e-14)


def roll_ending_in_a_chart_switch():
    """A meridian geodesic rolled up to the node where it changes chart: its last segment is one node."""
    n = 128
    grid = np.linspace(0.0, 2.0 * np.pi, n + 1)
    vals = np.stack([np.zeros_like(grid), grid], axis=1)
    dag = np.zeros((n + 1, 2, 1))
    dag[:, 1, 0] = 1.0
    o = np.array([0.0, 1.0, 0.0])
    u0 = tangent_frame(o)
    _, lift = roll(ControlledPath(grid, vals, dag), time_lift(grid), SPHERE, o, u0)
    k = lift.segments[1][0]
    z = ControlledPath(grid[: k + 1], vals[: k + 1], dag[: k + 1])
    y, lift = roll(z, time_lift(grid[: k + 1]), SPHERE, o, u0)
    return z, y, u0, lift


@pytest.mark.parametrize("path", ["sphere-roll", "so3"])
def test_unroll_through_a_one_node_last_segment(path):
    if path == "sphere-roll":
        z, y, u0, lift = roll_ending_in_a_chart_switch()
        assert lift.segments[-1][:2] == (y.times.size - 1,) * 2
    else:
        y = so3_curve_crp(16)
        u0 = (y.points[0] @ np.stack([hat(e) for e in np.eye(3)])).reshape(3, 9).T
        lift = parallel_translate_frame(y, u0)
        other = next(c for c in SO3M.charts() if c is not lift.segments[-1][2])
        lift = FrameLift(base=y, frames=lift.frames, segments=lift.segments + [(16, 16, other)])
    got, _ = unroll(y, u0, lift=lift)
    want = per_node_unroll_values(y, lift)
    assert np.max(np.abs(got.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    if path == "sphere-roll":
        assert np.max(np.abs(got.values - z.values)) <= 1e-3


def test_chart_christoffels_accepts_stacked_coordinates():
    xs = np.array([[0.3, -0.2], [0.0, 0.1], [-0.5, 0.4]])
    for chart in SPHERE.charts():
        stacked = chart_christoffels(SPHERE, chart, xs)
        assert stacked.shape == (3, 2, 2, 2)
        for x, a in zip(xs, stacked):
            assert np.array_equal(a, chart_christoffels(SPHERE, chart, x))
    # SO(3) has no closed form: the finite-difference fallback loops over the stack
    chart = SO3M.charts()[0]
    xs3 = np.array([[0.1, 0.2, -0.3], [0.4, 0.0, 0.2]])
    stacked = chart_christoffels(SO3M, chart, xs3.reshape(1, 2, 3))
    assert stacked.shape == (1, 2, 3, 3, 3)
    for x, a in zip(xs3, stacked[0]):
        assert np.array_equal(a, chart_christoffels(SO3M, chart, x))


# -- closed-form SO(3) charts and fields -------------------------------------------------------


def so3_chart_points(chart, rng, k=6):
    center = chart.from_coords(np.zeros(3))
    return [so3_exp(1.5 * v / np.linalg.norm(v)) @ center for v in rng.standard_normal((k, 3))]


@pytest.mark.parametrize("idx", range(4))
def test_so3_chart_differentials_match_list_comprehensions(idx):
    chart = SO3M.charts()[idx]
    c = chart.from_coords(np.zeros(3))
    rng = np.random.default_rng(idx)
    for g in so3_chart_points(chart, rng):
        jli = so3_left_jacobian_inv(so3_log(g @ c.T))
        dto_ref = np.stack([jli @ vee(xi.reshape(3, 3) @ g.T) for xi in np.eye(9)], axis=1)
        assert np.max(np.abs(chart.dto(g) - dto_ref)) <= 1e-15
        x = chart.to_coords(g)
        jl, gx = so3_left_jacobian(x), so3_exp(x) @ c
        dfrom_ref = np.stack([(hat(jl @ e) @ gx).reshape(9) for e in np.eye(3)], axis=1)
        assert np.max(np.abs(chart.dfrom(x) - dfrom_ref)) <= 1e-15


@pytest.mark.parametrize("idx", range(4))
def test_so3_group_fields_match_list_comprehensions(idx):
    chart = SO3M.charts()[idx]
    group_field = ManifoldDrivingField.linear(SO3M, -SO3_BASIS)
    for g in so3_chart_points(chart, np.random.default_rng(10 + idx)):
        right = np.stack([(-(hat(e) @ g)).reshape(9) for e in np.eye(3)], axis=1)
        left = np.stack([(g @ hat(e)).reshape(9) for e in np.eye(3)], axis=1)
        assert np.max(np.abs(so3_right_invariant_field().value_matrix(g) - right)) <= 1e-15
        assert np.max(np.abs(group_field.value_matrix(g) - right)) <= 1e-15
        assert np.max(np.abs(so3_left_invariant_field().value_matrix(g) - left)) <= 1e-15


def test_gl_right_invariant_field_matches_list_comprehension():
    gl3 = ChartManifold(9, center=np.zeros((3, 3)))
    g = np.arange(9.0).reshape(3, 3) / 7.0 + np.eye(3)
    want = np.stack([(-(e.reshape(3, 3) @ g)).reshape(-1) for e in np.eye(9)], axis=1)
    assert np.array_equal(ManifoldDrivingField.linear(gl3, -np.eye(9).reshape(9, 3, 3)).value_matrix(g), want)


# -- typed errors on the transport surface ---------------------------------------------------


def test_frame_of_the_wrong_shape_raises_shape_error():
    y = sphere_spiral_crp(16)
    for bad in (np.eye(3), np.ones((3, 1)), np.ones(6)):
        with pytest.raises(ShapeError):
            parallel_translate_frame(y, bad)
        with pytest.raises(ShapeError):
            unroll(y, bad)


def test_non_finite_frame_raises_domain_error():
    y = sphere_spiral_crp(16)
    u0 = tangent_frame(y.points[0])
    u0[1, 0] = np.nan
    with pytest.raises(DomainError):
        parallel_translate_frame(y, u0)
    with pytest.raises(DomainError):
        unroll(y, u0)


def test_roll_checks_its_start_point_and_driver():
    rp = pure_area_driver(0.5, np.linspace(0.0, 1.0, 17))
    z = driver_as_controlled(rp)
    o = np.array([0.0, 0.6, 0.8])
    with pytest.raises(NotOnManifold):
        roll(z, rp, SPHERE, 1.1 * o, tangent_frame(o))
    with pytest.raises(ShapeError):
        roll(z, rp, SPHERE, o[:2], tangent_frame(o))
    z3 = ControlledPath(z.times, np.zeros((17, 3)), np.zeros((17, 3, 2)))
    with pytest.raises(ShapeError):
        roll(z3, rp, SPHERE, o, tangent_frame(o))


def test_group_rde_checks_its_start_and_algebra_dimension():
    z, rp = gl_alg_path(8)
    with pytest.raises(ShapeError):
        group_rde(z, rp, np.eye(3))
    zs = ControlledPath(z.times, z.values[:, :3], z.derivative[:, :3])
    with pytest.raises(ShapeError):
        group_rde(zs, rp, np.eye(3).reshape(9))


def test_group_rde_rejects_a_start_off_so3():
    z, rp = gl_alg_path(8)
    zs = ControlledPath(z.times, z.values[:, :3], z.derivative[:, :3])
    with pytest.raises(NotOnManifold):
        group_rde(zs, rp, 2.0 * np.eye(3))


# -- parallelism manifolds and the chart gauge ---------------------------------------------------


def test_parallelism_tells_chart_connections_apart():
    def connection(scale):
        return lambda x: scale * np.ones((2, 2, 2))

    grid = np.linspace(0.0, 1.0, 17)
    rp = lift_smooth(lambda t: np.array([t, 0.5 * t * t]), grid, dpath=lambda t: np.array([1.0, t]))
    flat = ChartManifold(2, radius=5.0)
    curved = ChartManifold(2, radius=5.0, gamma=connection(0.1))
    other = ChartManifold(2, radius=5.0, gamma=connection(0.2))
    assert curved.spec_json() == other.spec_json()  # the spec cannot hold the connection
    y = ManifoldControlledPath(curved, rp.times, rp.values.copy(), np.broadcast_to(np.eye(2), (17, 2, 2)).copy(), rp)
    for wrong in (other, flat):
        with pytest.raises(GaugeMismatch):
            oneform_from_smooth(lambda m: np.ones((1, 2)), y, connection_gauge(wrong).par)
    twin = ChartManifold(2, radius=5.0, gamma=curved.gamma)
    connection_gauge(twin).par.check_manifold(curved)
    assert not ProductManifold(SPHERE, curved).same_geometry(ProductManifold(SPHERE, other))
    assert ProductManifold(SPHERE, curved).same_geometry(ProductManifold(SPHERE, twin))


def test_chart_gauge_reads_each_point_once_and_makes_no_margin_calls(monkeypatch):
    margins, reads = [], []
    monkeypatch.setattr(Chart, "margin", lambda self, p: margins.append(1) or 0.0)
    base = SPHERE.charts()[0]
    counted = Chart(
        base.name,
        base.dim,
        lambda p: reads.append(1) or base.to_coords(p),
        base.from_coords,
        base.dto,
        base.dfrom,
        base.radius,
    )
    gauge = chart_gauge(SPHERE, counted)
    m, n = np.array([0.6, 0.0, -0.8]), np.array([0.0, 0.6, -0.8])
    psi = gauge.log.value(m, n)
    u = gauge.par.matrix(m, n)
    assert margins == [] and len(reads) == 4
    x_m, x_n = base.to_coords(m), base.to_coords(n)
    assert np.array_equal(psi, base.dfrom(x_m) @ (x_n - x_m))
    assert np.array_equal(u, base.dfrom(x_m) @ base.dto(n))


def test_chart_gauge_outside_its_chart_raises_chart_singular():
    gauge = chart_gauge(SPHERE, SPHERE.charts()[0])  # stereographic from the north pole
    inside, pole = np.array([0.6, 0.0, -0.8]), np.array([0.0, 0.0, 1.0])
    near_pole = np.array([0.3, 0.0, np.sqrt(1 - 0.09)])
    for bad in (pole, near_pole):
        with pytest.raises(ChartSingular):
            gauge.log.value(inside, bad)
        with pytest.raises(ChartSingular):
            gauge.par.matrix(bad, inside)
