"""Whole-grid one-form derivative samples and the closed-form chart/connection S.

The per-node reference below is the one-Richardson-stencil-per-(node, direction)
construction the whole-grid path replaced, and ``column_samples`` the whole-grid
stencil over every driver column that the tangent-basis stencil replaced; the
closed-form compatibility tensors are checked against the finite-difference
oracle ``compatibility_tensor``.
"""

from __future__ import annotations

import numpy as np
import pytest

import crp.gauges
import crp.manifolds
import crp.transport
from crp import DomainError, GaugeMismatch, ShapeError
from crp.fixtures import SPHERE, so3_curve_crp, sphere_spiral_crp
from crp.gauges import (
    ChristoffelCompatibility,
    Parallelism,
    change_tensor,
    chart_gauge,
    compatibility_tensor,
    connection_gauge,
)
from crp.manifolds import SO3, ChartManifold
from crp.mcrp import ManifoldControlledPath
from crp.mrde import ManifoldDrivingField, pushed_field_path
from crp.oneforms import gauge_change, oneform_from_smooth
from crp.roughpath import lift_smooth
from paper_reference import (
    ConnectionForm,
    ProductManifold,
    derivative_along_by_level,
    horizontal_lift,
    richardson_levels,
)


def asymmetric_connection(x):
    # the torsionful connection of test_gauges: Gamma^0_{01} != Gamma^0_{10}, varying with x
    a = np.zeros(x.shape[:-1] + (2, 2, 2))
    a[..., 0, 0, 1] = 0.3 + 0.1 * x[..., 0]
    a[..., 1, 1, 0] = -0.2 + 0.05 * x[..., 1]
    return a


def reference_samples(value_fn, y, h=1e-4):
    """Per-node derivatives of q -> value_fn(q, m) along y', shape (N+1, k, ...): one
    stencil per (node, direction), points by ``exp`` (straight lines on chart manifolds)."""
    mani = y.manifold
    if isinstance(mani, ChartManifold):
        def curve(m, u, e):
            return m + e * u
    else:
        def curve(m, u, e):
            return mani.exp(m, e * u)
    n, k = y.times.size, y.driver_dim
    out = np.zeros((n, k) + np.shape(value_fn(y.points[0], y.points[0])))
    for idx, m in enumerate(y.points):
        for a in range(k):
            v = y.derivative[idx][:, a]
            speed = float(np.linalg.norm(v))
            if speed < 1e-14:
                continue
            u = mani.unflatten(v / speed)
            out[idx, a] = speed * richardson_levels(lambda e, _m=m, _u=u: value_fn(curve(_m, _u, e), _m), h)
    return out


def reference_dag(alpha_fn, y, par):
    """The per-node alpha' of ``oneform_from_smooth``, shape (N+1, n, k, D), one parallelism matrix at a time."""
    ref = reference_samples(lambda q, m: np.asarray(alpha_fn(q), dtype=float) @ par.matrix(q, m), y)
    return np.swapaxes(ref, 1, 2)


def sphere_form(m):
    return np.array([[-m[1], m[0], 0.3 * m[2]], [m[2] ** 2, 0.0, np.sin(m[0])]])


def so3_form(g):
    g = np.asarray(g, dtype=float).reshape(9)
    return np.stack([np.cos(g), g**2 - 0.5 * g[::-1]])


def chart_form(x):
    return np.array([[np.cos(x[0]), x[0] * x[1]], [1.0, np.exp(0.2 * x[1])]])


def asymmetric_path(n=32):
    mani = ChartManifold(2, radius=1.0, gamma=asymmetric_connection, h_geo=0.1)
    rp = lift_smooth(
        lambda t: np.array([0.3 * np.cos(t), 0.2 * np.sin(2.0 * t)]),
        np.linspace(0.0, 2.0, n + 1),
        dpath=lambda t: np.array([-0.3 * np.sin(t), 0.4 * np.cos(2.0 * t)]),
    )
    deriv = np.broadcast_to(np.eye(2), (n + 1, 2, 2)).copy()
    return ManifoldControlledPath(mani, rp.times, rp.values.copy(), deriv, rp)


def product_path(n=32):
    y = sphere_spiral_crp(n)
    conn = ConnectionForm(SPHERE, lambda m: 0.4 * SPHERE.tangent_projector(m))
    return horizontal_lift(y, conn, np.eye(3)).product_path()


def product_form(p):
    p = np.asarray(p, dtype=float)
    return np.stack([np.sin(p), p * p[::-1]])


def grid_cases():
    y_s = sphere_spiral_crp(32)
    y_a = asymmetric_path()
    y_p = product_path()
    return [
        ("sphere-connection", sphere_form, y_s, connection_gauge(SPHERE).par),
        ("sphere-chart", sphere_form, y_s, chart_gauge(SPHERE, SPHERE.charts()[0]).par),
        ("so3", so3_form, so3_curve_crp(32), connection_gauge(SO3()).par),
        ("chart-asymmetric", chart_form, y_a, connection_gauge(y_a.manifold).par),
        ("sphere*so3", product_form, y_p, connection_gauge(y_p.manifold).par),
    ]


@pytest.mark.parametrize("name,form,y,par", grid_cases(), ids=[c[0] for c in grid_cases()])
def test_whole_grid_derivative_samples_match_the_per_node_reference(name, form, y, par):
    got = oneform_from_smooth(form, y, par).alpha_dag
    want = reference_dag(form, y, par)
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("name,form,y,par", grid_cases(), ids=[c[0] for c in grid_cases()])
def test_one_stencil_call_matches_the_per_level_stencil_bit_for_bit(name, form, y, par):
    # every driver column at every node, one of them zero: g runs once on the four levels' points
    n, k = y.times.size, y.driver_dim
    ms = np.repeat(y.points, k, axis=0)
    vs = np.swapaxes(y.derivative, 1, 2).reshape(n * k, -1).copy()
    vs[1] = 0.0
    g, calls = transported(form, par), []
    got = y.manifold.derivative_along(ms, vs, lambda qs, bases: calls.append(len(qs)) or g(qs, bases))
    assert calls == [4 * (n * k - 1)]
    assert np.array_equal(got, derivative_along_by_level(y.manifold, ms, vs, g))
    assert np.all(got[1] == 0.0)


def test_zero_speed_direction_columns_stay_exactly_zero():
    y = sphere_spiral_crp(32)
    deriv = y.derivative.copy()
    deriv[:, :, 1] = 0.0
    deriv[::3, :, 0] = 0.0
    y0 = ManifoldControlledPath(SPHERE, y.times, y.points, deriv, y.driver)
    dag = oneform_from_smooth(sphere_form, y0, connection_gauge(SPHERE).par).alpha_dag
    assert np.all(dag[:, :, 1, :] == 0.0)
    assert np.all(dag[::3, :, 0, :] == 0.0)
    assert np.max(np.abs(dag[1::3, :, 0, :])) > 0.01


def test_pushed_field_path_matches_the_per_node_reference():
    y = sphere_spiral_crp(32)

    field = ManifoldDrivingField(SPHERE, SPHERE.tangent_projector)
    got = pushed_field_path(y, field, sphere_form).derivative  # (N+1, n, k', k)
    want = np.moveaxis(reference_samples(lambda q, m: sphere_form(q) @ field.value_matrix(q), y), 1, -1)
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


# -- derivative samples on a tangent basis ---------------------------------------------


def column_samples(y, g):
    """Derivatives of g along every column of y', one stencil row per (node, driver column):
    the whole-grid stencil before the rows ran along a tangent basis, shape (N+1, k, ...)."""
    n, k = y.times.size, y.driver_dim
    ms = np.repeat(y.points, k, axis=0)
    vs = np.swapaxes(y.derivative, 1, 2).reshape(n * k, -1)
    d = y.manifold.derivative_along(ms, vs, g)
    return d.reshape((n, k) + d.shape[1:])


def transported(form, par):
    """The stencil function of ``oneform_from_stacks``: q -> alpha(q) o U(q, base)."""

    def g(qs, bases):
        return np.einsum("pnd,pde->pne", np.stack([form(q) for q in qs]), par.matrix(qs, bases))

    return g


def wide_driver(times, k):
    """A smooth k-dimensional driver on the grid."""
    w = np.arange(1.0, k + 1.0)
    return lift_smooth(lambda t: np.sin(w * t), times, dpath=lambda t: w * np.cos(w * t))


def wide_chart_path(n=32):
    """The asymmetric chart path driven through three driver columns: k = 3 > dim = 2."""
    y = asymmetric_path(n)
    deriv = np.stack([np.array([[1.0, 0.5 * t, 0.0], [0.0, 1.0, -0.3 * t]]) for t in y.times])
    return ManifoldControlledPath(y.manifold, y.times, y.points, deriv, wide_driver(y.times, 3))


def wide_so3_path(n=32):
    """The SO(3) curve driven through four driver columns, tangent ones: k = 4 > dim = 3."""
    y = so3_curve_crp(n)
    cols = np.random.default_rng(29).standard_normal((y.times.size, 9, 4))
    return ManifoldControlledPath(y.manifold, y.times, y.points, y.manifold.tangent_projector(y.points) @ cols,
                                  wide_driver(y.times, 4))


def wide_cases():
    y_s, y_c, y_r = sphere_spiral_crp(32), wide_chart_path(16), wide_so3_path()
    return [
        ("sphere-connection", sphere_form, y_s, connection_gauge(SPHERE).par),
        ("sphere-chart", sphere_form, y_s, chart_gauge(SPHERE, SPHERE.charts()[0]).par),
        ("chart-asymmetric-k3", chart_form, y_c, connection_gauge(y_c.manifold).par),
        ("so3-k4", so3_form, y_r, connection_gauge(SO3()).par),
    ]


@pytest.mark.parametrize(
    "mani",
    [SPHERE, SO3(), ChartManifold(2, radius=1.0, gamma=asymmetric_connection, h_geo=0.1), product_path(4).manifold],
    ids=["sphere", "so3", "chart-asymmetric", "sphere*so3"],
)
def test_tangent_basis_is_orthonormal_and_spans_the_tangent_space(mani):
    rng = np.random.default_rng(31)
    pts = np.stack([mani.random_point(rng) for _ in range(200)]).reshape((20, 10) + mani.point_shape)
    e = mani.tangent_basis(pts)
    assert e.shape == (20, 10, mani.flat_dim, mani.dim)
    et = np.swapaxes(e, -1, -2)
    # eigh's rounding: 8 machine epsilons (1.8e-15)
    assert np.max(np.abs(et @ e - np.eye(mani.dim))) <= 8 * np.finfo(float).eps
    assert np.max(np.abs(e @ et - mani.tangent_projector(pts))) <= 8 * np.finfo(float).eps
    assert np.array_equal(mani.tangent_basis(pts[3, 4]), e[3, 4])


@pytest.mark.parametrize("name,form,y,par", wide_cases(), ids=[c[0] for c in wide_cases()])
def test_tangent_basis_stencil_matches_the_column_stencil_when_k_exceeds_dim(name, form, y, par):
    assert y.driver_dim > y.manifold.dim
    g = transported(form, par)
    got, want = y.derivative_samples(g), column_samples(y, g)
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("name,form,y,par", grid_cases()[2:], ids=[c[0] for c in grid_cases()[2:]])
def test_derivative_samples_take_the_columns_bit_for_bit_when_k_is_at_most_dim(name, form, y, par):
    assert y.driver_dim <= y.manifold.dim
    g = transported(form, par)
    assert np.array_equal(y.derivative_samples(g), column_samples(y, g))


@pytest.mark.parametrize("name,form,y,par", grid_cases() + wide_cases()[2:],
                         ids=[c[0] for c in grid_cases() + wide_cases()[2:]])
def test_form_evaluations_per_construction(name, form, y, par):
    calls = [0]

    def counted(m):
        calls[0] += 1
        return form(m)

    oneform_from_smooth(counted, y, par)
    # the nodes, then 4 Richardson points along min(k, dim M) directions at every node
    assert calls[0] == y.times.size * (1 + 4 * min(y.driver_dim, y.manifold.dim))


# -- the work done -----------------------------------------------------------------


def counting(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_richardson_stencil_and_no_scalar_parallelism_calls(monkeypatch):
    stencils = counting(monkeypatch, crp.manifolds, "richardson_diff")
    shapes = []
    matrix = Parallelism.matrix
    monkeypatch.setattr(Parallelism, "matrix", lambda self, a, b: shapes.append(np.shape(a)) or matrix(self, a, b))
    y = sphere_spiral_crp(32)
    oneform_from_smooth(sphere_form, y, connection_gauge(SPHERE).par)
    assert stencils[0] == 1
    # one call for the whole stencil: its 4 levels of (N+1) min(k, dim) = 33 * 2 stencil points
    assert shapes == [(4 * 33 * 2, 3)]


def test_gauge_change_to_a_stereographic_chart_takes_no_finite_differences(monkeypatch):
    fd = counting(monkeypatch, crp.gauges, "chart_rep_derivative")
    fd_coefficients = counting(monkeypatch, crp.manifolds, "chart_rep_derivative")
    y = sphere_spiral_crp(32)
    conn = connection_gauge(SPHERE)
    a = oneform_from_smooth(sphere_form, y, conn.par)
    moved = gauge_change(a, chart_gauge(SPHERE, SPHERE.charts()[0]).par)
    gauge_change(moved, conn.par)
    assert fd[0] == fd_coefficients[0] == 0


# -- the closed-form S -----------------------------------------------------------------


def on_tangents(mani, m, s):
    p = mani.tangent_projector(m)
    return np.einsum("Cc,cab,aA,bB->CAB", p, s, p, p)


def test_christoffel_s_matches_the_fd_oracle_in_both_orders_and_either_chart():
    rng = np.random.default_rng(17)
    conn = connection_gauge(SPHERE).par
    chart = SPHERE.charts()[0]
    chart_par = chart_gauge(SPHERE, chart).par
    other = 0
    for _ in range(40):
        m = SPHERE.random_point(rng)
        if m[2] > 0.85:
            continue  # outside the north chart's domain
        other += SPHERE.chart_at(m).name != chart.name
        for u_tilde, u in ((chart_par, conn), (conn, chart_par)):
            closed = change_tensor(u_tilde, u, SPHERE)
            assert isinstance(closed, ChristoffelCompatibility)
            fd = compatibility_tensor(u_tilde, u, SPHERE)
            gap = on_tangents(SPHERE, m, closed.at(m)) - on_tangents(SPHERE, m, fd.at(m))
            assert np.max(np.abs(gap)) <= 1e-8
    assert other >= 5


def test_christoffel_s_flips_sign_with_the_pair_order():
    conn = connection_gauge(SPHERE).par
    chart_par = chart_gauge(SPHERE, SPHERE.charts()[1]).par
    pts = np.array([[0.0, 0.6, -0.8], [0.6, 0.0, 0.8], [0.36, 0.48, 0.8]])
    forward = change_tensor(chart_par, conn, SPHERE).stack(pts)
    assert np.array_equal(change_tensor(conn, chart_par, SPHERE).stack(pts), -forward)
    assert np.max(np.abs(forward)) > 0.1


@pytest.mark.parametrize("h_geo", (0.1, 0.01))
def test_chart_manifold_christoffel_s_matches_the_fd_fallback(h_geo):
    mani = ChartManifold(2, radius=1.0, gamma=asymmetric_connection, h_geo=h_geo)
    conn = connection_gauge(mani).par
    chart_par = chart_gauge(mani, mani.charts()[0]).par
    rng = np.random.default_rng(4)
    for _ in range(4):
        m = mani.random_point(rng)
        closed = change_tensor(chart_par, conn, mani).at(m)
        assert np.array_equal(closed, asymmetric_connection(m))
        fd = compatibility_tensor(chart_par, conn, mani).at(m)
        assert np.max(np.abs(closed - fd)) <= 1e-9


def test_chart_manifold_chart_christoffels_is_gamma_and_takes_no_fd(monkeypatch):
    fd = counting(monkeypatch, crp.manifolds, "chart_rep_derivative")
    mani = ChartManifold(2, radius=1.0, gamma=asymmetric_connection)
    chart = mani.charts()[0]
    x = np.array([0.2, -0.1])
    assert np.array_equal(crp.transport.chart_christoffels(mani, chart, x), asymmetric_connection(x))
    xs = np.array([[0.2, -0.1], [0.0, 0.3]])
    assert np.array_equal(mani.chart_christoffels(chart, xs), np.stack([asymmetric_connection(x) for x in xs]))
    flat = ChartManifold(3)
    assert np.array_equal(flat.chart_christoffels(flat.charts()[0], np.ones(3)), np.zeros((3, 3, 3)))
    assert fd[0] == 0
    SO3().chart_christoffels(SO3().charts()[0], np.array([0.1, 0.2, -0.3]))
    assert fd[0] == 1  # the counter sees the default's finite differences


@pytest.mark.parametrize("mani", [SO3(), ProductManifold(SPHERE, SO3())], ids=["so3", "sphere*so3"])
def test_so3_and_product_chart_connection_s_match_the_fd_oracle(mani):
    # no closed-form coefficients: ChristoffelCompatibility with the Manifold default's FD coefficients
    conn = connection_gauge(mani).par
    chart = mani.charts()[0]
    chart_par = chart_gauge(mani, chart).par
    rng = np.random.default_rng(23)
    pts = np.stack([m for m in (mani.random_point(rng) for _ in range(8)) if chart.margin(m) > 0.3])
    assert len(pts) >= 3
    for u_tilde, u in ((chart_par, conn), (conn, chart_par)):
        closed = change_tensor(u_tilde, u, mani)
        assert isinstance(closed, ChristoffelCompatibility)
        got, fd = closed.stack(pts), compatibility_tensor(u_tilde, u, mani).stack(pts)
        for m, a, b in zip(pts, got, fd):
            assert np.max(np.abs(on_tangents(mani, m, a) - on_tangents(mani, m, b))) <= 1e-8


# -- typed errors ------------------------------------------------------------------------


def test_one_dimensional_form_value_raises_shape_error():
    y = sphere_spiral_crp(16)
    with pytest.raises(ShapeError, match="node 0"):
        oneform_from_smooth(lambda m: np.array([-m[1], m[0], 0.0]), y, connection_gauge(SPHERE).par)


def test_form_value_of_the_wrong_width_raises_shape_error():
    y = sphere_spiral_crp(16)
    with pytest.raises(ShapeError, match="node 0"):
        oneform_from_smooth(lambda m: np.zeros((1, 4)), y, connection_gauge(SPHERE).par)


def test_form_value_changing_shape_along_the_path_raises_shape_error():
    y = sphere_spiral_crp(16)
    bad = y.points[5].tobytes()

    def form(m):
        return np.zeros((2, 3)) if np.asarray(m).tobytes() == bad else np.zeros((1, 3))

    with pytest.raises(ShapeError, match="node 5"):
        oneform_from_smooth(form, y, connection_gauge(SPHERE).par)


def test_non_finite_form_value_raises_domain_error():
    y = sphere_spiral_crp(16)
    bad = y.points[7].tobytes()

    def form(m):
        return np.full((1, 3), np.nan) if np.asarray(m).tobytes() == bad else np.ones((1, 3))

    with pytest.raises(DomainError, match="node 7"):
        oneform_from_smooth(form, y, connection_gauge(SPHERE).par)


def test_parallelism_of_another_manifold_raises_gauge_mismatch():
    y = sphere_spiral_crp(16)
    so3 = SO3()
    with pytest.raises(GaugeMismatch):
        oneform_from_smooth(lambda m: np.zeros((1, 3)), y, connection_gauge(so3).par)
    a = oneform_from_smooth(lambda m: np.ones((1, 3)), y, connection_gauge(SPHERE).par)
    with pytest.raises(GaugeMismatch):
        gauge_change(a, chart_gauge(so3, so3.charts()[0]).par)


def test_equal_manifold_instances_are_accepted():
    y = product_path(16)
    twin = ProductManifold(SPHERE, SO3())
    a = oneform_from_smooth(product_form, y, connection_gauge(twin).par)
    assert a.alpha_dag.shape == (17, 2, 3, 12)
