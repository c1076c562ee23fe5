"""The user-callable contract: every curve, one-form, field, observable and map the library
evaluates goes through ``linalg.pointwise``, one call per row, so a value of the wrong shape
raises ``ShapeError`` and a non-finite one a typed error, each naming the first bad time,
point or pair, never a raw numpy error or a silent NaN."""

from __future__ import annotations

import re

import numpy as np
import pytest

from crp import CrpError, DomainError, ShapeError
from crp.fixtures import LINE, SPHERE, example_67_crp, linear_drive_driver, sphere_projection_field, sphere_spiral_crp
from crp.gauges import connection_gauge, logarithm_gauge
from crp.linalg import pointwise
from crp.mcrp import crp_from_smooth_curve, crp_pushforward, ratio_at_pair, scalar_test_suite
from crp.mrde import (
    ManifoldDrivingField,
    f_related_pushforward,
    gauge_form_defects,
    pushed_field_path,
    rde_solve_manifold,
    scalar_solution_defects,
)
from crp.oneforms import fundamental_theorem, oneform_from_smooth
from crp.roughpath import time_lift


def circle(t):
    return np.array([np.cos(t), np.sin(t), 0.0])


def dcircle(t):
    return np.array([-np.sin(t), np.cos(t), 0.0])


def at(points, i, bad, good):
    """A callable that is ``good`` everywhere but at ``points[i]``, where it is ``bad``."""
    key = np.asarray(points[i]).tobytes()
    return lambda *args: bad(*args) if np.asarray(args[-1]).tobytes() == key else good(*args)


def spiral():
    return sphere_spiral_crp(8, T=1.0)


def solve():
    return rde_solve_manifold(sphere_projection_field(), linear_drive_driver(8), np.array([0.0, 1.0, 0.0]))


def smooth_curve(curve, dcurve):
    return crp_from_smooth_curve(SPHERE, curve, dcurve, time_lift(np.linspace(0.0, 1.0, 9)))


def pushforward(f, jac):
    return crp_pushforward(f, jac, spiral(), SPHERE)


def scalar_suite(i):
    y = spiral()
    return scalar_test_suite(y, [(lambda m: m[0], at(y.points, i, lambda m: np.ones(2), lambda m: np.ones(3)))])


def ftc(i):
    y = spiral()
    f = at(y.points, i, lambda m: m[:2], lambda m: m[2])
    return fundamental_theorem(f, lambda m: np.array([0.0, 0.0, 1.0]), y, connection_gauge(SPHERE))


def scalar_defects(i):
    y = solve()
    f = at(y.points, i, lambda m: m[:2], lambda m: m[0])
    return scalar_solution_defects(y, sphere_projection_field(), f, lambda m: np.array([1.0, 0.0, 0.0]))


def related(i):
    y = solve()
    jac = at(y.points, i, lambda m: np.eye(3)[:2], lambda m: np.eye(3))
    return f_related_pushforward(lambda m: m, jac, sphere_projection_field(), sphere_projection_field(), y)


def related_fields():
    narrow = ManifoldDrivingField(SPHERE, lambda m: SPHERE.tangent_projector(m)[:, :2], name="narrow")
    return f_related_pushforward(lambda m: m, lambda m: np.eye(3), sphere_projection_field(), narrow, solve())


def log_gauge_psi(i):
    ms, ns = np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(0.5, -0.5, 5)[:, None]
    psi = at(ns, i, lambda m, n: np.append(n - m, 0.0), lambda m, n: n - m)
    return logarithm_gauge(LINE, psi).psi(ms, ns)


def field_values(i):
    y = solve()
    value = at(y.points, i, lambda m: SPHERE.tangent_projector(m)[:, :2], SPHERE.tangent_projector)
    return gauge_form_defects(y, ManifoldDrivingField(SPHERE, value, name="bad"), connection_gauge(SPHERE))


def chart_stepped_drop():
    """The chart-stepped solve of a field that drops a column once m[0] >= 0.05, first at t = 1/16."""

    def value(m):
        return SPHERE.tangent_projector(m)[:, : 2 if m[0] >= 0.05 else 3]

    field = ManifoldDrivingField(SPHERE, value, name="drop")
    return rde_solve_manifold(field, linear_drive_driver(16), np.array([0.0, 0.6, 0.8]))


def chart_stepped_stencil_drop():
    """The same solve of a field that drops a column once m[0] > 1e-7: the first step's FD stencil
    reads it at a point 1.8e-6 along the first axis, before any node does."""

    def value(m):
        return SPHERE.tangent_projector(m)[:, : 2 if m[0] > 1e-7 else 3]

    field = ManifoldDrivingField(SPHERE, value, name="stencil-drop")
    return rde_solve_manifold(field, linear_drive_driver(16), np.array([0.0, 0.6, 0.8]))


NAN3 = np.full(3, np.nan)

# (site, the call with its malformed callable, expected error, the row its message names)
CASES = [
    ("crp_from_smooth_curve:curve", lambda: smooth_curve(lambda t: circle(t)[: 2 + (t < 0.5)], dcircle),
     ShapeError, "curve(0.5) has shape (2,)"),
    ("crp_from_smooth_curve:dcurve", lambda: smooth_curve(circle, lambda t: NAN3 if t == 0.75 else dcircle(t)),
     DomainError, "dcurve is not finite at t=0.75"),
    ("crp_pushforward:f", lambda: pushforward(at(spiral().points, 3, lambda m: m[:2], lambda m: m),
                                              lambda m: np.eye(3)),
     ShapeError, "f at sample 3 has shape (2,)"),
    ("crp_pushforward:jac", lambda: pushforward(lambda m: m, at(spiral().points, 5,
                                                                lambda m: np.full((3, 3), np.nan), lambda m: np.eye(3))),
     DomainError, "jac at sample 5 is not finite"),
    ("scalar_test_suite:df", lambda: scalar_suite(2), ShapeError, "jac at sample 2 has shape (1, 2)"),
    ("fundamental_theorem:f", lambda: ftc(8), ShapeError, "f at sample 8 has shape (2,)"),
    ("scalar_solution_defects:f", lambda: scalar_defects(4), ShapeError, "f at point 4 has shape (2,)"),
    ("pushed_field_path:alpha", lambda: pushed_field_path(solve(), sphere_projection_field(), lambda m: np.ones((1, 4))),
     ShapeError, "one-form value at point 0 has shape (1, 4)"),
    ("f_related_pushforward:jac", lambda: related(2), ShapeError, "jac at point 2 has shape (2, 3)"),
    ("f_related_pushforward:field", related_fields, ShapeError, "field narrow at point 0 has shape (3, 2), not (3, 3)"),
    ("logarithm_gauge:psi", lambda: log_gauge_psi(1), ShapeError, "psi at pair 1 has shape (2,)"),
    ("field-values", lambda: field_values(3), ShapeError, "field bad at point 3 has shape (3, 2)"),
    ("rde_solve_manifold:field", chart_stepped_drop, ShapeError, "field drop at t=0.0625 has shape (3, 2), not (3, 3)"),
    ("rde_solve_manifold:field-stencil", chart_stepped_stencil_drop, ShapeError,
     "field stencil-drop at point [1.8e-06 6.0e-01 8.0e-01] has shape (3, 2), not (3, 3)"),
]


@pytest.mark.parametrize("call,error,names", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_callable_raises_a_typed_error_naming_its_first_bad_row(call, error, names):
    with pytest.raises(error, match=re.escape(names)) as err:
        call()
    assert isinstance(err.value, CrpError)


def test_ratio_at_pair_follows_the_kernels_zero_over_zero_rule():
    # the control of example 6.7 vanishes on [0, 1], where the chart remainder is zero too
    y = example_67_crp()
    assert ratio_at_pair(y, LINE.charts()[0], 0.0, y.times[10]) == 0.0
    assert abs(ratio_at_pair(y, LINE.charts()[0], 0.0, y.times[np.searchsorted(y.times, 1.0) + 1]) - 10.0) < 1e-9


# -- call counts ---------------------------------------------------------------------------


def counted(fn):
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper, calls


@pytest.mark.parametrize(
    "rows,fn",
    [
        (np.linspace(0.0, 1.0, 7), np.sin),  # times, a scalar read as shape (1,)
        (spiral().points, lambda m: np.outer(m, m)),  # points
        (np.stack([np.ones((4, 3)), np.zeros((4, 3))], axis=1), lambda mn: mn[0] - mn[1]),  # pairs
    ],
    ids=["times", "points", "pairs"],
)
def test_pointwise_calls_fn_exactly_once_per_row(rows, fn):
    wrapper, calls = counted(fn)
    out = pointwise(wrapper, rows, "value")
    assert len(calls) == len(rows) == out.shape[0]
    assert all(np.array_equal(args[0], row) for args, row in zip(calls, rows))
    assert np.array_equal(out, np.stack([np.atleast_1d(fn(row)) for row in rows]))


def test_pointwise_fixes_a_none_axis_from_the_first_value():
    out = pointwise(lambda t: np.ones((2, 3)), np.arange(4.0), "alpha", (None, 3))
    assert out.shape == (4, 2, 3)
    with pytest.raises(ShapeError, match=re.escape("alpha(0.0) has shape (3,), not (None, 3)")):
        pointwise(lambda t: np.ones(3), np.arange(4.0), "alpha", (None, 3))


@pytest.mark.parametrize("maker", [lambda: sphere_spiral_crp(16), lambda: smooth_curve(circle, dcircle)],
                         ids=["sphere-k3", "sphere-k1"])
def test_oneform_from_smooth_makes_the_documented_number_of_form_calls(maker):
    y = maker()
    form, calls = counted(lambda m: np.array([[m[1], -m[0], 0.5]]))
    oneform_from_smooth(form, y, connection_gauge(SPHERE).par)
    assert len(calls) == y.times.size * (1 + 4 * min(y.driver_dim, y.manifold.dim))
