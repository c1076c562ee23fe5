"""Deterministic named fixtures: drivers, manifold paths, fields, one-forms.

Every fixture is a pure function of its parameters (sizes, speeds, seeds), so
repeated builds are bit-identical.  Builders take the grid size N and return
library objects ready for the verification suites.
"""

from __future__ import annotations

import numpy as np

from .controls import Control
from .convergence import dyadic_levels, refinement_study
from .errors import ConfigError
from .flatrde import DrivingField, rde_solve_flat
from .linalg import SO3_BASIS, hat, so3_exp
from .manifolds import ChartManifold, SO3, Sphere
from .mcrp import ManifoldControlledPath, crp_from_projection, crp_from_smooth_curve
from .mrde import ManifoldDrivingField, rde_solve_manifold
from .roughpath import RoughPath, lift_piecewise_linear, lift_smooth, pure_area_driver, time_lift

SPHERE = Sphere()
SO3M = SO3()
LINE = ChartManifold(1, radius=20.0)
FLAT3 = ChartManifold(3, radius=20.0)


# -- drivers -----------------------------------------------------------------------


def smooth_2d_driver(n, T=1.0):
    grid = np.linspace(0.0, T, n + 1)
    return lift_smooth(
        lambda t: np.array([np.sin(t), np.cos(2.0 * t) / 2.0]),
        grid,
        dpath=lambda t: np.array([np.cos(t), -np.sin(2.0 * t)]),
    )


def pure_area_fixture(n, a=1.0, T=1.0):
    return pure_area_driver(a, np.linspace(0.0, T, n + 1))


def brownian_lift(n, shift=0.0):
    """Piecewise-linear lift at p = 2.5 of a two-dimensional Brownian path of seed 7 on [0, 1], started at ``shift``."""
    steps = np.random.default_rng(7).standard_normal((n, 2)) * np.sqrt(1.0 / n)
    values = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]) + shift
    return lift_piecewise_linear(values, np.linspace(0.0, 1.0, n + 1), p=2.5)


def so3_constant_driver(n, a0=(0.0, 0.0, np.pi / 2)):
    """Driver t -> t a0 in so(3) coordinates on [0, 1], area half the squared step."""
    a0 = np.asarray(a0, dtype=float)
    grid = np.linspace(0.0, 1.0, n + 1)
    pts = np.outer(grid, a0)
    dx = np.diff(pts, axis=0)
    areas = 0.5 * np.einsum("ia,ib->iab", dx, dx)
    return RoughPath(grid, pts, areas, Control.time_scale(max(float(np.linalg.norm(a0)), 1e-12), 1.0))


def linear_drive_driver(n, speed=1.0, T=1.0):
    """Ambient R^3 driver moving along the first axis at constant speed."""
    grid = np.linspace(0.0, T, n + 1)
    pts = np.zeros((n + 1, 3))
    pts[:, 0] = speed * grid
    dx = np.diff(pts, axis=0)
    areas = 0.5 * np.einsum("ia,ib->iab", dx, dx)
    c = max(speed, speed**2)
    return RoughPath(grid, pts, areas, Control.time_scale(max(c, 1e-12), 1.0))


# -- sphere paths --------------------------------------------------------------------


def equator_crp(n, T=2.0 * np.pi):
    grid = np.linspace(0.0, T, n + 1)
    rp = lift_smooth(
        lambda t: np.array([np.cos(t), np.sin(t), 0.0]),
        grid,
        dpath=lambda t: np.array([-np.sin(t), np.cos(t), 0.0]),
    )
    return crp_from_projection(SPHERE, rp)


def latitude_crp(n, theta=np.pi / 6, T=2.0 * np.pi):
    r, z = np.sin(theta), np.cos(theta)
    grid = np.linspace(0.0, T, n + 1)
    rp = lift_smooth(
        lambda t: np.array([r * np.cos(t), r * np.sin(t), z]),
        grid,
        dpath=lambda t: np.array([-r * np.sin(t), r * np.cos(t), 0.0]),
    )
    return crp_from_projection(SPHERE, rp)


def sphere_spiral_crp(n, T=2.0 * np.pi):
    """Nonsymmetric smooth sphere path (wobbling latitude)."""

    def curve(t):
        th = np.pi / 3 + 0.3 * np.sin(t)
        return np.array([np.sin(th) * np.cos(t), np.sin(th) * np.sin(t), np.cos(th)])

    def dcurve(t):
        th = np.pi / 3 + 0.3 * np.sin(t)
        dth = 0.3 * np.cos(t)
        return np.array(
            [
                np.cos(th) * dth * np.cos(t) - np.sin(th) * np.sin(t),
                np.cos(th) * dth * np.sin(t) + np.sin(th) * np.cos(t),
                -np.sin(th) * dth,
            ]
        )

    grid = np.linspace(0.0, T, n + 1)
    rp = lift_smooth(curve, grid, dpath=dcurve)
    return crp_from_projection(SPHERE, rp)


def polar_cap_crp(n, theta=np.pi / 6, T=2.0 * np.pi):
    """Latitude loop bounding a polar cap (alias used by the FTC fixtures)."""
    return latitude_crp(n, theta=theta, T=T)


def tilted_great_circle_crp(n, tilt=-1.4):
    """The equator turned by ``tilt`` about e_1, through both polar caps, driven by time: its frames switch chart."""
    rot, grid = so3_exp(np.array([tilt, 0.0, 0.0])), time_lift(np.linspace(0.0, 2.0 * np.pi, n + 1))
    curve, dcurve = (lambda t: rot @ [np.cos(t), np.sin(t), 0.0]), (lambda t: rot @ [-np.sin(t), np.cos(t), 0.0])
    return crp_from_smooth_curve(SPHERE, curve, dcurve, grid)


# -- SO(3) paths ------------------------------------------------------------------------


def so3_curve_crp(n, T=1.5):
    c1 = hat(np.array([0.0, 0.0, 1.0]))
    c2 = hat(np.array([1.0, 0.0, 0.0]))

    def curve(t):
        return so3_exp(np.array([0.0, 0.0, t])) @ so3_exp(np.array([0.5 * np.sin(t), 0.0, 0.0]))

    def dcurve(t):
        a = so3_exp(np.array([0.0, 0.0, t]))
        b = so3_exp(np.array([0.5 * np.sin(t), 0.0, 0.0]))
        return c1 @ a @ b + 0.5 * np.cos(t) * (a @ c2 @ b)

    return crp_from_smooth_curve(SO3M, curve, dcurve, time_lift(np.linspace(0.0, T, n + 1)))


# -- flat / chart-manifold paths --------------------------------------------------------


def flat3_crp(n, T=2.0 * np.pi):
    """Ambient R^3 controlled path staying away from the origin."""
    grid = np.linspace(0.0, T, n + 1)
    rp = lift_smooth(
        lambda t: np.array([np.cos(t), np.sin(t), 0.5 + 0.2 * np.sin(2.0 * t)]),
        grid,
        dpath=lambda t: np.array([-np.sin(t), np.cos(t), 0.4 * np.cos(2.0 * t)]),
    )
    deriv = np.broadcast_to(np.eye(3), (n + 1, 3, 3)).copy()
    return ManifoldControlledPath(FLAT3, grid, rp.values.copy(), deriv, rp)


def line_quadratic_crp(n, T=1.0):
    """Scalar path on the line, used by the quadratic-gauge fixtures."""
    grid = np.linspace(0.0, T, n + 1)
    rp = lift_smooth(lambda t: np.array([np.sin(t)]), grid, dpath=lambda t: np.array([np.cos(t)]))
    pts = rp.values.copy()
    deriv = np.ones((n + 1, 1, 1))
    return ManifoldControlledPath(LINE, grid, pts, deriv, rp)


def example_67_crp(eps=0.01, p=2.0):
    """Degenerate-control fixture on the line (closed-form path and control)."""
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
    return ManifoldControlledPath(LINE, grid, x[:, None].copy(), ydag[:, None, None], rp)


# -- fields ------------------------------------------------------------------------------


def sphere_projection_field():
    return ManifoldDrivingField(SPHERE, lambda m: SPHERE.tangent_projector(m), name="projection")


def sphere_projection_flow(y0, speed, times):
    """Exact flow of the projection field under ``linear_drive_driver``, at ``times``.

    dp/dt = speed (e1 - p p_1) moves p on the great circle from y0 towards e1,
    at an angle theta to e1 with tan(theta / 2) = tan(theta_0 / 2) e^{-speed t}.
    """
    y0 = np.asarray(y0, dtype=float)
    e1 = np.array([1.0, 0.0, 0.0])
    u = y0 - y0[0] * e1
    u /= np.linalg.norm(u)
    th = 2.0 * np.arctan(np.tan(0.5 * np.arccos(y0[0])) * np.exp(-speed * np.asarray(times, dtype=float)))
    return np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * u


def sphere_projection_rde(n):
    """The projection field's solve from e_2 under ``linear_drive_driver(n)`` and its sup error against the flow."""
    rp, y0 = linear_drive_driver(n), np.array([0.0, 1.0, 0.0])
    sol = rde_solve_manifold(sphere_projection_field(), rp, y0)
    return sol, float(np.max(np.linalg.norm(sol.points - sphere_projection_flow(y0, 1.0, rp.times), axis=1)))


def so3_right_invariant_field():
    return ManifoldDrivingField.linear(SO3M, -SO3_BASIS, name="right-invariant")


def so3_left_invariant_field():
    """V_a(g) = g hat(e_a): driven by x(t) = t a, the solution from g0 is g0 expm(t hat(a))."""

    def fn(g):
        return (np.asarray(g, dtype=float) @ SO3_BASIS).reshape(3, 9).T

    return ManifoldDrivingField(SO3M, fn, name="left-invariant")


# pure-area commutator system: dy = A_1 y dX^1 + A_2 y dX^2, solved by [e, 1/e]
COMMUTATOR_MATS = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])


def pure_area_commutator_error(n):
    """The endpoint error of the Davie solve of the commutator system from (1, 1) against [e, 1/e]."""
    sol = rde_solve_flat(DrivingField(matrices=COMMUTATOR_MATS), pure_area_fixture(n), np.array([1.0, 1.0]))
    return float(np.max(np.abs(sol.values[-1] - np.array([np.e, 1.0 / np.e]))))


# the refinement studies: name -> (the error against the oracle at grid size N, on the mesh 1/N; the nominal order)
STUDIES = {
    "sphere-projection-rde": (lambda n: sphere_projection_rde(n)[1], 2.0),
    "pure-area-commutator": (pure_area_commutator_error, 1.0),
}


def run_study(name, levels=5):
    """The named refinement study on N = 2^(5 + levels), halved down to N = 64."""
    if not isinstance(name, str) or name not in STUDIES:
        raise ConfigError(f"unknown convergence fixture {name!r}")
    error, order = STUDIES[name]
    return refinement_study(name, lambda n: (error(n), 1.0 / n), dyadic_levels(1 << (5 + levels), levels), order)


def tangent_frame(m):
    """Deterministic orthonormal frame of T_mS^2, as a (3, 2) matrix."""
    ref = np.array([0.0, 0.0, 1.0]) if abs(m[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(m, ref)
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(m, e1)], axis=1)


# -- scalar observables ----------------------------------------------------------------------


def sphere_observables():
    return [
        (lambda m: m[0], lambda m: np.array([1.0, 0.0, 0.0])),
        (lambda m: m[1], lambda m: np.array([0.0, 1.0, 0.0])),
        (lambda m: m[2], lambda m: np.array([0.0, 0.0, 1.0])),
        (lambda m: float(np.exp(m[0])), lambda m: np.array([np.exp(m[0]), 0.0, 0.0])),
    ]


# -- registry ----------------------------------------------------------------------------------


FIXTURES = {
    "smooth-2d": {"kind": "driver", "build": smooth_2d_driver},
    "pure-area": {"kind": "driver", "build": pure_area_fixture},
    "linear-drive": {"kind": "driver", "build": linear_drive_driver},
    "equator": {"kind": "mcrp", "build": equator_crp},
    "latitude": {"kind": "mcrp", "build": latitude_crp},
    "sphere-spiral": {"kind": "mcrp", "build": sphere_spiral_crp},
    "polar-cap": {"kind": "mcrp", "build": polar_cap_crp},
    "so3-curve": {"kind": "mcrp", "build": so3_curve_crp},
    "flat3": {"kind": "mcrp", "build": flat3_crp},
    "line-quadratic": {"kind": "mcrp", "build": line_quadratic_crp},
    # on its own grid: the builder takes no size
    "example-6.7": {"kind": "fixed-mcrp", "build": lambda eps=0.01, p=2.0: example_67_crp(eps, p)},
}


def build_fixture(name, **kwargs):
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return FIXTURES[name]["build"](**kwargs)
