"""Seeded op schedules for the three benchmark workloads.

An op is one call chain into ``crp``'s public API on inputs generated from the
seed, followed by checks of the output against a closed form or a library
identity.  Every tolerance is the one the acceptance criterion (or test) that
checks the same identity uses.  Where an op runs at a coarser grid than that
criterion, the tolerance is carried to the op's mesh size h by the method's
second order, tol * (h / h_criterion)^2, which is the criterion's own bound
at the criterion's own mesh.

Library functions are always looked up as module attributes at call time
(``mcrp.verify_gauge_crp``), so the tracer in ``tracer.py`` can wrap them
from outside ``src/crp``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

import crp.controlled as controlled
import crp.controls as controls
import crp.flatrde as flatrde
import crp.fixtures as fixtures
import crp.gauges as gauges
import crp.linalg as linalg
import crp.manifolds as manifolds
import crp.mcrp as mcrp
import crp.mrde as mrde
import crp.oneforms as oneforms
import crp.roughpath as roughpath
import crp.serialize as serialize
import crp.transport as transport

# Tolerances, each named after the check that fixes it.
CHEN_TOL = 1e-12  # criterion-01 chen-residual
WEAK_GEO_TOL = 1e-10  # criterion-01 weak-geometric
EX67_TOL = 1e-9  # criterion-03 chart-constant-minus-10
INDEP_TOL, INDEP_H = 1e-5, (np.pi / 2) / 1024  # criterion-04 inter-gauge-diff-at-2^10
FTC_ENDPOINT_TOL, FTC_H = 1e-7, (np.pi / 8) / 1024  # criterion-05 spiral-exp-endpoint
FTC_DERIV_TOL = 1e-12  # criterion-05 derivative identities
ASSOC_IDENT_TOL = 1e-12  # criterion-06 associativity-identity
ASSOC_TOL, ASSOC_H = 1e-5, (2 * np.pi) / 1024  # criterion-06 associativity-scaling-at-2^10
RDE_SPHERE_TOL, RDE_H = 1e-6, 1.0 / 1024  # criterion-07 sphere-projection-sup-vs-rk4
UNIT_DRIFT_TOL = 1e-9  # criterion-07 sphere-unit-drift
SO3_RDE_TOL = 1e-9  # criterion-07 so3-constant-direction
COMMUTATOR_TOL = 1e-6  # criterion-07 pure-area-commutator-closed-form
HOLONOMY_TOL, HOLONOMY_H = 1e-6, (2 * np.pi) / 4096  # criterion-10 latitude-holonomy
UNROLL_LEN_TOL, UNROLL_LEN_H = 1e-6, (2 * np.pi) / 8192  # test_equator_loop_unrolls_with_length_preserved
ROUNDTRIP_TOL = 1e-5  # test_roundtrip_unroll_of_roll
# Frame transport and RDE solves on seeded paths are checked by order, not by an
# absolute tolerance: the library tests a generic path's frame transport by order
# (test_short_pair_transport_slope: exact, or slope >= 1.75), and criterion-10 uses the
# same target, 3/p - 1 - 0.25 at p = 1, for smooth drivers; its noise floor is 1e-10.
ORDER_TARGET, NOISE_FLOOR = 1.75, 1e-10

COMMUTATOR_MATS = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])

SPHERE = fixtures.SPHERE
SO3M = fixtures.SO3M


def second_order_tol(tol, h_ref, h):
    """The criterion's tolerance at mesh h_ref carried to mesh h at order two."""
    return tol * max(1.0, (h / h_ref) ** 2)


class Checker:
    """Collects named checks; ``perturb`` shifts every oracle so each check fails."""

    def __init__(self, perturb=False):
        self.perturb = perturb
        self.checks = []

    def near(self, name, got, want, tol):
        got, want = float(got), float(want)
        if self.perturb:
            want += 10.0 * tol + 1e-2 * max(1.0, abs(want))
        ok = bool(np.isfinite(got) and abs(got - want) <= tol)
        self.checks.append({"check": name, "value": got, "oracle": want, "tolerance": tol, "pass": ok})

    def at_least(self, name, got, want):
        got, want = float(got), float(want)
        if self.perturb:
            want = np.inf
        ok = bool(np.isfinite(want) and got >= want)
        self.checks.append({"check": name, "value": got, "oracle": want, "mode": "ge", "pass": ok})

    def verdict(self, name, got, want=True):
        if self.perturb:
            want = not want
        self.checks.append({"check": name, "value": bool(got), "oracle": bool(want), "pass": bool(got) == want})

    def failures(self):
        return [c for c in self.checks if not c["pass"]]


def tangent_frame(m):
    """Orthonormal frame of T_mS^2 (the library's copies in cli and suite are private)."""
    ref = np.array([0.0, 0.0, 1.0]) if abs(m[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(m, ref)
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(m, e1)], axis=1)


# -- seeded input generators ---------------------------------------------------------


def wobble_params(rng):
    """A latitude whose colatitude wobbles by low-order Fourier terms.

    The colatitude stays in [0.55, 1.35]: inside the north stereographic
    chart (m3 < 0.9), and any two points are closer than 2.7 < pi - 0.1, so
    the domain-feasible delta is the whole loop and the verifiers probe every
    pair, the same count for every seed.
    """
    return {
        "theta0": float(rng.uniform(0.85, 1.05)),
        "a": rng.uniform(-0.05, 0.05, size=3).tolist(),
        "b": rng.uniform(-0.05, 0.05, size=3).tolist(),
        "phase": float(rng.uniform(0.0, 2 * np.pi)),
    }


def wobble_curve(par):
    th0, a, b, ph = par["theta0"], np.asarray(par["a"]), np.asarray(par["b"]), par["phase"]
    k = np.arange(1, 4)

    def theta(t):
        return th0 + float(a @ np.sin(k * t) + b @ np.cos(k * t)), float(k * a @ np.cos(k * t) - k * b @ np.sin(k * t))

    def curve(t):
        th, _ = theta(t)
        return np.array([np.sin(th) * np.cos(t + ph), np.sin(th) * np.sin(t + ph), np.cos(th)])

    def dcurve(t):
        th, dth = theta(t)
        return np.array(
            [
                np.cos(th) * dth * np.cos(t + ph) - np.sin(th) * np.sin(t + ph),
                np.cos(th) * dth * np.sin(t + ph) + np.sin(th) * np.cos(t + ph),
                -np.sin(th) * dth,
            ]
        )

    return curve, dcurve


def unit(rng, dim=3):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rotation_about_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# -- certify ------------------------------------------------------------------------------


def op_sphere_certify(par, chk):
    """lift_smooth -> crp_from_projection -> gauge and chart verifiers."""
    n = par["n"]
    curve, dcurve = wobble_curve(par["curve"])
    rp = roughpath.lift_smooth(curve, np.linspace(0.0, 2 * np.pi, n + 1), dpath=dcurve)
    y = mcrp.crp_from_projection(SPHERE, rp)
    gauge = gauges.connection_gauge(SPHERE)
    delta = mcrp.domain_feasible_delta(y, gauge)
    grep = mcrp.verify_gauge_crp(y, gauge, delta=delta)
    crep = mcrp.verify_chart_crp(y, SPHERE.chart_at(y.points[0]))
    chk.near("chen-residual", rp.chen_residual(), 0.0, CHEN_TOL)
    chk.near("weak-geometric", rp.weak_geometric_residual(), 0.0, WEAK_GEO_TOL)
    chk.verdict("gauge-passes", grep["pass"])
    chk.verdict("chart-passes", crep["pass"])
    return {"gauge": grep, "chart": {k: v for k, v in crep.items() if k != "delta_constants"}}


def op_so3_certify(par, chk):
    """crp_from_smooth_curve on SO(3) -> gauge verifier."""
    n, w1, w2, eps, om = par["n"], np.asarray(par["w1"]), np.asarray(par["w2"]), par["eps"], par["omega"]
    h1, h2 = linalg.hat(w1), linalg.hat(w2)

    def curve(t):
        return linalg.so3_exp(t * w1) @ linalg.so3_exp(eps * np.sin(om * t) * w2)

    def dcurve(t):
        a, b = linalg.so3_exp(t * w1), linalg.so3_exp(eps * np.sin(om * t) * w2)
        return h1 @ a @ b + eps * om * np.cos(om * t) * (a @ h2 @ b)

    rp = roughpath.time_lift(np.linspace(0.0, 1.5, n + 1))
    y = mcrp.crp_from_smooth_curve(SO3M, curve, dcurve, rp)
    gauge = gauges.connection_gauge(SO3M)
    grep = mcrp.verify_gauge_crp(y, gauge, delta=mcrp.domain_feasible_delta(y, gauge))
    chk.near("chen-residual", rp.chen_residual(), 0.0, CHEN_TOL)
    chk.near("weak-geometric", rp.weak_geometric_residual(), 0.0, WEAK_GEO_TOL)
    chk.verdict("gauge-passes", grep["pass"])
    return {"gauge": grep}


def op_example_67(par, chk):
    """Degenerate-control fixture: chart verifier fails at C2 = eps^(-1/2), gauge passes."""
    eps = par["eps"]
    y = fixtures.example_67_crp(eps=eps, p=2.0)
    crep = mcrp.verify_chart_crp(y, fixtures.LINE.charts()[0])
    grep = mcrp.verify_gauge_crp(y, gauges.standard_gauge(fixtures.LINE), delta=0.5)
    # the worst chart pair is (0, 1 + eps): |x| = eps^(1/2) over omega = eps
    chk.near("chart-constant", crep["C_remainder"], eps**-0.5, EX67_TOL)
    chk.verdict("chart-fails", crep["pass_remainder"], False)
    chk.verdict("gauge-passes-at-half", grep["pass_remainder"])
    chk.near("gauge-constant-zero", grep["C2"], 0.0, 0.0)
    return {"gauge": grep, "chart": {k: v for k, v in crep.items() if k != "delta_constants"}}


# -- integrate --------------------------------------------------------------------------------


def integrate_setup(rng):
    """The fixed path set every integrate op draws from (lifts land in set-up)."""
    paths = []
    for n in (64, 64, 128, 128):
        curve, dcurve = wobble_curve(wobble_params(rng))
        rp = roughpath.lift_smooth(curve, np.linspace(0.0, np.pi / 2, n + 1), dpath=dcurve)
        paths.append(mcrp.crp_from_projection(SPHERE, rp))
    c = float(rng.uniform(0.1, 0.3))
    n = 64
    rp = roughpath.lift_smooth(
        lambda t: np.array([np.cos(t), np.sin(t), 0.5 + c * np.sin(2.0 * t)]),
        np.linspace(0.0, np.pi / 2, n + 1),
        dpath=lambda t: np.array([-np.sin(t), np.cos(t), 2.0 * c * np.cos(2.0 * t)]),
    )
    flat3 = manifolds.ChartManifold(3, radius=20.0)
    deriv = np.broadcast_to(np.eye(3), (n + 1, 3, 3)).copy()
    paths.append(mcrp.ManifoldControlledPath(flat3, rp.times, rp.values.copy(), deriv, rp))
    return paths


def _mesh(y):
    return float(np.max(np.diff(y.times)))


def _gauge_for(y):
    """Connection gauge on the sphere, the flat difference gauge on the chart-manifold path."""
    return gauges.connection_gauge(SPHERE) if y.manifold is SPHERE else gauges.standard_gauge(y.manifold)


def op_ftc(par, chk, paths):
    """fundamental_theorem for df, f = exp(a.m) or a quadratic."""
    y = paths[par["path"]]
    a = np.asarray(par["a"])
    if par["form"] == "exp":

        def f(m):
            return float(np.exp(a @ m))

        def df(m):
            return np.exp(a @ m) * a

    else:
        q = np.asarray(par["q"])

        def f(m):
            return float(m @ q @ m + a @ m)

        def df(m):
            return (q + q.T) @ m + a

    rep = oneforms.fundamental_theorem(f, df, y, _gauge_for(y))
    tol = second_order_tol(FTC_ENDPOINT_TOL, FTC_H, _mesh(y))
    chk.near("endpoint", rep["endpoint_residual"], 0.0, tol)
    chk.near("derivative-identity", rep["derivative_residual"], 0.0, FTC_DERIV_TOL)
    return {"endpoint_residual": rep["endpoint_residual"], "derivative_residual": rep["derivative_residual"]}


def _linear_form(par):
    amat, c = np.asarray(par["A"]), np.asarray(par["c"])

    def alpha(m):
        return (amat @ m + c)[None, :]

    return alpha


def op_gauge_independence(par, chk, paths):
    """integrate_smooth_oneform in the connection and stereographic-chart gauges."""
    y = paths[par["path"]]
    alpha = _linear_form(par)
    z1 = oneforms.integrate_smooth_oneform(alpha, y, gauges.connection_gauge(SPHERE))
    z2 = oneforms.integrate_smooth_oneform(alpha, y, gauges.chart_gauge(SPHERE, SPHERE.charts()[0]))
    diff = float(np.max(np.abs(z1.values - z2.values)))
    chk.near("inter-gauge-diff", diff, 0.0, second_order_tol(INDEP_TOL, INDEP_H, _mesh(y)))
    return {"diff_sup": diff, "endpoint": z1.values[-1].tolist()}


def op_gauge_change(par, chk, paths):
    """gauge_change to the chart parallelism, then gauge_integrate there."""
    y = paths[par["path"]]
    conn = gauges.connection_gauge(SPHERE)
    chart_g = gauges.chart_gauge(SPHERE, SPHERE.charts()[0])
    a = oneforms.oneform_from_smooth(_linear_form(par), y, conn.par)
    z1 = oneforms.gauge_integrate(a, y, conn)
    z2 = oneforms.gauge_integrate(oneforms.gauge_change(a, chart_g.par), y, chart_g)
    diff = float(np.max(np.abs(z1.values - z2.values)))
    chk.near("integral-preserved", diff, 0.0, second_order_tol(INDEP_TOL, INDEP_H, _mesh(y)))
    return {"diff_sup": diff, "endpoint": z1.values[-1].tolist()}


def op_associativity(par, chk, paths):
    """associativity_check with the identity factor or a scalar controlled factor."""
    y = paths[par["path"]]
    n = y.times.size
    gauge = _gauge_for(y)
    a = oneforms.oneform_from_smooth(_linear_form(par), y, gauge.par)
    if par["factor"] == "identity":
        fpath = controlled.ControlledPath(y.times, np.ones((n, 1, 1)), np.zeros((n, 1, 1, y.driver_dim)))
        tol = ASSOC_IDENT_TOL
    else:
        # the height (shifted off zero) on the sphere, the first driver coordinate on the chart path
        coord = 2 if y.manifold is SPHERE else 0
        fpath = controlled.ControlledPath(
            y.times, (y.points[:, coord] + par["shift"])[:, None, None], y.derivative[:, coord, :][:, None, None, :]
        )
        tol = second_order_tol(ASSOC_TOL, ASSOC_H, _mesh(y))
    rep = oneforms.associativity_check(fpath, a, y, gauge)
    chk.near(f"associativity-{par['factor']}", rep["diff_sup"], 0.0, tol)
    return {"diff_sup": rep["diff_sup"], "endpoint": rep["lhs"].values[-1].tolist()}


# -- transport ---------------------------------------------------------------------------------


def _circle_path(n, center_rot, colat):
    """Circle of colatitude ``colat`` about the rotated pole, driven by time."""
    r, z = np.sin(colat), np.cos(colat)

    def curve(t):
        return center_rot @ np.array([r * np.cos(t), r * np.sin(t), z])

    def dcurve(t):
        return center_rot @ np.array([-r * np.sin(t), r * np.cos(t), 0.0])

    return mcrp.crp_from_smooth_curve(SPHERE, curve, dcurve, roughpath.time_lift(np.linspace(0.0, 2 * np.pi, n + 1)))


def op_small_circle(par, chk):
    """parallel_translate_frame + unroll along a latitude: holonomy 2 pi (1 - cos theta)."""
    n, theta = par["n"], par["theta"]
    y = _circle_path(n, np.eye(3), theta)
    u0 = tangent_frame(y.points[0])
    lift = transport.parallel_translate_frame(y, u0)
    z, _ = transport.unroll(y, u0, lift=lift)
    h = _mesh(y)
    want = 2.0 * np.pi * (1.0 - np.cos(theta))
    want = min(want, 2.0 * np.pi - want)
    angle = abs(lift.holonomy_angle())
    length = float(np.sum(np.linalg.norm(np.diff(z.values, axis=0), axis=1)))
    chk.near("holonomy", angle, want, second_order_tol(HOLONOMY_TOL, HOLONOMY_H, h))
    chk.near("unrolled-length", length, 2.0 * np.pi * np.sin(theta), second_order_tol(UNROLL_LEN_TOL, UNROLL_LEN_H, h))
    return {"holonomy_angle": angle, "unrolled_length": length, "segments": len(lift.segments)}


def _order_check(chk, name, errs, hs):
    """Least-squares slope of errs against hs >= ORDER_TARGET, or every level below the noise floor."""
    if max(errs) <= NOISE_FLOOR:
        chk.near(f"{name}-exact", errs[-1], 0.0, NOISE_FLOOR)
    else:
        slope = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
        chk.at_least(f"{name}-order", slope, ORDER_TARGET)


def op_great_circle(par, chk):
    """Great circle tilted through both polar caps: one chart switch, holonomy -> 0 at order two.

    A closed geodesic has zero holonomy.  The tilt is negative, so the loop
    leaves its first chart for good at the cap: with a positive tilt it
    returns to the first chart and the two errors cancel exactly, which
    would test nothing.  The holonomy error converges at second order, but
    its constant depends on the path (about 3x the untilted equator's), so
    criterion-10's absolute tolerance, met on its own latitude, does not
    carry over: the check is the order of the error over N/4, N/2, N.
    """
    n, rot = par["n"], rotation_about_x(par["tilt"])
    sizes = (n // 4, n // 2, n)
    errs, segments = [], 0
    for m in sizes:
        y = _circle_path(m, rot, np.pi / 2)
        u0 = tangent_frame(y.points[0])
        lift = transport.parallel_translate_frame(y, u0)
        errs.append(abs(lift.holonomy_angle()))
        segments = len(lift.segments)
    z, _ = transport.unroll(y, u0, lift=lift)
    _order_check(chk, "holonomy", errs, 2 * np.pi / np.array(sizes))
    chk.verdict("chart-switches", segments > 1)
    return {"holonomy": errs, "segments": segments, "unrolled_end": z.values[-1].tolist()}


def op_roll_unroll(par, chk):
    """roll a seeded pure-area or piecewise-linear driver, then unroll it back."""
    n = par["n"]
    grid = np.linspace(0.0, 1.0, n + 1)
    if par["driver"] == "pure-area":
        rp = roughpath.pure_area_driver(par["rate"], grid)
    else:
        rng = np.random.default_rng(par["walk_seed"])
        steps = rng.standard_normal((n, 2)) * (0.5 / np.sqrt(n))
        pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
        rp = roughpath.lift_piecewise_linear(pts, grid)
    z = controlled.driver_as_controlled(rp)
    o = np.asarray(par["origin"])
    u0 = tangent_frame(o)
    y, lift = transport.roll(z, rp, SPHERE, o, u0)
    back, _ = transport.unroll(y, u0, lift=lift)
    err = float(np.max(np.abs(back.values - z.values)))
    chk.near("roundtrip", err, 0.0, ROUNDTRIP_TOL)
    return {"roundtrip": err, "end": y.points[-1].tolist()}


def op_rde_sphere(par, chk):
    """rde_solve_manifold of the projection field: tan(theta/2) = tan(theta0/2) e^(-s t)."""
    n, speed = par["n"], par["speed"]
    y0 = np.asarray(par["y0"])
    rp = fixtures.linear_drive_driver(n, speed=speed)
    sol = mrde.rde_solve_manifold(fixtures.sphere_projection_field(), rp, y0)
    e1 = np.array([1.0, 0.0, 0.0])
    u = y0 - y0[0] * e1
    u /= np.linalg.norm(u)
    th = 2.0 * np.arctan(np.tan(0.5 * np.arccos(y0[0])) * np.exp(-speed * rp.times))
    want = np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * u
    sup = float(np.max(np.linalg.norm(sol.points - want, axis=1)))
    drift = float(np.max(np.abs(np.linalg.norm(sol.points, axis=1) - 1.0)))
    chk.near("sup-vs-closed-form", sup, 0.0, second_order_tol(RDE_SPHERE_TOL, RDE_H, _mesh(sol)))
    chk.near("unit-drift", drift, 0.0, UNIT_DRIFT_TOL)
    return {"sup": sup, "drift": drift, "chart_switches": sol.meta["chart_switches"]}


def op_rde_rotation(par, chk):
    """rde_solve_manifold of a rotation about a horizontal axis, through a pole: y(t) = R(w t) y0.

    The start lies off the equator on the side whose chart is singular at the
    pole the rotation heads for, so the solve must re-chart there.  Checked by
    order over N/4, N/2, N against the closed form, and by criterion-07's unit
    drift.
    """
    n, omega, phi = par["n"], par["omega"], par["phi"]
    axis = np.array([np.cos(phi), np.sin(phi), 0.0])
    y0 = np.cos(par["beta"]) * np.array([-np.sin(phi), np.cos(phi), 0.0]) + np.sin(par["beta"]) * np.array([0.0, 0.0, 1.0])
    field = mrde.ManifoldDrivingField(SPHERE, lambda m: np.cross(omega * axis, m)[:, None], name="rotation")
    sizes = (n // 4, n // 2, n)
    errs, drift, switches = [], 0.0, 0
    for m in sizes:
        rp = roughpath.time_lift(np.linspace(0.0, np.pi, m + 1))
        sol = mrde.rde_solve_manifold(field, rp, y0)
        wt = omega * rp.times[:, None]
        want = np.cos(wt) * y0 + np.sin(wt) * np.cross(axis, y0)
        errs.append(float(np.max(np.linalg.norm(sol.points - want, axis=1))))
        drift = max(drift, float(np.max(np.abs(np.linalg.norm(sol.points, axis=1) - 1.0))))
        switches = len(sol.meta["chart_switches"])
    _order_check(chk, "sup-vs-closed-form", errs, np.pi / np.array(sizes))
    chk.near("unit-drift", drift, 0.0, UNIT_DRIFT_TOL)
    chk.verdict("chart-switches", switches > 0)
    return {"sup": errs, "drift": drift, "chart_switches": switches}


def op_rde_so3(par, chk):
    """rde_solve_manifold of the right-invariant field along a constant direction vs expm."""
    n = par["n"]
    a0 = np.asarray(par["direction"])
    grid = np.linspace(0.0, 1.0, n + 1)
    pts = np.outer(grid, a0)
    dx = np.diff(pts, axis=0)
    rp = roughpath.RoughPath(
        grid, pts, 0.5 * np.einsum("ia,ib->iab", dx, dx), controls.Control.time_scale(float(np.linalg.norm(a0)), 1.0)
    )
    sol = mrde.rde_solve_manifold(fixtures.so3_right_invariant_field(), rp, np.eye(3))
    err = float(np.max(np.abs(sol.points[-1] - expm(-linalg.hat(a0)))))
    chk.near("expm", err, 0.0, SO3_RDE_TOL)
    return {"err": err, "chart_switches": sol.meta["chart_switches"]}


def op_rde_flat(par, chk):
    """rde_solve_flat on the pure-area commutator: y_T = (y1 e^a, y2 e^-a)."""
    n, rate = par["n"], par["rate"]
    y0 = np.asarray(par["y0"])
    rp = roughpath.pure_area_driver(rate, np.linspace(0.0, 1.0, n + 1))
    sol = flatrde.rde_solve_flat(flatrde.DrivingField(matrices=COMMUTATOR_MATS), rp, y0, scheme="exp")
    want = y0 * np.array([np.exp(rate), np.exp(-rate)])
    err = float(np.max(np.abs(sol.values[-1] - want)))
    chk.near("closed-form", err, 0.0, COMMUTATOR_TOL)
    return {"err": err, "end": sol.values[-1].tolist()}


# -- schedules -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One position of the op schedule: its kind and its size parameter.

    ``size`` is the grid size N, except for example-6.7 (epsilon) and the
    integrate ops (the index of the set-up path they run on).
    """

    kind: str
    size: float


SCHEDULES = {
    # Sorted by cost, a pass is 7 cheap ops, 8 sphere ops at N = 128, 2 dearer ops, 2 at N = 256, then N = 512:
    # p50 (10 of 20) falls inside the N = 128 cluster and p90 (18 of 20) in the middle of the N = 256 pair's,
    # never on a cluster's edge; five passes make the 100 ops a run needs.  The N = 512 op's verifier
    # arrays are a visible share of peak RSS (about +40 MB over the other ops).
    "certify": [Slot("sphere", n) for n in (*[64] * 4, *[128] * 8, 256, 256, 512)]
    + [Slot("so3", n) for n in (64, 64, 128)]
    + [Slot("example-6.7", e) for e in (0.01, 0.005)],
    # paths 0-3 are sphere arcs; path 4 is the chart-manifold path, which has no sphere charts to compare
    "integrate": [Slot(k, p) for p in range(4) for k in ("ftc", "independence", "change", "associativity")]
    + [Slot(k, 4) for k in ("ftc", "associativity")],
    "transport": [Slot(k, n) for n in (64, 128, 256) for k in ("small-circle", "roll", "rde-sphere")]
    + [Slot("great-circle", 256), Slot("rde-rotation", 256)]
    + [Slot("rde-so3", n) for n in (64, 256)]
    + [Slot("rde-flat", n) for n in (64, 256)],
}

OPS = {
    "sphere": op_sphere_certify,
    "so3": op_so3_certify,
    "example-6.7": op_example_67,
    "ftc": op_ftc,
    "independence": op_gauge_independence,
    "change": op_gauge_change,
    "associativity": op_associativity,
    "small-circle": op_small_circle,
    "great-circle": op_great_circle,
    "roll": op_roll_unroll,
    "rde-sphere": op_rde_sphere,
    "rde-rotation": op_rde_rotation,
    "rde-so3": op_rde_so3,
    "rde-flat": op_rde_flat,
}


def make_params(slot: Slot, rng):
    """The seeded inputs of one op: plain numbers and lists only."""
    k, s = slot.kind, slot.size
    if k == "sphere":
        return {"n": int(s), "curve": wobble_params(rng)}
    if k == "so3":
        return {
            "n": int(s),
            "w1": unit(rng).tolist(),
            "w2": unit(rng).tolist(),
            "eps": float(rng.uniform(0.2, 0.6)),
            "omega": float(rng.uniform(0.5, 2.0)),
        }
    if k == "example-6.7":
        return {"eps": float(s)}
    if k in ("ftc", "independence", "change", "associativity"):
        par = {
            "path": int(s),
            "A": (0.5 * rng.standard_normal((3, 3))).tolist(),
            "c": (0.5 * rng.standard_normal(3)).tolist(),
            "shift": float(rng.uniform(1.5, 3.0)),
            "form": "exp" if rng.random() < 0.5 else "quadratic",
            "a": (0.5 * unit(rng)).tolist(),
            "q": (0.1 * rng.standard_normal((3, 3))).tolist(),
            "factor": "identity" if rng.random() < 0.5 else "scalar",
        }
        return par
    if k == "small-circle":
        return {"n": int(s), "theta": float(rng.uniform(0.3, np.pi / 3))}
    if k == "great-circle":
        return {"n": int(s), "tilt": -float(rng.uniform(1.25, 1.5))}
    if k == "roll":
        o = unit(rng)
        o[2] = float(np.clip(o[2], -0.5, 0.5))
        return {
            "n": int(s),
            "driver": "pure-area" if rng.random() < 0.5 else "piecewise-linear",
            "rate": float(rng.uniform(0.5, 1.5)),
            "walk_seed": int(rng.integers(0, 2**31)),
            "origin": (o / np.linalg.norm(o)).tolist(),
        }
    if k == "rde-sphere":
        y0 = unit(rng)
        y0[0] = float(rng.uniform(-0.5, 0.5))
        return {"n": int(s), "speed": float(rng.uniform(0.5, 1.5)), "y0": (y0 / np.linalg.norm(y0)).tolist()}
    if k == "rde-rotation":
        beta = float(rng.uniform(0.1, 0.4)) * (1.0 if rng.random() < 0.5 else -1.0)
        # heads for the pole on the far side of the equator from y0
        return {"n": int(s), "phi": float(rng.uniform(0.0, 2 * np.pi)), "beta": beta, "omega": -float(np.sign(beta)) * float(rng.uniform(0.8, 1.2))}
    if k == "rde-so3":
        return {"n": int(s), "direction": (float(rng.uniform(0.5, 2.0)) * unit(rng)).tolist()}
    if k == "rde-flat":
        return {"n": int(s), "rate": float(rng.uniform(0.5, 1.5)), "y0": rng.uniform(0.5, 2.0, size=2).tolist()}
    raise KeyError(k)


def pass_inputs(workload, seed, pass_idx):
    """Inputs of every slot of one schedule pass; a pure function of its arguments."""
    return [
        make_params(slot, np.random.default_rng([seed, pass_idx, i]))
        for i, slot in enumerate(SCHEDULES[workload])
    ]


def inputs_digest(inputs):
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


class Workload:
    """Set-up state of one workload plus the op runner."""

    def __init__(self, name, seed):
        if name not in SCHEDULES:
            raise KeyError(name)
        self.name = name
        self.seed = seed
        self.schedule = SCHEDULES[name]
        self.paths = integrate_setup(np.random.default_rng([seed, 2**20])) if name == "integrate" else None

    def inputs(self, pass_idx):
        return pass_inputs(self.name, self.seed, pass_idx)

    def run_op(self, slot, par, perturb=False):
        """Run one op; returns (rendered report, failing checks)."""
        chk = Checker(perturb)
        fn = OPS[slot.kind]
        report = fn(par, chk, self.paths) if self.paths is not None else fn(par, chk)
        rendered = serialize.canonical_json({"kind": slot.kind, "size": slot.size, "report": report, "checks": chk.checks})
        return rendered, chk.failures()
