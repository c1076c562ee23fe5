"""Named acceptance suites: each criterion measures its fixtures and reports."""

from __future__ import annotations

import time

import numpy as np

from . import fixtures as fx
from .controlled import ControlledPath, driver_as_controlled
from .convergence import NOISE_FLOOR, SLOPE_TOL, dyadic_levels, refinement_study
from .errors import ConfigError
from .flatrde import DrivingField, rde_solve_flat
from .gauges import Gauge, chart_gauge, compatibility_tensor, connection_gauge, standard_gauge, torsion_check
from .linalg import SO3_BASIS, hat, pointwise, so3_exp
from .manifolds import ChartManifold
from .mcrp import domain_feasible_delta, ratio_at_pair, scalar_test_suite, verify_chart_crp, verify_gauge_crp
from .mrde import (
    ManifoldDrivingField,
    check_rde_integral_form,
    f_related_pushforward,
    gauge_form_defects,
    rde_solve_manifold,
    scalar_solution_defects,
)
from .oneforms import (
    gauge_defect_by_level,
    gauge_integrate,
    integrate_smooth_oneform,
    oneform_from_smooth,
    push_pull_check,
)
from .roughpath import RoughPath, lift_piecewise_linear, time_lift
from .sewing import defect_by_level, rough_integrate
from .transport import (
    group_rde,
    maurer_cartan_check,
    parallel_translate_frame,
    roll,
    rolled_integral_check,
    unroll,
)

SPHERE = fx.SPHERE
SO3M = fx.SO3M
# the constant connection Gamma^0_01 = 0.3, Gamma^0_11 = 0.05, Gamma^1_10 = -0.2 (gamma[i, j, l] = Gamma^i_jl)
TORSION_CHART = ChartManifold(2, radius=1, gamma=lambda x: np.array([[[0, 0.3], [0, 0.05]], [[0, 0], [-0.2, 0]]]))

# 64-bit seed recorded in every report bundle; all randomized sampling below
# derives from fixed per-check generators so reruns are bit-identical
FIXTURE_SEED = 20260809


def _check(name, value, tol, mode="le"):
    if mode == "le":
        ok = value <= tol
    elif mode == "ge":
        ok = value >= tol
    else:
        raise ConfigError(mode)
    return {"check": name, "value": float(value), "tolerance": float(tol), "mode": mode, "pass": bool(ok)}


def _order_check(name, report):
    """The row of a study's order verdict: its fitted slope, inf when exact, against target - SLOPE_TOL."""
    row = {**_check(name, report.slope, report.target - SLOPE_TOL, mode="ge"), "pass": report.passed}
    return {**row, "exact": True} if report.exact else row


def _study_check(name, measure, ns, order, noise_floor=NOISE_FLOOR):
    """The order row of ``measure(n) -> (error, mesh)`` at the grid sizes ``ns``."""
    return _order_check(name, refinement_study(name, measure, ns, order, noise_floor))


def _ladder_check(name, ladder, fine_n, order, noise_floor=NOISE_FLOOR):
    """The order row of a dyadic defect ladder [(mesh, defect)] down from ``fine_n`` steps, finest first."""
    ns = dyadic_levels(fine_n, len(ladder))
    return _study_check(name, lambda n: ladder[ns.index(n)][::-1], ns, order, noise_floor)


def _mesh(y):
    """The largest step of a path's grid."""
    return float(np.max(np.diff(y.times)))


def _area_form(m):
    return np.array([[-m[1], m[0], 0.0]])


def _radial(x):
    """The radial projection x -> x / |x| of R^3 minus the origin onto the sphere."""
    return x / np.linalg.norm(x)


def _radial_jac(x):
    r = np.linalg.norm(x)
    u = x / r
    return (np.eye(3) - np.outer(u, u)) / r


# ---------------------------------------------------------------------------


def criterion_01_algebraic_exactness():
    """Chen residual <= 1e-12 and weak-geometric residual <= 1e-10."""
    checks = []
    paths = {
        "smooth-2d": fx.smooth_2d_driver(512),
        "pure-area": fx.pure_area_fixture(512),
        "equator-lift": fx.equator_crp(512).driver,
    }
    rng = np.random.default_rng(123)
    grid = np.linspace(0.0, 1.0, 513)
    paths["piecewise-linear"] = lift_piecewise_linear(np.cumsum(rng.standard_normal((513, 3)), axis=0) * 0.05, grid)
    for name, rp in paths.items():
        checks.append(_check(f"chen-residual[{name}]", rp.chen_residual(), 1e-12))
        tol = 0.0 if name in ("pure-area", "piecewise-linear") else 1e-10
        checks.append(_check(f"weak-geometric[{name}]", rp.weak_geometric_residual(), max(tol, 0.0)))
    # pair areas do not depend on where the driver sits: a Brownian lift shifted by 1e4
    checks.append(_check("chen-residual[translated]", fx.brownian_lift(4096, shift=1e4).chen_residual(), 1e-12))
    return checks


def criterion_02_sewing_order():
    """Local defects of the flat and gauge compensated sums decay at 3/p - 0.25."""
    checks = []
    # flat, smooth driver (p = 1)
    rp = fx.smooth_2d_driver(256)
    x = driver_as_controlled(rp)
    n1 = rp.times.size
    av = np.empty((n1, 2, 2))
    ad = np.empty((n1, 2, 2, 2))
    for i in range(n1):
        a, b = rp.values[i]
        av[i] = np.array([[np.cos(a), b], [a * b, np.sin(b)]])
        ga = np.array([[-np.sin(a), 0.0], [b, 0.0]])
        gb = np.array([[0.0, 1.0], [a, np.cos(b)]])
        ad[i] = np.stack([ga, gb], axis=-1)
    levels = defect_by_level(ControlledPath(rp.times, av, ad), x, rp, levels=5)
    checks.append(_ladder_check("flat-defect-smooth", levels, 256, 3.0))

    # flat, pure-area driver (p = 2)
    rp2 = fx.pure_area_fixture(256)
    sol = rde_solve_flat(DrivingField(matrices=fx.COMMUTATOR_MATS), rp2, np.array([1.0, 1.0]))
    n2 = rp2.times.size
    av2 = np.zeros((n2, 2, 2))
    ad2 = np.zeros((n2, 2, 2, 2))
    av2[:, 0, 0] = sol.values[:, 0]
    av2[:, 1, 1] = sol.values[:, 1]
    ad2[:, 0, 0] = sol.derivative[:, 0]
    ad2[:, 1, 1] = sol.derivative[:, 1]
    levels = defect_by_level(ControlledPath(rp2.times, av2, ad2), sol, rp2, levels=5)
    checks.append(_ladder_check("flat-defect-pure-area", levels, 256, 1.5))

    # gauge integrator, smooth sphere path (p = 1)
    y = fx.sphere_spiral_crp(256)
    g = connection_gauge(SPHERE)
    a = oneform_from_smooth(_area_form, y, g.par)
    checks.append(_ladder_check("gauge-defect-smooth", gauge_defect_by_level(a, y, g, levels=5), 256, 3.0))

    # gauge integrator along a pure-area development (p = 2); the start point
    # sits away from the chart center so the connection genuinely acts
    o = SPHERE.charts()[1].from_coords(np.array([0.8, 0.0]))
    u0 = fx.tangent_frame(o)
    rp3 = fx.pure_area_fixture(256, a=1.5)
    yroll, _ = roll(driver_as_controlled(rp3), rp3, SPHERE, o, u0)
    a3 = oneform_from_smooth(_area_form, yroll, g.par)
    levels = gauge_defect_by_level(a3, yroll, g, levels=5)
    checks.append(_ladder_check("gauge-defect-pure-area", levels, 256, 1.5, noise_floor=1e-10))
    return checks


def criterion_03_example_67():
    """Chart verifier fails with the closed-form ratio; gauge verifier passes."""
    y = fx.example_67_crp(eps=0.01, p=2.0)
    chart = fx.LINE.charts()[0]
    rep_chart = verify_chart_crp(y, chart)
    idx = int(np.searchsorted(y.times, 1.0)) + 1
    ratio = ratio_at_pair(y, chart, 0.0, y.times[idx])
    rep_gauge = verify_gauge_crp(y, standard_gauge(fx.LINE), delta=0.5)
    return [
        _check("chart-ratio-minus-10", abs(ratio - 10.0), 1e-9),
        _check("chart-constant-minus-10", abs(rep_chart["C_remainder"] - 10.0), 1e-9),
        _check("chart-fails", 0.0 if not rep_chart["pass_remainder"] else 1.0, 0.5),
        _check("gauge-passes-at-half", 1.0 if rep_gauge["pass_remainder"] else 0.0, 0.5, mode="ge"),
        _check("gauge-constant-zero", rep_gauge["C2"], 0.0),
    ]


def criterion_04_gauge_independence():
    """Gauge integrals agree: Levi-Civita against a stereographic chart gauge, and, through the
    compatibility term S, against the mixed gauge (chart logarithm, Levi-Civita parallelism) and, on
    SO(3), where S is half the torsion, against a chart gauge."""
    conn = connection_gauge(SPHERE)
    chartg = chart_gauge(SPHERE, SPHERE.charts()[0])

    ns = (128, 256, 512, 1024)
    paths = {n: fx.sphere_spiral_crp(n, T=np.pi / 2) for n in ns}  # built once for both studies

    def gap(gauge, n):
        z1, z2 = (integrate_smooth_oneform(_area_form, paths[n], g) for g in (conn, gauge))
        return float(np.max(np.abs(z1.values - z2.values))), _mesh(paths[n])

    mixed = Gauge(SPHERE, chartg.log, conn.par)
    chart_study = refinement_study("inter-gauge", lambda n: gap(chartg, n), ns, 2.0)
    mixed_study = refinement_study("mixed-gauge", lambda n: gap(mixed, n), ns, 2.0)

    # a right-invariant field in two algebra directions, driven by pure area from I, moves only along
    # their bracket; without S the two integrals differ by about 0.36 at every N, with it by rounding
    field = ManifoldDrivingField.linear(SO3M, -SO3_BASIS[:2])
    so3_gauges = (connection_gauge(SO3M), chart_gauge(SO3M, SO3M.chart_at(np.eye(3))))

    def so3_form(g):
        return np.array([[g[0, 1], g[1, 2], g[2, 0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]) + 0.1

    def so3_gap(n):
        sol = rde_solve_manifold(field, fx.pure_area_fixture(n), np.eye(3))
        z1, z2 = (integrate_smooth_oneform(so3_form, sol, g) for g in so3_gauges)
        return float(np.max(np.abs(z1.values - z2.values)))

    return [
        _check("inter-gauge-diff-at-2^10", chart_study.errors[-1], 1e-5),
        _order_check("inter-gauge-slope", chart_study),
        _check("mixed-gauge-diff-at-2^10", mixed_study.errors[-1], 1e-5),
        _order_check("mixed-gauge-slope", mixed_study),
        _check("half-torsion-so3-sup", max(so3_gap(n) for n in (64, 128, 256, 512)), 1e-10),
    ]


def criterion_05_ftc():
    """Endpoint identity for exact forms plus the exact derivative identity."""
    from .oneforms import fundamental_theorem

    checks = []
    y = fx.polar_cap_crp(1024, theta=np.pi / 6, T=1.5 * np.pi)
    rep = fundamental_theorem(
        lambda m: float(m[2]), lambda m: np.array([0.0, 0.0, 1.0]), y, connection_gauge(SPHERE)
    )
    checks.append(_check("polar-cap-endpoint", rep["endpoint_residual"], 1e-7))
    checks.append(_check("polar-cap-derivative-identity", rep["derivative_residual"], 1e-12))

    y2 = fx.equator_crp(1024)
    rep2 = fundamental_theorem(
        lambda m: float(m[0]), lambda m: np.array([1.0, 0.0, 0.0]), y2, connection_gauge(SPHERE)
    )
    checks.append(_check("equator-endpoint", rep2["endpoint_residual"], 1e-7))

    # exact derivative identity on a third sphere fixture (short arc)
    y3 = fx.sphere_spiral_crp(1024, T=np.pi / 8)
    rep3 = fundamental_theorem(
        lambda m: float(np.exp(m[0])), lambda m: np.array([np.exp(m[0]), 0.0, 0.0]), y3, connection_gauge(SPHERE)
    )
    checks.append(_check("spiral-exp-endpoint", rep3["endpoint_residual"], 1e-7))
    checks.append(_check("spiral-derivative-identity", rep3["derivative_residual"], 1e-12))
    return checks


def criterion_06_push_pull_associativity():
    """Pullback-pushforward duality and iterated-integral associativity."""
    from .oneforms import associativity_check, oneform_from_smooth as build_form

    checks = []
    g = connection_gauge(SPHERE)

    # push-me-pull-me on three fixtures
    y = fx.sphere_spiral_crp(256)
    rep = push_pull_check(lambda m: m, lambda m: np.eye(3), _area_form, y, g, g, SPHERE)
    checks.append(_check("pushpull-identity", rep["diff_sup"], 1e-12))

    def radial_gap(n):
        yf = fx.flat3_crp(n, T=np.pi / 2)
        rep = push_pull_check(
            _radial, _radial_jac, lambda m: np.array([[0.0, 0.0, 1.0]]), yf, standard_gauge(fx.FLAT3), g, SPHERE
        )
        return rep["diff_sup"], _mesh(yf)

    radial = refinement_study("pushpull-radial", radial_gap, (128, 256, 512, 1024), 2.0)
    checks.append(_check("pushpull-radial-at-2^10", radial.errors[-1], 1e-5))
    checks.append(_order_check("pushpull-radial-slope", radial))

    line = ChartManifold(1, radius=10.0)
    ylat = fx.latitude_crp(1024, theta=np.pi / 4, T=np.pi)
    rep3 = push_pull_check(
        lambda m: np.array([m[2]]),
        lambda m: np.array([[0.0, 0.0, 1.0]]),
        lambda x: np.array([[1.0]]),
        ylat,
        g,
        standard_gauge(line),
        line,
    )
    want = float(ylat.points[-1][2] - ylat.points[0][2])
    checks.append(_check("pushpull-observable-lhs-ftc", abs(rep3["lhs"].values[-1, 0] - want), 1e-7))
    checks.append(_check("pushpull-observable-agreement", rep3["diff_sup"], 1e-5))

    # associativity on three fixtures
    y6 = fx.sphere_spiral_crp(1024)
    a6 = build_form(_area_form, y6, g.par)
    n6 = y6.times.size
    ident = ControlledPath(y6.times, np.broadcast_to(np.eye(1), (n6, 1, 1)).copy(), np.zeros((n6, 1, 1, 3)))
    rep_a = associativity_check(ident, a6, y6, g)
    checks.append(_check("associativity-identity", rep_a["diff_sup"], 1e-12))

    fv = np.empty((n6, 1, 1))
    fd = np.empty((n6, 1, 1, 3))
    for i in range(n6):
        fv[i, 0, 0] = y6.points[i][2] + 2.0
        fd[i, 0, 0] = np.array([0.0, 0.0, 1.0]) @ y6.derivative[i]
    rep_b = associativity_check(ControlledPath(y6.times, fv, fd), a6, y6, g)
    checks.append(_check("associativity-scaling-at-2^10", rep_b["diff_sup"], 1e-5))

    yflat = fx.flat3_crp(1024)
    gf = standard_gauge(fx.FLAT3)
    aflat = build_form(lambda x: np.array([[x[1], 0.0, 1.0]]), yflat, gf.par)
    nf = yflat.times.size
    fvals = yflat.driver.values[:, :1, None].copy()
    fder = np.zeros((nf, 1, 1, 3))
    fder[:, 0, 0, 0] = 1.0
    fpath = ControlledPath(yflat.times, fvals, fder)
    rep_c = associativity_check(fpath, aflat, yflat, gf)
    zc = rough_integrate(fpath, gauge_integrate(aflat, yflat, gf), yflat.driver)
    checks.append(_check("associativity-flat-at-2^10", rep_c["diff_sup"], 1e-5))
    checks.append(
        _check("associativity-flat-vs-direct", float(np.max(np.abs(zc.values - rep_c["lhs"].values))), 1e-10)
    )
    return checks


def criterion_07_rde_correctness():
    """Manifold and flat RDE solves against their oracles, and their push-forwards along related fields."""
    checks = []
    # S^2 projection field vs its closed-form flow (sup over the grid)
    sol, sup = fx.sphere_projection_rde(1024)
    checks.append(_check("sphere-projection-sup-vs-rk4", sup, 1e-6))
    drift = float(np.max(np.abs(np.linalg.norm(sol.points, axis=1) - 1.0)))
    checks.append(_check("sphere-unit-drift", drift, 1e-9))

    # SO(3) constant direction
    from scipy.linalg import expm

    a0 = (np.pi / 2) * np.array([0.0, 0.0, 1.0])
    rp2 = fx.so3_constant_driver(1024, a0)
    sol2 = rde_solve_manifold(fx.so3_right_invariant_field(), rp2, np.eye(3))
    err2 = float(np.max(np.abs(sol2.points[-1] - expm(-hat(a0)))))
    checks.append(_check("so3-constant-direction", err2, 1e-9))

    # pure-area flat RDE: exponential-scheme realization of the local expansion
    rp3 = fx.pure_area_fixture(1024)
    sol3 = rde_solve_flat(DrivingField(matrices=fx.COMMUTATOR_MATS), rp3, np.array([1.0, 1.0]), scheme="exp")
    err3 = float(np.max(np.abs(sol3.values[-1] - np.array([np.e, 1.0 / np.e]))))
    checks.append(_check("pure-area-commutator-closed-form", err3, 1e-6))
    # the default additive scheme keeps its stated global order on this fixture: `crp convergence`'s study
    checks.append(_order_check("pure-area-davie-global-order", fx.run_study("pure-area-commutator")))

    # push-forwards of solutions along related fields: g -> g e3 relates the right-invariant
    # field on SO(3) to the minus-cross field on the sphere
    right_invariant = fx.so3_right_invariant_field()
    sol4 = rde_solve_manifold(right_invariant, fx.so3_constant_driver(512, 0.9 * np.array([0.4, -0.3, 0.6])), np.eye(3))
    jac_e3 = np.zeros((3, 9))
    jac_e3[0, 2] = jac_e3[1, 5] = jac_e3[2, 8] = 1.0
    minus_cross = ManifoldDrivingField(SPHERE, lambda m: np.stack([-np.cross(e, m) for e in np.eye(3)], axis=1))
    rep4 = f_related_pushforward(lambda g: g[:, 2], lambda g: jac_e3, right_invariant, minus_cross, sol4)
    checks.append(_check("so3-to-sphere-pushforward", rep4["diff_sup"], 1e-6))
    # the radial projection relates |x| dx on R^3 to the sphere's projection field
    radial_field = ManifoldDrivingField(ChartManifold(3, radius=50.0), lambda x: np.linalg.norm(x) * np.eye(3))

    def pushforward_gap(n):
        soln = rde_solve_manifold(radial_field, fx.linear_drive_driver(n, speed=0.5), np.array([0.0, 1.0, 0.0]))
        rep = f_related_pushforward(_radial, _radial_jac, radial_field, fx.sphere_projection_field(), soln)
        return rep["diff_sup"], 1.0 / n

    checks.append(_study_check("radial-pushforward-slope", pushforward_gap, (64, 128, 256, 512), 2.0))
    # a rotation R maps the projection field to itself, so R y solves it under values R x and areas R A R^T;
    # the chart-stepped solve reads R y in other chart coordinates, so the gap closes at the scheme's order
    rot, e2 = so3_exp(np.array([0.7, -1.1, 0.4])), np.array([0.0, 1.0, 0.0])

    def rotation_gap(n):
        rp = fx.linear_drive_driver(n)
        turned = RoughPath(rp.times, rp.values @ rot.T, rot @ rp.step_areas @ rot.T, rp.control)
        plain = rde_solve_manifold(fx.sphere_projection_field(), rp, e2).flat_points()
        got = rde_solve_manifold(fx.sphere_projection_field(), turned, rot @ e2).flat_points()
        return float(np.max(np.abs(got - plain @ rot.T))), 1.0 / n

    checks.append(_study_check("rde-rotation-equivariance-slope", rotation_gap, (128, 256, 512, 1024), 2.0))
    return checks


def criterion_08_equivalence_theorems():
    """Gauge vs chart (and, on the sphere, scalar-test) verifier verdicts and the RDE characterizations."""
    checks, scalar_checks = [], []
    cases = [
        ("equator", fx.equator_crp(128)),
        ("latitude", fx.latitude_crp(128)),
        ("sphere-spiral", fx.sphere_spiral_crp(128)),
        ("so3-curve", fx.so3_curve_crp(64)),
        ("flat3", fx.flat3_crp(128)),
        ("line-quadratic", fx.line_quadratic_crp(128)),
        ("example-6.7", fx.example_67_crp()),
    ]
    for name, y in cases:
        mani = y.manifold
        gauge = standard_gauge(mani) if name == "example-6.7" else connection_gauge(mani)
        delta = domain_feasible_delta(y, gauge)
        grep = verify_gauge_crp(y, gauge, delta=delta)
        crep = verify_chart_crp(y, mani.chart_at(y.points[0]))
        agree = grep["pass_remainder"] == crep["pass_remainder"]
        checks.append(_check(f"verdicts-agree[{name}]", 0.0 if agree else 1.0, 0.5))
        if mani is SPHERE:
            # the scalar-test definition: f(y) is a flat controlled path for every observable f
            scalar = scalar_test_suite(y, fx.sphere_observables())["pass"]
            same = scalar == grep["pass_remainder"] == crep["pass_remainder"]
            scalar_checks.append(_check(f"verdicts-agree-scalar[{name}]", 0.0 if same else 1.0, 0.5))
    checks += scalar_checks

    # Thm on RDE characterizations: chart solve defect, scalar defect, integral form
    rp = fx.linear_drive_driver(256)
    sol = rde_solve_manifold(fx.sphere_projection_field(), rp, np.array([0.0, 1.0, 0.0]))
    g = connection_gauge(SPHERE)
    gf = gauge_form_defects(sol, fx.sphere_projection_field(), g)
    sc = scalar_solution_defects(
        sol, fx.sphere_projection_field(), lambda m: float(m[0] + m[2] ** 2), lambda m: np.array([1.0, 0.0, 2.0 * m[2]])
    )
    it = check_rde_integral_form(sol, fx.sphere_projection_field(), _area_form, g)
    h = 1.0 / 256
    checks.append(_check("rde-char-gauge-form", gf["defect"], 10.0 * h**3))
    checks.append(_check("rde-char-scalar-form", sc, 10.0 * h**3))
    checks.append(_check("rde-char-integral-form", it["diff_sup"], 1e-5))
    return checks


def criterion_09_compatibility_algebra():
    """Cocycle/antisymmetry, torsion identities, and the Lie-group formula."""
    checks = []
    g1 = connection_gauge(SPHERE).par
    g2 = chart_gauge(SPHERE, SPHERE.charts()[0]).par
    g3 = chart_gauge(SPHERE, SPHERE.charts()[1]).par
    rng = np.random.default_rng(77)
    worst_co = worst_anti = 0.0
    done = 0
    while done < 3:
        m = SPHERE.random_point(rng)
        if SPHERE.charts()[0].margin(m) < 1.0 or SPHERE.charts()[1].margin(m) < 1.0:
            continue
        done += 1
        v = SPHERE.flatten(SPHERE.random_tangent(rng, m))
        w = SPHERE.flatten(SPHERE.random_tangent(rng, m))
        s31 = compatibility_tensor(g3, g1, SPHERE).apply(m, v, w)
        s32 = compatibility_tensor(g3, g2, SPHERE).apply(m, v, w)
        s21 = compatibility_tensor(g2, g1, SPHERE).apply(m, v, w)
        s12 = compatibility_tensor(g1, g2, SPHERE).apply(m, v, w)
        worst_co = max(worst_co, float(np.linalg.norm(s31 - s32 - s21)))
        worst_anti = max(worst_anti, float(np.linalg.norm(s12 + s21)))
    checks.append(_check("cocycle", worst_co, 1e-8))
    checks.append(_check("antisymmetry", worst_anti, 1e-8))
    checks.append(_check("torsion-sphere", torsion_check(SPHERE)["max_residual"], 1e-6))
    checks.append(_check("torsion-so3", torsion_check(SO3M)["max_residual"], 1e-5))
    checks.append(_check("torsion-chart", torsion_check(TORSION_CHART)["max_residual"], 1e-5))

    # the finite-difference S, so the formula is checked against an independent oracle
    g = connection_gauge(SO3M)
    s = compatibility_tensor(g.log.induced_parallelism(), g.par, SO3M).at(np.eye(3))
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        got = np.einsum("cab,a,b->c", s, hat(a).reshape(9), hat(b).reshape(9)).reshape(3, 3)
        want = -0.5 * (hat(a) @ hat(b) - hat(b) @ hat(a))
        worst = max(worst, float(np.max(np.abs(got - want))))
    checks.append(_check("lie-group-half-commutator", worst, 1e-6))
    return checks


def criterion_10_transport():
    """Holonomy, development roundtrips, duality, and the rolled integral."""
    checks = []
    theta = np.pi / 3
    y = fx.latitude_crp(4096, theta=theta)
    u0 = fx.tangent_frame(y.points[0])
    lift = parallel_translate_frame(y, u0)
    angle = abs(lift.holonomy_angle())
    want = 2.0 * np.pi * (1.0 - np.cos(theta))
    want = min(want, 2.0 * np.pi - want)
    checks.append(_check("latitude-holonomy", abs(angle - want), 1e-6))

    # a closed geodesic through a chart switch has zero holonomy
    def holonomy(n):
        yg = fx.tilted_great_circle_crp(n)
        return abs(parallel_translate_frame(yg, fx.tangent_frame(yg.points[0])).holonomy_angle()), _mesh(yg)

    checks.append(_study_check("great-circle-holonomy-slope", holonomy, (64, 128, 256, 512), 2.0))

    # roll(unroll) roundtrip on a smooth path, of order 3/p - 1 at p = 1
    def roll_unroll(n):
        ys = fx.sphere_spiral_crp(n, T=np.pi)
        u0s = fx.tangent_frame(ys.points[0])
        y2, _ = roll(unroll(ys, u0s)[0], ys.driver, SPHERE, ys.points[0], u0s)
        return float(np.max(np.linalg.norm(ys.flat_points() - y2.flat_points(), axis=1))), _mesh(ys)

    checks.append(_study_check("roll-unroll-roundtrip-slope", roll_unroll, (128, 256, 512, 1024), 2.0))

    # unroll(roll) roundtrip on a pure-area driver, of order 3/p - 1 at p = 2
    o = np.array([0.0, 1.0, 0.0])
    u0o = fx.tangent_frame(o)

    def unroll_roll(n):
        rpn = fx.pure_area_fixture(n)
        zn = driver_as_controlled(rpn)
        yy, ll = roll(zn, rpn, SPHERE, o, u0o)
        back, _ = unroll(yy, u0o, lift=ll)
        return float(np.max(np.abs(back.values - zn.values))), 1.0 / n

    checks.append(_study_check("unroll-roll-pure-area-slope", unroll_roll, (64, 128, 256, 512), 0.5, noise_floor=1e-10))

    # Maurer-Cartan duality
    grid = np.linspace(0.0, 1.0, 513)
    rp = time_lift(grid)
    vals = pointwise(lambda t: [np.sin(t), 0.3 * t, 0.2 * np.cos(t) - 0.2], grid, "curve")
    dag = pointwise(lambda t: [[np.cos(t)], [0.3], [-0.2 * np.sin(t)]], grid, "dcurve")
    z = ControlledPath(grid, vals, dag)
    sol = group_rde(z, rp, np.eye(3))
    mc = maurer_cartan_check(sol, z)
    checks.append(_check("maurer-cartan-duality", mc["diff_sup"], 1e-5))

    # rolled-integral equality
    g = connection_gauge(SPHERE)

    def rolled_gap(n):
        ys = fx.sphere_spiral_crp(n, T=np.pi / 2)
        a = oneform_from_smooth(_area_form, ys, g.par)
        return rolled_integral_check(a, ys, g, fx.tangent_frame(ys.points[0]))["diff_sup"], _mesh(ys)

    rolled = refinement_study("rolled-integral", rolled_gap, (128, 256, 512, 1024), 2.0)
    checks.append(_check("rolled-integral-at-2^10", rolled.errors[-1], 1e-5))
    checks.append(_order_check("rolled-integral-slope", rolled))
    return checks


def criterion_11_determinism():
    """Identical configs render byte-identical report bundles."""
    from .serialize import canonical_json, render_csv
    from .convergence import CONVERGENCE_CSV_HEADER

    def build_once():
        rep = verify_chart_crp(fx.example_67_crp(), fx.LINE.charts()[0])
        conv = fx.run_study("pure-area-commutator", levels=4)
        doc = {"verify": {k: v for k, v in rep.items() if k != "levels"}, "convergence": conv.to_json()}
        return canonical_json(doc) + render_csv(CONVERGENCE_CSV_HEADER, conv.csv_rows())

    a = build_once()
    b = build_once()
    return [_check("byte-identical-bundles", 0.0 if a == b else 1.0, 0.5)]


CRITERIA = {
    "criterion-01-algebraic-exactness": criterion_01_algebraic_exactness,
    "criterion-02-sewing-order": criterion_02_sewing_order,
    "criterion-03-example-6.7": criterion_03_example_67,
    "criterion-04-gauge-independence": criterion_04_gauge_independence,
    "criterion-05-ftc": criterion_05_ftc,
    "criterion-06-push-pull-associativity": criterion_06_push_pull_associativity,
    "criterion-07-rde-correctness": criterion_07_rde_correctness,
    "criterion-08-equivalence-theorems": criterion_08_equivalence_theorems,
    "criterion-09-compatibility-algebra": criterion_09_compatibility_algebra,
    "criterion-10-transport": criterion_10_transport,
    "criterion-11-determinism": criterion_11_determinism,
}


def run_criterion(name):
    return _run_check(name, CRITERIA[name])


def _run_check(name, fn):
    t0 = time.perf_counter()
    checks = fn()
    dt = time.perf_counter() - t0
    return {
        "name": name,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
        "runtime": dt,
    }


def run_suite(names=None, deterministic=False, jobs=1):
    """Run the named criteria (all by default), in ``jobs`` worker processes when above 1; returns the bundle."""
    names = list(names) if names else list(CRITERIA)
    for n in names:
        if n not in CRITERIA:
            raise ConfigError(f"unknown criterion {n!r}")
    results = []
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers start from a fresh import, so each criterion travels by its import path
        with ProcessPoolExecutor(max_workers=jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_run_check, names, [CRITERIA[n] for n in names]))
    else:
        results = [run_criterion(n) for n in names]
    results.sort(key=lambda r: r["name"])
    if deterministic:
        for r in results:
            r["runtime"] = 0.0
    return {
        "criteria": results,
        "pass": all(r["pass"] for r in results),
        "failed": [r["name"] for r in results if not r["pass"]],
        "seed": FIXTURE_SEED,
    }
