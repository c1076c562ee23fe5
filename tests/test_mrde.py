from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from crp import ChartManifold, Explosion, ShapeError
from crp.convergence import ConvergenceReport, dyadic_levels
from crp.fixtures import (
    SPHERE,
    linear_drive_driver,
    smooth_2d_driver,
    so3_constant_driver,
    sphere_projection_field,
    sphere_projection_flow,
    so3_left_invariant_field,
    so3_right_invariant_field,
)
from crp.gauges import connection_gauge, standard_gauge
from crp.linalg import hat, so3_exp
from crp.mrde import (
    ManifoldDrivingField,
    check_rde_integral_form,
    f_related_pushforward,
    gauge_form_defects,
    rde_solve_manifold,
    scalar_solution_defects,
)
from crp.roughpath import RoughPath, lift_smooth, time_lift
from paper_reference import check_rde_gauge_form


def rk4_projection_values(y0, speed, times, h=1e-5):
    """RK4 values of m' = speed P(m) e1 on the sphere at the given times.

    Steps at the fixed size h with a partial step to land exactly on each
    requested time, so comparisons never suffer sampling misalignment.
    """
    e1 = np.array([1.0, 0.0, 0.0])

    def rhs(p):
        return speed * (e1 - p * p[0])

    def step(p, hh):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * hh * k1)
        k3 = rhs(p + 0.5 * hh * k2)
        k4 = rhs(p + hh * k3)
        return p + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    m = np.asarray(y0, dtype=float).copy()
    out = [m.copy()]
    for a, b in zip(times[:-1], times[1:]):
        span = float(b - a)
        full = int(span / h)
        for _ in range(full):
            m = step(m, h)
        rem = span - full * h
        if rem > 1e-14:
            m = step(m, rem)
        out.append(m.copy())
    return np.stack(out)


def rk4_projection_oracle(y0, speed, T=1.0, h=1e-5):
    return rk4_projection_values(y0, speed, np.array([0.0, T]), h=h)[-1]


def test_zero_field_constant_solution():
    field = ManifoldDrivingField(SPHERE, lambda m: np.zeros((3, 3)))
    rp = linear_drive_driver(64)
    y0 = np.array([0.0, 0.0, 1.0])
    sol = rde_solve_manifold(field, rp, y0)
    assert np.max(np.abs(sol.points - y0)) == 0.0


def test_sphere_projection_field_matches_rk4_oracle():
    speed = 1.0
    rp = linear_drive_driver(1024, speed=speed)
    field = sphere_projection_field()
    y0 = np.array([0.0, 1.0, 0.0])
    sol = rde_solve_manifold(field, rp, y0)
    oracle = rk4_projection_oracle(y0, speed)
    assert np.linalg.norm(sol.points[-1] - oracle) <= 1e-6
    assert np.max(sol.manifold.off_manifold(sol.points)) <= 1e-6


def test_projection_flow_closed_form_matches_rk4_oracle():
    rp = linear_drive_driver(64)
    y0 = np.array([0.0, 1.0, 0.0])
    exact = sphere_projection_flow(y0, 1.0, rp.times)
    assert np.max(np.linalg.norm(exact - rk4_projection_values(y0, 1.0, rp.times, h=1e-4), axis=1)) <= 1e-13


def test_sphere_solution_sup_error_against_dense_oracle():
    # sup over the trajectory, not only the endpoint
    speed = 1.0
    n = 1024
    rp = linear_drive_driver(n, speed=speed)
    field = sphere_projection_field()
    y0 = np.array([0.0, 1.0, 0.0])
    sol = rde_solve_manifold(field, rp, y0)
    oracle = rk4_projection_values(y0, speed, rp.times)
    sup = float(np.max(np.linalg.norm(sol.points - oracle, axis=1)))
    assert sup <= 1e-6


def test_sphere_unit_norm_drift():
    rp = linear_drive_driver(1024)
    sol = rde_solve_manifold(sphere_projection_field(), rp, np.array([0.0, 1.0, 0.0]))
    assert np.max(np.abs(np.linalg.norm(sol.points, axis=1) - 1.0)) <= 1e-9


def _rotation_through_a_pole(n):
    """A rotation about a horizontal axis that heads for the pole its start chart cannot reach."""
    omega, phi, beta = 1.3, 1.1, -0.4
    axis = np.array([np.cos(phi), np.sin(phi), 0.0])
    y0 = np.cos(beta) * np.array([-np.sin(phi), np.cos(phi), 0.0]) + np.sin(beta) * np.array([0.0, 0.0, 1.0])
    field = ManifoldDrivingField(SPHERE, lambda m: np.cross(omega * axis, m)[:, None], name="rotation")
    return field, time_lift(np.linspace(0.0, np.pi, n + 1)), y0


ON_MANIFOLD_SOLVES = {  # name: n -> (field, driver, start point), whether the field steps in charts
    "projection": (lambda n: (sphere_projection_field(), linear_drive_driver(n), np.array([0.0, 1.0, 0.0])), True),
    "rotation-through-a-pole": (_rotation_through_a_pole, True),
    "so3-left-invariant": (
        lambda n: (
            so3_left_invariant_field(),
            so3_constant_driver(n, (np.pi / 2) * np.array([0.0, 0.0, 1.0])),
            expm(hat(np.array([0.3, -0.2, 0.5]))),
        ),
        True,
    ),
    "so3-right-invariant": (
        lambda n: (so3_right_invariant_field(), so3_constant_driver(n, np.array([0.4, -0.3, 0.6])), np.eye(3)),
        False,
    ),
}


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("name", sorted(ON_MANIFOLD_SOLVES))
def test_solve_stays_on_the_manifold(name, n):
    # chart steps land on the manifold through Chart.from_coords and whole-grid steps are
    # products of exponentials, so no solve needs projecting back
    make, chart_stepped = ON_MANIFOLD_SOLVES[name]
    field, rp, y0 = make(n)
    assert (field.generators is None) == chart_stepped
    sol = rde_solve_manifold(field, rp, y0)
    if name == "rotation-through-a-pole":
        assert sol.meta["chart_switches"]  # the solve re-charts
    assert np.max(sol.manifold.off_manifold(sol.points)) <= 1e-12


def test_drift_of_a_nan_sample_is_nan():
    rp = linear_drive_driver(16)
    sol = rde_solve_manifold(sphere_projection_field(), rp, np.array([0.0, 1.0, 0.0]))
    sol.points[5, 1] = np.nan
    assert np.isnan(np.max(sol.manifold.off_manifold(sol.points)))  # never read as finite, so `<= tol` fails


def test_manifold_drift_bounded_by_second_order():
    # chart stepping reconstructs points through the chart inverse, which lands
    # on the sphere to rounding; the O(h^2) bound is met with drift ~ eps
    for n in (64, 128, 256, 512):
        rp = linear_drive_driver(n)
        sol = rde_solve_manifold(sphere_projection_field(), rp, np.array([0.0, 1.0, 0.0]))
        assert np.max(sol.manifold.off_manifold(sol.points)) <= max(1e-12, 2.0 * (1.0 / n) ** 2)


def test_so3_constant_direction_matches_matrix_exponential():
    a0 = (np.pi / 2) * np.array([0.0, 0.0, 1.0])
    rp = so3_constant_driver(1024, a0)
    sol = rde_solve_manifold(so3_right_invariant_field(), rp, np.eye(3))
    oracle = expm(-hat(a0))
    assert np.max(np.abs(sol.points[-1] - oracle)) <= 1e-9
    # orthogonality is inherited from the exponential charts
    gtg = sol.points[-1].T @ sol.points[-1]
    assert np.max(np.abs(gtg - np.eye(3))) <= 1e-12


def test_so3_left_invariant_field_matches_matrix_exponential():
    # dg = g hat(dx) with x = t a0 has the solution g(t) = g0 expm(t hat(a0))
    a0 = (np.pi / 2) * np.array([0.0, 0.0, 1.0])
    sol = rde_solve_manifold(so3_left_invariant_field(), so3_constant_driver(1024, a0), np.eye(3))
    assert np.max(np.abs(sol.points[-1] - expm(hat(a0)))) <= 1e-9
    assert np.max(np.abs(sol.points[-1] - expm(-hat(a0)))) > 1.0  # not the right-invariant solution
    # from a g0 that does not commute with hat(a0) the chart-patched scheme is not exact:
    # it must be second order
    g0 = expm(hat(np.array([0.3, -0.2, 0.5])))
    ns = [64, 128, 256, 512]
    errs = []
    for n in ns:
        sol = rde_solve_manifold(so3_left_invariant_field(), so3_constant_driver(n, a0), g0)
        errs.append(max(np.max(np.abs(g - g0 @ expm(t * hat(a0)))) for t, g in zip(sol.times, sol.points)))
    assert ConvergenceReport.from_levels("so3-left-invariant", ns, 1.0 / np.array(ns), errs, 2.0).passed


def test_bit_identical_reruns():
    rp = linear_drive_driver(128)
    field = sphere_projection_field()
    y0 = np.array([0.0, 1.0, 0.0])
    a = rde_solve_manifold(field, rp, y0)
    b = rde_solve_manifold(field, rp, y0)
    assert np.array_equal(a.flat_points(), b.flat_points())


def test_chart_stepped_solve_is_rotation_equivariant():
    # P(R m) = R P(m) R^T, so R y solves the projection field under the driver R x with areas R A R^T;
    # the chart-stepped scheme reads R y in other chart coordinates, so the two agree to scheme order
    rp = linear_drive_driver(512, speed=0.8)
    field = sphere_projection_field()
    y0 = np.array([0.0, 1.0, 0.0])
    rot = so3_exp(np.array([0.7, -1.1, 0.4]))
    sol = rde_solve_manifold(field, rp, y0)
    turned = RoughPath(rp.times, rp.values @ rot.T, rot @ rp.step_areas @ rot.T, rp.control)
    got = rde_solve_manifold(field, turned, rot @ y0)
    assert np.max(np.abs(got.flat_points() - sol.flat_points() @ rot.T)) < 1e-5


def test_chart_switches_are_segment_starts_of_a_margin_scan(margin_scan):
    # a rotation about a horizontal axis heads for the pole its start chart
    # cannot reach, so the solve re-charts on the way
    field, rp, y0 = _rotation_through_a_pole(128)
    sol = rde_solve_manifold(field, rp, y0)
    segs = margin_scan(sol.points, SPHERE.charts())
    assert len(segs) >= 2
    assert sol.meta["chart_switches"] == [float(rp.times[i0]) for i0, _, _ in segs[1:]]


def test_explosion_with_norm_bound():
    flat = ChartManifold(1, radius=1e9)
    field = ManifoldDrivingField(flat, lambda x: np.array([[x[0] ** 2 * 50.0]]))
    grid = np.linspace(0.0, 4.0, 513)
    rp = lift_smooth(lambda t: np.array([t]), grid, dpath=lambda t: np.array([1.0]))
    with pytest.raises(Explosion) as exc:
        rde_solve_manifold(field, rp, np.array([1.0]))
    assert 0.0 <= exc.value.time <= 4.0


@pytest.mark.parametrize("y0", [np.array([0.0, 1.0, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0]])])
def test_chart_stepped_solve_checks_the_start_point_shape(y0):
    with pytest.raises(ShapeError, match="do not fit sphere points of shape"):
        rde_solve_manifold(sphere_projection_field(), linear_drive_driver(4), y0)


def test_chart_stepped_solve_checks_the_driver_dimension():
    # a 3-column field on a 2-dim driver; the field is read once, at y0
    calls = []
    field = ManifoldDrivingField(SPHERE, lambda m: calls.append(m) or SPHERE.tangent_projector(m))
    with pytest.raises(ShapeError, match="field values of shape \\(3, 3\\) do not fit .* a 2-dim driver"):
        rde_solve_manifold(field, smooth_2d_driver(4), np.array([0.0, 1.0, 0.0]))
    assert len(calls) == 1


def test_solution_is_controlled_path():
    from crp.mcrp import verify_gauge_crp

    rp = linear_drive_driver(512)
    sol = rde_solve_manifold(sphere_projection_field(), rp, np.array([0.0, 1.0, 0.0]))
    rep = verify_gauge_crp(sol, connection_gauge(SPHERE))
    assert rep["pass"], rep


class TestGaugeForm:
    def test_zero_field_zero_defect(self):
        field = ManifoldDrivingField(SPHERE, lambda m: np.zeros((3, 3)))
        rp = linear_drive_driver(32)
        sol = rde_solve_manifold(field, rp, np.array([0.0, 0.0, 1.0]))
        rep = gauge_form_defects(sol, field, connection_gauge(SPHERE))
        assert rep["defect"] <= 1e-12

    def test_flat_reduction_matches_flat_scheme_defect(self):
        flat = ChartManifold(2, radius=50.0)
        field = ManifoldDrivingField(
            flat, lambda x: np.array([[1.0, 0.0], [x[0], 1.0]])
        )
        rp = smooth_2d_driver(128)
        sol = rde_solve_manifold(field, rp, np.array([0.2, -0.1]))
        rep = gauge_form_defects(sol, field, standard_gauge(flat))
        # identical to the flat one-step defect: the solver stepped exactly this
        assert rep["defect"] <= 1e-10

    def test_sphere_gauge_form_slope_and_split(self):
        rp = linear_drive_driver(256)
        field = sphere_projection_field()
        sol = rde_solve_manifold(field, rp, np.array([0.0, 1.0, 0.0]))
        rep = check_rde_gauge_form(sol, field, connection_gauge(SPHERE), levels=4, check_split=True)
        hs = [h for h, _ in rep["levels"]]
        es = [e for _, e in rep["levels"]]
        assert ConvergenceReport.from_levels("gauge-form", dyadic_levels(256, 4), hs, es, 3.0).passed
        assert rep["split_residual"] <= 1e-8

    def test_field_and_log_evaluated_once_per_stencil_point(self):
        # 8 steps, one nonzero area row (the driver moves along e1 only): F at each
        # node plus F at the 4 Richardson points of that row's derivative, and one
        # stacked d2psi call per Richardson level for the whole grid
        assert count_gauge_form_calls(8) == {"value_matrix": 8 + 8 * 4, "d2psi": 4}

    def test_criterion_08_grid_takes_four_d2psi_calls(self):
        # criterion-08's N = 256 solve: one stacked d2psi call per Richardson level, and F
        # once at each node and at each of its 4 stencil points
        assert count_gauge_form_calls(256) == {"value_matrix": 256 + 256 * 4, "d2psi": 4}

    @pytest.mark.parametrize("n", [8, 64])
    def test_whole_grid_defects_match_the_per_node_loop(self, n):
        field = sphere_projection_field()
        sol = rde_solve_manifold(field, smooth_sphere_driver(n), np.array([0.0, 1.0, 0.0]))
        gauge = connection_gauge(SPHERE)
        got = gauge_form_defects(sol, field, gauge, check_split=True)
        want = per_node_gauge_form(sol, field, gauge)
        assert got["defect"] == pytest.approx(want["defect"], rel=1e-9, abs=1e-15)
        assert got["split_residual"] == pytest.approx(want["split_residual"], rel=1e-6, abs=1e-15)
        f, df = (lambda m: float(m[0] + m[2] ** 2)), (lambda m: np.array([1.0, 0.0, 2.0 * m[2]]))
        assert scalar_solution_defects(sol, field, f, df) == pytest.approx(
            per_node_scalar(sol, field, f, df), rel=1e-9, abs=1e-15
        )


def count_gauge_form_calls(n):
    """``field.value_matrix`` and ``gauge.d2psi`` calls of one ``gauge_form_defects`` on an n-step solve."""
    field = sphere_projection_field()
    sol = rde_solve_manifold(field, linear_drive_driver(n), np.array([0.0, 1.0, 0.0]))
    gauge = connection_gauge(SPHERE)
    calls = {"value_matrix": 0, "d2psi": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    field.value_matrix = counted("value_matrix", field.value_matrix)
    gauge.d2psi = counted("d2psi", gauge.d2psi)
    assert sol.driver_dim == 3
    gauge_form_defects(sol, field, gauge)
    return calls


def smooth_sphere_driver(n):
    """A 3-dim driver whose areas have several nonzero rows, so every field column enters."""
    grid = np.linspace(0.0, 1.0, n + 1)
    return lift_smooth(
        lambda t: np.array([np.sin(2.0 * t), np.cos(3.0 * t), t * t]),
        grid,
        dpath=lambda t: np.array([2.0 * np.cos(2.0 * t), -3.0 * np.sin(3.0 * t), 2.0 * t]),
    )


# -- the per-node loops the whole-grid characterizations replaced, as references -----------


def per_node_gauge_form(y, field, gauge):
    from crp.gauges import compatibility_tensor

    mani = y.manifold
    dxs = np.diff(y.driver.values, axis=0)
    s_tensor = compatibility_tensor(gauge.log.induced_parallelism(), gauge.par, mani)
    worst = split_worst = 0.0
    for i in range(y.times.size - 1):
        m, cols, area = y.points[i], field.value_matrix(y.points[i]), y.driver.step_areas[i]

        def pushed(qs, _bases, _m=m):
            return np.stack([np.stack([push(_m, q) @ field.value_matrix(q) for push in (gauge.d2psi, gauge.U)]) for q in qs])

        terms = np.zeros((2, mani.flat_dim))
        live = [a for a in range(area.shape[0]) if np.any(area[a])]
        derivs = mani.derivative_along(np.broadcast_to(m, (len(live),) + m.shape), cols[:, live].T, pushed)
        for d, a in zip(derivs, live):
            terms += d @ area[a]
            s_term = np.stack([s_tensor.apply(m, cols[:, a], cols[:, b]) for b in range(area.shape[0])], axis=1)
            terms[1] -= s_term @ area[a]
        defect = gauge.psi(m, y.points[i + 1]) - cols @ dxs[i] - terms[0]
        worst = max(worst, float(np.linalg.norm(defect)))
        split_worst = max(split_worst, float(np.linalg.norm(terms[0] - terms[1])))
    return {"defect": worst, "split_residual": split_worst}


def per_node_scalar(y, field, f, df):
    mani = y.manifold
    dxs = np.diff(y.driver.values, axis=0)

    def g(qs, _bases):
        return np.stack([np.asarray(df(q), dtype=float) @ field.value_matrix(q) for q in qs])

    worst = 0.0
    for i in range(y.times.size - 1):
        m, cols, area = y.points[i], field.value_matrix(y.points[i]), y.driver.step_areas[i]
        term = float(np.asarray(df(m), dtype=float) @ (cols @ dxs[i]))
        live = [a for a in range(area.shape[0]) if np.any(area[a])]
        dd = mani.derivative_along(np.broadcast_to(m, (len(live),) + m.shape), cols[:, live].T, g)
        term += sum(float(d @ area[a]) for d, a in zip(dd, live))
        worst = max(worst, abs(float(f(y.points[i + 1]) - f(m)) - term))
    return worst


class TestIntegralForm:
    def test_zero_form(self):
        rp = linear_drive_driver(64)
        field = sphere_projection_field()
        sol = rde_solve_manifold(field, rp, np.array([0.0, 1.0, 0.0]))
        rep = check_rde_integral_form(sol, field, lambda m: np.zeros((1, 3)), connection_gauge(SPHERE))
        assert rep["diff_sup"] == 0.0

    def test_height_differential_ftc(self):
        rp = linear_drive_driver(512)
        field = sphere_projection_field()
        sol = rde_solve_manifold(field, rp, np.array([0.0, 1.0, 0.0]))
        rep = check_rde_integral_form(
            sol, field, lambda m: np.array([[0.0, 0.0, 1.0]]), connection_gauge(SPHERE)
        )
        want = sol.points[-1][2] - sol.points[0][2]
        assert abs(rep["lhs"].values[-1, 0] - want) <= 1e-7
        assert rep["diff_sup"] <= 1e-5

    def test_scalar_characterization_slope(self):
        field = sphere_projection_field()
        errs, hs = [], []
        for n in (32, 64, 128, 256):
            rp = linear_drive_driver(n)
            sol = rde_solve_manifold(field, rp, np.array([0.0, 1.0, 0.0]))
            d = scalar_solution_defects(
                sol, field, lambda m: float(m[2] ** 2 + m[0]), lambda m: np.array([1.0, 0.0, 2.0 * m[2]])
            )
            errs.append(d)
            hs.append(1.0 / n)
        assert ConvergenceReport.from_levels("scalar-defect", (32, 64, 128, 256), hs, errs, 3.0).passed


class TestRelatedSystems:
    def test_identity_relation_exact(self):
        rp = linear_drive_driver(128)
        field = sphere_projection_field()
        sol = rde_solve_manifold(field, rp, np.array([0.0, 1.0, 0.0]))
        rep = f_related_pushforward(lambda m: m, lambda m: np.eye(3), field, field, sol)
        assert rep["diff_sup"] <= 1e-12

    def test_so3_to_sphere_relation(self):
        # rotate-and-project: g -> g e3 relates the right-invariant system to
        # the cross-product system on the sphere
        a0 = 0.9 * np.array([0.4, -0.3, 0.6])
        rp = so3_constant_driver(512, a0)
        fso3 = so3_right_invariant_field()
        sol = rde_solve_manifold(fso3, rp, np.eye(3))

        def f(g):
            return g @ np.array([0.0, 0.0, 1.0])

        def jac(g):
            out = np.zeros((3, 9))
            out[0, 2] = out[1, 5] = out[2, 8] = 1.0
            return out

        def sphere_field(m):
            return np.stack([-np.cross(e, m) for e in np.eye(3)], axis=1)

        fsph = ManifoldDrivingField(SPHERE, sphere_field, name="minus-cross")
        rep = f_related_pushforward(f, jac, fso3, fsph, sol)
        assert rep["relatedness_residual"] <= 1e-8
        assert rep["diff_sup"] <= 1e-6

    def test_radial_relation_to_projection_field(self):
        flat = ChartManifold(3, radius=50.0)
        field_flat = ManifoldDrivingField(flat, lambda x: np.linalg.norm(x) * np.eye(3))
        rp = linear_drive_driver(512, speed=0.5)
        y0 = np.array([0.0, 1.0, 0.0])
        sol = rde_solve_manifold(field_flat, rp, y0)

        def f(x):
            return x / np.linalg.norm(x)

        def jac(x):
            r = np.linalg.norm(x)
            u = x / r
            return (np.eye(3) - np.outer(u, u)) / r

        rep = f_related_pushforward(f, jac, field_flat, sphere_projection_field(), sol)
        assert rep["relatedness_residual"] <= 1e-8
        errs, hs = [], []
        for n in (64, 128, 256, 512):
            rpn = linear_drive_driver(n, speed=0.5)
            soln = rde_solve_manifold(field_flat, rpn, y0)
            repn = f_related_pushforward(f, jac, field_flat, sphere_projection_field(), soln)
            errs.append(repn["diff_sup"])
            hs.append(1.0 / n)
        assert ConvergenceReport.from_levels("f-related", (64, 128, 256, 512), hs, errs, 2.0).passed


def test_time_driven_chart_stepped_solve_calls_the_field_3n_plus_1_times():
    # one value per node (the step's F at its left node is the one stored in the derivative)
    # and two per step for the central difference of the area term
    axis = np.array([1.0, 0.0, 0.0])
    calls = []
    field = ManifoldDrivingField(SPHERE, lambda m: calls.append(1) or np.cross(axis, m)[:, None], name="rotation")
    n = 16
    sol = rde_solve_manifold(field, time_lift(np.linspace(0.0, 1.0, n + 1)), np.array([0.0, 0.6, 0.8]))
    assert len(calls) == 3 * n + 1
    # the rotation about the first axis by angle t, at second order
    c, s = np.cos(1.0), np.sin(1.0)
    assert np.linalg.norm(sol.points[-1] - np.array([0.0, 0.6 * c - 0.8 * s, 0.6 * s + 0.8 * c])) < 1e-3
    # the projection field on a 3-dim driver moving along e1: its two zero area rows take no stencil point
    calls.clear()
    projection = ManifoldDrivingField(SPHERE, lambda m: calls.append(1) or SPHERE.tangent_projector(m))
    rde_solve_manifold(projection, linear_drive_driver(n), np.array([0.0, 0.6, 0.8]))
    assert len(calls) == 3 * n + 1
