from __future__ import annotations

import re

import numpy as np
import pytest

from crp import Control, InvalidGrid, LiftFailure, OffGrid, RoughPath, ShapeError
from crp import fixtures, pairs, roughpath
from crp.controlled import associated_roughpath, driver_as_controlled
from crp.roughpath import (
    CHEN_TOL,
    _calibrate_control,
    lift_piecewise_linear,
    lift_smooth,
    pure_area_driver,
    time_lift,
)
from crp.transport import group_rde, roll
from paper_reference import check_superadditive, coarsen, left_fold_area


def simpson_area_oracle(path, a, b, n=1_000_001):
    """Antisymmetric Levy area of a smooth planar arc by Simpson quadrature.

    Independent of the Gauss-Legendre lift path: integrates
    0.5 * (x1 dx2 - x2 dx1) against a dense derivative sample.
    """
    ts = np.linspace(a, b, n)
    xs = np.array([path(t) for t in ts])
    dt = ts[1] - ts[0]
    dxs = np.gradient(xs, dt, axis=0, edge_order=2)
    rel = xs - xs[0]
    integrand = 0.5 * (rel[:, 0] * dxs[:, 1] - rel[:, 1] * dxs[:, 0])
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * integrand) * dt / 3.0)


def circle(t):
    return np.array([np.cos(t), np.sin(t)])


def dcircle(t):
    return np.array([-np.sin(t), np.cos(t)])


class TestLiftSmooth:
    def test_linear_path_area_is_half_square(self):
        grid = np.linspace(0.0, 1.0, 5)
        rp = lift_smooth(lambda t: np.array([t, 0.0]), grid, dpath=lambda t: np.array([1.0, 0.0]))
        total = left_fold_area(rp, 0, 4)
        assert np.allclose(total, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_circle_arc_levy_area_matches_simpson_oracle(self):
        grid = np.linspace(0.0, np.pi / 2, 65)
        rp = lift_smooth(circle, grid, dpath=dcircle)
        X = left_fold_area(rp, 0, 64)
        antisym = 0.5 * (X[0, 1] - X[1, 0])
        oracle = simpson_area_oracle(circle, 0.0, np.pi / 2)
        # frozen closed form for the quarter arc: pi/4 - 1/2
        assert abs(oracle - (np.pi / 4 - 0.5)) < 1e-9
        assert abs(antisym - oracle) < 1e-10

    def test_collinear_path_has_zero_levy_area(self):
        grid = np.linspace(0.0, 1.0, 9)
        rp = lift_smooth(lambda t: np.array([t, t]), grid, dpath=lambda t: np.array([1.0, 1.0]))
        for i in range(9):
            for j in range(i, 9):
                X = left_fold_area(rp, i, j)
                assert abs(X[0, 1] - X[1, 0]) < 1e-12

    def test_weak_geometric_residual_small(self):
        grid = np.linspace(0.0, np.pi / 2, 33)
        rp = lift_smooth(circle, grid, dpath=dcircle)
        assert rp.weak_geometric_residual() <= 1e-10

    def test_control_calibrated_to_unit_constant(self):
        grid = np.linspace(0.0, np.pi / 2, 33)
        rp = lift_smooth(circle, grid, dpath=dcircle)
        assert rp.bound_constant() <= 1.0 + 1e-9

    def test_nonincreasing_grid_rejected(self):
        with pytest.raises(InvalidGrid):
            lift_smooth(circle, np.array([0.0, 0.5, 0.5, 1.0]), dpath=dcircle)

    def test_quadrature_nonconvergence_raises(self):
        # a deliberately inconsistent "derivative" breaks the residual check
        with pytest.raises(LiftFailure):
            lift_smooth(circle, np.linspace(0, 1, 5), dpath=lambda t: np.array([1.0, 5.0]))


def reference_lift(path, grid, dpath):
    """Per-step Gauss-Legendre lift: a fresh rule and path(a) at every step, as the
    lift was first written.  Returns (values, step areas, control scale)."""
    times = np.asarray(grid, dtype=float)
    values = np.array([np.atleast_1d(np.asarray(path(t), dtype=float)) for t in times])
    dx = np.diff(values, axis=0)
    order = 8
    while True:
        areas = np.empty((times.size - 1,) + 2 * values.shape[1:])
        for i, (a, b) in enumerate(zip(times[:-1], times[1:])):
            nodes, weights = np.polynomial.legendre.leggauss(order)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            ts = mid + half * nodes
            xs = np.array([path(t) for t in ts]) - np.asarray(path(a), dtype=float)
            areas[i] = half * np.einsum("q,qa,qb->ab", weights, xs, np.array([dpath(t) for t in ts]))
        res = 0.5 * (areas + np.swapaxes(areas, 1, 2)) - 0.5 * np.einsum("ia,ib->iab", dx, dx)
        if np.max(np.abs(res)) <= roughpath.WEAK_GEO_TOL_QUAD:
            return values, areas, _calibrate_control(values, times, areas, 1.0)
        order *= 2


def oscillating(t):
    return np.array([np.cos(40.0 * t), np.sin(40.0 * t)])


def doscillating(t):
    return np.array([-40.0 * np.sin(40.0 * t), 40.0 * np.cos(40.0 * t)])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def smooth_2d(t):
    return np.array([np.sin(t), np.cos(2.0 * t) / 2.0])


def dsmooth_2d(t):
    return np.array([np.cos(t), -np.sin(2.0 * t)])


LIFT_CASES = {
    "smooth-2d": (smooth_2d, dsmooth_2d, np.linspace(0.0, 1.0, 65)),
    "k1": (
        lambda t: np.array([np.sin(3.0 * t)]),
        lambda t: np.array([3.0 * np.cos(3.0 * t)]),
        np.linspace(0.0, 1.0, 33),
    ),
    "order-doubling": (oscillating, doscillating, np.linspace(0.0, 1.0, 9)),
}


@pytest.fixture()
def kernel_orders(monkeypatch):
    """The quadrature order of every call to the batched step-area kernel."""
    orders = []
    kernel = roughpath._gauss_legendre_step_area

    def counted(path, dpath, times, values, order):
        orders.append(order)
        return kernel(path, dpath, times, values, order)

    monkeypatch.setattr(roughpath, "_gauss_legendre_step_area", counted)
    return orders


class TestShapes:
    def test_values_that_are_not_two_dimensional_raise(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ShapeError, match=re.escape("values of shape (5,)")):
            RoughPath(grid, grid.copy(), np.zeros((4, 1, 1)), Control.time_scale(1.0, 1.0))

    @pytest.mark.parametrize("areas", [np.zeros((4, 2)), np.zeros((4, 2, 3)), np.zeros((4, 3, 3))])
    def test_step_areas_that_are_not_n_k_k_raise(self, areas):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ShapeError, match=re.escape("are not (N+1, k) and (N, k, k)")):
            RoughPath(grid, np.zeros((5, 2)), areas, Control.time_scale(1.0, 1.0))

    def test_a_count_mismatch_stays_an_invalid_grid(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InvalidGrid):
            RoughPath(grid, np.zeros((4, 2)), np.zeros((4, 2, 2)), Control.time_scale(1.0, 1.0))

    def test_piecewise_linear_lift_of_one_dimensional_points_raises(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ShapeError, match=re.escape("points of shape (5,)")):
            lift_piecewise_linear(grid ** 2, grid)


class TestBatchedQuadrature:
    @pytest.mark.parametrize("case", sorted(LIFT_CASES))
    def test_lift_bit_identical_to_per_step_reference(self, case):
        path, dpath, grid = LIFT_CASES[case]
        values, areas, scale = reference_lift(path, grid, dpath=dpath)
        rp = lift_smooth(path, grid, dpath=dpath)
        assert np.array_equal(bits(rp.values), bits(values))
        assert np.array_equal(bits(rp.step_areas), bits(areas))
        assert rp.control.to_json()["scale"] == scale

    def test_oscillating_path_forces_one_order_doubling(self, kernel_orders):
        lift_smooth(oscillating, np.linspace(0.0, 1.0, 9), dpath=doscillating)
        assert kernel_orders == [8, 16]  # one kernel call per order tried, not one per step

    def test_leggauss_runs_once_per_order(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss

        def counted(order):
            calls.append(order)
            return real(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        roughpath._gauss_legendre_rule.cache_clear()
        for n in (9, 17, 9):
            lift_smooth(oscillating, np.linspace(0.0, 1.0, n), dpath=doscillating)
        assert calls == [8, 16]
        nodes, weights = roughpath._gauss_legendre_rule(8)
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_scalar_output_is_a_one_vector(self):
        grid = np.linspace(0.0, 1.0, 17)
        rp = lift_smooth(np.sin, grid, dpath=np.cos)
        ref = lift_smooth(lambda t: np.array([np.sin(t)]), grid, dpath=lambda t: np.array([np.cos(t)]))
        assert rp.values.shape == (17, 1)
        assert np.array_equal(bits(rp.step_areas), bits(ref.step_areas))

    def test_path_changing_shape_raises_shape_error_at_first_time(self):
        with pytest.raises(ShapeError, match=re.escape("path(0.5) has shape (3,)")):
            lift_smooth(lambda t: np.zeros(2) if t < 0.5 else np.zeros(3), np.linspace(0.0, 1.0, 5), dpath=dcircle)

    def test_dpath_shape_mismatch_raises_shape_error_at_first_node(self):
        first_node = float(0.125 * (1.0 + np.polynomial.legendre.leggauss(8)[0][0]))
        with pytest.raises(ShapeError, match=re.escape(f"dpath({first_node!r}) has shape (3,)")):
            lift_smooth(circle, np.linspace(0.0, 1.0, 5), dpath=lambda t: np.zeros(3))

    def test_matrix_valued_path_raises_shape_error(self):
        with pytest.raises(ShapeError):
            lift_smooth(lambda t: t * np.eye(2), np.linspace(0.0, 1.0, 5), dpath=lambda t: np.eye(2))

    def test_non_finite_grid_value_raises_before_any_quadrature(self, kernel_orders):
        with pytest.raises(LiftFailure, match=re.escape("path is not finite at t=1.0")):
            lift_smooth(
                lambda t: np.array([np.inf, 0.0]) if t == 1.0 else circle(t), np.linspace(0.0, 1.0, 5), dpath=dcircle
            )
        assert kernel_orders == []

    def test_non_finite_node_value_raises_without_order_doubling(self, kernel_orders):
        with pytest.raises(LiftFailure, match="dpath is not finite at t="):
            lift_smooth(
                circle, np.linspace(0.0, 1.0, 5), dpath=lambda t: np.array([np.nan, 0.0]) if t > 0.5 else dcircle(t)
            )
        assert kernel_orders == [8]


class TestPureArea:
    def test_unit_area_tensor(self):
        rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, 3))
        assert np.allclose(left_fold_area(rp, 0, 2), [[0.0, 1.0], [-1.0, 0.0]], atol=0.0)

    def test_chen_additivity_exact(self):
        rp = pure_area_driver(0.7, np.linspace(0.0, 1.0, 5))
        lhs = left_fold_area(rp, 0, 2) + left_fold_area(rp, 2, 4)
        assert np.array_equal(lhs, left_fold_area(rp, 0, 4))

    def test_weak_geometric_exact(self):
        rp = pure_area_driver(2.0, np.linspace(0.0, 1.0, 9))
        assert rp.weak_geometric_residual() == 0.0


class TestChenCompose:
    def test_diagonal_is_zero(self):
        rp = time_lift(np.linspace(0, 1, 5))
        inc, area = rp.values[1] - rp.values[1], left_fold_area(rp, 1, 1)  # t = 0.25
        assert np.all(inc == 0.0) and np.all(area == 0.0)

    def test_linear_path_closed_form(self):
        v = np.array([1.5, -0.5, 2.0])
        grid = np.linspace(0.0, 1.0, 9)
        rp = lift_piecewise_linear(np.outer(grid, v), grid)
        inc, area = rp.values[6] - rp.values[2], left_fold_area(rp, 2, 6)  # (t_2, t_6) = (0.25, 0.75)
        assert np.allclose(inc, 0.5 * v)
        assert np.allclose(area, 0.5 * 0.25 * np.outer(v, v), atol=1e-14)

    def test_fold_matches_refold_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.standard_normal((4, 3))
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        rp = lift_piecewise_linear(pts, grid)
        inc02, a02 = rp.values[2] - rp.values[0], left_fold_area(rp, 0, 2)
        inc23, a23 = rp.values[3] - rp.values[2], left_fold_area(rp, 2, 3)
        refold = a02 + a23 + np.outer(inc02, inc23)
        a03 = left_fold_area(rp, 0, 3)
        assert np.max(np.abs(refold - a03)) < 1e-13

    def test_off_grid_time_rejected(self):
        rp = time_lift(np.linspace(0, 1, 5))
        with pytest.raises(OffGrid):
            rp.index_of(0.33)

    def test_vectorized_pairs_match_fold(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 2.0, 17)
        pts = rng.standard_normal((17, 2))
        rp = lift_piecewise_linear(pts, grid)
        for i, j in [(0, 16), (3, 11), (5, 6)]:
            assert np.max(np.abs(rp.area_pairs([i], [j])[0] - left_fold_area(rp, i, j))) < 1e-13

    def test_chen_residual_does_not_depend_on_where_the_driver_sits(self):
        # prefix sums of x_m (x) dx_m would carry the shift 1e4 into every pair area and cancel it there
        # with a rounding error of 9e-12; taken from x_0, the shift never enters
        assert fixtures.brownian_lift(4096, shift=1e4).chen_residual() <= CHEN_TOL

    def test_chen_residual_property(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 1.0, 33)
        pts = rng.standard_normal((33, 3))
        rp = lift_piecewise_linear(pts, grid)
        assert rp.chen_residual() <= 1e-12


class NonAdditiveAreas(RoughPath):
    """Pair areas off by delta (t_j - t_i)^2 I: not Chen-composed from the step areas."""

    delta = 1e-3

    def area_pairs(self, i, j):
        dt = self.times.take(j) - self.times.take(i)
        return super().area_pairs(i, j) + self.delta * dt[..., None, None] ** 2 * np.eye(self.dim)


class TestResidualsCanFail:
    """Each residual reads the size of a planted defect, not only a small value on a valid path."""

    def test_weak_geometric_residual_reads_a_symmetric_area_defect(self):
        rp = fixtures.smooth_2d_driver(64)
        areas = rp.step_areas.copy()
        areas[10] += 1e-3 * np.eye(2)
        assert rp.weak_geometric_residual() <= 1e-15
        bad = RoughPath(rp.times, rp.values, areas, rp.control)
        assert bad.weak_geometric_residual() == pytest.approx(1e-3, rel=1e-12)

    def test_chen_residual_reads_a_non_additive_area(self):
        # every triple of the 33 nodes is checked: the worst, 2 delta (t_j - t_i)(t_k - t_j), is at (0, 1/2, 1)
        rp = fixtures.smooth_2d_driver(32)
        assert rp.chen_residual() <= 1e-15
        bad = NonAdditiveAreas(rp.times, rp.values, rp.step_areas, rp.control)
        assert bad.chen_residual() == pytest.approx(0.5 * NonAdditiveAreas.delta, rel=1e-12)


class TestCoarsen:
    def test_coarsen_preserves_pair_data(self):
        grid = np.linspace(0.0, np.pi / 2, 33)
        rp = lift_smooth(circle, grid, dpath=dcircle)
        c = coarsen(rp)
        assert np.allclose(left_fold_area(c, 0, 16), left_fold_area(rp, 0, 32), atol=1e-14)
        assert np.allclose(c.values, rp.values[::2])


class TestControl:
    def test_superadditivity_time_scale(self):
        c = Control.time_scale(2.0, 1.0)
        assert check_superadditive(c, np.linspace(0, 1, 20)) <= 0.0

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1.0])
    def test_time_scale_rejects_a_non_finite_or_negative_scale(self, scale):
        with pytest.raises(InvalidGrid):
            Control.time_scale(scale, 1.5)

    def test_table_control_roundtrip(self):
        grid = np.linspace(0.0, 2.0, 21)
        c = Control.from_callable(lambda s, t: np.maximum(t - np.maximum(s, 1.0), 0.0), grid, p=2.0)
        assert c.omega(0.0, 1.0) == 0.0
        assert abs(c.omega(0.0, 1.5) - 0.5) < 1e-12
        c2 = Control.from_json(c.to_json())
        assert np.allclose(c2.table, c.table)

    def test_table_control_rejects_off_grid_times(self):
        grid = np.linspace(0.0, 2.0, 21)
        c = Control.from_callable(lambda s, t: np.maximum(t - np.maximum(s, 1.0), 0.0), grid, p=2.0)
        assert np.array_equal(c.omega(grid[:3], grid[-3:]), c.table[[0, 1, 2], [18, 19, 20]])
        with pytest.raises(OffGrid):
            c.omega(0.0, 1.55)  # between nodes: used to read omega(0, 1.6)
        with pytest.raises(OffGrid):
            c.omega(grid[:3], np.array([1.0, 1.5, 2.5]))  # past the end: used to raise IndexError
        with pytest.raises(OffGrid):
            c.restrict(np.array([0.0, 0.95, 2.0]))
        sub = c.restrict(grid[::4])
        assert np.array_equal(sub.table, c.table[::4, ::4])

    def test_degenerate_control_is_superadditive(self):
        grid = np.linspace(0.0, 2.0, 41)
        c = Control.from_callable(lambda s, t: np.maximum(t - np.maximum(s, 1.0), 0.0), grid, p=2.0)
        assert check_superadditive(c, grid) <= 0.0

    def test_p_range_guard(self):
        with pytest.raises(InvalidGrid):
            Control.time_scale(1.0, 3.5)


def seeded_walk(n, k, seed=5):
    """Grid and points of a seeded k-dimensional random walk with n steps."""
    rng = np.random.default_rng(seed)
    return np.linspace(0.0, 1.0, n + 1), np.cumsum(0.1 * rng.standard_normal((n + 1, k)), axis=0)


@pytest.fixture()
def sweeps(monkeypatch):
    """The pair count of every ``pair_sup`` sweep run after the fixture is set up, in order."""
    probed, original = [], pairs.pair_sup

    def counting(times, delta, fn):
        out = original(times, delta, fn)
        probed.append(out[2])
        return out

    for mod in (pairs, roughpath):  # the calibration sweeps through roughpath's name, the verifiers through pairs'
        monkeypatch.setattr(mod, "pair_sup", counting)
    return probed


def _walk_lift():
    grid, walk = seeded_walk(32, 2)
    return lift_piecewise_linear(walk, grid, p=1.5)


def _associated():
    rp = _walk_lift()  # its own control is not read: the associated path takes only its p
    return associated_roughpath(driver_as_controlled(rp), rp)


BUILDS = {
    "lift_smooth": lambda: lift_smooth(circle, np.linspace(0.0, np.pi / 2, 33), dpath=dcircle),
    "lift_piecewise_linear": _walk_lift,
    "associated_roughpath": _associated,
}


class TestDeferredCalibration:
    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_control_is_calibrated_once_on_its_first_read(self, build, sweeps):
        rp = BUILDS[build]()
        assert sweeps == []  # the build runs no all-pairs sweep
        scale = rp.control.scale
        n = rp.n_steps + 1
        assert sweeps == [n * (n - 1) // 2]
        rp.control.omega(0.0, 1.0)
        rp.control.to_json()
        rp.bound_constant()
        assert len(sweeps) == 2  # bound_constant's own sweep; the scale is not computed again
        assert scale == _calibrate_control(rp.values, rp.times, rp.step_areas, rp.control.p)

    def test_roll_and_group_rde_on_a_fresh_lift_run_no_sweep(self, sweeps):
        grid, walk = seeded_walk(32, 2)
        rp = lift_piecewise_linear(walk, grid)
        o = np.array([0.0, 0.0, 1.0])
        roll(driver_as_controlled(rp), rp, fixtures.SPHERE, o, fixtures.tangent_frame(o))
        rp3 = lift_piecewise_linear(seeded_walk(32, 3)[1], grid)
        group_rde(driver_as_controlled(rp3), rp3, np.eye(3))
        assert sweeps == []

    @pytest.mark.parametrize("build", ["RoughPath", "lift_piecewise_linear"])
    def test_writing_the_callers_arrays_moves_nothing(self, build):
        grid, walk = seeded_walk(16, 2)
        areas = 0.5 * np.einsum("ia,ib->iab", np.diff(walk, axis=0), np.diff(walk, axis=0))
        want_scale = _calibrate_control(walk, grid, areas, 1.0)
        if build == "RoughPath":
            rp = RoughPath(grid, walk, areas, Control.time_scale(lambda: want_scale, 1.0))
        else:
            rp = lift_piecewise_linear(walk, grid)
        i, j = np.triu_indices(grid.size, 1)
        want_areas = RoughPath(grid.copy(), walk.copy(), areas.copy(), Control.time_scale(1.0, 1.0)).area_pairs(i, j)
        walk[5] += 10.0
        areas[3] += 1.0
        grid[-1] = 2.0
        assert not (rp.values.flags.writeable or rp.step_areas.flags.writeable or rp.times.flags.writeable)
        assert np.array_equal(rp.area_pairs(i, j), want_areas)
        assert rp.control.scale == want_scale and rp.times[-1] == 1.0

    def test_a_read_only_view_of_a_writable_array_is_copied(self):
        grid, walk = seeded_walk(8, 2)
        view = np.broadcast_to(walk, walk.shape)  # read-only, but walk writes through it
        rp = RoughPath(grid, view, np.zeros((8, 2, 2)), Control.time_scale(1.0, 1.0))
        walk[3] = 7.0
        assert not np.any(rp.values == 7.0)
        sub = rp.restrict(2, 6)
        assert np.shares_memory(sub.values, rp.values)  # a view of a read-only path is kept as it is

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lift_raises_when_built(self, bad, sweeps):
        grid, walk = seeded_walk(16, 2)
        walk[7, 1] = bad
        with pytest.raises(InvalidGrid, match="finite"):
            lift_piecewise_linear(walk, grid)
        rp = lift_piecewise_linear(seeded_walk(16, 2)[1], grid)
        z = driver_as_controlled(rp)
        z.values[4, 0] = bad
        with pytest.raises(InvalidGrid, match="finite"):
            associated_roughpath(z, rp)
        assert sweeps == []

    def test_json_round_trip_keeps_the_scale(self, sweeps):
        rp = _walk_lift()
        back = RoughPath.from_json(rp.to_json())
        assert len(sweeps) == 1
        assert back.control.scale == rp.control.scale and back.control.to_json() == rp.control.to_json()
        assert len(sweeps) == 1

    def test_a_thunk_is_called_once_and_its_non_finite_scale_rejected(self):
        calls = []
        c = Control.time_scale(lambda: calls.append(1) or 2.5, 1.0)
        assert calls == [] and c.omega(0.0, 2.0) == 5.0 and c.scale == 2.5 and calls == [1]
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(InvalidGrid):
                Control.time_scale(lambda: bad, 1.0).scale
