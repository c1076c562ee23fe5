from __future__ import annotations

import numpy as np
import pytest

from crp import ControlledPath, ShapeError
from crp.controlled import driver_as_controlled
from crp.convergence import ConvergenceReport, dyadic_levels
from crp.roughpath import lift_smooth, pure_area_driver, time_lift
from crp.sewing import defect_by_level, rough_integrate
from paper_reference import coarsen


def test_identity_integrand_recovers_increment():
    grid = np.linspace(0.0, 1.0, 65)
    rp = lift_smooth(
        lambda t: np.array([np.sin(t), t**2 / 2.0]),
        grid,
        dpath=lambda t: np.array([np.cos(t), t]),
    )
    n = grid.size
    alpha = ControlledPath(grid, np.broadcast_to(np.eye(2), (n, 2, 2)).copy(), np.zeros((n, 2, 2, 2)))
    z = rough_integrate(alpha, driver_as_controlled(rp), rp)
    assert np.allclose(z.values[-1], rp.values[-1] - rp.values[0], atol=1e-12)


def test_time_integral_exact():
    # integral of t dt over [0, 1] via the compensated sum telescopes to 1/2
    n = 256
    rp = time_lift(np.linspace(0.0, 1.0, n + 1))
    x = driver_as_controlled(rp)
    alpha = ControlledPath(rp.times, rp.values[:, :, None].copy(), np.ones((n + 1, 1, 1, 1)))
    z = rough_integrate(alpha, x, rp)
    assert abs(z.values[-1, 0] - 0.5) < 1e-10


def test_pure_area_constant_integrand_vanishes():
    rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, 17))
    x = driver_as_controlled(rp)
    n = rp.times.size
    amat = np.broadcast_to(np.array([[1.0, 2.0], [3.0, 4.0]]), (n, 2, 2)).copy()
    alpha = ControlledPath(rp.times, amat, np.zeros((n, 2, 2, 2)))
    z = rough_integrate(alpha, x, rp)
    assert np.max(np.abs(z.values)) == 0.0


def test_derivative_process_is_composition():
    grid = np.linspace(0.0, 1.0, 17)
    rp = lift_smooth(lambda t: np.array([t, np.sin(t)]), grid, dpath=lambda t: np.array([1.0, np.cos(t)]))
    y = driver_as_controlled(rp)
    n = grid.size
    rng = np.random.default_rng(0)
    av = rng.standard_normal((n, 3, 2))
    alpha = ControlledPath(grid, av, np.zeros((n, 3, 2, 2)))
    z = rough_integrate(alpha, y, rp)
    assert np.allclose(z.derivative, np.einsum("imn,ina->ima", av, y.derivative))


def test_shape_guard():
    grid = np.linspace(0.0, 1.0, 5)
    rp = time_lift(grid)
    bad = ControlledPath(grid, np.zeros((5, 3)), np.zeros((5, 3, 1)))
    with pytest.raises(ShapeError):
        rough_integrate(bad, driver_as_controlled(rp), rp)


def smooth_fixture(n):
    grid = np.linspace(0.0, 1.0, n + 1)
    rp = lift_smooth(
        lambda t: np.array([np.sin(t), np.cos(2.0 * t) / 2.0]),
        grid,
        dpath=lambda t: np.array([np.cos(t), -np.sin(2.0 * t)]),
    )
    x = driver_as_controlled(rp)
    # integrand alpha = smooth matrix function of x, a genuine controlled path
    n1 = grid.size
    av = np.empty((n1, 2, 2))
    ad = np.empty((n1, 2, 2, 2))
    for i in range(n1):
        a, b = rp.values[i]
        av[i] = np.array([[np.cos(a), b], [a * b, np.sin(b)]])
        grad_a = np.array([[-np.sin(a), 0.0], [b, 0.0]])
        grad_b = np.array([[0.0, 1.0], [a, np.cos(b)]])
        ad[i] = np.einsum("mn,k->mnk", grad_a, np.eye(2)[0]) + np.einsum("mn,k->mnk", grad_b, np.eye(2)[1])
    return ControlledPath(grid, av, ad), x, rp


def test_local_defect_slope_smooth_driver():
    alpha, x, rp = smooth_fixture(256)
    levels = defect_by_level(alpha, x, rp, levels=5)
    hs, errs = zip(*levels)
    rep = ConvergenceReport.from_levels("local-defect", dyadic_levels(256, 5), hs, errs, 3.0)  # p = 1
    assert not rep.exact and rep.passed


def test_local_defect_slope_pure_area():
    n = 256
    rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, n + 1))
    from crp.flatrde import DrivingField, rde_solve_flat

    mats = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    sol = rde_solve_flat(DrivingField(matrices=mats), rp, np.array([1.0, 1.0]))
    # integrand: the solution itself read as a matrix-valued path
    n1 = rp.times.size
    av = np.empty((n1, 2, 2))
    ad = np.empty((n1, 2, 2, 2))
    for i in range(n1):
        av[i] = np.diag(sol.values[i])
        ad[i, 0, 0] = sol.derivative[i, 0]
        ad[i, 1, 1] = sol.derivative[i, 1]
        ad[i, 0, 1] = 0.0
        ad[i, 1, 0] = 0.0
    alpha = ControlledPath(rp.times, av, ad)
    levels = defect_by_level(alpha, sol, rp, levels=5)
    hs, errs = zip(*levels)
    rep = ConvergenceReport.from_levels("local-defect", dyadic_levels(n, 5), hs, errs, 1.5)  # p = 2
    assert not rep.exact and rep.passed


def test_two_partition_consistency_slope():
    # integrals on dyadic coarsenings converge to the finest at order 3/p - 1
    alpha, x, rp = smooth_fixture(512)
    finest = rough_integrate(alpha, x, rp)
    errs, hs = [], []
    a, y, r = alpha, x, rp
    for lev in range(4):
        a, y, r = coarsen(a), coarsen(y), coarsen(r)
        z = rough_integrate(a, y, r)
        errs.append(float(np.max(np.abs(z.values[-1] - finest.values[-1]))))
        hs.append(float(np.max(np.diff(r.times))))
    assert ConvergenceReport.from_levels("two-partition", dyadic_levels(256, 4), hs, errs, 2.0).passed


def test_integrate_against_driver_matches_theorem_form():
    # alpha = [0, x^1] with alpha' = d/dx^1 integrates against the driver, by Chen, to exactly
    # x^1_0 (x^2_T - x^2_0) + X^12_{0,T}, the area by the left fold of the step areas
    _, x, rp = smooth_fixture(64)
    n1 = rp.times.size
    av = np.zeros((n1, 1, 2))
    av[:, 0, 1] = rp.values[:, 0]
    ad = np.zeros((n1, 1, 2, 2))
    ad[:, 0, 1, 0] = 1.0
    z = rough_integrate(ControlledPath(rp.times, av, ad), x, rp)
    want = rp.values[0, 0] * (rp.values[-1, 1] - rp.values[0, 1]) + rp.area(0, n1 - 1)[0, 1]
    assert abs(z.values[-1, 0] - want) <= 1e-12
