from __future__ import annotations

import numpy as np
import pytest

from crp import Control, ControlledPath, GridMismatch, RoughPath, verify_crp
from crp.controlled import associated_roughpath, driver_as_controlled
from crp.roughpath import lift_smooth, time_lift


def smooth_driver(n=64, T=1.0):
    grid = np.linspace(0.0, T, n + 1)
    return lift_smooth(
        lambda t: np.array([np.sin(t), np.cos(2.0 * t) / 2.0]),
        grid,
        dpath=lambda t: np.array([np.cos(t), -np.sin(2.0 * t)]),
    )


def test_driver_controls_itself():
    rp = smooth_driver()
    rep = verify_crp(driver_as_controlled(rp), rp)
    assert rep["pass"]
    assert np.isfinite(rep["C_remainder"])


def test_nan_value_fails_flat_verifier():
    rp = smooth_driver(32)
    y = driver_as_controlled(rp)
    y.values[5, 0] = np.nan
    rep = verify_crp(y, rp)
    assert not rep["pass"] and np.isnan(rep["C_remainder"]) and rep["worst_pair"] == (0, 5)

def test_constant_path_zero_constants():
    rp = smooth_driver(32)
    n = rp.times.size
    y = ControlledPath(rp.times, np.ones((n, 3)), np.zeros((n, 3, 2)))
    rep = verify_crp(y, rp)
    assert rep["C_remainder"] == 0.0 and rep["C_derivative"] == 0.0
    assert rep["pass"]


def test_grid_mismatch_rejected():
    rp = smooth_driver(32)
    other = time_lift(np.linspace(0, 1, 17))
    with pytest.raises(GridMismatch):
        verify_crp(driver_as_controlled(other), rp)


def example_67_fixture(eps=0.01, p=2.0):
    """Closed-form degenerate-control path on [0, 2]."""
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
    y = ControlledPath(grid, x[:, None].copy(), ydag[:, None, None])
    return y, rp


def test_example_67_flat_remainder_constant_diverges():
    y, rp = example_67_fixture()
    rep = verify_crp(y, rp)
    # max ratio is at the pair (0, 1+eps): eps^{-1/p} = 10 for eps=0.01, p=2
    assert abs(rep["C_remainder"] - 10.0) < 1e-9
    assert rep["slope_remainder"] < -0.25
    assert not rep["pass_remainder"]


def test_example_67_delta_restricted_constant_vanishes():
    y, rp = example_67_fixture()
    rep = verify_crp(y, rp, delta=0.5)
    assert rep["C_remainder"] == 0.0
    assert rep["pass_remainder"]


def test_associated_roughpath_satisfies_chen_and_geometry():
    rp = smooth_driver(64)
    z = driver_as_controlled(rp)
    zrp = associated_roughpath(z, rp)
    assert zrp.chen_residual() <= 1e-12
    assert np.allclose(zrp.step_areas, rp.step_areas, atol=1e-14)


def test_verify_reports_delta_diagnostics():
    rp = smooth_driver(64)
    rep = verify_crp(driver_as_controlled(rp), rp)
    assert rep["largest_stable_delta"] is not None
    assert rep["largest_stable_delta"] >= 0.25
