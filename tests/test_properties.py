"""Property tests for the algebraic invariants of the flat layer."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crp.controls import Control
from crp.roughpath import lift_piecewise_linear, pure_area_driver
from paper_reference import check_superadditive, left_fold_area


@st.composite
def pw_linear_paths(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=3))
    vals = draw(
        st.lists(
            st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=dim, max_size=dim),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(vals, dtype=float)


@given(pw_linear_paths())
@settings(max_examples=40, deadline=None)
def test_chen_associativity_holds_for_any_partition(points):
    n = points.shape[0]
    grid = np.linspace(0.0, 1.0, n)
    rp = lift_piecewise_linear(points, grid)
    for i in range(0, n - 2, 2):
        j = i + 1
        k = n - 1
        lhs = left_fold_area(rp, i, k)
        rhs = left_fold_area(rp, i, j) + left_fold_area(rp, j, k)
        rhs += np.outer(rp.values[j] - rp.values[i], rp.values[k] - rp.values[j])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


@given(pw_linear_paths())
@settings(max_examples=40, deadline=None)
def test_weak_geometric_symmetry_exact_for_segments(points):
    n = points.shape[0]
    rp = lift_piecewise_linear(points, np.linspace(0.0, 1.0, n))
    assert rp.weak_geometric_residual() == 0.0


@given(st.floats(0.1, 5.0), st.floats(1.0, 2.9))
@settings(max_examples=30, deadline=None)
def test_time_scale_controls_superadditive(scale, p):
    c = Control.time_scale(scale, p)
    assert check_superadditive(c, np.linspace(0.0, 1.0, 24)) <= 0.0


@given(st.floats(-3.0, 3.0), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_pure_area_scaling_linear_in_rate(a, splits):
    n = 2**splits
    rp = pure_area_driver(a, np.linspace(0.0, 1.0, n + 1))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for i, j in [(0, n), (0, n // 2), (n // 4, n), (1, n - 1), (n // 2, n // 2 + 1)]:
        expected = a * (rp.times[j] - rp.times[i]) * rot
        assert np.allclose(left_fold_area(rp, i, j), expected, atol=1e-14)
