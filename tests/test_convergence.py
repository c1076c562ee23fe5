from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import linregress

from crp import ConfigError, DomainError, InsufficientLevels, ShapeError
from crp.convergence import SLOPE_TOL, ConvergenceReport, dyadic_levels, estimate_order, refinement_study
from crp.fixtures import run_study


def test_exact_power_law_recovered():
    hs = np.array([2.0**-j for j in range(3, 9)])
    errs = 3.7 * hs**2
    slope, const, exact = estimate_order(errs, hs)
    assert not exact
    assert abs(slope - 2.0) < 1e-9
    assert abs(const - 3.7) < 1e-6


def test_cubic_with_floor_keeps_slope():
    hs = np.array([2.0**-j for j in range(4, 8)])
    errs = 1.0 * hs**3 + 1e-15
    slope, _, _ = estimate_order(errs, hs)
    assert slope >= 2.9


def test_all_zero_errors_flagged_exact():
    hs = [0.1, 0.05, 0.025, 0.0125]
    slope, const, exact = estimate_order([0.0] * 4, hs)
    assert exact
    assert slope == float("inf")
    assert const == 0.0


def test_insufficient_levels_raises():
    with pytest.raises(InsufficientLevels):
        estimate_order([1.0, 0.5, 0.25], [0.1, 0.05, 0.025])


def test_coarsest_discarded_with_five_levels():
    hs = np.array([0.32, 0.16, 0.08, 0.04, 0.02])
    errs = 2.0 * hs**2
    errs[0] *= 50.0  # corrupt the coarsest level only
    slope, _, _ = estimate_order(errs, hs)
    assert abs(slope - 2.0) < 1e-9


def linregress_order(errors, hs, discard_coarsest=True):
    """The order fit as ``scipy.stats.linregress`` gives it: the reference ``estimate_order`` matches."""
    hs = np.asarray(hs, dtype=float)
    order = np.argsort(hs)
    hs, clipped = hs[order], np.maximum(np.asarray(errors, dtype=float), 1e-16)[order]
    if discard_coarsest and hs.size >= 5:
        hs, clipped = hs[:-1], clipped[:-1]
    fit = linregress(np.log(hs), np.log(clipped))
    return float(fit.slope), float(np.exp(fit.intercept))


@pytest.mark.parametrize("discard_coarsest", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_fit_matches_linregress_bit_for_bit(seed, discard_coarsest):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    hs = 2.0 ** -np.arange(2, 2 + n) * rng.uniform(0.5, 2.0)
    errors = rng.uniform(0.1, 10.0) * hs ** rng.uniform(0.5, 3.5) * np.exp(rng.normal(0.0, 0.3, n))
    if seed % 2:
        perm = rng.permutation(n)  # unsorted levels
        hs, errors = hs[perm], errors[perm]
    if seed % 3 == 0:
        errors[rng.integers(n)] = 0.0  # a clipped exact level
    slope, const, exact = estimate_order(errors, hs, discard_coarsest=discard_coarsest)
    assert not exact
    assert (slope, const) == linregress_order(errors, hs, discard_coarsest)


@pytest.mark.parametrize(
    "errors, hs",
    [
        ([1.0, -0.5, 0.25, 0.125], [0.4, 0.2, 0.1, 0.05]),
        ([1.0, np.nan, 0.25, 0.125], [0.4, 0.2, 0.1, 0.05]),
        ([1.0, np.inf, 0.25, 0.125], [0.4, 0.2, 0.1, 0.05]),
        ([1.0, 0.5, 0.25, 0.125], [0.4, 0.0, 0.1, 0.05]),
        ([1.0, 0.5, 0.25, 0.125], [0.4, -0.2, 0.1, 0.05]),
        ([1.0, 0.5, 0.25, 0.125], [0.4, np.nan, 0.1, 0.05]),
        ([1.0, 0.5, 0.25, 0.125], [np.inf, 0.2, 0.1, 0.05]),
    ],
)
def test_bad_errors_or_mesh_sizes_raise_domain_error(errors, hs):
    with pytest.raises(DomainError):
        estimate_order(errors, hs)


@pytest.mark.parametrize(
    "hs, discard_coarsest",
    [([0.1] * 4, False), ([0.1] * 4, True), ([0.1, 0.1, 0.1, 0.1, 0.2], True)],
)
def test_fewer_than_two_distinct_mesh_sizes_raise_insufficient_levels(hs, discard_coarsest):
    errors = np.linspace(1.0, 2.0, len(hs))
    with pytest.raises(InsufficientLevels, match="distinct"):
        estimate_order(errors, hs, discard_coarsest=discard_coarsest)


def test_errors_and_mesh_sizes_of_other_lengths_raise_shape_error():
    with pytest.raises(ShapeError):
        estimate_order([1.0, 0.5, 0.25, 0.125], [0.4, 0.2, 0.1])


def test_convergence_report_roundtrip_and_csv():
    rep = ConvergenceReport.from_levels(
        "probe", [64, 128, 256, 512], [1 / 64, 1 / 128, 1 / 256, 1 / 512], [1e-2, 2.6e-3, 6.4e-4, 1.6e-4], 2.0
    )
    assert rep.passed
    doc = rep.to_json()
    assert doc["pass"] and doc["slope"] >= 1.75
    rows = rep.csv_rows()
    assert len(rows) == 4 and rows[0][0] == "0"
    # partial slopes column populated from the second level on
    assert rows[1][4] != ""


def test_errors_at_the_noise_floor_are_exact_at_any_slope():
    # an error family that grows under refinement, but only in rounding: exact, slope inf, a pass
    ns, errors = [64, 128, 256, 512], [1e-15, 2e-15, 4e-15, 1e-12]
    rep = ConvergenceReport.from_levels("probe", ns, [1.0 / n for n in ns], errors, 2.0)
    assert rep.exact and rep.passed and rep.slope == float("inf") and rep.constant == 0.0
    # the same family above a lower floor is fitted, and its negative slope fails
    rep = ConvergenceReport.from_levels("probe", ns, [1.0 / n for n in ns], errors, 2.0, noise_floor=1e-13)
    assert not rep.exact and not rep.passed and rep.slope < 0


def test_order_verdict_passes_at_the_nominal_order_less_the_tolerance():
    hs = np.array([1 / 64, 1 / 128, 1 / 256, 1 / 512])
    for slope, passed in ((2.0 - SLOPE_TOL + 0.01, True), (2.0 - SLOPE_TOL - 0.01, False)):
        rep = ConvergenceReport.from_levels("probe", [64, 128, 256, 512], hs, 3.0 * hs**slope, 2.0)
        assert rep.passed is passed and abs(rep.slope - slope) < 1e-12


def test_refinement_study_measures_each_grid_size_in_order():
    seen = []

    def measure(n):
        seen.append(n)
        return 5.0 / n**2, 1.0 / n

    rep = refinement_study("probe", measure, [512, 256, 128, 64], 2.0)
    assert seen == [512, 256, 128, 64] and rep.ns == seen and rep.hs == [1.0 / n for n in seen]
    assert rep.errors == [5.0 / n**2 for n in seen] and rep.passed and abs(rep.slope - 2.0) < 1e-12
    assert set(rep.to_json()) == {"name", "levels", "slope", "constant", "exact", "target", "pass"}


def test_named_studies_run_on_dyadic_levels_down_to_64():
    rep = run_study("pure-area-commutator", levels=4)
    assert rep.name == "pure-area-commutator" and rep.ns == [512, 256, 128, 64] and rep.target == 1.0
    assert rep.passed and rep.slope >= 1.0 - SLOPE_TOL
    with pytest.raises(ConfigError):
        run_study("nope")


def test_dyadic_levels():
    assert dyadic_levels(1024, 4) == [1024, 512, 256, 128]
    with pytest.raises(InsufficientLevels):
        dyadic_levels(16, 4)
