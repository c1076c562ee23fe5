"""The all-pairs sup kernel: its contract, block-size invariance of every caller, bounded memory."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import crp.controlled as controlled
import crp.fixtures as fx
import crp.mcrp as mcrp
import crp.oneforms as oneforms
import crp.pairs as pairs
import crp.roughpath as roughpath
from crp.gauges import connection_gauge, standard_gauge
from crp.pairs import grid_triples, pair_sup, ratio, sampled_triples, triple_defect

BUDGETS = {"one-row": 1, "seven-pairs": 7, "default": pairs.BLOCK_PAIRS, "unbounded": 2**62}


def brute_force(times, delta, vals):
    """Reference sup / first worst pair / count over every kept pair, row-major."""
    n = times.size
    keep = np.triu(np.ones((n, n), dtype=bool), 1)
    if delta is not None:
        keep &= times[None, :] - times[:, None] <= delta + pairs.DELTA_SLACK
    masked = np.where(keep, vals, -1.0)
    return max(float(masked.max()), 0.0), divmod(int(np.argmax(masked)), n), int(keep.sum())


class TestKernel:
    @pytest.mark.parametrize("budget", [1, 7, 1000])
    def test_matches_brute_force_with_ties(self, budget, monkeypatch):
        monkeypatch.setattr(pairs, "BLOCK_PAIRS", budget)
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.uniform(0.01, 0.2, size=40))
        vals = np.round(4.0 * rng.uniform(size=(40, 40))) / 4.0  # many ties: first pair must win
        # deltas landing exactly on a pair's gap put that pair on the boundary
        gaps = [float(times[j] - times[i]) - pairs.DELTA_SLACK for i in (0, 3) for j in range(i + 1, 40)]
        for delta in [None, 0.5, 1e-3, *gaps]:
            sups, worst, probed = pair_sup(times, delta, lambda i, j: (vals[i, j], 2.0 * vals[i, j]))
            best, ref_worst, ref_probed = brute_force(times, delta, vals)
            assert (sups[0], sups[1], worst, probed) == (best, 2.0 * best, ref_worst, ref_probed)

    def test_all_zero_reports_first_pair(self):
        times = np.linspace(0.0, 1.0, 9)
        sups, worst, probed = pair_sup(times, None, lambda i, j: (np.zeros(i.size),))
        assert (sups[0], worst, probed) == (0.0, (0, 1), 36)

    @pytest.mark.parametrize("budget", [1, 7, 1000])
    def test_nan_residual_propagates(self, budget, monkeypatch):
        monkeypatch.setattr(pairs, "BLOCK_PAIRS", budget)
        times = np.linspace(0.0, 1.0, 30)
        vals = np.random.default_rng(2).uniform(size=(30, 30))
        vals[3, 9] = vals[7, 8] = vals[20, 25] = np.nan
        sups, worst, _ = pair_sup(times, None, lambda i, j: (vals[i, j], np.abs(vals[j, i])))
        assert np.isnan(sups[0]) and worst == (3, 9)
        assert np.isfinite(sups[1])
        sups, _, _ = pair_sup(times, None, lambda i, j: (vals[j, i], vals[i, j]))
        assert np.isfinite(sups[0]) and np.isnan(sups[1])

    def test_no_pair_probed(self):
        calls = []
        sups, worst, probed = pair_sup(np.linspace(0.0, 1.0, 9), 0.01, lambda i, j: calls.append(i))
        assert (sups[0], sups[1], worst, probed, calls) == (0.0, 0.0, (0, 0), 0, [])

    def test_ratio_zero_over_zero_rule(self):
        num = np.array([0.0, pairs.ZERO_NUM_TOL, 1.0, 2.0])
        om = np.array([0.0, 0.0, 0.0, 4.0])
        assert np.array_equal(ratio(num, om), [0.0, 0.0, np.inf, 0.5])

    def test_ratio_of_a_nan_control_is_nan(self):
        assert np.all(np.isnan(ratio(np.array([1.0, 1e-14]), np.array([np.nan, np.nan]))))
        got = ratio(np.array([1.0, 1.0, 0.0]), np.array([np.nan, 2.0, 0.0]))
        assert np.isnan(got[0]) and np.array_equal(got[1:], [0.5, 0.0])

    @pytest.mark.parametrize("n", [0, 2, 3, 7])
    def test_grid_triples_lexicographic(self, n):
        ref = [(a, b, c) for a in range(n - 2) for b in range(a + 1, n - 1) for c in range(b + 1, n)]
        assert [tuple(t) for t in grid_triples(n).T] == ref

    def test_sampled_triples_are_all_triples_when_few(self):
        assert np.array_equal(np.stack(sampled_triples(7, 35)), grid_triples(7))

    def test_sampled_triples_are_seeded_ordered_draws(self):
        got = sampled_triples(50, 1000)
        i, j, k = got
        assert i.size == 1000 and np.all((0 <= i) & (i < j) & (j < k) & (k < 50))
        assert np.array_equal(np.stack(got), np.stack(sampled_triples(50, 1000, np.random.default_rng(0))))

    @pytest.mark.parametrize("n,m", [(64, 1), (64, 3), (64, 7), (64, 64), (100, 13)])
    def test_pairs_probed_closed_form(self, n, m):
        y = fx.line_quadratic_crp(n)
        h = float(y.times[1] - y.times[0])
        rep = mcrp.verify_gauge_crp(y, standard_gauge(fx.LINE), delta=m * h, levels=1)
        assert rep["pairs_probed"] == sum(min(m, n - i) for i in range(n))


# -- the six callers -------------------------------------------------------------------


def _case(name):
    if name == "example-6.7":
        y = fx.example_67_crp(eps=0.04)
        return y, standard_gauge(fx.LINE), 0.5
    y = {
        "sphere-spiral": lambda: fx.sphere_spiral_crp(48),
        "equator": lambda: fx.equator_crp(48),
        "so3-curve": lambda: fx.so3_curve_crp(24),
        "line-quadratic": lambda: fx.line_quadratic_crp(48),
        "flat3": lambda: fx.flat3_crp(48),
    }[name]()
    return y, connection_gauge(y.manifold), mcrp.default_probe_delta(y)


def _constants(y, form, gauge, delta):
    rp, flat = y.driver, y.as_flat()
    p = rp.control.p
    return {
        "calibrate": roughpath._calibrate_control(rp.values, rp.times, rp.step_areas, p),
        "bound": rp.bound_constant(),
        "associated": controlled.associated_roughpath(flat, rp).control.scale,
        "flat": controlled._pair_constants(flat.times, flat.values, flat.derivative, rp, p),
        "flat-half": controlled._pair_constants(flat.times, flat.values, flat.derivative, rp, p, 0.5),
        "gauge": mcrp._gauge_constants(y, gauge, delta, p),
        "oneform": form._pair_constants(delta, p),
    }


@pytest.mark.parametrize("name", ["sphere-spiral", "equator", "so3-curve", "example-6.7", "line-quadratic", "flat3"])
def test_callers_bit_identical_across_block_budgets(name, monkeypatch):
    y, gauge, delta = _case(name)
    form = oneforms.oneform_from_smooth(lambda m: np.sin(y.manifold.flatten(m))[None, :], y, gauge.par)
    results = {}
    for label, budget in BUDGETS.items():
        monkeypatch.setattr(pairs, "BLOCK_PAIRS", budget)
        probed = []

        def counting(times, delta, fn):
            out = pair_sup(times, delta, fn)
            probed.append(out[2])
            return out

        for mod in (roughpath, controlled, mcrp, oneforms):
            monkeypatch.setattr(mod, "pair_sup", counting)
        results[label] = (_constants(y, form, gauge, delta), probed)
    assert all(res == results["default"] for res in results.values())
    assert results["default"][0]["gauge"][3] > 0


def test_gauge_verifier_memory_flat_in_n():
    peaks = []
    for n in (256, 1024):
        y = fx.sphere_spiral_crp(n)
        gauge = connection_gauge(fx.SPHERE)
        tracemalloc.start()
        try:
            mcrp.verify_gauge_crp(y, gauge)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


class TestTripleDefect:
    def test_no_triple_gives_zero_without_evaluating(self):
        def expr(i, j):
            raise AssertionError("evaluated")

        assert triple_defect(expr, 0) == 0.0
        assert triple_defect(expr, 1) == 0.0

    def test_additive_expression_has_zero_defect(self):
        x = np.random.default_rng(0).integers(-9, 9, (9, 2)).astype(float)  # exact sums
        assert triple_defect(lambda i, j: x[j] - x[i], 8) == 0.0

    def test_max_norm_over_consecutive_triples(self):
        # (j - i)^2 per component: 1 + 1 - 4 = -2 on each of the two components
        got = triple_defect(lambda i, j: np.stack([(j - i) ** 2, (j - i) ** 2], axis=-1).astype(float), 5)
        assert got == float(np.hypot(2.0, 2.0))
