"""The all-pairs sup kernel: its contract, block-size invariance of every caller, bounded memory."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import crp.controlled as controlled
import crp.fixtures as fx
import crp.mcrp as mcrp
import crp.oneforms as oneforms
import crp.pairs as pairs
import crp.roughpath as roughpath
from crp.cli import main
from crp.errors import DomainError, NearCutLocus
from crp.gauges import connection_gauge, standard_gauge
from crp.manifolds import GAUGE_EDGE, GAUGE_RADIUS_MARGIN, ChartManifold
from crp.pairs import grid_triples, pair_sup, ratio, sampled_triples, triple_defect
from paper_reference import ProductManifold, dyadic_ladder

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
        rep = mcrp.verify_gauge_crp(y, standard_gauge(fx.LINE), delta=m * h)
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
    gauge = connection_gauge(y.manifold)
    return y, gauge, mcrp.domain_feasible_delta(y, gauge)


def _constants(y, form, gauge, delta):
    rp, flat = y.driver, y.as_flat()
    strides = controlled.dyadic_strides(y.times, 4, 8)[0]
    return {
        "calibrate": roughpath._calibrate_control(rp.values, rp.times, rp.step_areas, rp.control.p),
        "bound": rp.bound_constant(),
        "associated": controlled.associated_roughpath(flat, rp).control.scale,
        "flat": controlled._pair_constants(flat.times, flat.values, flat.derivative, rp),
        "flat-half": controlled._pair_constants(flat.times, flat.values, flat.derivative, rp, 0.5),
        "gauge": mcrp._gauge_constants(y, gauge, delta),
        "oneform": form._pair_constants(delta),
        # every dyadic level from one sweep
        "flat-ladder": controlled._pair_constants(flat.times, flat.values, flat.derivative, rp, None, strides),
        "gauge-ladder": mcrp._gauge_constants(y, gauge, delta, strides),
        "oneform-ladder": form._pair_constants(delta, strides),
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

        for mod in (pairs, roughpath):  # the verifiers sweep through pairs.control_sups
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

        assert triple_defect(expr, 0, 1) == 0.0
        assert triple_defect(expr, 1, 1) == 0.0
        assert triple_defect(expr, 7, 4) == 0.0

    def test_additive_expression_has_zero_defect(self):
        x = np.random.default_rng(0).integers(-9, 9, (9, 2)).astype(float)  # exact sums
        assert triple_defect(lambda i, j: x[j] - x[i], 8, 1) == 0.0
        assert triple_defect(lambda i, j: x[j] - x[i], 8, 2) == 0.0

    def test_max_norm_over_consecutive_triples(self):
        # (j - i)^2 per component: 1 + 1 - 4 = -2 on each of the two components
        got = triple_defect(lambda i, j: np.stack([(j - i) ** 2, (j - i) ** 2], axis=-1).astype(float), 5, 1)
        assert got == float(np.hypot(2.0, 2.0))

    def test_a_stride_reads_the_triples_of_every_s_th_node(self):
        calls = []

        def expr(i, j):
            calls.append((i.tolist(), j.tolist()))
            return ((j - i) ** 2 * (1.0 + i))[:, None]

        # 8 steps at stride 2: the coarse grid 0, 2, 4, 6, 8 and its triples from i = 0, 2 and 4,
        # whose defects 4 (1 + i) + 4 (3 + i) - 16 (1 + i) = -8 i peak at the last
        assert triple_defect(expr, 8, 2) == 32.0
        assert calls == [([0, 2, 4], [2, 4, 6]), ([2, 4, 6], [4, 6, 8]), ([0, 2, 4], [4, 6, 8])]


# -- one sweep for every dyadic level ---------------------------------------------------


class TestRowEnds:
    @staticmethod
    def per_row(times, delta):
        """The per-row reference: one search of the rounded gaps t_j - t_i per row."""
        lim = delta + pairs.DELTA_SLACK
        n = times.size
        return np.array([i + 1 + np.searchsorted(times[i + 1 :] - times[i], lim, side="right") for i in range(n)])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_row_search_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(1e-3, 0.3, size=int(rng.integers(2, 200))))
        gaps = times[None, :] - times[:, None]
        exact = rng.choice(gaps[gaps > 0], size=20)  # on a node gap, and just off it
        for delta in [0.0, -1.0, 1e-9, 0.05, 0.5, 1e9, *exact, *(exact - pairs.DELTA_SLACK)]:
            assert np.array_equal(pairs._row_ends(times, delta), self.per_row(times, delta)), delta

    def test_matches_on_uniform_grids_at_multiples_of_the_step(self):
        # t_i + k h rounds on both sides of t_{i+k}: the fix-up of the boundary decides
        for n, T in [(64, 2.0 * np.pi), (100, 1.0), (48, 1.5)]:
            times = np.linspace(0.0, T, n + 1)
            h = times[1] - times[0]
            for k in range(1, n + 1):
                for delta in (k * h, k * h - pairs.DELTA_SLACK, float(times[k] - times[0]) - pairs.DELTA_SLACK):
                    assert np.array_equal(pairs._row_ends(times, delta), self.per_row(times, delta))

    def test_no_delta_keeps_every_column(self):
        assert np.array_equal(pairs._row_ends(np.linspace(0.0, 1.0, 5), None), [5] * 5)


def _ladder_case(name):
    """(path, gauge, delta, one-form) for the sweep-versus-ladder comparison."""
    if name == "nan":  # a corrupt sample on the grids of strides 1, 2 and 4, not 8
        y = fx.sphere_spiral_crp(48)
        gauge = connection_gauge(fx.SPHERE)
        form = oneforms.oneform_from_smooth(lambda m: np.sin(m)[None, :], y, gauge.par)
        y.points[20, 0] = np.nan
        return y, gauge, mcrp.domain_feasible_delta(fx.sphere_spiral_crp(48), gauge), form
    if name == "delta-half":
        y, gauge, _ = _case("sphere-spiral")
        delta = 0.5
    else:
        y, gauge, delta = _case(name)
    form = oneforms.oneform_from_smooth(lambda m: np.sin(y.manifold.flatten(m))[None, :], y, gauge.par)
    return y, gauge, delta, form


LADDER_CASES = ["sphere-spiral", "equator", "so3-curve", "example-6.7", "line-quadratic", "flat3", "nan", "delta-half"]


def _same(a, b):
    np.testing.assert_array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


@pytest.mark.parametrize("name", LADDER_CASES)
def test_one_sweep_equals_the_per_level_ladder(name):
    # the reference sweeps each coarsened grid on its own, as the verifiers did before
    y, gauge, delta, form = _ladder_case(name)
    rp, flat = y.driver, y.as_flat()
    strides, hs = controlled.dyadic_strides(y.times, 4, 8)
    assert len(strides) >= 2 and (name != "example-6.7" or rp.control.kind == "table")

    hs_ref, rows = dyadic_ladder(lambda cur: mcrp._gauge_constants(cur, gauge, delta), (y,), 4, 8)
    got = mcrp._gauge_constants(y, gauge, delta, strides)
    assert hs == hs_ref and got[2:4] == rows[0][2:4]
    _same(got[4], [[r[0] for r in rows], [r[1] for r in rows]])

    for d in (None, delta):
        _, rows = dyadic_ladder(
            lambda z, r: controlled._pair_constants(z.times, z.values, z.derivative, r, d), (flat, rp), 4, 8
        )
        got = controlled._pair_constants(flat.times, flat.values, flat.derivative, rp, d, strides)
        assert got[2:4] == rows[0][2:4]
        _same(got[4], [[r[0] for r in rows], [r[1] for r in rows]])

    _, rows = dyadic_ladder(lambda cur: cur._pair_constants(delta), (form,), 4, 8)
    got = form._pair_constants(delta, strides)
    assert got[2:4] == rows[0][2:4]
    _same(got[4], [[r[0] for r in rows], [r[1] for r in rows]])
    if name == "nan":
        assert np.isnan(got[4][0][:3]).all() and not np.isnan(got[4][0][3])


def _count_pair_sups(monkeypatch):
    calls = []

    def counting(times, delta, fn):
        calls.append(delta)
        return pair_sup(times, delta, fn)

    monkeypatch.setattr(pairs, "pair_sup", counting)
    return calls


def test_each_verifier_sweeps_the_pairs_once(monkeypatch):
    y = fx.sphere_spiral_crp(64)
    gauge = connection_gauge(fx.SPHERE)
    form = oneforms.oneform_from_smooth(lambda m: np.sin(m)[None, :], y, gauge.par)
    calls = _count_pair_sups(monkeypatch)
    for verify in (
        lambda: controlled.verify_crp(y.as_flat(), y.driver),
        lambda: controlled.verify_crp(y.as_flat(), y.driver, delta=0.5),
        lambda: mcrp.verify_gauge_crp(y, gauge),
        lambda: mcrp.verify_chart_crp(y, fx.SPHERE.chart_at(y.points[0])),
        lambda: form.verify(),
    ):
        calls.clear()
        assert len(verify()["levels"]["h"]) == 4
        assert len(calls) == 1


class TestNoPairProbed:
    """A sup over no pair certifies nothing: the verifiers raise instead of passing."""

    def test_gauge_verifier(self):
        y = fx.sphere_spiral_crp(32)
        with pytest.raises(DomainError, match="delta = 1e-06"):
            mcrp.verify_gauge_crp(y, connection_gauge(fx.SPHERE), delta=1e-6)

    def test_flat_verifier(self):
        y = fx.sphere_spiral_crp(32)
        with pytest.raises(DomainError, match="smallest step is 0.19635"):
            controlled.verify_crp(y.as_flat(), y.driver, delta=1e-6)

    def test_oneform_verifier(self):
        y = fx.sphere_spiral_crp(32)
        form = oneforms.oneform_from_smooth(lambda m: np.sin(m)[None, :], y, connection_gauge(fx.SPHERE).par)
        with pytest.raises(DomainError):
            form.verify(delta=1e-6)

    def test_domain_feasible_delta_on_a_two_step_great_circle(self):
        # adjacent samples are antipodal: no delta keeps a pair inside the gauge ball
        with pytest.raises(DomainError, match="adjacent samples"):
            mcrp.domain_feasible_delta(fx.equator_crp(2), connection_gauge(fx.SPHERE))

    def test_cli_verify_exits_one(self, tmp_path):
        res = CliRunner().invoke(main, ["verify", "--delta", "1e-6", "--out", str(tmp_path)])
        assert res.exit_code == 1 and "no grid pair" in res.output


@pytest.mark.parametrize("delta", [np.nan, np.inf])
class TestNonFiniteDelta:
    """A NaN probe horizon compared False everywhere and so kept every pair: each verifier raises instead."""

    def test_gauge_verifier(self, delta):
        with pytest.raises(DomainError, match="not finite"):
            mcrp.verify_gauge_crp(fx.sphere_spiral_crp(16), connection_gauge(fx.SPHERE), delta=delta)

    def test_flat_verifier(self, delta):
        y = fx.sphere_spiral_crp(16)
        with pytest.raises(DomainError, match="not finite"):
            controlled.verify_crp(y.as_flat(), y.driver, delta=delta)

    def test_oneform_verifier(self, delta):
        y = fx.sphere_spiral_crp(16)
        form = oneforms.oneform_from_smooth(lambda m: np.sin(m)[None, :], y, connection_gauge(fx.SPHERE).par)
        with pytest.raises(DomainError, match="not finite"):
            form.verify(delta=delta)


def _feasible_reference(y, gauge):
    """The gap-by-gap walk: stop at the first gap with a pair outside the gauge ball."""
    n, best = y.times.size, 0.0
    for gap in range(1, n):
        i = np.arange(0, n - gap)
        d = y.manifold.distance(y.points[i], y.points[i + gap])
        if float(np.max(d)) >= gauge.manifold.gauge_radius - GAUGE_EDGE:
            break
        best = float(np.max(y.times[i + gap] - y.times[i]))
    return best


@pytest.mark.parametrize("budget", [1, 200, 1000, pairs.BLOCK_PAIRS])  # 1, 3, 15 and 63 gaps a block at n = 64
@pytest.mark.parametrize(
    "maker,n", [(fx.equator_crp, 64), (fx.latitude_crp, 48), (fx.so3_curve_crp, 32), (fx.polar_cap_crp, 40)]
)
def test_domain_feasible_delta_walks_blocks_of_gaps(maker, n, budget, monkeypatch):
    y = maker(n)
    gauge = connection_gauge(y.manifold)
    want = _feasible_reference(y, gauge)
    monkeypatch.setattr(pairs, "BLOCK_PAIRS", budget)
    assert mcrp.domain_feasible_delta(y, gauge) == want


def test_the_default_delta_never_probes_a_pair_the_logarithm_rejects():
    # 32 equal steps along the equator: gap 16 lies 5e-7 short of the gauge radius, inside the
    # logarithm's edge GAUGE_EDGE, so the default delta must stop at gap 15
    n = 32
    th = (np.pi - GAUGE_RADIUS_MARGIN - 5e-7) / 16 * np.arange(n + 1)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros(n + 1)], axis=1)
    y = mcrp.crp_from_projection(fx.SPHERE, roughpath.lift_piecewise_linear(pts, np.linspace(0.0, 1.0, n + 1)))
    gauge = connection_gauge(fx.SPHERE)
    rep = mcrp.verify_gauge_crp(y, gauge)
    assert rep["delta"] == mcrp.domain_feasible_delta(y, gauge) == pytest.approx(15 / 32, rel=1e-12)
    assert rep["pass"]
    assert fx.SPHERE.past_gauge_ball(fx.SPHERE.distance(pts[0], pts[16]))
    with pytest.raises(NearCutLocus):
        fx.SPHERE.log(pts[0], pts[16])


def _turning_product_path():
    """Sphere x line, the sphere factor turning 0.8 per step over 8 steps, the line factor still."""
    prod = ProductManifold(fx.SPHERE, ChartManifold(1, radius=1.0))
    n = 8
    times = np.linspace(0.0, 1.0, n + 1)
    th = 0.8 * np.arange(n + 1)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros(n + 1), np.zeros(n + 1)], axis=1)
    return mcrp.ManifoldControlledPath(prod, times, pts, np.zeros((n + 1, 4, 1)), roughpath.time_lift(times))


def test_domain_feasible_delta_ignores_a_raise_past_the_first_gap_outside():
    # gap 3 (2.4) is the first one past the product's gauge radius 1.9; at gap 4 (3.2) the sphere
    # factor's log would raise at its cut locus, while the closed-form distance reads on
    y = _turning_product_path()
    prod, times, pts = y.manifold, y.times, y.points
    gauge = connection_gauge(prod)
    assert prod.distance(pts[:1], pts[4:5])[0] >= prod.gauge_radius
    want = _feasible_reference(y, gauge)
    assert want == float(np.max(times[2:] - times[:-2]))
    assert mcrp.domain_feasible_delta(y, gauge) == want


def test_product_gauge_verifier_names_the_first_pair_outside_the_domain():
    # the sphere factor's cut locus is past the product's gauge ball: the domain check raises first
    y = _turning_product_path()
    with pytest.raises(DomainError, match=r"pair \(t_0, t_3\) = \(0, 0.375\) outside the gauge domain"):
        mcrp.verify_gauge_crp(y, connection_gauge(y.manifold), delta=1.0)
