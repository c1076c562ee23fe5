"""Manifold-valued controlled rough paths: constructors and verifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pairs
from .controlled import ControlledPath, check_probed, check_same_grid, dyadic_strides, stability_verdict, verify_crp
from .errors import ChartExit, DomainError, InvalidGrid, NotOnManifold, ShapeError
from .gauges import Gauge
from .manifolds import Chart, Manifold
from .pairs import by_grid, on_grids, pair_sup, ratio
from .roughpath import RoughPath

BASEPOINT_TOL = 1e-10


@dataclass
class ManifoldControlledPath:
    """Samples (y, y') with y on the manifold and y'_i : W -> T_{y_i}M.

    ``points`` has shape (N+1, *point_shape); ``derivative`` maps driver
    coordinates into flattened ambient tangents, shape (N+1, D, k).
    """

    manifold: Manifold
    times: np.ndarray
    points: np.ndarray
    derivative: np.ndarray
    driver: RoughPath

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.derivative = np.asarray(self.derivative, dtype=float)
        n = self.times.size
        if self.points.shape[0] != n or self.derivative.shape[0] != n:
            raise InvalidGrid("points/derivative do not match the grid")
        if self.points.shape[1:] != self.manifold.point_shape:
            raise ShapeError("points have the wrong shape for this manifold")
        if self.derivative.shape[1] != self.manifold.flat_dim:
            raise ShapeError("derivative must act into flattened ambient tangents")
        check_same_grid(self.times, self.driver.times)

    @property
    def driver_dim(self):
        return self.derivative.shape[-1]

    def flat_points(self):
        return self.manifold.flatten(self.points)

    def derivative_samples(self, g):
        """Derivatives of g along every column of y' at every node, shape (N+1, k, ...).

        One ``Manifold.derivative_along`` call covers all (node, direction) rows;
        ``g(qs, bases)`` is as there.  The rows are the k columns of y' if k <= dim M,
        else the dim M columns of the orthonormal ``Manifold.tangent_basis`` E, contracted
        with E^T y' (the derivative is linear in the direction): only the tangent part of y' enters.
        """
        n, k = self.times.size, self.driver_dim
        dirs = np.swapaxes(self.derivative, 1, 2)  # (N+1, k, D)
        if k > self.manifold.dim:
            dirs = np.swapaxes(self.manifold.tangent_basis(self.points), 1, 2)  # (N+1, dim, D)
        r = dirs.shape[1]
        d = self.manifold.derivative_along(np.repeat(self.points, r, axis=0), dirs.reshape(n * r, -1), g)
        d = d.reshape((n, r) + d.shape[1:])
        return d if r == k else np.einsum("nak,na...->nk...", dirs @ self.derivative, d)

    def coarsen(self, factor=2):
        n = self.times.size - 1
        if n % factor:
            raise InvalidGrid(f"cannot coarsen {n} steps by {factor}")
        idx = np.arange(0, n + 1, factor)
        return ManifoldControlledPath(
            self.manifold,
            self.times[idx],
            self.points[idx],
            self.derivative[idx],
            self.driver.coarsen(factor),
        )

    def to_json(self):
        return {
            "manifold": self.manifold.spec_json(),
            "times": self.times.tolist(),
            "points": self.points.tolist(),
            "gubinelli": self.derivative.tolist(),
            "driver": self.driver.to_json(),
        }

    def as_flat(self):
        """Forget the manifold: ambient-valued controlled path."""
        return ControlledPath(self.times, self.flat_points(), self.derivative)


# -- constructors -----------------------------------------------------------------


def crp_from_projection(manifold: Manifold, rp: RoughPath, tol=BASEPOINT_TOL) -> ManifoldControlledPath:
    """Embedded driver trace: points x(t_i) with derivative P(x(t_i))."""
    if rp.dim != manifold.flat_dim:
        raise ShapeError("driver must live in the ambient space of the manifold")
    points = manifold.unflatten(rp.values).copy()  # not a view of the driver
    off = manifold.off_manifold(points)
    bad = np.flatnonzero(~(off <= tol))
    if bad.size:
        i = int(bad[0])
        raise NotOnManifold(i, f"sample {i} lies {off[i]:.2e} away from the manifold")
    return ManifoldControlledPath(manifold, rp.times, points, manifold.tangent_projector(points), rp)


def crp_from_smooth_curve(manifold: Manifold, curve, dcurve, rp: RoughPath) -> ManifoldControlledPath:
    """Samples of a smooth manifold curve driven by a one-dimensional driver."""
    pts = np.stack([np.asarray(curve(t), dtype=float) for t in rp.times])
    deriv = np.stack([manifold.flatten(dcurve(t))[:, None] for t in rp.times])
    if rp.dim != 1:
        raise ShapeError("smooth-curve construction expects a scalar driver")
    return ManifoldControlledPath(manifold, rp.times, pts, deriv, rp)


def crp_pushforward(f, jac, y: ManifoldControlledPath, target: Manifold) -> ManifoldControlledPath:
    """Push a controlled path through a smooth map between manifolds.

    ``f`` maps points of the source manifold to points of the target; ``jac(m)``
    is its ambient Jacobian (target_flat_dim, source_flat_dim).
    """
    n = y.times.size
    pts = np.stack([np.asarray(f(y.points[i]), dtype=float) for i in range(n)])
    deriv = np.empty((n, target.flat_dim, y.driver_dim))
    for i in range(n):
        deriv[i] = np.asarray(jac(y.points[i]), dtype=float) @ y.derivative[i]
    out = ManifoldControlledPath(target, y.times, pts, deriv, y.driver)
    bad = np.flatnonzero(~(target.off_manifold(pts) <= 1e-8))
    if bad.size:
        raise DomainError(f"pushed sample {int(bad[0])} left the target manifold domain")
    return out


# -- verifiers ---------------------------------------------------------------------


def _gauge_constants(y: ManifoldControlledPath, gauge: Gauge, delta, p, strides=(1,)):
    """``(C2, C1, worst pair, pairs probed, (C2s, C1s))`` of one sweep, the lists over the ``on_grids`` strides."""
    times = y.times
    pts = y.points
    if gauge.chart is not None:
        gauge.chart.read(pts, lambda i: DomainError(f"sample t_{i} = {times[i]:.6g} outside chart {gauge.chart.name}"))

    def residuals(i, j):
        pi, pj = pts.take(i, axis=0), pts.take(j, axis=0)
        if gauge.chart is None:
            d = y.manifold.distance(pi, pj)
            bad = np.where(d >= y.manifold.gauge_radius)[0]
            if bad.size:
                a, b = int(i[bad[0]]), int(j[bad[0]])
                raise DomainError(
                    f"pair (t_{a}, t_{b}) = ({times[a]:.6g}, {times[b]:.6g}) outside the gauge domain"
                )
        om = y.driver.control.omega(times.take(i), times.take(j))
        dx = y.driver.values.take(j, axis=0) - y.driver.values.take(i, axis=0)
        dag_i = y.derivative.take(i, axis=0)
        rn = np.linalg.norm(gauge.psi(pi, pj) - np.einsum("pda,pa->pd", dag_i, dx), axis=-1)
        dd = np.einsum("pde,pek->pdk", gauge.U(pi, pj), y.derivative.take(j, axis=0))
        dd -= dag_i
        dn = np.linalg.norm(dd.reshape(i.size, -1), axis=-1)
        r2, r1 = ratio(rn, om ** (2.0 / p)), ratio(dn, om ** (1.0 / p))
        return on_grids(strides, i, j, r2, r1)

    sups, worst, probed = pair_sup(times, delta, residuals)
    cs2, cs1 = by_grid(sups, strides)
    return cs2[0], cs1[0], worst, probed, (cs2, cs1)


def domain_feasible_delta(y: ManifoldControlledPath, gauge: Gauge):
    """Largest time gap whose probed pairs all stay inside the gauge domain.

    The verifiers' default delta: it realizes the existential delta of the
    gauge definition on loops, where the full horizon would probe pairs beyond
    the injectivity ball.  A chart gauge reads every pair, and so does a chart
    parallelism, which ``ControlledOneForm.verify`` passes for ``gauge``.
    Raises ``DomainError`` when even adjacent samples leave the gauge ball.
    The gaps are read in blocks of fewer than ``pairs.BLOCK_PAIRS`` pairs.
    """
    horizon = float(y.times[-1] - y.times[0])
    if gauge.chart is not None:
        return horizon
    radius = y.manifold.gauge_radius
    if not np.isfinite(radius):
        return horizon
    times, n = y.times, y.times.size
    best, gap, width = 0.0, 1, max(1, pairs.BLOCK_PAIRS // n)
    while gap < n:
        sizes = n - np.arange(gap, min(n, gap + width))  # pairs (i, i + n - size) of each gap
        starts = np.cumsum(sizes) - sizes
        i = np.arange(sizes.sum()) - np.repeat(starts, sizes)
        j = i + np.repeat(n - sizes, sizes)
        d = y.manifold.distance(y.points[i], y.points[j])
        far = np.maximum.reduceat(d, starts) >= radius - 1e-9
        k = int(np.argmax(far)) if far.any() else sizes.size  # the block's gaps inside the domain
        best = float(np.maximum.reduceat(times[j] - times[i], starts)[k - 1]) if k else best
        if k < sizes.size:
            break
        gap += k
    if best == 0.0:
        raise DomainError(f"adjacent samples already leave the gauge ball of radius {radius:.6g}")
    return best


def verify_gauge_crp(y: ManifoldControlledPath, gauge: Gauge, delta=None, levels=4):
    """Smallest constants for the gauge-increment inequalities plus stability.

    Constants are measured on the full grid and dyadic coarsenings, all from
    one sweep of the grid's pairs; ``pass`` means finite constants whose growth
    slope under refinement stays above -0.25.  The remainder and derivative
    verdicts are reported separately (the degenerate-control fixture has a
    finite remainder constant at delta = 1/2 while its derivative process is
    not controlled at all).  ``delta`` defaults to ``domain_feasible_delta``.  A
    delta below every grid step raises ``DomainError``, a gauge of another manifold
    ``GaugeMismatch``.
    """
    gauge.par.check_manifold(y.manifold)
    if delta is None:
        delta = domain_feasible_delta(y, gauge)
    strides, hs = dyadic_strides(y.times, levels, 8)
    _, _, worst, pairs_probed, (cs2, cs1) = _gauge_constants(y, gauge, delta, y.driver.control.p, strides)
    check_probed(pairs_probed, delta, y.times)
    slope2, pass2 = stability_verdict(cs2, hs)
    slope1, pass1 = stability_verdict(cs1, hs)
    return {
        "C2": cs2[0],
        "C1": cs1[0],
        "delta": float(delta),
        "pairs_probed": pairs_probed,
        "levels": {"h": hs, "C2": cs2, "C1": cs1},
        "slope_C2": slope2,
        "slope_C1": slope1,
        "worst_pair": worst,
        "pass_remainder": pass2,
        "pass_derivative": pass1,
        "pass": bool(pass2 and pass1),
    }


def verify_chart_crp(y: ManifoldControlledPath, chart: Chart, window=None, levels=4):
    """Chart-window controlled-path constants (all pairs inside the window)."""
    times = y.times
    if window is None:
        lo, hi = 0, times.size - 1
    else:
        lo, hi = y.driver.index_of(window[0]), y.driver.index_of(window[1])
    pts = y.points[lo : hi + 1]
    zs = chart.read(pts, lambda i: ChartExit(time=float(times[lo + i])))
    sub = ControlledPath(times[lo : hi + 1], zs, chart.dto(pts) @ y.derivative[lo : hi + 1])
    rep = verify_crp(sub, y.driver.restrict(lo, hi), levels=levels)
    rep["chart"] = chart.name
    rep["C2"] = rep["C_remainder"]
    rep["C1"] = rep["C_derivative"]
    return rep


def ratio_at_pair(y: ManifoldControlledPath, chart: Chart, s, t):
    """Chart remainder ratio |z_{s,t} - z'_s x_{s,t}| / omega^{2/p} at one pair."""
    i = y.driver.index_of(s)
    j = y.driver.index_of(t)
    zi = chart.to_coords(y.points[i])
    zj = chart.to_coords(y.points[j])
    zdag = chart.dto(y.points[i]) @ y.derivative[i]
    dx = y.driver.values[j] - y.driver.values[i]
    om = float(y.driver.control.omega(y.times[i], y.times[j]))
    p = y.driver.control.p
    return float(np.linalg.norm(zj - zi - zdag @ dx)) / om ** (2.0 / p)


def scalar_test_suite(y: ManifoldControlledPath, fns):
    """Push through scalar observables and verify each flat image path.

    ``fns`` is a list of (f, df) pairs with ambient differentials; returns the
    per-function flat reports plus an aggregate verdict.
    """
    reports = []
    for f, df in fns:
        vals = np.array([[float(f(p))] for p in y.points])
        deriv = np.empty((y.times.size, 1, y.driver_dim))
        for i in range(y.times.size):
            deriv[i, 0] = np.asarray(df(y.points[i]), dtype=float) @ y.derivative[i]
        reports.append(verify_crp(ControlledPath(y.times, vals, deriv), y.driver))
    return {
        "C_remainder": max(r["C_remainder"] for r in reports),
        "C_derivative": max(r["C_derivative"] for r in reports),
        "pass": all(r["pass"] for r in reports),
        "reports": reports,
    }
