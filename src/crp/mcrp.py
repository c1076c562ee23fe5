"""Manifold-valued controlled rough paths: constructors and verifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pairs
from .controlled import VERIFY_LEVELS, ControlledPath, certificate, check_same_grid, dyadic_strides, verify_crp
from .errors import ChartExit, DomainError, InvalidGrid, NotOnManifold, ShapeError
from .gauges import Gauge
from .linalg import pointwise
from .manifolds import Chart, ChartManifold, Manifold
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


def _check_on_manifold(manifold: Manifold, points):
    """Raise ``NotOnManifold`` at the first sample farther than ``BASEPOINT_TOL`` from the manifold (or NaN)."""
    off = manifold.off_manifold(points)
    bad = np.flatnonzero(~(off <= BASEPOINT_TOL))
    if bad.size:
        i = int(bad[0])
        raise NotOnManifold(i, f"sample {i} lies {off[i]:.2e} away from the manifold")


def crp_from_projection(manifold: Manifold, rp: RoughPath) -> ManifoldControlledPath:
    """Embedded driver trace: points x(t_i) with derivative P(x(t_i))."""
    if rp.dim != manifold.flat_dim:
        raise ShapeError("driver must live in the ambient space of the manifold")
    points = manifold.unflatten(rp.values).copy()  # not a view of the driver
    _check_on_manifold(manifold, points)
    return ManifoldControlledPath(manifold, rp.times, points, manifold.tangent_projector(points), rp)


def crp_from_smooth_curve(manifold: Manifold, curve, dcurve, rp: RoughPath) -> ManifoldControlledPath:
    """Samples of a smooth manifold curve driven by a one-dimensional driver; a sample
    farther than ``BASEPOINT_TOL`` from the manifold raises ``NotOnManifold``, a value of
    ``curve`` or ``dcurve`` of another shape than a point's ``ShapeError``, a non-finite one ``DomainError``."""
    if rp.dim != 1:
        raise ShapeError("smooth-curve construction expects a scalar driver")
    pts = pointwise(curve, rp.times, "curve", manifold.point_shape)
    deriv = pointwise(dcurve, rp.times, "dcurve", manifold.point_shape).reshape(-1, manifold.flat_dim, 1)
    y = ManifoldControlledPath(manifold, rp.times, pts, deriv, rp)
    _check_on_manifold(manifold, y.points)
    return y


def crp_pushforward(f, jac, y: ManifoldControlledPath, target: Manifold) -> ManifoldControlledPath:
    """Push a controlled path through a smooth map between manifolds.

    ``f`` maps points of the source manifold to points of the target; ``jac(m)``
    is its ambient Jacobian (target_flat_dim, source_flat_dim).  A value of
    another shape raises ``ShapeError``, a non-finite one ``DomainError`` and a
    pushed sample farther than ``BASEPOINT_TOL`` from the target ``NotOnManifold``.
    """
    pts = pointwise(f, y.points, "f at sample", target.point_shape)
    jacs = pointwise(jac, y.points, "jac at sample", (target.flat_dim, y.manifold.flat_dim))
    out = ManifoldControlledPath(target, y.times, pts, jacs @ y.derivative, y.driver)
    _check_on_manifold(target, pts)
    return out


# -- verifiers ---------------------------------------------------------------------


def _gauge_constants(y: ManifoldControlledPath, gauge: Gauge, delta, strides=(1,)):
    """``(C2, C1, worst pair, pairs probed, (C2s, C1s))`` of one sweep, the lists over the ``on_grids`` strides."""
    times = y.times
    pts = y.points
    if gauge.chart is not None:
        gauge.chart.read(pts, lambda i: DomainError(f"sample t_{i} = {times[i]:.6g} outside chart {gauge.chart.name}"))

    def norms(i, j):
        pi, pj = pts.take(i, axis=0), pts.take(j, axis=0)
        if gauge.chart is None:
            d = y.manifold.distance(pi, pj)
            bad = np.flatnonzero(y.manifold.past_gauge_ball(d))
            if bad.size:
                a, b = int(i[bad[0]]), int(j[bad[0]])
                raise DomainError(
                    f"pair (t_{a}, t_{b}) = ({times[a]:.6g}, {times[b]:.6g}) outside the gauge domain"
                )
        dx = y.driver.values.take(j, axis=0) - y.driver.values.take(i, axis=0)
        dag_i = y.derivative.take(i, axis=0)
        rn = np.linalg.norm(gauge.psi(pi, pj) - np.einsum("pda,pa->pd", dag_i, dx), axis=-1)
        dd = np.einsum("pde,pek->pdk", gauge.U(pi, pj), y.derivative.take(j, axis=0))
        dd -= dag_i
        return rn, np.linalg.norm(dd.reshape(i.size, -1), axis=-1)

    cs2, cs1, worst, probed = pairs.control_sups(times, y.driver.control, delta, norms, strides)
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
    if not np.isfinite(y.manifold.gauge_radius):
        return horizon
    times, n = y.times, y.times.size
    best, gap, width = 0.0, 1, max(1, pairs.BLOCK_PAIRS // n)
    while gap < n:
        sizes = n - np.arange(gap, min(n, gap + width))  # pairs (i, i + n - size) of each gap
        starts = np.cumsum(sizes) - sizes
        i = np.arange(sizes.sum()) - np.repeat(starts, sizes)
        j = i + np.repeat(n - sizes, sizes)
        d = y.manifold.distance(y.points[i], y.points[j])
        far = y.manifold.past_gauge_ball(np.maximum.reduceat(d, starts))
        k = int(np.argmax(far)) if far.any() else sizes.size  # the block's gaps inside the domain
        best = float(np.maximum.reduceat(times[j] - times[i], starts)[k - 1]) if k else best
        if k < sizes.size:
            break
        gap += k
    if best == 0.0:
        raise DomainError(f"adjacent samples already leave the gauge ball of radius {y.manifold.gauge_radius:.6g}")
    return best


def verify_gauge_crp(y: ManifoldControlledPath, gauge: Gauge, delta=None):
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
    strides, hs = dyadic_strides(y.times, VERIFY_LEVELS, 8)
    return certificate(_gauge_constants(y, gauge, delta, strides), hs, float(delta), y.times)


def verify_chart_crp(y: ManifoldControlledPath, chart: Chart, window=None):
    """Chart-window controlled-path constants (all pairs inside the window)."""
    times = y.times
    if window is None:
        lo, hi = 0, times.size - 1
    else:
        lo, hi = y.driver.index_of(window[0]), y.driver.index_of(window[1])
    pts = y.points[lo : hi + 1]
    zs = chart.read(pts, lambda i: ChartExit(time=float(times[lo + i])))
    sub = ControlledPath(times[lo : hi + 1], zs, chart.dto(pts) @ y.derivative[lo : hi + 1])
    return {**verify_crp(sub, y.driver.restrict(lo, hi)), "chart": chart.name}


def ratio_at_pair(y: ManifoldControlledPath, chart: Chart, s, t):
    """Chart remainder ratio |z_{s,t} - z'_s x_{s,t}| / omega^{2/p} at one pair, read by
    ``pairs.control_sups`` on the two-node grid (s, t): a vanishing control follows its 0/0 rule."""
    i = y.driver.index_of(s)
    j = y.driver.index_of(t)
    zi, zj = chart.to_coords(y.points[[i, j]])
    zdag = chart.dto(y.points[i]) @ y.derivative[i]
    dx = y.driver.values[j] - y.driver.values[i]
    rem = np.linalg.norm(zj - zi - zdag @ dx)[None]
    c2s, _, _, _ = pairs.control_sups(y.times[[i, j]], y.driver.control, None, lambda a, b: (rem, 0.0 * rem))
    return c2s[0]


def scalar_test_suite(y: ManifoldControlledPath, fns):
    """Push through scalar observables and verify each flat image path.

    ``fns`` is a list of (f, df) pairs with ambient differentials; each image f_* y is
    ``crp_pushforward`` onto a flat line, verified as a flat path (``as_flat``).  Returns
    the per-function flat reports plus an aggregate verdict.
    """
    line = ChartManifold(1)
    reports = [verify_crp(crp_pushforward(f, lambda m: [df(m)], y, line).as_flat(), y.driver) for f, df in fns]
    return {
        "C_remainder": max(r["C_remainder"] for r in reports),
        "C_derivative": max(r["C_derivative"] for r in reports),
        "pass": all(r["pass"] for r in reports),
        "reports": reports,
    }
