"""Level-2 weak-geometric rough paths on a fixed grid.

A rough path is stored per step: node values x(t_i) and one second-level tensor
per consecutive interval.  Values over arbitrary grid pairs are produced by the
multiplicative (Chen) composition of the steps, so the composition identity holds
by construction and never needs to be repaired.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .controls import Control
from .errors import InvalidGrid, LiftFailure, OffGrid, ShapeError
from .linalg import pointwise
from .pairs import control_sups, pair_sup, sampled_triples

WEAK_GEO_TOL_QUAD = 1e-10
CHEN_TOL = 1e-12


def _check_grid(times):
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidGrid("grid needs at least two nodes")
    if not np.all(np.diff(t) > 0):
        raise InvalidGrid("grid must be strictly increasing")
    return t


@dataclass
class RoughPath:
    """Grid samples of a p-rough path: values at nodes plus per-step areas."""

    times: np.ndarray
    values: np.ndarray  # (N+1, k)
    step_areas: np.ndarray  # (N, k, k), tensor for [t_i, t_{i+1}]
    control: Control

    # cumulative helpers for O(1) pair queries, built lazily; x dx is summed from x_0, so a shift never enters
    _cum_area: np.ndarray | None = field(default=None, repr=False)
    _cum_xdx: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.times = _check_grid(self.times)
        self.values = np.asarray(self.values, dtype=float)
        self.step_areas = np.asarray(self.step_areas, dtype=float)
        n = self.times.size - 1
        v, a = self.values.shape, self.step_areas.shape
        if len(v) != 2 or len(a) != 3 or a[1:] != (v[1],) * 2:
            raise ShapeError(f"values of shape {v} and step areas of shape {a} are not (N+1, k) and (N, k, k)")
        if v[0] != n + 1 or a[0] != n:
            raise InvalidGrid("values/areas do not match the grid")

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def n_steps(self):
        return self.times.size - 1

    def index_of(self, t):
        i = int(np.searchsorted(self.times, t))
        if i >= self.times.size or self.times[i] != t:
            raise OffGrid(f"t={t!r} is not a grid node")
        return i

    def _build_cums(self):
        if self._cum_area is not None:
            return
        n, k = self.n_steps, self.dim
        dx = np.diff(self.values, axis=0)
        cum_area = np.zeros((n + 1, k, k))
        cum_area[1:] = np.cumsum(self.step_areas, axis=0)
        cum_xdx = np.zeros((n + 1, k, k))
        cum_xdx[1:] = np.cumsum(np.einsum("ia,ib->iab", self.values[:-1] - self.values[0], dx), axis=0)
        self._cum_area = cum_area
        self._cum_xdx = cum_xdx

    def area_pairs(self, i, j):
        """Vectorized areas for index arrays i, j (i <= j elementwise).

        The Chen composition of the steps from t_i to t_j; uses cumulative sums so
        whole families of pairs can be queried at once.
        """
        self._build_cums()
        xi = self.values.take(i, axis=0)
        out = self._cum_area.take(j, axis=0)
        out -= self._cum_area.take(i, axis=0)
        out += self._cum_xdx.take(j, axis=0)
        out -= self._cum_xdx.take(i, axis=0)
        out -= np.einsum("...a,...b->...ab", xi - self.values[0], self.values.take(j, axis=0) - xi)
        return out

    # -- invariants -------------------------------------------------------------

    def weak_geometric_residual(self):
        """Max per-step residual of sym(area) - increment (x) increment / 2."""
        dx = np.diff(self.values, axis=0)
        sym = 0.5 * (self.step_areas + np.swapaxes(self.step_areas, 1, 2))
        res = sym - 0.5 * np.einsum("ia,ib->iab", dx, dx)
        return float(np.max(np.abs(res))) if res.size else 0.0

    def chen_residual(self, rng=None, max_triples=20_000):
        """Worst associativity defect over grid triples (sampled when large)."""
        if self.n_steps < 2:
            return 0.0
        i, j, k = sampled_triples(self.n_steps + 1, max_triples, rng)
        xj = self.values.take(j, axis=0)
        rhs = self.area_pairs(i, j)
        rhs += self.area_pairs(j, k)
        rhs += np.einsum("...a,...b->...ab", xj - self.values.take(i, axis=0), self.values.take(k, axis=0) - xj)
        lhs = self.area_pairs(i, k)
        lhs -= rhs
        return float(np.max(np.abs(lhs, out=lhs)))

    def bound_constant(self):
        """Smallest C with |x_{s,t}| <= C om^(1/p) and |area| <= C om^(2/p) on the grid."""

        def norms(i, j):
            ain = np.linalg.norm(self.area_pairs(i, j).reshape(i.size, -1), axis=-1)
            return ain, np.linalg.norm(self.values[j] - self.values[i], axis=-1)

        c_area, c_x, _, _ = control_sups(self.times, self.control, None, norms)
        return max(c_x[0], c_area[0])

    # -- restriction -------------------------------------------------------------

    def restrict(self, i, j):
        """Sub-path over [t_i, t_j]."""
        return RoughPath(
            times=self.times[i : j + 1],
            values=self.values[i : j + 1],
            step_areas=self.step_areas[i:j],
            control=self.control.restrict(self.times[i : j + 1]),
        )

    # -- serialization -------------------------------------------------------------

    def to_json(self):
        return {
            "times": self.times.tolist(),
            "values": self.values.tolist(),
            "areas": self.step_areas.tolist(),
            "control": self.control.to_json(),
        }

    @staticmethod
    def from_json(doc):
        return RoughPath(
            times=np.asarray(doc["times"], dtype=float),
            values=np.asarray(doc["values"], dtype=float),
            step_areas=np.asarray(doc["areas"], dtype=float),
            control=Control.from_json(doc["control"]),
        )


# -- lifts --------------------------------------------------------------------


def _calibrate_control(rp_values, times, areas, p):
    """Smallest c with the p-bounds holding at C=1 for omega = c (t-s)."""
    tmp = RoughPath(times, rp_values, areas, Control.time_scale(1.0, p))

    def residuals(i, j):
        dt = times[j] - times[i]
        xin = np.linalg.norm(rp_values[j] - rp_values[i], axis=-1)
        ain = np.linalg.norm(tmp.area_pairs(i, j).reshape(i.size, -1), axis=-1)
        return xin**p / dt, ain ** (p / 2.0) / dt

    sups, _, _ = pair_sup(tmp.times, None, residuals)
    return max(sups[0], sups[1], 1e-300)


@functools.cache
def _gauss_legendre_rule(order):
    """The order-point Gauss-Legendre nodes and weights on [-1, 1], built once and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre_step_area(path, dpath, times, values, order):
    """Areas of all N steps at once, (N, k, k); one call per (step, node), left ends from ``values``."""
    nodes, weights = _gauss_legendre_rule(order)
    mid, half = 0.5 * (times[:-1] + times[1:]), 0.5 * (times[1:] - times[:-1])
    ts = mid[:, None] + half[:, None] * nodes
    shape = ts.shape + values.shape[1:]
    xs = pointwise(path, ts.ravel(), "path", values.shape[1:], LiftFailure).reshape(shape) - values[:-1, None, :]
    dxs = pointwise(dpath, ts.ravel(), "dpath", values.shape[1:], LiftFailure).reshape(shape)
    return half[:, None, None] * np.einsum("q,nqa,nqb->nab", weights, xs, dxs)


def lift_smooth(path, grid, dpath):
    """Iterated-integral lift of a twice continuously differentiable path with derivative ``dpath``.

    Per-step areas are Gauss-Legendre quadratures of the first iterated
    integral, of order 8 doubled (twice at most) until the weak-geometric
    residual drops below tolerance.  The control is calibrated so the 1-variation
    bounds hold with constant one on the grid.  A path or derivative value of the
    wrong shape raises ShapeError, a non-finite one LiftFailure.
    """
    times = _check_grid(grid)
    values = pointwise(path, times, "path", (None,), LiftFailure)
    dx = np.diff(values, axis=0)
    order = 8
    for _ in range(3):
        areas = _gauss_legendre_step_area(path, dpath, times, values, order)
        res = 0.5 * (areas + np.swapaxes(areas, 1, 2)) - 0.5 * np.einsum("ia,ib->iab", dx, dx)
        if float(np.max(np.abs(res))) <= WEAK_GEO_TOL_QUAD:
            c = _calibrate_control(values, times, areas, 1.0)
            return RoughPath(times, values, areas, Control.time_scale(c, 1.0))
        order *= 2
    raise LiftFailure(
        f"weak-geometric residual {float(np.max(np.abs(res))):.3e} > {WEAK_GEO_TOL_QUAD} after order doubling"
    )


def lift_piecewise_linear(points, grid, p=1.0):
    """Exact lift of the piecewise-linear interpolant through ``points``."""
    times = _check_grid(grid)
    values = np.asarray(points, dtype=float)
    if values.ndim != 2:
        raise ShapeError(f"points of shape {values.shape} are not (N+1, k)")
    if values.shape[0] != times.size:
        raise InvalidGrid("one point per grid node required")
    dx = np.diff(values, axis=0)
    areas = 0.5 * np.einsum("ia,ib->iab", dx, dx)
    c = _calibrate_control(values, times, areas, p)
    return RoughPath(times, values, areas, Control.time_scale(c, p))


def pure_area_driver(a, grid):
    """Canonical two-dimensional weak-geometric driver with zero trace and constant area rate.

    Zero increments; the step tensor over [s, t] is a (t-s) (e1 (x) e2 - e2 (x) e1).
    """
    times = _check_grid(grid)
    n = times.size - 1
    values = np.zeros((n + 1, 2))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    areas = a * np.diff(times)[:, None, None] * rot
    return RoughPath(times, values, areas, Control.time_scale(abs(a), 2.0))


def time_lift(grid):
    """Lift of x(t) = t, the canonical one-dimensional smooth driver."""
    times = _check_grid(grid)
    values = times[:, None].copy()
    dt = np.diff(times)
    areas = (0.5 * dt**2)[:, None, None]
    return RoughPath(times, values, areas, Control.time_scale(1.0, 1.0))
