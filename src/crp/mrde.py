"""Rough differential equations on manifolds via chart-patched or whole-grid linear steps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .controlled import ControlledPath, driver_as_controlled
from .errors import AtlasGap, DomainError, Explosion, NotOnManifold, NotRelated, ShapeError
from .flatrde import EXPLOSION_BOUND, linear_flow
from .gauges import Gauge, compatibility_tensor
from .linalg import pointwise
from .manifolds import SO3, Manifold, Sphere
from .mcrp import BASEPOINT_TOL, ManifoldControlledPath, crp_pushforward
from .oneforms import integrate_smooth_oneform
from .roughpath import RoughPath
from .sewing import rough_integrate

RECHART_MARGIN = 0.2  # re-chart when margin falls under 20% of the chart radius
FD_STEP = 1e-6  # relative central-difference step of the second-order term
RELATEDNESS_TOL = 1e-8  # worst |J F_src - F_dst o f| that f_related_pushforward accepts


@dataclass
class ManifoldDrivingField:
    """Driver-linear field F with F_w(m) in T_mM.

    ``field(m)`` returns the (D, k) ambient matrix whose columns are the values
    on the driver basis; ``linear`` alone sets ``generators``.
    """

    manifold: Manifold
    field: Callable
    name: str = "field"
    generators: np.ndarray | None = dataclass_field(default=None, init=False)  # (k, d, d): F_a(m) = E_a m

    @classmethod
    def linear(cls, manifold: Manifold, generators, name="linear"):
        """F_a(m) = E_a m for (k, d, d) generators E on points of shape (d,) or (d, c); on the sphere and
        SO(3) F is tangent everywhere only for skew E, kept for the chart-free solve, elsewhere chart-stepped."""
        gens = np.asarray(generators, dtype=float)
        if len(shape := manifold.point_shape) not in (1, 2) or gens.ndim != 3 or gens.shape[1:] != (shape[0],) * 2:
            raise ShapeError(f"generators of shape {gens.shape} do not act on {manifold.name} points of shape {shape}")
        out = cls(manifold, lambda m: np.einsum("anm,m...->n...a", gens, m).reshape(-1, len(gens)), name)
        if isinstance(manifold, (Sphere, SO3)):
            if not np.allclose(gens, -np.swapaxes(gens, 1, 2), rtol=0.0, atol=BASEPOINT_TOL):
                raise DomainError(f"generators that are not skew are not tangent to {manifold.name} everywhere")
            out.generators = gens
        return out

    def value_matrix(self, m):
        return np.asarray(self.field(m), dtype=float)

    def stack(self, ms):
        """F at each of a stack of points, (R, D, k), one ``value_matrix`` call per point through ``linalg.pointwise``."""
        return pointwise(self.value_matrix, ms, f"field {self.name} at point", (self.manifold.flat_dim, None))

    def chart_rep(self, chart, shape):
        """F in chart coordinates: x -> dto(p) field(p), p = from_coords(x); ``ShapeError`` naming the
        point p unless field(p) has ``shape``, the shape of the field's node values."""

        def rep(x):
            p = chart.from_coords(x)
            f = self.value_matrix(p)
            if f.shape != shape:
                raise ShapeError(f"field {self.name} at point {p} has shape {f.shape}, not {shape}")
            return chart.dto(p) @ f

        return rep


class ChartWalk:
    """Greedy chart choice along a trajectory, node by node.

    Starts in the chart with the largest margin at ``p0`` and keeps it while its
    margin stays at or above ``RECHART_MARGIN`` of its radius; below that it
    re-selects the chart with the largest margin and records a segment boundary
    whenever the chart changes.
    """

    def __init__(self, manifold: Manifold, times, p0):
        self.manifold = manifold
        self.atlas = manifold.charts()
        self.times = times
        self.chart = self.atlas[int(manifold.chart_index(p0, self.atlas))]
        self.starts = [(0, self.chart)]

    def visit(self, i, p, margin):
        """Chart that node i (point p, ``margin`` in the current chart) is read in.

        Returns None while the current chart keeps its margin.
        """
        if margin >= RECHART_MARGIN * self.chart.radius:
            return None
        try:
            best = self.atlas[int(self.manifold.chart_index(p, self.atlas))]
        except AtlasGap:
            raise Explosion(self.times[i - 1], "trajectory left every atlas chart") from None
        if best is not self.chart:
            self.chart = best
            self.starts.append((i, best))
        return best

    def scan(self, points):
        """``close`` after ``visit`` at every node of ``points``, with each atlas chart's margin read
        over the stack once: only the nodes under the current chart's re-chart margin are visited."""
        margins = {id(c): c.margin(points) for c in self.atlas}
        i = 0
        while (below := np.flatnonzero(~(margins[id(self.chart)][i + 1 :] >= RECHART_MARGIN * self.chart.radius))).size:
            i += 1 + int(below[0])  # ~(m >= bound) holds for NaN, as in visit
            self.visit(i, points[i], margins[id(self.chart)][i])
        return self.close(len(points) - 1)

    def close(self, n):
        """Single-chart segments [(i0, i1, chart)] covering nodes 0..n."""
        ends = [i for i, _ in self.starts[1:]] + [n]
        return [(i0, i1, chart) for (i0, chart), i1 in zip(self.starts, ends)]


def _chart_step(rep, x, cols, dx, area):
    """Additive second-order step of the chart-coordinate scheme from x, where ``cols`` = rep(x), (d, k);
    each area row not all zero (NaN included) takes two ``rep`` calls, a central difference along its column."""
    out = cols @ dx
    scale = max(1.0, max(map(abs, x.tolist())))
    for a, row in enumerate(area.tolist()):
        if not any(row):
            continue
        v = cols[:, a]
        nv = math.sqrt(v @ v)
        if nv < 1e-300:
            continue
        h = FD_STEP * scale / nv if nv > FD_STEP else FD_STEP * scale
        dcols = (rep(x + h * v) - rep(x - h * v)) / (2.0 * h)
        out = out + dcols @ area[a]
    return out


def rde_solve_manifold(field: ManifoldDrivingField, rp: RoughPath, y0) -> ManifoldControlledPath:
    """Second-order solve of dy = F_{dX}(y), chart-patched unless F has generators.

    Skew generators take the log-ODE step of ``flatrde.linear_flow`` on the whole grid,
    no chart.  Other fields step in the chart of a ``ChartWalk``, with chart changes in
    ``meta``; ``Chart.from_coords`` puts every step back on the manifold.  Explosion is
    proxied by exceeding the ambient bound ``EXPLOSION_BOUND`` or leaving every chart.
    """
    mani = field.manifold
    n, dxs = rp.n_steps, np.diff(rp.values, axis=0)
    y = np.asarray(y0, dtype=float)
    gens = field.generators
    f0 = None if gens is not None or y.shape != mani.point_shape else field.value_matrix(y)  # chart-stepped deriv[0]
    fshape = (mani.flat_dim, len(gens)) if gens is not None else np.shape(f0)
    if y.shape != mani.point_shape or fshape != (mani.flat_dim, rp.dim):
        raise ShapeError(
            f"y0 of shape {y.shape} and field values of shape {fshape} do not fit {mani.name} points of shape "
            f"{mani.point_shape} and a {rp.dim}-dim driver"
        )
    if gens is not None:
        if not mani.on_manifold(y, BASEPOINT_TOL):
            raise NotOnManifold(0, f"start point is not on {mani.name}")
        points = linear_flow(field.generators, rp.times, dxs, rp.step_areas, y, "exp")
        deriv = np.einsum("anm,pm...->pn...a", field.generators, points).reshape(n + 1, mani.flat_dim, -1)
        switches = []
    else:
        points = np.empty((n + 1,) + mani.point_shape)
        deriv = np.empty((n + 1, mani.flat_dim, rp.dim))
        points[0] = y
        deriv[0] = f0
        walk = ChartWalk(mani, rp.times, y)
        chart = walk.chart
        rep = field.chart_rep(chart, fshape)
        with np.errstate(all="ignore"):  # a non-finite field value flows quietly to the explosion check
            x, cols = chart.to_coords(y), chart.dto(y) @ deriv[0]
            for i in range(n):
                x = x + _chart_step(rep, x, cols, dxs[i], rp.step_areas[i])
                y = chart.from_coords(x)
                flat = mani.flatten(y)
                if not math.sqrt(flat @ flat) <= EXPLOSION_BOUND:  # NaN and inf included
                    raise Explosion(rp.times[i])
                got = walk.visit(i + 1, y, chart.coords_margin(x))
                if got is not None:
                    if got is not chart:
                        chart, rep = got, field.chart_rep(got, fshape)
                    x = chart.to_coords(y)
                points[i + 1] = y
                f = field.value_matrix(y)
                if f.shape != fshape:
                    raise ShapeError(f"field {field.name} at t={rp.times[i + 1]:.6g} has shape {f.shape}, not {fshape}")
                deriv[i + 1] = f
                cols = chart.dto(y) @ deriv[i + 1]
        switches = [float(rp.times[i0]) for i0, _, _ in walk.close(n)[1:]]
    out = ManifoldControlledPath(mani, rp.times, points, deriv, rp)
    out.meta = {"chart_switches": switches}
    return out


# -- characterizations -------------------------------------------------------------


def _area_terms(y: ManifoldControlledPath, field: ManifoldDrivingField, g):
    """F(y_i), (N, D, k), and sum_ab X_i[a, b] d_{F_a}[g_b](y_i) at the left node of every step.

    One ``Manifold.derivative_along`` call over the whole grid, its rows the (node, column)
    pairs of F(y_i); a column whose area row is zero is zeroed, so it takes no stencil
    point.  ``g(qs, bases)`` is as there, with values (R, ..., k) whose last axis is b.
    """
    ms, areas = y.points[:-1], y.driver.step_areas
    n, k = areas.shape[:2]
    cols = field.stack(ms)
    dirs = np.where(np.any(areas != 0, axis=-1)[..., None], np.swapaxes(cols, 1, 2), 0.0)  # (N, k, D)
    d = y.manifold.derivative_along(np.repeat(ms, k, axis=0), dirs.reshape(n * k, -1), g)
    return cols, np.einsum("na...b,nab->n...", d.reshape((n, k) + d.shape[1:]), areas)


def gauge_form_defects(y: ManifoldControlledPath, field: ManifoldDrivingField, gauge: Gauge, check_split=False):
    """One-step defects of the logarithm characterization of the solve.

    Returns the max defect of
        psi(y_i, y_{i+1}) - F_{dx_i}(y_i) - sum_ab X[a,b] d_{F_a}[(psi_{y_i})_* F_b](y_i)
    and, when ``check_split`` is set, the max pointwise difference between that
    second-order term and its compatibility-tensor split form: the derivatives of
    d2psi(y_i, .) F(.) and U(y_i, .) F(.), each one stacked call per stencil level.
    """
    pushes = [gauge.d2psi, gauge.U] if check_split else [gauge.d2psi]

    def pushed(qs, bases):
        fq = field.stack(qs)
        return np.stack([push(bases, qs) @ fq for push in pushes], axis=1)  # (R, push, D, k)

    cols, terms = _area_terms(y, field, pushed)
    pred = np.einsum("ndk,nk->nd", cols, np.diff(y.driver.values, axis=0)) + terms[:, 0]
    defect = np.linalg.norm(gauge.psi(y.points[:-1], y.points[1:]) - pred, axis=-1)
    split = 0.0
    if check_split:
        s = compatibility_tensor(gauge.log.induced_parallelism(), gauge.par, y.manifold).stack(y.points[:-1])
        s_term = np.einsum("ncde,nda,neb,nab->nc", s, cols, cols, y.driver.step_areas)
        split = float(np.max(np.linalg.norm(terms[:, 0] - terms[:, 1] + s_term, axis=-1)))
    return {"defect": float(np.max(defect)), "split_residual": split}


def pushed_field_path(y: ManifoldControlledPath, field: ManifoldDrivingField, alpha_fn):
    """Flat controlled path of samples alpha(y) o F(y), the driver-integrand.

    The derivative samples come from one stencil over the whole grid
    (``ManifoldControlledPath.derivative_samples``).
    """

    def vals(qs, _bases=None):
        return pointwise(alpha_fn, qs, "one-form value at point", (None, y.manifold.flat_dim)) @ field.stack(qs)

    dag = np.moveaxis(y.derivative_samples(vals), 1, -1)  # (N+1, n, k', k)
    return ControlledPath(y.times, vals(y.points), dag)


def check_rde_integral_form(y: ManifoldControlledPath, field, alpha_fn, gauge: Gauge):
    """Gauge integral of a form along the solve vs the flat driver integral."""
    lhs = integrate_smooth_oneform(alpha_fn, y, gauge)
    integrand = pushed_field_path(y, field, alpha_fn)
    rhs = rough_integrate(integrand, driver_as_controlled(y.driver), y.driver)
    return {
        "diff_sup": float(np.max(np.abs(lhs.values - rhs.values))),
        "lhs": lhs,
        "rhs": rhs,
    }


def scalar_solution_defects(y: ManifoldControlledPath, field: ManifoldDrivingField, f, df):
    """Max one-step defect of the scalar characterization for observable f."""

    def term(qs, _bases):
        return np.einsum("rd,rdk->rk", pointwise(df, qs, "df at point"), field.stack(qs))

    cols, term2 = _area_terms(y, field, term)
    ms = y.points[:-1]
    term1 = np.einsum("nd,ndk,nk->n", pointwise(df, ms, "df at point"), cols, np.diff(y.driver.values, axis=0))
    fs = pointwise(f, y.points, "f at point", (1,))[:, 0]
    return float(np.max(np.abs(np.diff(fs) - term1 - term2)))


def f_related_pushforward(
    f,
    jac,
    field_src: ManifoldDrivingField,
    field_dst: ManifoldDrivingField,
    y: ManifoldControlledPath,
):
    """Push a solution through a map relating the two dynamical systems.

    Verifies the relatedness residual on trajectory samples (``NotRelated`` past
    ``RELATEDNESS_TOL``), then returns the pushed path together with a direct
    solve from the pushed initial condition for comparison.
    """
    ms = y.points[:: max(1, y.points.shape[0] // 64)]
    jacs = pointwise(jac, ms, "jac at point", (field_dst.manifold.flat_dim, y.manifold.flat_dim))
    lhs = jacs @ field_src.stack(ms)
    fms = pointwise(f, ms, "f at point", field_dst.manifold.point_shape)
    rhs = pointwise(field_dst.value_matrix, fms, f"field {field_dst.name} at point", lhs.shape[1:])
    worst = float(np.max(np.abs(lhs - rhs)))
    if worst > RELATEDNESS_TOL:
        raise NotRelated(worst)
    pushed = crp_pushforward(f, jac, y, field_dst.manifold)
    direct = rde_solve_manifold(field_dst, y.driver, pushed.points[0])
    flat = field_dst.manifold.flatten
    diff = float(np.max(np.linalg.norm(flat(pushed.points) - flat(direct.points), axis=-1)))
    return {"pushed": pushed, "direct": direct, "diff_sup": diff, "relatedness_residual": worst}
