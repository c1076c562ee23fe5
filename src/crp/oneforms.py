"""Controlled one-forms along a manifold path and their gauge rough integral."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import VERIFY_LEVELS, ControlledPath, certificate, check_same_grid, dyadic_strides
from .errors import DomainError, GaugeMismatch, InvalidGrid, ShapeError
from .gauges import CompatibilityTensor, Gauge, Parallelism, change_tensor
from .linalg import pointwise
from .mcrp import ManifoldControlledPath, crp_pushforward, domain_feasible_delta
from .pairs import control_sups, triple_defect
from .sewing import rough_integrate


@dataclass
class ControlledOneForm:
    """Integrand (alpha, alpha') along a manifold controlled path.

    ``alpha`` has shape (N+1, n, D) mapping flattened ambient tangents to R^n;
    ``alpha_dag`` has shape (N+1, n, k, D): slot a of the driver contracts the
    increment, the trailing slot eats a tangent at the same sample.
    """

    times: np.ndarray
    alpha: np.ndarray
    alpha_dag: np.ndarray
    parallelism: Parallelism
    path: ManifoldControlledPath

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.alpha_dag = np.asarray(self.alpha_dag, dtype=float)
        if self.alpha.shape[0] != self.times.size or self.alpha_dag.shape[0] != self.times.size:
            raise InvalidGrid("alpha samples do not match the grid")
        d = self.path.manifold.flat_dim
        if self.alpha.shape[2] != d or self.alpha_dag.shape[3] != d:
            raise ShapeError("one-form must act on flattened ambient tangents")
        check_same_grid(self.times, self.path.times)

    @property
    def value_dim(self):
        return self.alpha.shape[1]

    def verify(self, delta=None):
        """Constants for the two controlled-one-form inequalities.

        Remainder: |alpha_t o U(y_t, y_s) - alpha_s - alpha'_s(x_{s,t} (x) .)|
        measured in the Frobenius norm over probed pairs; derivative:
        |alpha'_t o (I (x) U(y_t, y_s)) - alpha'_s|.  Every dyadic level comes
        from one pair sweep.  ``delta`` defaults to the path's ``domain_feasible_delta``
        under this form's parallelism; a delta below every grid step raises ``DomainError``.
        """
        if delta is None:
            delta = domain_feasible_delta(self.path, self.parallelism)
        strides, hs = dyadic_strides(self.times, VERIFY_LEVELS, 8)
        return certificate(self._pair_constants(delta, strides), hs, float(delta), self.times)

    def _pair_constants(self, delta, strides=(1,)):
        """``(C2, C1, worst pair, pairs probed, (C2s, C1s))`` of one sweep, the lists over the ``on_grids`` strides."""
        y = self.path
        # only the action on tangents at y_s is meaningful
        projs = y.manifold.tangent_projector(y.points)

        def norms(i, j):
            # U(y_t, y_s): T_{y_s} -> T_{y_t}; the inequality composes alpha_t with it
            u = self.parallelism.matrix(y.points.take(j, axis=0), y.points.take(i, axis=0))
            proj_i = projs.take(i, axis=0)
            rem = np.einsum("pnd,pde->pne", self.alpha.take(j, axis=0), u) - self.alpha.take(i, axis=0)
            dx = y.driver.values.take(j, axis=0) - y.driver.values.take(i, axis=0)
            rem -= np.einsum("pnad,pa->pnd", self.alpha_dag.take(i, axis=0), dx)
            rn = np.linalg.norm(np.einsum("pne,ped->pnd", rem, proj_i).reshape(i.size, -1), axis=-1)
            dd = np.einsum("pnad,pde->pnae", self.alpha_dag.take(j, axis=0), u) - self.alpha_dag.take(i, axis=0)
            return rn, np.linalg.norm(np.einsum("pnae,ped->pnad", dd, proj_i).reshape(i.size, -1), axis=-1)

        cs2, cs1, worst, probed = control_sups(self.times, y.driver.control, delta, norms, strides)
        return cs2[0], cs1[0], worst, probed, (cs2, cs1)


# -- constructors -------------------------------------------------------------------


def oneform_from_stacks(form, y: ManifoldControlledPath, par: Parallelism) -> ControlledOneForm:
    """Controlled restriction of a smooth one-form along the path.

    ``form(qs, where)`` returns the (P, n, D) values at a stack of points, named
    ``where`` ("node" or "stencil point") in errors.  The derivative samples are
    the transport-covariant derivatives along y' directions,
    ``Manifold.derivative_along`` of q -> alpha(q) o U(q, m),
    taken on the whole grid at once (``ManifoldControlledPath.derivative_samples``):
    one Richardson stencil over min(k, dim M) directions at every node, the
    columns of y' or, for k > dim M, a tangent basis (only the tangent part of
    y' enters), so one ``form`` call for the stencil's four levels and (N+1)(1 + 4 min(k, dim M))
    form values in all, with the stencil points from the manifold's stacked
    ``curve`` (closed form on the sphere) and the parallelism on the stacked
    pairs.  Raises ``GaugeMismatch`` for a parallelism of another manifold.
    """
    par.check_manifold(y.manifold)
    alpha = form(y.points, "node")

    def g(qs, bases):
        return np.einsum("pnd,pde->pne", form(qs, "stencil point"), par.matrix(qs, bases))

    dag = np.swapaxes(y.derivative_samples(g), 1, 2)  # (N+1, n, k, D)
    return ControlledOneForm(y.times, alpha, dag, par, y)


def oneform_from_smooth(alpha_fn, y: ManifoldControlledPath, par: Parallelism) -> ControlledOneForm:
    """``oneform_from_stacks`` of ``alpha_fn(m)``, the (n, D) matrix of the form at m, called point by point
    through ``linalg.pointwise``.

    Also raises ``ShapeError`` for a value that is not (n, D) or changes shape, ``DomainError`` for a non-finite one.
    """
    shape = (None, y.manifold.flat_dim)
    return oneform_from_stacks(lambda qs, where: pointwise(alpha_fn, qs, f"one-form value at {where}", shape), y, par)


# -- the gauge integral ---------------------------------------------------------------


def integrator_increments(y: ManifoldControlledPath, gauge: Gauge, stensor: CompatibilityTensor, i, j):
    """The corrected increment pair over index pairs (i, j).

    Returns (first, second): first = psi(y_i, y_j) + S(y' (x) y' areas) in
    T_{y_i}M and second = (I (x) y') areas in W (x) T_{y_i}M.
    """
    i = np.asarray(i)
    j = np.asarray(j)
    psi = gauge.psi(y.points[i], y.points[j])
    areas = y.driver.area_pairs(i, j)
    ydag = y.derivative[i]
    pushed = np.einsum("pda,peb,pab->pde", ydag, ydag, areas)
    corr = np.einsum("pcab,pab->pc", stensor.stack(y.points[i]), pushed)
    second = np.einsum("pab,pdb->pad", areas, ydag)
    return psi + corr, second


def gauge_expression(a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge, stensor, i, j):
    """The one-step expression alpha_i(first) + alpha'_i(second) over index pairs (i, j), from
    ``integrator_increments``."""
    first, second = integrator_increments(y, gauge, stensor, i, j)
    return np.einsum("pnd,pd->pn", a.alpha[i], first) + np.einsum("pnad,pad->pn", a.alpha_dag[i], second)


def gauge_integrate(a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge) -> ControlledPath:
    """Rough integral of a controlled one-form against the gauge integrator.

    Starts at zero; one-step increments are
        alpha_i(psi(y_i, y_{i+1}) + S(y'^{(x)2} X_i)) + alpha'_i (I (x) y') X_i
    summed along the grid.  The derivative process is alpha o y'.
    """
    if a.parallelism is not gauge.par:
        raise GaugeMismatch("one-form is controlled against a different parallelism")
    check_same_grid(a.times, y.times)
    n = y.times.size - 1
    if gauge.chart is None:
        d = y.manifold.distance(y.points[:-1], y.points[1:])
        bad = np.flatnonzero(y.manifold.past_gauge_ball(d))
        if bad.size:
            raise DomainError(f"step {int(bad[0])} exits the gauge domain")
    else:
        gauge.chart.read(y.points, lambda idx: DomainError(f"sample {idx} exits chart {gauge.chart.name}"))
    i = np.arange(n)
    steps = gauge_expression(a, y, gauge, gauge.compatibility(), i, i + 1)
    values = np.zeros((n + 1, a.value_dim))
    np.cumsum(steps, axis=0, out=values[1:])
    deriv = np.einsum("pnd,pdk->pnk", a.alpha, y.derivative)
    return ControlledPath(y.times, values, deriv)


def gauge_defect_by_level(a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge, levels):
    """``[(h, defect)]``, finest first: the max almost-additivity defect of ``gauge_expression`` over the
    consecutive triples of each grid of ``dyadic_strides``, read at its stride on the fine grid."""
    strides, hs = dyadic_strides(y.times, levels, 4)
    stensor = gauge.compatibility()

    def expr(i, j):
        return gauge_expression(a, y, gauge, stensor, i, j)

    return [(h, triple_defect(expr, y.times.size - 1, s)) for s, h in zip(strides, hs)]


# -- gauge changes --------------------------------------------------------------------


def gauge_change(a: ControlledOneForm, new_par: Parallelism) -> ControlledOneForm:
    """Transport a controlled one-form to another parallelism.

    The value samples are unchanged; the derivative samples absorb the
    compatibility tensor between the parallelisms (``change_tensor``: closed
    form where one exists) contracted with y', at all nodes at once.
    """
    y = a.path
    new_par.check_manifold(y.manifold)
    a.parallelism.check_manifold(y.manifold)
    s = change_tensor(new_par, a.parallelism, y.manifold).stack(y.points)
    dag = a.alpha_dag + np.einsum("pnc,pced,pea->pnad", a.alpha, s, y.derivative)
    return ControlledOneForm(a.times, a.alpha.copy(), dag, new_par, y)


def integrate_smooth_oneform(alpha_fn, y: ManifoldControlledPath, gauge: Gauge) -> ControlledPath:
    """Integral of a smooth one-form along y using the given gauge."""
    a = oneform_from_smooth(alpha_fn, y, gauge.par)
    return gauge_integrate(a, y, gauge)


# -- structural checks -----------------------------------------------------------------


def fundamental_theorem(f, df, y: ManifoldControlledPath, gauge: Gauge):
    """Endpoint identity for exact forms plus the exact derivative identity, both read off the
    push-forward f_* y onto a flat line: f at the nodes, and the form's node values df as its Jacobian,
    so df runs once per node and stencil point."""
    a = oneform_from_smooth(lambda m: [df(m)], y, gauge.par)
    z = gauge_integrate(a, y, gauge)
    fs = pointwise(f, y.points, "f at sample", (1,))
    resid = abs(float(z.values[-1, 0]) - float(fs[-1, 0] - fs[0, 0]))
    dmax = float(np.max(np.abs(z.derivative - a.alpha @ y.derivative)))
    return {"endpoint_residual": resid, "derivative_residual": dmax, "integral": z}


def oneform_product(fpath: ControlledPath, a: ControlledOneForm) -> ControlledOneForm:
    """Pointwise product (f alpha, f' (x) alpha + f alpha')."""
    if fpath.values.ndim != 3 or fpath.values.shape[2] != a.value_dim:
        raise ShapeError("product shapes do not compose")
    alpha = np.einsum("imn,ind->imd", fpath.values, a.alpha)
    dag = np.einsum("imna,ind->imad", fpath.derivative, a.alpha) + np.einsum(
        "imn,inad->imad", fpath.values, a.alpha_dag
    )
    return ControlledOneForm(a.times, alpha, dag, a.parallelism, a.path)


def associativity_check(fpath: ControlledPath, a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge):
    """Both routes of the iterated-integral identity; sup difference returned."""
    z = gauge_integrate(a, y, gauge)
    lhs = rough_integrate(fpath, z, y.driver)
    rhs = gauge_integrate(oneform_product(fpath, a), y, gauge)
    return {
        "diff_sup": float(np.max(np.abs(lhs.values - rhs.values))),
        "lhs": lhs,
        "rhs": rhs,
    }


def pullback_form(f, jac, alpha_fn):
    """(f^* alpha)_m = alpha_{f(m)} o f_{*m} for an ambient-smooth map f."""

    def pulled(m):
        return np.asarray(alpha_fn(f(m)), dtype=float) @ np.asarray(jac(m), dtype=float)

    return pulled


def push_pull_check(f, jac, alpha_fn, y: ManifoldControlledPath, gauge: Gauge, target_gauge: Gauge, target):
    """Integrate the pullback along y versus the form along the pushforward."""
    lhs = integrate_smooth_oneform(pullback_form(f, jac, alpha_fn), y, gauge)
    fy = crp_pushforward(f, jac, y, target)
    rhs = integrate_smooth_oneform(alpha_fn, fy, target_gauge)
    return {
        "diff_sup": float(np.max(np.abs(lhs.values - rhs.values))),
        "lhs": lhs,
        "rhs": rhs,
        "pushed": fy,
    }
