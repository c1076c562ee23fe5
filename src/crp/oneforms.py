"""Controlled one-forms along a manifold path and their gauge rough integral."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import ControlledPath, check_same_grid, dyadic_ladder, stability_verdict
from .errors import DomainError, GaugeMismatch, InvalidGrid, ShapeError
from .gauges import CompatibilityTensor, Gauge, Parallelism, change_tensor, compatibility_tensor
from .linalg import FD_STEP, richardson_diff
from .mcrp import ManifoldControlledPath, crp_pushforward, default_probe_delta
from .pairs import pair_sup, ratio, triple_defect
from .roughpath import RoughPath
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

    def coarsen(self, factor=2):
        n = self.times.size - 1
        idx = np.arange(0, n + 1, factor)
        return ControlledOneForm(
            self.times[idx], self.alpha[idx], self.alpha_dag[idx], self.parallelism, self.path.coarsen(factor)
        )

    def verify(self, delta=None, levels=4):
        """Constants for the two controlled-one-form inequalities.

        Remainder: |alpha_t o U(y_t, y_s) - alpha_s - alpha'_s(x_{s,t} (x) .)|
        measured in the Frobenius norm over probed pairs; derivative:
        |alpha'_t o (I (x) U(y_t, y_s)) - alpha'_s|.
        """
        if delta is None:
            delta = default_probe_delta(self.path)
        p = self.path.driver.control.p
        hs, rows = dyadic_ladder(lambda cur: cur._pair_constants(delta, p), (self,), levels, 8)
        cs2, cs1 = [r[0] for r in rows], [r[1] for r in rows]
        s2, pass2 = stability_verdict(cs2, hs)
        s1, pass1 = stability_verdict(cs1, hs)
        return {
            "C_remainder": cs2[0],
            "C_derivative": cs1[0],
            "slope_remainder": s2,
            "slope_derivative": s1,
            "pass": pass2 and pass1,
            "delta": float(delta),
        }

    def _pair_constants(self, delta, p):
        y = self.path
        # only the action on tangents at y_s is meaningful
        projs = np.stack([y.manifold.tangent_projector(pt) for pt in y.points])

        def residuals(i, j):
            # U(y_t, y_s): T_{y_s} -> T_{y_t}; the inequality composes alpha_t with it
            u = self.parallelism.matrix_batch(y.points[j], y.points[i])
            rem = np.einsum("pnd,pde->pne", self.alpha[j], u) - self.alpha[i]
            dx = y.driver.values[j] - y.driver.values[i]
            rem -= np.einsum("pnad,pa->pnd", self.alpha_dag[i], dx)
            rem = np.einsum("pne,ped->pnd", rem, projs[i])
            rn = np.linalg.norm(rem.reshape(i.size, -1), axis=-1)
            dd = np.einsum("pnad,pde->pnae", self.alpha_dag[j], u) - self.alpha_dag[i]
            dd = np.einsum("pnae,ped->pnad", dd, projs[i])
            dn = np.linalg.norm(dd.reshape(i.size, -1), axis=-1)
            om = y.driver.control.omega(self.times[i], self.times[j])
            return ratio(rn, om ** (2.0 / p)), ratio(dn, om ** (1.0 / p))

        sups, _, _ = pair_sup(self.times, delta, residuals)
        return sups[0], sups[1]


# -- constructors -------------------------------------------------------------------


def _form_values(alpha_fn, points, flat_dim, where):
    """Stacked (P, n, D) values of ``alpha_fn`` at points, each checked to be a finite (n, D) matrix."""
    vals = [np.asarray(alpha_fn(p), dtype=float) for p in points]
    want = vals[0].shape if vals[0].ndim == 2 and vals[0].shape[1] == flat_dim else None
    for i, v in enumerate(vals):
        if v.shape != want:
            raise ShapeError(f"one-form value at {where} {i} has shape {v.shape}: not (n, {flat_dim}), one n on every {where}")
    out = np.array(vals)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
    if bad.size:
        raise DomainError(f"one-form value at {where} {int(bad[0])} is not finite")
    return out


def oneform_from_stacks(form, y: ManifoldControlledPath, par: Parallelism, alpha=None) -> ControlledOneForm:
    """Controlled restriction of a smooth one-form along the path.

    ``form(qs, where)`` returns the (P, n, D) values at a stack of points, named
    ``where`` ("node" or "stencil point") in errors; ``alpha`` are the node values
    when known.  The derivative samples are the transport-covariant derivatives
    along y' directions, ``Manifold.derivative_along`` of q -> alpha(q) o U(q, m),
    taken on the whole grid at once: one Richardson stencil over every (node,
    driver direction) pair, so one ``form`` call per stencil level, with the
    stencil points from the manifold's stacked ``curve`` (closed form on the
    sphere) and the parallelism through ``matrix_batch``.  Raises
    ``GaugeMismatch`` for a parallelism of another manifold.
    """
    par.check_manifold(y.manifold)
    alpha = form(y.points, "node") if alpha is None else alpha

    def g(qs, bases):
        return np.einsum("pnd,pde->pne", form(qs, "stencil point"), par.matrix_batch(qs, bases))

    dag = np.swapaxes(y.derivative_samples(g), 1, 2)  # (N+1, n, k, D)
    return ControlledOneForm(y.times, alpha, dag, par, y)


def oneform_from_smooth(alpha_fn, y: ManifoldControlledPath, par: Parallelism) -> ControlledOneForm:
    """``oneform_from_stacks`` of ``alpha_fn(m)``, the (n, D) matrix of the form at m, called point by point.

    Also raises ``ShapeError`` for a value that is not (n, D) or changes shape, ``DomainError`` for a non-finite one.
    """
    dim = y.manifold.flat_dim
    return oneform_from_stacks(lambda qs, where: _form_values(alpha_fn, qs, dim, where), y, par)


def oneform_from_flat(alpha_cp: ControlledPath, y: ManifoldControlledPath, par: Parallelism) -> ControlledOneForm:
    """Adapter: a flat matrix-valued controlled integrand viewed as a one-form."""
    if alpha_cp.values.ndim != 3:
        raise ShapeError("flat integrand must be matrix-valued")
    alpha = alpha_cp.values
    dag = np.transpose(alpha_cp.derivative, (0, 1, 3, 2))  # (N+1, n, k, D)
    return ControlledOneForm(y.times, alpha.copy(), dag.copy(), par, y)


# -- the gauge integral ---------------------------------------------------------------


def integrator_increments(y: ManifoldControlledPath, gauge: Gauge, stensor: CompatibilityTensor, i, j):
    """The corrected increment pair over index pairs (i, j).

    Returns (first, second): first = psi(y_i, y_j) + S(y' (x) y' areas) in
    T_{y_i}M and second = (I (x) y') areas in W (x) T_{y_i}M.
    """
    i = np.asarray(i)
    j = np.asarray(j)
    psi = gauge.psi_batch(y.points[i], y.points[j])
    areas = y.driver.area_pairs(i, j)
    ydag = y.derivative[i]
    pushed = np.einsum("pda,peb,pab->pde", ydag, ydag, areas)
    corr = np.einsum("pcab,pab->pc", stensor.stack(y.points[i]), pushed)
    second = np.einsum("pab,pdb->pad", areas, ydag)
    return psi + corr, second


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
        d = y.manifold.domain_distance_batch(y.points[:-1], y.points[1:])
        bad = np.where(d >= y.manifold.gauge_radius)[0]
        if bad.size:
            raise DomainError(f"step {int(bad[0])} exits the gauge domain")
    else:
        for idx in range(n + 1):
            if not gauge.chart.contains(y.points[idx]):
                raise DomainError(f"sample {idx} exits chart {gauge.chart.name}")
    stensor = gauge.compatibility()
    i = np.arange(n)
    first, second = integrator_increments(y, gauge, stensor, i, i + 1)
    steps = np.einsum("pnd,pd->pn", a.alpha[:-1], first) + np.einsum(
        "pnad,pad->pn", a.alpha_dag[:-1], second
    )
    values = np.zeros((n + 1, a.value_dim))
    np.cumsum(steps, axis=0, out=values[1:])
    deriv = np.einsum("pnd,pdk->pnk", a.alpha, y.derivative)
    return ControlledPath(y.times, values, deriv)


def gauge_local_defect(a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge, stensor=None):
    """Max almost-additivity defect of the one-step expression over triples."""
    stensor = stensor or gauge.compatibility()

    def expr(ii, jj):
        first, second = integrator_increments(y, gauge, stensor, ii, jj)
        return np.einsum("pnd,pd->pn", a.alpha[ii], first) + np.einsum(
            "pnad,pad->pn", a.alpha_dag[ii], second
        )

    return triple_defect(expr, y.times.size - 1)


def gauge_defect_by_level(a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge, levels=5):
    """Local defect measured on successive dyadic coarsenings (finest first)."""
    stensor = gauge.compatibility()
    hs, defects = dyadic_ladder(lambda yy, aa: gauge_local_defect(aa, yy, gauge, stensor), (y, a), levels, 4)
    return list(zip(hs, defects))


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


def chart_formula_integral(alpha_fn, y: ManifoldControlledPath, chart) -> ControlledPath:
    """Chart evaluation of the smooth one-form integral (single-chart paths).

    Pushes the path through the chart and integrates the pulled-back form with
    the flat compensated sum; equals the gauge integral to the global order.
    """
    n = y.times.size
    zs = np.stack([chart.to_coords(y.points[i]) for i in range(n)])
    zdag = np.stack([chart.dto(y.points[i]) @ y.derivative[i] for i in range(n)])

    def pulled(x):
        return np.asarray(alpha_fn(chart.from_coords(x)), dtype=float) @ chart.dfrom(x)

    return flat_smooth_integral(pulled, ControlledPath(y.times, zs, zdag), y.driver)


def flat_smooth_integral(alpha_fn, z: ControlledPath, rp: RoughPath) -> ControlledPath:
    """Compensated sum for a smooth matrix one-form along a flat controlled path."""
    n = z.times.size
    vals = z.values
    a0 = np.asarray(alpha_fn(vals[0]), dtype=float)
    out = np.zeros((n, a0.shape[0]))
    deriv = np.empty((n, a0.shape[0], z.driver_dim))
    alphas = np.empty((n,) + a0.shape)
    for i in range(n):
        alphas[i] = np.asarray(alpha_fn(vals[i]), dtype=float)
        deriv[i] = alphas[i] @ z.derivative[i]
    d = vals.shape[1]
    for i in range(n - 1):
        first = alphas[i] @ (vals[i + 1] - vals[i])
        x = vals[i]
        h = FD_STEP * max(1.0, float(np.max(np.abs(x))))
        grad = np.empty(a0.shape + (d,))  # (m, d_out, d_in)
        for j, e in enumerate(np.eye(d)):
            grad[..., j] = richardson_diff(lambda eps, _e=e: np.asarray(alpha_fn(x + eps * _e), float), h)
        area = rp.step_areas[i]
        second = np.einsum("mej,ab,ja,eb->m", grad, area, z.derivative[i], z.derivative[i])
        out[i + 1] = out[i] + first + second
    return ControlledPath(z.times, out, deriv)


# -- structural checks -----------------------------------------------------------------


def fundamental_theorem(f, df, y: ManifoldControlledPath, gauge: Gauge):
    """Endpoint identity for exact forms plus the exact derivative identity."""

    def alpha_fn(m):
        return np.asarray(df(m), dtype=float)[None, :]

    z = integrate_smooth_oneform(alpha_fn, y, gauge)
    endpoint = float(f(y.points[-1]) - f(y.points[0]))
    resid = abs(float(z.values[-1, 0]) - endpoint)
    dmax = 0.0
    for i in range(y.times.size):
        want = np.asarray(df(y.points[i]), dtype=float) @ y.derivative[i]
        dmax = max(dmax, float(np.max(np.abs(z.derivative[i, 0] - want))))
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


def integrator_difference_defect(y: ManifoldControlledPath, g1: Gauge, g2: Gauge):
    """Per-level defect of the two-gauge integrator identity (first components)."""
    s12 = compatibility_tensor(g2.par, g1.par, y.manifold)
    s1 = g1.compatibility()
    s2 = g2.compatibility()
    n = y.times.size - 1
    i = np.arange(n)
    f1, _ = integrator_increments(y, g1, s1, i, i + 1)
    f2, _ = integrator_increments(y, g2, s2, i, i + 1)
    ydag = y.derivative[: n]
    pushed = np.einsum("pda,peb,pab->pde", ydag, ydag, y.driver.step_areas)
    corr = np.einsum("pcab,pab->pc", s12.stack(y.points[:n]), pushed)
    return float(np.max(np.linalg.norm(f1 - f2 - corr, axis=-1)))


def log_almost_additivity_defect(y: ManifoldControlledPath, gauge: Gauge):
    """Max defect of the logarithm three-point identity over consecutive triples."""
    n = y.times.size - 1
    worst = 0.0
    for i in range(n - 1):
        m, t, u = y.points[i], y.points[i + 1], y.points[i + 2]
        lhs = gauge.psi(t, u)
        d2 = gauge.d2psi(t, m)
        rhs = d2 @ (gauge.psi(m, u) - gauge.psi(m, t))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def transport_commutation_defect(y: ManifoldControlledPath, u_tilde: Parallelism, u: Parallelism):
    """Max defect of S o U^(x)2 - U o S over consecutive pairs."""
    s = compatibility_tensor(u_tilde, u, y.manifold)
    n = y.times.size - 1
    worst = 0.0
    for i in range(n):
        m, t = y.points[i], y.points[i + 1]
        umat = u.matrix(t, m)
        s_t = s.at(t)
        s_m = s.at(m)
        lhs = np.einsum("cab,ad,be->cde", s_t, umat, umat)
        rhs = np.einsum("cf,fde->cde", umat, s_m)
        p = y.manifold.tangent_projector(m)
        diff = np.einsum("cde,df,eg->cfg", lhs - rhs, p, p)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst
