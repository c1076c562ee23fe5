"""The paper's constructions and checks that tests compare the library against.

Nothing in ``crp`` calls these.  They are references (the frame-bundle
construction of a connection form and its horizontal lift, the chart route to
the smooth one-form integral, the Levi-Civita connection of a coordinate metric)
or checks of identities the library's maps satisfy (logarithm almost
additivity, the two-gauge integrator identity, superadditivity of a control),
and the per-level copies of a path on coarser grids that the library's
stride reads of one fine grid are compared against, the left-fold area that
``RoughPath.area_pairs`` is compared against, the Richardson stencil that calls
its function once per level, and the product of two manifolds.
Tests import them from here; pytest puts this directory on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from crp.controlled import ControlledPath, dyadic_strides
from crp.controls import Control
from crp.convergence import estimate_order
from crp.errors import DomainError, InvalidGrid, OffGrid, ShapeError
from crp.fixtures import LINE
from crp.gauges import Gauge, Parallelism, compatibility_tensor, connection_gauge, logarithm_gauge
from crp.linalg import FD_STEP, hat, norm, pointwise, richardson_combine, vee
from crp.manifolds import Chart, ChartManifold, Manifold, SO3
from crp.mcrp import ManifoldControlledPath, crp_pushforward
from crp.mrde import gauge_form_defects
from crp.oneforms import ControlledOneForm, integrate_smooth_oneform, integrator_increments
from crp.pairs import sampled_triples
from crp.roughpath import RoughPath
from crp.sewing import rough_integrate
from crp.transport import FrameLift, group_rde

SUPERADD_SLACK = 1e-12
TAYLOR_FD_STEP = 1e-3


# ---------------------------------------------------------------------------
# per-level copies on dyadic coarsenings
# ---------------------------------------------------------------------------


def coarsen(obj):
    """``obj`` on the grid of every other node: a rough path, a controlled path, a manifold path (with
    its driver) or a one-form (with its path).  A rough path's block areas are its Chen compositions
    over the fine steps (``area_pairs``), re-summed on the coarse grid."""
    n = obj.times.size - 1
    if n % 2:
        raise InvalidGrid(f"cannot coarsen {n} steps by 2")
    idx = np.arange(0, n + 1, 2)
    if isinstance(obj, RoughPath):
        areas = obj.area_pairs(idx[:-1], idx[1:])
        return RoughPath(obj.times[idx], obj.values[idx], areas, obj.control.restrict(obj.times[idx]))
    if isinstance(obj, ControlledPath):
        return ControlledPath(obj.times[idx], obj.values[idx], obj.derivative[idx])
    if isinstance(obj, ManifoldControlledPath):
        driver = coarsen(obj.driver)
        return ManifoldControlledPath(obj.manifold, obj.times[idx], obj.points[idx], obj.derivative[idx], driver)
    return ControlledOneForm(obj.times[idx], obj.alpha[idx], obj.alpha_dag[idx], obj.parallelism, coarsen(obj.path))


def dyadic_ladder(measure, objs, levels, min_steps):
    """``(hs, rows)``, finest first: ``measure(*objs)`` on the grid and on each coarser grid of
    ``dyadic_strides``, every object copied there by ``coarsen``; the meshes are the first object's."""
    strides, hs = dyadic_strides(objs[0].times, levels, min_steps)
    rows = []
    for s in strides:
        if s > 1:
            objs = [coarsen(o) for o in objs]
        rows.append(measure(*objs))
    return hs, rows


# ---------------------------------------------------------------------------
# finite differences: the Richardson stencil one level at a time
# ---------------------------------------------------------------------------


def richardson_levels(f, h):
    """``linalg.richardson_combine`` of ``f`` at 0 from four calls, f(h), f(-h), f(h/2) and f(-h/2): the
    per-level stencil that ``linalg.richardson_diff``'s one call on the four stacked steps replaced."""
    return richardson_combine(np.asarray(f(h)), np.asarray(f(-h)), np.asarray(f(h / 2.0)), np.asarray(f(-h / 2.0)), h)


def derivative_along_by_level(mani: Manifold, ms, vs, g, h=1e-4):
    """``Manifold.derivative_along`` with one ``g`` call per stencil level, on the rows with |v| >= 1e-14."""
    ms, vs = np.asarray(ms, dtype=float), np.asarray(vs, dtype=float)
    nv = np.linalg.norm(vs, axis=-1)
    live = np.flatnonzero(nv >= 1e-14)
    bases, us = ms[live], mani.unflatten(vs[live] / nv[live, None])
    eps_shape = (live.size,) + (1,) * len(mani.point_shape)
    d = richardson_levels(lambda e: g(mani.curve(bases, us, np.full(eps_shape, e)), bases), h)
    out = np.zeros((len(ms),) + d.shape[1:])
    out[live] = nv[live].reshape((-1,) + (1,) * (d.ndim - 1)) * d
    return out


def chart_rep_derivative_by_level(matrices, chart: Chart, ms, xs, dto_ms):
    """``manifolds.chart_rep_derivative`` with one chart read and one call of each parallelism per stencil level."""
    n, d = xs.shape
    m_rows, dto_rows = (np.repeat(a, d, axis=0) for a in (ms, dto_ms))  # row p d + j: point p, direction j

    def ubar(eps):  # (k, P, j, c, b)
        y = (xs[:, None, :] + eps.reshape(n, 1, 1) * np.eye(d)).reshape(n * d, d)
        p, dfrom_y = chart.from_coords(y), chart.dfrom(y)
        return np.stack([dto_rows @ matrix(m_rows, p) @ dfrom_y for matrix in matrices]).reshape((-1, n) + (d,) * 3)

    h = FD_STEP * np.maximum(1.0, norm(xs))
    return np.swapaxes(richardson_levels(ubar, h.reshape(n, 1, 1, 1)), 2, 3)


# ---------------------------------------------------------------------------
# rough paths: the left fold of the steps
# ---------------------------------------------------------------------------


def left_fold_area(rp: RoughPath, i, j):
    """Second-level tensor over [t_i, t_j] by left-fold composition."""
    if j < i:
        raise OffGrid("need i <= j")
    k = rp.dim
    out = np.zeros((k, k))
    for m in range(i, j):
        out += rp.step_areas[m] + np.outer(rp.values[m] - rp.values[i], rp.values[m + 1] - rp.values[m])
    return out


# ---------------------------------------------------------------------------
# connection one-forms and horizontal lifts on trivial bundles
# ---------------------------------------------------------------------------


@dataclass
class ConnectionForm:
    """Connection on the trivial bundle M x SO(3), reconstructed from a base form.

    ``gamma(m)`` returns the (3, D) matrix of the so(3)-valued base one-form in
    vee coordinates; the full form on the product is
    omega(v, xi) = theta(xi) + Ad_{g^-1} gamma(v).
    """

    manifold: Manifold
    gamma: Callable

    def gamma_matrix(self, m):
        return np.asarray(self.gamma(m), dtype=float)

    def omega(self, m, g, v_flat, xi_mat):
        """Algebra value (vee coords) of the form on a product tangent."""
        ginv = np.linalg.inv(g)
        theta = ginv @ xi_mat
        ad = ginv @ hat(self.gamma_matrix(m) @ v_flat) @ g
        return vee(theta + ad)

    def axiom_residuals(self, rng=None, n_samples=8):
        """Def axioms: vertical reproduction and Ad-equivariance at samples."""
        rng = rng or np.random.default_rng(5)
        worst_vert = 0.0
        worst_ad = 0.0
        for _ in range(n_samples):
            m = self.manifold.random_point(rng)
            g = SO3().random_point(rng)
            a = rng.standard_normal(3)
            xi = g @ hat(a)
            got = self.omega(m, g, np.zeros(self.manifold.flat_dim), xi)
            worst_vert = max(worst_vert, float(np.max(np.abs(got - a))))
            v = self.manifold.flatten(self.manifold.random_tangent(rng, m))
            h = SO3().random_point(rng)
            lhs = self.omega(m, g @ h, v, xi @ h)
            hinv = np.linalg.inv(h)
            rhs = vee(hinv @ hat(self.omega(m, g, v, xi)) @ h)
            worst_ad = max(worst_ad, float(np.max(np.abs(lhs - rhs))))
        return {"vertical": worst_vert, "equivariance": worst_ad}


@dataclass
class HorizontalLift:
    """Lift (y, g) of a base path, with the integrated connection values."""

    base: ManifoldControlledPath
    group_path: ManifoldControlledPath
    connection: ConnectionForm
    z: ControlledPath  # integral of the base connection form along y

    def product_path(self) -> ManifoldControlledPath:
        prod = ProductManifold(self.base.manifold, SO3())
        pts = np.stack([prod.join(m, g) for m, g in zip(self.base.points, self.group_path.points)])
        deriv = np.concatenate([self.base.derivative, self.group_path.derivative], axis=1)
        return ManifoldControlledPath(prod, self.base.times, pts, deriv, self.base.driver)

    def omega_form(self):
        conn = self.connection
        prod = ProductManifold(self.base.manifold, SO3())
        d1 = self.base.manifold.flat_dim

        def alpha(p):
            m, g = prod.split(p)
            ginv, gam = np.linalg.inv(g), conn.gamma_matrix(m)
            # columns: the base unit tangents, then the fiber unit tangents
            vals = [ginv @ hat(gam @ e) @ g for e in np.eye(d1)]
            vals += [ginv @ e.reshape(g.shape) for e in np.eye(prod.flat_dim - d1)]
            return np.stack([vee(v) for v in vals], axis=1)

        return alpha, prod

    def horizontality_residual(self):
        """Sup of the partial sums of the connection form along the lift."""
        alpha, prod = self.omega_form()
        integ = integrate_smooth_oneform(alpha, self.product_path(), connection_gauge(prod))
        return float(np.max(np.abs(integ.values)))


def horizontal_lift(y: ManifoldControlledPath, conn: ConnectionForm, u0_group) -> HorizontalLift:
    """Unique horizontal lift through (y_0, u0_group).

    Integrates the base connection form along y and solves the group equation
    driven by the result; right translation by the fiber initial condition is
    exact by construction.
    """
    z = integrate_smooth_oneform(conn.gamma_matrix, y, connection_gauge(y.manifold))
    g = group_rde(z, y.driver, u0_group)
    return HorizontalLift(base=y, group_path=g, connection=conn, z=z)


def vertical_horizontal_split(conn: ConnectionForm, m, g, rng=None, n_samples=6):
    """Split residual: tangents decompose into vertical plus horizontal parts.

    The horizontal lift of a base direction v is (v, -Gamma(v)^ g); the
    vertical remainder projects to zero on the base by construction.  Returns
    the worst of: the form on horizontal lifts, and the reconstruction of the
    form value from the vertical part alone.
    """
    rng = rng or np.random.default_rng(9)
    mani = conn.manifold
    worst = 0.0
    for _ in range(n_samples):
        v = mani.flatten(mani.random_tangent(rng, m))
        xi = g @ hat(rng.standard_normal(3))
        xi_h = -hat(conn.gamma_matrix(m) @ v) @ g
        worst = max(worst, float(np.max(np.abs(conn.omega(m, g, v, xi_h)))))
        vert = xi - xi_h
        res = conn.omega(m, g, np.zeros_like(v), vert) - conn.omega(m, g, v, xi)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def frame_transport_defect(lift: FrameLift, step=1):
    """Max |u_t - U(y_t, y_s) u_s| over pairs ``step`` indices apart."""
    y = lift.base
    i = np.arange(0, y.times.size - step, step)
    u = y.manifold.transport(y.points[i + step], y.points[i])
    return float(np.max(np.abs(lift.frames[i + step] - u @ lift.frames[i]), initial=0.0))


# ---------------------------------------------------------------------------
# one-forms: the chart route to the integral and the gauge identities
# ---------------------------------------------------------------------------


def oneform_from_flat(alpha_cp: ControlledPath, y: ManifoldControlledPath, par: Parallelism) -> ControlledOneForm:
    """Adapter: a flat matrix-valued controlled integrand viewed as a one-form."""
    if alpha_cp.values.ndim != 3:
        raise ShapeError("flat integrand must be matrix-valued")
    alpha = alpha_cp.values
    dag = np.transpose(alpha_cp.derivative, (0, 1, 3, 2))  # (N+1, n, k, D)
    return ControlledOneForm(y.times, alpha.copy(), dag.copy(), par, y)


def chart_formula_integral(alpha_fn, y: ManifoldControlledPath, chart) -> ControlledPath:
    """Chart evaluation of the smooth one-form integral (single-chart paths).

    Pushes the path through the chart and integrates the pulled-back form with
    the flat compensated sum; equals the gauge integral to the global order.
    """
    zs, zdag = chart.to_coords(y.points), chart.dto(y.points) @ y.derivative

    def pulled(x):
        return np.asarray(alpha_fn(chart.from_coords(x)), dtype=float) @ chart.dfrom(x)

    return flat_smooth_integral(pulled, ControlledPath(y.times, zs, zdag), y.driver)


def flat_smooth_integral(alpha_fn, z: ControlledPath, rp: RoughPath) -> ControlledPath:
    """``sewing.rough_integrate`` of a smooth matrix one-form along a flat controlled path.

    The integrand's derivative is grad(alpha) z': the gradient along the d coordinate
    axes by one Richardson stencil over every node, its step relative to the node's largest entry.
    Values go through ``linalg.pointwise``: one of another shape than the first node's raises
    ``ShapeError``, a non-finite one ``DomainError``.
    """
    x = z.values
    n, d = x.shape
    alphas = pointwise(alpha_fn, x, "one-form value at node")

    def alpha_at(eps):  # alpha at x_i + eps_i e_j, shape (N+1, d, m, d)
        pts = (x[:, None, :] + eps.reshape(n, 1, 1) * np.eye(d)).reshape(n * d, d)
        return pointwise(alpha_fn, pts, "one-form value at stencil point", alphas.shape[1:]).reshape((n, d) + alphas.shape[1:])

    grad = richardson_levels(alpha_at, FD_STEP * np.maximum(1.0, np.max(np.abs(x), axis=1))[:, None, None, None])
    dag = np.einsum("njme,nja->nmea", grad, z.derivative)
    return rough_integrate(ControlledPath(z.times, alphas, dag), z, rp)


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
    m, t, u = y.points[:-2], y.points[1:-1], y.points[2:]
    rhs = (gauge.d2psi(t, m) @ (gauge.psi(m, u) - gauge.psi(m, t))[..., None])[..., 0]
    return float(np.max(np.linalg.norm(gauge.psi(t, u) - rhs, axis=-1), initial=0.0))


def transport_commutation_defect(y: ManifoldControlledPath, u_tilde: Parallelism, u: Parallelism):
    """Max defect of S o U^(x)2 - U o S over consecutive pairs."""
    m, t = y.points[:-1], y.points[1:]
    s = compatibility_tensor(u_tilde, u, y.manifold).stack(y.points)
    umat = u.matrix(t, m)
    lhs = np.einsum("ncab,nad,nbe->ncde", s[1:], umat, umat)
    rhs = np.einsum("ncf,nfde->ncde", umat, s[:-1])
    p = y.manifold.tangent_projector(m)
    return float(np.max(np.abs(np.einsum("ncde,ndf,neg->ncfg", lhs - rhs, p, p)), initial=0.0))


def line_quadratic_gauge(c=0.3):
    def psi(m, n):
        d = float(n[0] - m[0])
        return np.array([d + c * d * d])

    return logarithm_gauge(
        LINE, psi, d2_fn=lambda m, n: np.array([[1.0 + 2.0 * c * float(n[0] - m[0])]]), name="quadratic"
    )


# ---------------------------------------------------------------------------
# manifold paths, RDE solves and manifolds
# ---------------------------------------------------------------------------


def basepoint_residual(y: ManifoldControlledPath):
    """Max |(I - P(y_i)) y'_i| over samples."""
    p = y.manifold.tangent_projector(y.points)
    return float(np.max(np.abs(y.derivative - p @ y.derivative), initial=0.0))


def pushforward_covariance_residual(f, jf, g, jg, y: ManifoldControlledPath, mid: Manifold, target: Manifold):
    """Max mismatch between pushing through g o f and the composition of pushes."""
    yf = crp_pushforward(f, jf, y, mid)
    ygf = crp_pushforward(g, jg, yf, target)

    def comp(p):
        return g(f(p))

    def jcomp(p):
        return np.asarray(jg(f(p)), dtype=float) @ np.asarray(jf(p), dtype=float)

    direct = crp_pushforward(comp, jcomp, y, target)
    return max(
        float(np.max(np.abs(direct.flat_points() - ygf.flat_points()))),
        float(np.max(np.abs(direct.derivative - ygf.derivative))),
    )


def check_rde_gauge_form(y: ManifoldControlledPath, field, gauge: Gauge, levels=4, check_split=False):
    """Per-level gauge-form defects (finest first) for slope fitting.

    The split form is checked on the finest grid only.
    """
    hs, reps = dyadic_ladder(
        lambda cur: gauge_form_defects(cur, field, gauge, check_split=check_split and cur is y), (y,), levels, 4
    )
    return {"levels": [(h, r["defect"]) for h, r in zip(hs, reps)], "split_residual": reps[0]["split_residual"]}


def manifold_taylor_check(manifold: Manifold, f, df, hess=None, rng=None, scales=None, n_dirs=3):
    """Second-order intrinsic Taylor remainder decay along random geodesics.

    ``df(m)`` is the flattened differential; ``hess(m, v)`` evaluates the
    covariant second derivative on v (x) v (finite differences along geodesics
    when omitted).  Returns per-scale worst remainders and the fitted slope.
    """
    rng = rng or np.random.default_rng(11)
    scales = scales if scales is not None else [0.2 / 2**j for j in range(5)]
    if hess is None:

        def hess(m, v, _f=f):
            h = TAYLOR_FD_STEP
            vv = manifold.unflatten(v)
            d1 = (_f(manifold.exp(m, h * vv)) - 2.0 * _f(m) + _f(manifold.exp(m, -h * vv))) / h**2
            d2 = (_f(manifold.exp(m, 0.5 * h * vv)) - 2.0 * _f(m) + _f(manifold.exp(m, -0.5 * h * vv))) / (
                0.25 * h**2
            )
            return (4.0 * d2 - d1) / 3.0

    dirs = []
    for _ in range(n_dirs):
        m = manifold.random_point(rng)
        v = manifold.flatten(manifold.random_tangent(rng, m))
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            dirs.append((m, v / nv))
    if not dirs:
        raise DomainError(f"a Taylor check needs at least one direction, got none of {n_dirs}")
    errs = []
    for s in scales:
        worst = 0.0
        for m, v in dirs:
            n = manifold.exp(m, s * manifold.unflatten(v))
            rem = f(n) - f(m) - s * float(df(m) @ v) - 0.5 * s**2 * float(hess(m, v))
            worst = max(worst, abs(rem))
        errs.append(worst)
    slope, const, exact = estimate_order(errs, scales, discard_coarsest=False)
    return {
        "scales": scales,
        "remainders": errs,
        "slope": slope if not exact else float("inf"),
        "exact": exact,
        "pass": exact or slope >= 2.75,
    }


def from_metric(dim, metric, radius=10.0, center=None, h_geo=0.01) -> ChartManifold:
    """Chart manifold with the Levi-Civita connection of a coordinate metric.

    ``metric(xs)`` maps a point or a stack (..., d) to Gram matrices (..., d, d);
    dg[..., i, j, l] = d g_{ij} / d x_l is one Richardson stencil over the stack.
    """

    def gamma(xs):
        xs = np.asarray(xs, dtype=float)
        h = FD_STEP * np.maximum(1.0, norm(xs))[..., None, None, None]
        # stencil point l moves x along e_l: Gram matrices (..., l, i, j)
        dg = np.moveaxis(richardson_levels(lambda e: metric(xs[..., None, :] + e[..., 0] * np.eye(dim)), h), -3, -1)
        # Gamma^i_{jl} = g^{im}(dg[m,l,j] + dg[m,j,l] - dg[j,l,m]) / 2
        ginv = np.linalg.inv(metric(xs))
        return 0.5 * np.einsum("...im,...mjl->...ijl", ginv, np.swapaxes(dg, -1, -2) + dg - np.swapaxes(dg, -1, -3))

    return ChartManifold(dim, radius=radius, center=center, gamma=gamma, h_geo=h_geo)


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------


def check_superadditive(control: Control, times, rng=None, max_triples=200_000):
    """Largest violation of superadditivity over grid triples.

    Checks every triple when the count is small, otherwise a seeded sample.
    Returns the worst value of omega(s,t) + omega(t,u) - omega(s,u)
    (positive means violation beyond the documented slack).
    """
    t = np.asarray(times, dtype=float)
    if t.size < 3:
        return 0.0
    i, j, k = sampled_triples(t.size, max_triples, rng)
    osu = control.omega(t[i], t[k])
    viol = control.omega(t[i], t[j]) + control.omega(t[j], t[k]) - osu - SUPERADD_SLACK * np.maximum(1.0, osu)
    return float(np.max(viol))


# ---------------------------------------------------------------------------
# products: a manifold built from two factors, with the componentwise
# connection.  It is the total space M x G of the horizontal lift above, and a
# two-factor geometry (a gauge radius and compatibility tensors from both
# factors) that tests run the library's stacked maps on.
# ---------------------------------------------------------------------------


class ProductManifold(Manifold):
    """Product with componentwise connection; points are concatenated flats."""

    def __init__(self, first: Manifold, second: Manifold):
        self.first = first
        self.second = second
        self.name = f"{first.name}*{second.name}"
        self.dim = first.dim + second.dim
        self.point_shape = (first.flat_dim + second.flat_dim,)

    def split(self, p):
        p = np.asarray(p, dtype=float)
        d1 = self.first.flat_dim
        return self.first.unflatten(p[..., :d1]), self.second.unflatten(p[..., d1:])

    def join(self, a, b):
        return np.concatenate([self.first.flatten(a), self.second.flatten(b)], axis=-1)

    def project(self, p):
        a, b = self.split(p)
        return self.join(self.first.project(a), self.second.project(b))

    def tangent_projector(self, p):
        a, b = self.split(p)
        return _block_diag(self.first.tangent_projector(a), self.second.tangent_projector(b))

    def exp(self, m, v):
        a, b = self.split(m)
        va, vb = self.split(v)
        return self.join(self.first.exp(a, va), self.second.exp(b, vb))

    def log(self, m, n):
        a, b = self.split(m)
        na, nb = self.split(n)
        return self.join(self.first.log(a, na), self.second.log(b, nb))

    def transport(self, to_pt, from_pt):
        a1, b1 = self.split(to_pt)
        a0, b0 = self.split(from_pt)
        return _block_diag(self.first.transport(a1, a0), self.second.transport(b1, b0))

    def d2log(self, m, n):
        a, b = self.split(m)
        na, nb = self.split(n)
        return _block_diag(self.first.d2log(a, na), self.second.d2log(b, nb))

    def torsion_tensor(self, m):
        # the componentwise connection only twists vectors of one factor
        a, b = self.split(m)
        d1 = self.first.flat_dim
        out = np.zeros(self._lead(m) + (self.flat_dim,) * 3)
        out[..., :d1, :d1, :d1] = self.first.torsion_tensor(a)
        out[..., d1:, d1:, d1:] = self.second.torsion_tensor(b)
        return out

    @property
    def gauge_radius(self):
        return min(self.first.gauge_radius, self.second.gauge_radius)

    def distance(self, m, n):
        a, b = self.split(m)
        na, nb = self.split(n)
        return np.hypot(self.first.distance(a, na), self.second.distance(b, nb))

    def charts(self):
        out = []
        for c1 in self.first.charts():
            for c2 in self.second.charts():
                out.append(self._product_chart(c1, c2))
        return out

    def _product_chart(self, c1: Chart, c2: Chart):
        # each factor from its own centre: inside the product ball each factor is inside its own
        centers = [np.zeros(c.dim) if c.center_coords is None else c.center_coords for c in (c1, c2)]

        def to_coords(p):
            a, b = self.split(p)
            return np.concatenate([c1.to_coords(a), c2.to_coords(b)], axis=-1)

        def from_coords(x):
            x = np.asarray(x, dtype=float)
            return self.join(c1.from_coords(x[..., : c1.dim]), c2.from_coords(x[..., c1.dim :]))

        def dto(p):
            a, b = self.split(p)
            return _block_diag(c1.dto(a), c2.dto(b))

        def dfrom(x):
            x = np.asarray(x, dtype=float)
            return _block_diag(c1.dfrom(x[..., : c1.dim]), c2.dfrom(x[..., c1.dim :]))

        return Chart(
            name=f"{c1.name}*{c2.name}",
            dim=c1.dim + c2.dim,
            to_coords=to_coords,
            from_coords=from_coords,
            dto=dto,
            dfrom=dfrom,
            radius=min(c1.radius, c2.radius),
            center_coords=np.concatenate(centers),
        )

    def random_point(self, rng):
        return self.join(self.first.random_point(rng), self.second.random_point(rng))

    def same_geometry(self, other):
        return self is other or (
            isinstance(other, ProductManifold)
            and self.first.same_geometry(other.first)
            and self.second.same_geometry(other.second)
        )


def _block_diag(a, b):
    """Block-diagonal stack of two stacks of matrices with the same leading axes."""
    (m, n), (k, l) = a.shape[-2:], b.shape[-2:]
    out = np.zeros(a.shape[:-2] + (m + k, n + l))
    out[..., :m, :n] = a
    out[..., m:, n:] = b
    return out
