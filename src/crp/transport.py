"""Principal-bundle machinery: connection forms, group RDEs, frame transport,
and the development/anti-development correspondence."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .controlled import ControlledPath, check_same_grid, pushed_step_areas
from .errors import DomainError, NotOnManifold, ShapeError
from .flatrde import EXPLOSION_BOUND, linear_flow
from .gauges import Gauge, connection_gauge
from .linalg import SO3_BASIS, hat, vee
from .manifolds import Chart, ChartManifold, Manifold, ProductManifold, SO3
from .mcrp import BASEPOINT_TOL, ManifoldControlledPath
from .mrde import ChartWalk, ManifoldDrivingField, _chart_step
from .oneforms import ControlledOneForm, gauge_integrate, integrate_smooth_oneform, oneform_from_stacks
from .roughpath import RoughPath
from .sewing import rough_integrate


# ---------------------------------------------------------------------------
# matrix groups
# ---------------------------------------------------------------------------


class MatrixGroup:
    """Thin interface over a matrix Lie group used by the group equation."""

    def __init__(self, kind, size=None):
        if kind == "so3":
            self.kind = "so3"
            self.size = 3
            self.alg_dim = 3
            self.manifold = SO3()
            self.basis = SO3_BASIS  # hat(e_a), shape (3, 3, 3)
        elif kind == "gl":
            if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
                raise ShapeError(f"GL(n) needs a positive integer n, got {size!r}")
            self.kind = "gl"
            self.size = int(size)
            self.alg_dim = self.size**2
            # GL(d) is an open subset of the flat R^{d x d}; points are matrices
            self.manifold = ChartManifold(self.alg_dim, radius=1e6, center=np.zeros((self.size, self.size)))
            self.basis = np.eye(self.alg_dim).reshape(self.alg_dim, self.size, self.size)  # alg_to_matrix(e_a)
        else:
            raise ShapeError(f"unknown group {kind!r}")

    def alg_to_matrix(self, a):
        if self.kind == "so3":
            return hat(a)
        return np.asarray(a, dtype=float).reshape(self.size, self.size)

    def matrix_to_alg(self, m):
        if self.kind == "so3":
            return vee(m)
        return np.asarray(m, dtype=float).reshape(-1)

    def identity(self):
        return np.eye(self.size)


# ---------------------------------------------------------------------------
# connection one-forms on trivial bundles
# ---------------------------------------------------------------------------


@dataclass
class ConnectionForm:
    """Connection on the trivial bundle M x G, reconstructed from a base form.

    ``gamma(m)`` returns the (alg_dim, D) matrix of the algebra-valued base
    one-form in vee coordinates; the full form on the product is
    omega(v, xi) = theta(xi) + Ad_{g^-1} gamma(v).
    """

    manifold: Manifold
    group: MatrixGroup
    gamma: Callable

    def gamma_matrix(self, m):
        return np.asarray(self.gamma(m), dtype=float)

    def omega(self, m, g, v_flat, xi_mat):
        """Algebra value (vee coords) of the form on a product tangent."""
        ginv = np.linalg.inv(g)
        theta = ginv @ xi_mat
        ad = ginv @ self.group.alg_to_matrix(self.gamma_matrix(m) @ v_flat) @ g
        return self.group.matrix_to_alg(theta + ad)

    def axiom_residuals(self, rng=None, n_samples=8):
        """Def axioms: vertical reproduction and Ad-equivariance at samples."""
        rng = rng or np.random.default_rng(5)
        worst_vert = 0.0
        worst_ad = 0.0
        for _ in range(n_samples):
            m = self.manifold.random_point(rng)
            g = self.group.manifold.random_point(rng)
            a = rng.standard_normal(self.group.alg_dim)
            xi = g @ self.group.alg_to_matrix(a)
            got = self.omega(m, g, np.zeros(self.manifold.flat_dim), xi)
            worst_vert = max(worst_vert, float(np.max(np.abs(got - a))))
            v = self.manifold.flatten(self.manifold.random_tangent(rng, m))
            h = self.group.manifold.random_point(rng)
            lhs = self.omega(m, g @ h, v, xi @ h)
            hinv = np.linalg.inv(h)
            rhs = self.group.matrix_to_alg(hinv @ self.group.alg_to_matrix(self.omega(m, g, v, xi)) @ h)
            worst_ad = max(worst_ad, float(np.max(np.abs(lhs - rhs))))
        return {"vertical": worst_vert, "equivariance": worst_ad}


def right_invariant_field(group: MatrixGroup) -> ManifoldDrivingField:
    """F_a(g) = -hat(a) g on the group manifold (driver = algebra coords)."""
    return ManifoldDrivingField.linear(group.manifold, -group.basis, name=f"right-invariant({group.kind})")


def group_rde(z: ControlledPath, rp: RoughPath, g0, group: MatrixGroup) -> ManifoldControlledPath:
    """Solve dg = -(dz) g from g0 along the rough path associated to z.

    The equation is linear in g, so ``flatrde.linear_flow`` solves it from the identity
    on the whole grid from z's increments and step areas z' (x) z' . A: GL(d) by the
    additive step, exploding where an entry passes the group chart's radius, SO(3) by
    the exponential step, orthogonal without retraction.  Right translation by g0 gives
    the same solution by right invariance and makes equivariance exact.  The returned
    path is controlled by the original driver (chain rule through z').
    """
    check_same_grid(z.times, rp.times)
    g0 = np.asarray(g0, dtype=float)
    s = group.size
    if g0.shape != (s, s):
        raise ShapeError(f"g0 has shape {g0.shape}, the group acts on ({s}, {s}) matrices")
    if z.values.shape[1:] != (group.alg_dim,):
        raise ShapeError(f"z takes values of shape {z.values.shape[1:]}, the algebra has dimension {group.alg_dim}")
    scheme, bound = ("davie", group.manifold.radius) if group.kind == "gl" else ("exp", EXPLOSION_BOUND)
    dz, areas = np.diff(z.values, axis=0), pushed_step_areas(z, rp)
    pts = linear_flow(-group.basis, rp.times, dz, areas, None, scheme, bound) @ g0
    # column a of g' is -(z'_a)^ g, with z'_a the algebra element of column a of z's derivative
    gens = np.einsum("bij,pba->paij", group.basis, z.derivative)
    deriv = np.moveaxis(-(gens @ pts[:, None]), 1, -1).reshape(-1, s * s, rp.dim)
    out = ManifoldControlledPath(group.manifold, rp.times, pts, deriv, rp)
    out.meta = {"chart_switches": [], "retraction": False}
    return out


def right_maurer_cartan_form(group: MatrixGroup):
    """theta_r as a smooth algebra-valued one-form on the group manifold."""

    def alpha(g):
        g = np.asarray(g, dtype=float)
        ginv = np.linalg.inv(g)
        rows = []
        for i in range(group.manifold.flat_dim):
            xi = np.zeros(group.manifold.flat_dim)
            xi[i] = 1.0
            rows.append(group.matrix_to_alg(xi.reshape(g.shape) @ ginv))
        return np.stack(rows, axis=1)

    return alpha


def maurer_cartan_check(gpath: ManifoldControlledPath, z: ControlledPath, group: MatrixGroup, gauge=None):
    """Residual of the inverse relation: integral of theta_r along g vs -z."""
    gauge = gauge or connection_gauge(group.manifold)
    integ = integrate_smooth_oneform(right_maurer_cartan_form(group), gpath, gauge)
    zc = z.values - z.values[0]
    return {
        "diff_sup": float(np.max(np.abs(integ.values + zc))),
        "integral": integ,
    }


# ---------------------------------------------------------------------------
# horizontal lifts on trivial bundles
# ---------------------------------------------------------------------------


@dataclass
class HorizontalLift:
    """Lift (y, g) of a base path, with the integrated connection values."""

    base: ManifoldControlledPath
    group_path: ManifoldControlledPath
    connection: ConnectionForm
    z: ControlledPath  # integral of the base connection form along y

    def product_path(self) -> ManifoldControlledPath:
        prod = ProductManifold(self.base.manifold, self.connection.group.manifold)
        pts = np.stack(
            [prod.join(self.base.points[i], self.group_path.points[i]) for i in range(self.base.times.size)]
        )
        deriv = np.concatenate([self.base.derivative, self.group_path.derivative], axis=1)
        return ManifoldControlledPath(prod, self.base.times, pts, deriv, self.base.driver)

    def omega_form(self):
        conn = self.connection
        prod = ProductManifold(self.base.manifold, conn.group.manifold)
        d1 = self.base.manifold.flat_dim

        def alpha(p):
            m, g = prod.split(p)
            ginv = np.linalg.inv(g)
            gam = conn.gamma_matrix(m)
            rows = np.empty((conn.group.alg_dim, prod.flat_dim))
            for c in range(prod.flat_dim):
                e = np.zeros(prod.flat_dim)
                e[c] = 1.0
                if c < d1:
                    val = ginv @ conn.group.alg_to_matrix(gam @ e[:d1]) @ g
                else:
                    val = ginv @ e[d1:].reshape(g.shape)
                rows[:, c] = conn.group.matrix_to_alg(val)
            return rows

        return alpha, prod

    def horizontality_residual(self):
        """Sup of the partial sums of the connection form along the lift."""
        alpha, prod = self.omega_form()
        integ = integrate_smooth_oneform(alpha, self.product_path(), connection_gauge(prod))
        return float(np.max(np.abs(integ.values)))


def horizontal_lift(y: ManifoldControlledPath, conn: ConnectionForm, u0_group, base_gauge=None) -> HorizontalLift:
    """Unique horizontal lift through (y_0, u0_group).

    Integrates the base connection form along y and solves the group equation
    driven by the result; right translation by the fiber initial condition is
    exact by construction.
    """
    base_gauge = base_gauge or connection_gauge(y.manifold)
    z = integrate_smooth_oneform(conn.gamma_matrix, y, base_gauge)
    g = group_rde(z, y.driver, u0_group, conn.group)
    return HorizontalLift(base=y, group_path=g, connection=conn, z=z)


# ---------------------------------------------------------------------------
# frame transport on chart trivializations
# ---------------------------------------------------------------------------


def chart_christoffels(manifold: Manifold, chart: Chart, x):
    """``manifold.chart_christoffels(chart, x)``: the connection coefficients in chart coordinates."""
    return manifold.chart_christoffels(chart, x)


@dataclass
class FrameLift:
    """Parallel frames along a base path (trivialized chart by chart)."""

    base: ManifoldControlledPath
    frames: np.ndarray  # (N+1, D, d) ambient frames
    segments: list = dc_field(default_factory=list)  # [(i0, i1, chart)]
    z_pieces: list = dc_field(default_factory=list)  # per-segment connection integrals

    def holonomy_angle(self):
        """Rotation angle of the loop holonomy in the initial frame (2d fibers)."""
        u0 = self.frames[0]
        hol = np.linalg.pinv(u0) @ self.frames[-1]
        return float(np.arctan2(hol[1, 0] - hol[0, 1], hol[0, 0] + hol[1, 1]))


def _check_frame(manifold: Manifold, u0):
    """``u0`` as a finite (D, d) frame matrix of ``manifold``."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (manifold.flat_dim, manifold.dim):
        raise ShapeError(f"frame has shape {u0.shape}, expected ({manifold.flat_dim}, {manifold.dim})")
    if not np.all(np.isfinite(u0)):
        raise DomainError("frame has non-finite entries")
    return u0


def parallel_translate_frame(y: ManifoldControlledPath, u0, atlas=None, base_gauge=None) -> FrameLift:
    """Parallel translation of a frame along y via the frame-bundle lift.

    On each chart segment the frame's chart representative is the horizontal
    lift for the GL(d) connection form A(x(m))<dto(m) .> of the chart connection
    coefficients A, evaluated on the nodes and once per Richardson stencil level;
    frame coordinates are converted at chart switches.  A one-node last segment
    (a switch at the last node) is skipped.
    """
    mani = y.manifold
    d = mani.dim
    u0 = _check_frame(mani, u0)
    base_gauge = base_gauge or connection_gauge(mani)
    group = MatrixGroup("gl", d)
    n = y.times.size
    walk = ChartWalk(mani, atlas, y.times, y.points[0])
    for i in range(1, n):
        walk.visit(i, y.points[i], walk.chart.margin(y.points[i]))
    segs = walk.close(n - 1)
    frames = np.empty((n, mani.flat_dim, d))
    frames[0] = u0
    z_pieces = []
    for (i0, i1, chart) in segs:
        if i1 == i0:
            continue  # a chart switch at the last node: the previous segment set frames[i0]
        pts = y.points[i0 : i1 + 1]
        xs = chart.to_coords(pts)

        def gamma(qs, where, xq=None):
            # gl(d) (row-major) values on ambient e_D: the matrices A(x(q))<dto(q) e_D>
            a = chart_christoffels(mani, chart, chart.to_coords(qs) if xq is None else xq)
            return np.einsum("pijl,pjD->pilD", a, chart.dto(qs)).reshape(len(qs), d * d, -1)

        sub = ManifoldControlledPath(
            mani, y.times[i0 : i1 + 1], pts, y.derivative[i0 : i1 + 1], y.driver.restrict(i0, i1)
        )
        form = oneform_from_stacks(gamma, sub, base_gauge.par, alpha=gamma(pts, "node", xq=xs))
        z = gauge_integrate(form, sub, base_gauge)
        g = group_rde(z, sub.driver, chart.dto(pts[0]) @ frames[i0], group)
        z_pieces.append(z)
        frames[i0 : i1 + 1] = chart.dfrom(xs) @ g.points
    return FrameLift(base=y, frames=frames, segments=segs, z_pieces=z_pieces)


def frame_transport_defect(lift: FrameLift, step=1):
    """Max |u_t - U(y_t, y_s) u_s| over pairs ``step`` indices apart."""
    y = lift.base
    i = np.arange(0, y.times.size - step, step)
    u = y.manifold.transport(y.points[i + step], y.points[i])
    return float(np.max(np.abs(lift.frames[i + step] - u @ lift.frames[i]), initial=0.0))


def _check_lift(lift: FrameLift, times, points):
    """``lift`` as the frame lift of the path through ``points`` on ``times``.

    Raises ``GridMismatch`` for a lift on another grid and ``DomainError`` for
    one whose base path has other points.
    """
    check_same_grid(lift.base.times, times)
    if lift.base.points is not points and not np.array_equal(lift.base.points, points):
        raise DomainError("the frame lift is of another path on the same grid")


# ---------------------------------------------------------------------------
# development: unrolling and rolling
# ---------------------------------------------------------------------------


def unroll(y: ManifoldControlledPath, u0, atlas=None, lift: FrameLift | None = None):
    """Anti-development: flat path read off through the parallel frames.

    Returns (flat controlled path, frame lift).  The increments integrate the
    canonical form along the lifted path, each chart segment on its whole grid
    at once.
    """
    mani = y.manifold
    u0 = _check_frame(mani, u0)
    lift = lift or parallel_translate_frame(y, u0, atlas=atlas)
    _check_lift(lift, y.times, y.points)
    values = np.zeros((y.times.size, mani.dim))
    deriv = np.linalg.pinv(lift.frames) @ y.derivative
    for (i0, i1, chart) in lift.segments:
        if i1 == i0:
            continue  # a chart switch at the last node: the previous segment set values[i0]
        xs, dtos = chart.to_coords(y.points[i0 : i1 + 1]), chart.dto(y.points[i0:i1])
        ub_inv = np.linalg.inv(dtos @ lift.frames[i0:i1])
        xdag = dtos @ y.derivative[i0:i1]  # (steps, d, k) chart coords of y'
        # d/d ubar of ubar^{-1} v is -ubar^{-1} (d ubar) ubar^{-1} v and the
        # lift moves with d ubar = -A<v_a> ubar, so the area correction is
        # ubar^{-1} A<v_a> v_b contracted against the step tensor.
        area = np.einsum("pijl,pja,plb,pab->pi", chart_christoffels(mani, chart, xs[:-1]), xdag, xdag,
                         y.driver.step_areas[i0:i1])
        inc = np.einsum("pij,pj->pi", ub_inv, np.diff(xs, axis=0) + area)
        values[i0 : i1 + 1] = np.cumsum(np.concatenate([values[i0 : i0 + 1], inc]), axis=0)
    return ControlledPath(y.times, values, deriv), lift


def roll(z: ControlledPath, rp: RoughPath, manifold: Manifold, o, u0, atlas=None):
    """Development: solve the frame-bundle horizontal equation driven by z.

    State is (chart coords, frame matrix); the horizontal field moves the base
    with the frame image of dz and rotates the frame by the connection.
    Returns (manifold controlled path, frame lift).
    """
    check_same_grid(z.times, rp.times)
    d = manifold.dim
    if z.values.shape[1:] != (d,):
        raise ShapeError(f"z takes values of shape {z.values.shape[1:]}, the manifold has dimension {d}")
    o = np.asarray(o, dtype=float)
    if o.shape != manifold.point_shape:
        raise ShapeError(f"start point has shape {o.shape}, expected {manifold.point_shape}")
    if not manifold.on_manifold(o, tol=BASEPOINT_TOL):
        raise NotOnManifold(0, f"start point is not on {manifold.name}")
    u0 = _check_frame(manifold, u0)
    n = rp.n_steps
    pts = np.empty((n + 1,) + manifold.point_shape)
    frames = np.empty((n + 1, manifold.flat_dim, d))
    pts[0] = o
    frames[0] = u0
    walk = ChartWalk(manifold, atlas, rp.times, pts[0])
    chart = walk.chart
    x = chart.to_coords(pts[0])
    ub = chart.dto(pts[0]) @ frames[0]
    dz, areas = np.diff(z.values, axis=0), pushed_step_areas(z, rp)

    def step_field(state):
        xx, uu = state[:d], state[d:].reshape(d, d)
        # column a: the frame vector u_a, then the frame's rate -A<u_a> u
        du = -np.einsum("ijl,ja,lc->ica", chart_christoffels(manifold, chart, xx), uu, uu)
        return np.concatenate([uu, du.reshape(d * d, d)])

    for i in range(n):
        state = np.concatenate([x, ub.reshape(-1)])
        state = state + _chart_step(step_field, state, step_field(state), dz[i], areas[i])
        x, ub = state[:d], state[d:].reshape(d, d)
        p = chart.from_coords(x)
        new = walk.visit(i + 1, p, chart.coords_margin(x))
        if new is not None and new is not chart:
            x, ub = new.to_coords(p), new.dto(p) @ (chart.dfrom(x) @ ub)
            chart = new
        pts[i + 1] = p
        frames[i + 1] = chart.dfrom(x) @ ub
    deriv = np.einsum("pDc,pck->pDk", frames, z.derivative)
    y = ManifoldControlledPath(manifold, rp.times, pts, deriv, rp)
    return y, FrameLift(base=y, frames=frames, segments=walk.close(n))


def rolled_oneform(a: ControlledOneForm, lift: FrameLift) -> ControlledPath:
    """Transport a controlled one-form to flat data through the frames of its path."""
    _check_lift(lift, a.times, a.path.points)
    vals = np.einsum("pnD,pDc->pnc", a.alpha, lift.frames)
    dag = np.einsum("pnaD,pDc->pnca", a.alpha_dag, lift.frames)
    return ControlledPath(a.times, vals, dag)


def rolled_integral_check(a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge, u0, atlas=None):
    """Gauge integral along y vs flat integral of the rolled data."""
    lhs = gauge_integrate(a, y, gauge)
    ytil, lift = unroll(y, u0, atlas=atlas)
    atil = rolled_oneform(a, lift)
    rhs = rough_integrate(atil, ytil, y.driver)
    return {
        "diff_sup": float(np.max(np.abs(lhs.values - rhs.values))),
        "lhs": lhs,
        "rhs": rhs,
        "unrolled": ytil,
    }


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
        xi = g @ conn.group.alg_to_matrix(rng.standard_normal(conn.group.alg_dim))
        xi_h = -conn.group.alg_to_matrix(conn.gamma_matrix(m) @ v) @ g
        worst = max(worst, float(np.max(np.abs(conn.omega(m, g, v, xi_h)))))
        vert = xi - xi_h
        res = conn.omega(m, g, np.zeros_like(v), vert) - conn.omega(m, g, v, xi)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst
