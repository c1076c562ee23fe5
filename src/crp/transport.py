"""Principal-bundle machinery: the SO(3) group RDE, frame transport, and the
development/anti-development correspondence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import ControlledPath, check_same_grid, pushed_step_areas
from .errors import DomainError, ShapeError
from .flatrde import linear_flow, running_products
from .gauges import Gauge, connection_gauge
from .linalg import SO3_BASIS, vee
from .manifolds import Chart, Manifold, SO3
from .mcrp import ManifoldControlledPath, _check_on_manifold
from .mrde import ChartWalk
from .oneforms import ControlledOneForm, gauge_integrate, integrate_smooth_oneform
from .roughpath import RoughPath
from .sewing import rough_integrate


# ---------------------------------------------------------------------------
# the group equation on SO(3)
# ---------------------------------------------------------------------------


def group_rde(z: ControlledPath, rp: RoughPath, g0) -> ManifoldControlledPath:
    """Solve dg = -(dz) g on SO(3) from g0 along the rough path associated to z.

    The equation is linear in g, so ``flatrde.linear_flow`` solves it from the identity
    on the whole grid from z's increments and step areas z' (x) z' . A by the exponential
    step, whose products stay orthogonal.  Right translation by g0 gives the same solution
    by right invariance and makes equivariance exact.  The returned path is controlled by
    the original driver (chain rule through z').
    """
    check_same_grid(z.times, rp.times)
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (3, 3):
        raise ShapeError(f"g0 has shape {g0.shape}, the group acts on (3, 3) matrices")
    if z.values.shape[1:] != (3,):
        raise ShapeError(f"z takes values of shape {z.values.shape[1:]}, the algebra has dimension 3")
    group = SO3()
    _check_on_manifold(group, g0[None])
    dz, areas = np.diff(z.values, axis=0), pushed_step_areas(z, rp)
    pts = linear_flow(-SO3_BASIS, rp.times, dz, areas, None, "exp") @ g0
    # column a of g' is -(z'_a)^ g, with z'_a the algebra element of column a of z's derivative
    gens = np.einsum("bij,pba->paij", SO3_BASIS, z.derivative)
    deriv = np.moveaxis(-(gens @ pts[:, None]), 1, -1).reshape(-1, 9, rp.dim)
    out = ManifoldControlledPath(group, rp.times, pts, deriv, rp)
    out.meta = {"chart_switches": []}
    return out


def right_maurer_cartan_form(g):
    """theta_r(g), the (3, 9) matrix of the right Maurer-Cartan form at g in SO(3): column j is
    vee(E_j g^T) for the unit tangent E_j, since g^-1 = g^T."""
    return vee(np.eye(9).reshape(9, 3, 3) @ np.asarray(g, dtype=float).T).T


def maurer_cartan_check(gpath: ManifoldControlledPath, z: ControlledPath):
    """Residual of the inverse relation: integral of theta_r along g, under the connection gauge, vs -z."""
    integ = integrate_smooth_oneform(right_maurer_cartan_form, gpath, connection_gauge(gpath.manifold))
    return {"diff_sup": float(np.max(np.abs(integ.values + (z.values - z.values[0])))), "integral": integ}


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
    segments: list  # [(i0, i1, chart)]

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


def _frame_rotation(a, da, dx, m):
    """The frame steps dU = -R U on (P, ...) stacks of A, dA, chart increments dx and step tensors M:
    R[i, l] = A[i, j, l] dx_j + d_k A[i, j, l] M[k, j] - A[i, j, m] M[k, j] A[m, k, l]."""
    rot = np.einsum("pijl,pj->pil", a, dx) + np.einsum("pkijl,pkj->pil", da, m)
    return rot - np.einsum("pijm,pkj,pmkl->pil", a, m, a)


def _step_tensors(y: ManifoldControlledPath, i0, i1, chart: Chart):
    """Chart coordinates xs of y's nodes i0 .. i1 and the step tensors M_k = x'_k X_k x'_k^T, x' = dto y'."""
    pts = y.points[i0 : i1 + 1]
    xdag = chart.dto(pts[:-1]) @ y.derivative[i0:i1]  # (steps, d, k) chart coords of y'
    return chart.to_coords(pts), xdag @ y.driver.step_areas[i0:i1] @ np.swapaxes(xdag, 1, 2)


def parallel_translate_frame(y: ManifoldControlledPath, u0) -> FrameLift:
    """Parallel translation of a frame along y: the horizontal lift to the frame bundle.

    On each chart segment the chart frame takes roll's frame steps I - R_k on the path's chart
    increments and step tensors, A and dA from one ``chart_christoffels_jet`` call on the nodes,
    multiplied out by ``running_products``.  Frame coordinates are converted at chart switches;
    a one-node last segment (a switch at the last node) is skipped.
    """
    mani = y.manifold
    d = mani.dim
    u0 = _check_frame(mani, u0)
    segs = ChartWalk(mani, y.times, y.points[0]).scan(y.points)
    frames = np.empty((y.times.size, mani.flat_dim, d))
    frames[0] = u0
    for (i0, i1, chart) in segs:
        if i1 == i0:
            continue  # a chart switch at the last node: the previous segment set frames[i0]
        xs, m = _step_tensors(y, i0, i1, chart)
        a, da = mani.chart_christoffels_jet(chart, xs[:-1])
        ops = np.eye(d) - _frame_rotation(a, da, np.diff(xs, axis=0), m)
        frames[i0 : i1 + 1] = chart.dfrom(xs) @ (running_products(ops) @ (chart.dto(y.points[i0]) @ frames[i0]))
    return FrameLift(base=y, frames=frames, segments=segs)


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


def unroll(y: ManifoldControlledPath, u0, lift: FrameLift | None = None):
    """Anti-development: flat path read off through the parallel frames.

    Returns (flat controlled path, frame lift).  The increments integrate the
    canonical form along the lifted path, each chart segment on its whole grid
    at once.
    """
    mani = y.manifold
    u0 = _check_frame(mani, u0)
    lift = lift or parallel_translate_frame(y, u0)
    _check_lift(lift, y.times, y.points)
    values = np.zeros((y.times.size, mani.dim))
    deriv = np.linalg.pinv(lift.frames) @ y.derivative
    for (i0, i1, chart) in lift.segments:
        if i1 == i0:
            continue  # a chart switch at the last node: the previous segment set values[i0]
        xs, m = _step_tensors(y, i0, i1, chart)
        ub_inv = np.linalg.inv(chart.dto(y.points[i0:i1]) @ lift.frames[i0:i1])
        # d/d ubar of ubar^{-1} v is -ubar^{-1} (d ubar) ubar^{-1} v and the
        # lift moves with d ubar = -A<v_a> ubar, so the area correction is
        # ubar^{-1} A<v_a> v_b contracted against the step tensor, A[i, j, l] M[j, l].
        area = np.einsum("pijl,pjl->pi", chart_christoffels(mani, chart, xs[:-1]), m)
        inc = np.einsum("pij,pj->pi", ub_inv, np.diff(xs, axis=0) + area)
        values[i0 : i1 + 1] = np.cumsum(np.concatenate([values[i0 : i0 + 1], inc]), axis=0)
    return ControlledPath(y.times, values, deriv), lift


def roll(z: ControlledPath, rp: RoughPath, manifold: Manifold, o, u0):
    """Development: solve the frame-bundle horizontal equation driven by z.

    State is (chart coords x, chart frame U); the horizontal field H_a = (U e_a, -A<U e_a> U),
    A the chart connection coefficients, moves the base with the frame image of dz and
    rotates the frame by the connection.  Each step is the Davie step H dz + sum_ab
    X[a, b] DH_b[H_a] with the exact derivative, from one ``chart_christoffels_jet`` call
    (A, dA) at x: with M = U X U^T, dx = U dz - A[i, j, l] M[j, l] and dU = -R U, R from
    ``_frame_rotation``, as in frame transport.  Frames change chart at chart switches, and each chart
    segment maps its frames to the ambient space in one ``dfrom`` call.  Returns (path, frame lift).
    """
    check_same_grid(z.times, rp.times)
    d = manifold.dim
    if z.values.shape[1:] != (d,):
        raise ShapeError(f"z takes values of shape {z.values.shape[1:]}, the manifold has dimension {d}")
    o = np.asarray(o, dtype=float)
    if o.shape != manifold.point_shape:
        raise ShapeError(f"start point has shape {o.shape}, expected {manifold.point_shape}")
    _check_on_manifold(manifold, o[None])
    u0 = _check_frame(manifold, u0)
    n = rp.n_steps
    pts = np.empty((n + 1,) + manifold.point_shape)
    xs, ubs = np.empty((n + 1, d)), np.empty((n + 1, d, d))  # chart coordinates and chart frames
    pts[0] = o
    walk = ChartWalk(manifold, rp.times, pts[0])
    chart = walk.chart
    x = xs[0] = chart.to_coords(pts[0])
    ub = ubs[0] = chart.dto(pts[0]) @ u0
    dz, areas = np.diff(z.values, axis=0), pushed_step_areas(z, rp)
    for i in range(n):
        a, da = manifold.chart_christoffels_jet(chart, x)
        m = ub @ areas[i] @ ub.T  # the step tensor in chart coordinates, sum_ab X[a, b] U e_a (x) U e_b
        dx = ub @ dz[i] - np.einsum("ijl,jl->i", a, m)
        rot = _frame_rotation(a[None], da[None], dx[None], m[None])[0]
        x, ub = x + dx, ub - rot @ ub
        p = chart.from_coords(x)
        new = walk.visit(i + 1, p, chart.coords_margin(x))
        if new is not None and new is not chart:
            x, ub = new.to_coords(p), new.dto(p) @ (chart.dfrom(x) @ ub)
            chart = new
        pts[i + 1], xs[i + 1], ubs[i + 1] = p, x, ub
    segments = walk.close(n)
    frames = np.empty((n + 1, manifold.flat_dim, d))
    for i0, i1, ch in segments:
        seg = np.s_[i0 : i1 + (i1 == n)]  # a switch node i1 < n is stored in the next segment's chart
        frames[seg] = ch.dfrom(xs[seg]) @ ubs[seg]
    frames[0] = u0  # the start frame as given, not its chart round trip
    deriv = np.einsum("pDc,pck->pDk", frames, z.derivative)
    y = ManifoldControlledPath(manifold, rp.times, pts, deriv, rp)
    return y, FrameLift(base=y, frames=frames, segments=segments)


def rolled_oneform(a: ControlledOneForm, lift: FrameLift) -> ControlledPath:
    """Transport a controlled one-form to flat data through the frames of its path."""
    _check_lift(lift, a.times, a.path.points)
    vals = np.einsum("pnD,pDc->pnc", a.alpha, lift.frames)
    dag = np.einsum("pnaD,pDc->pnca", a.alpha_dag, lift.frames)
    return ControlledPath(a.times, vals, dag)


def rolled_integral_check(a: ControlledOneForm, y: ManifoldControlledPath, gauge: Gauge, u0):
    """Gauge integral along y vs flat integral of the rolled data."""
    lhs = gauge_integrate(a, y, gauge)
    ytil, lift = unroll(y, u0)
    atil = rolled_oneform(a, lift)
    rhs = rough_integrate(atil, ytil, y.driver)
    return {
        "diff_sup": float(np.max(np.abs(lhs.values - rhs.values))),
        "lhs": lhs,
        "rhs": rhs,
        "unrolled": ytil,
    }
