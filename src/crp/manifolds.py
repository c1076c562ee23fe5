"""Manifolds with closed-form geometry (S^2, SO(3)) and chart-atlas manifolds.

Points keep their natural array shape ((3,) for the sphere, (3, 3) for
rotations, the center's shape for chart manifolds); every linear object
(tangent projectors, parallel transports, differentials) acts on the flattened
ambient space R^D.
Tangent vectors are ambient vectors satisfying the tangency constraint at their
base point; mixing chart-coordinate and ambient representations is a bug, so
charts expose explicit ``to/from`` differentials instead of implicit casts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AtlasGap, ChartExit, ChartSingular, CrpError, DomainError, LogFailure, NearCutLocus, NotOnManifold, ShapeError,
)
from .linalg import (
    FD_STEP,
    SO3_BASIS,
    any_true,
    hat,
    norm,
    polar_retract,
    richardson_combine,
    richardson_diff,
    so3_exp,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
    sqnorm,
    vee,
)

GAUGE_RADIUS_MARGIN = 0.1  # geodesic-ball radius pi - 0.1 on S^2 and SO(3)
ROTATION_TOL = 1e-6  # largest |r^T r - I| (Frobenius) of a pair's relative rotation r that SO3.log takes
GAUGE_EDGE = 1e-6  # a pair lies inside the gauge ball when its distance is this far below its radius
CHART_FAILURES = (CrpError, FloatingPointError, ValueError, ZeroDivisionError)  # a point no chart map reads
_EYE2 = np.eye(2)
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


@dataclass
class Chart:
    """Coordinate chart with closed-form differentials.

    ``to_coords``/``from_coords`` map points to R^dim and back; ``dto(p)`` is
    the (dim, D) differential on flattened ambient tangents and ``dfrom(x)``
    its (D, dim) right inverse.  ``radius`` bounds |coords| on the domain.

    Every map, and ``coords_margin``, takes one point (coordinate vector) or a
    stack of them with leading axes and returns the same leading axes: one call
    reads a whole stack, and a single point keeps its shape and its values.
    ``read`` and ``margin`` check a stack's membership.
    """

    name: str
    dim: int
    to_coords: Callable
    from_coords: Callable
    dto: Callable
    dfrom: Callable
    radius: float
    center_coords: np.ndarray | None = None

    def coords_margin(self, x):
        x = np.asarray(x, dtype=float)
        return self.radius - norm(x if self.center_coords is None else x - self.center_coords)

    def margin(self, p):
        """Margin of one point or each of a stack; -inf where no chart map reads it (a stack that raises is
        halved, and only the halves that raise again are split further, down to single points)."""
        try:
            return self.coords_margin(self.to_coords(p))
        except CHART_FAILURES:
            p = np.asarray(p, dtype=float)
            k = p.ndim - np.ndim(self.from_coords(np.zeros(self.dim)))  # the number of stack axes
            if k <= 0:
                return -np.inf
            flat = p.reshape((-1,) + p.shape[k:])
            if len(flat) <= 1:
                return np.array([self.margin(q) for q in flat]).reshape(p.shape[:k])
            half = len(flat) // 2
            return np.concatenate([self.margin(flat[:half]), self.margin(flat[half:])]).reshape(p.shape[:k])

    def read(self, p, outside=None):
        """Coordinates of a point or a stack of points, each checked to lie inside the chart.

        The first point (flat stack index i) whose margin is not above 0, NaN included,
        or that no chart map reads raises ``outside(i)``, by default ``ChartSingular``.
        """
        try:
            x = self.to_coords(p)
            bad = ~(self.coords_margin(x) > 0.0)
        except CHART_FAILURES:  # find the point the stacked read fails on, one point at a time
            x, bad = None, ~(self.margin(p) > 0.0)
        if x is None or any_true(bad):
            i = int(np.argmax(np.ravel(bad)))
            raise outside(i) if outside else ChartSingular(f"point {i} outside chart {self.name}")
        return x


def chart_rep_derivative(matrices, chart: Chart, ms, xs, dto_ms):
    """Source-point derivatives of parallelisms' chart representatives at a stack of points.

    ``ms`` holds P points of ``chart``, ``xs`` their (P, d) coordinates and ``dto_ms``
    their (P, d, D) differentials.  Returns the (k, P, d, d, d) array
    D[i, p, c, j, b] = d/dy_j of [dto(m_p) @ matrices[i](m_p, p(y)) @ dfrom(y)][c, b]
    at y = x_p, by one Richardson stencil over every (point, coordinate direction)
    pair with the step ``FD_STEP * max(1, |x_p|)``.  The stencil maps the points of
    all four levels through the chart once and calls each parallelism once.
    """
    n, d = xs.shape
    # row (q n + p) d + j: level q, point p, direction j
    m_rows, dto_rows = (np.concatenate([np.repeat(a, d, axis=0)] * 4) for a in (ms, dto_ms))

    def ubar(eps):  # (4, k, P, j, c, b)
        y = (xs[:, None, :] + eps.reshape(4, n, 1, 1) * np.eye(d)).reshape(4 * n * d, d)
        p, dfrom_y = chart.from_coords(y), chart.dfrom(y)
        u = np.stack([dto_rows @ matrix(m_rows, p) @ dfrom_y for matrix in matrices])
        return np.swapaxes(u.reshape((-1, 4, n) + (d,) * 3), 0, 1)

    h = FD_STEP * np.maximum(1.0, norm(xs))
    return np.swapaxes(richardson_diff(ubar, h.reshape(n, 1, 1, 1)), 2, 3)


@functools.cache
def _jet_stencil(d):
    """The (1 + 4d, d) offsets of ``chart_christoffels_jet``: 0, then e_k, -e_k, e_k / 2 and -e_k / 2 for each k."""
    eye = np.eye(d)
    out = np.concatenate([0.0 * eye[:1], eye, -eye, 0.5 * eye, -0.5 * eye])
    out.flags.writeable = False
    return out


class Manifold:
    """Base class; subclasses provide closed-form connection geometry.

    ``exp``, ``log``, ``d2log``, ``transport``, ``distance``, ``project`` and ``tangent_projector``
    each take one point (pair of points) or stacks whose leading axes broadcast,
    and return those leading axes: one implementation serves a pair and a stack.
    """

    name = "manifold"
    dim = 0
    point_shape = ()

    # -- representation helpers ------------------------------------------------

    @property
    def flat_dim(self):
        return math.prod(self.point_shape)

    def flatten(self, v):
        return np.asarray(v, dtype=float).reshape(
            np.asarray(v).shape[: -len(self.point_shape)] + (self.flat_dim,)
        )

    def unflatten(self, v):
        return np.asarray(v, dtype=float).reshape(np.asarray(v).shape[:-1] + self.point_shape)

    # -- required geometry -------------------------------------------------------

    def project(self, p):
        raise NotImplementedError

    def tangent_projector(self, p):
        """(D, D) orthogonal projection onto T_pM in flattened coordinates."""
        raise NotImplementedError

    def tangent_basis(self, p):
        """Orthonormal basis of T_pM, the columns of (..., D, dim): the top eigenvectors of ``tangent_projector``."""
        return np.linalg.eigh(self.tangent_projector(p))[1][..., -self.dim :]

    def exp(self, m, v):
        raise NotImplementedError

    def log(self, m, n):
        raise NotImplementedError

    def transport(self, to_pt, from_pt):
        """Parallel transport T_{from}M -> T_{to}M as a (D, D) matrix."""
        raise NotImplementedError

    def d2log(self, m, n):
        """Differential of n -> log_m(n) as a (D, D) matrix on T_nM, with the pairs' leading axes."""
        raise NotImplementedError

    def distance(self, m, n):
        """Closed-form distance that ``past_gauge_ball`` compares with ``gauge_radius``.

        Never raises on points of ``point_shape``."""
        raise NotImplementedError

    def torsion_tensor(self, m):
        """(D, D, D) tensor T[c, a, b] of the manifold's default connection.

        ``m`` may be a stack of points (*lead, *point_shape), giving (*lead, D, D, D).
        A connection gauge's S is T / 2: a connection with torsion must override this.
        """
        return np.zeros(self._lead(m) + (self.flat_dim,) * 3)

    def _lead(self, p):
        """Leading (stack) axes of a point or a stack of points."""
        shape = np.shape(p)
        return shape[: len(shape) - len(self.point_shape)]

    def _points(self, *pts):
        """Points or stacks of points as float arrays; ``ShapeError`` unless each ends in ``point_shape``."""
        out = tuple(np.asarray(p, dtype=float) for p in pts)
        for p in out:
            if p.shape[p.ndim - len(self.point_shape) :] != self.point_shape:
                raise ShapeError(f"points of shape {p.shape} are not {self.name} points of shape {self.point_shape}")
        return out

    def _identities(self, *pts):
        """(D, D) identities over the broadcast leading axes of the given points."""
        lead = np.broadcast_shapes(*(self._lead(p) for p in pts))
        return np.broadcast_to(np.eye(self.flat_dim), lead + (self.flat_dim,) * 2).copy()

    def _pair_rows(self, a, b):
        """Two points or stacks broadcast to their leading axes: (those axes, the rows of a, the rows of b)."""
        a, b = self._points(a, b)
        lead = np.broadcast_shapes(self._lead(a), self._lead(b))
        return lead, *(np.broadcast_to(p, lead + self.point_shape).reshape((-1,) + self.point_shape) for p in (a, b))

    gauge_radius = np.inf

    def past_gauge_ball(self, d):
        """Where distances ``d`` (from ``distance``) reach the gauge ball's edge, ``GAUGE_EDGE`` inside its radius.

        The one rule of the gauge ball: the gauge-domain checks, ``mcrp.domain_feasible_delta``
        and the logarithms that raise ``NearCutLocus`` all read it, so a default delta never
        probes a pair that the logarithm rejects.  A NaN distance is not past the edge.
        """
        return d >= self.gauge_radius - GAUGE_EDGE

    # -- atlas -------------------------------------------------------------------

    def charts(self):
        raise NotImplementedError

    def chart_at(self, p):
        """The chart with the largest margin at p."""
        atlas = self.charts()
        return atlas[int(self.chart_index(p, atlas))]

    def chart_index(self, p, atlas):
        """Index in ``atlas`` of the chart of largest margin at a point or at each of a stack, the first on a tie."""
        margins = np.array([c.margin(p) for c in atlas])
        inside = margins.max(axis=0) > 0  # NaN included: a NaN margin is the maximum, as it is for argmax
        if not inside.all():
            raise AtlasGap(f"no chart of {self.name} contains point {int(np.argmin(inside))}")
        return margins.argmax(axis=0)

    def chart_christoffels(self, chart, x):
        """Coefficients A of the connection in ``chart``, (A<v>w)_i = A[i, j, l] v_j w_l.

        ``x`` holds chart coordinates, shape (..., d); the result has shape (..., d, d, d).
        Without a closed form, A<e_j> is the source-point derivative of the chart
        representative of ``transport``, one Richardson stencil for the whole stack.
        """
        x = np.asarray(x, dtype=float)
        xs = x.reshape(-1, chart.dim)
        ms = chart.from_coords(xs)
        coeffs = chart_rep_derivative([self.transport], chart, ms, xs, chart.dto(ms))[0]
        return coeffs.reshape(x.shape + (chart.dim,) * 2)

    def chart_christoffels_jet(self, chart, x):
        """``chart_christoffels`` A at chart coordinates x, (..., d), and its derivative dA, (..., d, d, d, d).

        dA[..., k, i, j, l] = d_k A[i, j, l].  Without a closed form, one ``chart_christoffels``
        call reads x and its Richardson stencil x +- h e_k, x +- h e_k / 2, h = ``FD_STEP * max(1, |x|)``.
        """
        x = np.asarray(x, dtype=float)
        d = chart.dim
        h = FD_STEP * np.maximum(1.0, norm(x))[..., None, None]
        a = self.chart_christoffels(chart, x[..., None, :] + h * _jet_stencil(d))
        fd = a[..., 1:, :, :, :].reshape(x.shape[:-1] + (4, d) + (d,) * 3)
        return a[..., 0, :, :, :], richardson_combine(*(fd[..., q, :, :, :, :] for q in range(4)), h[..., None, None])

    # -- misc ---------------------------------------------------------------------

    def curve(self, ms, us, eps):
        """Canonical curves through a stack of points with unit velocities, each at its own parameter.

        ``ms`` and ``us`` have shape (R, *point_shape), ``eps`` shape (R, 1, ...), one axis
        per point axis: the geodesics ``exp(ms, eps us)``.
        """
        return self.exp(ms, eps * us)

    def derivative_along(self, ms, vs, g, h=1e-4):
        """Richardson derivatives of g along ``curve`` at a stack of points, one Richardson stencil for all rows.

        Row r runs the unit-speed curve through ``ms[r]`` in the flattened direction
        ``vs[r]`` with step h and scales the result by |vs[r]|.  ``g(qs, bases)``
        maps stacked curve points and their rows' base points to one value per row;
        it runs once, on the 4R points of the stencil's four levels.  Rows with
        |v| < 1e-14 are exactly zero and take no stencil point; when every row is
        such, g runs once at a base point for the value shape.
        """
        ms = np.asarray(ms, dtype=float)
        vs = np.asarray(vs, dtype=float)
        nv = np.linalg.norm(vs, axis=-1)
        live = np.flatnonzero(nv >= 1e-14)
        if live.size == 0:
            return np.zeros((len(ms),) + np.shape(g(ms[:1], ms[:1]))[1:])
        r = live.size
        bases, us = (np.concatenate([a] * 4) for a in (ms[live], self.unflatten(vs[live] / nv[live, None])))
        eps_shape = (4 * r,) + (1,) * len(self.point_shape)

        def levels(eps):  # (4, R, ...): stack row q R + i is level q of live row i
            vals = np.asarray(g(self.curve(bases, us, np.repeat(eps, r).reshape(eps_shape)), bases))
            return vals.reshape((4, r) + vals.shape[1:])

        d = richardson_diff(levels, h)
        out = np.zeros((len(ms),) + d.shape[1:])
        out[live] = nv[live].reshape((-1,) + (1,) * (d.ndim - 1)) * d
        return out

    def off_manifold(self, p):
        """Ambient distance of a point, or of each of a stack of points, from its projection.

        NaN, with no warning, where the projection fails (the origin, for the sphere).
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            return norm(self.flatten(p) - self.flatten(self.project(p)))

    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, rng, m):
        v = rng.standard_normal(self.flat_dim)
        return self.unflatten(self.tangent_projector(m) @ v)

    def spec_json(self):
        return {"type": self.name, "dim": self.dim}

    def same_geometry(self, other):
        """True when ``other`` is this manifold or one with equal flat size, spec and connection."""
        return self is other or (self.flat_dim == other.flat_dim and self.spec_json() == other.spec_json())


# ---------------------------------------------------------------------------
# Unit sphere S^2 in R^3
# ---------------------------------------------------------------------------


class Sphere(Manifold):
    """Unit sphere with the Levi-Civita connection of the round metric."""

    name = "sphere"
    dim = 2
    point_shape = (3,)
    gauge_radius = np.pi - GAUGE_RADIUS_MARGIN

    def project(self, p):
        p = np.asarray(p, dtype=float)
        return p / norm(p)[..., None]

    def tangent_projector(self, p):
        p = np.asarray(p, dtype=float)
        return _EYE3 - p[..., :, None] * p[..., None, :]

    def exp(self, m, v):
        # cos |v| m + sin |v| v / |v|; a zero velocity divides 0 by 1e-300 and returns m exactly
        m, v = self._points(m, v)
        th = norm(v)[..., None]
        return np.cos(th) * m + np.sin(th) * v / np.maximum(th, 1e-300)

    def distance(self, m, n):
        m, n = self._points(m, n)
        return np.arccos(np.clip(np.einsum("...i,...i", m, n), -1.0, 1.0))

    def log(self, m, n):
        m, n = self._points(m, n)
        c = np.clip(np.einsum("...i,...i", m, n), -1.0, 1.0)
        th = np.arccos(c)
        far = self.past_gauge_ball(th)
        if any_true(far):
            raise NearCutLocus(f"points at distance {np.ravel(th)[np.argmax(far)]:.6f} reach the gauge ball")
        u = n - c[..., None] * m
        un = np.linalg.norm(u, axis=-1)
        scale = np.where(un > 1e-14, th / np.maximum(un, 1e-300), 0.0)
        return scale[..., None] * u

    log_batch = log  # the name the benchmark tracer binds

    def transport(self, to_pt, from_pt):
        n, m = self._points(to_pt, from_pt)
        den = 1.0 + np.einsum("...i,...i", m, n)
        if any_true(den <= 1e-12):
            raise NearCutLocus("transport through antipode")
        mn = m + n
        return (
            _EYE3
            - np.einsum("...i,...j->...ij", mn, mn) / den[..., None, None]
            + 2.0 * np.einsum("...i,...j->...ij", n, m)
        )

    def d2log(self, m, n):
        """Closed-form differential of n -> log_m(n), as a matrix on T_nM; a series below theta = 1e-6."""
        m, n = self._points(m, n)
        c = np.clip(np.einsum("...i,...i", m, n), -1.0, 1.0)
        th = np.arccos(c)
        small = th < 1e-6
        t = th + small  # th + 1 on the series lanes, where the closed forms are not read
        s = np.sin(t)
        a = np.where(small, 1.0 + th**2 / 6.0, t / s)[..., None, None]
        b = np.where(small, 1.0 / 3.0, (s - t * c) / s**3)[..., None, None]
        u = n - c[..., None] * m
        # dpsi(w) = a (w - (m.w) m) - b (m.w) u   for w in T_nM
        return a * (_EYE3 - m[..., :, None] * m[..., None, :]) - b * (u[..., :, None] * m[..., None, :])

    def charts(self):
        return [_stereographic_chart(pole=+1), _stereographic_chart(pole=-1)]

    def chart_christoffels(self, chart, x):
        """Levi-Civita coefficients of the round metric, in closed form in stereographic charts."""
        if not chart.name.startswith("stereo"):
            return super().chart_christoffels(chart, x)
        x = np.asarray(x, dtype=float)
        return _conformal_christoffels(-2.0 * x / (1.0 + np.sum(x * x, axis=-1, keepdims=True)))

    def chart_christoffels_jet(self, chart, x):
        """The coefficients and their derivative in closed form in stereographic charts: with s = 1 + |x|^2 the
        conformal gradient is g = -2 x / s, and d_k g_l = -2 delta_kl / s + 4 x_k x_l / s^2."""
        if not chart.name.startswith("stereo"):
            return super().chart_christoffels_jet(chart, x)
        x = np.asarray(x, dtype=float)
        s = 1.0 + np.sum(x * x, axis=-1, keepdims=True)
        dg = (4.0 * x[..., :, None] * x[..., None, :] / s[..., None] - 2.0 * _EYE2) / s[..., None]
        return _conformal_christoffels(-2.0 * x / s), _conformal_christoffels(dg)

    def random_point(self, rng):
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)


# E[m, (i, j, l)] = delta_ij delta_lm + delta_il delta_jm - delta_jl delta_im: each entry of g @ E is one signed g_m
_CONFORMAL = (np.einsum("ij,lm->mijl", _EYE2, _EYE2) + np.einsum("il,jm->mijl", _EYE2, _EYE2)
              - np.einsum("jl,im->mijl", _EYE2, _EYE2)).reshape(2, 8)


def _conformal_christoffels(g):
    """delta_ij g_l + delta_il g_j - delta_jl g_i, (..., i, j, l), of g over its last axis; g's d_k rows give d_k."""
    return (g @ _CONFORMAL).reshape(g.shape[:-1] + (2, 2, 2))


def _stereographic_chart(pole=+1):
    """Stereographic projection from (0, 0, pole); covers m3*pole < 0.9."""
    sign = float(pole)
    # coordinate radius matching |m3| <= 0.9 toward the projection pole
    radius = float(np.sqrt((1 + 0.9) / (1 - 0.9)))

    # on p.T and x.T, row i is a numpy scalar for one point and a row for a stack, and
    # np.array([...]).T of an array built with reversed axes restores the stack's order
    def to_coords(p):
        p = np.asarray(p, dtype=float).T
        den = 1.0 - sign * p[2]
        if any_true((den <= 1e-12) | np.isposinf(den)):  # an infinite den would divide inf by inf
            raise DomainError("point at the projection pole or at infinity")
        return (p[:2] / den).T

    def from_coords(x):
        x = np.asarray(x, dtype=float)
        r2 = sqnorm(x).T
        s = 1.0 / (1.0 + r2)
        x = x.T
        return np.array([2.0 * x[0] * s, 2.0 * x[1] * s, sign * (r2 - 1.0) * s]).T

    def dto(p):
        p = np.asarray(p, dtype=float).T
        den = 1.0 - sign * p[2]
        a, zero = 1.0 / den, 0.0 * den
        return np.array([[a, zero], [zero, a], [sign * p[0] / den**2, sign * p[1] / den**2]]).T

    def dfrom(x):
        x = np.asarray(x, dtype=float)
        r2 = sqnorm(x).T
        s = 1.0 / (1.0 + r2)
        x0, x1 = x.T[0], x.T[1]
        ds0, ds1 = -2.0 * x0 * s * s, -2.0 * x1 * s * s
        return np.array([
            [2.0 * (s + x0 * ds0), 2.0 * (x1 * ds0), sign * (2.0 * x0 * s + (r2 - 1.0) * ds0)],
            [2.0 * (x0 * ds1), 2.0 * (s + x1 * ds1), sign * (2.0 * x1 * s + (r2 - 1.0) * ds1)],
        ]).T

    return Chart(
        name=f"stereo-{'north' if pole > 0 else 'south'}",
        dim=2,
        to_coords=to_coords,
        from_coords=from_coords,
        dto=dto,
        dfrom=dfrom,
        radius=radius,
    )


# ---------------------------------------------------------------------------
# Rotation group SO(3) in R^{3x3}
# ---------------------------------------------------------------------------


class SO3(Manifold):
    """Rotations with the connection making left-invariant fields parallel."""

    name = "so3"
    dim = 3
    point_shape = (3, 3)
    gauge_radius = np.pi - GAUGE_RADIUS_MARGIN

    def project(self, p):
        return polar_retract(np.asarray(p, dtype=float))

    def tangent_projector(self, g):
        g = np.asarray(g, dtype=float)
        basis = (g[..., None, :, :] @ SO3_BASIS).reshape(g.shape[:-2] + (3, 9))  # orthonormal * sqrt(2)
        basis /= np.sqrt(2.0)
        return np.swapaxes(basis, -1, -2) @ basis

    def exp(self, g, v):
        g, v = self._points(g, v)
        return g @ so3_exp(vee(np.swapaxes(g, -1, -2) @ v))

    def log(self, k, g):
        """The masked closed form of ``so3_log``.  A pair whose rotation angle is ``past_gauge_ball`` raises
        ``NearCutLocus``: the edge lies short of pi, where ``so3_log`` turns to its antipodal branch.  A pair
        whose relative matrix k^T g is farther than ``ROTATION_TOL`` from orthogonal raises ``NotOnManifold``
        (the closed form would read, say, 2 I as the zero rotation)."""
        k, g = self._points(k, g)
        r = np.swapaxes(k, -1, -2) @ g
        off = norm((np.swapaxes(g, -1, -2) @ k @ r - _EYE3).reshape(r.shape[:-2] + (9,)))
        if any_true(off > ROTATION_TOL):
            i = int(np.argmax(np.ravel(off > ROTATION_TOL)))
            raise NotOnManifold(i, f"pair {i} is not a pair of rotations: |r^T r - I| = {np.ravel(off)[i]:.2e}")
        th = np.arccos(np.clip(0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0), -1.0, 1.0))
        cut = self.past_gauge_ball(th)
        if any_true(cut):
            raise NearCutLocus(f"rotations at distance {np.ravel(th)[np.argmax(cut)]:.6f} reach the gauge ball")
        return k @ hat(so3_log(r))

    log_batch = log  # the name the benchmark tracer binds

    def transport(self, to_pt, from_pt):
        # left translation by to * from^{-1}: xi -> (to from^T) xi, kron(q, I)
        q = np.einsum("...ij,...kj->...ik", *self._points(to_pt, from_pt))
        return (q[..., :, None, :, None] * np.eye(3)[:, None, :]).reshape(q.shape[:-2] + (9, 9))

    def d2log(self, k, g):
        # tangent xi = g hat(e) maps to k hat(Jr^{-1} e), Jr^{-1} the right Jacobian inverse;
        # e = vee(g^T xi), and vee(g^T E_rc)_a = (g hat(e_a))_rc / 2 on the unit matrices E_rc
        k, g = self._points(k, g)
        jr_inv = so3_left_jacobian_inv(-so3_log(np.swapaxes(k, -1, -2) @ g))
        kb, gb = ((p[..., None, :, :] @ SO3_BASIS).reshape(p.shape[:-2] + (3, 9)) for p in (k, g))
        return np.swapaxes(kb, -1, -2) @ jr_inv @ (0.5 * gb)

    def distance(self, g, h):
        tr = np.einsum("...ij,...ij", *self._points(g, h))
        return np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))

    def torsion_tensor(self, g):
        # T(b_a, b_b) = -g [hat(e_a), hat(e_b)] on the orthogonal b_a = vec(g hat(e_a)), |b_a|^2 = 2,
        # and [hat(e_a), hat(e_b)] = eps_abc hat(e_c) with hat(e_a)[b, c] = -eps_abc
        (g,) = self._points(g)
        b = (g[..., None, :, :] @ SO3_BASIS).reshape(g.shape[:-2] + (3, 9))
        return 0.25 * np.einsum("abc,...cC,...aA,...bB->...CAB", SO3_BASIS, b, b, b)

    def charts(self):
        centers = [np.eye(3)] + [so3_exp(np.pi * e) for e in np.eye(3)]
        return [_so3_log_chart(c, i) for i, c in enumerate(centers)]

    def random_point(self, rng):
        return so3_exp(rng.standard_normal(3))


def _so3_log_chart(center, idx):
    """Rotation-vector chart g -> log(g center^T); right version for stability
    of right-invariant dynamics."""
    c = np.asarray(center, dtype=float)

    def to_coords(g):
        return so3_log(np.asarray(g, dtype=float) @ c.T)

    def from_coords(x):
        return so3_exp(x) @ c

    def dto(g):
        # column (i, c) is J_l^{-1} vee(E_ic g^T), and vee(E_ic g^T)_r = -(hat(e_i) g)_rc / 2
        g = np.asarray(g, dtype=float)
        jli = so3_left_jacobian_inv(so3_log(g @ c.T))
        return jli @ (-0.5 * np.einsum("irk,...kc->...ric", SO3_BASIS, g)).reshape(g.shape[:-2] + (3, 9))

    def dfrom(x):
        # column j is hat(J_l e_j) g
        x = np.asarray(x, dtype=float)
        cols = (SO3_BASIS @ (so3_exp(x) @ c)[..., None, :, :]).reshape(x.shape[:-1] + (3, 9))
        return cols.swapaxes(-1, -2) @ so3_left_jacobian(x)

    return Chart(
        name=f"so3-log-{idx}",
        dim=3,
        to_coords=to_coords,
        from_coords=from_coords,
        dto=dto,
        dfrom=dfrom,
        radius=np.pi - GAUGE_RADIUS_MARGIN,
    )


# ---------------------------------------------------------------------------
# Chart manifolds: open subsets of R^d with a prescribed connection
# ---------------------------------------------------------------------------


class ChartManifold(Manifold):
    """Open ball in R^d with an optional connection ``gamma``.

    ``gamma(xs)`` maps a point or a stack of points (..., d) to coefficients A,
    (A<v>w)_i = A[i, j, l] v_j w_l, that broadcast to (..., d, d, d), so a constant
    array serves every stack; the default connection is flat.  Newton shooting makes one
    RK4 run per iteration for a whole stack: ``log`` is its shot v, ``transport`` the frame
    the run carries and ``d2log`` J^{-1}, J the Jacobi field (the implicit function theorem
    on exp(m, log(m, n)) = n).  Points have the shape of ``center`` ((d,) by default); a
    flat ball may hold matrices, whose identity-chart coordinates are their entries.
    """

    name = "chart"

    def __init__(self, dim, radius=10.0, center=None, gamma=None, h_geo=0.01):
        self.dim = int(dim)
        self.radius = float(radius)
        if self.dim < 1:
            raise ShapeError(f"a chart manifold needs dimension at least 1, got {dim}")
        if not self.radius > 0.0:
            raise DomainError(f"a chart manifold needs a positive radius, got {radius}")
        self.center = np.zeros(self.dim) if center is None else np.asarray(center, dtype=float)
        if self.center.ndim == 0 or self.center.size != self.dim:
            raise ShapeError(f"a center of shape {self.center.shape} does not hold {self.dim} coordinates")
        if self.center.ndim > 1 and gamma is not None:
            raise ShapeError("a connection acts on vector points; the center must be one-dimensional")
        self.point_shape = self.center.shape
        self.gamma = gamma
        self.h_geo = float(h_geo)
        # 5% chart-domain margin
        self.gauge_radius = 2.0 * self.radius * 0.95

    def _gamma(self, x):
        """Connection coefficients at a point or a stack of points (zeros when flat), in one ``gamma`` call."""
        x = np.asarray(x, dtype=float)
        shape = self._lead(x) + (self.dim,) * 3
        if self.gamma is None:
            return np.zeros(shape)
        try:
            out = np.asarray(self.gamma(x), dtype=float)
            return out if out.shape == shape else np.broadcast_to(out, shape)
        except (ValueError, IndexError, TypeError) as exc:  # a per-point callable fails on a stack
            raise ShapeError(f"gamma(xs) must map points (..., d) to arrays that broadcast to (..., d, d, d), "
                             f"and a metric it reads to (..., d, d); on points of shape {x.shape}: {exc}") from exc

    def chart_christoffels(self, chart, x):
        """``gamma`` at identity-chart coordinates x, shape (..., d), which are the flattened points."""
        return self._gamma(self.unflatten(x))

    def project(self, p):
        return np.asarray(p, dtype=float)

    def tangent_projector(self, p):
        return self._identities(p)

    def _geodesic(self, ms, vs, jacobi=True):
        """RK4 over unit time from (P, d) points and velocities: endpoints, and with ``jacobi`` Jacobi fields
        J = dx/dv0 and frames U from I.

        RK4 on (J, V = dv/dv0), V' = -dGamma(J)(v, v) - Gamma(V, v) - Gamma(v, V), is the scheme's forward-mode
        derivative.  Each stage makes one ``gamma`` call: at the points, or with ``jacobi`` through
        ``chart_christoffels_jet`` on the points and their stencils of dGamma.
        """
        n, d = ms.shape
        n_steps = max(1, int(np.ceil(1.0 / self.h_geo)))
        h, eye, chart = 1.0 / n_steps, np.eye(d), self.charts()[0]
        carried = np.hstack([0.0 * eye, eye, eye]) if jacobi else np.zeros((d, 0))  # J, V, U
        state = np.dstack([ms, vs, np.broadcast_to(carried, (n, d, carried.shape[1]))])

        def rates(st):
            x, v = st[..., 0], st[..., 1]
            g, dg = self.chart_christoffels_jet(chart, x) if jacobi else (self.chart_christoffels(chart, x), None)
            gv = (g @ v[:, None, :, None])[..., 0]  # Gamma(., v), (P, i, j)
            out = [v[..., None], -(gv @ v[..., None])]
            if jacobi:
                jac, vel, frame = st[..., 2 : 2 + d], st[..., 2 + d : 2 + 2 * d], st[..., 2 + 2 * d :]
                vg = (v[:, None, None, :] @ g)[:, :, 0]  # Gamma(v, .), (P, i, l)
                dv = -np.einsum("pkijl,pj,pl->pik", dg, v, v) @ jac - (gv + vg) @ vel
                out += [vel, dv, -vg @ frame]
            return np.concatenate(out, axis=-1)

        for _ in range(n_steps):
            k1 = rates(state)
            k2 = rates(state + 0.5 * h * k1)
            k3 = rates(state + 0.5 * h * k2)
            k4 = rates(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if any_true(norm(state[..., 0] - self.center) > self.radius):
                raise ChartExit(message="geodesic left the coordinate domain")
        return state[..., 0], state[..., 2 : 2 + d], state[..., 2 + 2 * d :]

    def exp(self, m, v):
        if self.gamma is None:
            m, v = self._points(m, v)
            return m + v
        lead, ms, vs = self._pair_rows(m, v)
        return self._geodesic(ms, vs, jacobi=False)[0].reshape(lead + (self.dim,))

    def _shoot(self, m, n, tol=1e-12, max_iter=50):
        """Newton shooting for exp(m, v) = n from v = n - m on a pair or stacks: (v, J, U) at the shot.

        J = dexp_m/dv is the Newton Jacobian.  A pair leaves the stack once its endpoint
        residual is at most ``tol * |v|^2``, the bending the guess ignores, or at most ``tol``
        once a Newton step fails to halve it (the rounding floor of the RK4 endpoint).
        """
        lead, ms, ns = self._pair_rows(m, n)
        v = ns - ms
        jac, frame = np.empty((2, len(v), self.dim, self.dim))
        live, prev = np.arange(len(v)), np.full(len(v), np.inf)
        for _ in range(max_iter):
            x, j, u = self._geodesic(ms[live], v[live])
            r = norm(res := x - ns[live])
            done = (r <= tol * sqnorm(v[live])) | ((r <= tol) & (r > 0.5 * prev))
            jac[live[done]], frame[live[done]] = j[done], u[done]
            live, prev, j, res = live[~done], r[~done], j[~done], res[~done]
            if not live.size:
                return tuple(a.reshape(lead + a.shape[1:]) for a in (v, jac, frame))
            try:
                v[live] -= np.linalg.solve(j, res[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise LogFailure(str(exc)) from exc
        raise LogFailure(f"Newton shooting stalled at residual {np.max(prev):.3e}")

    def log(self, m, n, tol=1e-12, max_iter=50):
        if self.gamma is None:
            m, n = self._points(m, n)
            return n - m
        return self._shoot(m, n, tol, max_iter)[0]

    def transport(self, to_pt, from_pt):
        return self._identities(*self._points(to_pt, from_pt)) if self.gamma is None else self._shoot(from_pt, to_pt)[2]

    def d2log(self, m, n):
        return self._identities(*self._points(m, n)) if self.gamma is None else np.linalg.inv(self._shoot(m, n)[1])

    def distance(self, m, n):
        # coordinate distance; the conservative 5% margin absorbs the mismatch
        m, n = self._points(m, n)
        return np.linalg.norm(self.flatten(n) - self.flatten(m), axis=-1)

    def torsion_tensor(self, m):
        A = self._gamma(m)
        return A - np.swapaxes(A, -2, -1)

    def curve(self, ms, us, eps):
        # any curves with the right velocities do for directional derivatives
        return np.asarray(ms, dtype=float) + eps * np.asarray(us, dtype=float)

    def charts(self):
        ident = Chart(
            name="identity",
            dim=self.dim,
            to_coords=lambda p: self.flatten(p).copy(),
            from_coords=lambda x: self.unflatten(x).copy(),
            dto=self._identities,
            dfrom=lambda x: np.broadcast_to(np.eye(self.dim), np.shape(x)[:-1] + (self.dim,) * 2).copy(),
            radius=self.radius,
            center_coords=self.center.reshape(self.dim),
        )
        return [ident]

    def random_point(self, rng):
        return self.center + 0.3 * self.radius * rng.standard_normal(self.point_shape)

    def same_geometry(self, other):
        # the spec names a custom connection but cannot hold it, so compare the callables
        return super().same_geometry(other) and self.gamma is getattr(other, "gamma", None)

    def spec_json(self):
        return {
            "type": "chart",
            "dim": self.dim,
            "charts": [{"name": "identity", "center": self.center.tolist(), "radius": self.radius}],
            "connection": {"kind": "custom" if self.gamma is not None else "levi-civita"},
        }
