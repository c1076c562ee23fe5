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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import block_diag

from .errors import AtlasGap, ChartExit, ConfigError, CrpError, DomainError, LogFailure, NearCutLocus, ShapeError
from .linalg import (
    FD_STEP,
    SO3_BASIS,
    hat,
    polar_retract,
    richardson_diff,
    so3_exp,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
    vee,
)

GAUGE_RADIUS_MARGIN = 0.1  # geodesic-ball radius pi - 0.1 on S^2 and SO(3)
CHART_FAILURES = (CrpError, FloatingPointError, ValueError, ZeroDivisionError)  # a point no chart map reads
_EYE2 = np.eye(2)


@dataclass
class Chart:
    """Coordinate chart with closed-form differentials.

    ``to_coords``/``from_coords`` map points to R^dim and back; ``dto(p)`` is
    the (dim, D) differential on flattened ambient tangents and ``dfrom(x)``
    its (D, dim) right inverse.  ``radius`` bounds |coords| on the domain.
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
        c = 0.0 if self.center_coords is None else self.center_coords
        return self.radius - float(np.linalg.norm(x - c))

    def margin(self, p):
        try:
            return self.coords_margin(self.to_coords(p))
        except CHART_FAILURES:
            return -np.inf

    def contains(self, p):
        return self.margin(p) > 0.0


class Manifold:
    """Base class; subclasses provide closed-form connection geometry."""

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

    def exp(self, m, v):
        raise NotImplementedError

    def log(self, m, n):
        raise NotImplementedError

    def transport(self, to_pt, from_pt):
        """Parallel transport T_{from}M -> T_{to}M as a (D, D) matrix."""
        raise NotImplementedError

    def d2log(self, m, n):
        """Differential of n -> log_m(n) as a (D, D) matrix on T_nM."""
        raise NotImplementedError

    def distance(self, m, n):
        return float(np.linalg.norm(self.flatten(self.log(m, n))))

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

    gauge_radius = np.inf

    def domain_distance_batch(self, ms, ns):
        """Per-pair distance surrogate that the gauge-domain checks compare with ``gauge_radius``."""
        return np.array([self.distance(m, n) for m, n in zip(ms, ns)])

    # -- atlas -------------------------------------------------------------------

    def charts(self):
        raise NotImplementedError

    def chart_at(self, p, atlas=None):
        """The chart of ``atlas`` (default: all charts) with the largest margin at p."""
        atlas = self.charts() if atlas is None else atlas
        margins = [c.margin(p) for c in atlas]
        best = int(np.argmax(margins))
        if margins[best] <= 0:
            raise AtlasGap(f"no chart of {self.name} contains the point")
        return atlas[best]

    # -- misc ---------------------------------------------------------------------

    def curve(self, ms, us, eps):
        """Canonical curves through a stack of points with unit velocities, at parameter eps.

        ``ms`` and ``us`` have shape (R, *point_shape); the fallback runs ``exp`` row by row.
        """
        return np.stack([self.exp(m, eps * u) for m, u in zip(ms, np.asarray(us, dtype=float))])

    def derivative_along(self, ms, vs, g, h=1e-4):
        """Richardson derivatives of g along ``curve`` at a stack of points, one Richardson stencil for all rows.

        Row r runs the unit-speed curve through ``ms[r]`` in the flattened direction
        ``vs[r]`` with step h and scales the result by |vs[r]|.  ``g(qs, bases)``
        maps the stacked curve points of some rows and those rows' base points to
        one value per row.  Rows with |v| < 1e-14 are exactly zero and take no
        stencil point; when every row is such, g runs once at a base point for
        the value shape.
        """
        ms = np.asarray(ms, dtype=float)
        vs = np.asarray(vs, dtype=float)
        nv = np.linalg.norm(vs, axis=-1)
        live = np.flatnonzero(nv >= 1e-14)
        if live.size == 0:
            return np.zeros((len(ms),) + np.shape(g(ms[:1], ms[:1]))[1:])
        bases = ms[live]
        us = self.unflatten(vs[live] / nv[live, None])
        d = richardson_diff(lambda e: g(self.curve(bases, us, e), bases), h)
        out = np.zeros((len(ms),) + d.shape[1:])
        out[live] = nv[live].reshape((-1,) + (1,) * (d.ndim - 1)) * d
        return out

    def on_manifold(self, p, tol=1e-10):
        return float(np.linalg.norm(self.flatten(p) - self.flatten(self.project(p)))) <= tol

    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, rng, m):
        v = rng.standard_normal(self.flat_dim)
        return self.unflatten(self.tangent_projector(m) @ v)

    # batch hooks (fallbacks loop)
    def log_batch(self, ms, ns):
        return np.stack([self.flatten(self.log(m, n)) for m, n in zip(ms, ns)])

    def transport_batch(self, to_pts, from_pts):
        return np.stack([self.transport(a, b) for a, b in zip(to_pts, from_pts)])

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
        return p / np.linalg.norm(p)

    def tangent_projector(self, p):
        p = np.asarray(p, dtype=float)
        return np.eye(3) - np.outer(p, p)

    def exp(self, m, v):
        m = np.asarray(m, dtype=float)
        v = np.asarray(v, dtype=float)
        th = np.linalg.norm(v)
        if th < 1e-300:
            return m.copy()
        return np.cos(th) * m + np.sin(th) * v / th

    def curve(self, ms, us, eps):
        # the geodesics cos(eps |u|) m + sin(eps |u|) u / |u| of the whole stack
        us = np.asarray(us, dtype=float)
        nu = np.linalg.norm(us, axis=-1, keepdims=True)
        th = eps * nu
        return np.cos(th) * np.asarray(ms, dtype=float) + np.sin(th) * us / nu

    def log(self, m, n):
        m = np.asarray(m, dtype=float)
        n = np.asarray(n, dtype=float)
        c = float(np.clip(np.dot(m, n), -1.0, 1.0))
        th = np.arccos(c)
        if th >= self.gauge_radius - 1e-6:
            raise NearCutLocus(f"points at distance {th:.6f} reach the gauge ball")
        u = n - c * m
        un = np.linalg.norm(u)
        if un < 1e-14:
            return np.zeros(3)
        return th * u / un

    def transport(self, to_pt, from_pt):
        m = np.asarray(from_pt, dtype=float)
        n = np.asarray(to_pt, dtype=float)
        c = float(np.dot(m, n))
        if c <= -1.0 + 1e-12:
            raise NearCutLocus("transport through antipode")
        mn = m + n
        return np.eye(3) - np.outer(mn, mn) / (1.0 + c) + 2.0 * np.outer(n, m)

    def d2log(self, m, n):
        """Closed-form differential of n -> log_m(n), as a matrix on T_nM."""
        m = np.asarray(m, dtype=float)
        n = np.asarray(n, dtype=float)
        c = float(np.clip(np.dot(m, n), -1.0, 1.0))
        th = np.arccos(c)
        u = n - c * m
        if th < 1e-6:
            a = 1.0 + th**2 / 6.0
            b = 1.0 / 3.0
        else:
            s = np.sin(th)
            a = th / s
            b = (s - th * c) / s**3
        # dpsi(w) = a (w - (m.w) m) - b (m.w) u   for w in T_nM
        return a * (np.eye(3) - np.outer(m, m)) - b * np.outer(u, m)

    def charts(self):
        return [_stereographic_chart(pole=+1), _stereographic_chart(pole=-1)]

    def chart_christoffels(self, chart, x):
        """Levi-Civita coefficients of the round metric in stereographic charts.

        ``x`` holds chart coordinates, shape (..., 2); the result has shape (..., 2, 2, 2).
        """
        if not chart.name.startswith("stereo"):
            return None
        x = np.asarray(x, dtype=float)
        dl = -2.0 * x / (1.0 + np.sum(x * x, axis=-1, keepdims=True))  # gradient of the conformal factor
        # delta_ij dl_l + delta_il dl_j - delta_jl dl_i
        return (_EYE2[:, :, None] * dl[..., None, None, :] + _EYE2[:, None] * dl[..., None, :, None]
                - _EYE2 * dl[..., None, None])

    def random_point(self, rng):
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    def domain_distance_batch(self, ms, ns):
        c = np.clip(np.einsum("pi,pi->p", np.asarray(ms, float), np.asarray(ns, float)), -1.0, 1.0)
        return np.arccos(c)

    # vectorized closed forms used by the pair verifiers
    def log_batch(self, ms, ns):
        ms = np.asarray(ms, dtype=float)
        ns = np.asarray(ns, dtype=float)
        c = np.clip(np.einsum("pi,pi->p", ms, ns), -1.0, 1.0)
        th = np.arccos(c)
        if np.any(th >= self.gauge_radius - 1e-6):
            raise NearCutLocus("a probed pair reaches the gauge ball")
        u = ns - c[:, None] * ms
        un = np.linalg.norm(u, axis=1)
        scale = np.where(un > 1e-14, th / np.maximum(un, 1e-300), 0.0)
        return scale[:, None] * u

    def transport_batch(self, to_pts, from_pts):
        m = np.asarray(from_pts, dtype=float)
        n = np.asarray(to_pts, dtype=float)
        den = 1.0 + np.einsum("pi,pi->p", m, n)
        if np.any(den <= 1e-12):
            raise NearCutLocus("transport through antipode")
        mn = m + n
        eye = np.broadcast_to(np.eye(3), (m.shape[0], 3, 3))
        return (
            eye
            - np.einsum("pi,pj->pij", mn, mn) / den[:, None, None]
            + 2.0 * np.einsum("pi,pj->pij", n, m)
        )


def _stereographic_chart(pole=+1):
    """Stereographic projection from (0, 0, pole); covers m3*pole < 0.9."""
    sign = float(pole)
    # coordinate radius matching |m3| <= 0.9 toward the projection pole
    radius = float(np.sqrt((1 + 0.9) / (1 - 0.9)))

    def to_coords(p):
        p = np.asarray(p, dtype=float)
        den = 1.0 - sign * p[2]
        if den <= 1e-12:
            raise DomainError("point at the projection pole")
        return p[:2] / den

    def from_coords(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        s = 1.0 / (1.0 + r2)
        return np.array([2.0 * x[0] * s, 2.0 * x[1] * s, sign * (r2 - 1.0) * s])

    def dto(p):
        p = np.asarray(p, dtype=float)
        den = 1.0 - sign * p[2]
        out = np.zeros((2, 3))
        out[0, 0] = 1.0 / den
        out[1, 1] = 1.0 / den
        out[0, 2] = sign * p[0] / den**2
        out[1, 2] = sign * p[1] / den**2
        return out

    def dfrom(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        s = 1.0 / (1.0 + r2)
        out = np.zeros((3, 2))
        for j in range(2):
            ds = -2.0 * x[j] * s * s
            out[0, j] = 2.0 * ((1.0 if j == 0 else 0.0) * s + x[0] * ds)
            out[1, j] = 2.0 * ((1.0 if j == 1 else 0.0) * s + x[1] * ds)
            out[2, j] = sign * (2.0 * x[j] * s + (r2 - 1.0) * ds)
        return out

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
        basis = np.stack([(g @ hat(e)).reshape(9) for e in np.eye(3)])  # orthonormal * sqrt(2)
        basis /= np.sqrt(2.0)
        return basis.T @ basis

    def exp(self, g, v):
        g = np.asarray(g, dtype=float)
        a = vee(g.T @ np.asarray(v, dtype=float))
        return g @ so3_exp(a)

    def log(self, k, g):
        k = np.asarray(k, dtype=float)
        a = so3_log(k.T @ np.asarray(g, dtype=float))
        th = np.linalg.norm(a)
        if th >= self.gauge_radius - 1e-6:
            raise NearCutLocus(f"rotations at distance {th:.6f} reach the gauge ball")
        return k @ hat(a)

    def transport(self, to_pt, from_pt):
        # left translation by to * from^{-1}: xi -> (to from^T) xi
        q = np.asarray(to_pt, dtype=float) @ np.asarray(from_pt, dtype=float).T
        return np.kron(q, np.eye(3))

    def d2log(self, k, g):
        k = np.asarray(k, dtype=float)
        g = np.asarray(g, dtype=float)
        ell = so3_log(k.T @ g)
        jr_inv = so3_left_jacobian_inv(-ell)  # right Jacobian inverse
        # tangent xi = g hat(e) maps to k hat(Jr^{-1} e)
        basis_out = np.stack([(k @ hat(jr_inv @ e)).reshape(9) for e in np.eye(3)], axis=1)  # (9, 3)
        return basis_out @ np.stack([vee(g.T @ xi.reshape(3, 3)) for xi in np.eye(9)], axis=1)

    def distance(self, g, h):
        return float(np.linalg.norm(so3_log(np.asarray(g).T @ np.asarray(h))))

    def torsion_tensor(self, g):
        g = np.asarray(g, dtype=float)
        lead = g.shape[:-2]
        out = np.zeros(lead + (9, 9, 9))
        basis = [g @ hat(e) for e in np.eye(3)]
        vecs = [b.reshape(lead + (9,)) for b in basis]
        gram = np.linalg.pinv(np.stack(vecs, axis=-1))  # (..., 3, 9) coefficients map
        for a in range(3):
            for b in range(3):
                A, B = hat(np.eye(3)[a]), hat(np.eye(3)[b])
                t = -(g @ (A @ B - B @ A))
                out += np.einsum("...c,...a,...b->...cab", t.reshape(lead + (9,)), gram[..., a, :], gram[..., b, :])
        return out

    def charts(self):
        centers = [np.eye(3)] + [so3_exp(np.pi * e) for e in np.eye(3)]
        return [_so3_log_chart(c, i) for i, c in enumerate(centers)]

    def random_point(self, rng):
        return so3_exp(rng.standard_normal(3))

    def domain_distance_batch(self, ks, gs):
        tr = np.einsum("pij,pij->p", np.asarray(ks, float), np.asarray(gs, float))
        return np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))

    def log_batch(self, ks, gs):
        """``log`` of a block of pairs, bit for bit (the same BLAS products, masked coefficients); a pair
        past pi - 1e-6, where ``so3_log`` turns to its antipodal branch, lies past the gauge ball."""
        ks = np.asarray(ks, dtype=float)
        r = np.swapaxes(ks, 1, 2) @ np.asarray(gs, dtype=float)
        th = np.arccos(np.clip(0.5 * (np.trace(r, axis1=1, axis2=2) - 1.0), -1.0, 1.0))
        w = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], axis=1)
        big = np.where(th < 1e-8, 1.0, th)
        a = np.where(th < 1e-8, 0.5 * (1.0 + th**2 / 6.0), big / (2.0 * np.sin(big)))[:, None] * w
        cut = (th > np.pi - 1e-6) | (np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0]) >= self.gauge_radius - 1e-6)
        if cut.any():
            self.log(ks[np.argmax(cut)], gs[np.argmax(cut)])  # raises the scalar's NearCutLocus
        hats = np.zeros(r.shape)
        hats[:, [2, 0, 1, 1, 2, 0], [1, 2, 0, 2, 0, 1]] = np.concatenate([a, -a], axis=1)
        return (ks @ hats).reshape(-1, 9)

    def transport_batch(self, to_pts, from_pts):
        q = np.einsum("pij,pkj->pik", np.asarray(to_pts, float), np.asarray(from_pts, float))
        return (q[:, :, None, :, None] * np.eye(3)[:, None, :]).reshape(-1, 9, 9)  # kron(q, I) per pair


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
        return jli @ (-0.5 * np.einsum("irk,kc->ric", SO3_BASIS, g)).reshape(3, 9)

    def dfrom(x):
        # column j is hat(J_l e_j) g
        x = np.asarray(x, dtype=float)
        return (SO3_BASIS @ (so3_exp(x) @ c)).reshape(3, 9).T @ so3_left_jacobian(x)

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

    ``gamma(x)`` returns the (d, d, d) coefficient array A with
    (A<v>w)_i = A[i, j, l] v_j w_l; the default connection is flat.  Geodesics
    run through a fixed-step RK4 integrator and logarithms through Newton
    shooting, matching the generic-manifold contract.  Points have the shape
    of ``center`` ((d,) by default); a flat ball may hold matrices, such as
    GL(n) inside R^{n x n}, whose identity-chart coordinates are their entries.
    """

    name = "chart"

    def __init__(self, dim, radius=10.0, center=None, gamma=None, h_geo=0.01):
        self.dim = int(dim)
        self.radius = float(radius)
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
        """Connection coefficients at a point or a stack of points (zeros when flat)."""
        x = np.asarray(x, dtype=float)
        lead = self._lead(x)
        if self.gamma is None:
            return np.zeros(lead + (self.dim,) * 3)
        if lead:
            return np.stack([self._gamma(p) for p in x.reshape(-1, self.dim)]).reshape(lead + (self.dim,) * 3)
        return np.asarray(self.gamma(x), dtype=float)

    def chart_christoffels(self, chart, x):
        """``gamma`` at identity-chart coordinates x, shape (..., d), which are the flattened points."""
        return self._gamma(self.unflatten(x))

    def project(self, p):
        return np.asarray(p, dtype=float)

    def tangent_projector(self, p):
        return np.eye(self.dim)

    def _geodesic(self, m, v, u0=None):
        """RK4 on the geodesic equation over unit time: (point, velocity, frame).

        A frame ``u0`` (d, c) is parallel-transported along when given; the
        frame slot is None otherwise.
        """
        m = np.asarray(m, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.gamma is None:
            return m + v, v, u0
        n_steps = max(1, int(np.ceil(1.0 / self.h_geo)))
        h = 1.0 / n_steps
        d = self.dim
        # one flat state: point, velocity and, when given, the frame's entries
        state = np.concatenate([m, v] + ([] if u0 is None else [np.asarray(u0, dtype=float).ravel()]))

        def rates(st):
            p, vv = st[:d], st[d : 2 * d]
            A = self._gamma(p)
            out = [vv, -np.einsum("ijl,j,l->i", A, vv, vv)]
            if st.size > 2 * d:
                out.append(-np.einsum("ijl,j,lc->ic", A, vv, st[2 * d :].reshape(d, -1)).ravel())
            return np.concatenate(out)

        for _ in range(n_steps):
            k1 = rates(state)
            k2 = rates(state + 0.5 * h * k1)
            k3 = rates(state + 0.5 * h * k2)
            k4 = rates(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.linalg.norm(state[:d] - self.center) > self.radius:
                raise ChartExit(message="geodesic left the coordinate domain")
        u = None if u0 is None else state[2 * d :].reshape(d, -1)
        return state[:d], state[d : 2 * d], u

    def exp(self, m, v):
        return self._geodesic(m, v)[0]

    def log(self, m, n, tol=1e-12, max_iter=50):
        """Newton shooting for exp(m, v) = n from the guess v = n - m.

        Stops when the endpoint residual is at most ``tol * |v|^2``, the size
        of the bending the guess ignores, or at most ``tol`` once a Newton step
        fails to halve it (the rounding floor of the RK4 endpoint).
        """
        m = np.asarray(m, dtype=float)
        n = np.asarray(n, dtype=float)
        if self.gamma is None:
            return n - m
        v = n - m
        prev = np.inf
        for _ in range(max_iter):
            res = self.exp(m, v) - n
            r = float(np.linalg.norm(res))
            if r <= tol * float(v @ v) or (r <= tol and r > 0.5 * prev):
                return v
            prev = r
            jac = np.empty((self.dim, self.dim))
            hstep = 1e-6 * max(1.0, float(np.linalg.norm(v)))
            for j in range(self.dim):
                dv = np.zeros(self.dim)
                dv[j] = hstep
                jac[:, j] = (self.exp(m, v + dv) - self.exp(m, v - dv)) / (2.0 * hstep)
            try:
                v = v - np.linalg.solve(jac, res)
            except np.linalg.LinAlgError as exc:
                raise LogFailure(str(exc)) from exc
        raise LogFailure(f"Newton shooting stalled at residual {np.linalg.norm(res):.3e}")

    def transport(self, to_pt, from_pt):
        if self.gamma is None:
            return np.eye(self.dim)
        v = self.log(from_pt, to_pt)
        return self._geodesic(from_pt, v, u0=np.eye(self.dim))[2]

    def d2log(self, m, n):
        if self.gamma is None:
            return np.eye(self.dim)
        h = FD_STEP * max(1.0, float(np.linalg.norm(n)))
        cols = [richardson_diff(lambda e, _d=dv: self.log(m, n + e * _d), h) for dv in np.eye(self.dim)]
        return np.stack(cols, axis=1)

    def domain_distance_batch(self, ms, ns):
        # coordinate distance; the conservative 5% margin absorbs the mismatch
        return np.linalg.norm(self.flatten(ns) - self.flatten(ms), axis=-1)

    def torsion_tensor(self, m):
        A = self._gamma(m)
        return A - np.swapaxes(A, -2, -1)

    def curve(self, ms, us, eps):
        # any curves with the right velocities do for directional derivatives
        return np.asarray(ms, dtype=float) + eps * np.asarray(us, dtype=float)

    @staticmethod
    def from_metric(dim, metric, radius=10.0, center=None, h_geo=0.01):
        """Chart manifold with the Levi-Civita connection of a coordinate metric.

        ``metric(x)`` returns the (d, d) Gram matrix; its derivative array
        dg[i, j, l] = d g_{ij} / d x_l comes from Richardson central differences.
        """

        def gamma(x):
            g = np.asarray(metric(x), dtype=float)
            h = FD_STEP * max(1.0, float(np.linalg.norm(x)))
            dg = np.stack(
                [richardson_diff(lambda e, _d=dl: np.asarray(metric(x + e * _d), float), h) for dl in np.eye(dim)],
                axis=2,
            )
            ginv = np.linalg.inv(g)
            # Gamma^i_{jl} = g^{im}(dg[m,l,j] + dg[m,j,l] - dg[j,l,m]) / 2
            return 0.5 * np.einsum(
                "im,mjl->ijl", ginv, np.transpose(dg, (0, 2, 1)) + dg - np.transpose(dg, (2, 1, 0))
            )

        return ChartManifold(dim, radius=radius, center=center, gamma=gamma, h_geo=h_geo)

    def charts(self):
        ident = Chart(
            name="identity",
            dim=self.dim,
            to_coords=lambda p: self.flatten(p).copy(),
            from_coords=lambda x: self.unflatten(x).copy(),
            dto=lambda p: np.eye(self.dim),
            dfrom=lambda x: np.eye(self.dim),
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


# ---------------------------------------------------------------------------
# Products (used for bundle lifts)
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
        return block_diag(self.first.tangent_projector(a), self.second.tangent_projector(b))

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
        return block_diag(self.first.transport(a1, a0), self.second.transport(b1, b0))

    def d2log(self, m, n):
        a, b = self.split(m)
        na, nb = self.split(n)
        return block_diag(self.first.d2log(a, na), self.second.d2log(b, nb))

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
        return float(np.hypot(self.first.distance(a, na), self.second.distance(b, nb)))

    def charts(self):
        out = []
        for c1 in self.first.charts():
            for c2 in self.second.charts():
                out.append(self._product_chart(c1, c2))
        return out

    def _product_chart(self, c1: Chart, c2: Chart):
        def to_coords(p):
            a, b = self.split(p)
            return np.concatenate([c1.to_coords(a), c2.to_coords(b)])

        def from_coords(x):
            return self.join(c1.from_coords(x[: c1.dim]), c2.from_coords(x[c1.dim :]))

        def dto(p):
            a, b = self.split(p)
            return block_diag(c1.dto(a), c2.dto(b))

        def dfrom(x):
            return block_diag(c1.dfrom(x[: c1.dim]), c2.dfrom(x[c1.dim :]))

        return Chart(
            name=f"{c1.name}*{c2.name}",
            dim=c1.dim + c2.dim,
            to_coords=to_coords,
            from_coords=from_coords,
            dto=dto,
            dfrom=dfrom,
            radius=min(c1.radius, c2.radius),
        )

    def random_point(self, rng):
        return self.join(self.first.random_point(rng), self.second.random_point(rng))

    def same_geometry(self, other):
        return self is other or (
            isinstance(other, ProductManifold)
            and self.first.same_geometry(other.first)
            and self.second.same_geometry(other.second)
        )


def manifold_from_spec(doc):
    """Manifold factory for the JSON manifold-spec schema."""
    kind = doc["type"]
    if kind == "sphere":
        return Sphere()
    if kind == "so3":
        return SO3()
    if kind == "chart":
        # a spec carries neither a custom connection (a callable) nor a second chart
        if doc.get("connection", {}).get("kind", "levi-civita") != "levi-civita" or len(doc.get("charts", [])) > 1:
            raise ConfigError("only a flat chart manifold with its one identity chart can be read from a spec")
        ident = (doc.get("charts") or [{}])[0]
        radius = ident.get("radius", doc.get("radius", 10.0))
        return ChartManifold(dim=doc["dim"], radius=radius, center=ident.get("center"))
    raise DomainError(f"unknown manifold type {kind!r}")
