"""Flat rough differential equations driven by level-2 rough paths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .controlled import ControlledPath
from .errors import Explosion, InvalidGrid, ShapeError
from .roughpath import RoughPath

EXPLOSION_BOUND = 1e8


@dataclass
class DrivingField:
    """Field F with value F_w(a) linear in the driver direction w.

    Either a closed-form pair (``eval``, ``jacobian``) or a linear matrix family
    ``matrices`` with F_w(a) = sum_j w_j M_j a, which sets that pair.
    ``jacobian(a, v, w)`` is the directional derivative of a -> F_w(a) along v.
    """

    eval: Callable | None = None
    jacobian: Callable | None = None
    matrices: np.ndarray | None = None  # (k, n, n)

    def __post_init__(self):
        if self.matrices is not None:
            mats = self.matrices = np.asarray(self.matrices, dtype=float)
            if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
                raise ShapeError("matrix family must have shape (k, n, n)")
            self.eval = lambda a, w: np.einsum("j,jnm,m->n", np.asarray(w, float), mats, np.asarray(a, float))
            self.jacobian = lambda a, v, w: np.einsum("j,jnm,m->n", np.asarray(w, float), mats, v)
            self.bind(mats.shape[0])
        elif self.eval is None:
            raise ShapeError("need either eval or matrices")

    def value(self, a, w):
        return np.asarray(self.eval(a, w), dtype=float)

    def value_matrix(self, a):
        """F(a) as an (n, k) matrix: column j is F_{e_j}(a)."""
        k = self._driver_dim(a)
        return np.stack([self.value(a, e) for e in np.eye(k)], axis=1)

    def _driver_dim(self, a):
        if not hasattr(self, "_kdim"):
            raise ShapeError("callback field needs driver_dim set via bind()")
        return self._kdim

    def bind(self, driver_dim):
        self._kdim = int(driver_dim)
        return self

    def second_order(self, a, area):
        """sum_{ab} area[a,b] (d_{F_{e_a}(a)} F_{e_b})(a)."""
        k = area.shape[0]
        cols = self.value_matrix(a)
        out = np.zeros_like(np.asarray(a, float))
        for ai in range(k):
            v = cols[:, ai]
            for bi in range(k):
                if area[ai, bi] == 0.0:
                    continue
                out = out + area[ai, bi] * self._jac(a, v, np.eye(k)[bi])
        return out

    def _jac(self, a, v, w):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(a, v, w), dtype=float)
        h = 1e-6 * max(1.0, float(np.max(np.abs(a))))
        return (self.value(a + h * v, w) - self.value(a - h * v, w)) / (2.0 * h)

    def jacobian_residual(self, points, rng=None):
        """Worst relative mismatch between the jacobian and a central difference."""
        if self.jacobian is None:
            return 0.0
        rng = rng or np.random.default_rng(7)
        worst = 0.0
        for a in points:
            a = np.asarray(a, dtype=float)
            v = rng.standard_normal(a.shape)
            w = rng.standard_normal(self._driver_dim(a))
            h = 1e-6 * max(1.0, float(np.max(np.abs(a))))
            fd = (self.value(a + h * v, w) - self.value(a - h * v, w)) / (2.0 * h)
            jac = self._jac(a, v, w)
            denom = max(1.0, float(np.linalg.norm(fd)))
            worst = max(worst, float(np.linalg.norm(jac - fd)) / denom)
        return worst


def _exp_step(field: DrivingField, y, dx, area, substeps=2):
    """Flow of the quadratic expansion field with antisymmetrized area, by a short RK4 run.

    Third-order equivalent to the additive step for weak-geometric drivers.
    """
    anti = 0.5 * (area - area.T)

    def vf(z):
        return field.value(z, dx) + field.second_order(z, anti)

    z = np.asarray(y, dtype=float)
    h = 1.0 / substeps
    for _ in range(substeps):
        k1 = vf(z)
        k2 = vf(z + 0.5 * h * k1)
        k3 = vf(z + 0.5 * h * k2)
        k4 = vf(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def linear_flow(mats, times, dx, areas, y0, scheme="davie", explosion_bound=EXPLOSION_BOUND):
    """States y_0 .. y_N of dy = sum_a M_a y dx^a from a vector or matrix y0, on the whole grid.

    One contraction of the (k, n, n) family with the (N, k) increments and (N, k, k) step
    areas A builds every step operator, "davie" P_i = I + dx_ia M_a + A_iab M_b M_a or "exp"
    (log-ODE) P_i = expm(dx_ia M_a + Anti(A_i)_ab M_b M_a), applied in turn: y_{i+1} = P_i y_i;
    from y0=None, the identity, a log-depth scan forms the products P_i ... P_0 instead.
    Raises ``Explosion`` at times[i] for the first state not finite or past ``explosion_bound``.
    """
    k, n = mats.shape[:2]
    if scheme == "exp":
        areas = 0.5 * (areas - np.swapaxes(areas, 1, 2))
    elif scheme != "davie":
        raise InvalidGrid(f"unknown scheme {scheme!r}")
    pairs = np.einsum("bnp,apm->abnm", mats, mats).reshape(k * k, n * n)  # [a, b] -> M_b M_a
    with np.errstate(all="ignore"):
        gen = (dx @ mats.reshape(k, n * n) + areas.reshape(-1, k * k) @ pairs).reshape(-1, n, n)
        ys, s = np.concatenate([np.eye(n)[None], expm(gen) if scheme == "exp" else gen + np.eye(n)]), 1
        if y0 is None:
            while s < len(ys):  # ys[i] holds P_{i-1} ... P_{max(0, i - 2s)} after this pass
                ys[s:], s = ys[s:] @ ys[:-s], 2 * s
        else:
            ops, ys = ys[1:], np.broadcast_to(y0, (len(ys),) + np.shape(y0)).astype(float)
            for i, op in enumerate(ops):
                ys[i + 1] = op @ ys[i]
        bad = ~np.all(np.isfinite(ys[1:]) & (np.abs(ys[1:]) <= explosion_bound), axis=tuple(range(1, ys.ndim)))
    if np.any(bad):
        raise Explosion(times[int(np.argmax(bad))])
    return ys


def rde_solve_flat(
    field: DrivingField,
    rp: RoughPath,
    y0,
    interval=None,
    scheme="davie",
    explosion_bound=EXPLOSION_BOUND,
) -> ControlledPath:
    """Second-order one-step solve of dy = F_{dX}(y).

    scheme="davie" is the additive step
        y_{i+1} = y_i + F_{dx_i}(y_i) + (d_{F_w(y_i)} F_w~)(y_i) at the step area;
    scheme="exp" realizes the same local expansion as the flow of the quadratic
    field, exact on commutator fixtures.  A matrix family runs on the whole grid by
    ``linear_flow``, a callback field node by node; the derivative is F(y_i).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if interval is not None:
        i0, i1 = rp.index_of(interval[0]), rp.index_of(interval[1])
        rp = rp.restrict(i0, i1)
    dx = np.diff(rp.values, axis=0)
    if field.matrices is not None:
        k, n = field.matrices.shape[:2]
        if rp.dim != k or y0.shape != (n,):
            raise ShapeError(f"a ({k}, {n}, {n}) family needs driver dimension {k} and y0 of size {n}")
        values = linear_flow(field.matrices, rp.times, dx, rp.step_areas, y0, scheme, explosion_bound)
        return ControlledPath(rp.times, values, np.einsum("jnm,pm->pnj", field.matrices, values))
    field.bind(rp.dim)
    values = np.empty((rp.n_steps + 1, y0.size))
    values[0] = y0
    for i in range(rp.n_steps):
        y = values[i]
        if scheme == "exp":
            ynew = _exp_step(field, y, dx[i], rp.step_areas[i])
        elif scheme == "davie":
            ynew = y + field.value(y, dx[i]) + field.second_order(y, rp.step_areas[i])
        else:
            raise InvalidGrid(f"unknown scheme {scheme!r}")
        if not np.all(np.isfinite(ynew)) or float(np.max(np.abs(ynew))) > explosion_bound:
            raise Explosion(rp.times[i])
        values[i + 1] = ynew
    deriv = np.stack([field.value_matrix(values[i]) for i in range(rp.n_steps + 1)], axis=0)
    return ControlledPath(rp.times, values, deriv)
