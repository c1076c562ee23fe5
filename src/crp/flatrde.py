"""Flat rough differential equations driven by level-2 rough paths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controlled import ControlledPath
from .errors import Explosion, InvalidGrid, ShapeError
from .roughpath import RoughPath

EXPLOSION_BOUND = 1e8


@dataclass
class DrivingField:
    """Field F with value F_w(a) linear in the driver direction w.

    Either a closed-form pair (``eval``, ``jacobian``) or a linear matrix
    family ``matrices`` with F_w(a) = sum_j w_j M_j a.  ``jacobian(a, v, w)``
    is the directional derivative of a -> F_w(a) along v.
    """

    eval: Callable | None = None
    jacobian: Callable | None = None
    matrices: np.ndarray | None = None  # (k, n, n)

    def __post_init__(self):
        if self.matrices is not None:
            self.matrices = np.asarray(self.matrices, dtype=float)
            if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
                raise ShapeError("matrix family must have shape (k, n, n)")
        elif self.eval is None:
            raise ShapeError("need either eval or matrices")

    @property
    def is_linear(self):
        return self.matrices is not None

    def value(self, a, w):
        if self.is_linear:
            return np.einsum("j,jnm,m->n", np.asarray(w, float), self.matrices, np.asarray(a, float))
        return np.asarray(self.eval(a, w), dtype=float)

    def value_matrix(self, a):
        """F(a) as an (n, k) matrix: column j is F_{e_j}(a)."""
        if self.is_linear:
            return np.einsum("jnm,m->nj", self.matrices, np.asarray(a, float))
        k = self._driver_dim(a)
        return np.stack([self.value(a, e) for e in np.eye(k)], axis=1)

    def _driver_dim(self, a):
        if self.is_linear:
            return self.matrices.shape[0]
        if not hasattr(self, "_kdim"):
            raise ShapeError("callback field needs driver_dim set via bind()")
        return self._kdim

    def bind(self, driver_dim):
        self._kdim = int(driver_dim)
        return self

    def second_order(self, a, area):
        """sum_{ab} area[a,b] (d_{F_{e_a}(a)} F_{e_b})(a)."""
        if self.is_linear:
            return np.einsum("ab,bnp,apq,q->n", area, self.matrices, self.matrices, np.asarray(a, float))
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
        if self.jacobian is None and not self.is_linear:
            return 0.0
        rng = rng or np.random.default_rng(7)
        worst = 0.0
        for a in points:
            a = np.asarray(a, dtype=float)
            k = self.matrices.shape[0] if self.is_linear else self._driver_dim(a)
            v = rng.standard_normal(a.shape)
            w = rng.standard_normal(k)
            h = 1e-6 * max(1.0, float(np.max(np.abs(a))))
            fd = (self.value(a + h * v, w) - self.value(a - h * v, w)) / (2.0 * h)
            if self.is_linear:
                jac = np.einsum("j,jnm,m->n", w, self.matrices, v)
            else:
                jac = self._jac(a, v, w)
            denom = max(1.0, float(np.linalg.norm(fd)))
            worst = max(worst, float(np.linalg.norm(jac - fd)) / denom)
        return worst


def _exp_step(field: DrivingField, y, dx, area, substeps=2):
    """Flow of the quadratic expansion field with antisymmetrized area.

    Exact matrix exponential for linear families; a short RK4 run otherwise.
    Third-order equivalent to the additive step for weak-geometric drivers.
    """
    anti = 0.5 * (area - area.T)
    if field.is_linear:
        from scipy.linalg import expm

        gen = np.einsum("j,jnm->nm", dx, field.matrices) + np.einsum(
            "ab,bnp,apm->nm", anti, field.matrices, field.matrices
        )
        return expm(gen) @ y

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
    field (exact exponential for linear matrix families), which is exact on
    commutator fixtures.  The derivative process is F(y_i) in both cases.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if not field.is_linear:
        field.bind(rp.dim)
    if interval is not None:
        i0, i1 = rp.index_of(interval[0]), rp.index_of(interval[1])
        rp = rp.restrict(i0, i1)
    n = rp.n_steps
    values = np.empty((n + 1, y0.size))
    values[0] = y0
    dx = np.diff(rp.values, axis=0)
    for i in range(n):
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
    deriv = np.stack([field.value_matrix(values[i]) for i in range(n + 1)], axis=0)
    return ControlledPath(rp.times, values, deriv)
