"""Flat rough differential equations driven by level-2 rough paths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controlled import ControlledPath
from .errors import Explosion, InvalidGrid, ShapeError
from .linalg import expm
from .roughpath import RoughPath

EXPLOSION_BOUND = 1e8


@dataclass
class DrivingField:
    """Linear field F_w(a) = sum_j w_j M_j a of a (k, n, n) matrix family ``matrices``.

    A nonlinear flat field is a ``mrde.ManifoldDrivingField`` on a flat ``ChartManifold``.
    """

    matrices: np.ndarray  # (k, n, n)

    def __post_init__(self):
        mats = self.matrices = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ShapeError("matrix family must have shape (k, n, n)")


def running_products(ops):
    """The (N+1, n, n) stack I, P_0, P_1 P_0, ..., P_{N-1} ... P_0 of (N, n, n) step operators, by a log-depth scan."""
    ys, s = np.concatenate([np.eye(ops.shape[-1])[None], ops]), 1
    while s < len(ys):  # ys[i] holds P_{i-1} ... P_{max(0, i - 2s)} after this pass
        ys[s:], s = ys[s:] @ ys[:-s], 2 * s
    return ys


def linear_flow(mats, times, dx, areas, y0, scheme="davie"):
    """States y_0 .. y_N of dy = sum_a M_a y dx^a from a vector or matrix y0, on the whole grid.

    One contraction of the (k, n, n) family with the (N, k) increments and (N, k, k) step
    areas A builds every step operator, "davie" P_i = I + dx_ia M_a + A_iab M_b M_a or "exp"
    (log-ODE) P_i = expm(dx_ia M_a + Anti(A_i)_ab M_b M_a), one ``linalg.expm`` of the whole stack,
    applied in turn: y_{i+1} = P_i y_i; from y0=None, the identity, ``running_products`` forms the
    products P_i ... P_0 instead.
    Raises ``Explosion`` at times[i] for the first state not finite or past ``EXPLOSION_BOUND``.
    """
    k, n = mats.shape[:2]
    if scheme == "exp":
        areas = 0.5 * (areas - np.swapaxes(areas, 1, 2))
    elif scheme != "davie":
        raise InvalidGrid(f"unknown scheme {scheme!r}")
    pairs = np.einsum("bnp,apm->abnm", mats, mats).reshape(k * k, n * n)  # [a, b] -> M_b M_a
    with np.errstate(all="ignore"):
        gen = (dx @ mats.reshape(k, n * n) + areas.reshape(-1, k * k) @ pairs).reshape(-1, n, n)
        ops = expm(gen) if scheme == "exp" else gen + np.eye(n)
        if y0 is None:
            ys = running_products(ops)
        else:
            ys = np.broadcast_to(y0, (len(ops) + 1,) + np.shape(y0)).astype(float)
            for i, op in enumerate(ops):
                ys[i + 1] = op @ ys[i]
        bad = ~np.all(np.isfinite(ys[1:]) & (np.abs(ys[1:]) <= EXPLOSION_BOUND), axis=tuple(range(1, ys.ndim)))
    if np.any(bad):
        raise Explosion(times[int(np.argmax(bad))])
    return ys


def rde_solve_flat(field: DrivingField, rp: RoughPath, y0, scheme="davie") -> ControlledPath:
    """Second-order one-step solve of dy = F_{dX}(y) for a matrix family, on the whole grid by ``linear_flow``.

    scheme="davie" is the additive step
        y_{i+1} = y_i + F_{dx_i}(y_i) + (d_{F_w(y_i)} F_w~)(y_i) at the step area;
    scheme="exp" realizes the same local expansion as the log-ODE step of ``linear_flow``,
    exact on commutator fixtures.  The derivative is F(y_i).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    k, n = field.matrices.shape[:2]
    if rp.dim != k or y0.shape != (n,):
        raise ShapeError(f"a ({k}, {n}, {n}) family needs driver dimension {k} and y0 of size {n}")
    dx = np.diff(rp.values, axis=0)
    values = linear_flow(field.matrices, rp.times, dx, rp.step_areas, y0, scheme)
    return ControlledPath(rp.times, values, np.einsum("jnm,pm->pnj", field.matrices, values))
