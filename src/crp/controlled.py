"""Flat controlled paths and the discrete remainder verifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import Control
from .errors import DomainError, GridMismatch, InvalidGrid, ShapeError
from .pairs import DELTA_SLACK, ZERO_NUM_TOL, by_grid, on_grids, pair_sup, ratio
from .roughpath import RoughPath, _calibrate_control


@dataclass
class ControlledPath:
    """Samples (y, y') of a path controlled by a rough path's first level.

    ``values`` has shape (N+1, *S) for an arbitrary trailing value shape S and
    ``derivative`` has shape (N+1, *S, k): the trailing axis is the driver
    direction, so ``derivative[i, ..., a]`` is the Gubinelli derivative of
    ``values[i, ...]`` against driver coordinate a.
    """

    times: np.ndarray
    values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivative = np.asarray(self.derivative, dtype=float)
        if self.values.shape[0] != self.times.size or self.derivative.shape[0] != self.times.size:
            raise InvalidGrid("values/derivative do not match the grid")
        if self.derivative.shape[1:-1] != self.values.shape[1:]:
            raise ShapeError("derivative must have shape values.shape + (k,)")

    @property
    def driver_dim(self):
        return self.derivative.shape[-1]

    def coarsen(self, factor=2):
        n = self.times.size - 1
        if n % factor:
            raise InvalidGrid(f"cannot coarsen {n} steps by {factor}")
        idx = np.arange(0, n + 1, factor)
        return ControlledPath(self.times[idx], self.values[idx], self.derivative[idx])

    def restrict(self, i, j):
        return ControlledPath(self.times[i : j + 1], self.values[i : j + 1], self.derivative[i : j + 1])

    def to_json(self, control: Control | None = None):
        doc = {
            "times": self.times.tolist(),
            "values": self.values.tolist(),
            "gubinelli": self.derivative.tolist(),
        }
        if control is not None:
            doc["control"] = control.to_json()
        return doc

    @staticmethod
    def from_json(doc):
        return ControlledPath(
            times=np.asarray(doc["times"], dtype=float),
            values=np.asarray(doc["values"], dtype=float),
            derivative=np.asarray(doc["gubinelli"], dtype=float),
        )


def driver_as_controlled(rp: RoughPath) -> ControlledPath:
    """The tautological controlled path (x, identity)."""
    n, k = rp.values.shape
    deriv = np.broadcast_to(np.eye(k), (n, k, k)).copy()
    return ControlledPath(rp.times, rp.values.copy(), deriv)


def check_same_grid(a_times, b_times):
    if a_times.size != b_times.size or not np.array_equal(a_times, b_times):
        raise GridMismatch("operands live on different grids")


def pushed_step_areas(z: ControlledPath, rp: RoughPath):
    """Step areas z'_i (x) z'_i . A_i over z: the driver's step areas pushed through z's derivative."""
    return z.derivative[:-1] @ rp.step_areas @ np.swapaxes(z.derivative[:-1], 1, 2)


def associated_roughpath(z: ControlledPath, rp: RoughPath) -> RoughPath:
    """Rough path over z built from the controlled data.

    First level is z itself; per-step areas push the driver areas through the
    Gubinelli derivative.  Coarse-pair areas then come from Chen composition as
    for every rough path in this library.
    """
    check_same_grid(z.times, rp.times)
    if z.values.ndim != 2:
        raise ShapeError("associated rough path needs vector-valued z")
    areas = pushed_step_areas(z, rp)
    c = _calibrate_control(z.values, rp.times, areas, rp.control.p)
    return RoughPath(rp.times, z.values.copy(), areas, Control.time_scale(c, rp.control.p))


# -- verification ----------------------------------------------------------------


def _pair_constants(times, values, derivative, rp: RoughPath, p, delta=None, sub_deltas=(), strides=(1,)):
    """Smallest constants for the two controlled-path inequalities on this grid.

    Returns ``(C_remainder, C_derivative, worst pair, pairs probed, levels, by_sub)``,
    all from one pair sweep: ``levels`` holds both constants' lists over the
    ``on_grids`` strides, ``by_sub[m]`` the remainder constant over the probed
    pairs with t - s <= sub_deltas[m], the same rounded test as the probe horizon.
    """
    n = times.size - 1
    flat_vals = values.reshape(n + 1, -1)
    flat_dag = derivative.reshape(n + 1, -1, derivative.shape[-1])

    def residuals(i, j):
        om = rp.control.omega(times.take(i), times.take(j))
        dag_i = flat_dag.take(i, axis=0)
        rem = flat_vals.take(j, axis=0) - flat_vals.take(i, axis=0)
        rem -= np.einsum("nva,na->nv", dag_i, rp.values.take(j, axis=0) - rp.values.take(i, axis=0))
        rn = np.linalg.norm(rem, axis=-1)
        dn = np.linalg.norm((flat_dag.take(j, axis=0) - dag_i).reshape(i.size, -1), axis=-1)
        r2, r1 = ratio(rn, om ** (2.0 / p)), ratio(dn, om ** (1.0 / p))
        dt = times.take(j) - times.take(i)
        sub = (np.where(dt <= d + DELTA_SLACK, r2, 0.0) for d in sub_deltas)
        return (*on_grids(strides, i, j, r2, r1), *sub)

    sups, worst, probed = pair_sup(times, delta, residuals)
    cs_rem, cs_der = by_grid(sups, strides)
    by_sub = [sups[2 * len(strides) + m] for m in range(len(sub_deltas))]
    return cs_rem[0], cs_der[0], worst, probed, (cs_rem, cs_der), by_sub


def check_probed(probed, delta, times):
    """A verifier's sweep that probed no pair raises ``DomainError``: a sup over no pair certifies nothing."""
    if probed == 0:
        raise DomainError(f"no grid pair within delta = {delta:.6g}: the smallest step is {np.min(np.diff(times)):.6g}")


def stability_slope(constants, hs):
    """Fitted growth of a verifier constant against mesh size (log-log).

    Negative slopes mean the constant diverges under refinement.  Matches the
    order-estimation protocol: the coarsest level is discarded when more than
    three remain (coarse grids probe too few pairs and sit below the sup).
    Levels with (numerically) zero constants are dropped; all-zero means exact.
    """
    cs = np.asarray(constants, dtype=float)
    hs = np.asarray(hs, dtype=float)
    keep = cs > ZERO_NUM_TOL
    if not np.any(keep):
        return 0.0, True
    cs, hs = cs[keep], hs[keep]
    if cs.size > 3:
        order = np.argsort(hs)
        cs, hs = cs[order][:-1], hs[order][:-1]
    if cs.size == 1:
        return 0.0, False
    sl = np.polyfit(np.log(hs), np.log(cs), 1)[0]
    return float(sl), False


STABILITY_SLOPE_TOL = -0.25


def stability_verdict(constants, hs):
    """``(slope, pass)`` for constants measured at meshes ``hs`` (finest first).

    Passes when the finest-grid constant is finite and the constants are exact
    or their fitted slope against the mesh stays above ``STABILITY_SLOPE_TOL``.
    """
    slope, exact = stability_slope(constants, hs)
    return slope, bool(np.isfinite(constants[0]) and (exact or slope > STABILITY_SLOPE_TOL))


def dyadic_strides(times, levels, min_steps):
    """Strides 1, 2, 4, ... of a dyadic ladder's grids (every stride-th node) and their meshes: at most
    ``levels`` grids, the last one the first whose step count is odd or below ``min_steps``."""
    n, strides = times.size - 1, [1]
    while len(strides) < levels and (n // strides[-1]) % 2 == 0 and n // strides[-1] >= min_steps:
        strides.append(2 * strides[-1])
    return strides, [float(np.max(np.diff(times[::s]))) for s in strides]


def dyadic_ladder(measure, objs, levels, min_steps):
    """``measure(*objs)`` on the grid and on up to ``levels - 1`` dyadic coarsenings.

    Returns ``(hs, rows)``, finest first: the mesh of each grid (read off the
    first object) and what ``measure`` returned there.  All objects are
    coarsened together, on the grids of ``dyadic_strides``.
    """
    strides, hs = dyadic_strides(objs[0].times, levels, min_steps)
    rows = []
    for s in strides:
        if s > 1:
            objs = [o.coarsen(2) for o in objs]
        rows.append(measure(*objs))
    return hs, rows


def verify_crp(y: ControlledPath, rp: RoughPath, delta=None, levels=4):
    """Report the smallest controlled-path constants and their mesh stability.

    The constants are measured on the full grid and on up to three dyadic
    coarsenings; ``pass`` requires finite constants whose fitted growth slope
    against the mesh stays above -0.25 (stable under refinement).  When
    ``delta`` is given only pairs with t - s <= delta are probed; the report
    also carries constants restricted to dyadic deltas together with the
    largest delta at which they stay within a factor two of the local one.
    A derivative whose driver axis is not the driver's dimension raises ``ShapeError``.
    """
    check_same_grid(y.times, rp.times)
    if y.driver_dim != rp.dim:
        raise ShapeError(f"derivative has {y.driver_dim} driver columns, the driver {rp.dim} coordinates")
    strides, hs = dyadic_strides(y.times, levels, 8)
    # delta-restricted diagnostics (reported, not gating), from the sweep of every pair
    deltas = []
    d = float(y.times[-1] - y.times[0])
    while d >= 4 * float(np.min(np.diff(y.times))):
        deltas.append(d)
        d /= 2.0
    args = (y.times, y.values, y.derivative, rp, rp.control.p)
    _, _, worst, probed, (cs_rem, cs_der), by_sub = _pair_constants(*args, delta, deltas, strides)
    check_probed(probed, delta, y.times)
    if delta is not None:  # the sub-delta constants are over every pair
        by_sub = _pair_constants(*args, None, deltas)[5]
    slope2, pass2 = stability_verdict(cs_rem, hs)
    slope1, pass1 = stability_verdict(cs_der, hs)
    by_delta = dict(zip(deltas, by_sub))
    stable_delta = None
    if by_delta:
        smallest = min(by_delta)
        base = by_delta[smallest]
        for dd in sorted(by_delta, reverse=True):
            if base == 0.0:
                ok = by_delta[dd] == 0.0
            else:
                ok = np.isfinite(by_delta[dd]) and by_delta[dd] <= 2.0 * base
            if ok:
                stable_delta = dd
                break

    return {
        "C_remainder": cs_rem[0],
        "C_derivative": cs_der[0],
        "levels": {"h": hs, "C_remainder": cs_rem, "C_derivative": cs_der},
        "slope_remainder": slope2,
        "slope_derivative": slope1,
        "worst_pair": worst,
        "pass_remainder": pass2,
        "pass_derivative": pass1,
        "pass": pass2 and pass1,
        "delta": delta,
        "delta_constants": {f"{k:.6g}": v for k, v in by_delta.items()},
        "largest_stable_delta": stable_delta,
    }
