"""Flat controlled paths and the discrete remainder verifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import Control
from .errors import DomainError, GridMismatch, InvalidGrid, ShapeError
from .pairs import ZERO_NUM_TOL, control_sups
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


def _pair_constants(times, values, derivative, rp: RoughPath, delta=None, strides=(1,)):
    """``(C_remainder, C_derivative, worst pair, pairs probed, (C_remainders, C_derivatives))`` of one
    sweep of the controlled-path inequalities under ``rp``'s control, the lists over the ``on_grids`` strides."""
    n = times.size - 1
    flat_vals = values.reshape(n + 1, -1)
    flat_dag = derivative.reshape(n + 1, -1, derivative.shape[-1])

    def norms(i, j):
        dag_i = flat_dag.take(i, axis=0)
        rem = flat_vals.take(j, axis=0) - flat_vals.take(i, axis=0)
        rem -= np.einsum("nva,na->nv", dag_i, rp.values.take(j, axis=0) - rp.values.take(i, axis=0))
        rn = np.linalg.norm(rem, axis=-1)
        return rn, np.linalg.norm((flat_dag.take(j, axis=0) - dag_i).reshape(i.size, -1), axis=-1)

    cs_rem, cs_der, worst, probed = control_sups(times, rp.control, delta, norms, strides)
    return cs_rem[0], cs_der[0], worst, probed, (cs_rem, cs_der)


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
VERIFY_LEVELS = 4  # grids a verifier measures its constants on: the full grid and up to three dyadic coarsenings


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


def certificate(sweep, hs, delta, times):
    """The one verifier report of a sweep ``(C2, C1, worst pair, pairs probed, (C2s, C1s))`` at meshes ``hs``.

    A sweep that probed no pair raises ``DomainError``: a sup over no pair certifies nothing.
    ``C2``/``C1`` alias ``C_remainder``/``C_derivative``; each constant has its ``stability_verdict``.
    """
    c2, c1, worst, probed, (cs2, cs1) = sweep
    if probed == 0:
        raise DomainError(f"no grid pair within delta = {delta:.6g}: the smallest step is {np.min(np.diff(times)):.6g}")
    slope2, pass2 = stability_verdict(cs2, hs)
    slope1, pass1 = stability_verdict(cs1, hs)
    return {
        "C_remainder": c2,
        "C_derivative": c1,
        "C2": c2,
        "C1": c1,
        "levels": {"h": hs, "C_remainder": cs2, "C_derivative": cs1},
        "slope_remainder": slope2,
        "slope_derivative": slope1,
        "worst_pair": worst,
        "pairs_probed": probed,
        "pass_remainder": pass2,
        "pass_derivative": pass1,
        "pass": pass2 and pass1,
        "delta": delta,
    }


def verify_crp(y: ControlledPath, rp: RoughPath, delta=None):
    """Report the smallest controlled-path constants and their mesh stability.

    The constants are measured on the full grid and on up to three dyadic
    coarsenings, all from one sweep of the grid's pairs; ``pass`` requires
    finite constants whose fitted growth slope against the mesh stays above
    -0.25 (stable under refinement).  When ``delta`` is given only pairs with
    t - s <= delta are probed.  A derivative whose driver axis is not the
    driver's dimension raises ``ShapeError``.
    """
    check_same_grid(y.times, rp.times)
    if y.driver_dim != rp.dim:
        raise ShapeError(f"derivative has {y.driver_dim} driver columns, the driver {rp.dim} coordinates")
    strides, hs = dyadic_strides(y.times, VERIFY_LEVELS, 8)
    return certificate(_pair_constants(y.times, y.values, y.derivative, rp, delta, strides), hs, delta, y.times)
