"""Compensated-sum rough integration of controlled integrands (flat case)."""

from __future__ import annotations

import numpy as np

from .controlled import ControlledPath, check_same_grid, driver_as_controlled, dyadic_ladder
from .errors import ShapeError
from .pairs import triple_defect
from .roughpath import RoughPath


def _local_terms(alpha: ControlledPath, y: ControlledPath, rp: RoughPath):
    """One-step compensated increments alpha_i y_{i,i+1} + alpha'_i (I (x) y'_i) X_i."""
    av = alpha.values  # (N+1, m, n)
    ad = alpha.derivative  # (N+1, m, n, k)
    if av.ndim != 3:
        raise ShapeError("integrand must be matrix-valued (shape (m, n) per node)")
    if y.values.ndim != 2 or av.shape[2] != y.values.shape[1]:
        raise ShapeError("integrand and integrator dimensions do not compose")
    dy = np.diff(y.values, axis=0)
    first = np.einsum("imn,in->im", av[:-1], dy)
    second = np.einsum("imna,iab,inb->im", ad[:-1], rp.step_areas, y.derivative[:-1])
    return first + second


def rough_integrate(alpha: ControlledPath, y: ControlledPath, rp: RoughPath) -> ControlledPath:
    """Integral of a matrix-valued controlled integrand against a controlled path.

    Starts at zero; node values are prefix sums of the one-step compensated
    increments, and the derivative process is the composition alpha o y'.
    """
    check_same_grid(alpha.times, y.times)
    check_same_grid(alpha.times, rp.times)
    steps = _local_terms(alpha, y, rp)
    values = np.zeros((rp.times.size, steps.shape[1]))
    np.cumsum(steps, axis=0, out=values[1:])
    deriv = np.einsum("imn,ina->ima", alpha.values, y.derivative)
    return ControlledPath(rp.times, values, deriv)


def integrate_against_driver(alpha: ControlledPath, rp: RoughPath) -> ControlledPath:
    """Integral of an L(W, V)-valued controlled path against the driver itself."""
    return rough_integrate(alpha, driver_as_controlled(rp), rp)


def local_expression(alpha: ControlledPath, y: ControlledPath, rp: RoughPath, i, j):
    """The one-step compensated expression evaluated over the pair (t_i, t_j)."""
    i = np.asarray(i)
    j = np.asarray(j)
    dy = y.values[j] - y.values[i]
    areas = rp.area_pairs(i, j)
    first = np.einsum("...mn,...n->...m", alpha.values[i], dy)
    second = np.einsum("...mna,...ab,...nb->...m", alpha.derivative[i], areas, y.derivative[i])
    return first + second


def almost_additivity_defect(alpha: ControlledPath, y: ControlledPath, rp: RoughPath):
    """Max defect of the one-step expression over consecutive grid triples."""
    return triple_defect(lambda i, j: local_expression(alpha, y, rp, i, j), rp.times.size - 1)


def defect_by_level(alpha: ControlledPath, y: ControlledPath, rp: RoughPath, levels):
    """Local defect measured on successive dyadic coarsenings (finest first)."""
    hs, defects = dyadic_ladder(lambda r, a, yy: almost_additivity_defect(a, yy, r), (rp, alpha, y), levels, 4)
    return list(zip(hs, defects))
