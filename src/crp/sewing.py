"""Compensated-sum rough integration of controlled integrands (flat case)."""

from __future__ import annotations

import numpy as np

from .controlled import ControlledPath, check_same_grid, dyadic_ladder
from .errors import ShapeError
from .pairs import triple_defect
from .roughpath import RoughPath


def rough_integrate(alpha: ControlledPath, y: ControlledPath, rp: RoughPath) -> ControlledPath:
    """Integral of a matrix-valued controlled integrand against a controlled path.

    Starts at zero; node values are prefix sums of the one-step compensated
    increments, and the derivative process is the composition alpha o y'.
    """
    check_same_grid(alpha.times, y.times)
    check_same_grid(alpha.times, rp.times)
    steps = local_expression(alpha, y, rp.step_areas, np.s_[:-1], np.s_[1:])
    values = np.zeros((rp.times.size, steps.shape[1]))
    np.cumsum(steps, axis=0, out=values[1:])
    deriv = np.einsum("imn,ina->ima", alpha.values, y.derivative)
    return ControlledPath(rp.times, values, deriv)


def local_expression(alpha: ControlledPath, y: ControlledPath, areas, i, j):
    """The compensated expression alpha_i y_{ij} + alpha'_i (I (x) y'_i) X_ij over pairs (t_i, t_j).

    ``i`` and ``j`` index the nodes (arrays or slices) and ``areas`` holds the pairs' areas X_ij.
    """
    av = alpha.values  # (N+1, m, n)
    if av.ndim != 3:
        raise ShapeError("integrand must be matrix-valued (shape (m, n) per node)")
    if y.values.ndim != 2 or av.shape[2] != y.values.shape[1]:
        raise ShapeError("integrand and integrator dimensions do not compose")
    dy = y.values[j] - y.values[i]
    first = np.einsum("...mn,...n->...m", av[i], dy)
    second = np.einsum("...mna,...ab,...nb->...m", alpha.derivative[i], areas, y.derivative[i])
    return first + second


def almost_additivity_defect(alpha: ControlledPath, y: ControlledPath, rp: RoughPath):
    """Max defect of the one-step expression over consecutive grid triples."""
    return triple_defect(lambda i, j: local_expression(alpha, y, rp.area_pairs(i, j), i, j), rp.times.size - 1)


def defect_by_level(alpha: ControlledPath, y: ControlledPath, rp: RoughPath, levels):
    """Local defect measured on successive dyadic coarsenings (finest first)."""
    hs, defects = dyadic_ladder(lambda r, a, yy: almost_additivity_defect(a, yy, r), (rp, alpha, y), levels, 4)
    return list(zip(hs, defects))
