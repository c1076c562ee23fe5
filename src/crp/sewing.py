"""Compensated-sum rough integration of controlled integrands (flat case)."""

from __future__ import annotations

import numpy as np

from .controlled import ControlledPath, check_same_grid, dyadic_strides
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


def defect_by_level(alpha: ControlledPath, y: ControlledPath, rp: RoughPath, levels):
    """``[(h, defect)]``, finest first: the max defect of the one-step expression over the consecutive
    triples of each grid of ``dyadic_strides``, read at its stride on the fine grid."""
    strides, hs = dyadic_strides(rp.times, levels, 4)

    def expr(i, j):
        return local_expression(alpha, y, rp.area_pairs(i, j), i, j)

    return [(h, triple_defect(expr, rp.n_steps, s)) for s, h in zip(strides, hs)]
