from __future__ import annotations

import numpy as np
import pytest

from crp import DrivingField, Explosion, rde_solve_flat
from crp.convergence import estimate_order
from crp.manifolds import ChartManifold
from crp.mrde import ManifoldDrivingField, rde_solve_manifold
from crp.roughpath import lift_smooth, pure_area_driver, time_lift
from crp.sewing import rough_integrate

COMMUTATOR_MATS = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])


def flat_field(n, field):
    """A nonlinear flat field: ``field(a)``, the (n, k) matrix of F at a, on a large flat chart ball."""
    return ManifoldDrivingField(ChartManifold(n, radius=1e3), field)


def test_translation_field_is_exact():
    grid = np.linspace(0.0, 2.0, 33)
    rp = lift_smooth(
        lambda t: np.array([np.sin(t), np.cos(t)]), grid, dpath=lambda t: np.array([np.cos(t), -np.sin(t)])
    )
    sol = rde_solve_manifold(flat_field(2, lambda a: np.eye(2)), rp, np.array([1.0, -1.0]))
    want = np.array([1.0, -1.0]) + rp.values[-1] - rp.values[0]
    assert np.allclose(sol.points[-1], want, atol=1e-12)


def test_scalar_exponential_closed_form():
    n = 8192
    rp = time_lift(np.linspace(0.0, 1.0, n + 1))
    field = DrivingField(matrices=np.array([[[1.0]]]))
    sol = rde_solve_flat(field, rp, np.array([1.0]))
    assert abs(sol.values[-1, 0] - np.e) < 1e-8


def test_commutator_fixture_first_order_davie():
    errs, hs = [], []
    for n in (128, 256, 512, 1024):
        rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, n + 1))
        sol = rde_solve_flat(DrivingField(matrices=COMMUTATOR_MATS), rp, np.array([1.0, 1.0]))
        errs.append(float(np.max(np.abs(sol.values[-1] - np.array([np.e, 1.0 / np.e])))))
        hs.append(1.0 / n)
    slope, _, _ = estimate_order(errs, hs)
    assert slope >= 0.75  # global order >= 3/p - 1 with margin; measured ~1


def test_commutator_fixture_exp_scheme_exact():
    rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, 1025))
    sol = rde_solve_flat(DrivingField(matrices=COMMUTATOR_MATS), rp, np.array([1.0, 1.0]), scheme="exp")
    assert np.max(np.abs(sol.values[-1] - np.array([np.e, 1.0 / np.e]))) < 1e-12


def test_exp_scheme_agrees_with_davie_on_smooth_drivers():
    grid = np.linspace(0.0, 1.0, 257)
    rp = lift_smooth(lambda t: np.array([np.sin(t)]), grid, dpath=lambda t: np.array([np.cos(t)]))
    field = DrivingField(matrices=np.array([[[0.3, 1.0], [-1.0, 0.1]]]))
    y0 = np.array([1.0, 0.5])
    a = rde_solve_flat(field, rp, y0, scheme="davie")
    b = rde_solve_flat(field, rp, y0, scheme="exp")
    assert np.max(np.abs(a.values - b.values)) < 1e-5


def test_derivative_process_matches_field():
    rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, 9))
    field = DrivingField(matrices=COMMUTATOR_MATS)
    sol = rde_solve_flat(field, rp, np.array([1.0, 1.0]))
    for i in (0, 4, 8):
        assert np.allclose(sol.derivative[i], np.einsum("jnm,m->nj", field.matrices, sol.values[i]))


def test_explosion_reported_with_time():
    grid = np.linspace(0.0, 4.0, 257)
    rp = lift_smooth(lambda t: np.array([t]), grid, dpath=lambda t: np.array([1.0]))
    field = flat_field(1, lambda a: 40.0 * a[:, None] ** 2)
    with pytest.raises(Explosion) as exc:
        rde_solve_manifold(field, rp, np.array([1.0]))
    assert 0.0 <= exc.value.time <= 4.0


def test_nonlinear_flat_solve_agrees_with_the_matrix_family():
    mats = COMMUTATOR_MATS
    rp = pure_area_driver(0.5, np.linspace(0.0, 1.0, 65))
    y0 = np.array([1.0, 2.0])
    sa = rde_solve_flat(DrivingField(matrices=mats), rp, y0)
    sb = rde_solve_manifold(flat_field(2, lambda a: np.einsum("jnm,m->nj", mats, a)), rp, y0)
    assert np.max(np.abs(sa.values - sb.points)) <= 1e-10


def flat_oneform_defect(field, sol, rp, alpha_fn, dalpha_fn):
    """Defect of the flat RDE integral characterization at the one-step scale.

    LHS: compensated-sum integral of the controlled integrand alpha(z);
    RHS: sum of alpha(F_dx(z)) + second-order field-derivative terms.
    """
    n = rp.times.size - 1
    av = np.stack([alpha_fn(sol.values[i]) for i in range(n + 1)])
    ad = np.stack(
        [np.einsum("mnd,dk->mnk", dalpha_fn(sol.values[i]), sol.derivative[i]) for i in range(n + 1)]
    )
    from crp import ControlledPath

    alpha = ControlledPath(rp.times, av, ad)
    lhs = rough_integrate(alpha, sol, rp)
    rhs = np.zeros(av.shape[1])
    dx = np.diff(rp.values, axis=0)
    for i in range(n):
        y = sol.values[i]
        cols = np.einsum("jnm,m->nj", field.matrices, y)
        rhs += alpha_fn(y) @ cols @ dx[i]
        for a in range(rp.dim):
            for b in range(rp.dim):
                area = rp.step_areas[i][a, b]
                if area == 0.0:
                    continue
                # d_{F_a}[alpha o F_b](y), with d_v F_b = M_b v
                term = dalpha_fn(y) @ cols[:, a] @ cols[:, b] + alpha_fn(y) @ field.matrices[b] @ cols[:, a]
                rhs += area * term
    return float(np.max(np.abs(lhs.values[-1] - rhs)))


def _oneform_case_a(y):
    return np.array([[y[1], y[0]], [1.0, np.sin(y[0])]])


def _doneform_case_a(y):
    out = np.zeros((2, 2, 2))
    out[0, 0, 1] = 1.0
    out[0, 1, 0] = 1.0
    out[1, 1, 0] = np.cos(y[0])
    return out


def _oneform_case_b(y):
    return np.array([[np.exp(0.2 * y[0]), 0.0]])


def _doneform_case_b(y):
    out = np.zeros((1, 2, 2))
    out[0, 0, 0] = 0.2 * np.exp(0.2 * y[0])
    return out


def _oneform_case_c(y):
    return np.array([[y[0] * y[1], y[0] + y[1]], [np.cos(y[1]), 0.0]])


def _doneform_case_c(y):
    out = np.zeros((2, 2, 2))
    out[0, 0, 0] = y[1]
    out[0, 0, 1] = y[0]
    out[0, 1, 0] = 1.0
    out[0, 1, 1] = 1.0
    out[1, 0, 1] = -np.sin(y[1])
    return out


@pytest.mark.parametrize(
    "alpha_fn,dalpha_fn",
    [
        (_oneform_case_a, _doneform_case_a),
        (_oneform_case_b, _doneform_case_b),
        (_oneform_case_c, _doneform_case_c),
    ],
)
def test_flat_integral_characterization_slope(alpha_fn, dalpha_fn):
    field = DrivingField(matrices=COMMUTATOR_MATS)

    errs = []
    for n in (64, 128, 256, 512):
        rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, n + 1))
        sol = rde_solve_flat(field, rp, np.array([1.0, 1.0]))
        errs.append(flat_oneform_defect(field, sol, rp, alpha_fn, dalpha_fn))
    # along a scheme-generated solution the two routes coincide term by term,
    # far inside the required global order; assert machine-level agreement
    assert max(errs) < 1e-10


def test_concatenated_solution_matches_single_run():
    grid = np.linspace(0.0, 1.0, 129)
    rp = lift_smooth(lambda t: np.array([np.sin(t)]), grid, dpath=lambda t: np.array([np.cos(t)]))
    field = DrivingField(matrices=np.array([[[0.0, 1.0], [-1.0, 0.0]]]))
    y0 = np.array([1.0, 0.0])
    full = rde_solve_flat(field, rp, y0)
    first = rde_solve_flat(field, rp.restrict(rp.index_of(0.0), rp.index_of(0.5)), y0)
    second = rde_solve_flat(field, rp.restrict(rp.index_of(0.5), rp.index_of(1.0)), first.values[-1])
    glued = np.concatenate([first.values[:-1], second.values], axis=0)
    assert np.allclose(glued, full.values, atol=1e-12)
