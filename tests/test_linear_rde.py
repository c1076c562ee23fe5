"""Linear RDEs on whole grids.

``flatrde.linear_flow`` builds every step operator of a linear matrix family at
once and applies them in turn, or forms their products by a scan from the identity.  It is checked against the per-step
loop it replaced, kept here as a reference, and through its three callers:
the flat solver, the SO(3) group equation and linear manifold fields.  Its exp
scheme's stacked exponential ``linalg.expm`` is checked against scipy's.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import crp.mrde
from crp import ChartManifold, DomainError, DrivingField, Explosion, NotOnManifold, ShapeError, rde_solve_flat
from crp.fixtures import COMMUTATOR_MATS, SO3M, SPHERE, so3_left_invariant_field, so3_right_invariant_field
from crp.flatrde import EXPLOSION_BOUND, linear_flow
from crp.linalg import SO3_BASIS, expm
from crp.mrde import ManifoldDrivingField, rde_solve_manifold
from crp.roughpath import lift_smooth, pure_area_driver, time_lift


def per_step_solve(mats, rp, y0, scheme, bound=1e8):
    """The flat linear solve one step at a time, as before the whole-grid kernel; the exp scheme takes
    ``linalg.expm`` of one step's generator at a time (its agreement with scipy's is tested with the kernel)."""
    ys = [np.asarray(y0, dtype=float)]
    for i, dx in enumerate(np.diff(rp.values, axis=0)):
        y, area = ys[-1], rp.step_areas[i]
        if scheme == "davie":
            new = y + np.einsum("j,jnm,m->n", dx, mats, y) + np.einsum("ab,bnp,apq,q->n", area, mats, mats, y)
        else:
            anti = 0.5 * (area - area.T)
            new = expm(np.einsum("j,jnm->nm", dx, mats) + np.einsum("ab,bnp,apm->nm", anti, mats, mats)) @ y
        if not np.all(np.isfinite(new)) or np.max(np.abs(new)) > bound:
            raise Explosion(rp.times[i])
        ys.append(new)
    return np.stack(ys)


def smooth_driver(n, k=3):
    grid = np.linspace(0.0, 1.0, n + 1)
    rates = np.arange(1.0, k + 1.0)
    return lift_smooth(lambda t: np.sin(rates * t) + 0.2 * t * t, grid,
                       dpath=lambda t: rates * np.cos(rates * t) + 0.4 * t)


def gl3_family(seed=3):
    return 0.7 * np.random.default_rng(seed).standard_normal((3, 3, 3))


CASES = {
    "commutator": (COMMUTATOR_MATS, lambda: pure_area_driver(1.0, np.linspace(0.0, 1.0, 257)), [1.0, 1.0]),
    "gl3": (gl3_family(), lambda: smooth_driver(256), [1.0, -0.5, 0.25]),
}


def seeded_stack(n, norms, seed=11):
    """Seeded (len(norms), n, n) Gaussian matrices, matrix m scaled to 1-norm norms[m]."""
    a = np.random.default_rng(seed).standard_normal((len(norms), n, n))
    return a * (np.asarray(norms) / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


@pytest.mark.parametrize("n", [2, 3, 9])
@pytest.mark.parametrize("norm", [1e-8, 1e-4, 0.1, 1.0, 5.0, 30.0, "mixed"])
def test_stacked_expm_matches_scipy(n, norm):
    # "mixed" puts every norm in one stack, so each matrix takes its own number of squarings
    norms = np.geomspace(1e-8, 30.0, 40) if norm == "mixed" else np.full(40, norm)
    a = seeded_stack(n, norms)
    got, want = expm(a), np.stack([scipy_expm(m) for m in a])
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-11 * np.max(np.abs(want), axis=(1, 2)))
    assert np.array_equal(expm(a[3]), got[3])  # one matrix is a stack of one


def test_stacked_expm_of_zero_is_the_identity_exactly():
    assert np.array_equal(expm(np.zeros((5, 3, 3))), np.broadcast_to(np.eye(3), (5, 3, 3)))
    assert np.array_equal(expm(np.zeros((0, 2, 2))), np.zeros((0, 2, 2)))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scheme", ["davie", "exp"])
def test_whole_grid_flat_solve_matches_per_step_loop(case, scheme):
    mats, driver, y0 = CASES[case]
    rp = driver()
    got = rde_solve_flat(DrivingField(matrices=mats), rp, y0, scheme=scheme)
    want = per_step_solve(mats, rp, y0, scheme)
    assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))
    # the derivative process is F(y_i) = [M_a y_i]_a at every node
    cols = np.stack([np.stack([m @ y for m in mats], axis=1) for y in got.values])
    assert np.array_equal(got.derivative, np.einsum("jnm,pm->pnj", mats, got.values))
    assert np.max(np.abs(got.derivative - cols)) <= 1e-15 * np.max(np.abs(cols))


@pytest.mark.parametrize("scheme", ["davie", "exp"])
@pytest.mark.parametrize("bound", [EXPLOSION_BOUND])
def test_whole_grid_flat_solve_explodes_when_the_loop_did(scheme, bound):
    mats = np.array([[[6.0, 0.0], [0.0, -1.0]], [[0.0, 0.5], [0.5, 0.0]]])
    grid = np.linspace(0.0, 5.0, 513)
    rp = lift_smooth(lambda t: np.array([t, np.sin(t)]), grid, dpath=lambda t: np.array([1.0, np.cos(t)]))
    with pytest.raises(Explosion) as want:
        per_step_solve(mats, rp, [1.0, 1.0], scheme, bound)
    with pytest.raises(Explosion) as got:
        rde_solve_flat(DrivingField(matrices=mats), rp, [1.0, 1.0], scheme=scheme)
    assert got.value.time == want.value.time


@pytest.mark.parametrize("scheme", ["davie", "exp"])
def test_scan_from_the_identity_matches_the_steps_applied_in_turn(scheme):
    rp = smooth_driver(256)
    args = (gl3_family(), rp.times, np.diff(rp.values, axis=0), rp.step_areas)
    scan, steps = linear_flow(*args, None, scheme), linear_flow(*args, np.eye(3), scheme)
    assert np.max(np.abs(scan - steps)) <= 1e-13 * np.max(np.abs(steps))
    mats = np.array([[[6.0, 0.0], [0.0, -1.0]], [[0.0, 0.5], [0.5, 0.0]]])
    rp = lift_smooth(lambda t: np.array([t, np.sin(t)]), np.linspace(0.0, 5.0, 513),
                     dpath=lambda t: np.array([1.0, np.cos(t)]))
    args = (mats, rp.times, np.diff(rp.values, axis=0), rp.step_areas)
    with pytest.raises(Explosion) as want:
        linear_flow(*args, np.eye(2), scheme)
    with pytest.raises(Explosion) as got:
        linear_flow(*args, None, scheme)
    assert got.value.time == want.value.time


def test_overflowing_flat_solve_raises_explosion_without_a_warning():
    rp = time_lift(np.linspace(0.0, 1.0, 9))
    with warnings.catch_warnings(), pytest.raises(Explosion) as got:
        warnings.simplefilter("error")
        rde_solve_flat(DrivingField(matrices=np.array([[[1e308]]])), rp, [1e10])
    assert got.value.time == 0.0


def test_flat_solve_leaves_an_unexcited_growing_direction_alone():
    # diag(a, -a) per unit time: the product of the steps overflows in its (0, 0) entry,
    # which y0 = (0, 1) never excites, while the state decays like e^{-at}
    rp = pure_area_driver(800.0, np.linspace(0.0, 1.0, 257))
    got = rde_solve_flat(DrivingField(matrices=COMMUTATOR_MATS), rp, [0.0, 1.0], scheme="exp")
    assert np.array_equal(got.values, per_step_solve(COMMUTATOR_MATS, rp, [0.0, 1.0], "exp"))
    assert np.all(got.values[:, 0] == 0.0) and got.values[-1, 1] <= np.exp(-790.0)


def test_flat_solve_rejects_a_driver_of_the_wrong_dimension():
    rp = time_lift(np.linspace(0.0, 1.0, 9))
    with pytest.raises(ShapeError):
        rde_solve_flat(DrivingField(matrices=COMMUTATOR_MATS), rp, [1.0, 1.0])


@pytest.mark.parametrize("y0", [[1.0, 1.0, 1.0], [1.0], [[1.0, 1.0]]])
def test_flat_solve_rejects_a_start_of_the_wrong_size(y0):
    rp = pure_area_driver(1.0, np.linspace(0.0, 1.0, 9))
    with pytest.raises(ShapeError):
        rde_solve_flat(DrivingField(matrices=COMMUTATOR_MATS), rp, y0)


# -- linear manifold fields ---------------------------------------------------------------


def counted_chart_steps(monkeypatch):
    calls = []
    original = crp.mrde._chart_step

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(crp.mrde, "_chart_step", counted)
    return calls


LINEAR_FIELDS = {
    "so3-right-invariant": (so3_right_invariant_field, np.eye(3)),
    "sphere-rotations": (lambda: ManifoldDrivingField.linear(SPHERE, SO3_BASIS), np.array([0.0, 0.6, 0.8])),
}


@pytest.mark.parametrize("name", sorted(LINEAR_FIELDS))
def test_linear_field_agrees_with_its_chart_stepped_solve_at_second_order(name, monkeypatch):
    make, y0 = LINEAR_FIELDS[name]
    field = make()
    opaque = ManifoldDrivingField(field.manifold, field.field, name=field.name)
    calls = counted_chart_steps(monkeypatch)
    diffs, hs = [], []
    for n in (64, 128, 256):
        rp = smooth_driver(n)
        got = rde_solve_manifold(field, rp, y0)
        assert calls == [] and got.meta == {"chart_switches": []}
        want = rde_solve_manifold(opaque, rp, y0)
        assert len(calls) == n
        calls.clear()
        cols = np.stack([field.value_matrix(p) for p in got.points])
        assert np.max(np.abs(got.derivative - cols)) <= 1e-15
        diffs.append(float(np.max(np.abs(got.points - want.points))))
        hs.append(1.0 / n)
    assert all(d <= h**2 for d, h in zip(diffs, hs)), diffs
    assert np.polyfit(np.log(hs), np.log(diffs), 1)[0] >= 2.0 - 0.25


def test_only_skew_generators_on_the_sphere_and_so3_skip_the_charts():
    assert np.array_equal(so3_right_invariant_field().generators, -SO3_BASIS)
    # GL(d) is a ball: its chart-stepped solve keeps the chart radius and the atlas
    gl = ChartManifold(4, center=np.zeros((2, 2)))
    assert ManifoldDrivingField.linear(gl, -np.eye(4).reshape(4, 2, 2)).generators is None
    assert so3_left_invariant_field().generators is None  # F_a(g) = g E_a acts from the right: chart-stepped
    with pytest.raises(TypeError):  # generators come only with the callable they define
        ManifoldDrivingField(SO3M, so3_left_invariant_field().field, generators=-SO3_BASIS)


@pytest.mark.parametrize("gens", [np.zeros((3, 2, 2)), np.zeros((3, 3)), np.zeros((3, 3, 4))])
def test_linear_field_rejects_generators_of_the_wrong_shape(gens):
    with pytest.raises(ShapeError):
        ManifoldDrivingField.linear(SO3M, gens)


def test_linear_field_rejects_a_start_or_driver_of_the_wrong_shape():
    rp = smooth_driver(8)
    with pytest.raises(ShapeError):
        rde_solve_manifold(so3_right_invariant_field(), rp, np.eye(2))
    with pytest.raises(ShapeError):
        rde_solve_manifold(so3_right_invariant_field(), smooth_driver(8, k=2), np.eye(3))


@pytest.mark.parametrize("gens", [np.stack([np.eye(3)] * 3), np.diag([1.0, -1.0, 0.0])[None]])
def test_linear_field_rejects_generators_that_leave_the_sphere(gens):
    # F(m) = m is normal to S^2 everywhere; diag(1, -1, 0) m is tangent at (1, 1, 0) / sqrt(2),
    # but exp(t diag(1, -1, 0)) takes that point off the sphere
    with pytest.raises(DomainError):
        ManifoldDrivingField.linear(SPHERE, gens)


def test_linear_field_rejects_a_start_off_the_manifold():
    with pytest.raises(NotOnManifold):
        rde_solve_manifold(so3_right_invariant_field(), smooth_driver(8), np.diag([1.0, 2.0, 1.0]))
