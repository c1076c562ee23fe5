"""The curved ``ChartManifold`` on stacks: one RK4 run carries the geodesics, their
Jacobi fields and parallel frames, so ``log``, ``d2log`` and ``transport`` are one
Newton shooting over a whole stack of pairs with the Jacobi field as its Jacobian.
"""

import numpy as np
import pytest

from crp.errors import ChartExit, LogFailure, ShapeError
from crp.gauges import torsion_check
from crp.linalg import FD_STEP
from crp.manifolds import SO3, ChartManifold, Sphere
from crp.suite import TORSION_CHART
from paper_reference import from_metric, richardson_levels


def wavy(x):
    """The defect's coefficients scaled by 1 + sin(x_0) / 2 + 0.3 x_1^2."""
    a = np.zeros(x.shape[:-1] + (2, 2, 2))
    s = 1.0 + 0.5 * np.sin(x[..., 0]) + 0.3 * x[..., 1] ** 2
    a[..., 0, 0, 1], a[..., 1, 1, 0], a[..., 0, 1, 1] = 0.3 * s, -0.2 * s, 0.05 * s
    return a


CASES = [ChartManifold(2, radius=1.0, gamma=g, h_geo=0.02) for g in (TORSION_CHART.gamma, wavy)]
IDS = ["constant", "wavy"]


def pairs(n, seed=5, sep=0.3):
    rng = np.random.default_rng(seed)
    ms = rng.uniform(-0.4, 0.4, (n, 2))
    return ms, ms + sep * rng.uniform(-1.0, 1.0, (n, 2))


# -- the replaced pair-by-pair bodies, as references ---------------------------------------


def old_geodesic(mani, m, v, u0=None):
    """RK4 on the geodesic equation of one pair, with a frame ``u0`` transported along when given."""
    n_steps = max(1, int(np.ceil(1.0 / mani.h_geo)))
    h = 1.0 / n_steps
    d = mani.dim
    state = np.concatenate([m, v] + ([] if u0 is None else [np.asarray(u0, dtype=float).ravel()]))

    def rates(st):
        p, vv = st[:d], st[d : 2 * d]
        A = np.asarray(mani.gamma(p), dtype=float)
        out = [vv, -np.einsum("ijl,j,l->i", A, vv, vv)]
        if st.size > 2 * d:
            out.append(-np.einsum("ijl,j,lc->ic", A, vv, st[2 * d :].reshape(d, -1)).ravel())
        return np.concatenate(out)

    for _ in range(n_steps):
        k1 = rates(state)
        k2 = rates(state + 0.5 * h * k1)
        k3 = rates(state + 0.5 * h * k2)
        k4 = rates(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state[:d], None if u0 is None else state[2 * d :].reshape(d, -1)


def old_log(mani, m, n, tol=1e-12, max_iter=50):
    """Newton shooting of one pair with a finite-difference Jacobian."""
    v = n - m
    prev = np.inf
    for _ in range(max_iter):
        res = old_geodesic(mani, m, v)[0] - n
        r = float(np.linalg.norm(res))
        if r <= tol * float(v @ v) or (r <= tol and r > 0.5 * prev):
            return v
        prev = r
        jac = np.empty((mani.dim, mani.dim))
        hstep = 1e-6 * max(1.0, float(np.linalg.norm(v)))
        for j in range(mani.dim):
            dv = np.zeros(mani.dim)
            dv[j] = hstep
            jac[:, j] = (old_geodesic(mani, m, v + dv)[0] - old_geodesic(mani, m, v - dv)[0]) / (2.0 * hstep)
        v = v - np.linalg.solve(jac, res)
    raise AssertionError("reference shooting stalled")


def old_transport(mani, to_pt, from_pt):
    return old_geodesic(mani, from_pt, old_log(mani, from_pt, to_pt), u0=np.eye(mani.dim))[1]


# -- the defect: the FD oracle S at a fine geodesic step ------------------------------------


def test_torsion_check_passes_at_a_fine_geodesic_step():
    # the FD S differences d2log; a nested FD of the Newton logarithm read 1.7e-5 here
    assert TORSION_CHART.h_geo == 0.01
    out = torsion_check(TORSION_CHART)
    assert out["pass"] and out["max_residual"] <= 1e-5


# -- agreement with the replaced bodies and with finite differences -------------------------


@pytest.mark.parametrize("mani", CASES, ids=IDS)
def test_log_and_transport_match_the_pair_by_pair_bodies(mani):
    ms, ns = pairs(4)
    logs, trans = mani.log(ms, ns), mani.transport(ns, ms)
    for m, n, lg, tr in zip(ms, ns, logs, trans):
        assert np.max(np.abs(lg - old_log(mani, m, n))) <= 1e-10
        assert np.max(np.abs(tr - old_transport(mani, n, m))) <= 1e-10


@pytest.mark.parametrize("mani", CASES, ids=IDS)
def test_d2log_matches_a_richardson_difference_of_log(mani):
    ms, ns = pairs(4)
    h = FD_STEP * np.maximum(1.0, np.linalg.norm(ns, axis=-1))[:, None]
    fd = np.stack([richardson_levels(lambda e, _u=u: mani.log(ms, ns + e * _u), h) for u in np.eye(2)], axis=-1)
    assert np.max(np.abs(mani.d2log(ms, ns) - fd)) <= 1e-8


@pytest.mark.parametrize("mani", CASES, ids=IDS)
def test_stacked_exp_of_the_shot_hits_the_target(mani):
    ms, ns = pairs(4)
    assert np.max(np.abs(mani.exp(ms, mani.log(ms, ns)) - ns)) <= 1e-10


# -- one RK4 run per Newton iteration for the whole stack -----------------------------------


@pytest.mark.parametrize("n_pairs", [1, 12])
def test_a_stack_shoots_in_newton_iterations_plus_one_runs(monkeypatch, n_pairs):
    mani = CASES[1]
    runs = []
    run = ChartManifold._geodesic

    def counted(self, ms, vs):
        runs.append(len(ms))
        return run(self, ms, vs)

    monkeypatch.setattr(ChartManifold, "_geodesic", counted)
    ms, ns = pairs(n_pairs, seed=7)
    single = []
    for m, n in zip(ms, ns):
        runs.clear()
        mani.log(m, n)
        single.append(len(runs))
    # each pair's runs are its Newton iterations + 1; a stack runs as often as its slowest pair
    assert max(single) <= 5
    for fn in (mani.log, mani.d2log, lambda a, b: mani.transport(b, a)):
        runs.clear()
        fn(ms, ns)
        assert len(runs) == max(single) and runs[0] == n_pairs
        assert runs == sorted(runs, reverse=True)  # converged pairs leave the stack


def test_newton_stall_and_domain_exit_raise_typed_errors():
    mani = CASES[1]
    ms, ns = pairs(3)
    with pytest.raises(LogFailure):
        mani.log(ms, ns, max_iter=1)
    with pytest.raises(ChartExit):
        mani.exp(ms, np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0]]))


# -- typed errors at entry ----------------------------------------------------------------


def test_per_point_gamma_and_metric_raise_shape_error():
    def per_point(x):
        a = np.zeros((2, 2, 2))
        a[0, 0, 1] = 0.3 + 0.1 * x[0]
        return a

    m, n = np.array([0.1, 0.2]), np.array([0.2, 0.1])
    with pytest.raises(ShapeError, match="broadcast to"):
        ChartManifold(2, radius=1.0, gamma=per_point).log(m, n)

    def metric(x):
        return (1.0 + float(x @ x)) * np.eye(2)

    with pytest.raises(ShapeError, match="metric"):
        from_metric(2, metric, radius=1.0).log(m, n)
    with pytest.raises(ShapeError, match="gamma"):
        ChartManifold(2, radius=1.0, gamma=lambda x: np.ones((3, 2, 2))).exp(m, n)


def test_mis_shaped_points_raise_shape_error():
    with pytest.raises(ShapeError):
        SO3().transport(np.eye(3), np.eye(2))
    with pytest.raises(ShapeError):
        Sphere().exp(np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.2]))
