"""The compatibility tensor and the chart connection coefficients on stacks.

``CompatibilityTensor.stack`` groups a stack's points by their ``chart_at``
chart and takes one ``chart_rep_derivative`` stencil per chart, and
``Manifold.chart_christoffels`` differentiates the chart representative of
``transport`` on a whole stack.  Checked here against the per-point bodies they
replaced (copied below as references): on the sphere with points in both
charts, SO(3), a curved chart manifold and sphere x SO(3).  Also the closed-form
SO(3) torsion against the pseudo-inverse body it replaced.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from crp.fixtures import SO3M, SPHERE
from crp.gauges import chart_gauge, compatibility_tensor, connection_gauge
from crp.linalg import FD_STEP, hat
from crp.manifolds import ChartManifold, Manifold, chart_rep_derivative
from paper_reference import ProductManifold, chart_rep_derivative_by_level, richardson_levels


def _asymmetric(x):
    a = np.zeros(x.shape[:-1] + (2, 2, 2))
    a[..., 0, 0, 1] = 0.3 + 0.1 * x[..., 0]
    a[..., 1, 1, 0] = -0.2 + 0.05 * x[..., 1]
    return a


CURVED = ChartManifold(2, radius=1.0, gamma=_asymmetric, h_geo=0.1)
SPHERE_X_SO3 = ProductManifold(SPHERE, SO3M)


# -- the replaced per-point bodies, as references --------------------------------------------


def chart_rep_derivative_at(matrices, chart, m, x, dto_m):
    """D[i, c, b, j] = d/dy_j of dto(m) @ matrices[i](m, p(y)) @ dfrom(y) at y = x, one direction at a time."""
    d = chart.dim
    h = FD_STEP * max(1.0, float(np.linalg.norm(x)))
    out = np.empty((len(matrices), d, d, d))
    for j, e in enumerate(np.eye(d)):

        def ubar(eps, _e=e):
            y = x + eps * _e
            p, dfrom_y = chart.from_coords(y), chart.dfrom(y)
            return np.stack([dto_m @ matrix(m, p) @ dfrom_y for matrix in matrices])

        out[..., j] = richardson_levels(ubar, h)
    return out


def fd_compatibility_at(s, m):
    """The finite-difference S at one point, in its ``chart_at`` chart."""
    chart = s.manifold.chart_at(m)
    x = chart.to_coords(m)
    dto_m = chart.dto(m)
    du, dut = chart_rep_derivative_at([s.u.matrix, s.u_tilde.matrix], chart, m, x, dto_m)
    sbar = np.transpose(du - dut, (0, 2, 1))
    return np.einsum("Cc,cjb,jA,bB->CAB", chart.dfrom(x), sbar, dto_m, dto_m)


def fd_christoffels_at(manifold, chart, x):
    """Chart coefficients of the connection at one coordinate vector, from ``transport``."""
    m = chart.from_coords(x)
    return np.transpose(chart_rep_derivative_at([manifold.transport], chart, m, x, chart.dto(m))[0], (0, 2, 1))


def so3_torsion_pinv(g):
    """SO(3) torsion at one rotation through the pseudo-inverse of the tangent basis."""
    out = np.zeros((9, 9, 9))
    vecs = [(g @ hat(e)).reshape(9) for e in np.eye(3)]
    gram = np.linalg.pinv(np.stack(vecs, axis=-1))
    for a in range(3):
        for b in range(3):
            A, B = hat(np.eye(3)[a]), hat(np.eye(3)[b])
            t = -(g @ (A @ B - B @ A))
            out += np.einsum("c,a,b->cab", t.reshape(9), gram[a], gram[b])
    return out


# -- the stacked oracle against the per-point body -------------------------------------------


def _points(mani, n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([mani.random_point(rng) for _ in range(n)])


def _tensors(mani):
    """The FD S of the connection gauge and of the first chart's parallelism against the connection transport."""
    conn = connection_gauge(mani)
    chart_par = chart_gauge(mani, mani.charts()[0]).par
    return [
        compatibility_tensor(conn.log.induced_parallelism(), conn.par, mani),
        compatibility_tensor(chart_par, conn.par, mani),
    ]


@pytest.mark.parametrize(
    "mani,n", [(SPHERE, 6), (SO3M, 4), (CURVED, 3), (SPHERE_X_SO3, 4)],
    ids=["sphere", "so3", "curved-chart", "sphere*so3"],
)
def test_stacked_fd_oracle_matches_the_per_point_body(mani, n):
    pts = _points(mani, n, 12)
    if mani is SPHERE:  # points in both charts, and every point inside the north chart of the chart gauge
        pts = np.array([[0.6, 0.0, -0.8], [0.0, 0.8, 0.6], [-0.48, 0.36, 0.8], [0.36, -0.48, -0.8], [1.0, 0.0, 0.0]])
        assert len({SPHERE.chart_at(m).name for m in pts}) == 2
    else:
        pts = np.stack([m for m in pts if mani.charts()[0].margin(m) > 0.3])
    assert len(pts) >= 2
    for s in _tensors(mani):
        want = np.stack([fd_compatibility_at(s, m) for m in pts])
        got = s.stack(pts)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9
        assert np.array_equal(s.at(pts[1]), s.stack(pts[1:2])[0])


@pytest.mark.parametrize(
    "mani,n", [(SPHERE, 6), (SO3M, 4), (CURVED, 3), (SPHERE_X_SO3, 4)],
    ids=["sphere", "so3", "curved-chart", "sphere*so3"],
)
def test_one_stencil_call_matches_the_per_level_stencil_bit_for_bit(mani, n):
    chart = mani.charts()[0]
    pts = _points(mani, n, 7)
    ms = np.stack([m for m in pts if chart.margin(m) > 0.3])
    xs, dto = chart.to_coords(ms), chart.dto(ms)
    conn, chart_par = connection_gauge(mani).par, chart_gauge(mani, chart).par
    matrices = [conn.matrix, chart_par.matrix]
    calls = {"from_coords": 0, "dfrom": 0, "conn": 0, "chart": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    counted_chart = replace(chart, from_coords=counted("from_coords", chart.from_coords),
                            dfrom=counted("dfrom", chart.dfrom))
    got = chart_rep_derivative([counted("conn", conn.matrix), counted("chart", chart_par.matrix)],
                               counted_chart, ms, xs, dto)
    assert calls == {"from_coords": 1, "dfrom": 1, "conn": 1, "chart": 1}
    assert got.shape == (2, len(ms)) + (chart.dim,) * 3
    assert np.array_equal(got, chart_rep_derivative_by_level(matrices, chart, ms, xs, dto))


@pytest.mark.parametrize("mani", [SO3M, SPHERE_X_SO3], ids=["so3", "sphere*so3"])
def test_default_chart_christoffels_match_the_per_point_fd(mani):
    chart = mani.charts()[0]
    xs = chart.to_coords(_points(mani, 6, 5))
    xs = xs[chart.coords_margin(xs) > 0.3]
    got = mani.chart_christoffels(chart, xs.reshape((1, -1, chart.dim)))
    assert got.shape == (1, len(xs)) + (chart.dim,) * 3
    want = np.stack([fd_christoffels_at(mani, chart, x) for x in xs])
    assert np.max(np.abs(got[0] - want)) <= 1e-9
    assert np.max(np.abs(mani.chart_christoffels(chart, xs[0]) - want[0])) <= 1e-9


def test_sphere_outside_a_stereographic_chart_takes_the_default():
    stereo = SPHERE.charts()[1]
    other = replace(stereo, name="south")  # the same maps under a name the closed form does not know
    x = np.array([[0.3, -0.2], [0.1, 0.4]])
    got = SPHERE.chart_christoffels(other, x)
    assert np.array_equal(got, Manifold.chart_christoffels(SPHERE, other, x))
    assert np.max(np.abs(got - SPHERE.chart_christoffels(stereo, x))) <= 1e-7


def test_so3_torsion_closed_form_matches_the_pinv_body():
    gs = _points(SO3M, 50, 8)
    got = SO3M.torsion_tensor(gs)
    want = np.stack([so3_torsion_pinv(g) for g in gs])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(SO3M.torsion_tensor(gs[3]), got[3])
    assert SO3M.torsion_tensor(gs.reshape(5, 10, 3, 3)).shape == (5, 10, 9, 9, 9)
