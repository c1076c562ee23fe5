"""Connection geometry on stacks of pairs.

``Manifold.log``, ``d2log``, ``transport`` and ``distance`` take one pair or
stacks of pairs whose leading axes broadcast, and ``project`` and
``tangent_projector`` one point or a stack, each with one implementation.
Checked here on the sphere, SO(3), a flat and a curved chart manifold and two
products: a stack (one leading axis, then two) against the per-pair calls, and
bit for bit against the closed-form stacked kernels and per-point bodies the
single implementation replaced (copied below as references); the stacked
``NearCutLocus`` message against the single pair's; and a per-pair
``logarithm_gauge`` logarithm, its differential and its induced parallelism on
stacks.
"""

from __future__ import annotations

import numpy as np
import pytest

from crp import NearCutLocus
from crp.fixtures import SO3M, SPHERE
from crp.gauges import connection_gauge, logarithm_gauge
from crp.linalg import hat, so3_exp, so3_left_jacobian_inv, so3_log, vee
from crp.manifolds import ChartManifold
from paper_reference import ProductManifold

TOL = 4.4e-16  # one unit in the last place of a value below 4


def _curl(x):
    """A torsion-free connection with small, point-dependent coefficients."""
    a0, a1 = 0.1 * x[..., 0], 0.1 * x[..., 1]
    out = np.zeros(x.shape[:-1] + (2, 2, 2))
    out[..., 0, 0, 0], out[..., 1, 1, 1], out[..., 0, 1, 1] = a0, a1, a0 * a1
    return out


FLAT = ChartManifold(3, radius=4.0, center=np.array([1.0, -2.0, 0.5]))
CURVED = ChartManifold(2, radius=3.0, gamma=_curl, h_geo=0.05)
SPHERE_X_SO3 = ProductManifold(SPHERE, SO3M)
SPHERE_X_CHART = ProductManifold(SPHERE, ChartManifold(2, radius=3.0, center=np.array([0.5, -0.5])))
CASES = [SPHERE, SO3M, FLAT, CURVED, SPHERE_X_SO3, SPHERE_X_CHART]
IDS = ["sphere", "so3", "flat-chart", "curved-chart", "sphere*so3", "sphere*chart"]


# -- the replaced stacked kernels and per-point bodies, as references -----------------------


def sphere_log_batch(ms, ns):
    c = np.clip(np.einsum("pi,pi->p", ms, ns), -1.0, 1.0)
    th = np.arccos(c)
    u = ns - c[:, None] * ms
    un = np.linalg.norm(u, axis=1)
    scale = np.where(un > 1e-14, th / np.maximum(un, 1e-300), 0.0)
    return scale[:, None] * u


def sphere_transport_batch(to_pts, from_pts):
    m, n = from_pts, to_pts
    den = 1.0 + np.einsum("pi,pi->p", m, n)
    mn = m + n
    eye = np.broadcast_to(np.eye(3), (m.shape[0], 3, 3))
    return eye - np.einsum("pi,pj->pij", mn, mn) / den[:, None, None] + 2.0 * np.einsum("pi,pj->pij", n, m)


def sphere_distance_batch(ms, ns):
    return np.arccos(np.clip(np.einsum("pi,pi->p", ms, ns), -1.0, 1.0))


def so3_log_batch(ks, gs):
    r = np.swapaxes(ks, 1, 2) @ gs
    th = np.arccos(np.clip(0.5 * (np.trace(r, axis1=1, axis2=2) - 1.0), -1.0, 1.0))
    w = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], axis=1)
    big = np.where(th < 1e-8, 1.0, th)
    a = np.where(th < 1e-8, 0.5 * (1.0 + th**2 / 6.0), big / (2.0 * np.sin(big)))[:, None] * w
    hats = np.zeros(r.shape)
    hats[:, [2, 0, 1, 1, 2, 0], [1, 2, 0, 2, 0, 1]] = np.concatenate([a, -a], axis=1)
    return (ks @ hats).reshape(-1, 9)


def so3_transport_batch(to_pts, from_pts):
    q = np.einsum("pij,pkj->pik", to_pts, from_pts)
    return (q[:, :, None, :, None] * np.eye(3)[:, None, :]).reshape(-1, 9, 9)


def so3_distance_batch(ks, gs):
    tr = np.einsum("pij,pij->p", ks, gs)
    return np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))


def sphere_d2log_pair(m, n):
    c = float(np.clip(np.dot(m, n), -1.0, 1.0))
    th = np.arccos(c)
    u = n - c * m
    if th < 1e-6:
        a, b = 1.0 + th**2 / 6.0, 1.0 / 3.0
    else:
        s = np.sin(th)
        a, b = th / s, (s - th * c) / s**3
    return a * (np.eye(3) - np.outer(m, m)) - b * np.outer(u, m)


def so3_d2log_pair(k, g):
    jr_inv = so3_left_jacobian_inv(-so3_log(k.T @ g))
    basis_out = np.stack([(k @ hat(jr_inv @ e)).reshape(9) for e in np.eye(3)], axis=1)
    return basis_out @ np.stack([vee(g.T @ xi.reshape(3, 3)) for xi in np.eye(9)], axis=1)


def sphere_project(p):
    return p / np.linalg.norm(p)


def sphere_tangent_projector(p):
    return np.eye(3) - np.outer(p, p)


def so3_project(g):
    u, _, vt = np.linalg.svd(g)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def so3_tangent_projector(g):
    basis = np.stack([(g @ hat(e)).reshape(9) for e in np.eye(3)])
    basis /= np.sqrt(2.0)
    return basis.T @ basis


def per_point(fn):
    return lambda ps: np.stack([fn(p) for p in ps])


def chart_references(mani):
    d = mani.flat_dim
    refs = {
        "distance": lambda ms, ns: np.linalg.norm(mani.flatten(ns) - mani.flatten(ms), axis=-1),
        "project": lambda ps: ps,
        "tangent_projector": lambda ps: np.stack([np.eye(d) for _ in ps]),
    }
    if mani.gamma is None:
        refs["log"] = lambda ms, ns: ns - ms
        refs["transport"] = lambda a, b: np.stack([np.eye(d) for _ in a])
    return refs


def product_references(prod, first, second):
    """The factors' references joined as ``ProductManifold`` joins its factors."""

    def block(a, b):
        out = np.zeros((len(a),) + (a.shape[1] + b.shape[1],) * 2)
        out[:, : a.shape[1], : a.shape[1]], out[:, a.shape[1] :, a.shape[1] :] = a, b
        return out

    def two(name, join):
        def ref(ms, ns):
            (a, b), (na, nb) = prod.split(ms), prod.split(ns)
            return join(first[name](a, na), second[name](b, nb))

        return ref

    def one(name, join):
        def ref(ps):
            a, b = prod.split(ps)
            return join(first[name](a), second[name](b))

        return ref

    flat = lambda a, b: np.concatenate([a.reshape(len(a), -1), b.reshape(len(b), -1)], axis=-1)  # noqa: E731
    return {
        "log": two("log", flat),
        "transport": two("transport", block),
        "distance": two("distance", np.hypot),
        "project": one("project", flat),
        "tangent_projector": one("tangent_projector", block),
    }


SPHERE_REFS = {
    "log": sphere_log_batch,
    "transport": sphere_transport_batch,
    "distance": sphere_distance_batch,
    "project": per_point(sphere_project),
    "tangent_projector": per_point(sphere_tangent_projector),
}
SO3_REFS = {
    "log": so3_log_batch,
    "transport": so3_transport_batch,
    "distance": so3_distance_batch,
    "project": per_point(so3_project),
    "tangent_projector": per_point(so3_tangent_projector),
}
REFERENCES = {
    "sphere": SPHERE_REFS,
    "so3": SO3_REFS,
    "flat-chart": chart_references(FLAT),
    "curved-chart": chart_references(CURVED),
    "sphere*so3": product_references(SPHERE_X_SO3, SPHERE_REFS, SO3_REFS),
    "sphere*chart": product_references(SPHERE_X_CHART, SPHERE_REFS, chart_references(SPHERE_X_CHART.second)),
}


# -- sample pairs ---------------------------------------------------------------------------


def pairs_on(mani, count, seed, base=None):
    """``count`` pairs (m, n) with n a short geodesic step from m (``base`` when given), inside every gauge ball."""
    rng = np.random.default_rng(seed)
    ms, ns = [], []
    for _ in range(count):
        if base is not None:
            m = base
        elif isinstance(mani, ChartManifold):
            m = mani.center + 0.2 * mani.radius * rng.uniform(-1.0, 1.0, mani.point_shape)
        else:
            m = mani.random_point(rng)
        ms.append(m)
        ns.append(mani.exp(m, 0.5 * mani.random_tangent(rng, m)))
    return np.array(ms), np.array(ns)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def geometry(mani, name):
    """The operation ``name`` as a function of point stacks, its output flattened like the references'."""
    if name == "log":
        return lambda ms, ns: mani.flatten(mani.log(ms, ns))
    if name == "project":
        return lambda ps: mani.flatten(mani.project(ps))
    return getattr(mani, name)


PAIR_OPS = ["log", "d2log", "transport", "distance"]
POINT_OPS = ["project", "tangent_projector"]


@pytest.mark.parametrize("op", PAIR_OPS + POINT_OPS)
@pytest.mark.parametrize("mani", CASES, ids=IDS)
def test_stacks_equal_single_calls_and_the_replaced_kernels(mani, op):
    ms, ns = pairs_on(mani, 12, seed=5)
    if op in POINT_OPS:
        ns = ms + (1e-3 if op == "project" else 0.0)  # project reads points a little off the manifold
        args = (ns,)
    else:
        if op == "d2log":
            ns[0] = ms[0]  # a diagonal pair, on the sphere's series branch
        args = (ms, ns)
    fn = geometry(mani, op)
    stacked = np.asarray(fn(*args))
    single = np.stack([np.asarray(fn(*row)) for row in zip(*args)])
    assert stacked.shape == single.shape and stacked.shape[0] == 12
    assert np.max(np.abs(stacked - single)) <= TOL
    # two leading axes read like one
    grid = np.asarray(fn(*(a.reshape((3, 4) + a.shape[1:]) for a in args)))
    assert same_bits(grid.reshape(stacked.shape), stacked)
    ref = REFERENCES[IDS[CASES.index(mani)]].get(op)
    if ref is not None:
        assert same_bits(stacked, np.reshape(ref(*args), stacked.shape))


@pytest.mark.parametrize("mani", CASES, ids=IDS)
def test_one_point_broadcasts_against_a_stack(mani):
    m = pairs_on(mani, 1, seed=6)[0][0]
    ms, ns = pairs_on(mani, 6, seed=7, base=m)
    for op in PAIR_OPS:
        fn = geometry(mani, op)
        assert same_bits(fn(m, ns), fn(ms, ns))
        assert same_bits(fn(ns, m), fn(ns, ms))


def test_distance_never_raises_past_the_cut_locus():
    m = np.array([1.0, 0.0, 0.0])
    assert SPHERE.distance(m, -m) == np.pi
    g = so3_exp([np.pi, 0.0, 0.0])
    assert abs(SO3M.distance(np.eye(3), g) - np.pi) < 1e-7
    with pytest.raises(NearCutLocus):
        SPHERE.log(m, -m)


def sphere_far_pairs():
    ms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    far = np.pi - 0.05
    ns = np.array([[np.cos(0.3), np.sin(0.3), 0.0], [0.0, np.cos(far), np.sin(far)], [0.0, 1.0, 0.0], -ms[3]])
    return ms, ns


def so3_far_pairs():
    rng = np.random.default_rng(23)
    ks = np.array([so3_exp(rng.standard_normal(3)) for _ in range(4)])
    rots = [so3_exp(a * np.array([0.0, 0.6, 0.8])) for a in (0.3, np.pi - 0.05, 1.0, np.pi - 1e-7)]
    return ks, np.array([k @ r for k, r in zip(ks, rots)])


@pytest.mark.parametrize("mani,make", [(SPHERE, sphere_far_pairs), (SO3M, so3_far_pairs)], ids=["sphere", "so3"])
def test_stacked_cut_locus_message_is_the_first_far_pairs(mani, make):
    ms, ns = make()
    with pytest.raises(NearCutLocus) as single:
        mani.log(ms[1], ns[1])
    with pytest.raises(NearCutLocus) as stacked:
        mani.log(ms, ns)
    assert str(stacked.value) == str(single.value)
    assert np.all(mani.distance(ms[1:], ns[1:])[[0, 2]] >= mani.gauge_radius)


def test_a_per_pair_logarithm_gauge_works_on_stacks():
    line = ChartManifold(1, radius=5.0)

    def psi(m, n):  # one pair at a time: float() rejects a stack
        d = float(n[0] - m[0])
        return np.array([d + 0.3 * d * d])

    gauge = logarithm_gauge(line, psi)
    ms, ns = np.linspace(-1.0, 1.0, 6)[:, None], np.linspace(0.5, -0.5, 6)[:, None]
    assert np.array_equal(gauge.psi(ms, ns), np.stack([gauge.psi(m, n) for m, n in zip(ms, ns)]))
    u = gauge.U(ms.reshape(2, 3, 1), ns.reshape(2, 3, 1))
    assert u.shape == (2, 3, 1, 1)
    assert np.array_equal(u.reshape(6, 1, 1), np.stack([gauge.U(m, n) for m, n in zip(ms, ns)]))
    assert np.allclose(u.reshape(6), 1.0 + 0.6 * (ns - ms)[:, 0], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("with_d2", [False, True], ids=["fd-d2", "d2-fn"])
def test_a_per_pair_logarithm_differential_works_on_stacks(with_d2):
    plane = ChartManifold(2, radius=5.0)

    def psi(m, n):  # one pair at a time: float() rejects a stack
        d = n - m
        return d + 0.3 * float(d[0]) * d

    def d2(m, n):
        d = n - m
        return (1.0 + 0.3 * float(d[0])) * np.eye(2) + 0.3 * np.outer(d, [1.0, 0.0])

    gauge = logarithm_gauge(plane, psi, d2_fn=d2 if with_d2 else None)
    ms, ns = pairs_on(plane, 6, seed=9)
    got = gauge.log.d2(ms.reshape(2, 3, 2), ns.reshape(2, 3, 2))
    assert got.shape == (2, 3, 2, 2)
    single = np.stack([gauge.log.d2(m, n) for m, n in zip(ms, ns)])
    assert np.array_equal(got.reshape(6, 2, 2), single)
    assert np.allclose(single, np.stack([d2(m, n) for m, n in zip(ms, ns)]), rtol=0.0, atol=1e-9)
    # the induced parallelism is the differential, on stacks as on one pair
    assert np.array_equal(gauge.U(ms, ns), gauge.d2psi(ms, ns))
    assert np.array_equal(gauge.U(ms[0], ns), gauge.d2psi(np.broadcast_to(ms[0], ns.shape), ns))


@pytest.mark.parametrize("mani,pair", [(SPHERE, sphere_d2log_pair), (SO3M, so3_d2log_pair)], ids=["sphere", "so3"])
def test_stacked_d2log_matches_the_per_pair_closed_form(mani, pair):
    # the arithmetic order changed, so the match is to rounding, not bit for bit
    ms, ns = pairs_on(mani, 12, seed=11)
    ns[0] = ms[0]
    want = np.stack([pair(m, n) for m, n in zip(ms, ns)])
    assert np.max(np.abs(mani.d2log(ms, ns) - want)) <= 1e-14


def test_connection_gauge_maps_are_the_manifold_maps_on_stacks():
    ms, ns = pairs_on(SO3M, 5, seed=8)
    gauge = connection_gauge(SO3M)
    assert same_bits(gauge.psi(ms, ns), SO3M.flatten(SO3M.log(ms, ns)))
    assert same_bits(gauge.U(ns, ms), SO3M.transport(ns, ms))
    assert same_bits(gauge.d2psi(ms, ns), SO3M.d2log(ms, ns))
    assert same_bits(gauge.log.induced_parallelism().matrix(ms, ns), SO3M.d2log(ms, ns))
