"""Gauges: logarithm / parallelism pairs and their compatibility tensors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GaugeMismatch
from .linalg import FD_STEP, norm, pointwise
from .manifolds import Chart, Manifold, chart_rep_derivative


class Parallelism:
    """Smooth family U(to, from): T_from M -> T_to M, identity on the diagonal.

    ``matrix_fn(to, from)`` takes one pair of points or stacks of pairs whose
    leading axes broadcast and returns the (D, D) matrices with those leading
    axes.  ``chart`` is set on the chart parallelism of that chart.  ``closed(points)``,
    when given, is this parallelism's S against the manifold connection's parallel
    transport T at a (P, *point_shape) stack: (P, D, D, D) tensors, or a scalar
    that broadcasts; ``change_tensor`` reads it.
    """

    def __init__(self, manifold: Manifold, matrix_fn, name="custom", chart=None, closed=None):
        self.manifold = manifold
        self._fn = matrix_fn
        self.name = name
        self.chart = chart
        self.closed = closed

    def check_manifold(self, manifold: Manifold):
        """Raise ``GaugeMismatch`` unless ``manifold`` has this parallelism's manifold's geometry."""
        mine = self.manifold
        if not mine.same_geometry(manifold):
            raise GaugeMismatch(f"parallelism {self.name} lives on {mine.name}, the path on {manifold.name}")

    def matrix(self, to_pt, from_pt):
        return np.asarray(self._fn(to_pt, from_pt), dtype=float)


class Logarithm:
    """Smooth psi(m, n) in T_mM vanishing on the diagonal with unit differential.

    ``value_fn(m, n)`` takes one pair or stacks of pairs, as ``Parallelism``'s
    ``matrix_fn`` does, and returns flattened tangents at m, shape (..., D).
    ``induced`` is the parallelism U(to, from) = d/d(from) psi(to, .) that the
    logarithm carries; without it, finite differences of psi (``_fd_d2``).
    """

    def __init__(self, manifold: Manifold, value_fn, induced: Parallelism | None = None, name="custom"):
        self.manifold = manifold
        self._fn = value_fn
        self.name = name
        fd = _by_pair(manifold, self._fd_d2, f"FD d2 of {name} at pair")
        self._parallelism = induced or Parallelism(manifold, fd, name=f"induced({name})")

    def value(self, m, n):
        """Flattened tangents at m, shape (..., D)."""
        return np.asarray(self._fn(m, n), dtype=float)

    def d2(self, m, n):
        """Differential of n -> psi(m, n) as a (..., D, D) matrix on T_nM: the induced parallelism's matrices."""
        return self._parallelism.matrix(m, n)

    def _fd_d2(self, m, n):
        """Without ``induced``, for one pair (``_by_pair`` lifts it): one Richardson stencil along canonical curves
        at n in the dim M directions e_a of ``Manifold.tangent_basis``, assembled as sum_a (d psi . e_a) e_a^T."""
        mani = self.manifold
        n = np.asarray(n, dtype=float)
        e = mani.tangent_basis(n)  # (D, dim)
        h = FD_STEP * max(1.0, float(np.linalg.norm(mani.flatten(n))))
        ns = np.broadcast_to(n, (mani.dim,) + n.shape)
        return mani.derivative_along(ns, e.T, lambda qs, _: self.value(m, qs), h).T @ e.T

    def induced_parallelism(self):
        """U(to, from) = d/d(from) psi(to, .), the parallelism the logarithm carries."""
        return self._parallelism


@dataclass
class Gauge:
    """Pair (logarithm, parallelism) with a common diagonal domain."""

    manifold: Manifold
    log: Logarithm
    par: Parallelism
    chart: Chart | None = None

    def psi(self, m, n):
        return self.log.value(m, n)

    def U(self, to_pt, from_pt):
        return self.par.matrix(to_pt, from_pt)

    def d2psi(self, m, n):
        return self.log.d2(m, n)

    def compatibility(self):
        """S between the logarithm's induced parallelism and the gauge parallelism."""
        return change_tensor(self.log.induced_parallelism(), self.par, self.manifold)


# -- constructors ---------------------------------------------------------------


def connection_gauge(manifold: Manifold) -> Gauge:
    """Gauge from the manifold's connection: geodesic logarithm + parallel transport.  Against the
    transport, the logarithm's induced parallelism d2log is S = T / 2, T the torsion, and the transport S = 0."""
    name = f"log({manifold.name})"
    d2log = Parallelism(manifold, manifold.d2log, f"induced({name})", closed=lambda p: 0.5 * manifold.torsion_tensor(p))
    log = Logarithm(manifold, lambda m, n: manifold.flatten(manifold.log(m, n)), induced=d2log, name=name)
    par = Parallelism(
        manifold, lambda a, b: manifold.transport(a, b), f"transport({manifold.name})", closed=lambda p: 0.0
    )
    return Gauge(manifold, log, par)


def chart_gauge(manifold: Manifold, chart: Chart) -> Gauge:
    """Pullback of the standard flat gauge through a chart, its own induced gauge (an exact zero S).

    Every call of ``psi`` or ``umat`` reads each of its two point stacks once through ``Chart.read``
    (``ChartSingular`` outside the chart).  Against the connection transport the chart parallelism is
    S(v, w) = dfrom(x) Gamma(x)(dto v, dto w), x the chart coordinates and Gamma the manifold's
    ``chart_christoffels`` (a closed form or the ``Manifold`` default's finite differences).
    """

    def psi(m, n):
        xm = chart.read(m)
        return (chart.dfrom(xm) @ (chart.read(n) - xm)[..., None])[..., 0]

    def umat(a, b):
        xa = chart.read(a)
        chart.read(b)
        return chart.dfrom(xa) @ chart.dto(b)

    def christoffel(pts):
        xs = chart.read(pts)
        return _to_ambient(chart, xs, chart.dto(pts), manifold.chart_christoffels(chart, xs))

    name = f"chart({chart.name})"
    par = Parallelism(manifold, umat, name=name, chart=chart, closed=christoffel)
    return Gauge(manifold, Logarithm(manifold, psi, induced=par, name=name), par, chart=chart)


def standard_gauge(manifold: Manifold) -> Gauge:
    """Flat difference gauge on a chart manifold (psi = n - m, U = I), its own induced gauge."""

    def psi(m, n):
        return manifold.flatten(np.asarray(n, dtype=float) - np.asarray(m, dtype=float))

    par = Parallelism(manifold, manifold._identities, name="identity")
    return Gauge(manifold, Logarithm(manifold, psi, induced=par, name="difference"), par)


def _by_pair(manifold: Manifold, fn, what, shape=None):
    """``fn(m, n)`` of one pair on stacks of pairs whose leading axes broadcast, one call per pair through
    ``linalg.pointwise``, its values (shape ``shape``) on those leading axes."""

    def lifted(m, n):
        lead, ms, ns = manifold._pair_rows(m, n)
        out = pointwise(lambda mn: fn(*mn), np.stack([ms, ns], axis=1), what, shape)
        return out.reshape(lead + out.shape[1:])

    return lifted


def logarithm_gauge(manifold: Manifold, psi_fn, d2_fn=None, name="psi") -> Gauge:
    """Gauge of a bare logarithm ``psi_fn(m, n)``, a tangent at m, and its induced parallelism; ``psi_fn``
    and ``d2_fn``, its (D, D) differential in n when given, take one pair and are lifted to stacks by
    ``_by_pair``: a value of another shape raises ``ShapeError``, a non-finite one ``DomainError``."""
    d = manifold.flat_dim
    psi = _by_pair(manifold, psi_fn, f"{name} at pair", manifold.point_shape)
    d2 = None if d2_fn is None else _by_pair(manifold, d2_fn, f"d2 of {name} at pair", (d, d))
    induced = None if d2 is None else Parallelism(manifold, d2, name=f"induced({name})")
    log = Logarithm(manifold, lambda m, n: manifold.flatten(psi(m, n)), induced=induced, name=name)
    return Gauge(manifold, log, log.induced_parallelism())


# -- compatibility tensors ---------------------------------------------------------


def _to_ambient(chart: Chart, xs, dto, coeffs):
    """(P, D, D, D) ambient tensors dfrom(x) A(dto v, dto w) of (P, d, d, d) chart coefficients A."""
    return np.einsum("pCc,pcjb,pjA,pbB->pCAB", chart.dfrom(xs), coeffs, dto, dto)


class CompatibilityTensor:
    """First-order discrepancy S of two parallelisms, S(v (x) w) in T_mM.

    One rule.  One parallelism is an exact zero.  When both parallelisms have a
    ``closed`` form against the connection transport T, S[u_tilde, u] = S[u_tilde, T]
    - S[u, T], S being a cocycle.  Otherwise finite differences: ``S[u_tilde, u] =
    D2(chart rep of u) - D2(chart rep of u_tilde)`` on the diagonal, mapped back to
    ambient coordinates: the points of a stack are grouped by their ``chart_index``
    chart, one ``chart_rep_derivative`` stencil per chart.  ``compatibility_tensor``,
    the oracle of ``torsion_check``, always takes the finite differences.
    A parallelism of another geometry than ``manifold``'s raises ``GaugeMismatch``.
    """

    def __init__(self, u_tilde: Parallelism, u: Parallelism, manifold: Manifold):
        for par in (u_tilde, u):
            par.check_manifold(manifold)
        self.u_tilde = u_tilde
        self.u = u
        self.manifold = manifold
        self.exact_zero = u_tilde is u
        self.closed_form = u_tilde.closed is not None and u.closed is not None

    def at(self, m):
        """(D, D, D) array S[c, a, b] with S(v (x) w)_c = S[c, a, b] v_a w_b."""
        return self.stack(np.asarray(m, dtype=float)[None])[0]

    def stack(self, points):
        """(P, D, D, D) array of S at each of a stack of points."""
        points = np.asarray(points, dtype=float)
        out = np.zeros((len(points),) + (self.manifold.flat_dim,) * 3)
        if self.exact_zero:
            return out
        if self.closed_form:
            out[...] = self.u_tilde.closed(points) - self.u.closed(points)
            return out
        owners = self.manifold.chart_index(points, atlas := self.manifold.charts())
        for k in np.unique(owners):
            chart, rows = atlas[k], owners == k
            ms = points[rows]
            xs, dto = chart.to_coords(ms), chart.dto(ms)
            du, dut = chart_rep_derivative([self.u.matrix, self.u_tilde.matrix], chart, ms, xs, dto)
            out[rows] = _to_ambient(chart, xs, dto, du - dut)
        return out

    def apply(self, m, v, w):
        return np.einsum("cab,a,b->c", self.at(m), self.manifold.flatten(v), self.manifold.flatten(w))


def compatibility_tensor(u_tilde: Parallelism, u: Parallelism, manifold: Manifold):
    """The finite-difference S[u_tilde, u] (exact zero for one parallelism): the oracle."""
    s = CompatibilityTensor(u_tilde, u, manifold)
    s.closed_form = False
    return s


def change_tensor(u_tilde: Parallelism, u: Parallelism, manifold: Manifold):
    """S[u_tilde, u] by ``CompatibilityTensor``'s one rule: a closed form where both parallelisms have one.

    A parallelism of another geometry than ``manifold``'s raises ``GaugeMismatch``.
    """
    return CompatibilityTensor(u_tilde, u, manifold)


def torsion_check(manifold: Manifold):
    """Max mismatch between the connection gauge's finite-difference S and half the torsion at 5 seeded points."""
    rng = np.random.default_rng(3)
    g = connection_gauge(manifold)
    s = compatibility_tensor(g.log.induced_parallelism(), g.par, manifold)
    draws = []
    for _ in range(5):  # a point, then two tangents at it
        m = manifold.random_point(rng)
        v, w = (manifold.flatten(manifold.random_tangent(rng, m)) for _ in range(2))
        draws.append((m, v, w))
    ms, vs, ws = (np.stack(a) for a in zip(*draws))
    gap = s.stack(ms) - 0.5 * manifold.torsion_tensor(ms)
    worst = float(np.max(norm(np.einsum("pcab,pa,pb->pc", gap, vs, ws))))
    return {"max_residual": worst, "pass": worst <= 1e-5}
