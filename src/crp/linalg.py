"""Small numerical helpers: so(3) closed forms and finite differences."""

from __future__ import annotations

import numpy as np

# Relative finite-difference step (geometry design default) and one Richardson level.
FD_STEP = 1e-5


def richardson_combine(f_h, f_mh, f_h2, f_mh2, h):
    """Central difference with one Richardson level, O(h^4), from the values at h, -h, h/2 and -h/2."""
    return (4.0 * ((f_h2 - f_mh2) / h) - (f_h - f_mh) / (2.0 * h)) / 3.0


def richardson_diff(f, h):
    """``richardson_combine`` of a vector-valued ``f(eps)`` at 0, evaluated at h, -h, h/2 and -h/2 in turn."""
    return richardson_combine(np.asarray(f(h)), np.asarray(f(-h)), np.asarray(f(h / 2.0)), np.asarray(f(-h / 2.0)), h)


def sqnorm(v):
    """Squared norm over the last axis, each row bit for bit ``v @ v``; one vector gives a numpy scalar."""
    v = np.asarray(v, dtype=float)
    return v @ v if v.ndim == 1 else (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def any_true(mask):
    """Whether any entry of a boolean array or numpy bool is set; a single bool skips the reduction's cost."""
    return bool(mask) if np.ndim(mask) == 0 else bool(mask.any())


def norm(v):
    """Norm over the last axis, each row bit for bit ``np.linalg.norm`` of that row."""
    return np.sqrt(sqnorm(v))


SO3_BASIS = np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                      [[0, -1, 0], [1, 0, 0], [0, 0, 0]]], dtype=float)  # hat(e_a), shape (3, 3, 3)
SO3_BASIS.flags.writeable = False
_HAT = SO3_BASIS.reshape(3, 9)
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

# The so(3) maps below take one vector (3,) or matrix (3, 3), or a stack with leading
# axes, and return the same leading axes; one vector's result is the scalar formula's.


def hat(w):
    """R^3 -> so(3)."""
    w = np.asarray(w, dtype=float)
    return (w @ _HAT).reshape(w.shape[:-1] + (3, 3))


def vee(W):
    """so(3) -> R^3 (antisymmetrizes first)."""
    # .T reverses every axis, so W.T[1, 2] is W[..., 2, 1] for any leading axes
    W = np.asarray(W, dtype=float).T
    return np.array([0.5 * (W[1, 2] - W[2, 1]), 0.5 * (W[2, 0] - W[0, 2]), 0.5 * (W[0, 1] - W[1, 0])]).T


def _rodrigues(w, cut, a, b):
    """I + a hat(w) + b hat(w)^2, each coefficient a pair (series value below |w| = cut, closed form in |w|)."""
    th = norm(w)
    W = hat(w)
    small = th < cut
    t = th + small  # th + 1 on the series lanes, where the closed forms are not read
    a, b = (np.where(small, series, closed(t))[..., None, None] for series, closed in (a, b))
    return _EYE3 + a * W + b * (W @ W)


def so3_exp(w):
    """Rodrigues formula for exp of hat(w); a series keeps 1e-16 accuracy below |w| = 1e-8."""
    return _rodrigues(w, 1e-8, (1.0, lambda t: np.sin(t) / t), (0.5, lambda t: (1.0 - np.cos(t)) / t**2))


def so3_log(R):
    """Inverse Rodrigues formula, returning the rotation vector in R^3."""
    R = np.asarray(R, dtype=float)
    diag = R.T[0, 0] + R.T[1, 1] + R.T[2, 2]
    th = np.arccos(np.minimum(np.maximum(0.5 * (diag.T - 1.0), -1.0), 1.0))
    v = vee(R - R.swapaxes(-1, -2))
    small = th < 1e-8
    t = th + small
    w = np.where(small, 0.5 * (1.0 + th**2 / 6.0), t / (2.0 * np.sin(t)))[..., None] * v
    far = th > np.pi - 1e-6
    if any_true(far):
        # near-antipodal branch via the symmetric part, its sign from the antisymmetric part
        S = 0.5 * (R[far] + np.eye(3))
        axis = np.sqrt(np.maximum(np.diagonal(S, axis1=-2, axis2=-1), 0.0))
        k = np.argmax(axis, axis=-1)[:, None]
        u = np.take_along_axis(S, k[:, None], axis=-1)[..., 0] / np.maximum(np.take_along_axis(axis, k, -1), 1e-300)
        wf = th[far][:, None] * (u / norm(u)[:, None])
        w[far] = np.where((np.sum(v[far] * wf, axis=-1) < 0)[:, None], -wf, wf)
    return w


def so3_left_jacobian(w):
    """J_l(w): d/dt exp((w + t v)^) = (J_l(w) v)^ exp(w^)."""
    return _rodrigues(w, 1e-5, (0.5, lambda t: (1.0 - np.cos(t)) / t**2), (1.0 / 6.0, lambda t: (t - np.sin(t)) / t**3))


def so3_left_jacobian_inv(w):
    c = (1.0 / 12.0, lambda t: 1.0 / t**2 - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)))
    return _rodrigues(w, 1e-5, (-0.5, lambda t: -0.5), c)


def polar_retract(g):
    """Closest orthogonal matrix (polar factor) of a matrix or of each of a stack of them."""
    u, _, vt = np.linalg.svd(np.asarray(g, dtype=float))
    r = u @ vt
    flip = np.linalg.det(r) < 0
    if any_true(flip):
        u[..., -1] *= np.where(flip, -1.0, 1.0)[..., None]
        r = u @ vt
    return r
