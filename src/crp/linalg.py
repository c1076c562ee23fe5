"""Small numerical helpers: so(3) closed forms and finite differences."""

from __future__ import annotations

import numpy as np

# Relative finite-difference step (geometry design default) and one Richardson level.
FD_STEP = 1e-5


def richardson_diff(f, h):
    """Central difference of a vector-valued ``f(eps)`` at 0 with one Richardson level.

    ``f`` is evaluated at +-h and +-h/2; the combination cancels the h^2 term,
    leaving O(h^4) truncation.
    """
    d1 = (np.asarray(f(h)) - np.asarray(f(-h))) / (2.0 * h)
    d2 = (np.asarray(f(h / 2.0)) - np.asarray(f(-h / 2.0))) / h
    return (4.0 * d2 - d1) / 3.0


def hat(w):
    """R^3 -> so(3)."""
    w = np.asarray(w, dtype=float)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


SO3_BASIS = np.stack([hat(e) for e in np.eye(3)])  # hat(e_a), shape (3, 3, 3)
SO3_BASIS.flags.writeable = False


def vee(W):
    """so(3) -> R^3 (antisymmetrizes first)."""
    A = 0.5 * (np.asarray(W) - np.asarray(W).T)
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def so3_exp(w):
    """Rodrigues formula for exp of hat(w)."""
    w = np.asarray(w, dtype=float)
    th = np.linalg.norm(w)
    W = hat(w)
    if th < 1e-8:
        # series keeps 1e-16 accuracy near 0
        return np.eye(3) + W + 0.5 * (W @ W)
    a = np.sin(th) / th
    b = (1.0 - np.cos(th)) / th**2
    return np.eye(3) + a * W + b * (W @ W)


def so3_log(R):
    """Inverse Rodrigues formula, returning the rotation vector in R^3."""
    R = np.asarray(R, dtype=float)
    c = 0.5 * (np.trace(R) - 1.0)
    c = min(1.0, max(-1.0, c))
    th = np.arccos(c)
    if th < 1e-8:
        return vee(R - R.T) * 0.5 * (1.0 + th**2 / 6.0)
    if th > np.pi - 1e-6:
        # near-antipodal branch via the symmetric part
        S = 0.5 * (R + np.eye(3))
        axis = np.sqrt(np.maximum(np.diagonal(S), 0.0))
        k = int(np.argmax(axis))
        v = S[:, k] / max(axis[k], 1e-300)
        v = v / np.linalg.norm(v)
        w = th * v
        # fix sign using the antisymmetric part
        if np.dot(vee(R - R.T), w) < 0:
            w = -w
        return w
    return th / (2.0 * np.sin(th)) * vee(R - R.T)


def so3_left_jacobian(w):
    """J_l(w): d/dt exp((w + t v)^) = (J_l(w) v)^ exp(w^)."""
    w = np.asarray(w, dtype=float)
    th = np.linalg.norm(w)
    W = hat(w)
    if th < 1e-5:
        return np.eye(3) + 0.5 * W + (W @ W) / 6.0
    a = (1.0 - np.cos(th)) / th**2
    b = (th - np.sin(th)) / th**3
    return np.eye(3) + a * W + b * (W @ W)


def so3_left_jacobian_inv(w):
    w = np.asarray(w, dtype=float)
    th = np.linalg.norm(w)
    W = hat(w)
    if th < 1e-5:
        return np.eye(3) - 0.5 * W + (W @ W) / 12.0
    c = 1.0 / th**2 - (1.0 + np.cos(th)) / (2.0 * th * np.sin(th))
    return np.eye(3) - 0.5 * W + c * (W @ W)


def polar_retract(g):
    """Closest orthogonal matrix (polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(g, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r
