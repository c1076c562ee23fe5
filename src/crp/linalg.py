"""Small numerical helpers: the one loop over a user callable, the stacked matrix exponential, so(3) closed
forms and finite differences."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

# Relative finite-difference step (geometry design default) and one Richardson level.
FD_STEP = 1e-5
_REAL_KINDS = "biuf"  # numpy dtype kinds that ``pointwise`` reads as real numbers: bool, int, unsigned, float


def pointwise(fn, rows, what, shape=None, error=DomainError):
    """``fn`` called once per row, its values stacked (R, *shape): the library's one loop over a user callable.

    ``rows`` is a stack of R times, points or pairs of points.  Each value must be a real
    number array, a scalar read as shape (1,).  The values are stacked by one ``np.array``
    and checked on the stack; only when a check fails are the rows walked, and the first
    value that is not a real number array, or whose shape is not ``shape`` (default: the
    first value's; an axis given as None takes the first value's length), raises
    ShapeError.  The first non-finite row raises ``error``.  A time row is named "what(t)"
    and "what ... at t=", any other row "what r".
    """
    vals = [fn(row) for row in rows]
    ts = rows if np.ndim(rows) == 1 else None
    out = _stack(vals, shape)
    if out is None:
        out = _walk_rows(vals, ts, what, shape)
    finite = np.isfinite(out).all(axis=tuple(range(1, out.ndim)))
    if not finite.all():
        r = int(np.argmin(finite))
        raise error(f"{what} is not finite at t={float(ts[r])!r}" if ts is not None else f"{what} {r} is not finite")
    return out


def _value_shape(shape, first):
    """``pointwise``'s value shape: ``shape``, by default ``first``, its None axes taking ``first``'s lengths."""
    shape = first if shape is None else tuple(shape)
    if len(shape) == len(first):
        shape = tuple(f if s is None else s for s, f in zip(shape, first))
    return shape


def _stack(vals, shape):
    """``pointwise``'s values as one float stack (R, *value shape), or None unless each is a real number array
    of the value shape (a scalar passes for shape (1,))."""
    try:
        out = np.array(vals)
    except ValueError:  # a ragged nest
        return None
    if out.dtype.kind not in _REAL_KINDS:
        return None
    want = _value_shape(shape, (out.shape[1:] or (1,)) if vals else ())
    if out.shape[1:] != want and not (out.shape[1:] == () and want == (1,)):
        return None
    return out.reshape((len(vals),) + want).astype(float, copy=False)


def real_array(v, name, shape=None):
    """``v`` as an array, ``ShapeError`` naming ``name()`` unless it is a real number array (not a string,
    a dict, None, a ragged nest or a complex array), of ``shape`` when given."""
    try:
        a = np.asarray(v)
    except ValueError:  # a ragged nest
        a = None
    if a is None or a.dtype.kind not in _REAL_KINDS:
        kind = "a ragged nest" if a is None else f"of dtype {a.dtype}"
        raise ShapeError(f"{name()} is {kind}, not a real number array")
    if shape is not None and a.shape != shape:
        raise ShapeError(f"{name()} has shape {a.shape}, not {shape}")
    return a


def _walk_rows(vals, ts, what, shape):
    """``pointwise``'s stack built row by row: ShapeError at the first value that is not a real number array of
    the value shape (a scalar passes for shape (1,))."""
    arrays, want = [], None
    for r, v in enumerate(vals):
        name = f"{what}({float(ts[r])!r})" if ts is not None else f"{what} {r}"
        a = real_array(v, lambda: name)
        want = _value_shape(shape, a.shape or (1,)) if want is None else want
        if a.shape == () and want == (1,):
            a = a.reshape(1)
        if a.shape != want:
            raise ShapeError(f"{name} has shape {a.shape}, not {want}")
        arrays.append(a)
    want = _value_shape(shape, ()) if want is None else want
    return np.array(arrays, dtype=float).reshape((len(arrays),) + want)


def richardson_combine(f_h, f_mh, f_h2, f_mh2, h):
    """Central difference with one Richardson level, O(h^4), from the values at h, -h, h/2 and -h/2."""
    return (4.0 * ((f_h2 - f_mh2) / h) - (f_h - f_mh) / (2.0 * h)) / 3.0


def richardson_diff(f, h):
    """``richardson_combine`` of a vector-valued ``f`` at 0 with step h (a scalar or an array), from one call
    ``f(eps)`` on the (4, *shape(h)) stack of the steps h, -h, h/2 and -h/2, whose values stack those levels'
    along a leading axis of 4."""
    v = np.asarray(f(np.stack([h, -h, h / 2.0, -h / 2.0])))
    return richardson_combine(v[0], v[1], v[2], v[3], h)


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


# Degree-13 Pade coefficients of exp (Higham 2005), divided by the constant one so that it is 1: a zero
# matrix then gives the identity exactly.  THETA_13 is the largest 1-norm the approximant takes unscaled.
_PADE13 = np.array([64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
                    10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1],
                   dtype=float) / 64764752532480000
_THETA13 = 5.371920351148152


def expm(a):
    """exp of a matrix, or of each of an (..., n, n) stack: scaling and squaring with the degree-13 Pade
    approximant (Higham 2005) in batched matmuls and one batched solve, each matrix scaled by 2^-s for
    the fewest s that brings its 1-norm under THETA_13, then squared s times."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    mant, exp2 = np.frexp(np.abs(stack).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(exp2 - (mant == 0.5), 0)  # ceil(log2(norm / THETA_13)), 0 when under it
    x = np.ldexp(stack, -s[:, None, None])
    eye, b = np.eye(n), _PADE13
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r.reshape(a.shape)


def polar_retract(g):
    """Closest orthogonal matrix (polar factor) of a matrix or of each of a stack of them."""
    u, _, vt = np.linalg.svd(np.asarray(g, dtype=float))
    r = u @ vt
    flip = np.linalg.det(r) < 0
    if any_true(flip):
        u[..., -1] *= np.where(flip, -1.0, 1.0)[..., None]
        r = u @ vt
    return r
