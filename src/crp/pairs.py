"""The all-pairs sup behind every verifier constant, grid triples and the triple defect.

Each constant the library certifies a path with is a sup over grid pairs
s < t (optionally with t - s <= delta) of a per-pair residual divided by a
power of the control, and ``control_sups`` is the one place that divides.
``pair_sup`` walks those pairs in row-major order in row blocks of bounded
size, so memory stays flat in the grid size while the sups, being maxima, do
not depend on the block size.  Every dyadic level of a verifier or a defect
ladder is read at a stride on the fine grid (``on_grids``, ``triple_defect``):
a coarse grid's pairs and triples are fine ones, so no object is coarsened.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations

import numpy as np

from .errors import DomainError

# Numerators at or below this count as zero when the control vanishes (0/0 -> 0).
ZERO_NUM_TOL = 1e-13

# Most pairs handed to one residual call; a block always holds at least one row.
# A caller's largest per-block array is this many pairs times its per-pair size.
BLOCK_PAIRS = 1 << 12

# Slack on the probe horizon: pairs with t_j - t_i <= delta + DELTA_SLACK are kept.
DELTA_SLACK = 1e-12


def ratio(num, om_pow):
    """num / om_pow elementwise, with 0/0 -> 0, x/0 -> inf for x > ZERO_NUM_TOL and NaN for a NaN control."""
    pos = ~(om_pow <= 0)  # a NaN control takes the division, so its ratio is NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pos, num / np.where(pos, om_pow, 1.0), np.where(num <= ZERO_NUM_TOL, 0.0, np.inf))


def _row_ends(times, delta):
    """Exclusive end of the kept columns of each row i (columns i+1 .. end-1).

    The test is on the rounded difference t_j - t_i itself: a search for
    t_i + delta rounds differently at the boundary, so its ends are moved onto
    the rounded test, which is monotone along a row.
    """
    n = times.size
    if delta is None:
        return np.full(n, n)
    if not np.isfinite(delta):  # a NaN horizon would keep every pair
        raise DomainError(f"probe delta {delta} is not finite")
    lim = delta + DELTA_SLACK
    rows = np.arange(n)
    ends = np.maximum(np.searchsorted(times, times + lim, side="right"), rows + 1)
    while (step := (ends < n) & (times[np.minimum(ends, n - 1)] - times <= lim)).any():
        ends += step
    while (step := (ends > rows + 1) & (times[ends - 1] - times > lim)).any():
        ends -= step
    return ends


def pair_sup(times, delta, fn):
    """Sup of per-pair residuals over grid pairs i < j (t_j - t_i <= delta if given).

    ``fn(i, j)`` takes equal-length index arrays and returns a tuple of
    nonnegative arrays: the first has one entry per pair, the others may hold
    a subset of the pairs (``on_grids``).  Returns ``(sups, worst, probed)``:
    ``sups[k]`` is the sup of the k-th array (0.0 for every k when no pair is
    probed), ``worst`` the first pair in row-major order attaining the sup of
    the first array ((0, 0) when no pair is probed) and ``probed`` the number
    of pairs probed.  A NaN residual makes its sup NaN, and the first NaN pair
    of the first array is the worst pair, so corrupt input never passes.
    """
    times = np.asarray(times, dtype=float)
    counts = _row_ends(times, delta) - np.arange(times.size) - 1
    done = np.concatenate([[0], np.cumsum(counts)])  # pairs before row r
    probed = int(done[-1])
    sups, worst, best = defaultdict(float), (0, 0), -1.0
    row = 0
    while row < times.size - 1:
        stop = max(int(np.searchsorted(done, done[row] + BLOCK_PAIRS, side="right")) - 1, row + 1)
        block = counts[row:stop]
        if done[stop] > done[row]:
            i = np.repeat(np.arange(row, stop), block)
            j = i + 1 + np.arange(i.size) - np.repeat(done[row:stop] - done[row], block)
            out = fn(i, j)
            for k, a in enumerate(out):
                sups[k] = float(np.maximum(sups[k], np.max(a, initial=0.0)))  # keeps NaN
            if sups[0] > best or (np.isnan(sups[0]) and not np.isnan(best)):
                best = sups[0]
                k = int(np.argmax(out[0]))  # the first NaN, if any
                worst = (int(i[k]), int(j[k]))
        row = stop
    return sups, worst, probed


def on_grids(strides, i, j, *arrays):
    """Each array on the grid of every s-th node (``strides``: 1, then powers of two): the whole
    array at stride 1, else only its pairs with both ends on that grid.  A coarse grid's pairs are
    fine pairs, so the sups of one sweep of the fine grid are every grid's sups.  ``pair_sup``
    reads its worst pair from the first array, the whole stride-1 one."""
    ons = [None if s == 1 else ((i | j) & (s - 1)) == 0 for s in strides]
    return [a if on is None else a[on] for a in arrays for on in ons]


def control_sups(times, control, delta, norms, strides=(1,)):
    """The two constants of a pair of inequalities |a| <= C om^(2/p) and |b| <= C om^(1/p) on one sweep.

    ``norms(i, j)`` returns the nonnegative norms (a, b) of each pair's two residuals;
    ``control`` supplies om = omega(t_i, t_j) and p.  Returns ``(C2s, C1s, worst, probed)``:
    the sups of a / om^(2/p) and of b / om^(1/p) over the probed pairs (t_j - t_i <= delta
    if given) on the grid of every stride, finest first, with the worst pair of the first
    and the pairs probed as in ``pair_sup``.
    """
    p = control.p

    def residuals(i, j):
        a, b = norms(i, j)
        om = control.omega(times.take(i), times.take(j))
        return on_grids(strides, i, j, ratio(a, om ** (2.0 / p)), ratio(b, om ** (1.0 / p)))

    sups, worst, probed = pair_sup(times, delta, residuals)
    k = len(strides)
    return [sups[m] for m in range(k)], [sups[k + m] for m in range(k)], worst, probed


def grid_triples(n):
    """Index arrays (i, j, k) of every triple i < j < k < n, in lexicographic order."""
    flat = np.fromiter(chain.from_iterable(combinations(range(n), 3)), dtype=np.intp)
    return flat.reshape(-1, 3).T


def sampled_triples(n, max_triples, rng=None):
    """Index arrays (i, j, k) of triples i < j < k < n: every one when there are
    at most ``max_triples``, otherwise ``max_triples`` draws from ``rng``
    (default: seed 0), clipped into the grid."""
    if n * (n - 1) * (n - 2) // 6 <= max_triples:
        return grid_triples(n)
    rng = rng or np.random.default_rng(0)
    i = rng.integers(0, n - 2, size=max_triples)
    j = np.minimum(i + 1 + rng.integers(0, np.maximum(n - 2 - i, 1)), n - 2)
    k = np.minimum(j + 1 + rng.integers(0, np.maximum(n - 1 - j, 1)), n - 1)
    return i, j, k


def triple_defect(expr, n, s):
    """Max norm of expr(i, i+s) + expr(i+s, i+2s) - expr(i, i+2s) over the consecutive triples of the
    grid of every s-th node, i = 0, s, 2s, ...: a coarse grid's triples are three fine nodes.

    ``expr(i, j)`` takes equal-length index arrays into a grid of n steps and
    returns one vector per pair; the result is 0.0 when n < 2s (no triple).
    """
    if n < 2 * s:
        return 0.0
    i = np.arange(0, n - 2 * s + 1, s)
    d = expr(i, i + s) + expr(i + s, i + 2 * s) - expr(i, i + 2 * s)
    return float(np.max(np.linalg.norm(d, axis=-1)))
