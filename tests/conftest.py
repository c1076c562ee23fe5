from __future__ import annotations

import numpy as np
import pytest


def _margin_scan(points, atlas, frac=0.2):
    """Greedy chart segments [(i0, i1, chart name)] from every chart's margin at every node."""
    margins = np.array([[c.margin(p) for c in atlas] for p in points])
    cur = int(np.argmax(margins[0]))
    starts = [(0, cur)]
    for i in range(1, len(points)):
        if margins[i, cur] < frac * atlas[cur].radius:
            best = int(np.argmax(margins[i]))
            if best != cur:
                starts.append((i, best))
                cur = best
    ends = [i for i, _ in starts[1:]] + [len(points) - 1]
    return [(i0, i1, atlas[c].name) for (i0, c), i1 in zip(starts, ends)]


@pytest.fixture()
def margin_scan():
    """Brute-force reference for the chart walk of the chart-patched solvers."""
    return _margin_scan
