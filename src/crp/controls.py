"""Two-parameter controls.

A control is the superadditive modulus omega(s, t) every Hoelder-type estimate in
this library is measured against.  Two representations are supported: the
time-scale control ``omega(s, t) = scale * (t - s)`` and a tabulated control
holding values on a fixed grid (used for degenerate drivers whose control is not
a multiple of t - s).  A time-scale control may be given a thunk for its scale:
the scale is then computed on its first read (``omega``, ``scale``, ``to_json``),
once, so a path whose control nothing reads never pays for its calibration.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGrid, OffGrid


@dataclass(frozen=True)
class Control:
    """Superadditive modulus omega(s, t) with roughness exponent p in [1, 3)."""

    p: float
    kind: str = "time-scale"  # "time-scale" | "table"
    calibration: float | Callable[[], float] = field(default=1.0, repr=False)  # the scale, or a thunk for it
    times: np.ndarray | None = field(default=None, repr=False)
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (1.0 <= self.p < 3.0):
            raise InvalidGrid(f"p={self.p} outside [1, 3)")
        if self.kind == "time-scale":
            if not callable(self.calibration):
                self.scale  # a given scale is checked now, a thunk's on its first read
        elif self.kind == "table":
            if self.times is None or self.table is None:
                raise InvalidGrid("table control needs times and table")
            t = np.asarray(self.times, dtype=float)
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
            if self.table.shape != (t.size, t.size):
                raise InvalidGrid("table must be square over the grid")
        else:
            raise InvalidGrid(f"unknown control kind {self.kind!r}")

    @functools.cached_property
    def scale(self):
        """The time-scale factor; a thunk's is computed here, on the first read, and kept."""
        c = self.calibration() if callable(self.calibration) else self.calibration
        if not (np.isfinite(c) and c >= 0):
            raise InvalidGrid(f"time-scale control needs a finite nonnegative scale, got {c!r}")
        return float(c)

    # -- evaluation -----------------------------------------------------------

    def omega(self, s, t):
        """omega(s, t), vectorized over numpy-broadcastable arguments."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "time-scale":
            return self.scale * np.maximum(t - s, 0.0)
        return self.table[self._nodes(s), self._nodes(t)]

    def _nodes(self, t):
        """Indices of the times ``t`` on a table control's grid; OffGrid unless all are nodes."""
        idx = np.searchsorted(self.times, t)
        hit = self.times[np.minimum(idx, self.times.size - 1)] == t
        if not np.all(hit):
            raise OffGrid(f"t={float(np.extract(~hit, t)[0])!r} is not a node of the control's grid")
        return idx

    # -- construction ---------------------------------------------------------

    @staticmethod
    def time_scale(scale, p):
        """omega(s, t) = scale (t - s); ``scale`` is a number or a thunk that computes it on the first read."""
        return Control(p=p, kind="time-scale", calibration=scale)

    @staticmethod
    def from_callable(fn, times, p):
        """Tabulate ``fn(s, t)`` over all grid pairs."""
        t = np.asarray(times, dtype=float)
        ss, tt = np.meshgrid(t, t, indexing="ij")
        table = np.where(tt >= ss, fn(ss, tt), 0.0)
        return Control(p=p, kind="table", times=t, table=table)

    def restrict(self, times):
        """Restriction to a subgrid (the RDE horizon, the chart verifier's window)."""
        if self.kind == "time-scale":
            return self
        t = np.asarray(times, dtype=float)
        idx = self._nodes(t)
        return Control(p=self.p, kind="table", times=t, table=self.table[np.ix_(idx, idx)])

    # -- serialization --------------------------------------------------------

    def to_json(self):
        doc = {"kind": self.kind, "scale": self.scale, "p": self.p}
        if self.kind == "table":
            doc["times"] = self.times.tolist()
            doc["table"] = self.table.tolist()
        return doc

    @staticmethod
    def from_json(doc):
        if doc["kind"] == "table":
            return Control(
                p=doc["p"],
                kind="table",
                times=np.asarray(doc["times"], dtype=float),
                table=np.asarray(doc["table"], dtype=float),
            )
        return Control.time_scale(doc["scale"], doc["p"])
