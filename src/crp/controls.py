"""Two-parameter controls.

A control is the superadditive modulus omega(s, t) every Hoelder-type estimate in
this library is measured against.  Two representations are supported: the
time-scale control ``omega(s, t) = scale * (t - s)`` and a tabulated control
holding values on a fixed grid (used for degenerate drivers whose control is not
a multiple of t - s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGrid, OffGrid


@dataclass(frozen=True)
class Control:
    """Superadditive modulus omega(s, t) with roughness exponent p in [1, 3)."""

    p: float
    kind: str = "time-scale"  # "time-scale" | "table"
    scale: float = 1.0
    times: np.ndarray | None = field(default=None, repr=False)
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (1.0 <= self.p < 3.0):
            raise InvalidGrid(f"p={self.p} outside [1, 3)")
        if self.kind == "time-scale":
            if not (np.isfinite(self.scale) and self.scale >= 0):
                raise InvalidGrid(f"time-scale control needs a finite nonnegative scale, got {self.scale!r}")
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
        return Control(p=p, kind="time-scale", scale=float(scale))

    @staticmethod
    def from_callable(fn, times, p):
        """Tabulate ``fn(s, t)`` over all grid pairs."""
        t = np.asarray(times, dtype=float)
        ss, tt = np.meshgrid(t, t, indexing="ij")
        table = np.where(tt >= ss, fn(ss, tt), 0.0)
        return Control(p=p, kind="table", times=t, table=table)

    def restrict(self, times):
        """Restriction to a subgrid (used when coarsening paths)."""
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
        return Control(p=doc["p"], kind="time-scale", scale=doc["scale"])
