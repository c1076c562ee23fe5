"""Order estimation and report containers for the mesh-refinement protocol."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientLevels, ShapeError

EXACT_FLOOR = 1e-16
SLOPE_TOL = 0.25  # uniform tolerance on asserted slopes
INF_SLOPE = float("inf")
MIN_LEVELS = 4  # fewest refinement levels an order estimate is fitted to


def estimate_order(errors, hs, discard_coarsest=True):
    """Least-squares slope of log(error) against log(h).

    Needs at least four levels; the coarsest is discarded when enough levels
    remain.  Zero errors are clipped to 1e-16 and flagged exact; an all-zero
    family returns the infinite-slope sentinel.  The fit is ``scipy.stats.linregress``'s
    formula (moments from ``np.cov(bias=1)``), so slopes and constants match it bit for bit.
    Returns (slope, constant, exact_flag).
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.ndim != 1 or errors.shape != hs.shape:
        raise ShapeError(f"errors of shape {errors.shape} and mesh sizes of shape {hs.shape} are not one family")
    if errors.size < MIN_LEVELS:
        raise InsufficientLevels(f"need >= {MIN_LEVELS} levels, got {errors.size}")
    if not np.all(np.isfinite(errors) & (errors >= 0)):
        raise DomainError(f"errors must be finite and nonnegative, got {errors.tolist()}")
    if not np.all(np.isfinite(hs) & (hs > 0)):
        raise DomainError(f"mesh sizes must be finite and positive, got {hs.tolist()}")
    exact = bool(np.all(errors <= EXACT_FLOOR))
    if exact:
        return INF_SLOPE, 0.0, True
    clipped = np.maximum(errors, EXACT_FLOOR)
    order = np.argsort(hs)
    hs, clipped = hs[order], clipped[order]
    if discard_coarsest and hs.size >= 5:
        hs, clipped = hs[:-1], clipped[:-1]
    if hs[0] == hs[-1]:
        raise InsufficientLevels(f"need >= 2 distinct mesh sizes, got {hs.tolist()}")
    x, y = np.log(hs), np.log(clipped)
    ssxm, ssxym, _, _ = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    return float(slope), float(np.exp(intercept)), False


@dataclass
class ConvergenceReport:
    """Per-level errors with the fitted slope for one refinement study."""

    name: str
    ns: list
    hs: list
    errors: list
    target: float
    slope: float = 0.0
    constant: float = 0.0
    exact: bool = False
    abs_cap: float | None = None
    runtime: float = 0.0
    passed: bool = False

    @staticmethod
    def from_levels(name, ns, hs, errors, target, abs_cap=None, runtime=0.0):
        slope, constant, exact = estimate_order(errors, hs)
        passed = exact or slope >= target - SLOPE_TOL
        if abs_cap is not None:
            passed = passed and (min(errors) <= abs_cap)
        return ConvergenceReport(
            name=name,
            ns=list(int(n) for n in ns),
            hs=list(float(h) for h in hs),
            errors=list(float(e) for e in errors),
            target=float(target),
            slope=slope,
            constant=constant,
            exact=exact,
            abs_cap=abs_cap,
            runtime=runtime,
            passed=bool(passed),
        )

    def partial_slopes(self):
        out = [""]
        for a in range(1, len(self.hs)):
            e0, e1 = max(self.errors[a - 1], EXACT_FLOOR), max(self.errors[a], EXACT_FLOOR)
            if self.hs[a] == self.hs[a - 1]:
                out.append("")
            else:
                out.append(f"{np.log(e0 / e1) / np.log(self.hs[a - 1] / self.hs[a]):.4f}")
        return out

    def to_json(self):
        return {
            "name": self.name,
            "levels": [
                {"level": i, "N": n, "h": h, "error": e}
                for i, (n, h, e) in enumerate(zip(self.ns, self.hs, self.errors))
            ],
            "slope": self.slope,
            "constant": self.constant,
            "exact": self.exact,
            "target": self.target,
            "abs_cap": self.abs_cap,
            "runtime": self.runtime,
            "pass": self.passed,
        }

    def csv_rows(self):
        """Rows for the fixed convergence schema (level, N, h, error, slope_partial)."""
        parts = self.partial_slopes()
        return [
            [str(i), str(n), repr(float(h)), repr(float(e)), parts[i]]
            for i, (n, h, e) in enumerate(zip(self.ns, self.hs, self.errors))
        ]


CONVERGENCE_CSV_HEADER = ["level", "N", "h", "error", "slope_partial"]
COMPARISON_CSV_HEADER = ["fixture", "lhs", "rhs", "diff_sup", "slope", "pass"]


@dataclass
class ComparisonReport:
    """Two-sided computation with sup difference and refinement slope."""

    name: str
    lhs: float
    rhs: float
    diff_sup: float
    slope: float | None = None
    passed: bool = False
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "fixture": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "diff_sup": self.diff_sup,
            "slope": self.slope,
            "pass": self.passed,
            **({"details": self.details} if self.details else {}),
        }

    def csv_row(self):
        return [
            self.name,
            repr(float(self.lhs)),
            repr(float(self.rhs)),
            repr(float(self.diff_sup)),
            "" if self.slope is None else repr(float(self.slope)),
            str(self.passed),
        ]


def dyadic_levels(n_finest, n_levels):
    """Grid sizes n_finest, n_finest/2, ... (finest first)."""
    ns = [n_finest >> j for j in range(n_levels)]
    if ns[-1] < 4:
        raise InsufficientLevels("coarsest level too small")
    return ns
