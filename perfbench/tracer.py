"""Per-layer spans and counters wrapped around ``crp`` functions from outside ``src/crp``.

``Tracer.install`` replaces every reference to each target function (in every
loaded ``crp`` module that holds one) and each target method (on its class)
with a timing wrapper; ``uninstall`` puts the originals back.  A layer's self
time is its span's duration minus the time its wrapped children took.  The
untraced run never installs anything, which ``Sites.unchanged`` verifies.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, function or Class.method) for every wrapped call
TARGETS = [
    ("roughpath", "lift_smooth"),
    ("roughpath", "_calibrate_control"),
    ("roughpath", "_gauss_legendre_step_area"),
    ("controls", "Control.omega"),
    ("controlled", "verify_crp"),
    ("controlled", "_pair_constants"),
    ("controlled", "associated_roughpath"),
    ("mcrp", "verify_gauge_crp"),
    ("mcrp", "_gauge_constants"),
    ("mcrp", "domain_feasible_delta"),
    ("mcrp", "crp_from_projection"),
    ("manifolds", "Sphere.log_batch"),
    ("manifolds", "SO3.log_batch"),
    ("manifolds", "Sphere.transport"),
    ("manifolds", "Chart.margin"),
    ("gauges", "CompatibilityTensor.at"),
    ("gauges", "Gauge.compatibility"),
    ("linalg", "richardson_diff"),
    ("oneforms", "oneform_from_smooth"),
    ("oneforms", "gauge_integrate"),
    ("oneforms", "gauge_change"),
    ("oneforms", "fundamental_theorem"),
    ("sewing", "rough_integrate"),
    ("mrde", "rde_solve_manifold"),
    ("mrde", "_chart_step"),
    ("transport", "parallel_translate_frame"),
    ("transport", "unroll"),
    ("transport", "roll"),
    ("transport", "group_rde"),
    ("transport", "chart_christoffels"),
    ("flatrde", "rde_solve_flat"),
    ("serialize", "canonical_json"),
]


def _path_size(arg_index):
    """(family, N) of the manifold path passed at ``arg_index``."""

    def size(args):
        y = args[arg_index]
        return y.manifold.name, y.times.size - 1

    return size


# wrapped calls whose wall time is fitted against N (log-log slope)
SIZED = {
    "roughpath._calibrate_control": lambda args: (f"dim{args[0].shape[1]}", len(args[1]) - 1),
    "mcrp.verify_gauge_crp": _path_size(0),
    "oneforms.gauge_integrate": _path_size(1),
    "transport.parallel_translate_frame": _path_size(0),
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("roughpath.lift_smooth.self_s", "s"),
    ("roughpath._calibrate_control.self_s", "s"),
    ("roughpath._calibrate_control.n_exp", "fit_exp"),
    ("roughpath._gauss_legendre_step_area.calls", "count"),
    ("roughpath._gauss_legendre_step_area.self_s", "s"),
    ("controls.Control.omega.calls", "count"),
    ("controls.Control.omega.self_s", "s"),
    ("controlled.verify_crp.self_s", "s"),
    ("controlled._pair_constants.self_s", "s"),
    ("controlled.associated_roughpath.self_s", "s"),
    ("mcrp.verify_gauge_crp.self_s", "s"),
    ("mcrp.verify_gauge_crp.n_exp", "fit_exp"),
    ("mcrp._gauge_constants.self_s", "s"),
    ("mcrp.domain_feasible_delta.self_s", "s"),
    ("mcrp.crp_from_projection.self_s", "s"),
    ("mcrp.pairs_probed", "count"),
    ("mcrp.pair_bytes_computed", "B_computed"),
    ("manifolds.Sphere.log_batch.self_s", "s"),
    ("manifolds.SO3.log_batch.self_s", "s"),
    ("manifolds.Sphere.transport.calls", "count"),
    ("manifolds.Sphere.transport.self_s", "s"),
    ("manifolds.Chart.margin.calls", "count"),
    ("manifolds.Chart.margin.self_s", "s"),
    ("gauges.CompatibilityTensor.at.calls", "count"),
    ("gauges.CompatibilityTensor.at.self_s", "s"),
    ("gauges.CompatibilityTensor.at.cache_hits", "count"),
    ("gauges.CompatibilityTensor.at.hit_ratio", "ratio"),
    ("gauges.Gauge.compatibility.calls", "count"),
    ("gauges.Gauge.compatibility.self_s", "s"),
    ("linalg.richardson_diff.calls", "count"),
    ("linalg.richardson_diff.self_s", "s"),
    ("oneforms.oneform_from_smooth.self_s", "s"),
    ("oneforms.gauge_integrate.self_s", "s"),
    ("oneforms.gauge_integrate.n_exp", "fit_exp"),
    ("oneforms.gauge_change.self_s", "s"),
    ("oneforms.fundamental_theorem.self_s", "s"),
    ("sewing.rough_integrate.self_s", "s"),
    ("mrde.rde_solve_manifold.calls", "count"),
    ("mrde.rde_solve_manifold.self_s", "s"),
    ("mrde._chart_step.calls", "count"),
    ("mrde._chart_step.self_s", "s"),
    ("mrde.steps", "count"),
    ("mrde.chart_switches", "count"),
    ("transport.parallel_translate_frame.self_s", "s"),
    ("transport.parallel_translate_frame.n_exp", "fit_exp"),
    ("transport.unroll.self_s", "s"),
    ("transport.roll.self_s", "s"),
    ("transport.group_rde.self_s", "s"),
    ("transport.chart_christoffels.calls", "count"),
    ("transport.chart_christoffels.self_s", "s"),
    ("transport.segments", "count"),
    ("flatrde.rde_solve_flat.self_s", "s"),
    ("serialize.canonical_json.self_s", "s"),
    ("bench.unattributed.self_s", "s"),
    ("bench.pass_s", "s"),
    ("bench.error_rate", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


class Sites:
    """Every place a target is bound: (owner, attribute, metric name, original)."""

    def __init__(self):
        self.sites = []
        crp_modules = [m for n, m in sorted(sys.modules.items()) if n == "crp" or n.startswith("crp.")]
        for module, qual in TARGETS:
            mod = importlib.import_module(f"crp.{module}")
            name = f"{module}.{qual}"
            if "." in qual:
                cls, meth = qual.split(".")
                owner = getattr(mod, cls)
                self.sites.append((owner, meth, name, owner.__dict__[meth]))
                continue
            original = getattr(mod, qual)
            for m in crp_modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self.sites.append((m, attr, name, original))

    def unchanged(self):
        """True when every site still holds its original (no wrapper installed)."""
        return all(
            vars(owner).get(attr) is original and not hasattr(original, "_perfbench_span")
            for owner, attr, _, original in self.sites
        )


class Tracer:
    """Span and counter store; counts repeat exactly for equal inputs."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.peaks = Counter()
        self.sizes = defaultdict(list)  # name -> [(family, N, seconds)]
        self.stack = [[0.0]]
        self.unattributed = 0.0
        self._patched = []

    # -- hooks --------------------------------------------------------------------

    def _pre_compat_at(self, args):
        tensor, m = args[0], args[1]
        cache = getattr(tensor, "_cache", None)
        if not tensor.exact_zero and cache is not None and np.asarray(m, dtype=float).tobytes() in cache:
            self.counts["gauges.CompatibilityTensor.at.cache_hits"] += 1

    def _post_gauge_constants(self, args, out):
        pairs = int(out[3])
        d = args[0].manifold.flat_dim
        self.counts["mcrp.pairs_probed"] += pairs
        # largest (pairs, D, D) float64 array the call builds, from its shape
        self.peaks["mcrp.pair_bytes_computed"] = max(self.peaks["mcrp.pair_bytes_computed"], pairs * d * d * 8)

    def _post_rde(self, args, out):
        self.counts["mrde.steps"] += out.times.size - 1
        self.counts["mrde.chart_switches"] += len(getattr(out, "meta", {}).get("chart_switches", []))

    def _post_frames(self, args, out):
        self.counts["transport.segments"] += len(out.segments)

    def _post_roll(self, args, out):
        self.counts["transport.segments"] += len(out[1].segments)

    HOOKS = {
        "gauges.CompatibilityTensor.at": (_pre_compat_at, None),
        "mcrp._gauge_constants": (None, _post_gauge_constants),
        "mrde.rde_solve_manifold": (None, _post_rde),
        "transport.parallel_translate_frame": (None, _post_frames),
        "transport.roll": (None, _post_roll),
    }

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn, name):
        rec = self.stats[name]
        pre, post = self.HOOKS.get(name, (None, None))
        size = SIZED.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if post is not None:
                post(self, args, out)
            if size is not None:
                self.sizes[name].append((*size(args), dt))
            return out

        wrapper._perfbench_span = name
        return wrapper

    def install(self, sites: Sites):
        wrappers = {}
        for owner, attr, name, original in sites.sites:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name)
            setattr(owner, attr, wrappers[id(original)])
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def run_op(self, fn, *args):
        """Run one op as the root span; time outside every wrapped call is unattributed."""
        root = self.stack[0]
        root[0] = 0.0
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.unattributed += (perf_counter() - t0) - root[0]

    # -- reports --------------------------------------------------------------------

    def snapshot_counts(self):
        """Deterministic counters so far: calls, hooks' counts and computed peaks."""
        out = {f"{name}.calls": rec[0] for name, rec in self.stats.items()}
        out.update(self.counts)
        out.update(self.peaks)
        return out

    def fit_exponent(self, name):
        """Log-log slope of wall time against N for the family with the most sizes (0 if < 2)."""
        fams = defaultdict(lambda: defaultdict(list))
        for fam, n, dt in self.sizes.get(name, []):
            fams[fam][n].append(dt)
        if not fams:
            return 0.0
        best = max(sorted(fams), key=lambda f: (len(fams[f]), sum(map(len, fams[f].values()))))
        ns = sorted(fams[best])
        if len(ns) < 2:
            return 0.0
        med = [statistics.median(fams[best][n]) for n in ns]
        return float(np.polyfit(np.log(ns), np.log(med), 1)[0])

    def per_layer(self, counts, passes, pass_s, error_rate, overhead_ratio):
        """Every PER_LAYER metric: counts from one pass, times per traced pass."""
        calls = counts.get("gauges.CompatibilityTensor.at.calls", 0)
        hits = counts.get("gauges.CompatibilityTensor.at.cache_hits", 0)
        values = {
            "gauges.CompatibilityTensor.at.hit_ratio": hits / calls if calls else 0.0,
            "bench.unattributed.self_s": self.unattributed / passes,
            "bench.pass_s": pass_s,
            "bench.error_rate": error_rate,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".self_s"):
                value = self.stats[name[: -len(".self_s")]][2] / passes
            elif name.endswith(".n_exp"):
                value = self.fit_exponent(name[: -len(".n_exp")])
            else:
                value = counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out
