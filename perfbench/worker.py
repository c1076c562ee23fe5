"""One benchmark process: import crp, set up a workload, run its op schedule.

Started by ``run.py``; prints one JSON line.  With ``--mode setup`` it stops
after set-up, so ``run.py`` can time set-up in fresh processes.  The loop is
closed with a single caller: the next op starts when the previous returns.
Each run covers the schedule a whole number of times (passes), so every run
has the same mix of op kinds and sizes; pass p's inputs come from
(seed, p, slot) alone.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

MIN_OPS = 100  # p90 with ten samples beyond it


def git_sha():
    """Commit of the checkout from .git files, or 'unavailable' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest():
    """sha256 over src/crp's sources, which identifies the measured code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "crp", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded (-1 if not found)."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return -1


def environment():
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def quantile(values, q):
    """Sample quantile by the inclusive method of statistics.quantiles."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


class SpeedProbe:
    """Host speed factor from a fixed numpy kernel that does not touch crp.

    The shared host's speed swings by up to 1.5x over minutes; this kernel's
    wall time tracks those swings (segment-level ratio within a few percent
    of the workloads' ops on the reference box).  Dividing op times by
    factor = kernel time / CAL_REF_S cancels the swings; on a quiet host the
    factor is about 1.  One sample is noisy, so an op's factor is the median
    of the WINDOW samples centred on it.  Each sample first streams a buffer
    larger than L2, so the kernel starts from the same cache state whatever
    ran before it (an op's own memory footprint does not move the factor).
    """

    CAL_REF_S = 0.0094  # the kernel's median wall time on the reference box
    # speed changes within seconds: in six-run trials on certify and transport, a window
    # of 5 gave lower run-to-run spreads than 21 for five of the six end-to-end times
    WINDOW = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((20000, 3, 3))
        self.evict = rng.standard_normal(1 << 20)  # 8 MiB

    def sample(self):
        float(self.evict.sum())
        t0 = time.perf_counter()
        y = np.einsum("pij,pjk->pik", self.x, self.x)
        float(np.max(np.linalg.norm(y.reshape(len(y), -1), axis=-1)))
        return time.perf_counter() - t0

    def factor(self, samples):
        return statistics.median(samples) / self.CAL_REF_S

    def factors(self, samples):
        """Per-sample factors from the centred window (clipped at both ends)."""
        h = self.WINDOW // 2
        return [self.factor(samples[max(0, i - h) : i + h + 1]) for i in range(len(samples))]


class Loop:
    """Runs schedule passes and tallies ops, failures, per-op wall times and speed samples.

    ``perturb`` shifts every oracle so each check fails (for the self-tests).
    """

    def __init__(self, wl, probe, perturb=False):
        self.wl = wl
        self.probe = probe
        self.perturb = perturb
        self.attempted = 0
        self.failures = []
        self.op_times = []
        self.speed_samples = []  # one kernel time taken just before each op

    def run_pass(self, p, wrap=None):
        """Run pass p, timing each op (the speed sample before it is not timed)."""
        for i, (slot, par) in enumerate(zip(self.wl.schedule, self.wl.inputs(p))):
            self.speed_samples.append(self.probe.sample())
            t0 = time.perf_counter()
            bad = wrap(self.attempt, slot, par) if wrap else self.attempt(slot, par)
            self.op_times.append(time.perf_counter() - t0)
            self.attempted += 1
            if bad:
                self.failures.append({"pass": p, "slot": i, "kind": slot.kind, "size": slot.size, "params": par, "failed": bad})

    def attempt(self, slot, par):
        """Failing checks of one op; a raised error is a failed op, recorded with its traceback."""
        try:
            _, bad = self.wl.run_op(slot, par, self.perturb)
        except Exception as exc:  # the loop must go on: record the op as failed
            bad = [{"check": "raised", "error": repr(exc), "traceback": traceback.format_exc()}]
        return bad

    def traced_pass(self, p, tr, sites):
        """Run pass p with tr's wrappers installed at every site, and take them out again."""
        tr.install(sites)
        try:
            self.run_pass(p, wrap=tr.run_op)
        finally:
            tr.uninstall()

    def done(self, t_start, seconds):
        """Stop at a pass boundary once the time is up and p90 has ten samples beyond it."""
        return time.perf_counter() - t_start >= seconds and len(self.op_times) >= MIN_OPS


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    # set-up: importing crp (through workloads) and building the workload's fixed inputs
    import tracer
    import workloads

    sites = tracer.Sites()
    wl = workloads.Workload(args.workload, args.seed)
    ready_epoch = time.time()
    probe = SpeedProbe()
    result = {"ready_epoch": ready_epoch, "setup_speed": probe.factor([probe.sample() for _ in range(15)])}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    loop = Loop(wl, probe)
    result["env"] = environment()
    t_start, cpu_start = time.perf_counter(), time.process_time()
    p = 0
    if args.trace == 0:
        while True:
            loop.run_pass(p)
            p += 1
            if loop.done(t_start, args.seconds):
                break
        result["wrappers_absent"] = sites.unchanged()
        raw = loop.op_times
        norm = [t / f for t, f in zip(raw, probe.factors(loop.speed_samples))]
        result["raw"] = {"ops_per_s": len(raw) / sum(raw), "op_p50_s": statistics.median(raw), "op_p90_s": quantile(raw, 0.90)}
        result["metrics"] = {"ops_per_s": len(norm) / sum(norm), "op_p50_s": statistics.median(norm), "op_p90_s": quantile(norm, 0.90)}
    else:
        # each pass runs untraced and traced, order alternating, for the overhead ratio
        # (the first pass also warms up, so the overhead ratio leaves it out when there are more)
        tr = tracer.Tracer()
        spans = {False: [], True: []}  # per pass run: (first op index, end op index)
        counts = None
        while True:
            for traced in ((False, True) if p % 2 == 0 else (True, False)):
                first = len(loop.op_times)
                if traced:
                    loop.traced_pass(p, tr, sites)
                    if counts is None:
                        counts = tr.snapshot_counts()
                else:
                    loop.run_pass(p)
                spans[traced].append((first, len(loop.op_times)))
            p += 1
            if loop.done(t_start, args.seconds):
                break
        norm = [t / f for t, f in zip(loop.op_times, probe.factors(loop.speed_samples))]
        skip = 1 if p > 1 else 0
        untraced_s, traced_s = (sum(sum(norm[a:b]) for a, b in spans[k][skip:]) for k in (False, True))
        result["wrappers_absent"] = sites.unchanged()
        result["metrics"] = tr.per_layer(
            counts,
            len(spans[True]),
            pass_s=statistics.mean(sum(loop.op_times[a:b]) for a, b in spans[True]),
            error_rate=len(loop.failures) / loop.attempted,
            overhead_ratio=untraced_s / traced_s,
        )
        result["n_exp_samples"] = {k: len(v) for k, v in tr.sizes.items()}
    result.update(
        loop_wall_s=time.perf_counter() - t_start,
        loop_cpu_s=time.process_time() - cpu_start,
        speed=probe.factor(loop.speed_samples),
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=loop.failures[:20],
        passes=p,
        ops_per_pass=len(wl.schedule),
        op_samples=len(loop.op_times),
        inputs_sha256=workloads.inputs_digest([wl.inputs(q) for q in range(p)]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
