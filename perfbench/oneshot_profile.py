"""One-shot profile, not gated: python3 perfbench/oneshot_profile.py [--out perfbench/results/profile.json]

Times each acceptance criterion through ``suite.run_criterion``, each CLI
command on its default fixture, and the spot numbers ROADMAP quotes for the
seed, each in a fresh process (single-threaded BLAS, as in run.py).  Spot
cases also run in the variant that reproduces ROADMAP's figure where the
plain run does not: under cProfile, or with the verifier at the
domain-feasible delta (every pair) instead of the CLI's default delta.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# ROADMAP's seed figures (seconds or MB) that the spot cases re-measure
ROADMAP = {
    "equator_crp(8192)": 17.3,
    "equator_crp(8192)._calibrate_control": 12.9,
    "equator_crp(8192)._gauss_legendre_step_area": 3.0,
    "unroll(equator_crp(2048))": 10.6,
    "unroll(equator_crp(2048)) under cProfile": 10.6,
    "so3-curve verify_gauge_crp N=128": 0.36,
    "so3-curve verify_gauge_crp N=256": 1.77,
    "so3-curve verify_gauge_crp N=256 under cProfile": 1.77,
    "sphere-spiral verifier peak RSS N=512": 154.0,
    "sphere-spiral verifier peak RSS N=1024": 290.0,
    "sphere-spiral verifier peak RSS N=512, every pair": 154.0,
    "sphere-spiral verifier peak RSS N=1024, every pair": 290.0,
}
SPOTS = ("equator", "unroll", "unroll-cprofile", "so3-128", "so3-256", "so3-256-cprofile",
         "spiral-512", "spiral-1024", "spiral-full-512", "spiral-full-1024")
CLI_COMMANDS = ("lift", "integrate", "rde", "transport", "verify", "convergence")


def timed(fn, cprofile):
    """Wall seconds of fn(), optionally under cProfile."""
    import cProfile

    prof = cProfile.Profile() if cprofile else None
    t0 = time.perf_counter()
    if prof:
        prof.enable()
    fn()
    if prof:
        prof.disable()
    return time.perf_counter() - t0


def case(name):
    """Body of one fresh-process case; returns its measurements."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import crp.fixtures as fx
    import crp.gauges as gauges
    import crp.mcrp as mcrp
    import crp.suite as suite
    import crp.transport as transport
    import tracer

    if name.startswith("criterion-"):
        rep = suite.run_criterion(name)
        return {name: rep["runtime"], "pass": rep["pass"]}
    if name == "equator":
        tr = tracer.Tracer()
        tr.install(tracer.Sites())
        t0 = time.perf_counter()
        try:
            fx.equator_crp(8192)
        finally:
            tr.uninstall()
        return {
            "equator_crp(8192)": time.perf_counter() - t0,
            "equator_crp(8192)._calibrate_control": tr.stats["roughpath._calibrate_control"][1],
            "equator_crp(8192)._gauss_legendre_step_area": tr.stats["roughpath._gauss_legendre_step_area"][1],
        }
    cprofile = name.endswith("-cprofile")
    suffix = " under cProfile" if cprofile else ""
    if name.startswith("unroll"):
        import workloads

        y = fx.equator_crp(2048)
        u0 = workloads.tangent_frame(y.points[0])
        return {"unroll(equator_crp(2048))" + suffix: timed(lambda: transport.unroll(y, u0), cprofile)}
    if name.startswith("so3-"):
        n = int(name.split("-")[1])
        y = fx.so3_curve_crp(n)
        gauge = gauges.connection_gauge(y.manifold)
        return {f"so3-curve verify_gauge_crp N={n}" + suffix: timed(lambda: mcrp.verify_gauge_crp(y, gauge), cprofile)}
    if name.startswith("spiral-"):
        n = int(name.split("-")[-1])
        y = fx.sphere_spiral_crp(n)
        gauge = gauges.connection_gauge(y.manifold)
        if "full" in name:
            # the equivalence suite's delta: every pair inside the gauge domain
            mcrp.verify_gauge_crp(y, gauge, delta=mcrp.domain_feasible_delta(y, gauge))
            key = f"sphere-spiral verifier peak RSS N={n}, every pair"
        else:
            # what `crp verify --fixture sphere-spiral` runs at this n
            mcrp.verify_gauge_crp(y, gauge)
            mcrp.verify_chart_crp(y, y.manifold.chart_at(y.points[0]))
            key = f"sphere-spiral verifier peak RSS N={n}"
        return {key: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raise KeyError(name)


def run_fresh(cmd, env):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    return proc, time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--case")
    ap.add_argument("--out", default=os.path.join(HERE, "results", "profile.json"))
    args = ap.parse_args(argv)
    if args.case:
        print(json.dumps(case(args.case)))
        return 0

    sys.path.insert(0, HERE)
    from run import worker_env
    from worker import SpeedProbe, environment

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from crp.suite import CRITERIA

    env = worker_env()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    probe = SpeedProbe()

    def speed():
        """Host speed factor just before a case (see worker.SpeedProbe); times here are raw."""
        return probe.factor([probe.sample() for _ in range(9)])

    doc = {"env": environment(), "criteria": {}, "cli": {}, "spots": {}}
    for name in CRITERIA:
        factor = speed()
        proc, _ = run_fresh([sys.executable, __file__, "--case", name], env)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["criteria"][name] = {"runtime_s": res[name], "pass": res["pass"], "host_speed_factor": factor}
        print(name, doc["criteria"][name], flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as odir:
        for cmd in CLI_COMMANDS:
            call = "import sys; from crp.cli import main; sys.argv = ['crp'] + sys.argv[1:]; main()"
            factor = speed()
            proc, wall = run_fresh([sys.executable, "-c", call, cmd, "--out", odir], env)
            doc["cli"][cmd] = {"wall_s": wall, "exit": proc.returncode, "host_speed_factor": factor}
            print("crp", cmd, doc["cli"][cmd], flush=True)
    for name in SPOTS:
        factor = speed()
        proc, _ = run_fresh([sys.executable, __file__, "--case", name], env)
        for key, value in json.loads(proc.stdout.strip().splitlines()[-1]).items():
            doc["spots"][key] = {"measured": value, "roadmap": ROADMAP[key], "ratio": value / ROADMAP[key], "host_speed_factor": factor}
            print(key, doc["spots"][key], flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
