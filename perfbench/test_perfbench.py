"""Self-tests of the benchmark: python3 -m pytest -q perfbench/test_perfbench.py

They check the oracles can fail, that seeds determine inputs and per-layer
counts, that the untraced run leaves crp unwrapped, and the output contract.
The oracle and count tests drive ``worker.Loop`` in-process; only the
output-contract tests run the benchmark command.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def bench(workload, seed, trace):
    """One run of the benchmark command with --seconds 1 (it still runs its 100 ops): (detail line, result line)."""
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def one_pass(workload, seed, perturb=False, tr=None, sites=None):
    """A fresh set-up and loop that runs pass 0, then pass 0 again traced when ``tr`` is given."""
    loop = worker.Loop(workloads.Workload(workload, seed), worker.SpeedProbe(), perturb=perturb)
    loop.run_pass(0)
    if tr is not None:
        loop.traced_pass(0, tr, sites)
    return loop


def test_benchmark_json_matches_the_code():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(workloads.SCHEDULES)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracer.PER_LAYER
    assert max(BENCH["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_result_line_has_exactly_the_contract_keys(workload, trace):
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    detail, res = bench(workload, 3, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= worker.MIN_OPS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    assert detail["wrappers_absent"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_perturbed_oracle_fails_every_op(workload):
    loop = one_pass(workload, 3, perturb=True)
    assert len(loop.failures) / loop.attempted > 0
    assert len(loop.failures) == loop.attempted == len(workloads.SCHEDULES[workload])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_inputs_and_per_layer_counts(workload):
    first = workloads.pass_inputs(workload, 7, 0)
    assert json.dumps(first) == json.dumps(workloads.pass_inputs(workload, 7, 0))
    assert workloads.inputs_digest(first) != workloads.inputs_digest(workloads.pass_inputs(workload, 8, 0))
    sites = tracer.Sites()
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        one_pass(workload, 7, tr=tr, sites=sites)
        counts.append(tr.snapshot_counts())
    assert counts[0] == counts[1]
    assert sites.unchanged()


def test_integrate_paths_repeat_for_a_seed():
    one = workloads.Workload("integrate", 5).paths
    two = workloads.Workload("integrate", 5).paths
    other = workloads.Workload("integrate", 6).paths
    assert all((p.points.tobytes(), p.driver.step_areas.tobytes()) == (q.points.tobytes(), q.driver.step_areas.tobytes()) for p, q in zip(one, two))
    assert one[0].points.tobytes() != other[0].points.tobytes()


def test_tracer_installs_and_restores_every_site():
    import crp.mcrp
    import crp.roughpath

    sites = tracer.Sites()
    assert sites.unchanged()
    tr = tracer.Tracer()
    tr.install(sites)
    try:
        assert not sites.unchanged()
        assert hasattr(crp.roughpath.lift_smooth, "_perfbench_span")
        assert hasattr(crp.mcrp.verify_gauge_crp, "_perfbench_span")
    finally:
        tr.uninstall()
    assert sites.unchanged()


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [*BENCH["command"], "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
