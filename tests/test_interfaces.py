"""External-interface coverage: JSON schemas, CSV, error taxonomy, extras."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from crp import (
    AtlasGap,
    ChartManifold,
    ChartSingular,
    ControlledPath,
    DomainError,
    Explosion,
    LogFailure,
    RoughPath,
)
from crp.controlled import driver_as_controlled
from crp.fixtures import (
    SPHERE,
    equator_crp,
    smooth_2d_driver,
    sphere_spiral_crp,
)
from crp.gauges import chart_gauge, connection_gauge
from crp.mrde import ManifoldDrivingField, rde_solve_manifold
from crp.oneforms import integrate_smooth_oneform
from crp.serialize import canonical_json, path_csv_header, path_csv_rows, render_csv
from paper_reference import chart_formula_integral


def test_roughpath_json_roundtrip():
    rp = smooth_2d_driver(16)
    doc = rp.to_json()
    assert set(doc) == {"times", "values", "areas", "control"}
    back = RoughPath.from_json(json.loads(json.dumps(doc)))
    assert np.allclose(back.values, rp.values)
    assert np.allclose(back.step_areas, rp.step_areas)
    assert back.control.p == rp.control.p


def test_controlled_path_json_roundtrip():
    rp = smooth_2d_driver(8)
    y = driver_as_controlled(rp)
    doc = y.to_json(rp.control)
    assert set(doc) == {"times", "values", "gubinelli", "control"}
    back = ControlledPath.from_json(doc)
    assert np.allclose(back.derivative, y.derivative)


def test_manifold_spec_json():
    m = ChartManifold(4)
    assert m.dim == 4
    doc = m.spec_json()
    assert doc["type"] == "chart" and doc["connection"]["kind"] == "levi-civita"


def test_gauge_spec_json():
    g = connection_gauge(SPHERE)
    assert g.spec_json() == {"provenance": "connection", "connection": "sphere"}
    cg = chart_gauge(SPHERE, SPHERE.charts()[0])
    doc = cg.spec_json()
    assert doc["provenance"] == "chart" and doc["chart"] == "stereo-north"


def test_verification_report_schema():
    from crp.mcrp import verify_gauge_crp

    y = equator_crp(64)
    rep = verify_gauge_crp(y, connection_gauge(SPHERE))
    assert {"C2", "C1", "delta", "pairs_probed", "pass"} <= set(rep)
    json.dumps({k: rep[k] for k in ("C2", "C1", "delta", "pairs_probed", "pass")})


CERTIFICATE_KEYS = {
    "C_remainder",
    "C_derivative",
    "C2",
    "C1",
    "levels",
    "slope_remainder",
    "slope_derivative",
    "worst_pair",
    "pairs_probed",
    "pass_remainder",
    "pass_derivative",
    "pass",
    "delta",
}


def test_every_verifier_returns_the_one_certificate():
    from crp.controlled import verify_crp
    from crp.mcrp import verify_chart_crp, verify_gauge_crp
    from crp.oneforms import oneform_from_smooth

    y = sphere_spiral_crp(32)
    gauge = connection_gauge(SPHERE)
    form = oneform_from_smooth(lambda m: np.sin(m)[None, :], y, gauge.par)
    reports = {
        "flat": verify_crp(y.as_flat(), y.driver),
        "gauge": verify_gauge_crp(y, gauge),
        "chart": verify_chart_crp(y, SPHERE.chart_at(y.points[0])),
        "oneform": form.verify(),
    }
    assert reports.pop("chart").keys() - {"chart"} == CERTIFICATE_KEYS
    for name, rep in reports.items():
        assert set(rep) == CERTIFICATE_KEYS, name
        assert set(rep["levels"]) == {"h", "C_remainder", "C_derivative"}, name
        assert (rep["C2"], rep["C1"]) == (rep["C_remainder"], rep["C_derivative"]), name


def test_csv_path_export_schema():
    rp = smooth_2d_driver(4)
    header = path_csv_header(rp.values)
    rows = path_csv_rows(rp.times, rp.values)
    assert header == ["t", "value_0", "value_1"]
    text = render_csv(header, rows)
    assert text.startswith("t,value_0,value_1\n")
    assert len(text.splitlines()) == 6


def test_canonical_json_is_stable():
    doc = {"b": 1.0 / 3.0, "a": [1, 2]}
    assert canonical_json(doc) == canonical_json(json.loads(json.dumps(doc)))


def test_chart_formula_integral_matches_gauge_route():
    # single-chart path: the chart evaluation agrees with the gauge integral
    def form(m):
        return np.array([[-m[1], m[0], 0.2 * m[2]]])

    errs, hs = [], []
    for n in (128, 256, 512):
        y = sphere_spiral_crp(n, T=np.pi / 2)
        z1 = integrate_smooth_oneform(form, y, connection_gauge(SPHERE))
        z2 = chart_formula_integral(form, y, SPHERE.charts()[0])
        errs.append(float(np.max(np.abs(z1.values - z2.values))))
        hs.append(float(np.max(np.diff(y.times))))
    assert errs[-1] < 1e-5
    assert errs[-1] < errs[0]


def test_chart_gauge_rejects_singular_points():
    cg = chart_gauge(SPHERE, SPHERE.charts()[0])
    north = np.array([0.0, 0.0, 1.0])
    inside = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ChartSingular):
        cg.psi(inside, north)


def test_gauge_integrate_domain_error_on_giant_steps():
    from crp.oneforms import gauge_integrate, oneform_from_smooth

    y = equator_crp(2)  # two steps of length ~ pi exceed the gauge ball
    g = connection_gauge(SPHERE)
    a = oneform_from_smooth(lambda m: np.zeros((1, 3)), y, g.par)
    with pytest.raises(DomainError):
        gauge_integrate(a, y, g)


def test_atlas_gap_for_uncovered_start():
    from crp.fixtures import latitude_crp, tangent_frame
    from crp.transport import parallel_translate_frame, roll

    mani = ChartManifold(2, radius=1.0)
    field = ManifoldDrivingField(mani, lambda x: np.eye(2))
    rp = smooth_2d_driver(16)
    with pytest.raises(AtlasGap):
        rde_solve_manifold(field, rp, np.array([5.0, 5.0]))
    # an atlas gap is a domain error to every chart-patched solver
    with pytest.raises(DomainError):
        mani.chart_at(np.array([5.0, 5.0]))
    y = latitude_crp(16, theta=0.2)  # inside the polar cap the north chart misses
    north = SPHERE.charts()[0]
    with pytest.raises(DomainError):
        parallel_translate_frame(y, tangent_frame(y.points[0]), atlas=[north])
    z = ControlledPath(rp.times, np.zeros((17, 2)), np.zeros((17, 2, 2)))
    with pytest.raises(DomainError):
        roll(z, rp, SPHERE, y.points[0], tangent_frame(y.points[0]), atlas=[north])


def test_newton_log_failure_outside_reach():
    bumpy = ChartManifold(1, radius=3.0, gamma=lambda x: np.full((1, 1, 1), 4.0), h_geo=0.05)
    with pytest.raises((LogFailure, Explosion, Exception)):
        bumpy.log(np.array([0.0]), np.array([2.9]))


def test_group_rde_gl_explosion():
    from crp.roughpath import time_lift
    from crp.transport import MatrixGroup, group_rde

    grid = np.linspace(0.0, 1.0, 257)
    rp = time_lift(grid)
    vals = (-30.0 * grid)[:, None]
    dag = np.full((257, 1, 1), -30.0)
    z = ControlledPath(grid, vals, dag)
    with pytest.raises(Explosion):
        group_rde(z, rp, np.array([[1.0]]), MatrixGroup("gl", 1))


def test_run_suite_parallel_jobs_consistent():
    from crp.suite import run_suite

    names = ["criterion-03-example-6.7", "criterion-11-determinism"]
    a = run_suite(names=names, deterministic=True, jobs=1)
    b = run_suite(names=names, deterministic=True, jobs=2)
    assert canonical_json(a) == canonical_json(b)


def _pid_criterion():
    return [{"name": "pid", "value": os.getpid(), "pass": True}]


def test_run_suite_jobs_run_criteria_in_worker_processes(monkeypatch):
    # the criteria hold the GIL, so threads gained nothing: with jobs > 1 each runs in a worker process
    import crp.suite
    from crp.suite import run_suite

    fakes = {f"fake-{i}": _pid_criterion for i in range(3)}
    monkeypatch.setattr(crp.suite, "CRITERIA", {**crp.suite.CRITERIA, **fakes})
    serial = run_suite(names=fakes, jobs=1)
    assert {r["checks"][0]["value"] for r in serial["criteria"]} == {os.getpid()}
    pids = {r["checks"][0]["value"] for r in run_suite(names=fakes, jobs=2)["criteria"]}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
