from __future__ import annotations

import json
import os

import pytest
from click.testing import CliRunner

from crp.cli import main
from crp.fixtures import FIXTURES


@pytest.fixture()
def runner():
    return CliRunner()


def test_verify_example_67(runner, tmp_path):
    res = runner.invoke(main, ["verify", "--fixture", "example-6.7", "--p", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "verify-example-6.7.json").read_text())
    assert doc["gauge"]["pass_remainder"] is True
    assert doc["chart"]["pass_remainder"] is False
    assert abs(doc["chart"]["ratio_at_eps"] - 10.0) < 1e-9


def test_convergence_sphere_rde(runner, tmp_path):
    res = runner.invoke(
        main, ["convergence", "--fixture", "sphere-projection-rde", "--levels", "4", "--out", str(tmp_path)]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "convergence-sphere-projection-rde.json").read_text())
    assert doc["pass"] and abs(doc["slope"] - 2.0) < 0.5
    csv_text = (tmp_path / "convergence-sphere-projection-rde.csv").read_text()
    assert csv_text.splitlines()[0] == "level,N,h,error,slope_partial"


def test_empty_fixture_list_exits_zero(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixtures": []}))
    res = runner.invoke(main, ["suite", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "suite-report.json").read_text())
    assert doc["criteria"] == [] and doc["pass"] is True


def test_config_parse_error_exits_two(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    res = runner.invoke(main, ["suite", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_unknown_criterion_exits_two(runner, tmp_path):
    res = runner.invoke(main, ["suite", "--criteria", "criterion-99-nope", "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_deterministic_suite_is_byte_identical(runner, tmp_path):
    outs = []
    for sub in ("a", "b"):
        odir = tmp_path / sub
        res = runner.invoke(
            main,
            [
                "suite",
                "--criteria",
                "criterion-03-example-6.7",
                "--criteria",
                "criterion-11-determinism",
                "--deterministic",
                "--out",
                str(odir),
            ],
        )
        assert res.exit_code == 0, res.output
        outs.append(
            (odir / "suite-report.json").read_bytes() + (odir / "suite-checks.csv").read_bytes()
        )
    assert outs[0] == outs[1]


def test_suite_checks_csv_names_its_columns(runner, tmp_path):
    args = ["suite", "--criteria", "criterion-03-example-6.7", "--deterministic", "--out", str(tmp_path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "suite-checks.csv").read_text().splitlines()
    assert lines[0] == "check,value,tolerance,mode,pass"
    check, value, tolerance, mode, passed = lines[1].split(",")
    assert check == "criterion-03-example-6.7:chart-ratio-minus-10"
    assert float(value) <= float(tolerance) == 1e-9 and (mode, passed) == ("le", "True")


def test_out_env_override(runner, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("CRP_OUT", str(target))
    res = runner.invoke(main, ["lift", "--fixture", "pure-area", "--n", "16"])
    assert res.exit_code == 0, res.output
    assert (target / "lift-pure-area.json").exists()


def test_rde_and_transport_commands(runner, tmp_path):
    res = runner.invoke(main, ["rde", "--fixture", "so3-constant-rde", "--n", "64", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "rde-so3-constant-rde.json").exists()
    res2 = runner.invoke(main, ["transport", "--fixture", "latitude", "--n", "128", "--out", str(tmp_path)])
    assert res2.exit_code == 0, res2.output
    doc = json.loads((tmp_path / "transport-latitude.json").read_text())
    assert "holonomy_angle" in doc


def test_integrate_command(runner, tmp_path):
    res = runner.invoke(main, ["integrate", "--fixture", "equator", "--n", "128", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "integral-equator.json").read_text())
    assert set(doc) >= {"times", "values", "gubinelli"}


def test_rde_full_config_schema(runner, tmp_path):
    import json as _json

    cfg = tmp_path / "rde.json"
    cfg.write_text(
        _json.dumps(
            {
                "fixture": "config-sphere",
                "manifold": {"type": "sphere"},
                "field": {"kind": "projection", "params": {"speed": 0.5}},
                "driver": {"n": 64},
                "y0": [0.0, 1.0, 0.0],
            }
        )
    )
    res = runner.invoke(main, ["rde", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "rde-config-sphere.json").read_text())
    assert doc["metadata"] == {"chart_switches": []}
    assert len(doc["times"]) == 65


def test_rde_left_and_right_invariant_fields_differ(runner, tmp_path):
    docs = {}
    for kind in ("left-invariant", "right-invariant"):
        cfg = tmp_path / f"{kind}.json"
        field = {"kind": kind, "params": {"direction": [0.0, 0.0, 1.0]}}
        y0 = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]  # does not commute with the rotation
        cfg.write_text(json.dumps({"field": field, "n": 8, "y0": y0}))
        res = runner.invoke(main, ["rde", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["fixture"] == kind
        docs[kind] = (tmp_path / f"rde-{kind}.json").read_bytes()
    assert docs["left-invariant"] != docs["right-invariant"]
    assert not (tmp_path / "rde-sphere-projection-rde.json").exists()


def test_rde_config_field_without_fixture_is_named_after_its_kind(runner, tmp_path):
    cfg = tmp_path / "rde.json"
    cfg.write_text(json.dumps({"field": {}, "n": 8}))
    res = runner.invoke(main, ["rde", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["fixture"] == "projection"
    assert (tmp_path / "rde-projection.json").exists()
    res = runner.invoke(main, ["rde", "--n", "8", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["fixture"] == "sphere-projection-rde"
    assert (tmp_path / "rde-sphere-projection-rde.json").exists()


SPHERE_PATHS = {"equator", "latitude", "sphere-spiral", "polar-cap"}


def _accepts(command, fixture):
    # with the config's n: a fixed-size fixture (example-6.7) takes none
    kind = FIXTURES.get(fixture, {}).get("kind")
    return {
        "lift": kind in ("driver", "mcrp"),
        "integrate": kind == "mcrp",
        "transport": fixture in SPHERE_PATHS,
        "verify": kind == "mcrp",
        "rde": False,
        "convergence": False,
    }[command]


@pytest.mark.parametrize("fixture", sorted(FIXTURES) + ["nope"])
@pytest.mark.parametrize("command", ["lift", "integrate", "rde", "transport", "verify", "convergence"])
def test_every_command_fixture_pair_exits_cleanly(runner, tmp_path, command, fixture):
    # a fixture a command cannot take is a config error (exit 2, one line), never a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 32}))
    args = [command, "--fixture", fixture, "--out", str(tmp_path), "--config", str(cfg)]
    if command == "convergence":
        args += ["--levels", "2"]
    res = runner.invoke(main, args)
    if _accepts(command, fixture):
        assert res.exit_code == 0, res.output
    else:
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ") and res.output.count("\n") == 1, res.output


def test_numerical_failure_exits_one(runner, tmp_path):
    cfg = tmp_path / "rde.json"
    cfg.write_text(json.dumps({"field": {"kind": "projection"}, "driver": {"n": 16}, "horizon": [0.01, 0.5]}))
    res = runner.invoke(main, ["rde", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert res.output.startswith("numerical failure: ") and "Traceback" not in res.output


def test_verify_uses_the_given_delta_on_every_fixture(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64}))
    deltas = {}
    for extra in ([], ["--delta", "0.1"]):
        args = ["verify", "--fixture", "equator", "--config", str(cfg), "--out", str(tmp_path)]
        res = runner.invoke(main, args + extra)
        assert res.exit_code == 0, res.output
        deltas[bool(extra)] = json.loads((tmp_path / "verify-equator.json").read_text())["gauge"]["delta"]
    assert deltas[True] == 0.1
    assert deltas[False] != 0.1  # no --delta: the verifier's own domain-feasible delta
    res = runner.invoke(main, ["verify", "--fixture", "example-6.7", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "verify-example-6.7.json").read_text())["gauge"]["delta"] == 0.5


MALFORMED_CONFIGS = [
    ("lift", [1, 2]),
    ("integrate", [1, 2]),
    ("rde", [1, 2]),
    ("transport", [1, 2]),
    ("verify", [1, 2]),
    ("convergence", [1, 2]),
    ("suite", [1, 2]),
    ("lift", {"n": "abc"}),
    ("integrate", {"n": "abc"}),
    ("rde", {"n": "abc"}),
    ("rde", {"field": {"kind": "projection"}, "n": "abc"}),
    ("transport", {"n": "abc"}),
    ("verify", {"fixture": "equator", "n": "abc"}),
    ("verify", {"p": "abc"}),
    ("convergence", {"levels": "abc"}),
    ("lift", {"n": None}),
    ("rde", {"driver": [1, 2]}),
    ("rde", {"field": "projection"}),
    ("rde", {"scheme": 3}),
    ("rde", {"field": {"kind": "projection", "params": [1.0]}}),
    ("rde", {"field": {}, "horizon": 3}),
    ("rde", {"field": {}, "horizon": [0, 0.5, 1]}),
    ("rde", {"field": {}, "horizon": ["a", 1]}),
    ("rde", {"field": {}, "y0": [1, 2]}),
    ("rde", {"field": {"kind": "right-invariant"}, "y0": [0, 1, 0]}),
    ("rde", {"field": {"kind": "right-invariant", "params": {"direction": "x"}}}),
    ("rde", {"field": {"kind": "right-invariant", "params": {"direction": [1, 0]}}}),
    ("rde", {"field": {"params": {"speed": "fast"}}}),
    ("rde", {"manifold": {"type": "so3"}}),
    ("rde", {"fixture": "so3-constant-rde", "manifold": {"type": "sphere"}}),
    ("rde", {"field": {"kind": "right-invariant"}, "manifold": {"type": "chart"}}),
    ("rde", {"field": {"kind": "nope"}}),
    ("lift", {"n": 0}),
    ("lift", {"n": -4}),
    ("integrate", {"n": 0}),
    ("rde", {"n": 0}),
    ("rde", {"driver": {"n": -1}}),
    ("transport", {"n": 0}),
    ("verify", {"fixture": "equator", "n": 0}),
    ("convergence", {"levels": 0}),
    ("convergence", {"levels": 3}),
    # a top-level key outside the command's known set, which would otherwise be ignored
    ("lift", {"n": 8, "levels": 3}),
    ("integrate", {"n": 16, "p": 2.0}),
    ("rde", {"n": 8, "scheme": {"retraction": True}}),
    ("transport", {"n": 16, "horizon": [0, 1]}),
    ("verify", {"delta": 0.1}),
    ("convergence", {"levels": 4, "n": 64}),
    ("suite", {"fixtures": [], "jobs": 2}),
    # a key of a nested rde section outside that section's known set, also ignored otherwise
    ("rde", {"driver": {"n": 8, "speed": 3}}),
    ("rde", {"field": {"kind": "projection", "params": {"spede": 2}}}),
    ("rde", {"field": {"kind": "right-invariant", "params": {"speed": 2}}}),
    ("rde", {"field": {"kind": "projection", "scheme": "exp"}}),
    ("rde", {"manifold": {"type": "sphere", "dim": 2}}),
    # a horizon of fewer than two nodes
    ("rde", {"field": {}, "horizon": [0.5, 0.0]}),
    ("rde", {"field": {}, "horizon": [0.5, 0.5]}),
    # options that would do nothing: fixtures the suite does not read, a p on a fixture without one
    ("suite", {"fixtures": ["equator"]}),
    ("verify", {"fixture": "equator", "p": 2.5}),
]


@pytest.mark.parametrize("command,doc", MALFORMED_CONFIGS)
def test_malformed_config_exits_two_with_one_line(runner, tmp_path, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: config") and res.output.count("\n") == 1, res.output


def test_unknown_config_key_is_named(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "scheme": {"retraction": True}}))
    res = runner.invoke(main, ["rde", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: config key 'scheme' is not one of "), res.output


def test_unknown_nested_config_key_names_its_section(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"driver": {"n": 8, "speed": 3}}))
    res = runner.invoke(main, ["rde", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output == "error: config 'driver' key 'speed' is not one of n\n", res.output


@pytest.mark.parametrize(
    "args,config",
    [(["verify"], {"n": 64}), (["integrate", "--fixture", "example-6.7", "--n", "64"], None),
     (["integrate", "--fixture", "example-6.7", "--n", "8"], None),
     (["integrate", "--fixture", "example-6.7"], {"n": 64})],
)
def test_n_on_the_fixed_size_fixture_exits_two(runner, tmp_path, args, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "cfg.json")]
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output == "error: fixture 'example-6.7' has a fixed grid and takes no 'n'\n", res.output
    res = runner.invoke(main, ["integrate", "--fixture", "example-6.7", "--out", str(tmp_path)])
    assert res.exit_code == 0 and json.loads(res.output)["endpoint"] == [1.0], res.output


def test_verify_p_on_a_fixture_without_one_exits_two(runner, tmp_path):
    res = runner.invoke(main, ["verify", "--fixture", "equator", "--p", "2.5", "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: config 'p'") and res.output.count("\n") == 1, res.output


@pytest.mark.parametrize(
    "args",
    [["lift", "--n", "-4"], ["lift", "--n", "0"], ["integrate", "--n", "0"], ["rde", "--n", "0"],
     ["transport", "--n", "0"], ["convergence", "--levels", "0"], ["convergence", "--levels", "2"]],
)
def test_impossible_size_option_exits_two_with_one_line(runner, tmp_path, args):
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: config") and res.output.count("\n") == 1, res.output


@pytest.mark.parametrize(
    "fixture,y0",
    [("sphere-projection-rde", [1.0, 0.0, 0.0]), ("so3-constant-rde", [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])],
)
def test_rde_named_fixture_honours_horizon_and_y0(runner, tmp_path, fixture, y0):
    cfg = tmp_path / "rde.json"
    cfg.write_text(json.dumps({"horizon": [0, 0.5], "y0": y0}))
    res = runner.invoke(main, ["rde", "--fixture", fixture, "--n", "64", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / f"rde-{fixture}.json").read_text())
    assert doc["times"][-1] == 0.5 and len(doc["times"]) == 33
    assert doc["points"][0] == y0
