"""Command-line surface: lift, integrate, rde, transport, verify, convergence, suite."""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import fixtures as fx
from .convergence import CONVERGENCE_CSV_HEADER, MIN_LEVELS
from .errors import ConfigError, CrpError
from .gauges import connection_gauge, standard_gauge
from .mcrp import ratio_at_pair, verify_chart_crp, verify_gauge_crp
from .mrde import rde_solve_manifold
from .oneforms import integrate_smooth_oneform
from .serialize import path_csv_header, path_csv_rows, write_csv, write_json
from .transport import parallel_translate_frame, unroll

SUITE_CSV_HEADER = ["check", "value", "tolerance", "mode", "pass"]


def _out_dir(out):
    env = os.environ.get("CRP_OUT")
    path = env or out or "crp-out"
    os.makedirs(path, exist_ok=True)
    return path


def _load_config(path, known):
    """The JSON object at ``path`` ({} when None); ConfigError unless every top-level key is in ``known``."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
    return _known_keys(doc, known, "config")


def _known_keys(doc, known, where):
    """``doc``; ConfigError naming ``where`` and the first key of ``doc`` that is not in ``known``."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"{where} key {unknown[0]!r} is not one of {', '.join(sorted(known))}")
    return doc


def _number(cfg, key, default, cast=int, minimum=None):
    """``cfg[key]`` (``default`` when absent) through ``cast``; ConfigError unless it is a
    number, and one of at least ``minimum`` when that is given."""
    value = cfg.get(key, default)
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config {key!r} must be a number, got {value!r}") from exc
    if minimum is not None and out < minimum:
        raise ConfigError(f"config {key!r} must be at least {minimum}, got {value!r}")
    return out


def _array(value, key, shape):
    """``value`` as a float array of ``shape``; ConfigError unless it is one."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {key!r} must be numeric, got {value!r}") from exc
    if arr.shape != shape:
        raise ConfigError(f"config {key!r} must have shape {shape}, got {value!r}")
    return arr


def _section(cfg, key, known):
    """``cfg[key]`` ({} when absent); ConfigError unless it is a JSON object whose keys are all in ``known``."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config {key!r} must be a JSON object, not {type(value).__name__}")
    return _known_keys(value, known, f"config {key!r}")


def _refuse_n(name, cfg):
    """ConfigError if the config or the command line (not an option's default) gives an ``n`` to
    the fixed-size fixture ``name``."""
    source = click.get_current_context().get_parameter_source("n")
    if "n" in cfg or source not in (None, ParameterSource.DEFAULT):
        raise ConfigError(f"fixture {name!r} has a fixed grid and takes no 'n'")


def _fixture(name, cfg, n, kinds):
    """Named fixture at grid size n; ConfigError unless its kind is one of ``kinds``, or when a
    fixed-size fixture is given an ``n``."""
    kind = fx.FIXTURES.get(name, {}).get("kind")
    if kind is not None and kind not in kinds:
        raise ConfigError(f"fixture {name!r} is of kind {kind}; this command takes {', '.join(kinds)}")
    if kind == "fixed-mcrp":
        _refuse_n(name, cfg)
        return fx.build_fixture(name)
    return fx.build_fixture(name, n=n)


class _Main(click.Group):
    """Maps library errors to exit codes: 2 on a config error, 1 on a numerical one."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except CrpError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Controlled rough paths on manifolds: drivers, integrals, RDEs, transport."""


common = [
    click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="JSON config"),
    click.option("--out", default=None, help="output directory (CRP_OUT overrides)"),
    click.option("--deterministic", is_flag=True, default=False, help="byte-stable reports"),
]


def add_common(fn):
    for opt in reversed(common):
        fn = opt(fn)
    return fn


@main.command()
@add_common
@click.option("--fixture", default="smooth-2d", help="driver fixture name")
@click.option("--n", default=256, type=int, help="grid size")
def lift(config_path, out, deterministic, fixture, n):
    """Build a rough-path lift and report its algebraic residuals."""
    cfg = _load_config(config_path, {"fixture", "n"})
    fixture = cfg.get("fixture", fixture)
    n = _number(cfg, "n", n, minimum=1)
    built = _fixture(fixture, cfg, n, ("driver", "mcrp"))
    rp = built if fx.FIXTURES[fixture]["kind"] == "driver" else built.driver
    doc = {
        "fixture": fixture,
        "n": n,
        "chen_residual": rp.chen_residual(),
        "weak_geometric_residual": rp.weak_geometric_residual(),
        "bound_constant": rp.bound_constant(),
        "control": rp.control.to_json(),
    }
    odir = _out_dir(out)
    write_json(os.path.join(odir, f"lift-{fixture}.json"), {**doc, "path": rp.to_json()})
    write_csv(
        os.path.join(odir, f"lift-{fixture}.csv"), path_csv_header(rp.values), path_csv_rows(rp.times, rp.values)
    )
    click.echo(json.dumps(doc, sort_keys=True))


@main.command()
@add_common
@click.option("--fixture", default="sphere-spiral", help="manifold path fixture")
@click.option("--n", default=512, type=int)
@click.option("--gauge", "gauge_name", default="connection", type=click.Choice(["connection", "chart"]))
def integrate(config_path, out, deterministic, fixture, n, gauge_name):
    """Integrate the area-type one-form along a fixture path."""
    cfg = _load_config(config_path, {"fixture", "n"})
    fixture = cfg.get("fixture", fixture)
    n = _number(cfg, "n", n, minimum=1)
    y = _fixture(fixture, cfg, n, ("mcrp", "fixed-mcrp"))
    mani = y.manifold
    if gauge_name == "connection":
        gauge = connection_gauge(mani)
    else:
        from .gauges import chart_gauge

        gauge = chart_gauge(mani, mani.chart_at(y.points[0]))

    if mani is fx.SPHERE:
        form = lambda m: np.array([[-m[1], m[0], 0.0]])  # noqa: E731
    else:
        form = lambda m: np.ones((1, mani.flat_dim))  # noqa: E731
    z = integrate_smooth_oneform(form, y, gauge)
    odir = _out_dir(out)
    write_json(os.path.join(odir, f"integral-{fixture}.json"), z.to_json(y.driver.control))
    write_csv(
        os.path.join(odir, f"integral-{fixture}.csv"), path_csv_header(z.values), path_csv_rows(z.times, z.values)
    )
    click.echo(json.dumps({"fixture": fixture, "endpoint": z.values[-1].tolist()}, sort_keys=True))


# the field kind each named rde fixture solves, and the keys of each field kind's params
RDE_FIXTURES = {"sphere-projection-rde": "projection", "so3-constant-rde": "right-invariant"}
RDE_PARAMS = {"projection": {"speed"}, "left-invariant": {"direction"}, "right-invariant": {"direction"}}


def _build_rde_from_config(cfg, fixture, n):
    """Config schema: {manifold, field:{kind}, driver, y0, horizon}; ``horizon`` [a, b] restricts the driver.

    A named fixture is this schema with its field kind as the default kind.
    """
    fixture = cfg.get("fixture", fixture)
    n = _number(cfg, "n", _section(cfg, "driver", {"n"}).get("n", n), minimum=1)
    horizon = cfg.get("horizon")
    if fixture not in RDE_FIXTURES and "field" not in cfg and "manifold" not in cfg:
        raise ConfigError(f"unknown rde fixture {fixture!r}")
    field_cfg = _section(cfg, "field", {"kind", "params"})
    kind = field_cfg.get("kind", RDE_FIXTURES.get(fixture, "projection"))
    if not isinstance(kind, str) or kind not in RDE_PARAMS:
        raise ConfigError(f"config field kind {kind!r} is not one of {', '.join(sorted(RDE_PARAMS))}")
    params = _section(field_cfg, "params", RDE_PARAMS[kind])
    if kind == "projection":
        rp = fx.linear_drive_driver(n, speed=_number(params, "speed", 1.0, cast=float))
        field = fx.sphere_projection_field()
        y0 = cfg.get("y0", [0.0, 1.0, 0.0])
    else:
        rp = fx.so3_constant_driver(n, _array(params.get("direction", [0.0, 0.0, np.pi / 2]), "direction", (3,)))
        field = fx.so3_left_invariant_field() if kind == "left-invariant" else fx.so3_right_invariant_field()
        y0 = cfg.get("y0", np.eye(3).tolist())
    if "field" in cfg and "fixture" not in cfg:
        fixture = kind  # the output is named after the field kind it solved
    mtype = _section(cfg, "manifold", {"type"}).get("type", field.manifold.name)
    if mtype != field.manifold.name:
        raise ConfigError(f"config 'manifold' type {mtype!r} is not {field.manifold.name!r}, the {kind} field's")
    y0 = _array(y0, "y0", field.manifold.point_shape)
    if horizon is not None:
        a, b = (float(t) for t in _array(horizon, "horizon", (2,)))
        if not a < b:
            raise ConfigError(f"config 'horizon' must be two grid times a < b, got {horizon!r}")
        rp = rp.restrict(rp.index_of(a), rp.index_of(b))
    return fixture, rde_solve_manifold(field, rp, y0)


@main.command()
@add_common
@click.option("--fixture", default="sphere-projection-rde", help="rde fixture name")
@click.option("--n", default=1024, type=int)
def rde(config_path, out, deterministic, fixture, n):
    """Solve a manifold RDE (named fixture or full JSON config)."""
    cfg = _load_config(config_path, {"fixture", "n", "manifold", "field", "driver", "y0", "horizon"})
    fixture, sol = _build_rde_from_config(cfg, fixture, n)
    doc = sol.to_json()
    doc["metadata"] = getattr(sol, "meta", {})
    odir = _out_dir(out)
    write_json(os.path.join(odir, f"rde-{fixture}.json"), doc)
    click.echo(
        json.dumps(
            {"fixture": fixture, "chart_switches": doc["metadata"].get("chart_switches", [])}, sort_keys=True
        )
    )


@main.command()
@add_common
@click.option("--fixture", default="latitude", help="base path fixture")
@click.option("--n", default=1024, type=int)
def transport(config_path, out, deterministic, fixture, n):
    """Parallel-translate a frame along a fixture path and unroll it."""
    cfg = _load_config(config_path, {"fixture", "n"})
    fixture = cfg.get("fixture", fixture)
    n = _number(cfg, "n", n, minimum=1)
    y = _fixture(fixture, cfg, n, ("mcrp",))
    if y.manifold is not fx.SPHERE:
        raise ConfigError(f"transport takes sphere path fixtures; {fixture!r} lives on {y.manifold.name}")
    u0 = fx.tangent_frame(y.points[0])
    lift_frames = parallel_translate_frame(y, u0)
    z, _ = unroll(y, u0, lift=lift_frames)
    doc = {
        "fixture": fixture,
        "holonomy_angle": lift_frames.holonomy_angle(),
        "anti_development_endpoint": z.values[-1].tolist(),
        "u0": u0.tolist(),
    }
    odir = _out_dir(out)
    write_json(os.path.join(odir, f"transport-{fixture}.json"), doc)
    write_csv(
        os.path.join(odir, f"antidevelopment-{fixture}.csv"),
        path_csv_header(z.values),
        path_csv_rows(z.times, z.values),
    )
    click.echo(json.dumps({"fixture": fixture, "holonomy_angle": doc["holonomy_angle"]}, sort_keys=True))


@main.command()
@add_common
@click.option("--fixture", default="example-6.7")
@click.option("--p", default=None, type=float, help="the p of example-6.7 (default 2); other fixtures take none")
@click.option("--delta", default=None, type=float, help="probe radius; default 0.5 on example-6.7, else the verifier's")
def verify(config_path, out, deterministic, fixture, p, delta):
    """Run the gauge and chart verifiers on a fixture."""
    cfg = _load_config(config_path, {"fixture", "n", "p"})
    fixture = cfg.get("fixture", fixture)
    if fixture == "example-6.7":
        _refuse_n(fixture, cfg)
        y = fx.example_67_crp(p=_number(cfg, "p", 2.0 if p is None else p, float))
        gauge = standard_gauge(fx.LINE)
        delta = 0.5 if delta is None else delta
    else:
        if p is not None or "p" in cfg:
            raise ConfigError(f"config 'p' is example-6.7's alone; fixture {fixture!r} takes none")
        y = _fixture(fixture, cfg, _number(cfg, "n", 256, minimum=1), ("mcrp",))
        gauge = connection_gauge(y.manifold)
    grep = verify_gauge_crp(y, gauge, delta=delta)
    chart = y.manifold.chart_at(y.points[0])
    crep = verify_chart_crp(y, chart)
    doc = {
        "fixture": fixture,
        "gauge": {k: grep[k] for k in ("C2", "C1", "delta", "pairs_probed", "pass", "pass_remainder")},
        "chart": {k: crep[k] for k in ("C2", "C1", "pass", "pass_remainder")},
    }
    if fixture == "example-6.7":
        idx = int(np.searchsorted(y.times, 1.0)) + 1
        doc["chart"]["ratio_at_eps"] = ratio_at_pair(y, chart, 0.0, y.times[idx])
    odir = _out_dir(out)
    write_json(os.path.join(odir, f"verify-{fixture}.json"), doc)
    click.echo(json.dumps(doc, sort_keys=True))


@main.command()
@add_common
@click.option("--fixture", default="sphere-projection-rde")
@click.option("--levels", default=5, type=int)
def convergence(config_path, out, deterministic, fixture, levels):
    """Mesh-refinement study of a fixture against its oracle."""
    cfg = _load_config(config_path, {"fixture", "levels"})
    fixture = cfg.get("fixture", fixture)
    report = fx.run_study(fixture, _number(cfg, "levels", levels, minimum=MIN_LEVELS))
    odir = _out_dir(out)
    write_json(os.path.join(odir, f"convergence-{fixture}.json"), report.to_json())
    write_csv(os.path.join(odir, f"convergence-{fixture}.csv"), CONVERGENCE_CSV_HEADER, report.csv_rows())
    click.echo(json.dumps({"fixture": fixture, "slope": report.slope, "pass": report.passed}, sort_keys=True))
    sys.exit(0 if report.passed else 1)


@main.command()
@add_common
@click.option("--jobs", default=1, type=int)
@click.option("--criteria", "names", multiple=True, help="criterion names (default all)")
def suite(config_path, out, deterministic, jobs, names):
    """Run the acceptance suites; exit 0 iff every criterion passes."""
    from .suite import run_suite

    cfg = _load_config(config_path, {"criteria", "fixtures"})
    names = list(names) or cfg.get("criteria")
    if names == []:
        names = None
    if "fixtures" in cfg and cfg["fixtures"] != []:
        raise ConfigError(f"config 'fixtures' must be [] (run nothing), got {cfg['fixtures']!r}")
    if cfg.get("fixtures") == []:
        odir = _out_dir(out)
        write_json(os.path.join(odir, "suite-report.json"), {"criteria": [], "pass": True, "failed": []})
        click.echo("empty fixture list: nothing to run")
        sys.exit(0)
    bundle = run_suite(names=names, deterministic=deterministic, jobs=jobs)
    odir = _out_dir(out)
    write_json(os.path.join(odir, "suite-report.json"), bundle)
    rows = []
    for crit in bundle["criteria"]:
        for c in crit["checks"]:
            rows.append(
                [crit["name"] + ":" + c["check"], repr(c["value"]), repr(c["tolerance"]), c["mode"], str(c["pass"])]
            )
    write_csv(os.path.join(odir, "suite-checks.csv"), SUITE_CSV_HEADER, rows)
    for crit in bundle["criteria"]:
        click.echo(("PASS " if crit["pass"] else "FAIL ") + crit["name"])
    if not bundle["pass"]:
        click.echo("failed: " + ", ".join(bundle["failed"]), err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
