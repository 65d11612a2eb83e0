"""Command-line front end: config ingestion, experiments, result emission.

Configuration is a flat JSON object; command-line flags override environment
variables (prefix RANSHARE_), which override the config file, which overrides
the built-in defaults.  An unknown key, in the file or after the prefix, is an
error.  Every run writes a results table (CSV), a summary with the fully
resolved config for exact reproduction, and optionally a solver trace (JSON
lines).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import ReservationConfig
from .errors import ConfigError, RanShareError
from .model import ProblemInstance, check_feasible
from .sim import (ALL_SCHEMES, ExperimentRow, HotspotParams, ScenarioParams, add_hotspot,
                  build_instance, generate_scenario, run_experiment, scale_load)
from .solver import SolverConfig, solve

ENV_PREFIX = "RANSHARE_"

RESULT_COLUMNS = ("scheme", "load", "utility_kind", "total_utility", "app_m_resource",
                  "app_m_resource_fraction", "qoe_satisfied", "flows_total",
                  "solve_ms", "outer_iters")

# config key -> HotspotParams field
_HOTSPOT_KEYS = {"hotspot_app": "app_id", "hotspot_flows": "n_flows",
                 "hotspot_entities": "n_entities", "hotspot_elements": "n_elements",
                 "hotspot_mean_bw": "mean_bw"}
# a hotspot run draws its extra flows under seed + HOTSPOT_SEED_OFFSET
HOTSPOT_SEED_OFFSET = 1000


def _same_names(cls) -> dict:
    return {f.name: f.name for f in dataclasses.fields(cls)}


# Each settings dataclass: its CLI default and its config key -> field map.  The one
# default that differs from the library's is epsilon: 1.0 against SolverConfig's 1e-3,
# coarse enough for sweeps of many solves.
_SETTINGS = {
    ScenarioParams: (ScenarioParams(), _same_names(ScenarioParams)),
    SolverConfig: (SolverConfig(epsilon=1.0), _same_names(SolverConfig)),
    ReservationConfig: (ReservationConfig(), _same_names(ReservationConfig)),
    HotspotParams: (HotspotParams(), _HOTSPOT_KEYS),
}
_FIELD_DEFAULTS = {key: getattr(default, name)
                   for default, keys in _SETTINGS.values() for key, name in keys.items()}

DEFAULTS = {
    "experiment": "utility",        # utility | hotspot | single-solve
    "seed": None,                   # mandatory, no wall-clock fallback
    "utility": "logarithmic",       # linear | logarithmic (alias: log)
    "loads": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    "out_dir": "out",
    "trace": False,
    "schemes": list(ALL_SCHEMES),
    # scenario, solver, baselines and hotspot shape, as JSON values
    **{key: list(v) if isinstance(v, tuple) else v for key, v in _FIELD_DEFAULTS.items()},
    # reporting, as run_experiment's default
    "focus_app_id": inspect.signature(run_experiment).parameters["focus_app_id"].default,
    # optional explicit instance for single-solve: the _INSTANCE_KEYS arrays
    "instance": None,
}

# A value of the type each key must have: the dataclass defaults keep their tuples.
_TYPED = {**DEFAULTS, **_FIELD_DEFAULTS, "seed": 0, "instance": {}}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", tuple: "a list of two numbers", dict: "a JSON object"}

_UTILITY_ALIASES = {"log": "logarithmic", "logarithmic": "logarithmic", "linear": "linear"}

# The arrays of an explicit instance, as ProblemInstance takes them; its utility is "utility".
_INSTANCE_KEYS = ("capacities", "lower", "upper", "coeff")


def _parse_loads(spec) -> list:
    """Accept a list of numbers, 'A..B' (inclusive integer range), or comma list."""
    try:
        if isinstance(spec, (list, tuple)):
            if not all(_fits(x, 1.0) for x in spec):  # no bools, no strings
                raise TypeError(spec)
            return [float(x) for x in spec]
        text = str(spec)
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ConfigError(f"loads range {text!r} is empty")
            return [float(x) for x in range(lo, hi + 1)]
        return [float(x) for x in text.split(",") if x.strip()]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"loads must be numbers, 'A..B' or a comma list, got {spec!r}") from exc


def _coerce(key, raw):
    """Read an environment or flag string as a value for ``key``.

    A key with a string default keeps the text.  Any other key reads the text
    as JSON, else as float() reads it, so that ``inf`` and ``nan`` reach the
    dataclass checks, else keeps the text.  It casts nothing to the default's
    type: ``resolve_config`` holds every value to that type and rejects what
    does not fit, and reads ``loads`` (a list, a number, or the text of a range
    or a comma list) with ``_parse_loads``.
    """
    if not isinstance(raw, str) or isinstance(DEFAULTS[key], str):
        return raw
    for read in (json.loads, float):  # float() also reads inf and nan
        try:
            return read(raw)
        except ValueError:
            pass
    return raw


def _fits(value, typed) -> bool:
    """Whether ``value`` has the type of ``typed``: an int fits a float but a bool fits
    bools alone, and a tuple takes a list of as many values, each fitting its own."""
    if isinstance(typed, tuple):
        return (isinstance(value, list) and len(value) == len(typed)
                and all(map(_fits, value, typed)))
    return type(value) is type(typed) or (type(value) is int and isinstance(typed, float))


def resolve_config(path=None, flag_overrides=None, env=None) -> dict:
    """Merge defaults <- config file <- environment <- flags."""
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    env = os.environ if env is None else env
    env_keys = {ENV_PREFIX + key.upper(): key for key in DEFAULTS}
    unknown = sorted(k for k in env if k.startswith(ENV_PREFIX) and k not in env_keys)
    if unknown:
        raise ConfigError(f"unknown environment variables: {unknown}")
    for env_key, key in env_keys.items():
        if env_key in env:
            cfg[key] = _coerce(key, env[env_key])
    for key, value in (flag_overrides or {}).items():
        if value is not None:
            cfg[key] = _coerce(key, value)

    if cfg["seed"] is None:
        raise ConfigError("missing mandatory field 'seed' (wall-clock seeding is not allowed)")
    cfg["loads"] = _parse_loads(cfg["loads"])
    for key, value in cfg.items():
        if not (value is None and DEFAULTS[key] is None) and not _fits(value, _TYPED[key]):
            raise ConfigError(f"{key} must be {_TYPE_NAMES[type(_TYPED[key])]}, got {value!r}")
    for key in ("seed", "focus_app_id", "hotspot_app"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be non-negative, got {cfg[key]!r}")
    kind = _UTILITY_ALIASES.get(cfg["utility"].lower())
    if kind is None:
        raise ConfigError(f"utility must be linear|log|logarithmic, got {cfg['utility']!r}")
    cfg["utility"] = kind
    if cfg["experiment"] not in ("utility", "hotspot", "single-solve"):
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}")
    for key in ("loads", "schemes"):
        if not cfg[key]:
            raise ConfigError(f"{key} must not be empty")
    for scheme in cfg["schemes"]:
        if scheme not in ALL_SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; valid: {ALL_SCHEMES}")
    spec = cfg["instance"]
    if spec is not None and set(spec) != set(_INSTANCE_KEYS):
        raise ConfigError(f"instance keys must be {list(_INSTANCE_KEYS)}, its utility is "
                          f"'utility'; unknown: {sorted(set(spec) - set(_INSTANCE_KEYS))}, "
                          f"missing: {sorted(set(_INSTANCE_KEYS) - set(spec))}")
    return cfg


def _build(cfg, cls):
    """The ``cls`` of _SETTINGS with each field taken from its config key: a list becomes
    a tuple and an int a float where the default holds one."""
    def as_field(value, like):
        if isinstance(like, tuple):
            return tuple(map(as_field, value, like))
        return float(value) if isinstance(like, float) else value
    default, keys = _SETTINGS[cls]
    return cls(**{name: as_field(cfg[key], getattr(default, name))
                  for key, name in keys.items()})


def _fmt(value) -> str:
    if value is None:
        return "error"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write_results(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            if r.error is not None:
                record = [r.scheme, _fmt(r.load), r.utility_kind] + ["error"] * 7
            else:
                record = [r.scheme, _fmt(r.load), r.utility_kind, _fmt(r.total_utility),
                          _fmt(r.app_m_resource), _fmt(r.app_m_resource_fraction),
                          _fmt(r.qoe_satisfied), _fmt(r.flows_total),
                          _fmt(r.solve_ms), _fmt(r.outer_iters)]
            writer.writerow(record)


def _write_summary(path: Path, cfg, extra) -> None:
    summary = {"package_version": __version__, "config": cfg}
    summary.update(extra)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _instance_from_config(spec, utility_kind) -> ProblemInstance:
    try:
        return ProblemInstance(*(np.array(spec[key], dtype=float) for key in _INSTANCE_KEYS),
                               utility_kind=utility_kind)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"instance arrays must be numeric: {exc}") from exc


def _check_app(cfg, key: str, num_apps: int) -> None:
    """``cfg[key]`` must be one of the run's ``num_apps`` applications."""
    if cfg[key] >= num_apps:
        raise ConfigError(f"{key} {cfg[key]} is not an application of the run "
                          f"({num_apps} applications)")


def _run_single_solve(cfg, out_dir: Path) -> dict:
    scfg = _build(cfg, SolverConfig)
    if cfg["instance"] is not None:
        inst = _instance_from_config(cfg["instance"], cfg["utility"])
    else:
        base = generate_scenario(_build(cfg, ScenarioParams), cfg["seed"])
        inst = build_instance(scale_load(base, cfg["loads"][0]), cfg["utility"])
    _check_app(cfg, "focus_app_id", inst.num_apps)
    start = time.perf_counter()
    result = solve(inst, scfg)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = check_feasible(inst, result.allocation, 1e-9)

    granted_m = float(result.allocation.values[:, cfg["focus_app_id"]].sum())
    row = ExperimentRow(
        scheme="app-opt", load=cfg["loads"][0],
        utility_kind=inst.utility_kind,
        total_utility=result.objective,
        app_m_resource=granted_m,
        app_m_resource_fraction=granted_m / inst.aggregate_capacity,
        qoe_satisfied=0, flows_total=0,
        solve_ms=elapsed_ms, outer_iters=result.outer_iters,
    )
    _write_results(out_dir / "results.csv", [row])

    if cfg["trace"]:
        with open(out_dir / "trace.jsonl", "w") as fh:
            for tr in result.trace:
                fh.write(json.dumps(dataclasses.asdict(tr)) + "\n")
    return {
        "objective": result.objective,
        "gap_bound": result.gap_bound,
        "dual_gap": result.dual_gap,
        "outer_iters": result.outer_iters,
        "inner_iters_total": result.inner_iters_total,
        "converged": result.converged,
        "feasible": report.feasible,
        "max_violation": report.max_violation,
        "solve_ms": elapsed_ms,
    }


def _run_sweep(cfg, out_dir: Path) -> dict:
    base = generate_scenario(_build(cfg, ScenarioParams), cfg["seed"])
    _check_app(cfg, "focus_app_id", len(base.apps))
    scale_ids = None
    if cfg["experiment"] == "hotspot":
        _check_app(cfg, "hotspot_app", len(base.apps))
        n_base = len(base.flows)
        base = add_hotspot(base, _build(cfg, HotspotParams), cfg["seed"] + HOTSPOT_SEED_OFFSET)
        scale_ids = base.flows.id[n_base:]
    report = run_experiment(
        base, cfg["schemes"], cfg["loads"], cfg["utility"],
        solver_config=_build(cfg, SolverConfig),
        reservation_config=_build(cfg, ReservationConfig),
        focus_app_id=cfg["focus_app_id"],
        scale_flow_ids=scale_ids,
    )
    _write_results(out_dir / "results.csv", report.rows)
    errors = [r for r in report.rows if r.error is not None]
    return {
        "rows": len(report.rows),
        "error_rows": len(errors),
        "flows_base": len(base.flows),
    }


def run(cfg: dict) -> int:
    """Execute the configured experiment; returns a process exit status."""
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg["experiment"] == "single-solve":
        extra = _run_single_solve(cfg, out_dir)
    else:
        extra = _run_sweep(cfg, out_dir)
    _write_summary(out_dir / "summary.json", cfg, extra)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranshare",
        description="RAN-sharing allocation experiments (application-level optimizer "
                    "vs. per-base-station and network reservation baselines)",
    )
    parser.add_argument("--config", help="JSON config file (flat keys)")
    parser.add_argument("--experiment", choices=["utility", "hotspot", "single-solve"])
    parser.add_argument("--loads", help="load multipliers: 'A..B' or comma list")
    parser.add_argument("--utility", help="linear | log")
    parser.add_argument("--seed", type=int, help="RNG seed (mandatory)")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--trace", action="store_const", const=True,
                        help="write solver trace (single-solve)")
    parser.add_argument("--epsilon", type=float, help="solver suboptimality target")
    parser.add_argument("--mu", type=float, help="barrier growth factor")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        cfg = resolve_config(args.config, overrides)
        status = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RanShareError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
