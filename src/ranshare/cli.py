"""Command-line front end: config ingestion, experiments, result emission.

Configuration is a flat JSON object; command-line flags override environment
variables (prefix RANSHARE_), which override the config file, which overrides
the built-in defaults.  Every run writes a results table (CSV), a summary
with the fully resolved config for exact reproduction, and optionally a
solver trace (JSON lines).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
from .sim import (ALL_SCHEMES, HotspotParams, ScenarioParams, add_hotspot,
                  generate_scenario, run_experiment)
from .solver import SolverConfig, solve

ENV_PREFIX = "RANSHARE_"

RESULT_COLUMNS = ("scheme", "load", "utility_kind", "total_utility", "app_m_resource",
                  "app_m_resource_fraction", "qoe_satisfied", "flows_total",
                  "solve_ms", "outer_iters")

DEFAULTS = {
    "experiment": "utility",        # utility | hotspot | single-solve
    "seed": None,                   # mandatory, no wall-clock fallback
    "utility": "logarithmic",       # linear | logarithmic (alias: log)
    "loads": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    "out_dir": "out",
    "trace": False,
    "schemes": list(ALL_SCHEMES),
    # scenario
    "num_elements": 100,
    "num_entities": 10,
    "num_apps": 20,
    "num_flows": 500,
    "capacity_range": [100.0, 300.0],
    "qoe_range": [0.1, 2.0],
    "channel_range": [1.0, 2.0],
    "demand_range": [0.1, 1.0],
    "num_focus": 2,
    "focus_min_share": 0.05,
    "focus_max_share": 0.40,
    "background_min_share": 1e-4,
    "background_max_share": 0.15,
    # solver
    "epsilon": 1.0,
    "t0": 1.0,
    "mu": 10.0,
    "inner_tol": 1e-8,
    "max_inner_iters": 500,
    "max_outer_iters": 100,
    "interior_shift": 0.5,
    # baselines
    "per_bs_fraction": 0.05,
    "net_min_fraction": 0.02,
    "net_max_fraction": 0.10,
    # hotspot experiment
    "hotspot_app": 0,
    "hotspot_flows": 600,
    "hotspot_entities": 2,
    "hotspot_elements": 100,
    "hotspot_mean_bw": 1.0,
    "hotspot_seed_offset": 1000,
    # reporting
    "log_floor": 1e-6,
    "focus_app_id": 0,
    # optional explicit instance for single-solve (dict of arrays)
    "instance": None,
}

_UTILITY_ALIASES = {"log": "logarithmic", "logarithmic": "logarithmic", "linear": "linear"}


def _parse_loads(spec) -> list:
    """Accept a list, 'A..B' (inclusive integer range), or comma list."""
    if isinstance(spec, (list, tuple)):
        return [float(x) for x in spec]
    text = str(spec)
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ConfigError(f"loads range {text!r} is empty")
        return [float(x) for x in range(lo, hi + 1)]
    return [float(x) for x in text.split(",") if x.strip()]


def _coerce(key, raw):
    """Coerce an env/flag string to the type of the default."""
    if not isinstance(raw, str):
        return raw
    if key == "loads":
        return _parse_loads(raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


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
    for key in DEFAULTS:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            cfg[key] = _coerce(key, env[env_key])
    for key, value in (flag_overrides or {}).items():
        if value is not None:
            cfg[key] = _coerce(key, value)

    if cfg["seed"] is None:
        raise ConfigError("missing mandatory field 'seed' (wall-clock seeding is not allowed)")
    cfg["seed"] = int(cfg["seed"])
    kind = _UTILITY_ALIASES.get(str(cfg["utility"]).lower())
    if kind is None:
        raise ConfigError(f"utility must be linear|log|logarithmic, got {cfg['utility']!r}")
    cfg["utility"] = kind
    cfg["loads"] = _parse_loads(cfg["loads"])
    if cfg["experiment"] not in ("utility", "hotspot", "single-solve"):
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}")
    for scheme in cfg["schemes"]:
        if scheme not in ALL_SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; valid: {ALL_SCHEMES}")
    return cfg


def _scenario_params(cfg) -> ScenarioParams:
    return ScenarioParams(
        num_elements=int(cfg["num_elements"]), num_entities=int(cfg["num_entities"]),
        num_apps=int(cfg["num_apps"]), num_flows=int(cfg["num_flows"]),
        capacity_range=tuple(cfg["capacity_range"]), qoe_range=tuple(cfg["qoe_range"]),
        channel_range=tuple(cfg["channel_range"]), demand_range=tuple(cfg["demand_range"]),
        num_focus=int(cfg["num_focus"]),
        focus_min_share=cfg["focus_min_share"], focus_max_share=cfg["focus_max_share"],
        background_min_share=cfg["background_min_share"],
        background_max_share=cfg["background_max_share"],
    )


def _solver_config(cfg) -> SolverConfig:
    return SolverConfig(
        epsilon=float(cfg["epsilon"]), t0=float(cfg["t0"]), mu=float(cfg["mu"]),
        inner_tol=float(cfg["inner_tol"]), max_inner_iters=int(cfg["max_inner_iters"]),
        max_outer_iters=int(cfg["max_outer_iters"]), interior_shift=float(cfg["interior_shift"]),
    )


def _reservation_config(cfg) -> ReservationConfig:
    return ReservationConfig(
        per_bs_fraction=cfg["per_bs_fraction"],
        net_min_fraction=cfg["net_min_fraction"],
        net_max_fraction=cfg["net_max_fraction"],
    )


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


def _instance_from_config(spec) -> ProblemInstance:
    try:
        return ProblemInstance(
            capacities=np.array(spec["capacities"], dtype=float),
            lower=np.array(spec["lower"], dtype=float),
            upper=np.array(spec["upper"], dtype=float),
            app_lower=np.array(spec["app_lower"], dtype=float),
            app_upper=np.array(spec["app_upper"], dtype=float),
            coeff=np.array(spec["coeff"], dtype=float),
            utility_kind=spec.get("utility_kind", "linear"),
        )
    except KeyError as exc:
        raise ConfigError(f"instance config missing field {exc}") from exc


def _run_single_solve(cfg, out_dir: Path) -> dict:
    scfg = _solver_config(cfg)
    if cfg["instance"] is not None:
        inst = _instance_from_config(cfg["instance"])
    else:
        from .sim import build_instance, scale_load
        base = generate_scenario(_scenario_params(cfg), cfg["seed"])
        inst = build_instance(scale_load(base, cfg["loads"][0]), cfg["utility"])
    start = time.perf_counter()
    result = solve(inst, scfg)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = check_feasible(inst, result.allocation, 1e-9)

    from .sim import ExperimentRow
    focus = int(cfg["focus_app_id"])
    granted_m = float(result.allocation.values[:, focus].sum()) if focus < inst.num_apps else 0.0
    row = ExperimentRow(
        scheme="app-opt", load=float(cfg["loads"][0]),
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
        "outer_iters": result.outer_iters,
        "inner_iters_total": result.inner_iters_total,
        "converged": result.converged,
        "feasible": report.feasible,
        "max_violation": report.max_violation,
        "solve_ms": elapsed_ms,
    }


def _run_sweep(cfg, out_dir: Path) -> dict:
    params = _scenario_params(cfg)
    base = generate_scenario(params, cfg["seed"])
    scale_ids = None
    if cfg["experiment"] == "hotspot":
        hp = HotspotParams(
            app_id=int(cfg["hotspot_app"]), n_flows=int(cfg["hotspot_flows"]),
            n_entities=int(cfg["hotspot_entities"]), n_elements=int(cfg["hotspot_elements"]),
            mean_bw=float(cfg["hotspot_mean_bw"]),
        )
        n_base = len(base.flows)
        base = add_hotspot(base, hp, cfg["seed"] + int(cfg["hotspot_seed_offset"]))
        scale_ids = base.flows.id[n_base:]
    report = run_experiment(
        base, cfg["schemes"], cfg["loads"], cfg["utility"],
        solver_config=_solver_config(cfg),
        reservation_config=_reservation_config(cfg),
        focus_app_id=int(cfg["focus_app_id"]),
        scale_flow_ids=scale_ids,
        log_floor=float(cfg["log_floor"]),
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
