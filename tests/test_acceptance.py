"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all)
and asserts the criterion at its stated tolerance.  Criteria 5-7 follow the
measurement protocol pinned here: desk scale, seeds 0..N-1, experiment solver
target epsilon 1.0 (absolute utility units, far below the trend magnitudes).
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from ranshare.baselines import net_rsv_allocate, per_bs_rsv_allocate
from ranshare.cli import RESULT_COLUMNS, main as cli_main
from ranshare.model import AllocationMatrix, ProblemInstance, check_feasible
from ranshare.sim import (ALL_SCHEMES, HotspotParams, ScenarioParams,
                          SCHEME_APP_OPT, SCHEME_NET_RSV, SCHEME_PER_BS_RSV,
                          add_hotspot, allocate_app_opt, build_instance,
                          generate_scenario, run_experiment, scale_load)
from ranshare.solver import (SolverConfig, interior_gradient, interior_objective,
                             solve)

from conftest import random_instance
from oracles import _repair, optimum_bracket

DESK = ScenarioParams()  # 100 elements / 10 entities / 20 apps / 500 flows
DESK_HOTSPOT = HotspotParams()  # 600 flows from 2 entities over all 100 elements
EXPERIMENT_SOLVER = SolverConfig(epsilon=1.0)


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict}" + (f" ({detail})" if detail else ""))
    return ok


def _relaxed_physical_instance(scenario) -> ProblemInstance:
    """Capacity-only instance for checking baseline allocations.

    The reservation baselines do not implement the application-isolation
    bounds, so their allocations are checked against the physical constraint
    set alone (element capacities and non-negativity).
    """
    caps = scenario.capacities
    num_k = scenario.num_apps
    upper = np.repeat(caps[:, None], num_k, axis=1)
    return ProblemInstance(
        capacities=caps,
        lower=np.zeros((caps.size, num_k)), upper=upper,
        coeff=np.zeros((caps.size, num_k)), utility_kind="linear",
    )


def _aggregate_entity_matrix(entity_alloc) -> AllocationMatrix:
    return AllocationMatrix(entity_alloc.per_entity.sum(axis=0))


def test_criterion_1_eps_suboptimality():
    """u_upper - u_solver <= eps + 1e-6 on >= 200 random small instances, where
    u_upper >= the optimum is the upper end of ``oracles.optimum_bracket``."""
    rng = np.random.default_rng(2024)
    eps = 1e-3
    start = time.perf_counter()
    worst = -np.inf
    failures = 0
    for trial in range(200):
        kind = "linear" if trial % 2 == 0 else "logarithmic"
        inst = random_instance(rng, kind=kind)
        result = solve(inst, SolverConfig(epsilon=eps))
        gap = optimum_bracket(inst).upper - result.objective
        worst = max(worst, gap)
        if gap > eps + 1e-6:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 120.0
    assert _report(1, "eps-suboptimality", ok,
                   f"worst gap {worst:.3g} vs {eps + 1e-6:.3g}, "
                   f"failures {failures}/200, {elapsed:.1f}s")


def test_criterion_2_feasibility_everywhere():
    """Every solver and baseline allocation passes check_feasible at 1e-9."""
    rng = np.random.default_rng(77)
    checked = 0
    violations = 0

    for _ in range(60):
        inst = random_instance(rng)
        result = solve(inst, SolverConfig(epsilon=1e-3))
        checked += 1
        if not check_feasible(inst, result.allocation, 1e-9).feasible:
            violations += 1

    for seed in range(6):
        scen = scale_load(generate_scenario(DESK, seed), float(1 + 3 * seed % 10))
        for kind in ("linear", "logarithmic"):
            _, result = allocate_app_opt(scen, kind, EXPERIMENT_SOLVER)
            inst = build_instance(scen, kind)
            checked += 1
            if not check_feasible(inst, result.allocation, 1e-9).feasible:
                violations += 1
        relaxed = _relaxed_physical_instance(scen)
        for allocate in (per_bs_rsv_allocate, net_rsv_allocate):
            agg = _aggregate_entity_matrix(allocate(scen))
            checked += 1
            if not check_feasible(relaxed, agg, 1e-9).feasible:
                violations += 1

    ok = violations == 0
    assert _report(2, "feasibility", ok, f"{checked - violations}/{checked} allocations feasible")


def test_criterion_3_gradient_matches_finite_differences():
    """Analytic gradient vs central differences (h = 1e-6) at >= 100 points."""
    from ranshare.solver import interior_start

    rng = np.random.default_rng(5150)
    h = 1e-6
    points = 0
    worst_rel = 0.0
    bad = 0
    while points < 100:
        kind = "linear" if points % 2 == 0 else "logarithmic"
        inst = random_instance(rng, kind=kind)
        t = float(rng.uniform(0.1, 10.0))
        span = inst.upper - inst.lower
        raw = inst.lower + rng.uniform(0.2, 0.8, span.shape) * span
        # retract onto the coupling constraints, then blend with a strictly
        # interior point so every barrier slack is positive
        feasible = _repair(inst, raw.reshape(1, -1)).reshape(raw.shape)
        s = 0.9 * feasible + 0.1 * interior_start(inst, 0.5).values
        alloc = AllocationMatrix(s)
        g = interior_gradient(inst, alloc, t)
        # central differences of F cannot resolve below |F| * 2^-52 / h; the
        # relative check applies to every component above that rounding floor
        noise = 1e-9 * max(1.0, abs(interior_objective(inst, alloc, t)))
        for idx in np.ndindex(*s.shape):
            up, dn = s.copy(), s.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (interior_objective(inst, AllocationMatrix(up), t)
                  - interior_objective(inst, AllocationMatrix(dn), t)) / (2 * h)
            err = abs(g[idx] - fd)
            if 1e-5 * abs(g[idx]) >= noise:
                worst_rel = max(worst_rel, err / abs(g[idx]))
                if err > 1e-5 * abs(g[idx]):
                    bad += 1
            elif err > 1e-5 * abs(g[idx]) + noise:
                bad += 1
        points += 1
    ok = bad == 0
    assert _report(3, "gradient-vs-central-differences", ok,
                   f"{points} points, worst resolvable relative error {worst_rel:.2e}")


def test_criterion_4_outer_iteration_count():
    """Outer iterations equal ceil(log_mu((B + |K|) / (t0 eps))) exactly."""
    rng = np.random.default_rng(808)
    mismatches = 0
    for trial in range(25):
        inst = random_instance(rng)
        cfg = SolverConfig(epsilon=float(rng.uniform(1e-4, 2.0)),
                           t0=float(rng.uniform(0.05, 20.0)),
                           mu=float(rng.uniform(1.5, 25.0)))
        result = solve(inst, cfg)
        ratio = (inst.aggregate_capacity + inst.num_apps) / (cfg.t0 * cfg.epsilon)
        expected = 0 if ratio <= 1.0 else math.ceil(math.log(ratio) / math.log(cfg.mu))
        if result.outer_iters != expected:
            mismatches += 1
    ok = mismatches == 0
    assert _report(4, "stopping-bound-arithmetic", ok, f"25 configs, {mismatches} mismatches")


def _utility_sweep(seeds, loads, kinds):
    """mean total flow utility per (kind, scheme, load) over the seeds."""
    sums = {(k, s, l): 0.0 for k in kinds for s in ALL_SCHEMES for l in loads}
    for seed in seeds:
        base = generate_scenario(DESK, seed)
        for kind in kinds:
            report = run_experiment(base, ALL_SCHEMES, loads, kind,
                                    solver_config=EXPERIMENT_SOLVER)
            for row in report.rows:
                assert row.error is None, f"cell failed: {row}"
                sums[(kind, row.scheme, row.load)] += row.total_utility
    n = float(len(seeds))
    return {key: v / n for key, v in sums.items()}


def test_criterion_5_utility_trends():
    """Desk-scale utility comparison: scheme ordering and load-10 margins.

    Known shortfall (see the analysis in the decision ledger): at the pinned
    desk-scale demand distributions the system runs far below capacity, where
    the demand-adaptive network reservation serves every flow; the optimizer
    therefore ties rather than beats it, and the linear-utility optimizer
    trades a few percent of served resource for coefficient-weighted gain.
    The criterion is asserted as stated regardless.
    """
    start = time.perf_counter()
    seeds = range(10)
    loads = [float(x) for x in range(1, 11)]
    kinds = ("linear", "logarithmic")
    mean = _utility_sweep(seeds, loads, kinds)

    order_ok = True
    order_detail = []
    for kind in kinds:
        for load in loads:
            a = mean[(kind, SCHEME_APP_OPT, load)]
            n = mean[(kind, SCHEME_NET_RSV, load)]
            p = mean[(kind, SCHEME_PER_BS_RSV, load)]
            # allow float-dust on ties: sums over identical flow service differ
            # only by summation order
            tol = 1e-9 * max(abs(a), abs(n), abs(p), 1.0)
            if not (a >= n - tol and n >= p - tol):
                order_ok = False
                order_detail.append(f"{kind}@{load:g}: a={a:.4g} n={n:.4g} p={p:.4g}")

    margin_ok = True
    margin_detail = []
    for kind in kinds:
        a10 = mean[(kind, SCHEME_APP_OPT, 10.0)]
        n10 = mean[(kind, SCHEME_NET_RSV, 10.0)]
        p10 = mean[(kind, SCHEME_PER_BS_RSV, 10.0)]
        if not a10 >= 1.15 * n10:
            margin_ok = False
            margin_detail.append(f"{kind}: vs net {a10 / n10:.3f} < 1.15")
        if not a10 >= 1.50 * p10:
            margin_ok = False
            margin_detail.append(f"{kind}: vs per-bs {a10 / p10:.3f} < 1.50")

    elapsed = time.perf_counter() - start
    ok = order_ok and margin_ok and elapsed <= 600.0
    detail = f"{elapsed:.0f}s"
    if order_detail:
        detail += "; ordering failed at " + "; ".join(order_detail[:4])
    if margin_detail:
        detail += "; margins: " + "; ".join(margin_detail)
    assert _report(5, "utility-trend", ok, detail)


def _hotspot_sweep(seeds, loads, kinds):
    frac = {(k, s, l): [] for k in kinds for s in ALL_SCHEMES for l in loads}
    qoe = {(k, s, l): [] for k in kinds for s in ALL_SCHEMES for l in loads}
    for seed in seeds:
        base = generate_scenario(DESK, seed)
        n_base = len(base.flows)
        hot = add_hotspot(base, DESK_HOTSPOT, seed + 1000)
        hot_ids = tuple(f.id for f in hot.flows[n_base:])
        for kind in kinds:
            report = run_experiment(hot, ALL_SCHEMES, loads, kind,
                                    solver_config=EXPERIMENT_SOLVER,
                                    scale_flow_ids=hot_ids)
            for row in report.rows:
                assert row.error is None, f"cell failed: {row}"
                frac[(kind, row.scheme, row.load)].append(row.app_m_resource_fraction)
                qoe[(kind, row.scheme, row.load)].append(row.qoe_satisfied)
    mean_frac = {key: float(np.mean(v)) for key, v in frac.items()}
    mean_qoe = {key: float(np.mean(v)) for key, v in qoe.items()}
    return mean_frac, mean_qoe


def test_criterion_6_hotspot_resource_usage():
    """App-m usage: monotone, capped at 40% of B, near the cap under linear."""
    start = time.perf_counter()
    seeds = range(3)
    loads = [float(x) for x in range(1, 16)]
    kinds = ("linear", "logarithmic")
    mean_frac, _ = _hotspot_sweep(seeds, loads, kinds)

    problems = []
    cap = DESK.focus_max_share  # 0.40
    for kind in kinds:
        series = [mean_frac[(kind, SCHEME_APP_OPT, l)] for l in loads]
        if not all(b >= a - 1e-6 for a, b in zip(series, series[1:])):
            problems.append(f"{kind}: usage not non-decreasing")
        if max(series) > cap + 1e-9:
            problems.append(f"{kind}: exceeded the 40% cap ({max(series):.4f})")
    linear15 = mean_frac[("linear", SCHEME_APP_OPT, 15.0)]
    if linear15 < 0.95 * cap:
        problems.append(f"linear load 15 reaches only {linear15 / cap:.1%} of the cap")
    for kind in kinds:
        for load in (10.0, 13.0, 15.0):
            a = mean_frac[(kind, SCHEME_APP_OPT, load)]
            for scheme in (SCHEME_NET_RSV, SCHEME_PER_BS_RSV):
                if not mean_frac[(kind, scheme, load)] < a:
                    problems.append(f"{kind}@{load:g}: {scheme} not below app-opt")

    elapsed = time.perf_counter() - start
    ok = not problems
    assert _report(6, "hotspot-resource-usage", ok,
                   f"linear@15 {linear15 / cap:.1%} of cap, {elapsed:.0f}s"
                   + ("; " + "; ".join(problems[:4]) if problems else ""))


def test_criterion_7_hotspot_qoe_counts():
    """QoE-satisfied flows at light/moderate/heavy hotspot loads (log utility)."""
    start = time.perf_counter()
    seeds = range(10)
    loads = [1.0, 10.0, 15.0]
    _, mean_qoe = _hotspot_sweep(seeds, loads, ("logarithmic",))

    problems = []
    for load in loads:
        a = mean_qoe[("logarithmic", SCHEME_APP_OPT, load)]
        for scheme in (SCHEME_NET_RSV, SCHEME_PER_BS_RSV):
            if not a >= mean_qoe[("logarithmic", scheme, load)]:
                problems.append(f"app-opt below {scheme} at load {load:g}")
    heavy_net = mean_qoe[("logarithmic", SCHEME_NET_RSV, 15.0)]
    heavy_perbs = mean_qoe[("logarithmic", SCHEME_PER_BS_RSV, 15.0)]
    if not heavy_perbs <= heavy_net:
        problems.append(f"per-bs {heavy_perbs:.1f} > net {heavy_net:.1f} at heavy load")

    elapsed = time.perf_counter() - start
    counts = " / ".join(
        f"load {l:g}: " + ",".join(f"{mean_qoe[('logarithmic', s, l)]:.0f}"
                                   for s in ALL_SCHEMES)
        for l in loads)
    ok = not problems
    assert _report(7, "hotspot-qoe-counts", ok,
                   counts + f", {elapsed:.0f}s" + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_8_full_scale_performance():
    """One solve at 1000 elements x 100 apps (log utility, eps 1e-2) within 60 s."""
    scen = generate_scenario(ScenarioParams.full_scale(), 42)
    inst = build_instance(scen, "logarithmic")
    start = time.perf_counter()
    result = solve(inst, SolverConfig(epsilon=1e-2))
    elapsed = time.perf_counter() - start
    feasible = check_feasible(inst, result.allocation, 1e-9).feasible
    ok = elapsed <= 60.0 and result.converged and feasible
    assert _report(8, "full-scale-performance", ok,
                   f"{elapsed:.1f}s, outer {result.outer_iters}, "
                   f"inner {result.inner_iters_total}, converged {result.converged}")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical result tables.

    The solve_ms column is wall-clock time and is excluded from the byte
    comparison; all numeric results must match exactly.
    """
    cfg = {"num_elements": 20, "num_entities": 5, "num_apps": 6, "num_flows": 120,
           "epsilon": 1.0, "seed": 31, "loads": "1..4", "utility": "log"}
    i_ms = RESULT_COLUMNS.index("solve_ms")

    def run_once(exp, out):
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps({**cfg, "experiment": exp, "out_dir": str(tmp_path / out)}))
        assert cli_main(["--config", str(path)]) == 0
        with open(tmp_path / out / "results.csv") as fh:
            rows = list(csv.reader(fh))
        return [[c for j, c in enumerate(r) if j != i_ms] for r in rows]

    same = True
    for exp in ("utility", "hotspot"):
        hotspot_cfg = {"hotspot_flows": 60, "hotspot_entities": 2, "hotspot_elements": 20}
        if exp == "hotspot":
            cfg.update(hotspot_cfg)
        first = run_once(exp, f"{exp}_a")
        second = run_once(exp, f"{exp}_b")
        same = same and first == second
    assert _report(9, "determinism", same, "utility and hotspot tables identical")
