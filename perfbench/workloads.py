"""The benchmark's workloads: inputs drawn from a seed, one timed unit each, checks.

Every workload is a closed loop with one caller: a unit starts when the
previous one has returned.  A run is a fixed list of units, so the same
seed and ``--seconds`` always give the same work.

Each workload models one operator's network under changing traffic.  The
network (element capacities, QoE factors, channel multipliers, share
bounds) is drawn once from NETWORK_SEED; unit ``j`` draws its flows from
``(seed, j)`` alone, so its reference values hold for any run length.
Solve time depends strongly on the drawn inputs (inner-iteration counts
vary by up to 1.5x at full scale and 5x at desk scale with 500 flows), so
every unit gets traffic of its own and a run averages over as many draws as
its time allows.  With 50 flows per cell (hotspot-flows) the network, not the
traffic, sets the solve time: a new network per seed moved the summed
app-opt time of one hotspot sweep by 15% (CV), a new traffic draw by 4%.

desk-linear carries 5000 flows (50 per element), not the desk scenario's
500.  With 500 flows a linear solve mostly converges but now and then runs
into plateaus or stalls that take 3-4x the median, so the total of a run
depended on how many such draws its seed held: the quartile spread over
seeds of 31-unit totals was 0.14 on a steady host, and the run would have
needed several times as many units to fall below 0.08.  At 5000 flows every
inner loop ends at ``max_inner_iters`` at every load, the per-unit time
varies by about 12%, and the spread of 5-unit totals over five seeds was
0.05.  The rank-deficient linear Hessian is still what every iteration
works on, and a solver that stops hitting the cap shows at once.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ranshare import baselines, model, sim
from ranshare.sim import ALL_SCHEMES, SCHEME_APP_OPT, HotspotParams, ScenarioParams
from ranshare.solver import SolverConfig

# Loose enough that another epsilon-optimal allocation passes: the flow-level
# utility of a sweep cell may move by 1% and its QoE fraction by 0.02.
UTILITY_RTOL = 1e-2
QOE_ATOL = 2e-2
FEASIBILITY_TOL = 1e-9

MODULES = {"sim": sim, "baselines": baselines}
NETWORK_SEED = 42


def sub_seed(seed: int, unit: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence([seed, unit, stream]).generate_state(1)[0])


def a_priori_outer_iters(aggregate_capacity, num_apps, cfg: SolverConfig) -> int:
    """Outer iterations until (B + |K|) / t <= epsilon, t = t0 * mu**n."""
    ratio = (aggregate_capacity + num_apps) / (cfg.t0 * cfg.epsilon)
    n = max(0, math.ceil(math.log(ratio) / math.log(cfg.mu) - 1e-12))
    return min(n, cfg.max_outer_iters)


def traffic(network, params, seed):
    """The network with flows drawn from ``seed`` in place of its own."""
    return replace(network, flows=sim.generate_scenario(params, seed).flows, seed=seed)


def resource_demand(scenario, scale_ids):
    """Per-flow resource demand at load 1, and a mask of the flows loads scale."""
    p = scenario.ratios.values
    el = np.array([f.element_id for f in scenario.flows])
    app = np.array([f.app_id for f in scenario.flows])
    bw = np.array([f.demand_bw for f in scenario.flows])
    if scale_ids is None:
        return bw * p[el, app], np.ones(len(bw), dtype=bool)
    ids = np.array([f.id for f in scenario.flows])
    return bw * p[el, app], np.isin(ids, np.asarray(scale_ids))


def full_service(demand, scaled, load, kind):
    """(utility if every flow got its full demand, total resource demand) at a load.

    Water-filling never grants a flow more than it asks for, so this is the
    largest flow-level utility any scheme can reach.
    """
    demand = np.where(scaled, demand * load, demand)
    top = float(demand.sum()) if kind == "linear" else float(np.vdot(demand, np.log(demand)))
    return top, float(demand.sum())


class Tally:
    """What a run adds up across its units, for the end-to-end metrics."""

    def __init__(self):
        self.period_s: list = []
        self.utility: list = []      # full-log: objectives; sweeps: (u, u_full, demand)
        self.qoe = 0
        self.flows = 0


class FullLog:
    """App-opt periods at the paper's full scale, logarithmic utility."""

    kind = "logarithmic"

    def __init__(self, params=None, nominal_unit_s=12.0):
        self.params = params or ScenarioParams.full_scale()
        self.cfg = SolverConfig(epsilon=1e-2)
        self.nominal_unit_s = nominal_unit_s

    def network(self):
        return sim.generate_scenario(replace(self.params, num_flows=0), NETWORK_SEED)

    def setup(self, network, seed, unit):
        return traffic(network, self.params, sub_seed(seed, unit))

    def run(self, scen):
        flow_alloc, result = sim.allocate_app_opt(scen, self.kind, self.cfg)
        qoe = sim.qoe_satisfied_count(flow_alloc, scen.flows)
        flow_util = sim.flow_utility(flow_alloc, self.kind)
        return result, qoe, flow_util

    def record(self, out):
        """[objective, qoe_satisfied], as stored in reference.json."""
        result, qoe, _ = out
        return [result.objective, qoe]

    def tally(self, tally: Tally, scen, out, unit_s):
        result, qoe, _ = out
        tally.period_s.append(unit_s)
        tally.utility.append(result.objective)
        tally.qoe += qoe
        tally.flows += len(scen.flows)

    def utility(self, tally: Tally):
        return float(np.mean(tally.utility))

    def check(self, scen, out, ref):
        result, qoe, flow_util = out
        eps = self.cfg.epsilon
        inst = sim.build_instance(scen, self.kind)
        fails = []
        report = model.check_feasible(inst, result.allocation, FEASIBILITY_TOL)
        if not report.feasible:
            fails.append(f"infeasible by {report.max_violation:.3g}")
        if not result.converged:
            fails.append("solve did not converge")
        if not result.gap_bound <= eps:
            fails.append(f"gap bound {result.gap_bound:.3g} > epsilon")
        if not (0 <= qoe <= len(scen.flows) and math.isfinite(flow_util)):
            fails.append("flow-level results out of range")
        if ref is not None:
            objective, want_qoe = ref
            if not abs(result.objective - objective) <= eps:
                fails.append(f"objective {result.objective!r} vs reference {objective!r}")
            if abs(qoe - want_qoe) > QOE_ATOL * len(scen.flows):
                fails.append(f"qoe {qoe} vs reference {want_qoe}")
        return [fails]


class Sweep:
    """One ``run_experiment`` sweep per unit over all three schemes."""

    def __init__(self, params, kind, loads_per_unit, epsilon, nominal_unit_s,
                 hotspot: HotspotParams | None = None):
        self.params = params
        self.kind = kind
        self.loads_per_unit = loads_per_unit
        self.cfg = SolverConfig(epsilon=epsilon)
        self.nominal_unit_s = nominal_unit_s
        self.hotspot = hotspot

    def network(self):
        return sim.generate_scenario(replace(self.params, num_flows=0), NETWORK_SEED)

    def setup(self, network, seed, unit):
        scen = traffic(network, self.params, sub_seed(seed, unit))
        scale_ids = None
        if self.hotspot is not None:
            n_base = len(scen.flows)
            scen = sim.add_hotspot(scen, self.hotspot, sub_seed(seed, unit, 1))
            scale_ids = tuple(f.id for f in scen.flows[n_base:])
        return scen, scale_ids, self.loads_per_unit(unit)

    def run(self, inputs):
        scen, scale_ids, loads = inputs
        return sim.run_experiment(scen, ALL_SCHEMES, loads, self.kind,
                                  solver_config=self.cfg, scale_flow_ids=scale_ids)

    def record(self, report):
        """Per row [scheme, load, total_utility, qoe_satisfied, flows_total]."""
        return [[r.scheme, r.load, r.total_utility, r.qoe_satisfied, r.flows_total]
                for r in report.rows]

    def tally(self, tally: Tally, inputs, report, unit_s):
        scen, scale_ids, _ = inputs
        demand_1, scaled = resource_demand(scen, scale_ids)
        for r in report.rows:
            if r.scheme != SCHEME_APP_OPT or r.error is not None:
                continue
            top, demand = full_service(demand_1, scaled, r.load, self.kind)
            tally.period_s.append(r.solve_ms / 1000.0)
            tally.utility.append((r.total_utility, top, demand))
            tally.qoe += r.qoe_satisfied
            tally.flows += r.flows_total

    def utility(self, tally: Tally):
        """App-opt flow utility as a share of full service, in (0, 1].

        Linear: served over demanded resource.  Logarithmic: the
        demand-weighted geometric mean of served over demanded resource, since
        the log utility itself changes sign with the resource unit.
        """
        u, top, demand = (sum(x) for x in zip(*tally.utility))
        if self.kind == "linear":
            return u / top
        return math.exp((u - top) / demand)

    def check(self, inputs, report, ref):
        scen, _, loads = inputs
        rows = report.rows
        per_row = [[] for _ in rows]
        unit_fails = []
        if len(rows) != len(loads) * len(ALL_SCHEMES):
            unit_fails.append(f"{len(rows)} rows for {len(loads)} loads")
        outer = a_priori_outer_iters(scen.aggregate_capacity, len(scen.apps), self.cfg)
        for fails, r in zip(per_row, rows):
            if r.error is not None:
                fails.append(f"{r.scheme} load {r.load}: {r.error}")
                continue
            if r.flows_total != len(scen.flows):
                fails.append(f"flows_total {r.flows_total} != {len(scen.flows)}")
            if not (0 <= r.qoe_satisfied <= r.flows_total and math.isfinite(r.total_utility)):
                fails.append(f"{r.scheme} load {r.load}: results out of range")
            if r.scheme == SCHEME_APP_OPT and r.outer_iters != outer:
                fails.append(f"app-opt load {r.load}: {r.outer_iters} outer iterations, "
                             f"{outer} expected")
        if ref is not None:
            if len(ref) != len(rows):
                unit_fails.append("row count differs from the reference")
            for fails, r, (scheme, load, util, qoe, flows) in zip(per_row, rows, ref):
                if (r.scheme, r.load) != (scheme, load) or r.error is not None:
                    fails.append(f"row {r.scheme}/{r.load} vs reference {scheme}/{load}")
                    continue
                if r.flows_total != flows:
                    fails.append(f"flows_total {r.flows_total} vs reference {flows}")
                if not abs(r.total_utility - util) <= UTILITY_RTOL * abs(util):
                    fails.append(f"{r.scheme} load {r.load}: utility {r.total_utility!r} "
                                 f"vs reference {util!r}")
                if abs(r.qoe_satisfied - qoe) > QOE_ATOL * r.flows_total:
                    fails.append(f"{r.scheme} load {r.load}: qoe {r.qoe_satisfied} "
                                 f"vs reference {qoe}")
        if unit_fails:
            return [fails + unit_fails for fails in per_row] or [unit_fails]
        return per_row


DESK_LOADS = tuple(float(x) for x in range(1, 11))
HOTSPOT_LOADS = (1.0, 5.0, 10.0, 15.0)


def desk_load(unit: int) -> list:
    """Unit j's load: stride 3 over 1..10, so a 5-unit run spans low to high load."""
    return [DESK_LOADS[3 * unit % len(DESK_LOADS)]]


def make_workloads(tiny: bool = False) -> dict:
    """The three workloads; ``tiny`` shrinks every size for the smoke test."""
    if tiny:
        return {
            "full-log": FullLog(ScenarioParams(num_elements=40, num_entities=4, num_apps=8,
                                               num_flows=200), nominal_unit_s=0.1),
            "desk-linear": Sweep(ScenarioParams(num_elements=20, num_apps=5, num_flows=60),
                                 "linear", desk_load, 1.0, 0.1),
            "hotspot-flows": Sweep(ScenarioParams(num_elements=20, num_apps=5, num_flows=2000),
                                   "logarithmic", lambda j: HOTSPOT_LOADS, 1.0, 0.1,
                                   HotspotParams(n_flows=400, n_elements=20)),
        }
    return {
        "full-log": FullLog(),
        "desk-linear": Sweep(ScenarioParams(num_flows=5000), "linear", desk_load, 1.0,
                             nominal_unit_s=6.8),
        "hotspot-flows": Sweep(ScenarioParams(num_flows=100_000), "logarithmic",
                               lambda j: HOTSPOT_LOADS, 1.0, nominal_unit_s=6.3,
                               hotspot=HotspotParams(n_flows=20_000)),
    }
