"""Scenario generation, flow-level allocation, and the comparison experiments.

A scenario freezes one simulated RAN state (elements, entities, applications,
flows, translating ratios) under a seed.  Experiments sweep load multipliers
over a scheme set and record flow-level utility, per-application resource
usage, and QoE satisfaction per (scheme, load) cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .baselines import ReservationConfig, net_rsv_allocate, per_bs_rsv_allocate
from .errors import InvalidParams, RanShareError
from .fairshare import water_fill
from .model import (Application, Entity, FlowAllocation, Flows, ProblemInstance,
                    RadioElement, expand_bounds, integers)
from .solver import SolveResult, SolverConfig, solve
from .utility import TranslatingRatios, estimate_demand

SCHEME_APP_OPT = "app-opt"
SCHEME_NET_RSV = "net-rsv"
SCHEME_PER_BS_RSV = "per-bs-rsv"
ALL_SCHEMES = (SCHEME_APP_OPT, SCHEME_NET_RSV, SCHEME_PER_BS_RSV)

QOE_SLACK = 1e-9  # a flow is QoE-satisfied when granted bandwidth >= demand - slack


@dataclass(frozen=True)
class ScenarioParams:
    """Counts and distribution ranges for scenario generation."""

    num_elements: int = 100
    num_entities: int = 10
    num_apps: int = 20
    num_flows: int = 500
    capacity_range: tuple = (100.0, 300.0)
    qoe_range: tuple = (0.1, 2.0)          # resource units per Mbps
    channel_range: tuple = (1.0, 2.0)      # channel-quality multiplier
    demand_range: tuple = (0.1, 1.0)       # Mbps per flow
    num_focus: int = 2                     # heaviest applications get explicit shares
    focus_min_share: float = 0.05
    focus_max_share: float = 0.40
    background_min_share: float = 1e-4
    background_max_share: float = 0.15

    def __post_init__(self):
        if not integers(self.num_elements, self.num_entities, self.num_apps, self.num_flows,
                        self.num_focus):
            raise InvalidParams("scenario counts must be integers")
        if min(self.num_elements, self.num_entities, self.num_apps) < 1 or self.num_flows < 0:
            raise InvalidParams("element/entity/app counts must be >= 1, flows >= 0")
        for name in ("capacity_range", "qoe_range", "channel_range", "demand_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi < np.inf):
                raise InvalidParams(f"{name} must satisfy 0 < low <= high < inf")
        if not (0 <= self.num_focus <= self.num_apps):
            raise InvalidParams("num_focus must lie in [0, num_apps]")

    @classmethod
    def full_scale(cls, **overrides) -> "ScenarioParams":
        base = dict(num_elements=1000, num_entities=20, num_apps=100, num_flows=5000)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class HotspotParams:
    """Extra concentrated flows for one application.

    The desk defaults push the hotspot application against its aggregate
    share cap: the extra flows must span nearly all elements, since the
    per-element bounds are uniform and capacity granted at elements the
    application has no demand on cannot be consumed.
    """

    app_id: int = 0
    n_flows: int = 600
    n_entities: int = 2
    n_elements: int = 100
    mean_bw: float = 1.0

    def __post_init__(self):
        if not integers(self.app_id, self.n_flows, self.n_entities, self.n_elements):
            raise InvalidParams("hotspot app id and counts must be integers")
        if self.n_flows < 0 or min(self.n_entities, self.n_elements) < 1:
            raise InvalidParams("hotspot flow count must be >= 0, entity/element counts >= 1")
        if not 0 < self.mean_bw < np.inf:
            raise InvalidParams("hotspot mean bandwidth must be finite and > 0")


@dataclass(frozen=True)
class Scenario:
    elements: tuple
    entities: tuple
    apps: tuple
    flows: Flows
    ratios: TranslatingRatios
    seed: int
    load_multiplier: float = 1.0

    def __post_init__(self):
        num_i, num_k = self.ratios.shape
        if num_i != len(self.elements) or num_k != len(self.apps):
            raise InvalidParams("translating-ratio dimensions do not match the scenario")
        if not isinstance(self.flows, Flows):
            raise InvalidParams("scenario flows must be a Flows; build one with Flows.of")
        f = self.flows
        known = ((0 <= f.element) & (f.element < num_i) & (0 <= f.app) & (f.app < num_k)
                 & (0 <= f.entity) & (f.entity < len(self.entities)))
        if not known.all():
            raise InvalidParams(f"flow {f.id[np.argmin(known)]} references an unknown object")

    @property
    def aggregate_capacity(self) -> float:
        return float(sum(e.capacity for e in self.elements))


def generate_scenario(params: ScenarioParams, seed: int) -> Scenario:
    """Draw one scenario; deterministic field-for-field given the seed.

    The ``num_focus`` applications with the largest QoE factors (the most
    data-consuming ones) are relabeled to ids 0, 1, ... and receive the
    explicit focus share bounds; the rest share the background bounds.
    """
    rng = np.random.default_rng(seed)
    caps = rng.uniform(*params.capacity_range, params.num_elements)
    qoe = rng.uniform(*params.qoe_range, params.num_apps)

    order = np.argsort(-qoe, kind="stable")
    focus_idx = order[:params.num_focus]
    mask = np.zeros(params.num_apps, dtype=bool)
    mask[focus_idx] = True
    qoe_arranged = np.concatenate([qoe[focus_idx], qoe[~mask]])

    total_min = (params.num_focus * params.focus_min_share
                 + (params.num_apps - params.num_focus) * params.background_min_share)
    if total_min > 1.0 + 1e-12:
        raise InvalidParams(f"share minima sum to {total_min:.6g} > 1")

    apps = []
    for k in range(params.num_apps):
        focus = k < params.num_focus
        apps.append(Application(
            id=k,
            priority=1 if focus else 0,
            qoe_factor=float(qoe_arranged[k]),
            min_share=params.focus_min_share if focus else params.background_min_share,
            max_share=params.focus_max_share if focus else params.background_max_share,
        ))
    elements = tuple(RadioElement(id=i, capacity=float(caps[i]))
                     for i in range(params.num_elements))
    entities = tuple(Entity(id=e, name=f"entity-{e:02d}") for e in range(params.num_entities))

    channel = rng.uniform(*params.channel_range, (params.num_elements, params.num_apps))
    ratios = TranslatingRatios(qoe_arranged[None, :] * channel)

    app_of = rng.integers(0, params.num_apps, params.num_flows)
    el_of = rng.integers(0, params.num_elements, params.num_flows)
    ent_of = rng.integers(0, params.num_entities, params.num_flows)
    bw = rng.uniform(*params.demand_range, params.num_flows)
    flows = Flows(np.arange(params.num_flows), ent_of, app_of, el_of, bw)
    return Scenario(elements=elements, entities=entities, apps=tuple(apps),
                    flows=flows, ratios=ratios, seed=seed)


def scale_load(scenario: Scenario, multiplier: float, flow_ids=None) -> Scenario:
    """Multiply flow bandwidth demands; all other fields unchanged.

    With ``flow_ids`` given, only those flows are scaled (hotspot sweeps);
    the scenario-level load bookkeeping then stays untouched.
    """
    if not 1.0 <= multiplier < np.inf:
        raise InvalidParams("load multiplier must be finite and >= 1")
    if multiplier == 1.0:
        return scenario
    flows = scenario.flows
    if flow_ids is None:
        chosen, new_mult = True, scenario.load_multiplier * multiplier
    else:
        chosen = np.isin(flows.id, np.fromiter(flow_ids, np.int64))
        new_mult = scenario.load_multiplier
    demand = np.where(chosen, flows.demand * multiplier, flows.demand)
    return replace(scenario, flows=replace(flows, demand=demand), load_multiplier=new_mult)


def add_hotspot(scenario: Scenario, params: HotspotParams, seed: int) -> Scenario:
    """Append concentrated flows of one application; deterministic given the seed."""
    if params.n_flows == 0:
        return scenario
    num_e = len(scenario.entities)
    num_i = len(scenario.elements)
    if not (0 <= params.app_id < len(scenario.apps)):
        raise InvalidParams(f"hotspot app {params.app_id} does not exist")
    if params.n_entities > num_e or params.n_elements > num_i:
        raise InvalidParams("hotspot entity/element counts exceed the scenario sizes")

    rng = np.random.default_rng(seed)
    ents = rng.choice(num_e, size=params.n_entities, replace=False)
    els = rng.choice(num_i, size=params.n_elements, replace=False)
    ent_of = ents[rng.integers(0, params.n_entities, params.n_flows)]
    el_of = els[rng.integers(0, params.n_elements, params.n_flows)]
    bw = rng.uniform(0.5 * params.mean_bw, 1.5 * params.mean_bw, params.n_flows)

    f = scenario.flows
    ids = f.id.max(initial=-1) + 1 + np.arange(params.n_flows)
    flows = Flows(np.append(f.id, ids), np.append(f.entity, ent_of),
                  np.append(f.app, np.full(params.n_flows, params.app_id)),
                  np.append(f.element, el_of), np.append(f.demand, bw))
    return replace(scenario, flows=flows)


def second_phase_allocate(flows: Flows, budget: float, ratio: float) -> FlowAllocation:
    """Distribute one cell's resource grant among its flows.

    The grant is converted to a bandwidth budget through the cell's
    translating ratio and water-filled across flow demands; leftover budget
    stays unassigned.
    """
    if not (0 < ratio < np.inf):
        raise InvalidParams("translating ratio must be finite and positive")
    if not budget >= 0:
        raise InvalidParams("budget must be non-negative")
    return _granted(flows, water_fill(flows.demand, budget / ratio), ratio)


def _granted(flows: Flows, bandwidth, ratio) -> FlowAllocation:
    """The allocation granting each flow its bandwidth, at its ratio."""
    return FlowAllocation(flow_ids=flows.id, bandwidth=bandwidth,
                          resource=bandwidth * ratio, demand_resource=flows.demand * ratio)


def build_instance(scenario: Scenario, utility_kind: str) -> ProblemInstance:
    """Expand shares into bounds and estimate demands into utility coefficients."""
    lower, upper, app_lower, app_upper = expand_bounds(scenario.apps, scenario.elements)
    return ProblemInstance(
        capacities=np.array([e.capacity for e in scenario.elements]),
        lower=lower, upper=upper,
        app_lower=app_lower, app_upper=app_upper,
        coeff=estimate_demand(scenario.flows, scenario.ratios),
        utility_kind=utility_kind,
    )


def allocate_app_opt(scenario: Scenario, utility_kind: str,
                     solver_config: SolverConfig | None = None):
    """Application-level optimized allocation plus the flow-level second phase.

    Returns (FlowAllocation aligned with scenario.flows, SolveResult).
    """
    inst = build_instance(scenario, utility_kind)
    result = solve(inst, solver_config)
    flows = scenario.flows
    cell = flows.element * len(scenario.apps) + flows.app
    p = scenario.ratios.values.ravel()
    # the second phase of every cell at once: each cell's grant, turned into
    # bandwidth by its ratio, is water-filled across the cell's flows
    bandwidth = water_fill(flows.demand, result.allocation.values.ravel() / p, pool=cell)
    return _granted(flows, bandwidth, p[cell]), result


def qoe_satisfied_count(flow_alloc: FlowAllocation, flows: Flows) -> int:
    """Number of flows whose demand was met; the allocation must be aligned with them."""
    if not np.array_equal(flow_alloc.flow_ids, flows.id):
        raise InvalidParams("flow allocation is not aligned with the flows")
    return int(np.count_nonzero(flow_alloc.bandwidth >= flows.demand - QOE_SLACK))


def flow_utility(flow_alloc: FlowAllocation, kind: str, log_floor: float = 1e-6) -> float:
    """Flow-level utility: served resource (linear) or demand-weighted log of it.

    The floor keeps the logarithm finite for starved flows; scheme ordering is
    insensitive to its exact value.
    """
    if kind == "linear":
        return float(flow_alloc.resource.sum())
    if kind == "logarithmic":
        granted = np.maximum(flow_alloc.resource, log_floor)
        return float(np.vdot(flow_alloc.demand_resource, np.log(granted)))
    raise InvalidParams(f"unknown utility kind {kind!r}")


@dataclass(frozen=True)
class ExperimentRow:
    scheme: str
    load: float
    utility_kind: str
    total_utility: float | None = None
    app_m_resource: float | None = None
    app_m_resource_fraction: float | None = None
    qoe_satisfied: int | None = None
    flows_total: int | None = None
    solve_ms: float | None = None
    outer_iters: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    seed: int
    utility_kind: str
    schemes: tuple
    loads: tuple


def _allocate_for_scheme(scheme, scenario, utility_kind, solver_config, reservation_config):
    if scheme == SCHEME_APP_OPT:
        return allocate_app_opt(scenario, utility_kind, solver_config)
    if scheme == SCHEME_NET_RSV:
        return net_rsv_allocate(scenario, reservation_config).flow_alloc, None
    if scheme == SCHEME_PER_BS_RSV:
        return per_bs_rsv_allocate(scenario, reservation_config).flow_alloc, None
    raise InvalidParams(f"unknown scheme {scheme!r}")


def run_experiment(base: Scenario, schemes: Sequence[str], loads: Sequence[float],
                   utility_kind: str,
                   solver_config: SolverConfig | None = None,
                   reservation_config: ReservationConfig | None = None,
                   focus_app_id: int = 0,
                   scale_flow_ids=None,
                   log_floor: float = 1e-6) -> ExperimentReport:
    """Sweep (scheme x load); deterministic given the base scenario and configs.

    ``scale_flow_ids`` restricts load scaling to a flow subset (hotspot
    sweeps).  A failing cell contributes an error row instead of vanishing.
    """
    rows = []
    for load in loads:
        scen = scale_load(base, float(load), flow_ids=scale_flow_ids)
        # every scheme's allocation is aligned with scen.flows
        m_mask = scen.flows.app == focus_app_id
        for scheme in schemes:
            try:
                start = time.perf_counter()
                flow_alloc, solres = _allocate_for_scheme(
                    scheme, scen, utility_kind, solver_config, reservation_config)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                app_m_res = float(flow_alloc.resource[m_mask].sum()) if m_mask.any() else 0.0
                rows.append(ExperimentRow(
                    scheme=scheme, load=float(load), utility_kind=utility_kind,
                    total_utility=flow_utility(flow_alloc, utility_kind, log_floor),
                    app_m_resource=app_m_res,
                    app_m_resource_fraction=app_m_res / base.aggregate_capacity,
                    qoe_satisfied=qoe_satisfied_count(flow_alloc, scen.flows),
                    flows_total=len(scen.flows),
                    solve_ms=elapsed_ms,
                    outer_iters=solres.outer_iters if solres is not None else 0,
                ))
            except RanShareError as exc:
                rows.append(ExperimentRow(
                    scheme=scheme, load=float(load), utility_kind=utility_kind,
                    error=type(exc).__name__,
                ))
    return ExperimentReport(rows=tuple(rows), seed=base.seed,
                            utility_kind=utility_kind,
                            schemes=tuple(schemes), loads=tuple(float(x) for x in loads))
