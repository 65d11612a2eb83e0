"""Scenario generation, flow-level allocation, and the comparison experiments.

A scenario freezes one simulated RAN state (element capacities, application
share bounds, number of entities, flows, translating ratios) under a seed.
Experiments sweep load multipliers over a scheme set and record flow-level
utility, per-application resource usage, and QoE satisfaction per (scheme,
load) cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .baselines import ReservationConfig, net_rsv_allocate, per_bs_rsv_allocate
from .errors import DimensionMismatch, InvalidParams, RanShareError, UnknownReference
from .fairshare import FlowPlan, SortedDemands, sort_demands, water_fill
from .model import (AllocationMatrix, FlowAllocation, Flows, ProblemInstance, UTILITY_KINDS,
                    expand_bounds, frozen, frozen_array, integers)
from .solver import SolveResult, SolverConfig, solve
from .utility import TranslatingRatios, estimate_demand

SCHEME_APP_OPT = "app-opt"
SCHEME_NET_RSV = "net-rsv"
SCHEME_PER_BS_RSV = "per-bs-rsv"
ALL_SCHEMES = (SCHEME_APP_OPT, SCHEME_NET_RSV, SCHEME_PER_BS_RSV)

QOE_SLACK = 1e-9  # a flow is QoE-satisfied when granted bandwidth >= demand - slack
LOG_FLOOR = 1e-6  # logarithmic flow utility floors a starved flow's resource here


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


@dataclass(frozen=True, eq=False)
class Scenario:
    """One simulated RAN state: the radio elements' capacities, the applications'
    share bounds, the number of entities, the flows and the translating ratios.

    Element i has capacity ``capacities[i]``; application k is guaranteed the
    fraction ``min_share[k]`` of every element's capacity and may use up to
    ``max_share[k]``.  The arrays are read-only.
    """

    capacities: np.ndarray  # (I,), finite and > 0
    min_share: np.ndarray   # (K,)
    max_share: np.ndarray   # (K,), with 0 <= min_share <= max_share <= 1
    num_entities: int
    flows: Flows
    ratios: TranslatingRatios  # (I, K): its shape sets I and K
    seed: int

    def __post_init__(self):
        num_i, num_k = self.ratios.shape
        caps = frozen_array(self.capacities, (num_i,), "capacities")
        mins = frozen_array(self.min_share, (num_k,), "min_share")
        maxs = frozen_array(self.max_share, (num_k,), "max_share")
        bad = ~(np.isfinite(caps) & (caps > 0))
        if bad.any():
            raise InvalidParams(f"element {np.argmax(bad)}: capacity must be finite and > 0")
        bad = ~((0.0 <= mins) & (mins <= maxs) & (maxs <= 1.0))
        if bad.any():
            k = np.argmax(bad)
            raise InvalidParams(f"application {k}: need 0 <= min_share <= max_share <= 1, "
                                f"got ({mins[k]}, {maxs[k]})")
        if not integers(self.num_entities) or self.num_entities < 0:
            raise InvalidParams(f"num_entities must be an integer >= 0, got {self.num_entities!r}")
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "min_share", mins)
        object.__setattr__(self, "max_share", maxs)
        if not isinstance(self.flows, Flows):
            raise InvalidParams("scenario flows must be a Flows; build one with Flows.of")
        f = self.flows
        known = ((0 <= f.element) & (f.element < num_i) & (0 <= f.app) & (f.app < num_k)
                 & (0 <= f.entity) & (f.entity < self.num_entities))
        if not known.all():
            raise InvalidParams(f"flow {f.id[np.argmin(known)]} references an unknown object")

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return False
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(Scenario))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def num_apps(self) -> int:
        return self.min_share.size

    @property
    def apps(self) -> range:
        """The application indices; kept for ``perfbench/workloads.py`` ``Sweep.check``,
        which counts them."""
        return range(self.num_apps)

    @property
    def aggregate_capacity(self) -> float:
        return float(self.capacities.sum())

    @cached_property
    def flow_plan(self) -> FlowPlan:
        """The load-invariant parts of the flow level, shared by ``scale_load``'s results."""
        return FlowPlan(self)

    @cached_property
    def resource_demand(self) -> np.ndarray:
        """Each flow's demand in resource units, at its cell's ratio; read-only.

        It changes with load, so ``scale_load`` never hands it on.
        """
        return frozen(self.flows.demand * self.flow_plan.ratio)

    @cached_property
    def cell_fill(self) -> SortedDemands:
        """The bandwidth demands sorted by (element, application) cell, as app-opt fills them.

        It changes with load, so ``scale_load`` never hands it on; a sweep
        builds each load's from the one before (see ``run_experiment``).
        """
        return sort_demands(self.flows.demand, self.flow_plan.cells)

    @cached_property
    def pair_fill(self) -> SortedDemands:
        """The resource demands sorted by (entity, element) pool, as both baselines fill them.

        It changes with load, so ``scale_load`` never hands it on; a sweep
        builds each load's from the one before (see ``run_experiment``).
        """
        return sort_demands(self.resource_demand, self.flow_plan.pairs)


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

    focus = np.arange(params.num_apps) < params.num_focus
    min_share = np.where(focus, params.focus_min_share, params.background_min_share)
    max_share = np.where(focus, params.focus_max_share, params.background_max_share)

    channel = rng.uniform(*params.channel_range, (params.num_elements, params.num_apps))
    ratios = TranslatingRatios(qoe_arranged[None, :] * channel)

    app_of = rng.integers(0, params.num_apps, params.num_flows)
    el_of = rng.integers(0, params.num_elements, params.num_flows)
    ent_of = rng.integers(0, params.num_entities, params.num_flows)
    bw = rng.uniform(*params.demand_range, params.num_flows)
    flows = Flows(np.arange(params.num_flows), ent_of, app_of, el_of, bw)
    return Scenario(capacities=frozen(caps), min_share=frozen(min_share),
                    max_share=frozen(max_share), num_entities=params.num_entities,
                    flows=flows, ratios=ratios, seed=seed)


def scale_load(scenario: Scenario, multiplier: float, flow_ids=None) -> Scenario:
    """Multiply flow bandwidth demands; all other fields unchanged.

    With ``flow_ids`` given, only those flows are scaled (hotspot sweeps).
    Entries that are not integers raise ``InvalidParams`` (bools included),
    ids that are not among the scenario's flows ``UnknownReference``.  The
    scaled scenario shares this one's flow columns other than demand, which
    are not checked again, and its ``flow_plan``, and builds its own
    ``resource_demand``, ``cell_fill`` and ``pair_fill`` when they are read.
    ``run_experiment`` resolves its flow ids to flows once per sweep and hands
    the result in place of the ids.
    """
    flows = scenario.flows
    if isinstance(flow_ids, _Chosen) and flow_ids.flows is flows:
        chosen = flow_ids.mask
    elif flow_ids is not None:
        chosen = _Chosen.of(flows, flow_ids).mask
    if not 1.0 <= multiplier < np.inf:
        raise InvalidParams("load multiplier must be finite and >= 1")
    if multiplier == 1.0:
        return scenario
    demand = flows.demand * multiplier
    if flow_ids is not None:
        demand = np.where(chosen, demand, flows.demand)
    # the flows differ from the checked ones in demand alone, so the references
    # are not checked again
    scaled = object.__new__(Scenario)
    vars(scaled).update({f.name: getattr(scenario, f.name) for f in fields(Scenario)},
                        flows=flows.with_demand(frozen(demand)), flow_plan=scenario.flow_plan)
    return scaled


class _Chosen(NamedTuple):
    """Which of ``flows`` a load scales, resolved from flow ids once for many loads."""

    flows: Flows
    mask: np.ndarray

    @classmethod
    def of(cls, flows: Flows, flow_ids) -> "_Chosen":
        ids = _flow_id_array(flow_ids)
        known = np.isin(ids, flows.id)
        if not known.all():
            raise UnknownReference(f"flow id {ids[np.argmin(known)]} is not among the flows")
        return cls(flows, frozen(np.isin(flows.id, ids)))


def _flow_id_array(flow_ids) -> np.ndarray:
    """Flow ids as an int64 array; entries that are not integers raise ``InvalidParams``."""
    if isinstance(flow_ids, np.ndarray) and flow_ids.dtype == np.int64 and flow_ids.ndim == 1:
        return flow_ids
    try:
        ids = flow_ids.tolist() if isinstance(flow_ids, np.ndarray) else list(flow_ids)
    except TypeError:
        raise InvalidParams(f"flow ids must be an iterable of integers, got {flow_ids!r}") from None
    if not integers(*ids):
        raise InvalidParams(f"flow ids must be integers, got {flow_ids!r}")
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        raise UnknownReference("a flow id lies outside the int64 range of flow ids") from None


def add_hotspot(scenario: Scenario, params: HotspotParams, seed: int) -> Scenario:
    """Append concentrated flows of one application; deterministic given the seed.

    The parameters must fit the scenario even when they add no flow.
    """
    num_e = scenario.num_entities
    num_i = scenario.capacities.size
    if not (0 <= params.app_id < scenario.num_apps):
        raise InvalidParams(f"hotspot app {params.app_id} does not exist")
    if params.n_entities > num_e or params.n_elements > num_i:
        raise InvalidParams("hotspot entity/element counts exceed the scenario sizes")
    if params.n_flows == 0:
        return scenario

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


def second_phase_allocate(scenario: Scenario, grant: AllocationMatrix) -> FlowAllocation:
    """Distribute each cell's resource grant among the cell's flows.

    Each (element, application) cell's grant, turned into bandwidth by the
    cell's translating ratio, is water-filled across the cell's flow demands;
    leftover budget stays unassigned.  The allocation is aligned with
    ``scenario.flows``.  A grant whose shape is not the scenario's cells
    raises ``DimensionMismatch``.
    """
    if grant.shape != scenario.ratios.shape:
        raise DimensionMismatch(f"grant shape {grant.shape} does not match the scenario's "
                                f"cells {scenario.ratios.shape}")
    bandwidth = frozen(water_fill(scenario.cell_fill,
                                  (grant.values / scenario.ratios.values).ravel()))
    return FlowAllocation(flow_ids=scenario.flows.id, bandwidth=bandwidth,
                          resource=frozen(bandwidth * scenario.flow_plan.ratio),
                          demand_resource=scenario.resource_demand)


def build_instance(scenario: Scenario, utility_kind: str) -> ProblemInstance:
    """Expand shares into bounds and estimate demands into utility coefficients."""
    lower, upper = expand_bounds(scenario.min_share, scenario.max_share, scenario.capacities)
    return ProblemInstance(
        capacities=scenario.capacities,
        lower=lower, upper=upper,
        coeff=estimate_demand(scenario.flows, scenario.ratios),
        utility_kind=utility_kind,
    )


def allocate_app_opt(scenario: Scenario, utility_kind: str,
                     solver_config: SolverConfig | None = None):
    """Application-level optimized allocation plus the flow-level second phase.

    Returns (FlowAllocation aligned with scenario.flows, SolveResult).
    """
    result = solve(build_instance(scenario, utility_kind), solver_config)
    return second_phase_allocate(scenario, result.allocation), result


def qoe_satisfied_count(flow_alloc: FlowAllocation, flows: Flows) -> int:
    """Number of flows whose demand was met; the allocation must be aligned with them.

    An allocation made for these flows shares their id column, and is not compared.
    """
    if flow_alloc.flow_ids is not flows.id and not np.array_equal(flow_alloc.flow_ids, flows.id):
        raise InvalidParams("flow allocation is not aligned with the flows")
    return int(np.count_nonzero(flow_alloc.bandwidth >= flows.demand - QOE_SLACK))


def flow_utility(flow_alloc: FlowAllocation, kind: str) -> float:
    """Flow-level utility: served resource (linear) or demand-weighted log of it.

    ``LOG_FLOOR`` keeps the logarithm finite for starved flows; scheme ordering
    is insensitive to its exact value.
    """
    if kind == "linear":
        return float(flow_alloc.resource.sum())
    if kind == "logarithmic":
        granted = np.maximum(flow_alloc.resource, LOG_FLOOR)
        return float(np.vdot(flow_alloc.demand_resource, np.log(granted, out=granted)))
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


def _allocate_for_scheme(scheme, scenario, utility_kind, solver_config, reservation_config):
    if scheme == SCHEME_APP_OPT:
        return allocate_app_opt(scenario, utility_kind, solver_config)
    if scheme == SCHEME_NET_RSV:
        return net_rsv_allocate(scenario, reservation_config).flow_alloc, None
    return per_bs_rsv_allocate(scenario, reservation_config).flow_alloc, None


def _row(scheme, load, scen, utility_kind, focus, solver_config,
         reservation_config) -> ExperimentRow:
    """One (scheme, load) cell of a sweep; the allocation is dropped once its row is built.

    ``focus`` indexes the flows of the application whose resource the row reports.
    """
    try:
        start = time.perf_counter()
        flow_alloc, solres = _allocate_for_scheme(
            scheme, scen, utility_kind, solver_config, reservation_config)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        app_m_res = float(flow_alloc.resource.take(focus).sum())
        return ExperimentRow(
            scheme=scheme, load=load, utility_kind=utility_kind,
            total_utility=flow_utility(flow_alloc, utility_kind),
            app_m_resource=app_m_res,
            app_m_resource_fraction=app_m_res / scen.aggregate_capacity,
            qoe_satisfied=qoe_satisfied_count(flow_alloc, scen.flows),
            flows_total=len(scen.flows),
            solve_ms=elapsed_ms,
            outer_iters=solres.outer_iters if solres is not None else 0,
        )
    except RanShareError as exc:
        return ExperimentRow(scheme=scheme, load=load, utility_kind=utility_kind,
                             error=type(exc).__name__)


def run_experiment(base: Scenario, schemes: Sequence[str], loads: Sequence[float],
                   utility_kind: str,
                   solver_config: SolverConfig | None = None,
                   reservation_config: ReservationConfig | None = None,
                   focus_app_id: int = 0,
                   scale_flow_ids=None) -> ExperimentReport:
    """Sweep (scheme x load); deterministic given the base scenario and configs.

    ``scale_flow_ids`` restricts load scaling to a flow subset (hotspot
    sweeps).  A failing cell contributes an error row instead of vanishing.
    Every entry of ``schemes`` must be one of ``ALL_SCHEMES``, ``utility_kind``
    one of ``model.UTILITY_KINDS``, and ``focus_app_id``, the application whose
    resource the rows report, one of the scenario's; otherwise the sweep raises
    ``InvalidParams`` before its first cell.  Flow ids that are not integers
    raise ``InvalidParams`` there too, and ids that are not among the flows
    ``UnknownReference``.

    Each load's scenario comes from one ``scale_load`` call, with the flow ids
    resolved once per sweep, and shares the base's ``flow_plan``, so the pool
    layouts are built once per sweep.  A load's ``cell_fill`` and
    ``pair_fill`` are sorted from the previous load's, when that load built
    them: only the pools that hold a scaled flow are sorted again, and the
    previous load's fills are dropped first.  Under uniform scaling every pool
    holds one, so each load sorts in full.
    """
    unknown = [scheme for scheme in schemes if scheme not in ALL_SCHEMES]
    if unknown:
        raise InvalidParams(f"unknown schemes {unknown!r} in {schemes!r}; valid: {ALL_SCHEMES}")
    if utility_kind not in UTILITY_KINDS:
        raise InvalidParams(f"unknown utility kind {utility_kind!r}; valid: {UTILITY_KINDS}")
    if not integers(focus_app_id) or not 0 <= focus_app_id < base.num_apps:
        raise InvalidParams(f"focus_app_id must be an application index below {base.num_apps}, "
                            f"got {focus_app_id!r}")
    chosen = None if scale_flow_ids is None else _Chosen.of(base.flows, scale_flow_ids)
    # every scheme's allocation is aligned with base.flows, so the focus
    # application's flows are the same entries at every load
    focus = np.flatnonzero(base.flows.app == focus_app_id)
    changed = {}  # per layout: the pools that hold a scaled flow
    rows, scen = [], None
    for load in loads:
        earlier = {} if scen is None else _drop_fills(scen)
        scen = scale_load(base, float(load), flow_ids=chosen)
        _carry_fills(earlier, scen, chosen, changed)
        rows.extend(_row(scheme, float(load), scen, utility_kind, focus, solver_config,
                         reservation_config) for scheme in schemes)
    if scen is not None:  # it may be the base itself, which outlives the sweep
        _drop_fills(scen)
    return ExperimentReport(rows=tuple(rows))


def _drop_fills(scen: Scenario) -> dict:
    """Remove the per-load caches of ``scen``; returns its fills by name."""
    vars(scen).pop("resource_demand", None)
    return {name: vars(scen).pop(name) for name in ("cell_fill", "pair_fill")
            if name in vars(scen)}


def _carry_fills(earlier: dict, scen: Scenario, chosen, changed: dict):
    """Sort for ``scen`` the fills in ``earlier``, dropped from a load of the same sweep.

    ``chosen`` is the sweep's scaled flows, None for all of them, and
    ``changed`` caches per layout the pools that hold one: only their rows
    are sorted again.  Each earlier fill is released as its successor is built.
    """
    def carried(fill, demands):
        layout = fill.layout
        if layout not in changed:
            changed[layout] = (np.ones(layout.num_pools, dtype=bool) if chosen is None
                               else np.bincount(layout.key, chosen.mask, layout.num_pools) > 0)
        return sort_demands(demands, layout, fill, changed[layout])

    if "cell_fill" in earlier:
        vars(scen)["cell_fill"] = carried(earlier.pop("cell_fill"), scen.flows.demand)
    if "pair_fill" in earlier:
        vars(scen)["pair_fill"] = carried(earlier.pop("pair_fill"), scen.resource_demand)
