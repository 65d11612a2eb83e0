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
from typing import Sequence

import numpy as np

from .baselines import ReservationConfig, flow_allocation, net_rsv_allocate, per_bs_rsv_allocate
from .errors import DimensionMismatch, InvalidParams, RanShareError, UnknownReference
from .fairshare import FlowPlan, SortedDemands, chunks, water_fill
from .model import (AllocationMatrix, FlowAllocation, Flows, ProblemInstance, UTILITY_KINDS,
                    expand_bounds, frozen, frozen_array, integers, reals)
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
        for name in ("focus_min_share", "focus_max_share", "background_min_share",
                     "background_max_share"):
            if not reals(getattr(self, name)):
                raise InvalidParams(f"{name} must be a real number, got {getattr(self, name)!r}")
        for name in ("capacity_range", "qoe_range", "channel_range", "demand_range"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):  # not a pair
                lo = hi = None
            if not (reals(lo, hi) and 0 < lo <= hi < np.inf):
                raise InvalidParams(f"{name} must be a pair of real numbers with "
                                    f"0 < low <= high < inf, got {getattr(self, name)!r}")
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
        if not (reals(self.mean_bw) and 0 < self.mean_bw < np.inf):
            raise InvalidParams("hotspot mean bandwidth must be a finite real number > 0")


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
        if not isinstance(self.ratios, TranslatingRatios):
            raise InvalidParams(f"scenario ratios must be a TranslatingRatios, "
                                f"got {type(self.ratios).__name__}")
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
        _checked_seed(self.seed)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "min_share", mins)
        object.__setattr__(self, "max_share", maxs)
        if not isinstance(self.flows, Flows):
            raise InvalidParams(f"scenario flows must be a Flows of columns, "
                                f"got {type(self.flows).__name__}")
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
        """The flow level (see ``FlowPlan``), shared by ``scale_load``'s results."""
        return FlowPlan(self)

    @property
    def resource_demand(self) -> np.ndarray:
        """Each flow's demand in resource units, at its cell's ratio; read-only."""
        return self.flow_plan.resource_demand(self.flows.demand)

    @property
    def cell_fill(self) -> SortedDemands:
        """The resource demands sorted by (element, application) cell, as app-opt fills."""
        return self.flow_plan.cell_fill(self.flows.demand)

    @property
    def pair_fill(self) -> SortedDemands:
        """The resource demands sorted by (entity, element) pool, as the baselines fill."""
        return self.flow_plan.pair_fill(self.flows.demand)


def _checked_seed(seed):
    """``seed``; one that is not a non-negative integer (a bool, None, a float or a
    string) raises ``InvalidParams``.  Numpy integers are accepted."""
    if not integers(seed) or seed < 0:
        raise InvalidParams(f"a seed must be a non-negative integer, got {seed!r}")
    return seed


def _rng(seed) -> np.random.Generator:
    """The generator of ``seed``, checked by ``_checked_seed``."""
    return np.random.default_rng(_checked_seed(seed))


def _multiplier(load) -> float:
    """``load`` as a float; one that is not a real number (a bool, None or a string),
    or not finite and >= 1, raises ``InvalidParams``."""
    if not (reals(load) and 1.0 <= load < np.inf):
        raise InvalidParams(f"a load multiplier must be a finite real number >= 1, "
                            f"got {load!r}")
    return float(load)


def generate_scenario(params: ScenarioParams, seed: int) -> Scenario:
    """Draw one scenario; deterministic field-for-field given the seed.

    The ``num_focus`` applications with the largest QoE factors (the most
    data-consuming ones) are relabeled to ids 0, 1, ... and receive the
    explicit focus share bounds; the rest share the background bounds.  A
    seed that is not a non-negative integer raises ``InvalidParams``.
    """
    rng = _rng(seed)
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
    ratios = TranslatingRatios(frozen(qoe_arranged[None, :] * channel))

    app_of = rng.integers(0, params.num_apps, params.num_flows)
    el_of = rng.integers(0, params.num_elements, params.num_flows)
    ent_of = rng.integers(0, params.num_entities, params.num_flows)
    bw = rng.uniform(*params.demand_range, params.num_flows)
    # fresh columns, handed over frozen so that Flows shares them
    flows = Flows(*map(frozen, (np.arange(params.num_flows), ent_of, app_of, el_of, bw)))
    return Scenario(capacities=frozen(caps), min_share=frozen(min_share),
                    max_share=frozen(max_share), num_entities=params.num_entities,
                    flows=flows, ratios=ratios, seed=seed)


def scale_load(scenario: Scenario, multiplier: float, scaled=None) -> Scenario:
    """Multiply flow bandwidth demands; all other fields unchanged.

    With ``scaled``, one bool per flow, only the flows it marks are scaled
    (hotspot sweeps).  A mask that is not bool raises ``InvalidParams``, one
    of another length ``DimensionMismatch``, at every multiplier, and so
    does a multiplier that is not a finite real number >= 1.  The
    scaled scenario shares this one's flow columns other than demand, which
    the ``Flows`` constructor takes as they are, with no pass over their
    data, and its ``flow_plan``, which sorts its ``cell_fill`` and
    ``pair_fill`` from the plan's last forms, again only where demands changed.
    ``run_experiment`` resolves its flow ids into this mask once per sweep.
    """
    flows = scenario.flows
    if scaled is not None:
        scaled = np.asarray(scaled)
        if scaled.dtype != bool:
            raise InvalidParams(f"scaled must mark the flows with bools, got {scaled.dtype}")
        if scaled.shape != flows.demand.shape:
            raise DimensionMismatch(f"a mask of shape {scaled.shape} for {len(flows)} flows")
    multiplier = _multiplier(multiplier)
    if multiplier == 1.0:
        return scenario
    demand = flows.demand * multiplier
    if scaled is not None:
        demand = np.where(scaled, demand, flows.demand)
    # the flows differ from the checked ones in demand alone, so the references
    # are not checked again
    out = object.__new__(Scenario)
    vars(out).update({f.name: getattr(scenario, f.name) for f in fields(Scenario)},
                     flows=replace(flows, demand=frozen(demand)),
                     flow_plan=scenario.flow_plan)
    return out


def _flow_mask(flows: Flows, flow_ids) -> np.ndarray:
    """One bool per flow, marking the flows whose ids are among ``flow_ids``.

    Entries that are not integers raise ``InvalidParams`` (bools included),
    ids that are not among the flows ``UnknownReference``.
    """
    try:
        ids = list(flow_ids.tolist() if isinstance(flow_ids, np.ndarray) else flow_ids)
    except TypeError:
        raise InvalidParams(f"flow ids must be an iterable of integers, "
                            f"got {flow_ids!r}") from None
    if not integers(*ids):
        raise InvalidParams(f"flow ids must be integers, got {flow_ids!r}")
    try:
        ids = np.array(ids, dtype=np.int64)
    except OverflowError:
        raise UnknownReference("a flow id lies outside the int64 range of flow ids") from None
    known = np.isin(ids, flows.id)
    if not known.all():
        raise UnknownReference(f"flow id {ids[np.argmin(known)]} is not among the flows")
    return frozen(np.isin(flows.id, ids))


def add_hotspot(scenario: Scenario, params: HotspotParams, seed: int) -> Scenario:
    """Append concentrated flows of one application; deterministic given the seed.

    The parameters and the seed must fit the scenario even when they add no
    flow; a seed that is not a non-negative integer raises ``InvalidParams``.
    """
    rng = _rng(seed)
    num_e = scenario.num_entities
    num_i = scenario.capacities.size
    if not (0 <= params.app_id < scenario.num_apps):
        raise InvalidParams(f"hotspot app {params.app_id} does not exist")
    if params.n_entities > num_e or params.n_elements > num_i:
        raise InvalidParams("hotspot entity/element counts exceed the scenario sizes")
    if params.n_flows == 0:
        return scenario

    ents = rng.choice(num_e, size=params.n_entities, replace=False)
    els = rng.choice(num_i, size=params.n_elements, replace=False)
    ent_of = ents[rng.integers(0, params.n_entities, params.n_flows)]
    el_of = els[rng.integers(0, params.n_elements, params.n_flows)]
    bw = rng.uniform(0.5 * params.mean_bw, 1.5 * params.mean_bw, params.n_flows)

    f = scenario.flows
    ids = f.id.max(initial=-1) + 1 + np.arange(params.n_flows)
    # fresh columns, handed over frozen so that Flows shares them
    flows = Flows(*map(frozen, (np.append(f.id, ids), np.append(f.entity, ent_of),
                                np.append(f.app, np.full(params.n_flows, params.app_id)),
                                np.append(f.element, el_of), np.append(f.demand, bw))))
    return replace(scenario, flows=flows)


def second_phase_allocate(scenario: Scenario, grant: AllocationMatrix) -> FlowAllocation:
    """Distribute each cell's resource grant among the cell's flows.

    Each (element, application) cell's grant is water-filled across its flows'
    resource demands, as the baselines fill, and max-min fair in bandwidth too,
    since a cell's flows share its ratio; leftover budget stays unassigned.  A
    grant whose shape is not the scenario's cells raises ``DimensionMismatch``.
    """
    if grant.shape != scenario.ratios.shape:
        raise DimensionMismatch(f"grant shape {grant.shape} does not match the scenario's "
                                f"cells {scenario.ratios.shape}")
    return flow_allocation(scenario, water_fill(scenario.cell_fill, grant.values.ravel()))


def build_instance(scenario: Scenario, utility_kind: str) -> ProblemInstance:
    """Expand shares into bounds and estimate demands into utility coefficients."""
    lower, upper = expand_bounds(scenario.min_share, scenario.max_share, scenario.capacities)
    return ProblemInstance(
        capacities=scenario.capacities,
        lower=frozen(lower), upper=frozen(upper),
        coeff=estimate_demand(scenario),
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
    The flows are counted a cache-sized chunk at a time (``fairshare.chunks``), so
    no flow-length temporary is made.
    """
    if flow_alloc.flow_ids is not flows.id and not np.array_equal(flow_alloc.flow_ids, flows.id):
        raise InvalidParams("flow allocation is not aligned with the flows")
    granted, demand, met = flow_alloc.bandwidth, flows.demand, 0
    for part, need in chunks(demand.size):
        np.subtract(demand[part], QOE_SLACK, out=need)
        met += np.count_nonzero(granted[part] >= need)
    return int(met)


def flow_utility(flow_alloc: FlowAllocation, kind: str) -> float:
    """Flow-level utility: served resource (linear) or demand-weighted log of it.

    ``LOG_FLOOR`` keeps the logarithm finite for starved flows; scheme ordering
    is insensitive to its exact value.  The log utility is summed a cache-sized
    chunk at a time (``fairshare.chunks``), so no flow-length temporary is made;
    the chunks' dot products add up in chunk order.
    """
    if kind == "linear":
        return float(flow_alloc.resource.sum())
    if kind == "logarithmic":
        resource, weight, total = flow_alloc.resource, flow_alloc.demand_resource, 0.0
        for part, granted in chunks(resource.size):
            np.maximum(resource[part], LOG_FLOOR, out=granted)
            total += np.vdot(weight[part], np.log(granted, out=granted))
        return float(total)
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
        return net_rsv_allocate(scenario, reservation_config), None
    return per_bs_rsv_allocate(scenario, reservation_config), None


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
    ``InvalidParams`` before its first cell.  Loads that are no iterable (a
    bare number or None), loads that are not finite real numbers >= 1
    (bools, strings and None included) and flow ids that are not integers
    raise ``InvalidParams`` there too, and ids that are not among the flows
    ``UnknownReference``.

    Each load's scenario comes from one ``scale_load`` call, with the flow ids
    resolved once per sweep into its mask of scaled flows, and shares the
    base's ``flow_plan``, so the pool layouts are built once per sweep.  Before
    a load's rows are timed, the sweep reads what they fill: ``cell_fill``
    when app-opt runs, ``pair_fill`` when a baseline does.  The plan sorts
    each from the previous load's form, again only in the groups where some
    demand changed, and drops that form.  When the sweep ends, even by
    raising, the whole plan is released, its layouts and ratios too, so the
    base keeps no flow-length array the sweep built.  A demand that cannot be
    sorted raises from the sweep, at any load.
    """
    unknown = [scheme for scheme in schemes if scheme not in ALL_SCHEMES]
    if unknown:
        raise InvalidParams(f"unknown schemes {unknown!r} in {schemes!r}; valid: {ALL_SCHEMES}")
    if utility_kind not in UTILITY_KINDS:
        raise InvalidParams(f"unknown utility kind {utility_kind!r}; valid: {UTILITY_KINDS}")
    if not integers(focus_app_id) or not 0 <= focus_app_id < base.num_apps:
        raise InvalidParams(f"focus_app_id must be an application index below {base.num_apps}, "
                            f"got {focus_app_id!r}")
    try:
        loads = list(loads)
    except TypeError:
        raise InvalidParams(f"loads must be an iterable of load multipliers, "
                            f"got {loads!r}") from None
    loads = [_multiplier(load) for load in loads]
    scaled = None if scale_flow_ids is None else _flow_mask(base.flows, scale_flow_ids)
    # every scheme's allocation is aligned with base.flows, so the focus
    # application's flows are the same entries at every load
    focus = np.flatnonzero(base.flows.app == focus_app_id)
    plan, rows = base.flow_plan, []
    try:
        for load in loads:
            scen = scale_load(base, load, scaled)
            # the forms, built before any row is timed, over the resource demand every row reads
            if SCHEME_APP_OPT in schemes:
                plan.cell_fill(scen.flows.demand)
            if any(scheme != SCHEME_APP_OPT for scheme in schemes):
                plan.pair_fill(scen.flows.demand)
            rows.extend(_row(scheme, load, scen, utility_kind, focus, solver_config,
                             reservation_config) for scheme in schemes)
    finally:
        plan.release()
    return ExperimentReport(rows=tuple(rows))
