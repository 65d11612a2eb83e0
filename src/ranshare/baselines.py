"""Operator-oriented reservation baselines.

Both schemes budget resource per entity, then serve each entity's flows with
the same max-min water-filling used at the flow level elsewhere, so the
comparison isolates the reservation policy rather than the flow scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams
from .fairshare import FlowPlan, water_fill
from .model import FlowAllocation, frozen

_REDISTRIBUTE_EPS = 1e-12


@dataclass(frozen=True)
class ReservationConfig:
    per_bs_fraction: float = 0.05   # per-entity reservation at each element
    net_min_fraction: float = 0.02  # per-entity aggregate floor
    net_max_fraction: float = 0.10  # per-entity aggregate cap

    def __post_init__(self):
        for name in ("per_bs_fraction", "net_min_fraction", "net_max_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidParams(f"{name} must lie in [0, 1], got {v}")
        if self.net_min_fraction > self.net_max_fraction:
            raise InvalidParams("net_min_fraction cannot exceed net_max_fraction")


@dataclass(frozen=True)
class EntityAllocation:
    """Resource actually delivered to each entity's flows, plus the flow detail."""

    flow_alloc: FlowAllocation   # aligned with the scenario's flow order
    plan: FlowPlan               # the scenario's: its (entity, element) pools and apps

    @cached_property
    def per_entity(self) -> np.ndarray:
        """(E, I, K) resource attributed to flows, summed in flow order when first read."""
        plan = self.plan
        shape = (plan.num_entities, *plan.ratios.shape)
        index = plan.pairs.key.astype(np.intp) * shape[2] + plan.flows.app
        return frozen(np.bincount(index, self.flow_alloc.resource, np.prod(shape))).reshape(shape)


def _fill_pools(scenario, budget):
    """Water-fill each (entity, element) pool of the scenario's flows under budget[e, i].

    The demands are ``scenario.pair_fill``, sorted once per scenario, so both
    baselines at one load share that half of the fill.
    """
    plan = scenario.flow_plan
    alloc_res = water_fill(scenario.pair_fill, budget.ravel())
    # TranslatingRatios are strictly positive, so the division is safe
    flow_alloc = FlowAllocation(flow_ids=scenario.flows.id,
                                bandwidth=frozen(alloc_res / plan.ratio),
                                resource=frozen(alloc_res),
                                demand_resource=scenario.resource_demand)
    return EntityAllocation(flow_alloc, plan)


def per_bs_rsv_allocate(scenario, cfg: ReservationConfig | None = None) -> EntityAllocation:
    """Fixed per-element reservation: entity e owns fraction rho of every element.

    Budgets are hard and never shared, so an entity without flows at an
    element idles its slice even when other entities overflow there.
    """
    cfg = cfg or ReservationConfig()
    num_e = scenario.num_entities
    if num_e * cfg.per_bs_fraction > 1.0 + 1e-12:
        raise InvalidParams(
            f"{num_e} entities at per_bs_fraction={cfg.per_bs_fraction} oversubscribe elements"
        )
    return _fill_pools(scenario, np.tile(cfg.per_bs_fraction * scenario.capacities, (num_e, 1)))


def net_rsv_allocate(scenario, cfg: ReservationConfig | None = None) -> EntityAllocation:
    """Network-wide reservation with demand-adaptive budgets.

    Each entity's aggregate budget is its total resource demand clamped into
    [net_min, net_max] fractions of the aggregate capacity (rescaled if the
    budgets oversubscribe it).  The budget is spread over elements in
    proportion to the entity's per-element demand, truncated by remaining
    element capacity with the excess re-spread over the entity's other
    elements.  Reserved amounts are held even if the entity's flows cannot
    use them (reservation semantics).
    """
    cfg = cfg or ReservationConfig()
    num_e = scenario.num_entities
    caps = scenario.capacities
    num_i = caps.size
    total_cap = scenario.aggregate_capacity

    demand_ei = np.bincount(scenario.flow_plan.pairs.key, scenario.resource_demand,
                            num_e * num_i).reshape(num_e, num_i)
    demand_e = demand_ei.sum(axis=1)

    budgets = np.clip(demand_e, cfg.net_min_fraction * total_cap,
                      cfg.net_max_fraction * total_cap)
    if budgets.sum() > total_cap:
        budgets *= total_cap / budgets.sum()

    remaining = caps.copy()
    reserved = np.zeros((num_e, num_i))
    for e in range(num_e):
        if demand_e[e] <= 0:
            continue  # nothing to spread the budget over
        pool = budgets[e]
        alloc = np.zeros(num_i)
        active = demand_ei[e] > 0
        while pool > _REDISTRIBUTE_EPS * budgets[e] and active.any():
            weights = demand_ei[e] * active
            share = pool * weights / weights.sum()
            give = np.minimum(share, remaining - alloc)
            give = np.maximum(give, 0.0)
            given = float(give.sum())
            alloc += give
            pool -= given
            active &= (remaining - alloc) > _REDISTRIBUTE_EPS
            if given <= _REDISTRIBUTE_EPS * max(budgets[e], 1.0):
                break
        reserved[e] = alloc
        remaining -= alloc
    return _fill_pools(scenario, reserved)
