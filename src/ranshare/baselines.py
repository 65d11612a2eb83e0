"""Operator-oriented reservation baselines.

Both schemes budget resource per entity, then serve each entity's flows with
the same max-min water-filling used at the flow level elsewhere, so the
comparison isolates the reservation policy rather than the flow scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .fairshare import water_fill
from .model import FlowAllocation, frozen, reals


@dataclass(frozen=True)
class ReservationConfig:
    per_bs_fraction: float = 0.05   # per-entity reservation at each element
    net_min_fraction: float = 0.02  # per-entity aggregate floor
    net_max_fraction: float = 0.10  # per-entity aggregate cap

    def __post_init__(self):
        for name in ("per_bs_fraction", "net_min_fraction", "net_max_fraction"):
            v = getattr(self, name)
            if not (reals(v) and 0.0 <= v <= 1.0):
                raise InvalidParams(f"{name} must be a real number in [0, 1], got {v!r}")
        if self.net_min_fraction > self.net_max_fraction:
            raise InvalidParams("net_min_fraction cannot exceed net_max_fraction")


def flow_allocation(scenario, resource) -> FlowAllocation:
    """The allocation of the ``resource`` a scheme filled, aligned with ``scenario.flows``:
    each flow's bandwidth is its resource over its ratio, its demand the load's resource
    demand, which the sorted forms of both baselines (``pair_fill``) and app-opt hold."""
    # TranslatingRatios are strictly positive, so the division is safe
    return FlowAllocation(flow_ids=scenario.flows.id,
                          bandwidth=frozen(resource / scenario.flow_plan.ratio),
                          resource=frozen(resource),
                          demand_resource=scenario.resource_demand)


def per_bs_rsv_allocate(scenario, cfg: ReservationConfig | None = None) -> FlowAllocation:
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
    budget = np.tile(cfg.per_bs_fraction * scenario.capacities, num_e)
    return flow_allocation(scenario, water_fill(scenario.pair_fill, budget))


def _reserve(demand_ei, budgets, capacities):
    """Each entity's reserves, entity by entity on the capacity the ones before it left.

    Entity e reserves min(lam * d_i, rem_i) at each element it demands (d_i > 0): lam = inf
    when that fits its budget, else the reserves sum to it.  One breakpoint search over
    rem_i / d_i finds lam (Patriksson 2008).  Sorted stably, breakpoint j spends
    sum_{l<j} rem_l + (rem_j / d_j) sum_{l>=j} d_l; with j the count of spends below the
    budget (rounding can leave them out of order), lam = (budget - sum_{l<j} rem_l) /
    sum_{l>=j} d_l.
    """
    remaining = capacities.copy()
    reserved = np.zeros(demand_ei.shape)
    for e, budget in enumerate(budgets):
        cells = np.flatnonzero(demand_ei[e] > 0)
        d, rem = demand_ei[e, cells], remaining[cells]
        ratio = rem / d
        order = np.argsort(ratio, kind="stable")
        spent = np.zeros(cells.size + 1)  # on the elements before each breakpoint
        np.cumsum(rem[order], out=spent[1:])
        unsaturated = np.cumsum(d[order][::-1])[::-1]  # the demand from each breakpoint on
        j = np.count_nonzero(spent[:-1] + ratio[order] * unsaturated < budget)
        lam = (budget - spent[j]) / unsaturated[j] if j < cells.size else np.inf
        reserved[e, cells] = np.minimum(lam * d, rem)
        remaining[cells] -= reserved[e, cells]
    return reserved


def net_rsv_allocate(scenario, cfg: ReservationConfig | None = None) -> FlowAllocation:
    """Network-wide reservation with demand-adaptive budgets.

    Each entity's aggregate budget is its total resource demand clamped into
    [net_min, net_max] fractions of the aggregate capacity (rescaled if the
    budgets oversubscribe it), and spread as min(lam * demand, remaining
    capacity) over the elements it demands (:func:`_reserve`), so the reserves
    scale exactly with the unit.  Reserved amounts are held even if the
    entity's flows cannot use them (reservation semantics).
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
    return flow_allocation(scenario, water_fill(scenario.pair_fill,
                                                _reserve(demand_ei, budgets, caps).ravel()))
