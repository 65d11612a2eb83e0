import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ranshare import baselines
from ranshare.baselines import (ReservationConfig, flow_allocation, net_rsv_allocate,
                                per_bs_rsv_allocate)
from ranshare.errors import InvalidParams
from ranshare.fairshare import water_fill
from ranshare.model import Flow, Flows
from ranshare.sim import Scenario, ScenarioParams, generate_scenario, scale_load
from ranshare.utility import TranslatingRatios

from conftest import per_entity


def scenario_from(flows, capacities, num_entities=2, num_apps=2, ratio=1.0):
    ratios = TranslatingRatios(np.full((len(capacities), num_apps), ratio))
    return Scenario(capacities=capacities, min_share=np.zeros(num_apps),
                    max_share=np.ones(num_apps), num_entities=num_entities,
                    flows=Flows(*zip(*flows)), ratios=ratios, seed=0)


def flow(fid, entity, element, bw, app=0):
    return Flow(id=fid, entity_id=entity, app_id=app, element_id=element, demand_bw=bw)


class TestReservationConfig:
    def test_fraction_bounds(self):
        with pytest.raises(InvalidParams):
            ReservationConfig(per_bs_fraction=1.5)
        with pytest.raises(InvalidParams):
            ReservationConfig(net_min_fraction=0.2, net_max_fraction=0.1)

    def test_oversubscribed_entities_rejected(self):
        scen = scenario_from([flow(0, 0, 0, 1.0)], [100.0], num_entities=30)
        with pytest.raises(InvalidParams):
            per_bs_rsv_allocate(scen, ReservationConfig(per_bs_fraction=0.05))


class TestPerBsRsv:
    def test_ample_budget_serves_all(self):
        scen = scenario_from([flow(0, 0, 0, 1.0), flow(1, 0, 0, 2.0)], [100.0])
        out = per_bs_rsv_allocate(scen)  # budget 5.0 >= demand 3.0
        assert np.allclose(out.bandwidth, [1.0, 2.0])

    def test_scarce_budget_split_evenly(self):
        # two identical flows, budget half of their total -> each gets half
        scen = scenario_from([flow(0, 0, 0, 40.0), flow(1, 0, 0, 40.0)], [100.0])
        out = per_bs_rsv_allocate(scen)  # budget 5.0 resource units
        assert np.allclose(out.resource, [2.5, 2.5])

    def test_idle_slice_not_shared(self):
        # entity 1 has no flows at the element; its 5% stays idle while
        # entity 0 overflows
        scen = scenario_from([flow(0, 0, 0, 100.0)], [100.0])
        out = per_bs_rsv_allocate(scen)
        assert out.resource[0] == pytest.approx(5.0)  # capped at own slice

    def test_per_entity_element_cap(self):
        rng = np.random.default_rng(4)
        scen = generate_scenario(ScenarioParams(num_elements=10, num_entities=5,
                                                num_apps=4, num_flows=200), 7)
        cfg = ReservationConfig()
        out = per_bs_rsv_allocate(scen, cfg)
        caps = scen.capacities
        per_entity_element = per_entity(scen, out).sum(axis=2)
        assert np.all(per_entity_element <= cfg.per_bs_fraction * caps[None, :] + 1e-9)


class TestNetRsv:
    def test_floor_binds_below_min_demand(self):
        # entity demands 1% of B -> floor of 2% applies, all flows satisfied
        scen = scenario_from([flow(0, 0, 0, 1.0)], [100.0])
        out = net_rsv_allocate(scen)
        assert out.bandwidth[0] == pytest.approx(1.0)

    def test_cap_binds_above_max_demand(self):
        # entity demands 50% of B -> budget capped at 10%, a fifth of demand
        scen = scenario_from([flow(0, 0, 0, 50.0)], [100.0])
        out = net_rsv_allocate(scen)
        assert out.resource[0] == pytest.approx(10.0)

    def test_clamped_budgets_partition_exactly(self):
        # 20 entities each demanding exactly 5% -> budgets sum to B, no rescale
        flows = [flow(e, e, 0, 5.0) for e in range(20)]
        scen = scenario_from(flows, [100.0], num_entities=20)
        out = net_rsv_allocate(scen)
        assert np.allclose(out.resource, np.full(20, 5.0))

    def test_aggregate_usage_within_cap(self):
        scen = generate_scenario(ScenarioParams(num_elements=10, num_entities=5,
                                                num_apps=4, num_flows=300), 11)
        cfg = ReservationConfig()
        out = net_rsv_allocate(scen, cfg)
        total = scen.aggregate_capacity
        per_entity_total = per_entity(scen, out).sum(axis=(1, 2))
        assert np.all(per_entity_total <= cfg.net_max_fraction * total + 1e-9)


@pytest.mark.parametrize("allocate", [per_bs_rsv_allocate, net_rsv_allocate])
def test_element_totals_never_exceed_capacity(allocate):
    for seed in range(5):
        scen = generate_scenario(ScenarioParams(num_elements=8, num_entities=6,
                                                num_apps=5, num_flows=400,
                                                demand_range=(0.5, 5.0)), seed)
        out = allocate(scen)
        caps = scen.capacities
        assert np.all(per_entity(scen, out).sum(axis=(0, 2)) <= caps + 1e-9)


@pytest.mark.parametrize("allocate", [per_bs_rsv_allocate, net_rsv_allocate])
def test_flows_never_exceed_demand(allocate):
    scen = generate_scenario(ScenarioParams(num_elements=6, num_entities=4,
                                            num_apps=3, num_flows=150,
                                            demand_range=(0.5, 4.0)), 3)
    out = allocate(scen)
    demands = np.array([f.demand_bw for f in scen.flows])
    assert np.all(out.bandwidth <= demands + 1e-12)
    p = np.array([scen.ratios.values[f.element_id, f.app_id] for f in scen.flows])
    assert np.allclose(out.resource, out.bandwidth * p, rtol=1e-12)


def _net_rsv_inputs(scen, cfg=ReservationConfig()):
    """(demand_ei, budgets) of ``net_rsv_allocate``, with each (entity, element) demand
    summed by ``np.add.at`` over the flows in input order."""
    flows = scen.flows
    caps = scen.capacities
    total_cap = float(caps.sum())
    res_demand = flows.demand * scen.ratios.values[flows.element, flows.app]
    demand_ei = np.zeros((scen.num_entities, caps.size))
    np.add.at(demand_ei, (flows.entity, flows.element), res_demand)
    budgets = np.clip(demand_ei.sum(axis=1), cfg.net_min_fraction * total_cap,
                      cfg.net_max_fraction * total_cap)
    if budgets.sum() > total_cap:
        budgets *= total_cap / budgets.sum()
    return demand_ei, budgets


def _net_rsv_reference(scen):
    """``net_rsv_allocate`` on the demands of :func:`_net_rsv_inputs`."""
    demand_ei, budgets = _net_rsv_inputs(scen)
    budget = baselines._reserve(demand_ei, budgets, scen.capacities)
    return flow_allocation(scen, water_fill(scen.pair_fill, budget.ravel()))


def test_net_rsv_demand_sums_flows_in_input_order():
    # 600 flows over 3 x 4 (entity, element) pairs: every pair repeats, and the demand that
    # spreads each entity's budget must be np.add.at's sum, in input order
    scen = generate_scenario(ScenarioParams(num_elements=4, num_entities=3, num_apps=3,
                                            num_flows=600, demand_range=(0.5, 5.0)), 13)
    got, want = net_rsv_allocate(scen), _net_rsv_reference(scen)
    for name in ("flow_ids", "bandwidth", "resource", "demand_resource"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def _proportional_spread(demand_ei, budgets, capacities, eps=1e-12):
    """Each entity's budget spread in proportion to its demand, truncated by the remaining
    capacity, with the excess spread again over the elements not yet full, round by round:
    an independent reference for ``baselines._reserve``, which it matches to rounding."""
    remaining = capacities.copy()
    reserved = np.zeros(demand_ei.shape)
    for e, budget in enumerate(budgets):
        pool, alloc, active = budget, np.zeros(capacities.size), demand_ei[e] > 0
        while pool > eps * budget and active.any():
            weights = demand_ei[e] * active
            give = np.maximum(np.minimum(pool * weights / weights.sum(), remaining - alloc), 0.0)
            alloc += give
            pool -= float(give.sum())
            active &= (remaining - alloc) > eps
            if float(give.sum()) <= eps * max(budget, 1.0):
                break
        reserved[e] = alloc
        remaining -= alloc
    return reserved


def _reserve_cases():
    """(demand_ei, budgets, capacities): the 5,000-flow desk scenario at loads 1, 4 and 10,
    where most spreads saturate an element, and a hand-made one where entity 0's budget
    exceeds the capacity of the one element it demands."""
    for seed in range(2):
        base = generate_scenario(ScenarioParams(num_flows=5000), seed)
        for load in (1.0, 4.0, 10.0):
            scen = scale_load(base, load)
            yield (*_net_rsv_inputs(scen), scen.capacities)
    scen = scenario_from([flow(0, 0, 0, 50.0), flow(1, 1, 0, 0.5), flow(2, 1, 1, 20.0)],
                         [1.0, 100.0])
    yield (*_net_rsv_inputs(scen), scen.capacities)


def test_reserve_spends_each_budget_or_fills_every_demanded_element():
    fills = 0
    for demand_ei, budgets, caps in _reserve_cases():
        got = baselines._reserve(demand_ei, budgets, caps)
        np.testing.assert_allclose(got, _proportional_spread(demand_ei, budgets, caps),
                                   rtol=1e-11, atol=0)
        remaining = caps.copy()
        for e, budget in enumerate(budgets):
            demanded = demand_ei[e] > 0
            assert np.all(got[e] <= remaining) and np.all(got[e][~demanded] == 0.0)
            if np.array_equal(got[e][demanded], remaining[demanded]):
                fills += demanded.any()
            else:
                assert got[e].sum() == pytest.approx(budget, rel=1e-12, abs=0)
            remaining -= got[e]
    assert fills >= 1


@lru_cache(maxsize=None)
def _desk_at_load(seed, load):
    """The 5,000-flow desk scenario at a load where net-rsv's spread saturates elements."""
    return scale_load(generate_scenario(ScenarioParams(num_flows=5000), seed), load)


def _in_units_of(scen, k):
    """``scen`` with capacities and flow demands multiplied by 2^k, exactly."""
    flows = dataclasses.replace(scen.flows, demand=np.ldexp(scen.flows.demand, k))
    return dataclasses.replace(scen, capacities=np.ldexp(scen.capacities, k), flows=flows)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-80, 80), seed=st.integers(0, 3), load=st.sampled_from([4.0, 10.0]))
@example(k=-60, seed=1, load=10.0)
def test_baselines_scale_exactly_with_the_unit(k, seed, load):
    # multiplying by 2^k is exact, so every reserve, fill and ratio scales bit for bit; QoE
    # counts are not compared, since QOE_SLACK is absolute
    unit = _desk_at_load(seed, load)
    scaled = _in_units_of(unit, k)
    for allocate in (net_rsv_allocate, per_bs_rsv_allocate):
        want, got = allocate(unit), allocate(scaled)
        assert np.array_equal(got.resource, np.ldexp(want.resource, k)), allocate.__name__
        assert np.array_equal(got.bandwidth, np.ldexp(want.bandwidth, k)), allocate.__name__
