import numpy as np
import pytest

from ranshare import baselines
from ranshare.baselines import (ReservationConfig, net_rsv_allocate,
                                per_bs_rsv_allocate)
from ranshare.errors import InvalidParams
from ranshare.model import Flow, Flows
from ranshare.sim import Scenario, ScenarioParams, generate_scenario
from ranshare.utility import TranslatingRatios


def scenario_from(flows, capacities, num_entities=2, num_apps=2, ratio=1.0):
    ratios = TranslatingRatios(np.full((len(capacities), num_apps), ratio))
    return Scenario(capacities=capacities, min_share=np.zeros(num_apps),
                    max_share=np.ones(num_apps), num_entities=num_entities,
                    flows=Flows.of(flows), ratios=ratios, seed=0)


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
        assert np.allclose(out.flow_alloc.bandwidth, [1.0, 2.0])

    def test_scarce_budget_split_evenly(self):
        # two identical flows, budget half of their total -> each gets half
        scen = scenario_from([flow(0, 0, 0, 40.0), flow(1, 0, 0, 40.0)], [100.0])
        out = per_bs_rsv_allocate(scen)  # budget 5.0 resource units
        assert np.allclose(out.flow_alloc.resource, [2.5, 2.5])

    def test_idle_slice_not_shared(self):
        # entity 1 has no flows at the element; its 5% stays idle while
        # entity 0 overflows
        scen = scenario_from([flow(0, 0, 0, 100.0)], [100.0])
        out = per_bs_rsv_allocate(scen)
        assert out.flow_alloc.resource[0] == pytest.approx(5.0)  # capped at own slice

    def test_per_entity_element_cap(self):
        rng = np.random.default_rng(4)
        scen = generate_scenario(ScenarioParams(num_elements=10, num_entities=5,
                                                num_apps=4, num_flows=200), 7)
        cfg = ReservationConfig()
        out = per_bs_rsv_allocate(scen, cfg)
        caps = scen.capacities
        per_entity_element = out.per_entity.sum(axis=2)
        assert np.all(per_entity_element <= cfg.per_bs_fraction * caps[None, :] + 1e-9)


class TestNetRsv:
    def test_floor_binds_below_min_demand(self):
        # entity demands 1% of B -> floor of 2% applies, all flows satisfied
        scen = scenario_from([flow(0, 0, 0, 1.0)], [100.0])
        out = net_rsv_allocate(scen)
        assert out.flow_alloc.bandwidth[0] == pytest.approx(1.0)

    def test_cap_binds_above_max_demand(self):
        # entity demands 50% of B -> budget capped at 10%, a fifth of demand
        scen = scenario_from([flow(0, 0, 0, 50.0)], [100.0])
        out = net_rsv_allocate(scen)
        assert out.flow_alloc.resource[0] == pytest.approx(10.0)

    def test_clamped_budgets_partition_exactly(self):
        # 20 entities each demanding exactly 5% -> budgets sum to B, no rescale
        flows = [flow(e, e, 0, 5.0) for e in range(20)]
        scen = scenario_from(flows, [100.0], num_entities=20)
        out = net_rsv_allocate(scen)
        assert np.allclose(out.flow_alloc.resource, np.full(20, 5.0))

    def test_aggregate_usage_within_cap(self):
        scen = generate_scenario(ScenarioParams(num_elements=10, num_entities=5,
                                                num_apps=4, num_flows=300), 11)
        cfg = ReservationConfig()
        out = net_rsv_allocate(scen, cfg)
        total = scen.aggregate_capacity
        per_entity = out.per_entity.sum(axis=(1, 2))
        assert np.all(per_entity <= cfg.net_max_fraction * total + 1e-9)


@pytest.mark.parametrize("allocate", [per_bs_rsv_allocate, net_rsv_allocate])
def test_element_totals_never_exceed_capacity(allocate):
    for seed in range(5):
        scen = generate_scenario(ScenarioParams(num_elements=8, num_entities=6,
                                                num_apps=5, num_flows=400,
                                                demand_range=(0.5, 5.0)), seed)
        out = allocate(scen)
        caps = scen.capacities
        assert np.all(out.per_entity.sum(axis=(0, 2)) <= caps + 1e-9)


@pytest.mark.parametrize("allocate", [per_bs_rsv_allocate, net_rsv_allocate])
def test_flows_never_exceed_demand(allocate):
    scen = generate_scenario(ScenarioParams(num_elements=6, num_entities=4,
                                            num_apps=3, num_flows=150,
                                            demand_range=(0.5, 4.0)), 3)
    out = allocate(scen)
    demands = np.array([f.demand_bw for f in scen.flows])
    assert np.all(out.flow_alloc.bandwidth <= demands + 1e-12)
    p = np.array([scen.ratios.values[f.element_id, f.app_id] for f in scen.flows])
    assert np.allclose(out.flow_alloc.resource, out.flow_alloc.bandwidth * p, rtol=1e-12)


@pytest.mark.parametrize("allocate", [per_bs_rsv_allocate, net_rsv_allocate])
def test_per_entity_sums_flows_in_input_order(allocate):
    # 600 flows over 3 x 4 x 3 (entity, element, app) triples: every triple repeats, and
    # the sum of each must be np.add.at's, which adds its terms in input order
    scen = generate_scenario(ScenarioParams(num_elements=4, num_entities=3, num_apps=3,
                                            num_flows=600, demand_range=(0.5, 5.0)), 13)
    flows = scen.flows
    assert np.unique(np.stack([flows.entity, flows.element, flows.app]), axis=1).shape[1] < 600
    out = allocate(scen)
    want = np.zeros(out.per_entity.shape)
    np.add.at(want, (flows.entity, flows.element, flows.app), out.flow_alloc.resource)
    assert np.array_equal(out.per_entity, want)


@pytest.mark.parametrize("allocate", [per_bs_rsv_allocate, net_rsv_allocate])
def test_per_entity_is_read_only_and_summed_once(allocate):
    out = allocate(generate_scenario(ScenarioParams(num_elements=4, num_entities=3,
                                                    num_apps=3, num_flows=60), 2))
    with pytest.raises(ValueError):
        out.per_entity[0, 0, 0] = 1.0
    assert out.per_entity is out.per_entity


def _net_rsv_reference(scen, cfg=ReservationConfig()):
    """``net_rsv_allocate`` with each (entity, element) demand summed by ``np.add.at`` over
    the flows in input order."""
    flows = scen.flows
    caps = scen.capacities
    num_e, num_i = scen.num_entities, caps.size
    total_cap = float(caps.sum())
    res_demand = flows.demand * scen.ratios.values[flows.element, flows.app]
    demand_ei = np.zeros((num_e, num_i))
    np.add.at(demand_ei, (flows.entity, flows.element), res_demand)
    demand_e = demand_ei.sum(axis=1)
    budgets = np.clip(demand_e, cfg.net_min_fraction * total_cap,
                      cfg.net_max_fraction * total_cap)
    if budgets.sum() > total_cap:
        budgets *= total_cap / budgets.sum()
    remaining = caps.copy()
    reserved = np.zeros((num_e, num_i))
    eps = baselines._REDISTRIBUTE_EPS
    for e in np.flatnonzero(demand_e > 0):
        pool, alloc, active = budgets[e], np.zeros(num_i), demand_ei[e] > 0
        while pool > eps * budgets[e] and active.any():
            weights = demand_ei[e] * active
            give = np.maximum(np.minimum(pool * weights / weights.sum(), remaining - alloc), 0.0)
            alloc += give
            pool -= float(give.sum())
            active &= (remaining - alloc) > eps
            if float(give.sum()) <= eps * max(budgets[e], 1.0):
                break
        reserved[e] = alloc
        remaining -= alloc
    return baselines._fill_pools(scen, reserved)


def test_net_rsv_demand_sums_flows_in_input_order():
    # 600 flows over 3 x 4 (entity, element) pairs: every pair repeats, and the demand that
    # spreads each entity's budget must be np.add.at's sum, in input order
    scen = generate_scenario(ScenarioParams(num_elements=4, num_entities=3, num_apps=3,
                                            num_flows=600, demand_range=(0.5, 5.0)), 13)
    got, want = net_rsv_allocate(scen), _net_rsv_reference(scen)
    assert np.array_equal(got.flow_alloc.resource, want.flow_alloc.resource)
    assert np.array_equal(got.per_entity, want.per_entity)
