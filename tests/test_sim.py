import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ranshare
from ranshare import sim
from ranshare.baselines import ReservationConfig, net_rsv_allocate, per_bs_rsv_allocate
from ranshare.errors import DimensionMismatch, InvalidParams, UnknownReference
from ranshare.fairshare import sort_demands, water_fill
from ranshare.model import AllocationMatrix, Flow, FlowAllocation, Flows, check_feasible
from ranshare.sim import (ALL_SCHEMES, HotspotParams, Scenario, ScenarioParams, add_hotspot,
                          allocate_app_opt, build_instance, flow_utility,
                          generate_scenario, qoe_satisfied_count, run_experiment,
                          scale_load, second_phase_allocate, SCHEME_APP_OPT)
from ranshare.solver import SolverConfig
from ranshare.utility import TranslatingRatios, estimate_demand


DESK = ScenarioParams(num_elements=20, num_entities=5, num_apps=6, num_flows=120)


def qoe_factors(params, seed):
    """Each application's QoE factor in the scenario drawn from ``seed``: its ratios over
    the seed's channel multipliers, which ``generate_scenario`` draws third."""
    rng = np.random.default_rng(seed)
    rng.uniform(*params.capacity_range, params.num_elements)
    rng.uniform(*params.qoe_range, params.num_apps)
    channel = rng.uniform(*params.channel_range, (params.num_elements, params.num_apps))
    factors = generate_scenario(params, seed).ratios.values / channel
    assert np.allclose(factors, factors[0], rtol=1e-14, atol=0.0)  # one factor per column
    return factors[0]


class TestGenerateScenario:
    def test_same_seed_identical(self):
        a = generate_scenario(DESK, 9)
        b = generate_scenario(DESK, 9)
        assert a == b

    def test_different_seed_differs(self):
        assert generate_scenario(DESK, 1) != generate_scenario(DESK, 2)

    def test_equality_reads_every_field(self):
        scen = generate_scenario(DESK, 9)
        assert scen == replace(scen)
        for change in (dict(capacities=2.0 * scen.capacities), dict(min_share=scen.min_share / 2),
                       dict(max_share=scen.max_share / 2), dict(num_entities=6), dict(seed=10)):
            assert scen != replace(scen, **change)

    def test_ranges_respected(self):
        scen = generate_scenario(ScenarioParams(), 5)
        assert scen.capacities.min() >= 100.0 and scen.capacities.max() <= 300.0
        qoe = qoe_factors(ScenarioParams(), 5)
        assert qoe.min() >= 0.1 * (1 - 1e-14) and qoe.max() <= 2.0 * (1 + 1e-14)
        assert scen.ratios.values.min() >= 0.1 and scen.ratios.values.max() <= 4.0
        bw = np.array([f.demand_bw for f in scen.flows])
        assert bw.min() >= 0.1 and bw.max() <= 1.0

    def test_focus_apps_have_heaviest_qoe_and_shares(self):
        scen = generate_scenario(ScenarioParams(), 5)
        qoe = qoe_factors(ScenarioParams(), 5)
        assert qoe[0] >= qoe.max() * (1 - 1e-14)
        assert qoe[1] >= np.sort(qoe)[-2] * (1 - 1e-14)
        assert scen.min_share[0] == 0.05 and scen.max_share[0] == 0.40
        assert scen.min_share[1] == 0.05 and scen.max_share[1] == 0.40
        assert scen.min_share[2] == pytest.approx(1e-4)

    def test_aggregate_capacity_is_the_instances(self):
        # one sum for the scenario and the solver's instance, read at full scale
        scen = generate_scenario(ScenarioParams.full_scale(), 7)
        assert scen.aggregate_capacity == build_instance(scen, "linear").aggregate_capacity

    def test_full_scale_counts(self):
        p = ScenarioParams.full_scale()
        assert (p.num_elements, p.num_entities, p.num_apps, p.num_flows) == \
            (1000, 20, 100, 5000)


class TestParams:
    @pytest.mark.parametrize("field, value", [
        ("demand_range", (0.1, np.inf)), ("capacity_range", (100.0, np.inf)),
        ("channel_range", (1.0, np.inf)), ("num_flows", 2.5), ("num_elements", True),
        ("num_focus", 1.0), ("qoe_range", (0.0, 2.0))])
    def test_scenario_params_rejected(self, field, value):
        with pytest.raises(InvalidParams, match="range|integers"):
            ScenarioParams(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("mean_bw", np.nan), ("mean_bw", np.inf), ("mean_bw", 0.0), ("n_flows", 2.5),
        ("n_entities", True), ("app_id", 0.0), ("n_flows", -1), ("n_elements", 0)])
    def test_hotspot_params_rejected(self, field, value):
        with pytest.raises(InvalidParams):
            HotspotParams(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        assert ScenarioParams(num_flows=np.int64(5)).num_flows == 5
        assert HotspotParams(n_flows=np.int32(3)).n_flows == 3


class TestScenarioColumns:
    def test_columns_mirror_flows(self):
        scen = generate_scenario(DESK, 3)
        cols = scen.flows
        assert isinstance(cols, Flows) and len(cols) == DESK.num_flows
        assert cols.id.tolist() == [f.id for f in scen.flows]
        assert cols.entity.tolist() == [f.entity_id for f in scen.flows]
        assert cols.app.tolist() == [f.app_id for f in scen.flows]
        assert cols.element.tolist() == [f.element_id for f in scen.flows]
        assert cols.demand.tolist() == [f.demand_bw for f in scen.flows]
        with pytest.raises(ValueError):
            cols.demand[0] = 1.0

    def test_unknown_reference_rejected(self):
        scen = generate_scenario(DESK, 3)
        stray = Flow(id=999, entity_id=scen.num_entities, app_id=0, element_id=0,
                     demand_bw=1.0)
        with pytest.raises(InvalidParams, match="flow 999"):
            replace(scen, flows=Flows.of([*scen.flows, stray]))

    def test_flow_tuple_rejected(self):
        scen = generate_scenario(DESK, 3)
        with pytest.raises(InvalidParams, match="Flows.of"):
            replace(scen, flows=tuple(scen.flows))


class TestScaleLoad:
    def test_identity_at_one(self):
        scen = generate_scenario(DESK, 3)
        assert scale_load(scen, 1.0) is scen

    def test_multiplies_demands(self):
        scen = generate_scenario(DESK, 3)
        scaled = scale_load(scen, 10.0)
        for f0, f1 in zip(scen.flows, scaled.flows):
            assert f1.demand_bw == pytest.approx(10.0 * f0.demand_bw)

    def test_demand_estimation_scales_linearly(self):
        scen = generate_scenario(DESK, 3)
        d1 = estimate_demand(scen.flows, scen.ratios)
        d4 = estimate_demand(scale_load(scen, 4.0).flows, scen.ratios)
        assert np.allclose(d4, 4.0 * d1, rtol=1e-12)

    def test_subset_scaling(self):
        scen = generate_scenario(DESK, 3)
        ids = {scen.flows[0].id, scen.flows[1].id}
        scaled = scale_load(scen, 5.0, flow_ids=ids)
        assert scaled.flows[0].demand_bw == pytest.approx(5.0 * scen.flows[0].demand_bw)
        assert scaled.flows[2].demand_bw == scen.flows[2].demand_bw

    @pytest.mark.parametrize("multiplier", [1.7, 10.0, 3])
    def test_matches_per_flow_scaling(self, multiplier):
        base = generate_scenario(DESK, 3)
        hot = add_hotspot(base, HotspotParams(n_flows=40, n_elements=20), 4)
        ids = tuple(f.id for f in hot.flows[len(base.flows):])
        for flow_ids in (None, ids, set(ids[::3]), ()):
            chosen = None if flow_ids is None else set(flow_ids)
            want = tuple(f._replace(demand_bw=f.demand_bw * multiplier)
                         if chosen is None or f.id in chosen else f for f in hot.flows)
            scaled = scale_load(hot, multiplier, flow_ids=flow_ids)
            assert tuple(scaled.flows) == want
            assert scaled.flows == Flows.of(want)
            assert all(type(f.demand_bw) is float for f in scaled.flows)

    @pytest.mark.parametrize("flow_ids, error", [
        ([999], UnknownReference), ([1.5], InvalidParams), ([True], InvalidParams),
        (["a"], InvalidParams), ([1, np.int64(2), False], InvalidParams),
        (np.array([1.0]), InvalidParams), (np.array([[1]]), InvalidParams), (5, InvalidParams)])
    def test_malformed_flow_ids_rejected(self, flow_ids, error):
        scen = generate_scenario(ScenarioParams(num_elements=5, num_entities=2, num_apps=3,
                                                num_flows=20), 1)
        for multiplier in (1.0, 2.0):
            with pytest.raises(error):
                scale_load(scen, multiplier, flow_ids=flow_ids)

    def test_scaled_scenario_shares_the_flow_plan(self):
        scen = generate_scenario(DESK, 3)
        assert scale_load(scen, 2.0, flow_ids=np.array([0, 5])).flow_plan is scen.flow_plan

    @pytest.mark.parametrize("flow_ids", [None, [0, 5]])
    def test_scaled_scenario_shares_all_but_the_demands(self, flow_ids):
        # only the demand column is new, so it alone is checked again
        scen = generate_scenario(DESK, 3)
        scaled = scale_load(scen, 2.0, flow_ids=flow_ids)
        assert scaled == replace(scen, flows=scaled.flows)
        for name in ("id", "entity", "app", "element"):
            assert getattr(scaled.flows, name) is getattr(scen.flows, name)
        assert not scaled.flows.demand.flags.writeable
        assert not {"resource_demand", "cell_fill", "pair_fill"} & set(vars(scaled))

    @pytest.mark.parametrize("flow_ids", [None, np.array([0, 5])])
    def test_scaled_scenario_sorts_its_own_demands(self, flow_ids):
        # the base's resource demand and pair fill, cached before it is scaled, are never
        # handed on: the scaled scenario builds both from its own demands
        scen = generate_scenario(DESK, 3)
        base_demand, base_fill = scen.resource_demand, scen.pair_fill
        scaled = scale_load(scen, 3.0, flow_ids=flow_ids)
        flows, num_i = scaled.flows, scen.capacities.size
        want = flows.demand * scen.ratios.values[flows.element, flows.app]
        assert np.array_equal(scaled.resource_demand, want)
        assert not np.array_equal(scaled.resource_demand, base_demand)
        assert scaled.pair_fill is not base_fill
        assert scaled.pair_fill.demands is scaled.resource_demand
        pool = flows.entity * num_i + flows.element
        budget = np.random.default_rng(1).uniform(0.0, 2.0, scen.num_entities * num_i)
        assert np.array_equal(water_fill(scaled.pair_fill, budget),
                              water_fill(want, budget, pool=pool))
        assert np.array_equal(water_fill(scen.pair_fill, budget),
                              water_fill(base_demand, budget, pool=pool))

    def test_rejects_below_one(self):
        with pytest.raises(InvalidParams):
            scale_load(generate_scenario(DESK, 3), 0.5)

    @pytest.mark.parametrize("multiplier", [np.nan, np.inf])
    def test_rejects_non_finite(self, multiplier):
        with pytest.raises(InvalidParams):
            scale_load(generate_scenario(DESK, 3), multiplier)


class TestAddHotspot:
    def test_zero_flows_identity(self):
        scen = generate_scenario(DESK, 3)
        assert add_hotspot(scen, HotspotParams(n_flows=0, n_elements=20), 1) is scen

    @pytest.mark.parametrize("params", [dict(app_id=99), dict(n_entities=50),
                                        dict(n_elements=21)])
    def test_unfit_params_rejected_without_flows(self, params):
        # DESK has 6 applications, 5 entities and 20 elements
        with pytest.raises(InvalidParams):
            add_hotspot(generate_scenario(DESK, 3),
                        HotspotParams(**{"n_flows": 0, "n_elements": 20, **params}), 1)

    def test_counts_and_targets(self):
        scen = generate_scenario(DESK, 3)
        hp = HotspotParams(app_id=0, n_flows=50, n_entities=2, n_elements=4, mean_bw=1.0)
        hot = add_hotspot(scen, hp, 99)
        extra = hot.flows[len(scen.flows):]
        assert len(extra) == 50
        assert all(f.app_id == 0 for f in extra)
        assert len({f.entity_id for f in extra}) <= 2
        assert len({f.element_id for f in extra}) <= 4
        assert all(0.5 <= f.demand_bw <= 1.5 for f in extra)

    def test_deterministic(self):
        scen = generate_scenario(DESK, 3)
        hp = HotspotParams(n_flows=30, n_entities=2, n_elements=5)
        assert add_hotspot(scen, hp, 7) == add_hotspot(scen, hp, 7)

    def test_oversized_selection_rejected(self):
        scen = generate_scenario(DESK, 3)
        with pytest.raises(InvalidParams):
            add_hotspot(scen, HotspotParams(n_entities=50), 1)


class TestSecondPhase:
    def cell(self, demands, ratio=1.0):
        """A scenario of one cell (one element, entity and application) holding these flows."""
        flows = Flows.of(Flow(id=j, entity_id=0, app_id=0, element_id=0, demand_bw=d)
                         for j, d in enumerate(demands))
        return Scenario(capacities=[10.0], min_share=[0.0], max_share=[1.0], num_entities=1,
                        flows=flows, ratios=TranslatingRatios([[ratio]]), seed=0)

    def test_ample_budget_serves_all(self):
        out = second_phase_allocate(self.cell([1.0, 3.0], ratio=2.0), AllocationMatrix([[8.0]]))
        assert np.allclose(out.bandwidth, [1.0, 3.0])
        assert np.allclose(out.resource, [2.0, 6.0])

    def test_water_level_example(self):
        # demands (1, 3) Mbps, bandwidth budget 2 -> (1, 1)
        out = second_phase_allocate(self.cell([1.0, 3.0]), AllocationMatrix([[2.0]]))
        assert np.allclose(out.bandwidth, [1.0, 1.0])

    def test_no_flows_empty(self):
        out = second_phase_allocate(self.cell([]), AllocationMatrix([[5.0]]))
        assert out.bandwidth.size == 0

    def test_resource_is_bandwidth_times_ratio(self):
        out = second_phase_allocate(self.cell([0.5, 2.5], ratio=1.7), AllocationMatrix([[3.0]]))
        assert np.allclose(out.resource, out.bandwidth * 1.7, rtol=1e-12)

    @pytest.mark.parametrize("budget, ratio", [(np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_input_rejected(self, budget, ratio):
        # a grant and a ratio reach the second phase only as an AllocationMatrix and a
        # TranslatingRatios, and each rejects a non-finite entry
        for value, cls in ((budget, AllocationMatrix), (ratio, TranslatingRatios)):
            if np.isfinite(value):
                cls([[value]])
            else:
                with pytest.raises(InvalidParams):
                    cls([[value]])

    @pytest.mark.parametrize("shape", [(1, 1), (6, 20)])
    def test_grant_of_another_shape_rejected(self, shape):
        # a (1, 1) grant would broadcast over the (20, 6) cells unchecked
        with pytest.raises(DimensionMismatch, match="grant shape"):
            second_phase_allocate(generate_scenario(DESK, 3), AllocationMatrix(np.ones(shape)))

    @pytest.mark.parametrize("kind", ["linear", "logarithmic"])
    def test_app_opt_flows_are_the_second_phase_of_its_grant(self, kind):
        base = generate_scenario(DESK, 5)
        hot = add_hotspot(base, HotspotParams(n_flows=60, n_elements=20), 6)
        scen = scale_load(hot, 4.0, flow_ids=hot.flows.id[len(base.flows):])
        flow_alloc, result = allocate_app_opt(scen, kind, SolverConfig(epsilon=1.0))
        again = second_phase_allocate(scen, result.allocation)
        for name in ("flow_ids", "bandwidth", "resource", "demand_resource"):
            assert np.array_equal(getattr(flow_alloc, name), getattr(again, name))
        # each cell's flows get what a fill of that cell alone gives them
        f, grant, ratios = scen.flows, result.allocation.values, scen.ratios.values
        for i, k in {(int(i), int(k)) for i, k in zip(f.element, f.app)}:
            in_cell = (f.element == i) & (f.app == k)
            assert np.allclose(flow_alloc.bandwidth[in_cell],
                               water_fill(f.demand[in_cell], grant[i, k] / ratios[i, k]),
                               rtol=1e-12, atol=0.0)


class TestFlowMetrics:
    def alloc(self, bw, res, dres, ids=None):
        ids = ids if ids is not None else tuple(range(len(bw)))
        return FlowAllocation(flow_ids=ids, bandwidth=bw, resource=res, demand_resource=dres)

    def test_qoe_counts_fully_served(self):
        flows = Flows.of([Flow(id=0, entity_id=0, app_id=0, element_id=0, demand_bw=1.0),
                          Flow(id=1, entity_id=0, app_id=0, element_id=0, demand_bw=3.0)])
        alloc = self.alloc([1.0, 1.0], [1.0, 1.0], [1.0, 3.0])
        assert qoe_satisfied_count(alloc, flows) == 1

    def test_qoe_zero_when_starved(self):
        flows = Flows.of([Flow(id=0, entity_id=0, app_id=0, element_id=0, demand_bw=1.0)])
        assert qoe_satisfied_count(self.alloc([0.0], [0.0], [1.0]), flows) == 0

    def test_qoe_rejects_misaligned_allocation(self):
        flows = Flows.of([Flow(id=7, entity_id=0, app_id=0, element_id=0, demand_bw=1.0),
                          Flow(id=3, entity_id=0, app_id=0, element_id=0, demand_bw=3.0)])
        assert qoe_satisfied_count(self.alloc([1.0, 3.0], [1.0, 3.0], [1.0, 3.0],
                                              ids=(7, 3)), flows) == 2
        shared = self.alloc([1.0, 3.0], [1.0, 3.0], [1.0, 3.0], ids=flows.id)
        assert shared.flow_ids is flows.id and qoe_satisfied_count(shared, flows) == 2
        with pytest.raises(InvalidParams, match="not aligned"):
            qoe_satisfied_count(self.alloc([3.0, 1.0], [3.0, 1.0], [3.0, 1.0], ids=(3, 7)),
                                flows)

    def test_qoe_rejects_unknown_flow_id(self):
        flows = Flows.of([Flow(id=0, entity_id=0, app_id=0, element_id=0, demand_bw=1.0)])
        with pytest.raises(InvalidParams, match="not aligned"):
            qoe_satisfied_count(self.alloc([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], ids=(0, 5)),
                                flows)

    def test_flow_utility_empty(self):
        empty = self.alloc([], [], [])
        assert flow_utility(empty, "linear") == 0.0
        assert flow_utility(empty, "logarithmic") == 0.0

    def test_flow_utility_linear_is_served_resource(self):
        alloc = self.alloc([1.0, 2.0], [2.0, 5.0], [2.0, 6.0])
        assert flow_utility(alloc, "linear") == pytest.approx(7.0)

    def test_flow_utility_log_weighted(self):
        # resources (2, e) with demand-resources (1, 1) -> ln 2 + 1
        alloc = self.alloc([1.0, 1.0], [2.0, math.e], [1.0, 1.0])
        assert flow_utility(alloc, "logarithmic") == pytest.approx(math.log(2.0) + 1.0)

    def test_flow_utility_log_floor_for_starved(self):
        alloc = self.alloc([0.0], [0.0], [2.0])
        assert flow_utility(alloc, "logarithmic") == pytest.approx(2.0 * math.log(1e-6))


class TestRunExperiment:
    def test_trivial_scenario_full_service(self):
        # one element, one app, one flow, ample capacity
        params = ScenarioParams(num_elements=1, num_entities=1, num_apps=1,
                                num_flows=1, num_focus=1)
        base = generate_scenario(params, 2)
        rep = run_experiment(base, [SCHEME_APP_OPT], [1.0], "linear",
                             solver_config=SolverConfig(epsilon=1e-2))
        row = rep.rows[0]
        f = base.flows[0]
        expected = f.demand_bw * base.ratios.values[f.element_id, f.app_id]
        assert row.qoe_satisfied == 1
        assert row.total_utility == pytest.approx(expected, rel=1e-9)

    def test_row_grid_complete_and_ordered(self):
        base = generate_scenario(DESK, 4)
        rep = run_experiment(base, ALL_SCHEMES, [1.0, 2.0], "logarithmic",
                             solver_config=SolverConfig(epsilon=1.0))
        assert len(rep.rows) == 6
        assert [(r.scheme, r.load) for r in rep.rows] == \
            [(s, l) for l in (1.0, 2.0) for s in ALL_SCHEMES]

    def test_app_opt_allocation_feasible_and_conserving(self):
        base = generate_scenario(DESK, 8)
        scen = scale_load(base, 6.0)
        flow_alloc, result = allocate_app_opt(scen, "logarithmic",
                                              SolverConfig(epsilon=0.1))
        inst = build_instance(scen, "logarithmic")
        assert check_feasible(inst, result.allocation, 1e-9).feasible
        # per-cell conservation: flow resource within the granted amount
        used = np.zeros(inst.lower.shape)
        for f, r in zip(scen.flows, flow_alloc.resource):
            used[f.element_id, f.app_id] += r
        assert np.all(used <= result.allocation.values + 1e-9)

    def test_deterministic_report(self):
        base = generate_scenario(DESK, 4)
        kw = dict(solver_config=SolverConfig(epsilon=1.0))
        r1 = run_experiment(base, ALL_SCHEMES, [1.0, 3.0], "linear", **kw)
        r2 = run_experiment(base, ALL_SCHEMES, [1.0, 3.0], "linear", **kw)
        for a, b in zip(r1.rows, r2.rows):
            assert a.total_utility == b.total_utility
            assert a.qoe_satisfied == b.qoe_satisfied

    def test_failing_cell_emits_error_row(self):
        # zero background floor makes the logarithmic instance invalid,
        # so the app-opt cell fails while the baselines still run
        params = ScenarioParams(num_elements=4, num_entities=2, num_apps=4,
                                num_flows=20, background_min_share=0.0)
        base = generate_scenario(params, 1)
        rep = run_experiment(base, ALL_SCHEMES, [1.0], "logarithmic",
                             solver_config=SolverConfig(epsilon=1.0))
        by_scheme = {r.scheme: r for r in rep.rows}
        assert by_scheme[SCHEME_APP_OPT].error == "InvalidParams"
        assert by_scheme["net-rsv"].error is None

    @pytest.mark.parametrize("kind", ["linear", "logarithmic"])
    def test_rows_match_one_call_per_scheme(self, kind):
        # the sweep's shared flow plan and the fills each load sorts from the one
        # before give the rows of fresh scenarios scaled and allocated one public call
        # at a time: in load order, out of order with a load repeated, and uniformly
        base = generate_scenario(DESK, 5)
        hot = add_hotspot(base, HotspotParams(n_flows=60, n_elements=20), 6)
        ids = list(range(len(base.flows), len(hot.flows)))
        cfg = SolverConfig(epsilon=1.0)
        allocate = {SCHEME_APP_OPT: lambda s: allocate_app_opt(s, kind, cfg),
                    "net-rsv": lambda s: (net_rsv_allocate(s).flow_alloc, None),
                    "per-bs-rsv": lambda s: (per_bs_rsv_allocate(s).flow_alloc, None)}
        for loads, flow_ids in (([1.0, 4.0, 9.0], ids), ([5.0, 1.0, 5.0, 9.0], ids),
                                ([3.0, 1.0, 7.0], None)):
            rep = run_experiment(hot, ALL_SCHEMES, loads, kind, solver_config=cfg,
                                 scale_flow_ids=flow_ids)
            assert [(r.scheme, r.load) for r in rep.rows] == \
                [(s, load) for load in loads for s in ALL_SCHEMES]
            for row in rep.rows:
                scen = scale_load(replace(hot), row.load, flow_ids=flow_ids)
                alloc, result = allocate[row.scheme](scen)
                app_m = float(alloc.resource[scen.flows.app == 0].sum())
                assert row.error is None
                assert row.total_utility == flow_utility(alloc, kind)
                assert row.app_m_resource == app_m
                assert row.app_m_resource_fraction == app_m / hot.aggregate_capacity
                assert row.qoe_satisfied == qoe_satisfied_count(alloc, scen.flows)
                assert row.flows_total == len(hot.flows)
                assert row.outer_iters == (0 if result is None else result.outer_iters)

    def test_sweep_keeps_no_load_cache_on_the_base(self):
        # load 1 runs on the base itself, which outlives the sweep, whether it comes
        # first or last and whatever the sweep scales
        base = generate_scenario(DESK, 4)
        for loads in ([1.0, 2.0], [2.0, 1.0]):
            for flow_ids in (None, base.flows.id[::3]):
                run_experiment(base, ALL_SCHEMES, loads, "linear",
                               solver_config=SolverConfig(epsilon=1.0), scale_flow_ids=flow_ids)
                assert not {"cell_fill", "pair_fill", "resource_demand"} & set(vars(base))

    @pytest.mark.parametrize("scaled", ["hotspot", "uniform"])
    def test_each_load_sorts_only_what_its_load_changed(self, scaled, monkeypatch):
        # every cell of a sweep reads fills equal to fresh sorts of its load's demands;
        # from the second load on they are sorted from the previous load's, sharing
        # the blocks of every group that holds no scaled flow
        base = generate_scenario(DESK, 5)
        hot = add_hotspot(base, HotspotParams(n_flows=60, n_elements=4), 6)
        flow_ids = hot.flows.id[len(base.flows):] if scaled == "hotspot" else None
        seen = []
        allocate = sim._allocate_for_scheme

        def checked(scheme, scen, *args):
            fills = {name: vars(scen)[name] for name in ("cell_fill", "pair_fill")
                     if name in vars(scen)}
            seen.append((scheme, fills))
            for name, fill in fills.items():
                fresh = sort_demands(fill.demands, fill.layout)
                assert all(map(np.array_equal, fill.blocks, fresh.blocks))
            return allocate(scheme, scen, *args)

        monkeypatch.setattr(sim, "_allocate_for_scheme", checked)
        run_experiment(hot, ALL_SCHEMES, [1.0, 4.0, 9.0], "logarithmic",
                       solver_config=SolverConfig(epsilon=1.0), scale_flow_ids=flow_ids)
        firsts = [fills for scheme, fills in seen if scheme == SCHEME_APP_OPT]
        assert [sorted(fills) for fills in firsts] == [[], ["cell_fill", "pair_fill"],
                                                      ["cell_fill", "pair_fill"]]
        for name in ("cell_fill", "pair_fill"):
            a, b = firsts[1][name], firsts[2][name]
            shared = [x is y for x, y in zip(a.blocks, b.blocks)]
            assert not any(shared) if scaled == "uniform" else any(shared) and not all(shared)

    @pytest.mark.parametrize("flow_ids, error", [([999], UnknownReference),
                                                 ([1.5], InvalidParams)])
    def test_malformed_flow_ids_rejected_before_any_cell(self, flow_ids, error):
        with pytest.raises(error):
            run_experiment(generate_scenario(DESK, 1), ALL_SCHEMES, [1.0], "linear",
                           scale_flow_ids=flow_ids)

    def test_per_bs_error_row_in_a_sweep(self):
        # five entities at half an element each oversubscribe it: per-bs-rsv fails at
        # every load while the other schemes still run
        base = generate_scenario(DESK, 4)
        rep = run_experiment(base, ALL_SCHEMES, [1.0, 2.0], "linear",
                             solver_config=SolverConfig(epsilon=1.0),
                             reservation_config=ReservationConfig(per_bs_fraction=0.5))
        assert [r.error for r in rep.rows] == [None, None, "InvalidParams"] * 2

    @pytest.mark.parametrize("focus", [4, -1, 1.0])
    def test_focus_app_id_outside_the_applications_rejected(self, focus):
        base = generate_scenario(ScenarioParams(num_elements=4, num_entities=2, num_apps=4,
                                                num_flows=20), 1)
        with pytest.raises(InvalidParams, match="focus_app_id"):
            run_experiment(base, ALL_SCHEMES, [1.0], "linear", focus_app_id=focus)

    @pytest.mark.parametrize("schemes", [["bogus", SCHEME_APP_OPT], SCHEME_APP_OPT],
                             ids=["bogus-entry", "bare-string"])
    def test_unknown_scheme_rejected_before_any_cell(self, schemes):
        # a bare string is a sequence of one-letter schemes, none of them known
        with pytest.raises(InvalidParams, match="unknown schemes"):
            run_experiment(generate_scenario(DESK, 1), schemes, [1.0], "linear")

    def test_unknown_utility_kind_rejected_before_any_cell(self):
        with pytest.raises(InvalidParams, match="unknown utility kind"):
            run_experiment(generate_scenario(DESK, 1), ALL_SCHEMES, [1.0], "cubic")

    def test_linear_utility_non_decreasing_in_load(self):
        base = generate_scenario(DESK, 6)
        rep = run_experiment(base, [SCHEME_APP_OPT], [1.0, 2.0, 4.0, 8.0], "linear",
                             solver_config=SolverConfig(epsilon=0.5))
        series = [r.total_utility for r in rep.rows]
        assert all(b >= a - 1e-6 for a, b in zip(series, series[1:]))


def test_generated_lower_corner_feasible_with_zero_tol():
    from ranshare.model import AllocationMatrix, check_feasible
    for seed in range(5):
        scen = generate_scenario(DESK, seed)
        inst = build_instance(scen, "logarithmic")
        report = check_feasible(inst, AllocationMatrix(inst.lower.copy()), tol=0.0)
        assert report.feasible


_PERIOD_AND_SWEEP = """
import sys
from ranshare.sim import (ALL_SCHEMES, HotspotParams, ScenarioParams, add_hotspot,
                          allocate_app_opt, generate_scenario, run_experiment)
from ranshare.solver import SolverConfig
base = generate_scenario(ScenarioParams(num_elements=6, num_entities=2, num_apps=3,
                                        num_flows=40), 1)
allocate_app_opt(base, "logarithmic", SolverConfig(epsilon=1.0))
hot = add_hotspot(base, HotspotParams(n_flows=10, n_entities=1, n_elements=3), 2)
report = run_experiment(hot, ALL_SCHEMES, [1.0, 5.0], "logarithmic", SolverConfig(epsilon=1.0),
                        scale_flow_ids=hot.flows.id[-10:])
assert all(row.error is None for row in report.rows)
print("numpy.ma" in sys.modules)
"""


def test_period_and_sweep_import_no_masked_arrays():
    # numpy.ma costs about 0.02 s to import; nothing on these paths needs it
    src = str(Path(ranshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _PERIOD_AND_SWEEP], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
