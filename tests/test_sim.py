import math
from dataclasses import replace

import numpy as np
import pytest

from ranshare.errors import InvalidParams
from ranshare.model import Flow, FlowAllocation, Flows, check_feasible
from ranshare.sim import (ALL_SCHEMES, HotspotParams, ScenarioParams, add_hotspot,
                          allocate_app_opt, build_instance, flow_utility,
                          generate_scenario, qoe_satisfied_count, run_experiment,
                          scale_load, second_phase_allocate, SCHEME_APP_OPT)
from ranshare.solver import SolverConfig
from ranshare.utility import estimate_demand


DESK = ScenarioParams(num_elements=20, num_entities=5, num_apps=6, num_flows=120)


class TestGenerateScenario:
    def test_same_seed_identical(self):
        a = generate_scenario(DESK, 9)
        b = generate_scenario(DESK, 9)
        assert a == b

    def test_different_seed_differs(self):
        assert generate_scenario(DESK, 1) != generate_scenario(DESK, 2)

    def test_ranges_respected(self):
        scen = generate_scenario(ScenarioParams(), 5)
        caps = np.array([e.capacity for e in scen.elements])
        assert caps.min() >= 100.0 and caps.max() <= 300.0
        qoe = np.array([a.qoe_factor for a in scen.apps])
        assert qoe.min() >= 0.1 and qoe.max() <= 2.0
        assert scen.ratios.values.min() >= 0.1 and scen.ratios.values.max() <= 4.0
        bw = np.array([f.demand_bw for f in scen.flows])
        assert bw.min() >= 0.1 and bw.max() <= 1.0

    def test_focus_apps_have_heaviest_qoe_and_shares(self):
        scen = generate_scenario(ScenarioParams(), 5)
        qoe = np.array([a.qoe_factor for a in scen.apps])
        assert qoe[0] == qoe.max()
        assert qoe[1] >= np.sort(qoe)[-2] - 1e-12
        assert scen.apps[0].min_share == 0.05 and scen.apps[0].max_share == 0.40
        assert scen.apps[2].min_share == pytest.approx(1e-4)

    def test_full_scale_counts(self):
        p = ScenarioParams.full_scale()
        assert (p.num_elements, p.num_entities, p.num_apps, p.num_flows) == \
            (1000, 20, 100, 5000)


class TestParams:
    @pytest.mark.parametrize("field, value", [
        ("demand_range", (0.1, np.inf)), ("capacity_range", (100.0, np.inf)),
        ("channel_range", (1.0, np.inf)), ("num_flows", 2.5), ("num_elements", True),
        ("num_focus", 1.0)])
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
        stray = Flow(id=999, entity_id=len(scen.entities), app_id=0, element_id=0,
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
            assert scaled.load_multiplier == (multiplier if flow_ids is None else 1.0)

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
        assert add_hotspot(scen, HotspotParams(n_flows=0), 1) is scen

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
    def flows(self, demands):
        return Flows.of(Flow(id=j, entity_id=0, app_id=0, element_id=0, demand_bw=d)
                        for j, d in enumerate(demands))

    def test_ample_budget_serves_all(self):
        out = second_phase_allocate(self.flows([1.0, 3.0]), budget=8.0, ratio=2.0)
        assert np.allclose(out.bandwidth, [1.0, 3.0])
        assert np.allclose(out.resource, [2.0, 6.0])

    def test_water_level_example(self):
        # demands (1, 3) Mbps, bandwidth budget 2 -> (1, 1)
        out = second_phase_allocate(self.flows([1.0, 3.0]), budget=2.0, ratio=1.0)
        assert np.allclose(out.bandwidth, [1.0, 1.0])

    def test_no_flows_empty(self):
        out = second_phase_allocate(Flows.of([]), budget=5.0, ratio=1.0)
        assert out.bandwidth.size == 0

    def test_resource_is_bandwidth_times_ratio(self):
        out = second_phase_allocate(self.flows([0.5, 2.5]), budget=3.0, ratio=1.7)
        assert np.allclose(out.resource, out.bandwidth * 1.7, rtol=1e-12)

    @pytest.mark.parametrize("budget, ratio", [(np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_input_rejected(self, budget, ratio):
        with pytest.raises(InvalidParams):
            second_phase_allocate(self.flows([1.0]), budget=budget, ratio=ratio)


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
