import math
import os
import gc
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ranshare
from ranshare import fairshare, sim
from ranshare.baselines import ReservationConfig, net_rsv_allocate, per_bs_rsv_allocate
from ranshare.errors import DimensionMismatch, InvalidParams, UnknownReference
from ranshare.fairshare import pool_layout, sort_demands, water_fill
from ranshare.model import AllocationMatrix, FlowAllocation, Flows, check_feasible
from ranshare.sim import (ALL_SCHEMES, HotspotParams, Scenario, ScenarioParams, add_hotspot,
                          allocate_app_opt, build_instance, flow_utility,
                          generate_scenario, qoe_satisfied_count, run_experiment,
                          scale_load, second_phase_allocate, SCHEME_APP_OPT)
from ranshare.solver import SolverConfig
from ranshare.utility import TranslatingRatios, estimate_demand


DESK = ScenarioParams(num_elements=20, num_entities=5, num_apps=6, num_flows=120)

# seeds that are not non-negative integers: None would draw from OS entropy, and a
# bool would read as 0 or 1
BAD_SEEDS = pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), "3", True, None],
                                    ids=["negative", "float", "numpy-float", "str", "bool",
                                         "None"])
# loads that are not real numbers; the string "2" must not run as load 2.0
NOT_REAL_LOADS = pytest.mark.parametrize("load", ["2", "abc", None, True, np.bool_(True),
                                                  [2.0]],
                                         ids=["numeric-str", "str", "None", "bool",
                                              "numpy-bool", "list"])


def table_bits(fill):
    """The bytes of every table of a sorted form, to compare forms bit for bit."""
    return [[a.tobytes() for a in table] for table in fill.tables]


def fresh_bits(fill):
    """``table_bits`` of a fresh sort of ``fill``'s demands over its layout."""
    return table_bits(sort_demands(fill.demands, fill.layout))


def hotspot_scenario():
    """A desk scenario with 60 hotspot flows on 4 elements, and the mask of those flows."""
    base = generate_scenario(DESK, 5)
    hot = add_hotspot(base, HotspotParams(n_flows=60, n_elements=4), 6)
    return hot, np.arange(len(hot.flows)) >= len(base.flows)


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

    def test_numpy_integer_seed_accepted(self):
        assert generate_scenario(DESK, np.int64(9)) == generate_scenario(DESK, 9)

    @BAD_SEEDS
    def test_malformed_seed_rejected(self, seed):
        with pytest.raises(InvalidParams, match="seed"):
            generate_scenario(DESK, seed)

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

    @pytest.mark.parametrize("cls, field, value", [
        (SolverConfig, "epsilon", "a"), (SolverConfig, "t0", None), (SolverConfig, "epsilon", True),
        (SolverConfig, "mu", "10"),
        (ReservationConfig, "per_bs_fraction", "a"), (ReservationConfig, "net_max_fraction", None),
        (ReservationConfig, "net_max_fraction", True),
        (HotspotParams, "mean_bw", "x"), (HotspotParams, "mean_bw", True),
        (ScenarioParams, "capacity_range", (1.0,)), (ScenarioParams, "demand_range", (0.1, 0.5, 1.0)),
        (ScenarioParams, "qoe_range", 5), (ScenarioParams, "qoe_range", ("a", 2.0)),
        (ScenarioParams, "channel_range", (True, 2.0)), (ScenarioParams, "focus_min_share", "a"),
        (ScenarioParams, "focus_max_share", True), (ScenarioParams, "background_max_share", None)],
        ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_settings_that_are_no_real_numbers_rejected(self, cls, field, value):
        # a real-valued setting that is a string, None or a bool, or a range that is no
        # pair of real numbers, is a typed error, not a TypeError or ValueError
        with pytest.raises(InvalidParams, match=field.split("_")[0]):
            cls(**{field: value})

    def test_numpy_numbers_accepted_as_settings(self):
        assert SolverConfig(epsilon=np.float64(1e-2), t0=np.int64(2)).t0 == 2
        assert ScenarioParams(capacity_range=[np.int64(100), 300.0]).capacity_range[0] == 100
        assert ScenarioParams(qoe_range=np.array([0.5, 1.0])).qoe_range[1] == 1.0
        assert HotspotParams(mean_bw=np.float32(2.0)).mean_bw == 2.0

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
        f = scen.flows
        # a stray flow (id 999) of an entity the scenario does not have
        stray = (999, scen.num_entities, 0, 0, 1.0)
        flows = Flows(*(np.append(col, x) for col, x in
                        zip((f.id, f.entity, f.app, f.element, f.demand), stray)))
        with pytest.raises(InvalidParams, match="flow 999"):
            replace(scen, flows=flows)

    def test_flow_tuple_rejected(self):
        scen = generate_scenario(DESK, 3)
        with pytest.raises(InvalidParams, match="Flows of columns, got tuple"):
            replace(scen, flows=tuple(scen.flows))

    @BAD_SEEDS
    def test_malformed_seed_rejected(self, seed):
        # a scenario assembled from another's parts, as perfbench's traffic assembles
        # one, checks its seed as generate_scenario does
        with pytest.raises(InvalidParams, match="seed"):
            replace(generate_scenario(DESK, 3), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        scen = generate_scenario(DESK, 3)
        assert replace(scen, seed=np.int64(3)) == scen

    def test_ratios_of_another_type_rejected(self):
        # a bare array has the ratios' shape but is no TranslatingRatios; a sweep on it
        # failed with an untyped AttributeError
        scen = generate_scenario(DESK, 3)
        with pytest.raises(InvalidParams, match="TranslatingRatios, got ndarray"):
            replace(scen, ratios=np.ones((20, 6)))


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
        d1 = estimate_demand(scen)
        d4 = estimate_demand(scale_load(scen, 4.0))
        assert np.allclose(d4, 4.0 * d1, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "logarithmic"])
    def test_coefficients_are_the_cell_sums_times_the_ratios(self, kind):
        # the estimate sums each cell's demands in flow order, as one bincount over the
        # flows' (element, app) cells gives them, bit for bit
        base = generate_scenario(DESK, 5)
        hot = add_hotspot(base, HotspotParams(n_flows=60, n_elements=20), 6)
        mask = np.arange(len(hot.flows)) >= len(base.flows)
        num_i, num_k = hot.ratios.shape
        for load in (1.0, 5.0):
            s = scale_load(hot, load, mask)
            f = s.flows
            want = np.bincount(f.element * num_k + f.app, f.demand, num_i * num_k)
            assert np.array_equal(build_instance(s, kind).coeff,
                                  want.reshape(num_i, num_k) * s.ratios.values)

    def test_subset_scaling(self):
        scen = generate_scenario(DESK, 3)
        scaled = scale_load(scen, 5.0, np.arange(len(scen.flows)) < 2)
        assert scaled.flows[0].demand_bw == pytest.approx(5.0 * scen.flows[0].demand_bw)
        assert scaled.flows[2].demand_bw == scen.flows[2].demand_bw

    @pytest.mark.parametrize("multiplier", [1.7, 10.0, 3])
    def test_matches_per_flow_scaling(self, multiplier):
        base = generate_scenario(DESK, 3)
        hot = add_hotspot(base, HotspotParams(n_flows=40, n_elements=20), 4)
        n = len(hot.flows)
        hotspot = np.arange(n) >= len(base.flows)
        for mask in (None, hotspot, hotspot & (np.arange(n) % 3 == 0), np.zeros(n, dtype=bool)):
            want = tuple(f._replace(demand_bw=f.demand_bw * multiplier)
                         if mask is None or mask[j] else f for j, f in enumerate(hot.flows))
            scaled = scale_load(hot, multiplier, mask)
            assert tuple(scaled.flows) == want
            assert scaled.flows == Flows(*zip(*want))
            assert all(type(f.demand_bw) is float for f in scaled.flows)

    @pytest.mark.parametrize("multiplier", [1.0, 2.0])
    @pytest.mark.parametrize("mask, error", [
        (np.ones(20, dtype=int), InvalidParams), ([1.0] * 20, InvalidParams),
        (np.ones(19, dtype=bool), DimensionMismatch),
        (np.ones((1, 20), dtype=bool), DimensionMismatch)], ids=["int", "float", "short", "2-D"])
    def test_malformed_mask_rejected(self, mask, error, multiplier):
        scen = generate_scenario(ScenarioParams(num_elements=5, num_entities=2, num_apps=3,
                                                num_flows=20), 1)
        with pytest.raises(error):
            scale_load(scen, multiplier, mask)

    @pytest.mark.parametrize("flow_ids, error", [
        ([999], UnknownReference), ([1.5], InvalidParams), ([True], InvalidParams),
        (["a"], InvalidParams), ([1, np.int64(2), False], InvalidParams),
        (np.array([1.0]), InvalidParams), (np.array([[1]]), InvalidParams), (5, InvalidParams),
        (np.array(5), InvalidParams)])
    def test_malformed_flow_ids_rejected(self, flow_ids, error):
        # run_experiment resolves scale_flow_ids into scale_load's mask, at every load
        scen = generate_scenario(ScenarioParams(num_elements=5, num_entities=2, num_apps=3,
                                                num_flows=20), 1)
        for loads in ([1.0], [2.0]):
            with pytest.raises(error):
                run_experiment(scen, ALL_SCHEMES, loads, "linear", scale_flow_ids=flow_ids)

    def test_scaled_scenario_shares_the_flow_plan(self):
        scen = generate_scenario(DESK, 3)
        assert scale_load(scen, 2.0, np.isin(scen.flows.id, [0, 5])).flow_plan is scen.flow_plan

    @pytest.mark.parametrize("flow_ids", [None, [0, 5]])
    def test_scaled_scenario_shares_all_but_the_demands(self, flow_ids):
        # only the demand column is new, so it alone is checked again
        scen = generate_scenario(DESK, 3)
        scaled = scale_load(scen, 2.0, None if flow_ids is None
                            else np.isin(scen.flows.id, flow_ids))
        assert scaled == replace(scen, flows=scaled.flows)
        for name in ("id", "entity", "app", "element"):
            assert getattr(scaled.flows, name) is getattr(scen.flows, name)
        assert not scaled.flows.demand.flags.writeable
        assert not {"resource_demand", "cell_fill", "pair_fill"} & set(vars(scaled))
        # an allocation made for the scaled flows shares their id column, so
        # qoe_satisfied_count does not compare the ids
        alloc = second_phase_allocate(scaled, AllocationMatrix(np.ones(scen.ratios.shape)))
        assert alloc.flow_ids is scaled.flows.id

    @pytest.mark.parametrize("flow_ids", [None, np.array([0, 5])])
    def test_scaled_scenario_sorts_its_own_demands(self, flow_ids):
        # the base's resource demand and pair fill, read before it is scaled, are not the
        # scaled scenario's: it builds both from its own demands
        scen = generate_scenario(DESK, 3)
        base_demand, base_fill = scen.resource_demand, scen.pair_fill
        scaled = scale_load(scen, 3.0, None if flow_ids is None
                            else np.isin(scen.flows.id, flow_ids))
        flows, num_i = scaled.flows, scen.capacities.size
        want = flows.demand * scen.ratios.values[flows.element, flows.app]
        assert np.array_equal(scaled.resource_demand, want)
        assert not np.array_equal(scaled.resource_demand, base_demand)
        assert scaled.pair_fill is not base_fill
        assert scaled.pair_fill.demands is scaled.resource_demand
        pool = pool_layout(flows.entity * num_i + flows.element, scen.num_entities * num_i)
        budget = np.random.default_rng(1).uniform(0.0, 2.0, scen.num_entities * num_i)
        assert np.array_equal(water_fill(scaled.pair_fill, budget),
                              water_fill(sort_demands(want, pool), budget))
        assert np.array_equal(water_fill(scen.pair_fill, budget),
                              water_fill(sort_demands(base_demand, pool), budget))

    def test_scaled_by_hand_sorts_from_the_forms_read_before(self):
        # a library caller's scaled scenario shares the plan, so its forms are sorted
        # from the ones last read: equal to fresh sorts, sharing the tables of every
        # group that holds no scaled flow
        hot, mask = hotspot_scenario()
        before = hot.cell_fill, hot.pair_fill
        scaled = scale_load(hot, 3.0, mask)
        for old, new in zip(before, (scaled.cell_fill, scaled.pair_fill)):
            assert table_bits(new) == fresh_bits(new)
            shared = [x is y for x, y in zip(old.tables, new.tables)]
            assert any(shared) and not all(shared)

    def test_alternate_reads_of_one_plan_sort_afresh(self):
        # two scenarios of one plan read by turns: each read re-sorts from the other's
        # forms, and every form is that of a fresh sort of its own demands
        hot, mask = hotspot_scenario()
        scaled = scale_load(hot, 3.0, mask)
        for scen in (hot, scaled, hot, scaled, scaled):
            cell, pair = scen.cell_fill, scen.pair_fill
            assert cell.demands is scen.resource_demand
            assert np.array_equal(pair.demands, scen.flows.demand * scen.flow_plan.ratio)
            assert table_bits(cell) == fresh_bits(cell)
            assert table_bits(pair) == fresh_bits(pair)

    def test_rejects_below_one(self):
        with pytest.raises(InvalidParams):
            scale_load(generate_scenario(DESK, 3), 0.5)

    @pytest.mark.parametrize("multiplier", [np.nan, np.inf])
    def test_rejects_non_finite(self, multiplier):
        with pytest.raises(InvalidParams):
            scale_load(generate_scenario(DESK, 3), multiplier)

    @NOT_REAL_LOADS
    def test_rejects_non_real(self, load):
        with pytest.raises(InvalidParams, match="load multiplier"):
            scale_load(generate_scenario(DESK, 3), load)


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

    @BAD_SEEDS
    @pytest.mark.parametrize("n_flows", [0, 30])
    def test_malformed_seed_rejected(self, seed, n_flows):
        with pytest.raises(InvalidParams, match="seed"):
            add_hotspot(generate_scenario(DESK, 3),
                        HotspotParams(n_flows=n_flows, n_elements=20), seed)

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
        zeros = [0] * len(demands)
        flows = Flows(range(len(demands)), zeros, zeros, zeros, demands)
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
        scen = scale_load(hot, 4.0, np.arange(len(hot.flows)) >= len(base.flows))
        flow_alloc, result = allocate_app_opt(scen, kind, SolverConfig(epsilon=1.0))
        again = second_phase_allocate(scen, result.allocation)
        for name in ("flow_ids", "bandwidth", "resource", "demand_resource"):
            assert np.array_equal(getattr(flow_alloc, name), getattr(again, name))
        # each cell's flows get what a fill of that cell alone gives them
        f, grant, ratios = scen.flows, result.allocation.values, scen.ratios.values
        for i, k in {(int(i), int(k)) for i, k in zip(f.element, f.app)}:
            in_cell = (f.element == i) & (f.app == k)
            alone = sort_demands(f.demand[in_cell], pool_layout(np.zeros(in_cell.sum(), int), 1))
            assert np.allclose(flow_alloc.bandwidth[in_cell],
                               water_fill(alone, [grant[i, k] / ratios[i, k]]),
                               rtol=1e-12, atol=0.0)


def bandwidth_space_second_phase(scen, grant):
    """The second phase filled in bandwidth: each cell's grant over its ratio, water-filled
    across the bandwidth demands of the cell's flows, and the resource the filled
    bandwidth times the ratio.  Returns (bandwidth, resource)."""
    fill = sort_demands(scen.flows.demand, scen.flow_plan.cells)
    bandwidth = water_fill(fill, (grant.values / scen.ratios.values).ravel())
    return bandwidth, bandwidth * scen.flow_plan.ratio


class TestResourceFill:
    @pytest.mark.parametrize("kind", ["linear", "logarithmic"])
    @pytest.mark.parametrize("load", [1.0, 4.0, 10.0])
    @pytest.mark.parametrize("inputs", ["desk", "hotspot"])
    def test_second_phase_matches_the_bandwidth_fill(self, inputs, load, kind):
        # the flows of a cell share its ratio, so a max-min fill of the grant over their
        # resource demands is one of the grant over the ratio over their bandwidth demands:
        # only rounding moves, and no flow's QoE
        if inputs == "desk":
            base, mask = generate_scenario(DESK, 5), None
        else:
            base, mask = hotspot_scenario()
        scen = scale_load(base, load, mask)
        got, result = allocate_app_opt(scen, kind, SolverConfig(epsilon=1.0))
        bandwidth, resource = bandwidth_space_second_phase(scen, result.allocation)
        assert np.allclose(got.bandwidth, bandwidth, rtol=1e-15, atol=0.0)
        assert np.allclose(got.resource, resource, rtol=1e-15, atol=0.0)
        assert qoe_satisfied_count(got, scen.flows) == np.count_nonzero(
            bandwidth >= scen.flows.demand - sim.QOE_SLACK)

    def test_every_scheme_fills_the_one_resource_demand(self):
        # at one load, app-opt's cells and the baselines' pairs sort the same resource
        # demand array, and every scheme's allocation reports it as its demand
        hot, mask = hotspot_scenario()
        scen = scale_load(hot, 3.0, mask)
        demand = scen.resource_demand
        assert scen.cell_fill.demands is demand and scen.pair_fill.demands is demand
        allocs = (allocate_app_opt(scen, "logarithmic", SolverConfig(epsilon=1.0))[0],
                  net_rsv_allocate(scen), per_bs_rsv_allocate(scen))
        for alloc in allocs:
            assert alloc.demand_resource is demand
            assert np.array_equal(alloc.bandwidth, alloc.resource / scen.flow_plan.ratio)


class TestFlowMetrics:
    def alloc(self, bw, res, dres, ids=None):
        ids = ids if ids is not None else tuple(range(len(bw)))
        return FlowAllocation(flow_ids=ids, bandwidth=bw, resource=res, demand_resource=dres)

    def test_qoe_counts_fully_served(self):
        flows = Flows([0, 1], [0, 0], [0, 0], [0, 0], [1.0, 3.0])
        alloc = self.alloc([1.0, 1.0], [1.0, 1.0], [1.0, 3.0])
        assert qoe_satisfied_count(alloc, flows) == 1

    def test_qoe_zero_when_starved(self):
        flows = Flows([0], [0], [0], [0], [1.0])
        assert qoe_satisfied_count(self.alloc([0.0], [0.0], [1.0]), flows) == 0

    def test_qoe_rejects_misaligned_allocation(self):
        flows = Flows([7, 3], [0, 0], [0, 0], [0, 0], [1.0, 3.0])
        assert qoe_satisfied_count(self.alloc([1.0, 3.0], [1.0, 3.0], [1.0, 3.0],
                                              ids=(7, 3)), flows) == 2
        shared = self.alloc([1.0, 3.0], [1.0, 3.0], [1.0, 3.0], ids=flows.id)
        assert shared.flow_ids is flows.id and qoe_satisfied_count(shared, flows) == 2
        with pytest.raises(InvalidParams, match="not aligned"):
            qoe_satisfied_count(self.alloc([3.0, 1.0], [3.0, 1.0], [3.0, 1.0], ids=(3, 7)),
                                flows)

    def test_qoe_rejects_unknown_flow_id(self):
        flows = Flows([0], [0], [0], [0], [1.0])
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
                    "net-rsv": lambda s: (net_rsv_allocate(s), None),
                    "per-bs-rsv": lambda s: (per_bs_rsv_allocate(s), None)}
        for loads, flow_ids in (([1.0, 4.0, 9.0], ids), ([5.0, 1.0, 5.0, 9.0], ids),
                                ([3.0, 1.0, 7.0], None)):
            rep = run_experiment(hot, ALL_SCHEMES, loads, kind, solver_config=cfg,
                                 scale_flow_ids=flow_ids)
            assert [(r.scheme, r.load) for r in rep.rows] == \
                [(s, load) for load in loads for s in ALL_SCHEMES]
            for row in rep.rows:
                scen = scale_load(replace(hot), row.load,
                                  None if flow_ids is None else np.isin(hot.flows.id, flow_ids))
                alloc, result = allocate[row.scheme](scen)
                app_m = float(alloc.resource[scen.flows.app == 0].sum())
                assert row.error is None
                assert row.total_utility == flow_utility(alloc, kind)
                assert row.app_m_resource == app_m
                assert row.app_m_resource_fraction == app_m / hot.aggregate_capacity
                assert row.qoe_satisfied == qoe_satisfied_count(alloc, scen.flows)
                assert row.flows_total == len(hot.flows)
                assert row.outer_iters == (0 if result is None else result.outer_iters)

    def test_sweep_keeps_no_load_cache_on_the_base(self, monkeypatch):
        # load 1 runs on the base itself, which outlives the sweep, whether it comes
        # first or last and whatever the sweep scales; once the sweep returns, neither
        # the base nor its plan holds a load's resource demand or sorted forms
        base = generate_scenario(DESK, 4)
        held = []
        allocate = sim._allocate_for_scheme

        def watched(scheme, scen, *args):
            held.extend(map(weakref.ref, (scen.resource_demand, scen.cell_fill, scen.pair_fill)))
            return allocate(scheme, scen, *args)

        monkeypatch.setattr(sim, "_allocate_for_scheme", watched)
        for loads in ([1.0, 2.0], [2.0, 1.0]):
            for flow_ids in (None, base.flows.id[::3]):
                run_experiment(base, ALL_SCHEMES, loads, "linear",
                               solver_config=SolverConfig(epsilon=1.0), scale_flow_ids=flow_ids)
                assert not {"cell_fill", "pair_fill", "resource_demand"} & set(vars(base))
                assert held and all(ref() is None for ref in held)
                held.clear()

    @pytest.mark.parametrize("failing", [1, 2])
    def test_sort_failure_raises_at_any_load_and_releases_the_plan(self, failing,
                                                                   monkeypatch):
        # the forms are sorted before the rows, so a failing sort is no error row; the
        # forms built before it are released with the plan
        base = generate_scenario(DESK, 4)
        sorts, held = [], []

        def sort(*args):
            sorts.append(args[1])  # the layout: the earlier form must not be kept here
            if len(sorts) > 2 * (failing - 1):
                raise InvalidParams("demands must be finite and non-negative")
            form = sort_demands(*args)
            held.append(weakref.ref(form))
            return form

        monkeypatch.setattr(fairshare, "sort_demands", sort)
        with pytest.raises(InvalidParams):
            run_experiment(base, ALL_SCHEMES, [1.0, 2.0], "linear",
                           solver_config=SolverConfig(epsilon=1.0))
        assert len(held) == 2 * (failing - 1) and all(ref() is None for ref in held)

    @pytest.mark.parametrize("scaled", ["hotspot", "uniform"])
    def test_each_load_sorts_only_what_its_load_changed(self, scaled, monkeypatch):
        # every load's sorted forms are built before its rows, so no row sorts, and each
        # equals a fresh sort of its load's demands bit for bit; from the second load on
        # they are sorted from the previous load's, sharing the tables of every group
        # that holds no scaled flow
        hot, mask = hotspot_scenario()
        flow_ids = hot.flows.id[mask] if scaled == "hotspot" else None
        seen, sorts = [], []
        allocate = sim._allocate_for_scheme

        def checked(scheme, scen, *args):
            before = len(sorts)
            fills = scen.cell_fill, scen.pair_fill
            assert len(sorts) == before
            assert fills[0].demands is scen.resource_demand
            assert fills[1].demands is scen.resource_demand
            for fill in fills:
                assert table_bits(fill) == fresh_bits(fill)
            if scheme == SCHEME_APP_OPT:
                seen.append(fills)
            return allocate(scheme, scen, *args)

        monkeypatch.setattr(sim, "_allocate_for_scheme", checked)
        monkeypatch.setattr(fairshare, "sort_demands",
                            lambda *a: sorts.append(a[1]) or sort_demands(*a))
        run_experiment(hot, ALL_SCHEMES, [1.0, 4.0, 9.0], "logarithmic",
                       solver_config=SolverConfig(epsilon=1.0), scale_flow_ids=flow_ids)
        assert len(seen) == 3 and len(sorts) == 6
        for earlier, later in zip(seen, seen[1:]):
            for a, b in zip(earlier, later):
                shared = [x is y for x, y in zip(a.tables, b.tables)]
                assert not any(shared) if scaled == "uniform" else any(shared) and not all(shared)

    def test_app_opt_sweep_sorts_no_pair_form(self, monkeypatch):
        # only the baselines fill the (entity, element) pairs; the app-opt rows are those
        # of the sweep over every scheme
        hot, mask = hotspot_scenario()
        layouts = []
        monkeypatch.setattr(fairshare, "sort_demands",
                            lambda *a: layouts.append(a[1]) or sort_demands(*a))
        kwargs = dict(solver_config=SolverConfig(epsilon=1.0), scale_flow_ids=hot.flows.id[mask])
        alone = run_experiment(hot, [SCHEME_APP_OPT], [1.0, 2.0], "logarithmic", **kwargs)
        # the sweep releases its plan, so the layout is the one each sort was given: one
        # object, over the (element, app) cells
        assert len(layouts) == 2 and layouts[0] is layouts[1]
        assert layouts[0].num_pools == hot.ratios.values.size
        every = run_experiment(hot, ALL_SCHEMES, [1.0, 2.0], "logarithmic", **kwargs)
        assert [replace(r, solve_ms=None) for r in alone.rows] == \
            [replace(r, solve_ms=None) for r in every.rows if r.scheme == SCHEME_APP_OPT]

    @pytest.mark.parametrize("flow_ids, error", [([999], UnknownReference),
                                                 ([1.5], InvalidParams)])
    def test_malformed_flow_ids_rejected_before_any_cell(self, flow_ids, error):
        with pytest.raises(error):
            run_experiment(generate_scenario(DESK, 1), ALL_SCHEMES, [1.0], "linear",
                           scale_flow_ids=flow_ids)

    def test_flow_id_forms_give_the_same_rows(self):
        # the hotspot ids as a tuple (what perfbench passes), an int64 array (what the
        # CLI passes), a list and a set
        base = generate_scenario(DESK, 5)
        hot = add_hotspot(base, HotspotParams(n_flows=60, n_elements=20), 6)
        ids = hot.flows.id[len(base.flows):]
        assert ids.dtype == np.int64
        rows = [tuple(replace(row, solve_ms=None) for row in run_experiment(
                    hot, ALL_SCHEMES, [1.0, 4.0], "logarithmic",
                    solver_config=SolverConfig(epsilon=1.0), scale_flow_ids=form).rows)
                for form in (tuple(ids.tolist()), ids, ids.tolist(), set(ids.tolist()))]
        assert all(r == rows[0] for r in rows[1:])
        assert rows[0][3].total_utility != rows[0][0].total_utility  # load 4 scaled the ids

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

    @NOT_REAL_LOADS
    def test_malformed_load_rejected_before_any_cell(self, load, monkeypatch):
        monkeypatch.setattr(sim, "_row", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidParams, match="load multiplier"):
            run_experiment(generate_scenario(DESK, 1), ALL_SCHEMES, [1.0, load], "linear")

    @pytest.mark.parametrize("loads", [2.0, np.float64(2.0), np.array(2.0), None],
                             ids=["float", "numpy-float", "0-d-array", "None"])
    def test_loads_that_are_no_iterable_rejected_before_any_cell(self, loads, monkeypatch):
        # a bare load once failed with an untyped TypeError
        monkeypatch.setattr(sim, "_row", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidParams, match="iterable of load multipliers"):
            run_experiment(generate_scenario(DESK, 1), ALL_SCHEMES, loads, "linear")

    def test_unknown_utility_kind_rejected_before_any_cell(self):
        with pytest.raises(InvalidParams, match="unknown utility kind"):
            run_experiment(generate_scenario(DESK, 1), ALL_SCHEMES, [1.0], "cubic")

    def test_linear_utility_non_decreasing_in_load(self):
        base = generate_scenario(DESK, 6)
        rep = run_experiment(base, [SCHEME_APP_OPT], [1.0, 2.0, 4.0, 8.0], "linear",
                             solver_config=SolverConfig(epsilon=0.5))
        series = [r.total_utility for r in rep.rows]
        assert all(b >= a - 1e-6 for a, b in zip(series, series[1:]))


def traced(call):
    """(what ``call()`` returns, its traced peak and the traced bytes it leaves, each
    above what was live when it began)."""
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        out = call()
        gc.collect()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - live, left - live


def hotspot_flows():
    """A fresh hotspot sweep's inputs at the benchmark's size: 100,000 base flows, 20,000
    hotspot flows, and the hotspot flows' ids."""
    base = generate_scenario(ScenarioParams(num_flows=100_000), 1)
    hot = add_hotspot(base, HotspotParams(n_flows=20_000), 2)
    return hot, hot.flows.id[len(base.flows):]


def hotspot_sweep(hot, ids):
    return run_experiment(hot, ALL_SCHEMES, [1.0, 5.0, 10.0, 15.0], "logarithmic",
                          solver_config=SolverConfig(epsilon=1.0), scale_flow_ids=ids)


class TestFlowLevelMemory:
    """What a hotspot sweep of 120,000 flows holds, by tracemalloc; one flow-length float
    array is 0.96 MB."""

    def test_generated_columns_are_not_copied(self):
        # Flows shares the fresh frozen columns that generate_scenario and add_hotspot hand
        # it; a copy of each would double the peak
        def columns(scen):
            return sum(getattr(scen.flows, name).nbytes
                       for name in ("id", "entity", "app", "element", "demand"))

        base, peak, _ = traced(lambda: generate_scenario(ScenarioParams(num_flows=100_000), 1))
        assert peak < 1.5 * columns(base)
        hot, peak, _ = traced(lambda: add_hotspot(base, HotspotParams(n_flows=20_000), 2))
        assert peak < 1.5 * columns(hot)

    def test_sweep_leaves_only_its_report(self):
        # the released plan keeps neither its sorted forms nor its layouts and ratios, which
        # held 2.7 MB; what is left is the report's rows and the plan's empty shell
        hot, ids = hotspot_flows()
        report, _, left = traced(lambda: hotspot_sweep(hot, ids))
        assert all(row.error is None for row in report.rows)
        assert left < 1 << 16

    def test_sweep_peak(self):
        # the sweep peaks at 13.3 flow-length arrays, in a carried pair sort: the load's
        # demand and resource demand, the earlier resource demand, the plan's ratios, both
        # sorted forms, the two layouts and the sort's padded copy; with a flow-length
        # temporary in each row's QoE count it peaked there, at 13.6
        hot, ids = hotspot_flows()
        _, peak, _ = traced(lambda: hotspot_sweep(hot, ids))
        assert peak < 13.45 * 8 * len(hot.flows)

    @pytest.mark.parametrize("metric", [lambda a, f: qoe_satisfied_count(a, f),
                                        lambda a, f: flow_utility(a, "logarithmic"),
                                        lambda a, f: flow_utility(a, "linear")],
                             ids=["qoe", "log-utility", "linear-utility"])
    def test_metrics_make_no_flow_length_temporary(self, metric):
        hot, _ = hotspot_flows()
        alloc = net_rsv_allocate(hot)
        _, peak, _ = traced(lambda: metric(alloc, hot.flows))
        assert peak < 8 * len(hot.flows)

    def test_second_sweep_rebuilds_the_released_plan(self):
        hot, ids = hotspot_flows()
        first, again = (tuple(replace(row, solve_ms=None) for row in hotspot_sweep(hot, ids).rows)
                        for _ in range(2))
        assert first == again

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    def test_metrics_a_chunk_at_a_time(self, chunk, monkeypatch):
        # whole-array references; the log utility's chunks add their dot products in
        # another order, so it keeps a float64 rounding tolerance
        hot, mask = hotspot_scenario()
        scen = scale_load(hot, 3.0, mask)
        alloc = net_rsv_allocate(scen)
        monkeypatch.setattr(fairshare, "_CHUNK", chunk)
        granted = np.maximum(alloc.resource, sim.LOG_FLOOR)
        met = qoe_satisfied_count(alloc, scen.flows)
        assert type(met) is int  # a report row's count, written as JSON
        assert met == np.count_nonzero(alloc.bandwidth >= scen.flows.demand - sim.QOE_SLACK)
        assert flow_utility(alloc, "logarithmic") == pytest.approx(
            np.vdot(alloc.demand_resource, np.log(granted)), rel=1e-13)
        assert flow_utility(alloc, "linear") == float(alloc.resource.sum())


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
