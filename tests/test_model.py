from dataclasses import replace

import numpy as np
import pytest

from ranshare.errors import DimensionMismatch, InfeasibleConfig, InvalidParams
from ranshare.model import AllocationMatrix, Flow, Flows, check_feasible, expand_bounds
from ranshare.sim import Scenario
from ranshare.utility import TranslatingRatios

from conftest import make_instance


def scenario(capacities=(100.0, 200.0), min_share=(0.1, 0.2), max_share=(0.4, 0.5)):
    """A scenario of these elements and applications, one entity and no flows."""
    return Scenario(capacities=capacities, min_share=min_share, max_share=max_share,
                    num_entities=1, flows=Flows.of([]),
                    ratios=TranslatingRatios(np.ones((len(capacities), len(min_share)))), seed=0)


class TestDomainTypes:
    def test_application_share_ordering_enforced(self):
        assert np.array_equal(scenario().max_share, [0.4, 0.5])
        for mn, mx in [(0.5, 0.4), (-0.1, 0.4), (0.1, 1.2), (np.nan, 0.4)]:
            with pytest.raises(InvalidParams, match="application 1"):
                scenario(min_share=(0.1, mn), max_share=(0.4, mx))

    def test_element_capacity_positive(self):
        with pytest.raises(InvalidParams, match="element 1"):
            scenario(capacities=(100.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_element_capacity_finite(self, bad):
        with pytest.raises(InvalidParams, match="element 0"):
            scenario(capacities=(bad, 100.0))

    def test_scenario_arrays_read_only_and_shaped(self):
        scen = scenario()
        for arr in (scen.capacities, scen.min_share, scen.max_share):
            assert not arr.flags.writeable
        # the translating ratios set the number of elements and applications
        with pytest.raises(DimensionMismatch, match="max_share"):
            replace(scen, max_share=[0.4, 0.5, 0.6])
        with pytest.raises(DimensionMismatch, match="capacities"):
            replace(scen, capacities=[100.0])

    def test_flow_demand_positive(self):
        with pytest.raises(InvalidParams, match="flow 0"):
            Flows.of([Flow(id=0, entity_id=0, app_id=0, element_id=0, demand_bw=0.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_flow_demand_finite(self, bad):
        with pytest.raises(InvalidParams, match="flow 0"):
            Flows.of([Flow(id=0, entity_id=0, app_id=0, element_id=0, demand_bw=bad)])

    @pytest.mark.parametrize("field", ["capacities", "lower", "upper", "coeff"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_instance_rejects_non_finite(self, field, bad):
        arrays = dict(capacities=[10.0], lower=[[2.0]], upper=[[8.0]], coeff=[[1.0]])
        arrays[field] = np.full_like(np.array(arrays[field]), bad)
        with pytest.raises(InvalidParams):
            make_instance(**arrays)

    def test_allocation_matrix_rejects_negative(self):
        with pytest.raises(InvalidParams):
            AllocationMatrix([[1.0, -0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_allocation_matrix_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParams):
            AllocationMatrix([[1.0, bad]])

    def test_instance_requires_log_positive_lower(self):
        with pytest.raises(InvalidParams):
            make_instance([10.0], [[0.0]], [[8.0]], [[1.0]], kind="logarithmic")

    def test_instance_rejects_lower_exceeding_capacity(self):
        with pytest.raises(InfeasibleConfig):
            make_instance([10.0], [[6.0, 6.0]], [[8.0, 8.0]], [[1.0, 1.0]])

    def test_instance_aggregate_bounds_are_read_only_column_sums(self):
        rng = np.random.default_rng(5)
        lower = rng.uniform(0.0, 1.0, (7, 3)) * 10.0 ** rng.uniform(-6, 2, (7, 3))
        upper = lower + rng.uniform(0.0, 50.0, lower.shape)
        inst = make_instance(np.full(7, 1e4), lower, upper, np.ones(lower.shape))
        assert np.array_equal(inst.app_lower, lower.sum(axis=0))
        assert np.array_equal(inst.app_upper, upper.sum(axis=0))
        for name in ("app_lower", "app_upper"):
            with pytest.raises(ValueError):
                getattr(inst, name)[0] = 0.0
            with pytest.raises(AttributeError):
                setattr(inst, name, np.zeros(3))

    def test_instance_is_immutable(self, tiny_instance):
        with pytest.raises(ValueError):
            tiny_instance.lower[0, 0] = 5.0


class TestFlows:
    FLOWS = [Flow(id=5, entity_id=1, app_id=2, element_id=3, demand_bw=0.5),
             Flow(id=2, entity_id=0, app_id=1, element_id=4, demand_bw=1.25),
             Flow(id=9, entity_id=1, app_id=0, element_id=0, demand_bw=3.0)]

    def test_round_trip(self):
        f = Flows.of(self.FLOWS)
        assert Flows.of(list(f)) == f
        assert list(f) == self.FLOWS
        assert Flows.of([]) == Flows([], [], [], [], [])
        assert f != Flows.of(self.FLOWS[:2]) and f != self.FLOWS

    def test_sequence_reads(self):
        f = Flows.of(self.FLOWS)
        assert len(f) == 3 and len(Flows.of([])) == 0
        assert f[1] == self.FLOWS[1] and f[-1] == self.FLOWS[-1]
        assert type(f[0].id) is int and type(f[0].demand_bw) is float
        assert isinstance(f[1:], Flows) and list(f[1:]) == self.FLOWS[1:]
        assert f[::2] == Flows.of(self.FLOWS[::2])
        assert [g.id for g in f] == [5, 2, 9]
        with pytest.raises(IndexError):
            f[3]

    def test_columns_read_only(self):
        f = Flows.of(self.FLOWS)
        assert f.id.dtype == np.int64 and f.demand.dtype == float
        for col in (f.id, f.entity, f.app, f.element, f.demand):
            with pytest.raises(ValueError):
                col[0] = 1

    def test_columns_copied(self):
        demand = np.array([1.0, 2.0])
        f = Flows([0, 1], [0, 0], [0, 0], [0, 0], demand)
        demand[0] = 5.0
        assert f.demand[0] == 1.0 and demand.flags.writeable
        # read-only columns that own their data are shared; a read-only view is copied
        g = Flows(f.id, f.entity, f.app, f.element, f.demand)
        assert g.id is f.id and g.demand is f.demand
        view = f.demand[:1]
        assert Flows([0], [0], [0], [0], view).demand is not view

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DimensionMismatch, match="demand"):
            Flows([0, 1], [0, 0], [0, 0], [0, 0], [1.0])
        with pytest.raises(DimensionMismatch, match="app"):
            Flows([0, 1], [0, 0], [0], [0, 0], [1.0, 1.0])

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("bad", [1.7, np.nan, np.inf, 1e30, "1"])
    def test_non_integer_column_rejected(self, column, bad):
        cols = [[0, 1], [0, 0], [0, 0], [0, 0], [1.0, 1.0]]
        cols[column] = [1, bad]
        name = ("id", "entity", "app", "element")[column]
        with pytest.raises(InvalidParams, match=f"column {name} "):
            Flows(*cols)
        cols[column] = [1.0, 2.0]  # whole floats are integers
        assert Flows(*cols)[1] == Flow(*(c[1] for c in cols))

    @pytest.mark.parametrize("flows", [[(1, 0, 0, 0)], [(1, 0, 0, 0, 1.0, 2)],
                                       [(1, 0, 0, 0, 1.0), (2, 0, 0, 0)], [1, 2]])
    def test_of_rejects_wrong_field_count(self, flows):
        with pytest.raises(DimensionMismatch, match="5 fields"):
            Flows.of(flows)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_demand_names_flow(self, bad):
        with pytest.raises(InvalidParams, match="flow 7"):
            Flows([3, 7], [0, 0], [0, 0], [0, 0], [1.0, bad])
        with pytest.raises(InvalidParams, match="flow 7"):
            Flows([3, 7], [0, 0], [0, 0], [0, 0], [1.0, 1.0]).with_demand([1.0, bad])

    def test_with_demand_shares_the_other_columns(self):
        f = Flows.of(self.FLOWS)
        demand = np.array([1.0, 2.0, 4.0])
        g = f.with_demand(demand)
        assert all(a is b for a, b in zip((g.id, g.entity, g.app, g.element),
                                          (f.id, f.entity, f.app, f.element)))
        assert g == Flows(f.id, f.entity, f.app, f.element, demand)
        demand[0] = 5.0  # a writeable demand is copied, as on construction
        assert g.demand[0] == 1.0 and not g.demand.flags.writeable
        assert list(f.demand) == [0.5, 1.25, 3.0]
        with pytest.raises(DimensionMismatch, match="demand"):
            f.with_demand([1.0, 2.0])


class TestExpandBounds:
    def test_single_element_single_app(self):
        lower, upper = expand_bounds([0.05], [0.40], [100.0])
        assert lower[0, 0] == 5.0 and upper[0, 0] == 40.0

    def test_focus_and_background_shares_aggregate(self):
        # two heavy apps at (5%, 40%) plus 98 background apps over B = 200,000
        mins = [0.05, 0.05] + [0.0001] * 98
        maxs = [0.40, 0.40] + [0.90 / 98] * 98
        caps = np.full(1000, 200.0)
        lower, upper = expand_bounds(mins, maxs, caps)
        inst = make_instance(caps, lower, upper, np.ones(lower.shape))
        assert inst.app_lower[0] == pytest.approx(10_000.0, abs=1e-6)
        assert inst.app_upper[0] == pytest.approx(80_000.0, abs=1e-6)

    def test_oversubscribed_minima_rejected(self):
        with pytest.raises(InfeasibleConfig):
            expand_bounds([0.6, 0.6], [0.7, 0.7], [100.0])

    def test_aggregate_identities_exact(self):
        rng = np.random.default_rng(3)
        mins = rng.uniform(0.001, 0.04, 12)
        caps = rng.uniform(100, 300, 37)
        lower, upper = expand_bounds(mins, mins + 0.02, caps)
        inst = make_instance(caps, lower, upper, np.ones(lower.shape))
        # identities hold bit-for-bit, not just approximately
        assert np.array_equal(lower.sum(axis=0), inst.app_lower)
        assert np.array_equal(upper.sum(axis=0), inst.app_upper)

    def test_homogeneous_in_capacity(self):
        mins, maxs = [0.05, 0.01], [0.4, 0.2]
        out1 = expand_bounds(mins, maxs, [110.0, 250.0])
        out2 = expand_bounds(mins, maxs, [3.0 * 110.0, 3.0 * 250.0])
        for a, b in zip(out1, out2):
            assert np.allclose(3.0 * np.asarray(a), np.asarray(b), rtol=1e-15)


class TestCheckFeasible:
    def test_lower_corner_is_feasible_with_zero_tol(self):
        inst = make_instance([10.0], [[2.0, 3.0]], [[6.0, 7.0]], [[1.0, 1.0]])
        report = check_feasible(inst, AllocationMatrix(inst.lower.copy()), tol=0.0)
        assert report.feasible
        assert report.app_lower == 0.0  # aggregate floors bind exactly at s = l

    def test_element_capacity_violation_magnitude(self):
        inst = make_instance([10.0], [[0.0, 0.0]], [[8.0, 8.0]], [[1.0, 1.0]])
        report = check_feasible(inst, AllocationMatrix([[6.0, 6.0]]))
        assert report.element_capacity == pytest.approx(2.0)
        assert not report.feasible

    def test_box_violation_magnitude(self):
        inst = make_instance([20.0], [[2.0]], [[8.0]], [[1.0]])
        report = check_feasible(inst, AllocationMatrix([[8.5]]))
        assert report.box_upper == pytest.approx(0.5)
        assert not report.feasible

    def test_dimension_mismatch(self, tiny_instance):
        with pytest.raises(DimensionMismatch):
            check_feasible(tiny_instance, AllocationMatrix([[1.0, 2.0]]))
