import numpy as np
import pytest

from ranshare.errors import DimensionMismatch, InfeasibleConfig, InvalidParams
from ranshare.model import (AllocationMatrix, Application, Flow, Flows, RadioElement,
                            check_feasible, expand_bounds)

from conftest import make_instance


def app(k, mn, mx, qoe=1.0):
    return Application(id=k, priority=0, qoe_factor=qoe, min_share=mn, max_share=mx)


class TestDomainTypes:
    def test_application_share_ordering_enforced(self):
        with pytest.raises(InvalidParams):
            app(0, 0.5, 0.4)
        with pytest.raises(InvalidParams):
            app(0, -0.1, 0.4)
        with pytest.raises(InvalidParams):
            app(0, 0.1, 1.2)

    def test_application_qoe_positive(self):
        with pytest.raises(InvalidParams):
            app(0, 0.1, 0.2, qoe=0.0)

    def test_element_capacity_positive(self):
        with pytest.raises(InvalidParams):
            RadioElement(id=0, capacity=0.0)

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

    def test_instance_aggregate_bounds_must_match_sums(self):
        from ranshare.model import ProblemInstance
        with pytest.raises(InvalidParams):
            ProblemInstance(capacities=[10.0], lower=[[2.0]], upper=[[8.0]],
                            app_lower=[3.0], app_upper=[8.0], coeff=[[1.0]])

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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DimensionMismatch, match="demand"):
            Flows([0, 1], [0, 0], [0, 0], [0, 0], [1.0])
        with pytest.raises(DimensionMismatch, match="app"):
            Flows([0, 1], [0, 0], [0], [0, 0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_demand_names_flow(self, bad):
        with pytest.raises(InvalidParams, match="flow 7"):
            Flows([3, 7], [0, 0], [0, 0], [0, 0], [1.0, bad])


class TestExpandBounds:
    def test_single_element_single_app(self):
        lower, upper, app_lower, app_upper = expand_bounds(
            [app(0, 0.05, 0.40)], [RadioElement(id=0, capacity=100.0)])
        assert lower[0, 0] == 5.0 and upper[0, 0] == 40.0
        assert app_lower[0] == 5.0 and app_upper[0] == 40.0

    def test_focus_and_background_shares_aggregate(self):
        # two heavy apps at (5%, 40%) plus 98 background apps over B = 200,000
        apps = [app(0, 0.05, 0.40), app(1, 0.05, 0.40)]
        apps += [app(2 + j, 0.0001, 0.90 / 98) for j in range(98)]
        elements = [RadioElement(id=i, capacity=200.0) for i in range(1000)]
        lower, upper, app_lower, app_upper = expand_bounds(apps, elements)
        assert app_lower[0] == pytest.approx(10_000.0, abs=1e-6)
        assert app_upper[0] == pytest.approx(80_000.0, abs=1e-6)

    def test_oversubscribed_minima_rejected(self):
        apps = [app(0, 0.6, 0.7), app(1, 0.6, 0.7)]
        with pytest.raises(InfeasibleConfig):
            expand_bounds(apps, [RadioElement(id=0, capacity=100.0)])

    def test_aggregate_identities_exact(self):
        rng = np.random.default_rng(3)
        apps = [app(k, float(m), float(m) + 0.02)
                for k, m in enumerate(rng.uniform(0.001, 0.04, 12))]
        elements = [RadioElement(id=i, capacity=float(c))
                    for i, c in enumerate(rng.uniform(100, 300, 37))]
        lower, upper, app_lower, app_upper = expand_bounds(apps, elements)
        # identities hold bit-for-bit, not just approximately
        assert np.array_equal(lower.sum(axis=0), app_lower)
        assert np.array_equal(upper.sum(axis=0), app_upper)

    def test_homogeneous_in_capacity(self):
        apps = [app(0, 0.05, 0.4), app(1, 0.01, 0.2)]
        els1 = [RadioElement(id=i, capacity=c) for i, c in enumerate([110.0, 250.0])]
        els2 = [RadioElement(id=i, capacity=3.0 * c) for i, c in enumerate([110.0, 250.0])]
        out1 = expand_bounds(apps, els1)
        out2 = expand_bounds(apps, els2)
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
