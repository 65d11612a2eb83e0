import math

import numpy as np
import pytest

from ranshare.errors import DomainError, InvalidParams, UnknownReference
from ranshare.model import AllocationMatrix, Flow, Flows
from ranshare.utility import (TranslatingRatios, estimate_demand,
                              total_utility, utility_value)

from conftest import make_instance, random_instance


def flow(fid, element, app, bw, entity=0):
    return Flow(id=fid, entity_id=entity, app_id=app, element_id=element, demand_bw=bw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_translating_ratios_finite_and_positive(bad):
    with pytest.raises(InvalidParams):
        TranslatingRatios([[1.0, bad]])


class TestEstimateDemand:
    def test_no_flows_gives_zero_matrix(self):
        ratios = TranslatingRatios(np.full((3, 2), 1.5))
        d = estimate_demand(Flows.of([]), ratios)
        assert np.array_equal(d, np.zeros((3, 2)))
        assert not d.flags.writeable

    def test_single_flow_scaled_by_ratio(self):
        ratios = TranslatingRatios([[1.0, 1.5]])
        d = estimate_demand(Flows.of([flow(0, 0, 1, 2.0)]), ratios)
        assert d[0, 1] == pytest.approx(3.0)

    def test_flows_at_same_cell_sum_before_scaling(self):
        ratios = TranslatingRatios([[2.0]])
        flows = [flow(0, 0, 0, 0.5), flow(1, 0, 0, 1.0), flow(2, 0, 0, 0.5)]
        d = estimate_demand(Flows.of(flows), ratios)
        assert d[0, 0] == pytest.approx(4.0)

    def test_unknown_cell_rejected(self):
        ratios = TranslatingRatios([[1.0]])
        with pytest.raises(UnknownReference):
            estimate_demand(Flows.of([flow(0, 0, 3, 1.0)]), ratios)

    def test_additive_in_flow_splits(self):
        # splitting one flow into two with the same total leaves demand unchanged
        rng = np.random.default_rng(11)
        ratios = TranslatingRatios(rng.uniform(0.1, 4.0, (4, 3)))
        for _ in range(25):
            i, k = int(rng.integers(4)), int(rng.integers(3))
            bw = float(rng.uniform(0.5, 3.0))
            cut = float(rng.uniform(0.1, 0.9)) * bw
            whole = estimate_demand(Flows.of([flow(0, i, k, bw)]), ratios)
            split = estimate_demand(Flows.of([flow(0, i, k, cut), flow(1, i, k, bw - cut)]),
                                    ratios)
            assert np.allclose(whole, split, rtol=1e-12, atol=1e-12)


class TestUtilityValue:
    def test_linear(self):
        assert utility_value("linear", 2.0, 3.0) == 6.0

    def test_log_at_one_is_zero(self):
        assert utility_value("logarithmic", 1.0, 1.0) == 0.0

    def test_log_analytic_point(self):
        assert utility_value("logarithmic", 2.5, math.e ** 2) == pytest.approx(5.0)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            utility_value("logarithmic", 1.0, 0.0)

    def test_monotone_in_amount(self):
        rng = np.random.default_rng(5)
        for kind in ("linear", "logarithmic"):
            for _ in range(50):
                c = float(rng.uniform(0, 4))
                a = float(rng.uniform(0.1, 10))
                b = a + float(rng.uniform(0, 5))
                assert utility_value(kind, c, b) >= utility_value(kind, c, a) - 1e-12


class TestTotalUtility:
    def test_zero_coefficients_zero_utility(self):
        inst = make_instance([10.0], [[1.0, 1.0]], [[4.0, 4.0]], [[0.0, 0.0]],
                             kind="logarithmic")
        assert total_utility(inst, AllocationMatrix([[2.0, 3.0]])) == 0.0

    def test_linear_1x1(self):
        inst = make_instance([10.0], [[0.0]], [[8.0]], [[1.0]])
        assert total_utility(inst, AllocationMatrix([[6.0]])) == 6.0

    def test_log_2x2_cellwise(self):
        # c = [[1,2],[3,4]], s = [[1,e],[e,1]] -> 0 + 2 + 3 + 0 = 5
        e = math.e
        inst = make_instance([10.0, 10.0], [[0.5, 0.5], [0.5, 0.5]],
                             [[5.0, 5.0], [5.0, 5.0]],
                             [[1.0, 2.0], [3.0, 4.0]], kind="logarithmic")
        got = total_utility(inst, AllocationMatrix([[1.0, e], [e, 1.0]]))
        assert got == pytest.approx(5.0, rel=1e-12)

    def test_log_concavity_midpoint(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            inst = random_instance(rng, kind="logarithmic", zero_coeff_prob=0.0)
            lo, hi = inst.lower, inst.upper
            s1 = lo + rng.uniform(0.1, 0.9, lo.shape) * (hi - lo)
            s2 = lo + rng.uniform(0.1, 0.9, lo.shape) * (hi - lo)
            mid = total_utility(inst, AllocationMatrix((s1 + s2) / 2.0))
            ends = 0.5 * (total_utility(inst, AllocationMatrix(s1))
                          + total_utility(inst, AllocationMatrix(s2)))
            assert mid >= ends - 1e-9
            if np.abs(s1 - s2).max() > 1.0:  # strict away from the diagonal
                assert mid > ends
