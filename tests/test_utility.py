import math

import numpy as np
import pytest

from ranshare.errors import DomainError, InvalidParams
from ranshare.model import AllocationMatrix, Flows
from ranshare.sim import Scenario
from ranshare.utility import TranslatingRatios, estimate_demand, total_utility

from conftest import make_instance, random_instance


def cells(ratios, *flows):
    """A scenario over the grid of ``ratios`` holding one entity's flows, each given as
    (element, app, demand_bw)."""
    ratios = TranslatingRatios(ratios)
    num_i, num_k = ratios.shape
    element, app, bw = zip(*flows) if flows else ((), (), ())
    zeros = [0] * len(bw)
    return Scenario(capacities=np.ones(num_i), min_share=np.zeros(num_k),
                    max_share=np.ones(num_k), num_entities=1,
                    flows=Flows(range(len(bw)), zeros, app, element, bw), ratios=ratios, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_translating_ratios_finite_and_positive(bad):
    with pytest.raises(InvalidParams):
        TranslatingRatios([[1.0, bad]])


class TestEstimateDemand:
    def test_no_flows_gives_zero_matrix(self):
        d = estimate_demand(cells(np.full((3, 2), 1.5)))
        assert np.array_equal(d, np.zeros((3, 2)))
        assert not d.flags.writeable

    def test_single_flow_scaled_by_ratio(self):
        d = estimate_demand(cells([[1.0, 1.5]], (0, 1, 2.0)))
        assert d[0, 1] == pytest.approx(3.0)

    def test_flows_at_same_cell_sum_before_scaling(self):
        d = estimate_demand(cells([[2.0]], (0, 0, 0.5), (0, 0, 1.0), (0, 0, 0.5)))
        assert d[0, 0] == pytest.approx(4.0)

    def test_unknown_cell_rejected(self):
        # a flow outside the grid never reaches the estimate: its scenario is not built
        with pytest.raises(InvalidParams, match="unknown object"):
            cells([[1.0]], (0, 3, 1.0))

    def test_additive_in_flow_splits(self):
        # splitting one flow into two with the same total leaves demand unchanged
        rng = np.random.default_rng(11)
        ratios = rng.uniform(0.1, 4.0, (4, 3))
        for _ in range(25):
            i, k = int(rng.integers(4)), int(rng.integers(3))
            bw = float(rng.uniform(0.5, 3.0))
            cut = float(rng.uniform(0.1, 0.9)) * bw
            whole = estimate_demand(cells(ratios, (i, k, bw)))
            split = estimate_demand(cells(ratios, (i, k, cut), (i, k, bw - cut)))
            assert np.allclose(whole, split, rtol=1e-12, atol=1e-12)


class TestTotalUtility:
    def test_zero_coefficients_zero_utility(self):
        inst = make_instance([10.0], [[1.0, 1.0]], [[4.0, 4.0]], [[0.0, 0.0]],
                             kind="logarithmic")
        assert total_utility(inst, AllocationMatrix([[2.0, 3.0]])) == 0.0

    def test_linear_1x1(self):
        inst = make_instance([10.0], [[0.0]], [[8.0]], [[1.0]])
        assert total_utility(inst, AllocationMatrix([[6.0]])) == 6.0

    def test_log_domain_error(self):
        # the log is undefined at a zero allocation, which lies outside every log box
        inst = make_instance([10.0], [[1.0, 1.0]], [[4.0, 4.0]], [[1.0, 1.0]],
                             kind="logarithmic")
        with pytest.raises(DomainError):
            total_utility(inst, AllocationMatrix([[0.0, 2.0]]))

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

    def test_log_cells_without_utility_change_no_bit(self):
        # the log sum runs over the cells with c > 0 alone: any positive value at a cell with
        # c = 0 gives the same bits, and a non-positive value anywhere still raises
        rng = np.random.default_rng(29)
        unweighted_seen = weighted_seen = 0
        for _ in range(40):
            inst = random_instance(rng, kind="logarithmic", zero_coeff_prob=0.5)
            lo, hi = inst.lower, inst.upper
            s = lo + rng.uniform(0.1, 0.9, lo.shape) * (hi - lo)
            want = total_utility(inst, AllocationMatrix(s))
            unweighted = inst.coeff == 0
            unweighted_seen += int(unweighted.sum())
            weighted_seen += int((~unweighted).sum())
            moved = np.where(unweighted, 10.0 ** rng.uniform(-300, 300, lo.shape), s)
            assert total_utility(inst, AllocationMatrix(moved)) == want
            for cell in np.ndindex(lo.shape):
                for bad in (0.0, -0.0):
                    broken = moved.copy()
                    broken[cell] = bad
                    with pytest.raises(DomainError):
                        total_utility(inst, AllocationMatrix(broken))
        assert unweighted_seen >= 20 and weighted_seen >= 20
