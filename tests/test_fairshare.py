import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranshare.fairshare import water_fill


def test_capacity_covers_demand():
    d = np.array([1.0, 3.0, 0.5])
    out = water_fill(d, 10.0)
    assert np.array_equal(out, d)


def test_two_flows_water_level():
    # demands (1, 3), capacity 2 -> level 1 -> allocations (1, 1)
    out = water_fill(np.array([1.0, 3.0]), 2.0)
    assert np.allclose(out, [1.0, 1.0])


def test_identical_flows_split_evenly():
    out = water_fill(np.array([4.0, 4.0]), 4.0)
    assert np.allclose(out, [2.0, 2.0])


def test_empty_and_zero_capacity():
    assert water_fill(np.array([]), 5.0).size == 0
    assert np.array_equal(water_fill(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])


def test_order_independent():
    rng = np.random.default_rng(2)
    for _ in range(40):
        d = rng.uniform(0.0, 5.0, int(rng.integers(1, 12)))
        cap = float(rng.uniform(0.0, d.sum() * 1.2))
        perm = rng.permutation(d.size)
        base = water_fill(d, cap)
        permuted = water_fill(d[perm], cap)
        assert np.array_equal(base[perm], permuted)


def test_conservation_and_caps():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = rng.uniform(0.0, 5.0, int(rng.integers(1, 10)))
        cap = float(rng.uniform(0.0, d.sum() * 1.5 + 0.1))
        out = water_fill(d, cap)
        assert np.all(out <= d + 1e-12)
        assert out.sum() <= min(cap, d.sum()) + 1e-9
        if d.sum() > cap:  # scarce: capacity exhausted at the unique water level
            assert out.sum() == pytest.approx(cap, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("demands, capacity", [([1.0, np.nan], 1.0), ([1.0, np.inf], 1.0),
                                               ([1.0, 2.0], np.nan)])
def test_non_finite_input_rejected(demands, capacity):
    with pytest.raises(ValueError):
        water_fill(np.array(demands), capacity)


def test_pool_must_index_capacity():
    with pytest.raises(ValueError):
        water_fill(np.array([1.0, 2.0]), np.array([1.0]), pool=np.array([0, 1]))
    with pytest.raises(ValueError):
        water_fill(np.array([1.0, 2.0]), np.array([1.0, 1.0]), pool=np.array([0]))


def reference_fill(d, capacity):
    """One pool, by a scan over the sorted demands for the water level."""
    if d.size == 0 or capacity <= 0:
        return np.zeros_like(d)
    if d.sum() <= capacity:
        return d.copy()
    ds = np.sort(d)
    csum = np.cumsum(ds)
    level = ds[-1]
    for j in range(d.size):
        candidate = (capacity - (csum[j - 1] if j else 0.0)) / (d.size - j)
        if candidate <= ds[j]:
            level = candidate
            break
    return np.minimum(d, max(level, 0.0))


def per_pool_fill(d, budgets, pool):
    out = np.zeros_like(d)
    for p, budget in enumerate(budgets):
        members = np.flatnonzero(pool == p)
        out[members] = reference_fill(d[members], budget)
    return out


@st.composite
def pooled_demands(draw):
    """Demands spread over pools, some empty; budgets from zero to twice the demand."""
    num_pools = draw(st.integers(1, 6))
    demand = st.floats(0.0, 100.0) | st.sampled_from([0.0, 0.5, 1.0, 3.0])  # ties
    d = np.array(draw(st.lists(demand, max_size=40)), dtype=float)
    pool = np.array(draw(st.lists(st.integers(0, num_pools - 1),
                                  min_size=d.size, max_size=d.size)), dtype=np.intp)
    share = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 2.0)
    shares = np.array(draw(st.lists(share, min_size=num_pools, max_size=num_pools)))
    totals = np.array([math.fsum(d[pool == p]) for p in range(num_pools)])
    budgets = shares * totals
    if draw(st.booleans()):  # budgets of empty pools may be anything
        budgets[totals == 0] = draw(st.floats(0.0, 10.0))
    perm = np.array(draw(st.permutations(range(d.size))), dtype=np.intp)
    return d, budgets, pool, perm


@settings(max_examples=300, deadline=None)
@given(pooled_demands())
def test_segmented_fill_matches_per_pool_fill(case):
    d, budgets, pool, perm = case
    got = water_fill(d, budgets, pool=pool)
    np.testing.assert_allclose(got, per_pool_fill(d, budgets, pool), rtol=1e-12, atol=0)
    assert np.array_equal(water_fill(d[perm], budgets, pool=pool[perm]), got[perm])
    for p, budget in enumerate(budgets):
        members = pool == p
        total = math.fsum(d[members])
        assert math.fsum(got[members]) == pytest.approx(min(budget, total), rel=1e-12)
        if budget > total * (1 + 1e-9):  # the pool's demand fits
            assert np.array_equal(got[members], d[members])
