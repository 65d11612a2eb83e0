import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ranshare import fairshare
from ranshare.errors import DimensionMismatch, InvalidParams
from ranshare.fairshare import pool_layout, sort_demands, water_fill


def fill_demands(d, budgets, pool=None):
    """One fill of raw demands: all in one pool under the one budget ``budgets``, or
    demand j in pool ``pool[j]`` under ``budgets[pool[j]]``, sorted afresh."""
    if pool is None:
        pool, budgets = np.zeros(np.size(d), dtype=np.intp), [budgets]
    return water_fill(sort_demands(d, pool_layout(pool, len(budgets))), budgets)


def test_capacity_covers_demand():
    d = np.array([1.0, 3.0, 0.5])
    out = fill_demands(d, 10.0)
    assert np.array_equal(out, d)


def test_two_flows_water_level():
    # demands (1, 3), capacity 2 -> level 1 -> allocations (1, 1)
    out = fill_demands(np.array([1.0, 3.0]), 2.0)
    assert np.allclose(out, [1.0, 1.0])


def test_identical_flows_split_evenly():
    out = fill_demands(np.array([4.0, 4.0]), 4.0)
    assert np.allclose(out, [2.0, 2.0])


def test_empty_and_zero_capacity():
    assert fill_demands(np.array([]), 5.0).size == 0
    assert np.array_equal(fill_demands(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])


def test_order_independent():
    rng = np.random.default_rng(2)
    for _ in range(40):
        d = rng.uniform(0.0, 5.0, int(rng.integers(1, 12)))
        cap = float(rng.uniform(0.0, d.sum() * 1.2))
        perm = rng.permutation(d.size)
        base = fill_demands(d, cap)
        permuted = fill_demands(d[perm], cap)
        assert np.array_equal(base[perm], permuted)


def test_conservation_and_caps():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = rng.uniform(0.0, 5.0, int(rng.integers(1, 10)))
        cap = float(rng.uniform(0.0, d.sum() * 1.5 + 0.1))
        out = fill_demands(d, cap)
        assert np.all(out <= d + 1e-12)
        assert out.sum() <= min(cap, d.sum()) + 1e-9
        if d.sum() > cap:  # scarce: capacity exhausted at the unique water level
            assert out.sum() == pytest.approx(cap, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("demands, capacity", [([1.0, np.nan], 1.0), ([1.0, np.inf], 1.0),
                                               ([1.0, 2.0], np.nan)])
def test_non_finite_input_rejected(demands, capacity):
    with pytest.raises(InvalidParams):
        fill_demands(np.array(demands), capacity)


def test_pool_must_index_capacity():
    with pytest.raises(InvalidParams):
        fill_demands(np.array([1.0, 2.0]), np.array([1.0]), np.array([0, 1]))
    with pytest.raises(DimensionMismatch):
        fill_demands(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([0]))


@pytest.mark.parametrize("demands, pool", [([[1.0, 2.0]], None), ([1.0, -2.0], None),
                                           ([1.0, 2.0], [0.0, 1.0]), ([1.0, 2.0], [0, -1]),
                                           ([[1.0, 2.0]], [0, 1])])
def test_malformed_demands_and_pools_raise_invalid_params(demands, pool):
    capacity = 3.0 if pool is None else np.array([1.0, 1.0])
    with pytest.raises(InvalidParams):
        fill_demands(np.array(demands), capacity, None if pool is None else np.array(pool))


def _lexsort_fill(d, cap, pool):
    """``water_fill``'s levels from ``np.lexsort``'s pool-then-demand order, one pool at a time."""
    order = np.lexsort((d, pool))
    ds, ps = d[order], pool[order]
    level = np.full(cap.size, np.inf)
    for segment in np.split(np.arange(d.size), np.flatnonzero(np.diff(ps)) + 1):
        p, values = ps[segment[0]], ds[segment]
        csum = np.cumsum(values)
        if csum[-1] <= cap[p]:
            continue
        candidate = (cap[p] - np.append(0.0, csum[:-1])) / (values.size - np.arange(values.size))
        hit = np.flatnonzero(candidate <= values)
        if hit.size:
            level[p] = max(candidate[hit[0]], 0.0)
    level[cap <= 0] = 0.0
    return np.minimum(d, level[pool])


@pytest.mark.parametrize("num_pools", [1, 7, 300, 70_000])
def test_sort_matches_lexsort_bit_for_bit(num_pools):
    # demands drawn from a few values, so most pools hold ties; 70,000 pools need a
    # wider pool key than 16 bits
    rng = np.random.default_rng(num_pools)
    for _ in range(5):
        n = int(rng.integers(1, 4 * num_pools + 50))
        d = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 7.5], n) * rng.choice([1.0, 1.0, 1.0 + 1e-12], n)
        pool = rng.integers(0, num_pools, n)
        cap = rng.uniform(0.0, 2.0, num_pools) * np.bincount(pool, d, num_pools)
        cap[rng.random(num_pools) < 0.1] = 0.0
        assert np.array_equal(fill_demands(d, cap, pool), _lexsort_fill(d, cap, pool))


def _floats_away(x, k):
    """``x`` moved ``k`` floats up, or ``-k`` down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def test_budgets_at_and_around_every_breakpoint_fill_as_lexsort():
    # every budget sits at some rank's breakpoint prefix + (n - rank) * demand, or up to
    # 4 floats from it, over rows of ties (values times 1, 1 + 2**-52 or 1 - 2**-53),
    # where the level test can go true, false and true again along a row, rows with
    # zero and subnormal demands, and pools of exactly a power-of-two size, whose rows
    # have no padding to stop a search that finds no rank
    rng = np.random.default_rng(12)
    sizes = np.tile([1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32], 8)
    pool = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    subnormal = np.nextafter(0.0, 1.0)
    d = rng.choice([0.5, 1.0, 3.0, 7.25], pool.size) * rng.choice(
        [1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53], pool.size)
    kind = pool % 4  # 0: ties; 1: ties and zeros; 2: subnormals and zeros; 3: all three
    d[(kind % 2 == 1) & (rng.random(pool.size) < 0.3)] = 0.0
    small = (kind >= 2) & (rng.random(pool.size) < 0.7)
    d[small] = rng.integers(0, 4, small.sum()) * subnormal
    fill = sort_demands(d, pool_layout(pool, sizes.size))
    # each pool's breakpoints in ascending rank, its last one repeated up to the widest
    breakpoints = np.empty((sizes.size, sizes.max()))
    for p in range(sizes.size):
        values = np.sort(d[pool == p])
        below = np.append(0.0, np.cumsum(values)[:-1])
        at = below + (values.size - np.arange(values.size)) * values
        breakpoints[p] = np.append(at, np.repeat(at[-1], sizes.max() - values.size))
    for rank in range(sizes.max()):
        for k in range(-4, 5):
            cap = _floats_away(breakpoints[:, rank], k)
            assert water_fill(fill, cap).tobytes() == _lexsort_fill(d, cap, pool).tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_levels_reach_the_demands_a_chunk_of_keys_at_a_time(chunk, monkeypatch):
    # 40,001 demands are no multiple of any chunk, so the last one is short
    monkeypatch.setattr(fairshare, "_CHUNK", chunk)
    rng = np.random.default_rng(13)
    pool = rng.integers(0, 300, 40_001)
    d = rng.uniform(0.0, 2.0, pool.size)
    cap = 0.6 * np.bincount(pool, d, 300)
    cap[::7] = 0.0
    got = water_fill(sort_demands(d, pool_layout(pool, 300)), cap)
    assert got.tobytes() == _lexsort_fill(d, cap, pool).tobytes()


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
    got = fill_demands(d, budgets, pool)
    np.testing.assert_allclose(got, per_pool_fill(d, budgets, pool), rtol=1e-12, atol=0)
    assert np.array_equal(fill_demands(d[perm], budgets, pool[perm]), got[perm])
    for p, budget in enumerate(budgets):
        members = pool == p
        total = math.fsum(d[members])
        assert math.fsum(got[members]) == pytest.approx(min(budget, total), rel=1e-12)
        if budget > total * (1 + 1e-9):  # the pool's demand fits
            assert np.array_equal(got[members], d[members])


def _fill_without_warnings(d, budgets, pool=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the padding divides 0/0 and x/0
        return fill_demands(d, budgets, pool)


def test_pool_sizes_around_powers_of_two_in_one_call():
    # sizes 1, 2^k and 2^k + 1 land in blocks of width 1, 2^k and 2^(k+1)
    rng = np.random.default_rng(5)
    sizes = np.array([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 256, 257])
    pool = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    n = pool.size
    d = rng.choice([0.0, 1.0, 2.5], n) + rng.choice([0.0, 1.0], n) * rng.random(n)  # ties
    for share in (0.0, 0.3, 0.7, 1.0, 1.5):
        budgets = share * np.bincount(pool, d)
        got = _fill_without_warnings(d, budgets, pool)
        np.testing.assert_allclose(got, per_pool_fill(d, budgets, pool), rtol=1e-12, atol=0)
        assert np.array_equal(got, _lexsort_fill(d, budgets, pool))


def test_one_pool_wider_than_a_16_bit_count():
    rng = np.random.default_rng(6)
    d = rng.uniform(0.0, 3.0, 70_000)
    for capacity in (0.0, 0.4 * d.sum(), 2.0 * d.sum()):
        got = _fill_without_warnings(d, capacity)
        np.testing.assert_allclose(got, reference_fill(d, capacity), rtol=1e-12, atol=0)


def test_infinite_budgets_zero_demands_and_empty_pools():
    # pool 0: budget +inf; 1: all-zero demands under a positive budget; 2 and 4 empty;
    # 3: scarce; 5: -inf
    d = np.array([1.0, 4.0, 0.0, 0.0, 0.0, 2.0, 3.0, 5.0, 1.0])
    pool = np.array([0, 0, 1, 1, 1, 3, 3, 3, 5])
    budgets = np.array([np.inf, 2.0, 7.0, 6.0, np.inf, -np.inf])
    got = _fill_without_warnings(d, budgets, pool)
    np.testing.assert_allclose(got, per_pool_fill(d, budgets, pool), rtol=1e-12, atol=0)
    assert np.array_equal(got, [1.0, 4.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0])


def test_one_layout_fills_many_demand_vectors_as_lexsort():
    # one layout, built once, of pools sized around powers of two, one wider than
    # 65,536 and one empty, serves every fill bit for bit as the np.lexsort oracle
    rng = np.random.default_rng(7)
    sizes = np.array([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 256, 257, 70_000, 0])
    pool = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    layout = pool_layout(pool, sizes.size)
    for _ in range(4):
        d = rng.choice([0.0, 0.5, 1.0, 2.5], pool.size) * rng.choice([1.0, 1.0 + 1e-12], pool.size)
        cap = rng.uniform(0.0, 1.5, sizes.size) * np.bincount(pool, d, sizes.size)
        assert np.array_equal(water_fill(sort_demands(d, layout), cap), _lexsort_fill(d, cap, pool))


def test_layout_checks():
    layout = pool_layout(np.array([0, 1, 1]), 2)
    with pytest.raises(DimensionMismatch):  # demands of another length
        sort_demands(np.ones(4), layout)
    with pytest.raises(DimensionMismatch):  # budgets for another pool count
        water_fill(sort_demands(np.ones(3), layout), np.ones(3))
    for pool, num_pools in (([0, 2], 2), ([0, 1], 0), ([0, 1], 2.0), ([[0, 1]], 2)):
        with pytest.raises(InvalidParams):
            pool_layout(np.array(pool), num_pools)


def test_one_sorted_form_fills_many_budget_vectors_as_lexsort():
    # one sorted form, of pools sized around powers of two and one empty, filled under
    # budgets that are scarce, ample, zero, negative or infinite, equals independent
    # fills and the np.lexsort oracle bit for bit
    rng = np.random.default_rng(8)
    sizes = np.array([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 256, 257, 0])
    pool = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    d = rng.choice([0.0, 0.5, 1.0, 2.5], pool.size) * rng.choice([1.0, 1.0 + 1e-12], pool.size)
    layout = pool_layout(pool, sizes.size)
    fill = sort_demands(d, layout)
    totals = np.bincount(pool, d, sizes.size)
    budgets = [rng.uniform(0.0, 1.5, sizes.size) * totals, np.zeros(sizes.size),
               np.where(rng.random(sizes.size) < 0.5, -1.0, 0.4 * totals),
               np.where(rng.random(sizes.size) < 0.5, np.inf, 0.7 * totals),
               np.full(sizes.size, -np.inf)]
    for cap in budgets:
        got = water_fill(fill, cap)
        assert np.array_equal(got, fill_demands(d, cap, pool))
        assert np.array_equal(got, water_fill(sort_demands(d, layout), cap))
        assert np.array_equal(got, _lexsort_fill(d, cap, pool))


def test_sorted_form_checks():
    layout = pool_layout(np.array([0, 1, 1]), 2)
    d = np.array([1.0, 2.0, 3.0])
    fill = sort_demands(d, layout)
    d[0] = 5.0  # writeable demands were copied
    assert np.array_equal(water_fill(fill, np.array([0.5, 10.0])), [0.5, 2.0, 3.0])
    with pytest.raises(InvalidParams):  # demands of the wrong form, before any pool check
        sort_demands(np.ones((1, 4)), layout)
    with pytest.raises(InvalidParams):
        sort_demands(np.array([1.0, np.nan, 1.0]), layout)
    with pytest.raises(DimensionMismatch):  # demands of another length
        sort_demands(np.ones(4), layout)
    with pytest.raises(InvalidParams):  # raw demands are sorted first
        water_fill(d, np.ones(2))
    with pytest.raises(InvalidParams):  # NaN budgets, before the pool count
        water_fill(fill, np.array([np.nan, 1.0, 1.0]))
    with pytest.raises(DimensionMismatch):  # budgets for another pool count
        water_fill(fill, np.ones(3))


def _assert_same_sorted_form(got, want):
    """Two sorted forms hold the same demands and tables, bit for bit and dtype for dtype."""
    assert got.layout is want.layout
    assert got.demands.tobytes() == want.demands.tobytes()
    assert len(got.tables) == len(want.tables) == len(got.layout.groups)
    for table, other in zip(got.tables, want.tables):
        assert len(table) == len(other) == 3  # block, prefix, total
        for a, b in zip(table, other):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def _assert_shared_where_unchanged(carried, earlier, changed_pools):
    """A carried form shares an earlier group's tables, not copies of them, exactly where
    no pool of the group changed."""
    for (seg, *_), new, old in zip(carried.layout.groups, carried.tables, earlier.tables):
        unchanged = not np.isin(seg, changed_pools).any()
        assert (new is old) == unchanged
        assert all((a is b) == unchanged for a, b in zip(new, old))


def _scaled(d, chosen, multiplier):
    return np.where(chosen, d * multiplier, d)


# sizes 1 (single-flow pools), around powers of two, 70 and 200 (widths 128 and 256,
# whose n - rank values do not fit in int8) and one empty pool
_SIZES = np.array([1, 1, 1, 2, 3, 5, 8, 9, 17, 70, 70, 200, 0])


@pytest.mark.parametrize("case", ["hotspot", "uniform", "part-of-a-group", "single-flow",
                                  "nothing"])
def test_carried_sorted_form_equals_a_fresh_sort(case):
    rng = np.random.default_rng(9)
    pool = rng.permutation(np.repeat(np.arange(_SIZES.size), _SIZES))
    layout = pool_layout(pool, _SIZES.size)
    d = rng.choice([0.5, 1.0, 2.5], pool.size) * rng.choice([1.0, 1.0 + 1e-12], pool.size)
    chosen = {
        # the flows of two whole pools, as a hotspot's flows fill their own cells
        "hotspot": np.isin(pool, [9, 11]),
        "uniform": np.ones(pool.size, dtype=bool),
        # one of the two pools of size 70 shares its group with one left as it was
        "part-of-a-group": (pool == 10) & (rng.random(pool.size) < 0.5),
        "single-flow": np.isin(pool, [0, 2]),
        "nothing": np.zeros(pool.size, dtype=bool),
    }[case]
    earlier = sort_demands(_scaled(d, chosen, 5.0), layout)
    for multiplier in (1.0, 9.0, 5.0):
        demands = _scaled(d, chosen, multiplier)
        fresh = sort_demands(demands, layout)
        carried = sort_demands(demands, layout, earlier)
        _assert_same_sorted_form(carried, fresh)
        _assert_shared_where_unchanged(carried, earlier, pool[chosen])
        totals = np.bincount(pool, demands, _SIZES.size)
        for share in (0.0, 0.4, 0.8, 1.2):
            cap = share * totals
            got = water_fill(carried, cap)
            assert np.array_equal(got, water_fill(fresh, cap))
            assert np.array_equal(got, _lexsort_fill(demands, cap, pool))
        earlier = carried


def test_pool_sizes_in_the_narrowest_type_that_holds_the_width():
    # widths 64, 128 and 256 need int8, int16 and int16 to hold every n - rank of the
    # level search; the fills divide by them exactly
    sizes = np.array([64, 33, 100, 65, 200, 129])
    pool = np.repeat(np.arange(sizes.size), sizes)
    layout = pool_layout(pool, sizes.size)
    for (seg, n, gather), want in zip(layout.groups, (np.int8, np.int16, np.int16)):
        assert n.dtype == want and gather.shape[1] in (64, 128, 256)
        assert np.array_equal(n[:, 0], sizes[seg]) and not n.flags.writeable
    rng = np.random.default_rng(10)
    d = rng.choice([0.5, 1.0, 2.5], pool.size) * rng.choice([1.0, 1.0 + 1e-12], pool.size)
    for share in (0.2, 0.6, 0.95):
        cap = share * np.bincount(pool, d)
        assert np.array_equal(water_fill(sort_demands(d, layout), cap), _lexsort_fill(d, cap, pool))


def test_carried_sorted_form_checks():
    layout = pool_layout(np.array([0, 1, 1]), 2)
    other = pool_layout(np.array([0, 1, 1]), 2)
    d = np.array([1.0, 2.0, 3.0])
    fill = sort_demands(d, layout)
    with pytest.raises(InvalidParams):  # an earlier form over another layout
        sort_demands(d, other, fill)
    with pytest.raises(InvalidParams):  # an earlier that is no sorted form
        sort_demands(d, layout, fill.tables)
    with pytest.raises(DimensionMismatch):  # demands of another length
        sort_demands(d[:2], layout, fill)
    with pytest.raises(InvalidParams):  # the demands are checked first
        sort_demands(np.array([1.0, -1.0, 1.0]), layout, fill)


def test_carried_sort_finds_the_pools_whose_demands_changed():
    # pool 0's demands go from (1, 2) to (5, 2): keeping its earlier sorted row
    # would hand out (5, 2) from its budget of 4
    layout = pool_layout(np.array([0, 0, 1, 1]), 2)
    earlier = sort_demands(np.array([1.0, 2.0, 3.0, 4.0]), layout)
    carried = sort_demands(np.array([5.0, 2.0, 3.0, 4.0]), layout, earlier)
    assert water_fill(carried, [4.0, 7.0]).tolist() == [2.0, 2.0, 3.0, 4.0]


@st.composite
def two_demand_vectors(draw):
    """A pool per demand, and two demand vectors over them that share some entries."""
    num_pools = draw(st.integers(1, 8))
    value = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 1e-12, 2.5]) | st.floats(0.0, 100.0)
    pool = np.array(draw(st.lists(st.integers(0, num_pools - 1), max_size=60)), dtype=np.intp)
    n = pool.size
    first, other = (np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
                    for _ in range(2))
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return pool, num_pools, first, np.where(keep, first, other)


@settings(max_examples=300, deadline=None)
@given(two_demand_vectors())
@example((np.array([0, 0, 1, 1]), 2, np.array([1.0, 2.0, 3.0, 4.0]),
          np.array([5.0, 2.0, 3.0, 4.0])))
# 0.0 against -0.0 is a change
@example((np.array([0, 1, 1]), 2, np.array([0.0, 1.0, -0.0]), np.array([-0.0, 1.0, 0.0])))
def test_carried_sort_is_a_fresh_sort(case):
    pool, num_pools, d1, d2 = case
    layout = pool_layout(pool, num_pools)
    earlier = sort_demands(d1, layout)
    carried = sort_demands(d2, layout, earlier)
    fresh = sort_demands(d2, layout)
    _assert_same_sorted_form(carried, fresh)
    _assert_shared_where_unchanged(carried, earlier,
                                   pool[d1.view(np.int64) != d2.view(np.int64)])
    totals = np.bincount(pool, d2, num_pools)
    for share in (0.0, 0.5, 1.0):
        assert water_fill(carried, share * totals).tobytes() == \
            water_fill(fresh, share * totals).tobytes()
