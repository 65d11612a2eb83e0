"""Max-min fair water-filling, shared by the baselines and the flow level."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidParams
from .model import frozen, integers


@dataclass(frozen=True, eq=False)
class PoolLayout:
    """Which demands share a pool, arranged for ``water_fill``; built by ``pool_layout``.

    ``key`` is the pool of each demand, in the narrowest unsigned type that
    holds ``num_pools - 1``.  ``groups`` holds, per power-of-two width w, the
    pools of that width, their sizes n as a column in the narrowest signed
    type that holds w, and an int32 (pools, w) array of indices into the
    demands; the padding points at index ``key.size``, one past the demands,
    where ``sort_demands`` puts one ``+inf``.  A layout depends on the pools
    alone, a ``SortedDemands`` on the demands too, and neither on the budgets.
    """

    num_pools: int
    key: np.ndarray
    groups: tuple


def pool_layout(pool, num_pools) -> PoolLayout:
    """The layout of ``num_pools`` pools, demand j drawing on pool ``pool[j]``.

    A pool that is not a 1-D array of integers in ``[0, num_pools)`` raises
    ``InvalidParams``.  The demands are grouped by pool with one radix sort of
    the pool key, and the pools of each power-of-two width become the rows of
    one padded block.  Nothing here depends on the demands, so one layout
    serves every fill over the same pools.
    """
    pool = np.asarray(pool)
    if not integers(num_pools) or num_pools < 0:
        raise InvalidParams(f"the number of pools must be a non-negative integer, got {num_pools!r}")
    if (pool.ndim != 1 or pool.dtype.kind not in "iu" or np.any(pool < 0)
            or np.any(pool >= num_pools)):
        raise InvalidParams("pool entries must be integers indexing into capacity")

    # a stable sort of a narrow pool key lets numpy use radix sort; padding a pool to
    # a power of two at most doubles its work, while padding every pool to the widest
    # made the calls of a hotspot sweep 1.8x slower
    key = pool.astype(np.min_scalar_type(num_pools - 1))
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=num_pools)
    live = np.flatnonzero(sizes)
    sizes = sizes[live]
    starts = np.cumsum(sizes) - sizes
    # the widths in use, found without np.unique, whose first call imports numpy.ma
    exponent = np.ceil(np.log2(sizes)).astype(int)
    index = np.int32 if pool.size < np.iinfo(np.int32).max else np.intp
    groups = []
    for e in np.flatnonzero(np.bincount(exponent)):
        at = np.flatnonzero(exponent == e)
        n, rank = sizes[at, None], np.arange(2 ** e)
        gather = np.where(rank < n, order.take(starts[at, None] + rank, mode="clip"),
                          pool.size).astype(index)
        # a signed type that holds -1 - w holds every n - rank of the level search,
        # from n - w + 1 up to n <= w
        groups.append((live[at], n.astype(np.min_scalar_type(-1 - 2 ** e)), gather))
    for arr in (key, *(a for group in groups for a in group)):
        arr.setflags(write=False)
    return PoolLayout(num_pools, key, tuple(groups))


@dataclass(frozen=True, eq=False)
class SortedDemands:
    """Demands grouped and sorted by pool: the half of a fill that no budget enters.

    ``demands`` are the checked demands and ``layout`` their pools.  ``blocks``
    holds, per group of ``layout.groups``, the pools' demands sorted along
    each ``+inf``-padded row, read-only, so a later sorted form over the same
    layout may share the blocks of the groups whose demands it keeps.
    ``water_fill`` fills it under any budgets: row sums, the level search and
    one ``np.minimum``.
    """

    demands: np.ndarray
    layout: PoolLayout
    blocks: tuple


def sort_demands(demands, layout: PoolLayout, earlier: SortedDemands | None = None,
                 changed=None) -> SortedDemands:
    """``demands`` over the pools of ``layout``, sorted once for fills under many budgets.

    With ``earlier``, a sorted form over the same layout, ``changed`` is one
    bool per pool that marks every pool whose demands may differ from
    ``earlier``'s; the rows of the other pools are taken from ``earlier`` as
    they are, and a group with no marked pool shares its blocks.  The result
    is the one a fresh sort gives, bit for bit, when the marks hold; a sweep
    whose loads scale a few flows sorts only their pools again.  A fresh sort
    is the case where every pool is marked.

    Demands that are not a 1-D array of finite non-negative values raise
    ``InvalidParams``, and a layout of another length ``DimensionMismatch``;
    so does an ``earlier`` over another layout, or ``changed`` without it or
    not one bool per pool.  Writeable demands are copied, so the sorted form
    never changes.
    """
    d = _checked_demands(demands)
    if d.flags.writeable:
        d = frozen(d.copy())
    if earlier is not None:
        changed = np.asarray(changed)
        if earlier.layout is not layout:
            raise InvalidParams("an earlier sorted form must be over the same layout")
        if changed.dtype != bool or changed.shape != (layout.num_pools,):
            raise InvalidParams(f"changed must mark each of the {layout.num_pools} pools "
                                f"with one bool")
    elif changed is not None:
        raise InvalidParams("changed pools are marked against an earlier sorted form")
    return _sorted(d, layout, earlier, changed)


def water_fill(demands, capacity, pool=None) -> np.ndarray:
    """Max-min fair split of each pool's budget across its demands.

    Without ``pool`` all demands share the one budget ``capacity``; with it,
    demand j draws on ``capacity[pool[j]]``.  ``pool`` is an array of pool
    entries or a ``PoolLayout`` of them, built once by ``pool_layout`` and
    reused for any demands over the same pools.  ``demands`` may instead be a
    ``SortedDemands``, sorted once by ``sort_demands`` and reused for any
    budgets; it carries its pools, so ``pool`` must then be None.  A pool
    whose budget covers its demand gets exactly its demands, one with budget
    <= 0 nothing, any other min(d, w) at the unique level w with
    sum(min(d, w)) == budget.  Permuting the input permutes the output
    identically.  Demands that are not a 1-D array of finite non-negative
    values, NaN budgets and pool entries that do not index ``capacity`` raise
    ``InvalidParams``, in that order; a pool array of another length than the
    demands, or a layout of another length or another pool count than the
    budgets, raises ``DimensionMismatch``.

    A fill has two stages, and every call runs both on one path: a per-demand
    stage (``sort_demands``: gather the demands into the layout's row blocks
    and sort the values along the rows) and a per-budget stage (the row
    ``cumsum``, the level search and ``np.minimum``).  The sums are not kept
    with the sorted rows: a sorted form is kept across the loads of a sweep,
    and it is half the size without them.  Only the values are sorted, never
    the flows: the levels, and so the result, are those of a per-pool
    ``np.cumsum`` over the demands in ``np.lexsort`` order, bit for bit.
    """
    fill = demands if isinstance(demands, SortedDemands) else None
    if fill is None:
        d = _checked_demands(demands)
        if pool is None:
            pool, capacity = np.zeros(d.size, dtype=np.intp), [capacity]
    elif pool is not None:
        raise InvalidParams("sorted demands carry their pools; pass no pool with them")
    cap = np.asarray(capacity, dtype=float)
    if cap.ndim != 1 or np.any(np.isnan(cap)):
        raise InvalidParams("capacity must be a 1-D array of budgets, none of them NaN")
    if fill is None:
        layout = pool
        if not isinstance(layout, PoolLayout):
            if np.shape(pool) != d.shape:
                raise DimensionMismatch(f"{np.shape(pool)} pool entries for {d.shape} demands")
            layout = pool_layout(pool, cap.size)
        fill = _sorted(d, layout)
    if fill.layout.num_pools != cap.size:
        raise DimensionMismatch(f"{fill.layout.num_pools} pools given {cap.size} budgets")

    level = np.full(cap.size, np.inf)
    for (seg, n, _), block in zip(fill.layout.groups, fill.blocks):
        rows, last = np.arange(seg.size), n[:, 0] - 1
        # the sum of the entries below each rank, and the pool's total, each the
        # one a row np.cumsum gives
        candidate = np.empty(block.shape)
        candidate[:, 0] = 0.0
        np.cumsum(block[:, :-1], axis=1, out=candidate[:, 1:])
        covered = candidate[rows, last] + block[rows, last] <= cap[seg]
        # the level if the entries from this rank up all sit at it; the first
        # rank where it does not exceed the entry's demand fixes the pool's level.
        # A pool with no such rank among its demands has a budget that covers its
        # total, so the level taken from its padding or its rank 0 gives way to inf
        # n - rank in the narrow type of n, 8 bytes fewer per entry than a float
        # grid; the division promotes each to the float it is, exactly
        with np.errstate(divide="ignore", invalid="ignore"):  # in the padding
            np.subtract(cap[seg, None], candidate, out=candidate)
            candidate /= n - np.arange(block.shape[1], dtype=n.dtype)
        first = (candidate <= block).argmax(axis=1)
        level[seg] = np.where(covered, np.inf, np.maximum(candidate[rows, first], 0.0))
    level[cap <= 0] = 0.0
    out = level[fill.layout.key]
    return np.minimum(fill.demands, out, out=out)


def _checked_demands(demands) -> np.ndarray:
    """``demands`` as a float array; raises ``InvalidParams`` unless 1-D, finite and >= 0."""
    d = np.asarray(demands, dtype=float)
    if d.ndim != 1:
        raise InvalidParams("demands must be a 1-D array")
    if not np.all(np.isfinite(d) & (d >= 0)):
        raise InvalidParams("demands must be finite and non-negative")
    return d


def _sorted(d, layout, earlier=None, changed=None) -> SortedDemands:
    """The per-demand stage of a fill of the checked demands ``d`` over ``layout``.

    Only the rows of the pools ``changed`` marks are gathered and sorted; the
    others come from ``earlier``.  Without ``earlier`` every pool is marked,
    and every row is sorted.
    """
    if layout.key.size != d.size:
        raise DimensionMismatch(f"a layout of {layout.key.size} demands given {d.size} demands")
    if earlier is None:
        changed, kept = np.ones(layout.num_pools, dtype=bool), (None,) * len(layout.groups)
    else:
        kept = earlier.blocks
    padded = np.append(d, np.inf)
    blocks = []
    for (seg, _, gather), old in zip(layout.groups, kept):
        rows = np.flatnonzero(changed[seg])
        if rows.size == 0:
            blocks.append(old)
            continue
        whole = rows.size == seg.size
        block = padded[gather if whole else gather[rows]]
        block.sort(axis=1)
        if not whole:  # the earlier rows, with the marked ones sorted again
            block, part = old.copy(), block
            block[rows] = part
        blocks.append(frozen(block))
    return SortedDemands(d, layout, tuple(blocks))


class FlowPlan:
    """The load-invariant parts of one flow set's flow level, each built on first use.

    Only the demands change with load, so a sweep builds these once and every
    load and scheme reads them: the pool layout of the (element, app) cells,
    the one of the (entity, element) pairs, and each flow's translating ratio.
    ``scenario`` is anything with ``flows``, ``ratios`` and ``num_entities``;
    its flows' demands are never read.
    """

    def __init__(self, scenario):
        self.flows = scenario.flows
        self.ratios = scenario.ratios.values
        self.num_entities = scenario.num_entities

    @cached_property
    def cells(self) -> PoolLayout:
        num_i, num_k = self.ratios.shape
        return pool_layout(self.flows.element * num_k + self.flows.app, num_i * num_k)

    @cached_property
    def pairs(self) -> PoolLayout:
        num_i = self.ratios.shape[0]
        return pool_layout(self.flows.entity * num_i + self.flows.element,
                           self.num_entities * num_i)

    @cached_property
    def ratio(self) -> np.ndarray:
        return frozen(self.ratios[self.flows.element, self.flows.app])
