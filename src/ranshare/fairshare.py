"""Max-min fair water-filling, shared by the baselines and the flow level."""

from __future__ import annotations

import weakref
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
    """Demands grouped, sorted and summed by pool: the half of a fill that no budget enters.

    ``demands`` are the checked demands and ``layout`` their pools.  ``tables``
    holds, per group of ``layout.groups``, read-only ``(block, prefix,
    total)``: the pools' demands sorted along each ``+inf``-padded row, the
    sum of the entries below each rank as a row ``np.cumsum`` gives it, and
    each pool's sum.  A later sorted form over the same layout may share the
    tables of the groups whose demands it keeps.  ``water_fill`` fills it
    under any budgets: the level search and one ``np.minimum``.
    """

    demands: np.ndarray
    layout: PoolLayout
    tables: tuple


def sort_demands(demands, layout: PoolLayout, earlier: SortedDemands | None = None
                 ) -> SortedDemands:
    """``demands`` over the pools of ``layout``, sorted and summed once for fills under
    many budgets.

    Each pool's demands are sorted along a ``+inf``-padded row and summed
    with a row ``np.cumsum`` (see ``SortedDemands``), so a fill sums nothing.

    With ``earlier``, a sorted form over the same layout, a group whose pools
    all kept the bits of their demands in ``earlier.demands`` shares the
    earlier tables (0.0 against -0.0 is a change), and any other group is
    sorted and summed whole, as a fresh sort does.  The result is the one a
    fresh sort gives, bit for bit, so a sweep whose loads scale a few flows
    sorts only the groups of their pools again.

    Demands that are not a 1-D array of finite non-negative values raise
    ``InvalidParams``, and a layout of another length ``DimensionMismatch``;
    an ``earlier`` that is not a sorted form over this layout raises
    ``InvalidParams``.  Writeable demands are copied, so the sorted form
    never changes.
    """
    d = np.asarray(demands, dtype=float)
    if d.ndim != 1:
        raise InvalidParams("demands must be a 1-D array")
    if not np.all(np.isfinite(d) & (d >= 0)):
        raise InvalidParams("demands must be finite and non-negative")
    if d.flags.writeable:
        d = frozen(d.copy())
    if earlier is not None and not (isinstance(earlier, SortedDemands)
                                    and earlier.layout is layout):
        raise InvalidParams("an earlier sorted form must be over the same layout")
    if layout.key.size != d.size:
        raise DimensionMismatch(f"a layout of {layout.key.size} demands given {d.size} demands")
    if earlier is None:
        changed, kept = np.ones(layout.num_pools, dtype=bool), (None,) * len(layout.groups)
    else:
        changed, kept = np.zeros(layout.num_pools, dtype=bool), earlier.tables
        changed[layout.key[d.view(np.int64) != earlier.demands.view(np.int64)]] = True

    padded = np.append(d, np.inf)
    tables = []
    for (seg, n, gather), old in zip(layout.groups, kept):
        if not changed[seg].any():
            tables.append(old)
            continue
        block = padded[gather]
        block.sort(axis=1)
        prefix = np.empty(block.shape)
        prefix[:, 0] = 0.0
        np.cumsum(block[:, :-1], axis=1, out=prefix[:, 1:])
        at = np.arange(len(block)), n[:, 0] - 1
        tables.append(tuple(map(frozen, (block, prefix, prefix[at] + block[at]))))
    return SortedDemands(d, layout, tuple(tables))


def water_fill(fill: SortedDemands, capacity) -> np.ndarray:
    """Max-min fair split of each pool's budget across its demands.

    ``fill`` holds the demands sorted and summed over their pools by
    ``sort_demands``, once for any budgets; demand j draws on ``capacity[p]``,
    p its pool in ``fill.layout``.  A pool whose budget covers its demand gets
    exactly its demands, one with budget <= 0 nothing, any other min(d, w) at
    the unique level w with sum(min(d, w)) == budget.  Permuting the demands
    and their pools permutes the output identically.  A ``fill`` that is not a
    ``SortedDemands`` or NaN budgets raise ``InvalidParams``, budgets for
    another pool count ``DimensionMismatch``.

    This is the per-budget stage of a fill; ``sort_demands`` is the
    per-demand one, and it keeps each sorted row's sums, so a fill only
    searches each row for its level and takes one ``np.minimum``.  Only the
    values are sorted, never the flows: the levels, and so the result, are
    those of a per-pool ``np.cumsum`` over the demands in ``np.lexsort``
    order, bit for bit.
    """
    if not isinstance(fill, SortedDemands):
        raise InvalidParams(f"water_fill takes the SortedDemands of sort_demands, "
                            f"got {type(fill).__name__}")
    cap = np.asarray(capacity, dtype=float)
    if cap.ndim != 1 or np.any(np.isnan(cap)):
        raise InvalidParams("capacity must be a 1-D array of budgets, none of them NaN")
    if fill.layout.num_pools != cap.size:
        raise DimensionMismatch(f"{fill.layout.num_pools} pools given {cap.size} budgets")

    level = np.full(cap.size, np.inf)
    for (seg, n, _), (block, prefix, total) in zip(fill.layout.groups, fill.tables):
        budget = cap[seg]
        # the level if the entries from this rank up all sit at it; the first
        # rank where it does not exceed the entry's demand fixes the pool's level.
        # A pool with no such rank among its demands has a budget that covers its
        # total, so the level taken from its padding or its rank 0 gives way to inf
        # n - rank in the narrow type of n, 8 bytes fewer per entry than a float
        # grid; the division promotes each to the float it is, exactly
        with np.errstate(divide="ignore", invalid="ignore"):  # in the padding
            candidate = np.subtract(budget[:, None], prefix)
            candidate /= n - np.arange(block.shape[1], dtype=n.dtype)
        first = (candidate <= block).argmax(axis=1)
        at = candidate[np.arange(seg.size), first]
        level[seg] = np.where(total <= budget, np.inf, np.maximum(at, 0.0))
    level[cap <= 0] = 0.0
    out = _spread(level, fill.layout.key)
    return np.minimum(fill.demands, out, out=out)


# entries a pass over flow-length arrays takes at a time: 128 KiB of floats or intp,
# which stays in a core's cache
_CHUNK = 1 << 14


def chunks(size, dtype=float):
    """``(part, scratch)`` per ``_CHUNK`` entries of ``range(size)``: the slice of
    the chunk and a scratch array of ``dtype`` as long as it.

    Every chunk reuses one scratch buffer, so a pass over flow-length arrays
    allocates no flow-length temporary.
    """
    scratch = np.empty(min(size, _CHUNK), dtype=dtype)
    for start in range(0, size, _CHUNK):
        yield slice(start, start + _CHUNK), scratch[:size - start]


def _spread(level, key):
    """``level[key]``, with the narrow ``key`` widened to intp a chunk at a time.

    numpy gathers fastest with an intp index.  Given a narrow one it widens
    the whole key into a fresh array first, and a layout that kept an intp
    key would hold 1.4 MB more per sweep of 120,000 flows; a chunk at a time
    takes such a gather from about 0.39 to 0.20 ms on a 2-vCPU host.
    """
    out = np.empty(key.size)
    for part, wide in chunks(key.size, np.intp):
        np.copyto(wide, key[part])
        # mode="clip" lets np.take write to out directly: the keys are in range
        np.take(level, wide, mode="clip", out=out[part])
    return out


class FlowPlan:
    """One flow set's flow level: the load-invariant parts, each built on first use, and
    the latest demands sorted over them.

    A sweep builds the pool layouts of the (element, app) cells and of the
    (entity, element) pairs, and each flow's translating ratio, once for
    every load and scheme.  ``scenario`` has ``flows``, ``ratios`` and
    ``num_entities``.  The plan keeps the resource demand, which both layouts
    sort, and the sorted form over each layout of the latest demand array it
    is given, which it holds only weakly: the same read-only array gets them
    again, another a form built from the kept one by ``sort_demands(demands,
    layout, earlier)``.  So a load sorts again only the groups it changed, and
    reading two scenarios of one plan by turns sorts at every turn.
    ``release`` drops all the plan built, the layouts and the ratios too, so
    a released plan holds no flow-length array; the next read builds again
    what it needs.
    """

    def __init__(self, scenario):
        self.flows = scenario.flows
        self.ratios = scenario.ratios.values
        self.num_entities = scenario.num_entities
        self._kept = {}

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

    def resource_demand(self, demand) -> np.ndarray:
        return self._latest("resource", demand, lambda _: frozen(demand * self.ratio))

    def cell_fill(self, demand) -> SortedDemands:
        return self._latest("cells", demand, lambda old: sort_demands(
            self.resource_demand(demand), self.cells, old))

    def pair_fill(self, demand) -> SortedDemands:
        return self._latest("pairs", demand, lambda old: sort_demands(
            self.resource_demand(demand), self.pairs, old))

    def release(self):
        for name in ("cells", "pairs", "ratio"):
            vars(self).pop(name, None)
        self._kept.clear()

    def _latest(self, name, demand, build):
        source, kept = self._kept.get(name, (lambda: None, None))
        if source() is not demand or demand.flags.writeable:
            kept = build(kept)
            self._kept[name] = weakref.ref(demand), kept
        return kept
