"""Max-min fair water-filling, shared by the baselines and the flow level."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidParams


def water_fill(demands, capacity, pool=None) -> np.ndarray:
    """Max-min fair split of each pool's budget across its demands.

    Without ``pool`` all demands share the one budget ``capacity``; with it,
    demand j draws on ``capacity[pool[j]]``.  A pool whose budget covers its
    demand gets exactly its demands, one with budget <= 0 nothing, any other
    min(d, w) at the unique level w with sum(min(d, w)) == budget.  Permuting
    the input permutes the output identically.  Demands that are not a 1-D
    array of finite non-negative values, NaN budgets and pool entries that
    do not index ``capacity`` raise ``InvalidParams``; a pool array of
    another length than the demands raises ``DimensionMismatch``.

    The demands are grouped by pool with one radix sort of the pool key, and
    the pools of each power-of-two width are laid out as the rows of one
    ``+inf``-padded block, sorted and summed along the rows.  Only the values
    are sorted, never the flows: the levels, and so the result, are those of
    a per-pool ``np.cumsum`` over the demands in ``np.lexsort`` order, bit
    for bit.
    """
    d = np.asarray(demands, dtype=float)
    if d.ndim != 1:
        raise InvalidParams("demands must be a 1-D array")
    if not np.all(np.isfinite(d) & (d >= 0)):
        raise InvalidParams("demands must be finite and non-negative")
    if pool is None:
        pool, capacity = np.zeros(d.size, dtype=np.intp), [capacity]
    pool, cap = np.asarray(pool), np.asarray(capacity, dtype=float)
    if cap.ndim != 1 or np.any(np.isnan(cap)):
        raise InvalidParams("capacity must be a 1-D array of budgets, none of them NaN")
    if pool.shape != d.shape:
        raise DimensionMismatch(f"{pool.shape} pool entries for {d.shape} demands")
    if pool.dtype.kind not in "iu" or np.any(pool < 0) or np.any(pool >= cap.size):
        raise InvalidParams("pool entries must be integers indexing into capacity")

    # a stable sort of a narrow pool key lets numpy use radix sort; padding a pool to
    # a power of two at most doubles its work, while padding every pool to the widest
    # made the calls of a hotspot sweep 1.8x slower
    key = pool.astype(np.min_scalar_type(cap.size - 1))
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=cap.size)
    live = np.flatnonzero(sizes)
    sizes = sizes[live]
    starts = np.cumsum(sizes) - sizes
    width = 2 ** np.ceil(np.log2(sizes)).astype(int)
    level, total = np.full(cap.size, np.inf), np.zeros(cap.size)
    for w in np.unique(width):
        at = np.flatnonzero(width == w)
        seg, n, rank, rows = live[at], sizes[at, None], np.arange(w), np.arange(at.size)
        block = d[order.take(starts[at, None] + rank, mode="clip")]
        block[rank >= n] = np.inf  # the padding, read from anywhere in bounds
        block.sort(axis=1)
        csum = np.zeros((at.size, w + 1))
        np.cumsum(block, axis=1, out=csum[:, 1:])
        # the level if the entries from this rank up all sit at it; the first
        # rank where it does not exceed the entry's demand fixes the pool's level.
        # A pool with no such rank among its demands has a budget that covers its
        # total, so the level taken from its padding or its rank 0 is replaced below
        with np.errstate(divide="ignore", invalid="ignore"):  # in the padding
            candidate = (cap[seg, None] - csum[:, :-1]) / (n - rank)
        first = (candidate <= block).argmax(axis=1)
        level[seg] = np.maximum(candidate[rows, first], 0.0)
        total[seg] = csum[rows, n[:, 0]]
    level[total <= cap] = np.inf
    level[cap <= 0] = 0.0
    return np.minimum(d, level[pool])
