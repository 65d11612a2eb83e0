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

    # by pool, then by demand: a stable sort of a narrow pool key lets numpy use radix
    # sort; the order of equal demands does not matter, as the levels depend only on
    # each pool's sorted values
    by_d = np.argsort(d)
    order = by_d[np.argsort(pool[by_d].astype(np.min_scalar_type(cap.size - 1)), kind="stable")]
    ds, ps = d[order], pool[order].astype(np.intp)
    sizes = np.bincount(ps, minlength=cap.size)
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(d.size) - starts[ps]
    csum = _segment_cumsum(ds, starts, sizes)
    # the level if the entries from this rank up all sit at it; the first
    # rank where it does not exceed the entry's demand fixes the pool's level
    candidate = (cap[ps] - np.where(rank > 0, np.roll(csum, 1), 0.0)) / (sizes[ps] - rank)
    hit = np.flatnonzero(candidate <= ds)
    first = hit[np.diff(ps[hit], prepend=-1) != 0]
    level = np.full(cap.size, np.inf)
    level[ps[first]] = np.maximum(candidate[first], 0.0)
    total = np.zeros(cap.size)
    total[sizes > 0] = csum[(starts + sizes - 1)[sizes > 0]]
    level[total <= cap] = np.inf
    level[cap <= 0] = 0.0
    return np.minimum(d, level[pool])


def _segment_cumsum(values, starts, sizes) -> np.ndarray:
    """Cumulative sums restarting at each segment, bit-equal to ``np.cumsum`` of it.

    Segments are zero-padded to the next power of two and summed as rows of
    one block per width: the padding at most doubles the work.
    """
    out = np.empty_like(values)
    width = 2 ** np.ceil(np.log2(np.maximum(sizes, 1))).astype(int)
    for w in np.unique(width[sizes > 0]):
        seg = np.flatnonzero((width == w) & (sizes > 0))
        inside = np.arange(w) < sizes[seg, None]
        at = (starts[seg, None] + np.arange(w))[inside]
        block = np.zeros(inside.shape)
        block[inside] = values[at]
        out[at] = np.cumsum(block, axis=1)[inside]
    return out
