"""Utility functions, translating ratios and per-period demand estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams
from .model import AllocationMatrix, ProblemInstance, frozen, frozen_array


@dataclass(frozen=True, eq=False)
class TranslatingRatios:
    """Average resource units needed per Mbps for application k at element i; ``values``
    is taken by :func:`frozen_array`'s rule."""

    values: np.ndarray  # (I, K), strictly positive

    def __post_init__(self):
        arr = frozen_array(self.values, name="translating ratios")
        if arr.ndim != 2:
            raise InvalidParams("translating ratios must form a 2-D matrix")
        if not np.all((arr > 0) & np.isfinite(arr)):
            raise InvalidParams("translating ratios must be finite and strictly positive")
        object.__setattr__(self, "values", arr)

    @property
    def shape(self):
        return self.values.shape

    def __eq__(self, other):
        return isinstance(other, TranslatingRatios) and np.array_equal(self.values, other.values)


def estimate_demand(scenario) -> np.ndarray:
    """Aggregate the scenario's flow bandwidth demands into per-cell resource demands.

    Returns the read-only (I, K) array d with d[i, k] = p[i, k] * sum of
    demand_bw over flows served by element i under application k; cells
    without flows stay 0.  The flows' cells are the pools of
    ``scenario.flow_plan.cells``, checked to lie on the grid when the
    scenario was built.
    """
    num_elements, num_apps = scenario.ratios.shape
    bw = np.bincount(scenario.flow_plan.cells.key, weights=scenario.flows.demand,
                     minlength=num_elements * num_apps)
    return frozen(bw.reshape(num_elements, num_apps) * scenario.ratios.values)


def total_utility(inst: ProblemInstance, alloc: AllocationMatrix) -> float:
    """Sum of per-cell utilities: c s over the whole grid for linear utility; for
    logarithmic utility c log s over the weighted cells (c > 0) alone, in flat order.

    A cell with c = 0 carries no log utility, so its allocation changes no bit of the
    sum; every allocation must still be strictly positive (``DomainError``).
    """
    return _utility_sum(inst, alloc.values)


def _utility_sum(inst: ProblemInstance, s: np.ndarray) -> float:
    """Sum of per-cell utilities of the allocation array ``s``, as :func:`total_utility`."""
    if s.shape != inst.coeff.shape:
        raise InvalidParams(
            f"allocation shape {s.shape} does not match instance {inst.coeff.shape}"
        )
    if inst.utility_kind == "linear":
        return float(np.vdot(inst.coeff, s))
    if (s <= 0).any():
        raise DomainError("logarithmic utility requires strictly positive allocations")
    weighted = np.flatnonzero(inst.coeff > 0)
    return float(np.vdot(inst.coeff.take(weighted), np.log(s.take(weighted))))


def marginal_utility(coeff: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Elementwise derivative of the logarithmic utility with respect to the allocation
    (the linear utility's is ``coeff``)."""
    if np.any(s <= 0):
        raise DomainError("logarithmic marginal utility requires s > 0")
    return coeff / s
