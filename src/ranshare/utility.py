"""Utility functions, translating ratios and per-period demand estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams, UnknownReference
from .model import AllocationMatrix, Flows, ProblemInstance


@dataclass(frozen=True, eq=False)
class TranslatingRatios:
    """Average resource units needed per Mbps for application k at element i."""

    values: np.ndarray  # (I, K), strictly positive

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise InvalidParams("translating ratios must form a 2-D matrix")
        if not np.all((arr > 0) & np.isfinite(arr)):
            raise InvalidParams("translating ratios must be finite and strictly positive")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self):
        return self.values.shape

    def __eq__(self, other):
        return isinstance(other, TranslatingRatios) and np.array_equal(self.values, other.values)


def estimate_demand(flows: Flows, ratios: TranslatingRatios) -> np.ndarray:
    """Aggregate flow bandwidth demands into per-cell resource demands.

    Returns the read-only (I, K) array d with d[i, k] = p[i, k] * sum of
    demand_bw over flows served by element i under application k; cells
    without flows stay 0.
    """
    num_elements, num_apps = ratios.shape
    outside = ~((0 <= flows.element) & (flows.element < num_elements)
                & (0 <= flows.app) & (flows.app < num_apps))
    if outside.any():
        j = int(np.argmax(outside))
        raise UnknownReference(
            f"flow {flows.id[j]} references cell ({flows.element[j]}, {flows.app[j]}) "
            f"outside the {num_elements}x{num_apps} grid"
        )
    bw = np.bincount(flows.element * num_apps + flows.app, weights=flows.demand,
                     minlength=num_elements * num_apps)
    demand = bw.reshape(num_elements, num_apps) * ratios.values
    demand.setflags(write=False)
    return demand


def utility_value(kind: str, coeff: float, amount: float) -> float:
    """Utility of granting `amount` resource at coefficient `coeff`."""
    if coeff < 0:
        raise InvalidParams("utility coefficient must be non-negative")
    if kind == "linear":
        return coeff * amount
    if kind == "logarithmic":
        if amount <= 0:
            raise DomainError(f"logarithmic utility undefined at amount {amount}")
        return coeff * math.log(amount)
    raise InvalidParams(f"unknown utility kind {kind!r}")


def total_utility(inst: ProblemInstance, alloc: AllocationMatrix) -> float:
    """Sum of per-cell utilities over the whole grid."""
    return _utility_sum(inst, alloc.values)


def _utility_sum(inst: ProblemInstance, s: np.ndarray) -> float:
    """Sum of per-cell utilities of the allocation array ``s``."""
    if s.shape != inst.coeff.shape:
        raise InvalidParams(
            f"allocation shape {s.shape} does not match instance {inst.coeff.shape}"
        )
    if inst.utility_kind == "linear":
        return float(np.vdot(inst.coeff, s))
    if (s <= 0).any():
        raise DomainError("logarithmic utility requires strictly positive allocations")
    return float(np.vdot(inst.coeff, np.log(s)))


def marginal_utility(kind: str, coeff: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Elementwise derivative of the utility with respect to the allocation."""
    if kind == "linear":
        return np.array(coeff, dtype=float, copy=True)
    if np.any(s <= 0):
        raise DomainError("logarithmic marginal utility requires s > 0")
    return coeff / s
