"""Utility functions, translating ratios and per-period demand estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidParams, UnknownReference
from .model import AllocationMatrix, Flow, FlowColumns, ProblemInstance, flow_columns


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


@dataclass(frozen=True)
class DemandMatrix:
    """Resource units demanded this period per (element, application) cell."""

    values: np.ndarray  # (I, K), non-negative

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise InvalidParams("demand matrix must be 2-D")
        if np.any(arr < 0):
            raise InvalidParams("demands must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def estimate_demand(flows: Sequence[Flow] | FlowColumns,
                    ratios: TranslatingRatios) -> DemandMatrix:
    """Aggregate flow bandwidth demands into per-cell resource demands.

    d[i, k] = p[i, k] * sum of demand_bw over flows served by element i under
    application k; cells without flows stay 0.
    """
    num_elements, num_apps = ratios.shape
    cols = flow_columns(flows)
    outside = ~((0 <= cols.element) & (cols.element < num_elements)
                & (0 <= cols.app) & (cols.app < num_apps))
    if outside.any():
        j = int(np.argmax(outside))
        raise UnknownReference(
            f"flow {cols.id[j]} references cell ({cols.element[j]}, {cols.app[j]}) "
            f"outside the {num_elements}x{num_apps} grid"
        )
    bw = np.bincount(cols.element * num_apps + cols.app, weights=cols.demand,
                     minlength=num_elements * num_apps)
    return DemandMatrix(bw.reshape(num_elements, num_apps) * ratios.values)


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
    s = alloc.values
    if s.shape != inst.coeff.shape:
        raise InvalidParams(
            f"allocation shape {s.shape} does not match instance {inst.coeff.shape}"
        )
    if inst.utility_kind == "linear":
        return float(np.vdot(inst.coeff, s))
    if np.any(s <= 0):
        raise DomainError("logarithmic utility requires strictly positive allocations")
    return float(np.vdot(inst.coeff, np.log(s)))


def marginal_utility(kind: str, coeff: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Elementwise derivative of the utility with respect to the allocation."""
    if kind == "linear":
        return np.array(coeff, dtype=float, copy=True)
    if np.any(s <= 0):
        raise DomainError("logarithmic marginal utility requires s > 0")
    return coeff / s
