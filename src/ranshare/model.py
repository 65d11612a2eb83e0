"""Domain types for the RAN-sharing allocation problem.

The allocation problem is a grid of |I| radio elements x |K| applications.
Per-element bounds are expanded from high-level share fractions, and an
allocation is an |I| x |K| matrix of non-negative resource amounts.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from .errors import DimensionMismatch, InfeasibleConfig, InvalidParams

UTILITY_KINDS = ("linear", "logarithmic")


def frozen_array(values, shape=None, name="array", dtype=float) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``, copied unless it is one already.

    An input that is already read-only, of ``dtype`` and owns its data is
    shared, not copied: a caller who turns writes back on for an array they
    froze, and then writes to it, is outside the contract.  An input numpy
    cannot convert, ragged or not numeric, raises ``InvalidParams`` naming it.
    """
    if (isinstance(values, np.ndarray) and not values.flags.writeable
            and values.base is None and values.dtype == dtype):
        arr = values
    else:
        try:
            arr = frozen(np.array(values, dtype=dtype))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParams(f"{name} must be a regular array of numbers: {exc}") from None
    if shape is not None and arr.shape != tuple(shape):
        raise DimensionMismatch(f"{name}: expected shape {tuple(shape)}, got {arr.shape}")
    return arr


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only; hand a fresh array over with it so it is not copied."""
    arr.setflags(write=False)
    return arr


def integers(*values) -> bool:
    """Whether every value is an integer; numpy integers count, bools do not."""
    return all(issubclass(t, numbers.Integral) and not issubclass(t, bool)
               for t in set(map(type, values)))


def reals(*values) -> bool:
    """Whether every value is a real number; numpy numbers count, bools, None and
    strings do not."""
    return all(issubclass(t, numbers.Real) and not issubclass(t, bool)
               for t in set(map(type, values)))


# One flow, built on read from a Flows: owner, application, serving element, demand (Mbps).
Flow = namedtuple("Flow", ["id", "entity_id", "app_id", "element_id", "demand_bw"])

_COLUMN_NAMES = ("id", "entity", "app", "element", "demand")
_columns = attrgetter(*_COLUMN_NAMES)


@dataclass(frozen=True, eq=False)
class Flows:
    """A flow sequence as aligned read-only columns: entry j of each is flow j.

    It reads as a sequence of Flow: an int index gives a Flow, a slice a Flows.
    Each column is taken by :func:`frozen_array`'s rule: a read-only column of
    its dtype (int64, or float for ``demand``) that owns its data is shared,
    anything else is copied once.
    """

    id: np.ndarray
    entity: np.ndarray
    app: np.ndarray
    element: np.ndarray
    demand: np.ndarray  # Mbps

    def __post_init__(self):
        for name, col in zip(_COLUMN_NAMES, _columns(self)):
            if _ndim(col, name) == 0:
                raise InvalidParams(f"flow column {name} must be a sequence, got {col!r}")
        n = (len(self.id),)
        for name in _COLUMN_NAMES[:4]:
            col = np.asarray(getattr(self, name))
            if col.dtype.kind == "f":  # whole numbers that fit, or the cast truncates them
                whole = bool(((np.trunc(col) == col) & (np.abs(col) < 2.0 ** 63)).all())
            else:
                whole = col.dtype.kind in "iu"
            if not whole:
                raise InvalidParams(f"flow column {name} must hold integers, got {col!r}")
            object.__setattr__(self, name, frozen_array(col, n, name, np.int64))
        demand = frozen_array(self.demand, n, "flow column demand")
        bad = ~(np.isfinite(demand) & (demand > 0))
        if bad.any():
            raise InvalidParams(f"flow {self.id[np.argmax(bad)]}: demand_bw must be finite and > 0")
        object.__setattr__(self, "demand", demand)

    def __len__(self):
        return len(self.id)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return Flows(*(col[j] for col in _columns(self)))
        return Flow(*(col[j].item() for col in _columns(self)))

    def __iter__(self):
        return map(Flow, *(col.tolist() for col in _columns(self)))

    def __eq__(self, other):
        return isinstance(other, Flows) and all(map(np.array_equal, _columns(self), _columns(other)))


def _ndim(col, name):
    """The dimension count of the column ``col``; a ragged column raises
    ``InvalidParams``, where numpy raises ``ValueError``."""
    try:
        return np.ndim(col)
    except (TypeError, ValueError):
        raise InvalidParams(f"flow column {name} must be a flat sequence of numbers, "
                            f"got {col!r}") from None


@dataclass(frozen=True)
class FlowAllocation:
    """Per-flow results of a flow-level allocation pass.

    Arrays are aligned: entry j describes flow ``flow_ids[j]``.  The resource
    columns are bandwidth times the translating ratio of the flow's cell.
    """

    flow_ids: np.ndarray         # int64
    bandwidth: np.ndarray        # Mbps actually granted
    resource: np.ndarray         # resource units actually granted
    demand_resource: np.ndarray  # resource units the flow asked for

    def __post_init__(self):
        n = len(self.flow_ids)
        object.__setattr__(self, "flow_ids", frozen_array(self.flow_ids, (n,), "flow_ids", np.int64))
        object.__setattr__(self, "bandwidth", frozen_array(self.bandwidth, (n,), "bandwidth"))
        object.__setattr__(self, "resource", frozen_array(self.resource, (n,), "resource"))
        object.__setattr__(
            self, "demand_resource", frozen_array(self.demand_resource, (n,), "demand_resource")
        )


@dataclass(frozen=True)
class AllocationMatrix:
    """Decision variables: resource granted to application k at element i.

    ``values`` is taken by :func:`frozen_array`'s rule: a read-only float array
    that owns its data is shared, anything else is copied once, and the stored
    array is read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.values, name="allocation")
        if arr.ndim != 2:
            raise DimensionMismatch(f"allocation must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidParams("allocation amounts must be finite")
        if np.any(arr < 0):
            raise InvalidParams("allocation amounts must be non-negative")
        object.__setattr__(self, "values", arr)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class ProblemInstance:
    """The full allocation problem: capacities, bounds, utility coefficients.

    Constraint families:
      * per element i:     sum_k s[i,k] <= capacities[i]
      * per application k: app_lower[k] <= sum_i s[i,k] <= app_upper[k]
      * per cell:          lower[i,k] <= s[i,k] <= upper[i,k]

    ``coeff`` holds the utility coefficient (weight times demand) per cell and
    ``utility_kind`` selects the linear or logarithmic utility shape.

    The application bounds ``app_lower`` and ``app_upper`` are the column
    sums of ``lower`` and ``upper``, so the cell boxes enforce every one.

    Every array is taken by :func:`frozen_array`'s rule: a read-only array of
    floats that owns its data is shared, anything else is copied once, and
    the stored arrays are read-only.
    """

    capacities: np.ndarray   # (I,)
    lower: np.ndarray        # (I, K)
    upper: np.ndarray        # (I, K)
    coeff: np.ndarray        # (I, K)
    utility_kind: str = "linear"

    def __post_init__(self):
        cap = frozen_array(self.capacities, name="capacities")
        if cap.ndim != 1 or cap.size == 0:
            raise DimensionMismatch("capacities must be a non-empty vector")
        lo = frozen_array(self.lower, name="lower")
        if lo.ndim != 2 or lo.shape[0] != cap.size:
            raise DimensionMismatch("lower bound matrix must be (num_elements, num_apps)")
        shape = lo.shape
        hi = frozen_array(self.upper, shape, "upper")
        co = frozen_array(self.coeff, shape, "coeff")

        if self.utility_kind not in UTILITY_KINDS:
            raise InvalidParams(f"utility_kind must be one of {UTILITY_KINDS}")
        if not all(np.all(np.isfinite(a)) for a in (cap, lo, hi, co)):
            raise InvalidParams("instance arrays must be finite")
        if np.any(cap <= 0):
            raise InvalidParams("element capacities must be positive")
        if np.any(lo < 0) or np.any(hi < lo):
            raise InvalidParams("need 0 <= lower <= upper per cell")
        if np.any(co < 0):
            raise InvalidParams("utility coefficients must be non-negative")
        if self.utility_kind == "logarithmic" and np.any(lo <= 0):
            raise InvalidParams("logarithmic utility requires strictly positive lower bounds")

        object.__setattr__(self, "capacities", cap)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "coeff", co)
        if np.any(self.app_upper > float(cap.sum()) * (1 + 1e-12) + 1e-9):
            raise InvalidParams("per-application upper bounds cannot exceed aggregate capacity")
        if np.any(lo.sum(axis=1) > cap * (1 + 1e-12) + 1e-9):
            raise InfeasibleConfig("per-element lower bounds exceed element capacity")

    @cached_property
    def app_lower(self) -> np.ndarray:
        """(K,) aggregate lower bounds: the column sums of ``lower``; read-only."""
        return frozen(self.lower.sum(axis=0))

    @cached_property
    def app_upper(self) -> np.ndarray:
        """(K,) aggregate upper bounds: the column sums of ``upper``; read-only."""
        return frozen(self.upper.sum(axis=0))

    @property
    def num_elements(self) -> int:
        return self.lower.shape[0]

    @property
    def num_apps(self) -> int:
        return self.lower.shape[1]

    @property
    def aggregate_capacity(self) -> float:
        return float(self.capacities.sum())


@dataclass(frozen=True)
class FeasibilityReport:
    """Maximum violation per constraint family (negative values are slack)."""

    element_capacity: float
    app_upper: float
    app_lower: float
    box_lower: float
    box_upper: float
    tol: float
    feasible: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "feasible", self.max_violation <= self.tol)

    @property
    def max_violation(self) -> float:
        return max(self.element_capacity, self.app_upper, self.app_lower,
                   self.box_lower, self.box_upper)


def expand_bounds(min_share, max_share, capacities):
    """Expand per-application share fractions into per-element (lower, upper) bounds.

    Application k's share fractions ``min_share[k]`` and ``max_share[k]`` are
    applied uniformly to each element's capacity; ``ProblemInstance`` sums the
    columns into the aggregate bounds.  Raises InfeasibleConfig when the
    guaranteed minimum shares cannot coexist on one element, and
    DimensionMismatch when the two share vectors differ in shape.
    """
    mins = np.asarray(min_share, dtype=float)
    maxs = np.asarray(max_share, dtype=float)
    caps = np.asarray(capacities, dtype=float)
    if not mins.size or not caps.size:
        raise InvalidParams("need at least one application and one element")
    if mins.shape != maxs.shape:
        raise DimensionMismatch(f"minimum shares of shape {mins.shape} against maximum "
                                f"shares of shape {maxs.shape}")
    if mins.sum() > 1.0 + 1e-12:
        raise InfeasibleConfig(
            f"sum of minimum shares is {mins.sum():.6g} > 1; lower bounds exceed capacity"
        )
    return caps[:, None] * mins[None, :], caps[:, None] * maxs[None, :]


def check_feasible(inst: ProblemInstance, alloc: AllocationMatrix, tol: float = 1e-9) -> FeasibilityReport:
    """Report the worst violation of each constraint family for an allocation."""
    s = alloc.values
    if s.shape != inst.lower.shape:
        raise DimensionMismatch(
            f"allocation shape {s.shape} does not match instance {inst.lower.shape}"
        )
    rows = s.sum(axis=1)
    cols = s.sum(axis=0)
    return FeasibilityReport(
        element_capacity=float((rows - inst.capacities).max()),
        app_upper=float((cols - inst.app_upper).max()),
        app_lower=float((inst.app_lower - cols).max()),
        box_lower=float((inst.lower - s).max()),
        box_upper=float((s - inst.upper).max()),
        tol=tol,
    )
