"""Domain types for the RAN-sharing allocation problem.

The allocation problem is a grid of |I| radio elements x |K| applications.
Per-element bounds are expanded from high-level share fractions, and an
allocation is an |I| x |K| matrix of non-negative resource amounts.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InfeasibleConfig, InvalidParams

UTILITY_KINDS = ("linear", "logarithmic")


def _frozen_array(values, shape=None, name="array", dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if shape is not None and arr.shape != tuple(shape):
        raise DimensionMismatch(f"{name}: expected shape {tuple(shape)}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def integers(*values) -> bool:
    """Whether every value is an integer; numpy integers count, bools do not."""
    return all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values)


@dataclass(frozen=True)
class Application:
    """One abstract service class with QoE stringency and share bounds."""

    id: int
    priority: int
    qoe_factor: float  # resource units needed per Mbps
    min_share: float   # fraction of capacity guaranteed
    max_share: float   # fraction of capacity usable

    def __post_init__(self):
        if self.qoe_factor <= 0:
            raise InvalidParams(f"application {self.id}: qoe_factor must be > 0")
        if not (0.0 <= self.min_share <= self.max_share <= 1.0):
            raise InvalidParams(
                f"application {self.id}: need 0 <= min_share <= max_share <= 1, "
                f"got ({self.min_share}, {self.max_share})"
            )


@dataclass(frozen=True)
class RadioElement:
    """A base station with an abstract resource capacity."""

    id: int
    capacity: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise InvalidParams(f"element {self.id}: capacity must be > 0")


@dataclass(frozen=True)
class Entity:
    """An operator driving flows into the shared RAN."""

    id: int
    name: str = ""


# One flow, built on read from a Flows: owner, application, serving element, demand (Mbps).
Flow = namedtuple("Flow", ["id", "entity_id", "app_id", "element_id", "demand_bw"])

_columns = attrgetter("id", "entity", "app", "element", "demand")


@dataclass(frozen=True, eq=False)
class Flows:
    """A flow sequence as aligned read-only columns: entry j of each is flow j.

    It reads as a sequence of Flow: an int index gives a Flow, a slice a Flows.
    """

    id: np.ndarray
    entity: np.ndarray
    app: np.ndarray
    element: np.ndarray
    demand: np.ndarray  # Mbps

    def __post_init__(self):
        n = (len(self.id),)
        for name in ("id", "entity", "app", "element"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), n, name, np.int64))
        object.__setattr__(self, "demand", _frozen_array(self.demand, n, "demand"))
        bad = ~(np.isfinite(self.demand) & (self.demand > 0))
        if bad.any():
            raise InvalidParams(f"flow {self.id[np.argmax(bad)]}: demand_bw must be finite and > 0")

    @classmethod
    def of(cls, flows) -> "Flows":
        """The columns of an iterable of Flow."""
        return cls(*(list(zip(*flows)) or [()] * 5))

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
        object.__setattr__(self, "flow_ids", _frozen_array(self.flow_ids, (n,), "flow_ids", np.int64))
        object.__setattr__(self, "bandwidth", _frozen_array(self.bandwidth, (n,), "bandwidth"))
        object.__setattr__(self, "resource", _frozen_array(self.resource, (n,), "resource"))
        object.__setattr__(
            self, "demand_resource", _frozen_array(self.demand_resource, (n,), "demand_resource")
        )


@dataclass(frozen=True)
class AllocationMatrix:
    """Decision variables: resource granted to application k at element i."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch(f"allocation must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidParams("allocation amounts must be finite")
        if np.any(arr < 0):
            raise InvalidParams("allocation amounts must be non-negative")
        arr.setflags(write=False)
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
    """

    capacities: np.ndarray   # (I,)
    lower: np.ndarray        # (I, K)
    upper: np.ndarray        # (I, K)
    app_lower: np.ndarray    # (K,)
    app_upper: np.ndarray    # (K,)
    coeff: np.ndarray        # (I, K)
    utility_kind: str = "linear"

    def __post_init__(self):
        cap = _frozen_array(self.capacities, name="capacities")
        if cap.ndim != 1 or cap.size == 0:
            raise DimensionMismatch("capacities must be a non-empty vector")
        lo = np.array(self.lower, dtype=float)
        if lo.ndim != 2 or lo.shape[0] != cap.size:
            raise DimensionMismatch("lower bound matrix must be (num_elements, num_apps)")
        shape = lo.shape
        hi = _frozen_array(self.upper, shape, "upper")
        al = _frozen_array(self.app_lower, (shape[1],), "app_lower")
        au = _frozen_array(self.app_upper, (shape[1],), "app_upper")
        co = _frozen_array(self.coeff, shape, "coeff")
        lo.setflags(write=False)

        if self.utility_kind not in UTILITY_KINDS:
            raise InvalidParams(f"utility_kind must be one of {UTILITY_KINDS}")
        if not all(np.all(np.isfinite(a)) for a in (cap, lo, hi, al, au, co)):
            raise InvalidParams("instance arrays must be finite")
        if np.any(cap <= 0):
            raise InvalidParams("element capacities must be positive")
        if np.any(lo < 0) or np.any(hi < lo):
            raise InvalidParams("need 0 <= lower <= upper per cell")
        if np.any(co < 0):
            raise InvalidParams("utility coefficients must be non-negative")
        if self.utility_kind == "logarithmic" and np.any(lo <= 0):
            raise InvalidParams("logarithmic utility requires strictly positive lower bounds")

        total = float(cap.sum())
        scale = max(1.0, float(np.abs(hi).max()) * shape[0])
        if np.any(np.abs(lo.sum(axis=0) - al) > 1e-9 * scale):
            raise InvalidParams("app_lower must equal the column sums of the lower bounds")
        if np.any(np.abs(hi.sum(axis=0) - au) > 1e-9 * scale):
            raise InvalidParams("app_upper must equal the column sums of the upper bounds")
        if np.any(au > total * (1 + 1e-12) + 1e-9):
            raise InvalidParams("per-application upper bounds cannot exceed aggregate capacity")
        if np.any(lo.sum(axis=1) > cap * (1 + 1e-12) + 1e-9):
            raise InfeasibleConfig("per-element lower bounds exceed element capacity")

        object.__setattr__(self, "capacities", cap)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "app_lower", al)
        object.__setattr__(self, "app_upper", au)
        object.__setattr__(self, "coeff", co)

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


def expand_bounds(apps: Sequence[Application], elements: Sequence[RadioElement]):
    """Expand per-application share fractions into per-element bounds.

    Every application's share fraction is applied uniformly to each element's
    capacity, so the aggregate bounds are the exact column sums of the
    per-element ones.  Raises InfeasibleConfig when the guaranteed minimum
    shares cannot coexist on one element.
    """
    if not apps or not elements:
        raise InvalidParams("need at least one application and one element")
    mins = np.array([a.min_share for a in apps], dtype=float)
    maxs = np.array([a.max_share for a in apps], dtype=float)
    caps = np.array([e.capacity for e in elements], dtype=float)
    if mins.sum() > 1.0 + 1e-12:
        raise InfeasibleConfig(
            f"sum of minimum shares is {mins.sum():.6g} > 1; lower bounds exceed capacity"
        )
    lower = caps[:, None] * mins[None, :]
    upper = caps[:, None] * maxs[None, :]
    # aggregate bounds are defined as the exact column sums so that the
    # identity L^k = sum_i l_i^k holds bit-for-bit
    app_lower = lower.sum(axis=0)
    app_upper = upper.sum(axis=0)
    return lower, upper, app_lower, app_upper


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
