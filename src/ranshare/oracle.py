"""Independent reference optimizers for validating the barrier solver.

Two deliberately separate mechanisms, neither of which shares code with the
main solver:

* ``grid_refine``: exhaustive search over a per-cell grid, recursively
  refined around the incumbent.  Exact up to the final cell width, but only
  affordable for instances with at most 6 variables.
* ``long_run_projected_gradient``: projected gradient ascent on the original
  problem, with Dykstra alternating projection onto the constraint
  intersection.  Valid as a global oracle because both utility shapes are
  concave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ProjectionNotConverged, TooLarge
from .model import AllocationMatrix, ProblemInstance
from .utility import total_utility

_GRID_POINTS = 7
_GRID_SHRINK = 3.0
_GRID_MAX_VARS = 6
_FEAS_EPS = 1e-12


@dataclass(frozen=True)
class OracleResult:
    objective: float
    allocation: AllocationMatrix
    method: str  # "grid_refine" or "long_run_projected_gradient"
    certified_tol: float


def _objective_batch(inst: ProblemInstance, pts: np.ndarray) -> np.ndarray:
    """Objective for a batch of flattened candidate allocations (N, I*K)."""
    c = inst.coeff.reshape(-1)
    if inst.utility_kind == "linear":
        return pts @ c
    return np.log(pts) @ c


def _feasible_mask(inst: ProblemInstance, pts: np.ndarray) -> np.ndarray:
    num_el, num_app = inst.lower.shape
    cube = pts.reshape(-1, num_el, num_app)
    rows = cube.sum(axis=2)
    cols = cube.sum(axis=1)
    ok = np.all(rows <= inst.capacities[None, :] + _FEAS_EPS, axis=1)
    ok &= np.all(cols <= inst.app_upper[None, :] + _FEAS_EPS, axis=1)
    ok &= np.all(cols >= inst.app_lower[None, :] - _FEAS_EPS, axis=1)
    return ok


def _repair(inst: ProblemInstance, pts: np.ndarray) -> np.ndarray:
    """Retract box-grid candidates onto the coupling constraints.

    Entries above the lower-bound corner are scaled toward it, first per
    application column (aggregate cap), then per element row (capacity), so
    every candidate becomes exactly feasible: column scaling only lowers row
    sums, row scaling only lowers column sums, and amounts never drop below
    the lower bounds (the aggregate floors hold by the L = sum(l) identity).
    """
    num_el, num_app = inst.lower.shape
    lo = inst.lower[None, :, :]
    cube = pts.reshape(-1, num_el, num_app).copy()

    cols = cube.sum(axis=1)
    col_span = cols - inst.app_lower[None, :]
    col_room = inst.app_upper[None, :] - inst.app_lower[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(col_span > col_room, col_room / col_span, 1.0)
    cube = lo + (cube - lo) * beta[:, None, :]

    rows = cube.sum(axis=2)
    row_span = rows - inst.lower.sum(axis=1)[None, :]
    row_room = (inst.capacities - inst.lower.sum(axis=1))[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(row_span > row_room, row_room / np.maximum(row_span, 1e-300), 1.0)
    cube = lo + (cube - lo) * alpha[:, :, None]
    return cube.reshape(pts.shape)


def _grid_refine(inst: ProblemInstance, tol: float) -> OracleResult:
    lo = inst.lower.reshape(-1)
    hi = inst.upper.reshape(-1)
    n = lo.size
    if n > _GRID_MAX_VARS:
        raise TooLarge(f"grid oracle limited to {_GRID_MAX_VARS} variables, instance has {n}")

    # the lower-bound corner is feasible by the instance invariants
    center = lo.copy()
    best_val = float(_objective_batch(inst, lo[None, :])[0])
    half = (hi - lo) / 2.0
    first = True

    for _ in range(200):
        if not first and half.max() <= tol / 2.0:
            break
        if first:
            axes = [np.linspace(lo[j], hi[j], _GRID_POINTS) for j in range(n)]
            first = False
        else:
            axes = [
                np.linspace(max(lo[j], center[j] - half[j]),
                            min(hi[j], center[j] + half[j]), _GRID_POINTS)
                for j in range(n)
            ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = _repair(inst, np.stack([m.reshape(-1) for m in mesh], axis=1))
        mask = _feasible_mask(inst, pts)
        if mask.any():
            vals = _objective_batch(inst, pts[mask])
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val = float(vals[k])
                center = pts[mask][k]
        half = half / _GRID_SHRINK

    return OracleResult(
        objective=best_val,
        allocation=AllocationMatrix(center.reshape(inst.lower.shape)),
        method="grid_refine",
        certified_tol=tol,
    )


def _project_halfspace_row(x, i, bound):
    excess = x[i, :].sum() - bound
    if excess > 0:
        x[i, :] -= excess / x.shape[1]
    return x

def _project_halfspace_col_upper(x, k, bound):
    excess = x[:, k].sum() - bound
    if excess > 0:
        x[:, k] -= excess / x.shape[0]
    return x

def _project_halfspace_col_lower(x, k, bound):
    deficit = bound - x[:, k].sum()
    if deficit > 0:
        x[:, k] += deficit / x.shape[0]
    return x


def dykstra_project(inst: ProblemInstance, point: np.ndarray,
                    max_cycles: int = 200000, tol: float = 1e-12) -> np.ndarray:
    """Project onto the intersection of all constraint sets (Dykstra's algorithm).

    Convergence is declared only when the iterate AND every correction vector
    stop moving: on polyhedra the iterate can sit exactly still for many
    cycles while the corrections still shuttle mass between constraint sets,
    so watching the iterate alone stops at non-projection points.
    """
    num_el, num_app = inst.lower.shape
    n_sets = 1 + num_el + 2 * num_app
    x = np.array(point, dtype=float)
    corrections = [np.zeros_like(x) for _ in range(n_sets)]
    scale = max(1.0, float(np.abs(inst.capacities).max()),
                float(np.abs(point).max()))

    for _ in range(max_cycles):
        x_prev = x.copy()
        drift = 0.0
        idx = 0
        y = x + corrections[idx]
        x = np.clip(y, inst.lower, inst.upper)
        new_cor = y - x
        drift = max(drift, float(np.abs(new_cor - corrections[idx]).max()))
        corrections[idx] = new_cor
        idx += 1
        for i in range(num_el):
            y = x + corrections[idx]
            x = _project_halfspace_row(y.copy(), i, inst.capacities[i])
            new_cor = y - x
            drift = max(drift, float(np.abs(new_cor - corrections[idx]).max()))
            corrections[idx] = new_cor
            idx += 1
        for k in range(num_app):
            y = x + corrections[idx]
            x = _project_halfspace_col_upper(y.copy(), k, inst.app_upper[k])
            new_cor = y - x
            drift = max(drift, float(np.abs(new_cor - corrections[idx]).max()))
            corrections[idx] = new_cor
            idx += 1
        for k in range(num_app):
            y = x + corrections[idx]
            x = _project_halfspace_col_lower(y.copy(), k, inst.app_lower[k])
            new_cor = y - x
            drift = max(drift, float(np.abs(new_cor - corrections[idx]).max()))
            corrections[idx] = new_cor
            idx += 1
        if max(float(np.abs(x - x_prev).max()), drift) <= tol * scale:
            return x
    raise ProjectionNotConverged(f"Dykstra projection did not settle in {max_cycles} cycles")


def _projected_gradient(inst: ProblemInstance, tol: float,
                        max_iters: int = 20000) -> OracleResult:
    """Averaged projected gradient ascent on the original problem.

    Runs x <- (x + P(x + eta * grad u(x))) / 2 with a fixed step, where P is
    the Dykstra projection onto the constraint intersection.  Fixed points of
    the projected-gradient map are exactly the optima of the concave problem,
    and the averaged iteration converges to one; the loop stops once the
    fixed-point residual falls to rounding level.
    """
    lo, hi = inst.lower, inst.upper
    s = lo.copy()
    best = s.copy()
    best_val = total_utility(inst, AllocationMatrix(s))

    span = float((hi - lo).max())
    if inst.utility_kind == "linear":
        eta = span / max(float(inst.coeff.max()), 1e-12) if span > 0 else 1.0
    else:
        # step below 2 / L with L the gradient Lipschitz constant max(c) / min(l)^2
        lip = float((inst.coeff / (np.maximum(lo, 1e-12) ** 2)).max())
        eta = min(span / max(float((inst.coeff / np.maximum(lo, 1e-12)).max()), 1e-12),
                  1.9 / max(lip, 1e-12)) if span > 0 else 1.0

    scale = 1.0 + float(np.abs(hi).max())
    for _ in range(max_iters):
        if inst.utility_kind == "linear":
            g = np.array(inst.coeff, dtype=float)
        else:
            g = inst.coeff / np.maximum(s, 1e-300)
        fixed = np.clip(dykstra_project(inst, s + eta * g), lo, hi)
        residual = float(np.abs(fixed - s).max())
        s = 0.5 * (s + fixed)
        val = total_utility(inst, AllocationMatrix(s))
        if val > best_val:
            best_val = val
            best = s.copy()
        if residual <= 1e-12 * scale:
            break

    return OracleResult(
        objective=float(best_val),
        allocation=AllocationMatrix(best),
        method="long_run_projected_gradient",
        certified_tol=tol,
    )


def oracle_solve(inst: ProblemInstance, tol: float = 1e-6, method: str = "auto") -> OracleResult:
    """High-precision reference solution for small instances.

    ``method`` is one of "auto", "grid_refine", "long_run_projected_gradient";
    "auto" uses the grid for instances with at most 6 variables and projected
    gradient otherwise.
    """
    if method == "auto":
        method = ("grid_refine" if inst.lower.size <= _GRID_MAX_VARS
                  else "long_run_projected_gradient")
    if method == "grid_refine":
        return _grid_refine(inst, tol)
    if method == "long_run_projected_gradient":
        return _projected_gradient(inst, tol)
    raise InvalidParams(f"unknown oracle method {method!r}")
