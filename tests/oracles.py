"""Exact reference optima for the solver tests: per element row, and with scipy's HiGHS.

``exact_optimum`` returns the optimum of a ``ProblemInstance`` and its point,
solved element row by element row.  ``ProblemInstance`` stores the
application bounds as the column sums of the cell boxes, so every point of
the boxes meets them, and the problem splits into one problem per row: the
most utility from its cells within their boxes and the row's capacity.

* linear utility: a greedy fractional knapsack.  From the lower bounds, the
  row's headroom goes to its cells with c > 0 by decreasing c, each up to
  its upper bound.
* logarithmic utility: the cells with c > 0 sit at clip(c / lambda, lo, hi)
  and the others at lo.  lambda is 0, every such cell at hi, when that fits
  the capacity; otherwise it is the root of the row's sum, which falls as
  lambda grows, found by bisection (Patriksson 2008).

``optimum_bracket`` returns bounds ``lower <= optimum <= upper`` on the
optimal utility of a ``ProblemInstance``, computed independently of the
barrier solver:

* linear utility: one LP solved by HiGHS (Huangfu & Hall 2018); ``upper`` is
  its optimum and ``lower`` the utility of its point.
* logarithmic utility: Kelley's cutting-plane method (Kelley 1960) on the
  same HiGHS LP.  Each tangent y <= log p + (x - p) / p over-estimates the
  concave log, so the LP value bounds the optimum from above after every
  round, and the LP's x is feasible, so its utility bounds it from below.

The point is made exactly feasible before its utility is read: clipped to the
box and retracted onto the coupling constraints by ``_repair``, which removes
HiGHS's primal feasibility tolerance.

The row split is checked against HiGHS, which does not assume it, on small
instances; it is cheap at any size.  The library itself stays numpy-only;
scipy is a test dependency.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from ranshare.model import AllocationMatrix, ProblemInstance
from ranshare.utility import total_utility

_BRACKET_RTOL = 1e-9
_MAX_ROUNDS = 200
_BISECTIONS = 100  # halvings of log(lambda): the bracket closes to adjacent floats by 64


class Optimum(NamedTuple):
    value: float
    point: AllocationMatrix  # an optimal allocation, feasible up to rounding


def exact_optimum(inst: ProblemInstance) -> Optimum:
    """The optimal utility of ``inst`` and its point, solved element row by element row
    (see the module docstring); the value is the point's ``total_utility``."""
    lo, hi, c, caps = inst.lower, inst.upper, inst.coeff, inst.capacities
    weighted = c > 0
    if inst.utility_kind == "linear":
        order = np.argsort(-c, axis=1, kind="stable")
        width = np.take_along_axis(np.where(weighted, hi - lo, 0.0), order, axis=1)
        filled = np.cumsum(width, axis=1) - width  # taken by the cells before each one
        room = (caps - lo.sum(axis=1))[:, None]
        point = lo.copy()
        np.put_along_axis(point, order, np.take_along_axis(lo, order, axis=1)
                          + np.clip(room - filled, 0.0, width), axis=1)
    else:
        def fill(lam):
            return np.where(weighted, np.clip(c / lam[:, None], lo, hi), lo)

        top = np.where(weighted, hi, lo)
        fits = top.sum(axis=1) <= caps  # lambda = 0
        # below min c/hi every weighted cell is at hi, which does not fit; above max c/lo
        # every one is at lo, which does
        low = np.where(fits, 1.0, np.where(weighted, c / hi, np.inf).min(axis=1))
        high = np.where(fits, 1.0, np.where(weighted, c / lo, 0.0).max(axis=1))
        for _ in range(_BISECTIONS):
            mid = np.sqrt(low) * np.sqrt(high)
            below = fill(mid).sum(axis=1) <= caps
            high, low = np.where(below, mid, high), np.where(below, low, mid)
        point = np.where(fits[:, None], top, fill(high))
    point = AllocationMatrix(point)
    return Optimum(total_utility(inst, point), point)


class Bracket(NamedTuple):
    lower: float
    upper: float
    point: AllocationMatrix  # feasible allocation whose utility is ``lower``


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


def _coupling_rows(inst: ProblemInstance):
    """A_ub, b_ub over the flattened (row-major) cells: element row sums <= B,
    app column sums <= M and -(column sums) <= -L."""
    num_el, num_app = inst.lower.shape
    rows = np.kron(np.eye(num_el), np.ones(num_app))
    cols = np.kron(np.ones(num_el), np.eye(num_app))
    a_ub = np.vstack([rows, cols, -cols])
    b_ub = np.concatenate([inst.capacities, inst.app_upper, -inst.app_lower])
    return a_ub, b_ub


def _highs(c, a_ub, b_ub, bounds) -> np.ndarray:
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.x


def _feasible_point(inst: ProblemInstance, x: np.ndarray) -> AllocationMatrix:
    clipped = np.clip(x.reshape(inst.lower.shape), inst.lower, inst.upper)
    return AllocationMatrix(_repair(inst, clipped.reshape(1, -1)).reshape(clipped.shape))


def optimum_bracket(inst: ProblemInstance, rtol: float = _BRACKET_RTOL) -> Bracket:
    """Bounds on the optimal utility of ``inst`` and a feasible point.

    Log utility stops once the bracket is within ``rtol`` relative; the last
    decades cost the most rounds, so a check that needs less can ask for less.
    """
    lo, hi = inst.lower.reshape(-1), inst.upper.reshape(-1)
    coeff = inst.coeff.reshape(-1)
    n = lo.size
    a_ub, b_ub = _coupling_rows(inst)
    box = list(zip(lo, hi))

    if inst.utility_kind == "linear":
        x = _highs(coeff, a_ub, b_ub, box)
        upper = float(coeff @ x)
        point = _feasible_point(inst, x)
        return Bracket(total_utility(inst, point), upper, point)

    # variables (x, y): y_j <= log p + (x_j - p)/p for every tangent point p of
    # cell j; cells with c = 0 get no y
    cells = np.flatnonzero(coeff > 0)
    m = cells.size
    c_xy = np.concatenate([np.zeros(n), coeff[cells]])
    a_xy = np.hstack([a_ub, np.zeros((a_ub.shape[0], m))])
    tangents = [0.5 * (lo + hi), hi, lo]  # lo > 0 on every log instance
    cut_rows, cut_rhs = [], []
    lower, point = -np.inf, None
    for _ in range(_MAX_ROUNDS):
        for p in tangents:
            block = np.zeros((m, n + m))
            block[np.arange(m), cells] = -1.0 / p[cells]
            block[np.arange(m), n + np.arange(m)] = 1.0
            cut_rows.append(block)
            cut_rhs.append(np.log(p[cells]) - 1.0)
        xy = _highs(c_xy, np.vstack([a_xy, *cut_rows]),
                    np.concatenate([b_ub, *cut_rhs]), box + [(None, None)] * m)
        upper = float(c_xy @ xy)
        candidate = _feasible_point(inst, xy[:n])
        value = total_utility(inst, candidate)
        if value > lower:
            lower, point = value, candidate
        if upper - lower <= rtol * max(1.0, abs(upper)):
            break
        tangents = [xy[:n]]
    return Bracket(lower, upper, point)
