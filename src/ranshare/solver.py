"""Barrier-method solver for the allocation problem.

The coupling constraints (element capacities and per-application aggregate
bounds) are folded into a logarithmic barrier; the per-cell box bounds stay
explicit.  An outer loop sharpens the barrier multiplier t by a factor mu
until the certified bound (B + |K|) / t drops below the requested
suboptimality epsilon.  For logarithmic utility the boxes enforce every
application bound, so the barrier holds the element capacities alone and
each inner problem is solved exactly, element row by element row
(:class:`_Centre`).  Linear utility runs projected truncated-Newton ascent
with Armijo backtracking (:func:`_inner_loop`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyInterior, InvalidParams, NotInterior
from .model import AllocationMatrix, ProblemInstance, frozen, integers, reals
from .utility import _utility_sum, marginal_utility, total_utility

_ARMIJO = 1e-4
_BOUNDARY_FRACTION = 1e-12  # trial slacks must keep this fraction of their previous value
_MAX_BACKTRACKS = 80
_PLATEAU_WINDOW = 20
_INNER_TOL = 1e-8  # linear inner stop: projected gradient (log centres are exact)
_MAX_INNER_ITERS = 500  # linear inner loop cap
_MAX_CG = 25  # CG iterations per truncated-Newton direction
_FLOAT_MAX = np.finfo(float).max
_NO_SLACKS = np.empty(0)  # the application slacks of a barrier without application terms
INTERIOR_SHIFT = 0.5  # theta of the starting-point perturbation
_MAGNITUDE = 1e50  # the largest capacity, coefficient and multiplier t a solve takes


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3        # target suboptimality
    t0: float = 1.0              # initial barrier multiplier
    mu: float = 10.0             # outer growth factor
    max_outer_iters: int = 100

    def __post_init__(self):
        if not (reals(self.epsilon, self.t0, self.mu)
                and all(math.isfinite(v) for v in (self.epsilon, self.t0, self.mu))):
            raise InvalidParams("epsilon, t0 and mu must be finite real numbers")
        if self.epsilon <= 0:
            raise InvalidParams("epsilon must be > 0")
        if self.t0 <= 0:
            raise InvalidParams("t0 must be > 0")
        if self.mu <= 1:
            raise InvalidParams("mu must be > 1")
        if not integers(self.max_outer_iters) or self.max_outer_iters < 1:
            raise InvalidParams("max_outer_iters must be an integer >= 1")


@dataclass(frozen=True)
class OuterTrace:
    """One record per outer iteration, for convergence plots."""

    t: float
    objective: float
    barrier: float
    gap_bound: float
    inner_iters: int
    inner_status: str


@dataclass(frozen=True)
class SolveResult:
    allocation: AllocationMatrix
    objective: float
    gap_bound: float
    outer_iters: int
    inner_iters_total: int
    converged: bool
    dual_gap: float  # computed certificate: optimum - objective <= dual_gap
    trace: tuple = ()


def barrier_value(inst: ProblemInstance, alloc: AllocationMatrix) -> float:
    """Logarithmic barrier over the coupling constraints at a strictly interior point.

    This is the barrier the solver maximizes.  A constraint without a free
    cell (an element row or application column whose cells all have
    upper == lower) is constant, so its term is dropped and its slack may be
    zero.  For logarithmic utility the application bounds have no term
    either: ``ProblemInstance`` stores them as the column sums of the cell
    boxes, which enforce them.  Every slack with a term must be strictly
    positive (``NotInterior``).
    """
    return _InnerProblem(inst).barrier(alloc.values)


def interior_objective(inst: ProblemInstance, alloc: AllocationMatrix, t: float) -> float:
    """t * utility + barrier, the objective of the inner problem.

    The barrier is :func:`barrier_value`, so constraints without a free cell,
    and for logarithmic utility the application bounds, contribute nothing.
    """
    return _InnerProblem(inst).value(alloc.values, t)


def interior_gradient(inst: ProblemInstance, alloc: AllocationMatrix, t: float) -> np.ndarray:
    """Gradient of :func:`interior_objective` at every cell, pinned ones included.

    Raises ``NotInterior`` where :func:`barrier_value` does; the constraints
    without a term there contribute none here.
    """
    work = _InnerProblem(inst)
    return work.gradient(alloc.values, t, work.interior_slacks(alloc.values))


def gap_bound(inst: ProblemInstance, t: float) -> float:
    """Certified suboptimality bound (B + |K|) / t of the current outer iterate."""
    if t <= 0:
        raise InvalidParams("t must be > 0")
    return (inst.aggregate_capacity + inst.num_apps) / t


def interior_start(inst: ProblemInstance, shift: float = INTERIOR_SHIFT) -> AllocationMatrix:
    """Perturb the lower-bound corner into the strict interior.

    Cells with upper == lower stay pinned at the bound.  The perturbation per
    free cell is shift * min(element headroom / |K|, half the box width,
    application span / (2 |I|)), which keeps every barrier slack strictly
    positive whenever a strictly interior point exists
    (:func:`_check_interior`).
    """
    if not (0 < shift < 1):
        raise InvalidParams("shift must lie in (0, 1)")
    lo, hi = inst.lower, inst.upper
    free = hi > lo
    row_slack, app_span = _check_interior(inst, free)
    num_el, num_app = lo.shape
    delta = shift * np.minimum.reduce([
        np.broadcast_to(row_slack[:, None] / num_app, lo.shape),
        (hi - lo) / 2.0,
        np.broadcast_to(app_span[None, :] / (2.0 * num_el), lo.shape),
    ])
    return AllocationMatrix(frozen(lo + np.where(free, delta, 0.0)))


def _check_magnitudes(inst: ProblemInstance, cfg: SolverConfig):
    """Raise ``InvalidParams`` unless the element capacities, and every multiplier t from
    ``t0`` up to (B + |K|)/epsilon, lie in [1/_MAGNITUDE, _MAGNITUDE], and for linear
    utility every coefficient is at most _MAGNITUDE (:class:`_Centre` checks those of a
    log solve's free cells).

    Within that range the products and quotients of the barrier stay finite and
    non-zero; outside it a capacity of 1e300 overflows t times the capacity, and t0 =
    1e-300 at a capacity of 1e-300 divides by zero.
    """
    caps = inst.capacities
    t_top = max(cfg.t0, (inst.aggregate_capacity + inst.num_apps) / cfg.epsilon)
    for what, low, high in (("element capacities", caps.min(), caps.max()),
                            ("multipliers t from t0 to (B + |K|)/epsilon", cfg.t0, t_top)):
        if not (1.0 / _MAGNITUDE <= low and high <= _MAGNITUDE):
            raise InvalidParams(f"{what} must lie in [{1.0 / _MAGNITUDE:g}, {_MAGNITUDE:g}], "
                                f"got [{low:g}, {high:g}]")
    if inst.utility_kind == "linear":
        _check_coefficients(inst.coeff)


def _check_coefficients(coeff):
    if coeff.max(initial=0.0) > _MAGNITUDE:
        raise InvalidParams(f"utility coefficients must be at most {_MAGNITUDE:g}, "
                            f"got {coeff.max():g}")


def _check_interior(inst: ProblemInstance, free):
    """Raise ``EmptyInterior`` unless every element and application with a free cell has
    room to move; returns (element headroom, application span)."""
    row_slack = inst.capacities - inst.lower.sum(axis=1)
    app_span = inst.app_upper - inst.app_lower
    bad_el = free.any(axis=1) & (row_slack <= 0)
    if bad_el.any():
        raise EmptyInterior(
            f"element(s) {np.flatnonzero(bad_el).tolist()} have free cells but "
            "their lower bounds already exhaust the capacity"
        )
    bad_app = free.any(axis=0) & (app_span <= 0)
    if bad_app.any():
        raise EmptyInterior(
            f"application(s) {np.flatnonzero(bad_app).tolist()} are free but have "
            "app_lower == app_upper"
        )
    return row_slack, app_span


def _spread(active, values):
    """A vector with ``values`` on its ``active`` entries and 0 elsewhere."""
    out = np.zeros(active.shape)
    out[active] = values
    return out


class _InnerProblem:
    """The inner problem at fixed t; the public barrier functions are views of it.

    Pinned cells (upper == lower) stay fixed, and the constant barrier terms
    of constraints without a free cell are dropped.  For logarithmic utility
    the barrier also leaves out every application bound: ``ProblemInstance``
    stores them as the column sums of the cell boxes, and floating-point
    summation is monotone, so any point of the boxes meets them exactly
    (removal of implied constraints; Andersen & Andersen 1995).
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        free = inst.upper > inst.lower
        linear = inst.utility_kind == "linear"
        self.el_active = free.any(axis=1)
        # Linear utility keeps the application terms, upper and lower alike: its
        # truncated-CG results move with them.
        self.app_active = free.any(axis=0) & linear
        # the cells the linear inner loop moves; a log solve's centre places its own
        self.free = free if linear else None
        self.app_terms = bool(self.app_active.any())
        # the bounds of the constraints in the barrier
        self.capacities = inst.capacities[self.el_active]
        self.app_upper = inst.app_upper[self.app_active]
        self.app_lower = inst.app_lower[self.app_active]

    def slacks(self, s):
        """Element, upper and lower application slacks of the constraints in the barrier."""
        rows = s.sum(axis=1)[self.el_active]
        if not self.app_terms:
            return self.capacities - rows, _NO_SLACKS, _NO_SLACKS
        cols = s.sum(axis=0)[self.app_active]
        return self.capacities - rows, self.app_upper - cols, cols - self.app_lower

    @cached_property
    def slack_layout(self):
        """(take, sign, offset): the :meth:`slacks` of a point, concatenated, are
        offset + sign * sums[take], bit for bit, where sums is its row sums followed by its
        column sums."""
        rows = np.flatnonzero(self.el_active)
        cols = self.el_active.size + np.flatnonzero(self.app_active)
        sign = np.ones(rows.size + 2 * cols.size)
        sign[:rows.size + cols.size] = -1.0
        return (np.concatenate([rows, cols, cols]), sign,
                np.concatenate([self.capacities, self.app_upper, -self.app_lower]))

    def interior_slacks(self, s):
        """The slacks, which must all be strictly positive."""
        slacks = self.slacks(s)
        if not all((x > 0).all() for x in slacks):
            raise NotInterior("allocation is not strictly interior to the coupling constraints")
        return slacks

    def barrier(self, s, slacks=None) -> float:
        """The barrier at ``s``; ``slacks``, when given, are ``slacks(s)``, all positive."""
        bs, ms, ls = self.interior_slacks(s) if slacks is None else slacks
        return float(np.log(bs).sum() + np.log(ms).sum() + np.log(ls).sum())

    def value(self, s, t, slacks=None) -> float:
        return t * _utility_sum(self.inst, s) + self.barrier(s, slacks)

    def evaluate(self, s):
        """(utility, slacks, barrier) at ``s``, the slacks from its grid sums: the value at
        t is t * utility + barrier."""
        slacks = self.interior_slacks(s)
        return _utility_sum(self.inst, s), slacks, self.barrier(s, slacks)

    def barrier_terms(self, slacks):
        """Per element and per application, the barrier's part of the gradient, to subtract."""
        bs, ms, ls = slacks
        return _spread(self.el_active, 1.0 / bs), _spread(self.app_active, 1.0 / ms - 1.0 / ls)

    def gradient(self, s, t, slacks=None):
        row, col = self.barrier_terms(self.slacks(s) if slacks is None else slacks)
        if self.inst.utility_kind == "linear":
            g = t * self.inst.coeff
        else:
            g = t * marginal_utility(self.inst.coeff, s)
        return g - row[:, None] - col[None, :]

    def curvature_terms(self, slacks):
        """The negated inner Hessian's weights and its diagonal, the preconditioner, for linear
        utility, on the grid.

        H = sum_i w_i (row_i)(row_i)^T + sum_k v_k (col_k)(col_k)^T with
        w_i = 1/bs_i^2 per element and v_k = 1/ms_k^2 + 1/ls_k^2 per
        application, each term only where its constraint is in the barrier;
        linear utility adds no diagonal of its own, so H is singular.  The
        truncated-CG step reads the (I, K) preconditioner.
        """
        bs, ms, ls = slacks
        w_el = _spread(self.el_active, 1.0 / (bs * bs))
        v_app = _spread(self.app_active, 1.0 / (ms * ms) + 1.0 / (ls * ls))
        return w_el, v_app, np.maximum(w_el[:, None] + v_app[None, :], 1e-300)

    def dual_gap(self, s, t, centre=None) -> float:
        """Lagrangian dual at the barrier multipliers of t, minus the utility of ``s``.

        The multipliers are lambda_i = 1/(t bs_i), nu+_k = 1/(t ms_k) and
        nu-_k = 1/(t ls_k) for the constraints in the barrier, 0 for the
        others.  With a = lambda_i + nu+_k - nu-_k, each cell of the dual
        maximizes u(x) - a x over its box: at clip(c/a, lo, hi) for log
        utility (hi where a <= 0), at a box corner for linear.  By weak
        duality, for any multipliers >= 0, the utility of ``s`` plus this gap
        bounds the optimum; the dual keeps the cell boxes, which enforce every
        bound the barrier leaves out.  The difference is summed term by term,
        the multipliers times the slacks of ``s`` (m/t for the m constraints in
        the barrier) plus a non-negative term per cell, so a gap far below the
        utility keeps its digits.

        ``centre``, when given, is (rows, tau) of the exact log centre ``s``
        (:class:`_Centre`): those rows take lambda_i = 1/tau_i, since the fresh
        slack of a row rounds at about 1e-14 B_i, far above its sigma at large
        t.  Each cell with c > 0 then sits at the maximizer of
        c log x - x / tau_i over its box, and every other cell at lo or pinned,
        so every cell term vanishes up to rounding, and the gap is the
        multipliers times the slacks.
        """
        bs, ms, ls = self.interior_slacks(s)
        lam = _spread(self.el_active, 1.0 / (t * bs))
        if centre is not None:
            rows, tau = centre
            lam[rows] = 1.0 / tau
            return float(lam[self.el_active] @ bs) + (ms.size + ls.size) / t
        paid = (bs.size + ms.size + ls.size) / t  # the multipliers times the slacks
        nu = _spread(self.app_active, 1.0 / (t * ms) - 1.0 / (t * ls))
        inst = self.inst
        lo, hi, c = inst.lower, inst.upper, inst.coeff
        if inst.utility_kind == "logarithmic":
            terms = _log_terms(c, lam[:, None] + nu[None, :], lo, hi, s)
        else:
            a = lam[:, None] + nu[None, :]
            terms = (c - a) * (np.where(c > a, hi, lo) - s)
        return float(paid + terms.sum())


def _log_terms(c, a, lo, hi, s):
    """Per cell, the log dual's maximum over the box of c log x - a x, minus its value at s."""
    x = np.where(a > 0, np.clip(c / np.where(a > 0, a, 1.0), lo, hi), hi)
    return c * np.log(x / s) - a * (x - s)


class _Centre:
    """The exact centre of the logarithmic inner problem, at any t.

    With element terms alone in the barrier the inner problem splits by
    element row: max t sum_k c_k log s_k + log sigma over the box, with
    sigma = B_i - sum_k s_k.  Its centre is s_k = clip(t c_k sigma, lo_k, hi_k)
    on the free cells with c > 0 (every other cell sits at lo), where sigma
    is the root of the increasing, piecewise-linear
    F(sigma) = sigma + sum_k s_k(sigma) = B_i: the continuous resource
    allocation problem, solved by a breakpoint search (Patriksson 2008;
    Kiwiel 2008).

    In tau = t sigma a cell sits at lo below lo/c, at hi above hi/c and at
    c tau between, so the breakpoints do not move with t.  They are sorted
    once, stably, in a block of one row per element with a free cell, as wide
    as the widest row; the padding repeats the row's last breakpoint, so its
    segments have length 0.  At each breakpoint the block holds tau, the sum
    of s - lo there (``moved``) and the sum of c over the cells between their
    bounds just past it (``slope``).  At t, t (F - sum lo) reads
    tau + t moved at the breakpoints, increasing along the row; the root lies
    on the segment after the last breakpoint below t (B_i - sum lo), where
    t (F - sum lo) rises with slope 1 + t slope.

    The block is sorted with a leading column of zeros, tau = 0, which no
    breakpoint lies below, and its sums are accumulated in place.  One point
    buffer is filled from ``lower`` once, after the block is built; each
    centre rewrites only the free cells with c > 0, since every other cell
    stays at lo.  The cells are gathered and scattered by their flat indices
    (``cells``).  :meth:`utility` sums over the weighted cells (c > 0) alone,
    as ``total_utility`` does: it keeps their flat indices (``weighted``) and
    coefficients, and gathers the point there.  The instance must have a
    strict interior (:func:`_check_interior`).
    """

    def __init__(self, inst: ProblemInstance):
        box_free = inst.upper > inst.lower
        row_slack, _ = _check_interior(inst, box_free)
        num_el, num_app = box_free.shape
        self.weighted = np.flatnonzero(inst.coeff > 0)
        self.weights = inst.coeff.take(self.weighted)
        self.cells = self.weighted[box_free.take(self.weighted)]
        per_row = np.bincount(self.cells // num_app, minlength=num_el)
        rows = np.flatnonzero(per_row)
        n = per_row[rows]
        width = int(n.max(initial=0))
        # each free cell's row in the block, and its place in that row after column 0
        self.block_row = np.repeat(np.arange(rows.size), n)
        place = np.arange(1, self.cells.size + 1) - np.repeat(np.cumsum(n) - n, n)
        self.lo, self.hi, self.c = (a.take(self.cells)
                                    for a in (inst.lower, inst.upper, inst.coeff))
        _check_coefficients(self.c)
        ratio = np.full((rows.size, 2 * width + 1), np.inf)
        ratio[:, 0] = 0.0  # tau = 0: every cell at lo
        # A breakpoint beyond the largest float is never reached at a finite tau: the largest
        # float stands in for it, and every breakpoint stays finite.
        with np.errstate(over="ignore"):
            ratio[self.block_row, place] = np.minimum(self.lo / self.c, _FLOAT_MAX)
            ratio[self.block_row, width + place] = np.minimum(self.hi / self.c, _FLOAT_MAX)
        step = np.zeros(ratio.shape)  # the change of slope at each breakpoint
        step[self.block_row, place] = self.c
        step[self.block_row, width + place] = -self.c
        order = np.argsort(ratio, axis=1, kind="stable")
        self.tau = np.take_along_axis(ratio, order, axis=1)
        self.slope = np.take_along_axis(step, order, axis=1)
        del ratio, step, order
        # the padding repeats the row's last breakpoint
        np.minimum(self.tau, self.tau[np.arange(rows.size), 2 * n][:, None], out=self.tau)
        np.cumsum(self.slope, axis=1, out=self.slope)
        # a row's c summed in and out again can round below 0
        np.maximum(self.slope, 0.0, out=self.slope)
        self.moved = np.empty(self.tau.shape)
        self.moved[:, 0] = 0.0
        np.subtract(self.tau[:, 1:], self.tau[:, :-1], out=self.moved[:, 1:])
        self.moved[:, 1:] *= self.slope[:, :-1]
        np.cumsum(self.moved, axis=1, out=self.moved)
        self.rows = rows
        self.headroom = row_slack[rows]
        self.iters = int(self.cells.size > 0)  # inner iterations a centre records
        self.point = inst.lower.copy()

    def __call__(self, t: float):
        """(the centre at t, the point buffer, which the next call overwrites; tau = t sigma
        there on each element of ``rows``)."""
        target = t * self.headroom
        level = np.multiply(self.moved, t)
        level += self.tau
        below = np.count_nonzero(level < target[:, None], axis=1)
        rows, j = np.arange(below.size), np.maximum(below - 1, 0)
        tau = self.tau[rows, j] + (target - level[rows, j]) / (1.0 + t * self.slope[rows, j])
        placed = self.c * tau[self.block_row]
        np.maximum(placed, self.lo, out=placed)
        np.minimum(placed, self.hi, out=placed)
        np.put(self.point, self.cells, placed)
        return self.point, tau

    def utility(self) -> float:
        """The log utility of the last centre, summed over the weighted cells as
        ``total_utility`` sums it."""
        return float(np.vdot(self.weights, np.log(self.point.take(self.weighted))))


def _newton_cg_direction(terms, g, mask):
    """Approximately solve H d = g on the unmasked coordinates by at most ``_MAX_CG`` CG steps.

    ``terms`` is ``_InnerProblem.curvature_terms`` at the current point.  The
    Hessian has diagonal-plus-rank-one-per-row/column structure, so each
    matrix-vector product costs one pass over the unmasked cells and the row
    and column sums of p.  Truncated CG output always has positive inner
    product with g (an ascent direction).

    The step gives the bits of the textbook form, in which every grid vector
    is +0.0 off the mask and every product is zeroed there: the benchmark's
    reference rows rest on them, and re-rounding the CG's sums moved one by
    1.2%.  It runs on the unmasked cells alone (``cells``, in row-major
    order): p, -H p, x, r, z and the preconditioner are vectors over them,
    and no product off the mask is formed.  An elementwise operation gives a
    cell the same bits wherever the cell is kept, so the vectors hold the
    textbook's values.  A sum's rounding depends on where its terms lie, so
    the sums stay on the grid, into which the vectors are scattered with
    +0.0 off the mask:

    - the row sums of p are numpy's pairwise sums of the grid's rows;
    - the grid's column sums add row by row from +0.0, which ``np.bincount``
      over the cells repeats in less time than the grid's reduce; a
      one-column grid, which numpy sums pairwise as a row, is summed on the
      grid;
    - both dot products and the final ascent test are ``np.vdot`` of two
      grids: a dot of the vectors alone rounds differently, and ``np.dot``
      warns of an overflowing product where ``np.vdot`` does not.

    Each grid is its own buffer, so a returned direction holds one grid.

    p and -H p share one (2, n) buffer and x and r another, so
    x += alpha p and r -= alpha H p are one multiply and one add: rounding is
    symmetric, so ((-damping) p - w row) - v col is exactly -(H p),
    r + alpha (-H p) is exactly r - alpha H p, and -(p . (-H p)) is exactly
    p . H p.
    """
    w_el, v_app, precond = terms
    damping = 1e-12 * float(precond.max())  # keeps the masked Hessian nonsingular
    num_app = mask.shape[1]
    cells = np.flatnonzero(mask)
    row, col = np.divmod(cells, num_app)
    diag = precond.take(cells)
    # p, -H p, x, r and z on the grid, zero-padded, flat; p's rows as a view
    grid_p, grid_hp, grid_x, grid_r, grid_z = (np.zeros(mask.size) for _ in range(5))
    p_rows = grid_p.reshape(mask.shape)
    pn, xr, tmp = (np.empty((2, cells.size)) for _ in range(3))
    p, neg_hp = pn  # p and -H p
    x, r = xr
    row_sum = np.empty(mask.shape[0])
    b = np.where(mask, g, 0.0).ravel()
    x.fill(0.0)
    b.take(cells, out=r)
    grid_r[...] = b
    z = r / diag
    grid_z[cells] = z
    p[...] = z
    rz = float(np.vdot(grid_r, grid_z))
    b_norm = float(np.abs(r).max(initial=0.0))
    if b_norm == 0.0 or rz <= 0.0:
        return grid_z.reshape(mask.shape)
    for _ in range(_MAX_CG):
        # -H p = -(damping p + w (row sums of p) + v (column sums of p))
        grid_p[cells] = p
        np.add.reduce(p_rows, axis=1, out=row_sum)
        row_sum *= w_el
        if num_app > 1:
            col_sum = np.bincount(col, p, num_app)
        else:
            col_sum = np.add.reduce(p_rows, axis=0)
        col_sum *= v_app
        np.multiply(p, -damping, out=neg_hp)
        neg_hp -= row_sum.take(row)
        neg_hp -= col_sum.take(col)
        grid_hp[cells] = neg_hp
        php = -float(np.vdot(grid_p, grid_hp))
        if php <= 0.0:
            grid_x[cells] = x
            return grid_x.reshape(mask.shape) if x.any() else p_rows
        alpha = rz / php
        xr += np.multiply(pn, alpha, out=tmp)
        # max |r| <= tol: no entry above tol or below -tol and none NaN, which both
        # reductions propagate; the first test alone rejects most steps
        if (np.maximum.reduce(r) <= 1e-2 * b_norm
                and np.minimum.reduce(r) >= -1e-2 * b_norm):
            break
        np.divide(r, diag, out=z)
        grid_r[cells] = r
        grid_z[cells] = z
        rz_new = float(np.vdot(grid_r, grid_z))
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
    grid_x[cells] = x
    if float(np.vdot(grid_x, b)) <= 0.0:
        return grid_z.reshape(mask.shape)
    return grid_x.reshape(mask.shape)


def _grid_line_search(work: _InnerProblem, s, slacks, d, g, t: float, f_cur: float):
    """Armijo backtracking along a grid step d, clipped to the box, from ``s``.

    Every trial is a point of the whole grid, its slacks and value computed
    afresh; the linear path searches this way.  A trial must keep every
    barrier slack positive and at least a fraction of its value at ``s``
    (``slacks``).  Returns (point, its slacks, its value), or None when no
    step within ``_MAX_BACKTRACKS`` halvings is accepted.

    The step of trial k is 2^-k.  A trial is built in one grid buffer, and
    its slacks are one vector, laid out by :attr:`_InnerProblem.slack_layout`,
    tested in one comparison.  When a built trial fails first on an element
    row (the witness), that row alone is clipped and summed at every
    remaining step in one (steps, K) stack.  Each row of the stack sums to
    the same bits as the 1-D row, that is, as the row's entry of the grid's
    row sums.  A failing witness fails the whole trial, so the next trial
    built is the first whose witness passes, and the search fails when there
    is none.  A trial that fails first on a column, or passes the
    slack test, is followed by the next step built in full.  Only a trial
    that passes has its gain and value computed.  Trials and stacks are
    clipped by ``np.maximum`` and ``np.minimum`` in place, as ``clip`` would.
    """
    lo, hi = work.inst.lower, work.inst.upper
    take, sign, offset = work.slack_layout
    # x >= floor is (x >= fraction x0) & (x > 0): no float lies strictly between 0 and the
    # smallest subnormal
    floor = np.maximum(_BOUNDARY_FRACTION * np.concatenate(slacks),
                       np.finfo(float).smallest_subnormal)
    num_el, num_rows = s.shape[0], work.capacities.size
    low_start = num_rows + work.app_upper.size  # where the lower application slacks start
    steps = np.ldexp(1.0, -np.arange(_MAX_BACKTRACKS))  # 1, 1/2, 1/4, ...: exact halvings
    trial = np.empty(s.shape)
    sums, x = np.empty(num_el + s.shape[1]), np.empty(take.size)
    row_sums, col_sums = sums[:num_el], sums[num_el:]
    k = 0
    while k < _MAX_BACKTRACKS:
        np.multiply(d, steps[k], out=trial)
        trial += s
        np.maximum(trial, lo, out=trial)
        np.minimum(trial, hi, out=trial)
        np.add.reduce(trial, axis=1, out=row_sums)
        np.add.reduce(trial, axis=0, out=col_sums)
        sums.take(take, out=x)
        x *= sign
        x += offset
        passed = x >= floor
        witness = int(passed.argmin())  # the first slack that fails, or 0 when none does
        k += 1
        if passed[witness]:
            gain = float(np.vdot(g, trial - s))
            if gain > 0:
                trial_slacks = (x[:num_rows], x[num_rows:low_start], x[low_start:])
                f_new = work.value(trial, t, trial_slacks)
                if f_new >= f_cur + _ARMIJO * gain:
                    return trial, trial_slacks, f_new
            continue
        if witness >= num_rows:  # a column fails first: no row to look ahead on
            continue
        i = take[witness]
        lines = np.multiply.outer(steps[k:], d[i])
        lines += s[i]
        np.maximum(lines, lo[i], out=lines)
        np.minimum(lines, hi[i], out=lines)
        row_slack = np.add.reduce(lines, axis=1)
        row_slack *= sign[witness]
        row_slack += offset[witness]
        ahead = (row_slack >= floor[witness]).nonzero()[0]
        if not ahead.size:
            break
        k += int(ahead[0])
    return None


def _inner_loop(work: _InnerProblem, s: np.ndarray, t: float):
    """Projected ascent with Armijo backtracking on the linear inner problem.

    The search direction is a truncated-CG Newton step on the inactive
    coordinates (:func:`_newton_cg_direction`; the Hessian is singular),
    searched along by :func:`_grid_line_search`.  Accepted steps never
    decrease the inner objective, and every iterate keeps all active barrier
    slacks strictly positive (fraction-to-boundary rule).

    The loop ends ``converged`` when the projected gradient is within
    ``_INNER_TOL`` of zero; the truncated-CG g^T d is no Newton decrement.
    ``plateau`` (no progress over a window of accepted steps), ``stalled``
    (the search accepts no step) and ``max_iters`` (``_MAX_INNER_ITERS``)
    end it otherwise.

    Returns (s, iterations, status, objective_history).
    """
    # the slacks of the current point, carried over from the line search
    utility, slacks, barrier = work.evaluate(s)
    history = [t * utility + barrier]
    lo, hi = work.inst.lower, work.inst.upper
    status = "max_iters"
    iters = 0
    for iters in range(1, _MAX_INNER_ITERS + 1):
        g = work.gradient(s, t, slacks)
        blocked = ((s <= lo) & (g < 0)) | ((s >= hi) & (g > 0))
        if np.abs(np.where(blocked, 0.0, g)).max(initial=0.0) <= _INNER_TOL:
            status = "converged"
            iters -= 1
            break

        d = _newton_cg_direction(work.curvature_terms(slacks), g, work.free & ~blocked)
        step = _grid_line_search(work, s, slacks, d, g, t, history[-1])
        if step is None:
            status = "stalled"
            break
        s, slacks, f_new = step
        history.append(f_new)
        # plateau exit: no measurable progress over a window of accepted steps
        if len(history) > _PLATEAU_WINDOW:
            ref = history[-_PLATEAU_WINDOW - 1]
            if history[-1] - ref <= 1e-13 * max(1.0, abs(ref)):
                status = "plateau"
                break
    return s, iters, status, history


def solve_inner(inst: ProblemInstance, start: AllocationMatrix, t: float) -> AllocationMatrix:
    """Solve the inner problem at fixed t.

    For logarithmic utility this is the exact centre (:class:`_Centre`), and
    ``start`` is not used.  For linear utility it is :func:`_inner_loop` from
    the strictly interior ``start``.
    """
    if inst.utility_kind == "logarithmic":
        return AllocationMatrix(frozen(_Centre(inst)(t)[0]))
    s, _, _, _ = _inner_loop(_InnerProblem(inst), start.values, t)
    return AllocationMatrix(s)


def solve(inst: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Run the outer barrier loop until (B + |K|) / t <= epsilon.

    Each outer iterate is the exact centre for logarithmic utility, which
    records one inner iteration when a cell is free and none otherwise, and
    the end of :func:`_inner_loop` for linear utility.  The returned
    allocation is always feasible.  ``converged`` means certified: the bound
    dropped below epsilon before the outer iteration cap, and so did the
    computed ``dual_gap``.  The bound alone is no certificate where B + |K|
    is below m, the number of barrier terms (small capacities), or where a
    linear inner loop ends far from its centre.

    Only linear solves start from :func:`interior_start`; a log solve's
    centre checks the same interior (:func:`_check_interior`), and the solve
    builds the start only when it is the result, since its centres ignore it:
    when the bound needs no outer iteration, or the first centre fails
    (below).  Magnitudes outside the range :func:`_check_magnitudes` states
    raise ``InvalidParams`` before the first outer iteration.

    Within that range a log centre can place a row within the rounding of
    its capacity, so that the row's fresh slack is not positive.  The outer
    loop then ends: the solve returns the centre before, placed again at the
    trace's last t, or the start when the first centre fails, unconverged.
    A log solve's allocation is its centre's point buffer, frozen and not
    copied, and its ``dual_gap`` is the centre's multipliers times its slacks.
    """
    cfg = config or SolverConfig()
    _check_magnitudes(inst, cfg)
    work = _InnerProblem(inst)
    scale = inst.aggregate_capacity + inst.num_apps  # gap_bound(inst, t) is scale / t
    if inst.utility_kind == "logarithmic":
        s, centre = None, _Centre(inst)
    else:
        s, centre = interior_start(inst).values, None

    t = cfg.t0
    trace = []
    exact = None  # (rows, tau) of the last centre, for its dual multipliers
    while scale / t > cfg.epsilon and len(trace) < cfg.max_outer_iters:
        if centre is None:
            s, iters, status, _ = _inner_loop(work, s, t)
            utility, _, barrier = work.evaluate(s)
        else:
            (s, tau), iters, status = centre(t), centre.iters, "converged"
            try:
                barrier = work.barrier(s)
            except NotInterior:
                # a row placed within the rounding of its capacity sums past it: end at the
                # last centre, placed again bit for bit, or at the start when there is none
                s = centre(trace[-1].t)[0] if trace else None
                break
            exact = centre.rows, tau
            utility = centre.utility()
        trace.append(OuterTrace(
            t=t,
            objective=utility,
            barrier=barrier,
            gap_bound=scale / t,
            inner_iters=iters,
            inner_status=status,
        ))
        t *= cfg.mu

    if s is None:
        s = interior_start(inst).values
    alloc = AllocationMatrix(frozen(s))
    dual_gap = work.dual_gap(s, trace[-1].t if trace else t, exact)
    return SolveResult(
        allocation=alloc,
        objective=trace[-1].objective if trace else total_utility(inst, alloc),
        gap_bound=scale / t,
        outer_iters=len(trace),
        inner_iters_total=sum(tr.inner_iters for tr in trace),
        converged=scale / t <= cfg.epsilon and dual_gap <= cfg.epsilon,
        dual_gap=dual_gap,
        trace=tuple(trace),
    )
