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
from .model import AllocationMatrix, ProblemInstance, integers
from .utility import _utility_sum, marginal_utility, total_utility

_ARMIJO = 1e-4
_CONTRACTION = 0.5
_BOUNDARY_FRACTION = 1e-12  # trial slacks must keep this fraction of their previous value
_MAX_BACKTRACKS = 80
_PLATEAU_WINDOW = 20
_FLOAT_MAX = np.finfo(float).max


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3        # target suboptimality
    t0: float = 1.0              # initial barrier multiplier
    mu: float = 10.0             # outer growth factor
    inner_tol: float = 1e-8      # linear inner stop: projected gradient (log centres are exact)
    max_inner_iters: int = 500   # linear inner loop cap
    max_outer_iters: int = 100
    interior_shift: float = 0.5  # theta for the starting-point perturbation

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.epsilon, self.t0, self.mu, self.inner_tol)):
            raise InvalidParams("epsilon, t0, mu and inner_tol must be finite")
        if self.epsilon <= 0:
            raise InvalidParams("epsilon must be > 0")
        if self.t0 <= 0:
            raise InvalidParams("t0 must be > 0")
        if self.mu <= 1:
            raise InvalidParams("mu must be > 1")
        if not (0 < self.interior_shift < 1):
            raise InvalidParams("interior_shift must lie in (0, 1)")
        if not integers(self.max_inner_iters, self.max_outer_iters):
            raise InvalidParams("max_inner_iters and max_outer_iters must be integers")
        if self.inner_tol <= 0 or self.max_inner_iters < 1 or self.max_outer_iters < 1:
            raise InvalidParams("tolerances and iteration caps must be positive")


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


def interior_start(inst: ProblemInstance, shift: float = 0.5) -> AllocationMatrix:
    """Perturb the lower-bound corner into the strict interior.

    Cells with upper == lower stay pinned at the bound.  The perturbation per
    free cell is shift * min(element headroom / |K|, half the box width,
    application span / (2 |I|)), which keeps every barrier slack strictly
    positive whenever a strictly interior point exists.
    """
    if not (0 < shift < 1):
        raise InvalidParams("shift must lie in (0, 1)")
    lo, hi = inst.lower, inst.upper
    free = hi > lo
    row_slack = inst.capacities - lo.sum(axis=1)
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

    num_el, num_app = lo.shape
    delta = shift * np.minimum.reduce([
        np.broadcast_to(row_slack[:, None] / num_app, lo.shape),
        (hi - lo) / 2.0,
        np.broadcast_to(app_span[None, :] / (2.0 * num_el), lo.shape),
    ])
    s = lo + np.where(free, delta, 0.0)
    return AllocationMatrix(s)


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
        self.free = inst.upper > inst.lower
        self.el_active = self.free.any(axis=1)
        # Linear utility keeps the application terms: its truncated-CG results move with them.
        self.low_active = self.up_active = (self.free.any(axis=0)
                                            & (inst.utility_kind == "linear"))
        # the bounds of the constraints in the barrier
        self.capacities = inst.capacities[self.el_active]
        self.app_upper = inst.app_upper[self.up_active]
        self.app_lower = inst.app_lower[self.low_active]

    def slacks(self, s):
        """Element, upper and lower application slacks of the constraints in the barrier."""
        rows = s.sum(axis=1)[self.el_active]
        cols = s.sum(axis=0)
        return (self.capacities - rows, self.app_upper - cols[self.up_active],
                cols[self.low_active] - self.app_lower)

    @cached_property
    def slack_layout(self):
        """(take, sign, offset): the :meth:`slacks` of a point, concatenated, are
        offset + sign * sums[take], bit for bit, where sums is its row sums followed by its
        column sums."""
        num_el = self.el_active.size
        rows = np.flatnonzero(self.el_active)
        up, low = num_el + np.flatnonzero(self.up_active), num_el + np.flatnonzero(self.low_active)
        sign = np.ones(rows.size + up.size + low.size)
        sign[:rows.size + up.size] = -1.0
        return (np.concatenate([rows, up, low]), sign,
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

    def col_terms(self, up, low):
        """Per application, ``up`` where its upper term is in the barrier plus ``low`` where its
        lower term is."""
        return _spread(self.up_active, up) + _spread(self.low_active, low)

    def barrier_terms(self, slacks):
        """Per element and per application, the barrier's part of the gradient, to subtract."""
        bs, ms, ls = slacks
        return _spread(self.el_active, 1.0 / bs), self.col_terms(1.0 / ms, -1.0 / ls)

    def gradient(self, s, t, slacks=None):
        row, col = self.barrier_terms(self.slacks(s) if slacks is None else slacks)
        g = t * marginal_utility(self.inst.utility_kind, self.inst.coeff, s)
        return g - row[:, None] - col[None, :]

    def curvature_terms(self, slacks):
        """The negated inner Hessian's weights and its diagonal, the preconditioner, for linear
        utility, on the grid.

        H = sum_i w_i (row_i)(row_i)^T + sum_k v_k (col_k)(col_k)^T with
        w_i = 1/bs_i^2 per element and v_k = 1/ms_k^2 + 1/ls_k^2 per
        application, each term only where its constraint is in the barrier;
        linear utility adds no diagonal of its own, so H is singular.  The
        truncated-CG step and its scaled-gradient fallback read the (I, K)
        preconditioner.
        """
        bs, ms, ls = slacks
        w_el = _spread(self.el_active, 1.0 / (bs * bs))
        v_app = self.col_terms(1.0 / (ms * ms), 1.0 / (ls * ls))
        return w_el, v_app, np.maximum(w_el[:, None] + v_app[None, :], 1e-300)

    def dual_gap(self, s, t, centre=None) -> float:
        """Lagrangian dual at the barrier multipliers of t, minus the utility of ``s``.

        The multipliers are lambda_i = 1/(t bs_i), nu+_k = 1/(t ms_k) and
        nu-_k = 1/(t ls_k) for the constraints in the barrier, 0 for the
        others.  ``centre``, when given, is (rows, tau) of the exact centre
        ``s`` (:class:`_Centre`): those rows take lambda_i = 1/tau_i,
        since the fresh slack of a row rounds at about 1e-14 B_i, far above
        its sigma at large t.  With a = lambda_i + nu+_k - nu-_k, each cell of
        the dual maximizes u(x) - a x over its box: at clip(c/a, lo, hi) for
        log utility (hi where a <= 0), at a box corner for linear.  By weak
        duality, for any multipliers >= 0, the utility of ``s`` plus this gap
        bounds the optimum; the dual keeps the cell boxes, which enforce every
        bound the barrier leaves out.  The difference is summed term by term,
        the multipliers times the slacks of ``s`` (m/t for the m constraints in
        the barrier, without ``centre``) plus a non-negative term per cell, so
        a gap far below the utility keeps its digits.
        """
        inst = self.inst
        bs, ms, ls = self.interior_slacks(s)
        lam = _spread(self.el_active, 1.0 / (t * bs))
        paid = (bs.size + ms.size + ls.size) / t  # the multipliers times the slacks
        if centre is not None:
            rows, tau = centre
            lam[rows] = 1.0 / tau
            paid = float(lam[self.el_active] @ bs) + (ms.size + ls.size) / t
        nu = self.col_terms(1.0 / (t * ms), -1.0 / (t * ls))
        a = lam[:, None] + nu[None, :]
        lo, hi, c = inst.lower, inst.upper, inst.coeff
        if inst.utility_kind == "logarithmic":
            x = np.where(a > 0, np.clip(c / np.where(a > 0, a, 1.0), lo, hi), hi)
            cells = c * np.log(x / s) - a * (x - s)
        else:
            cells = (c - a) * (np.where(c > a, hi, lo) - s)
        return float(paid + cells.sum())


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
    """

    def __init__(self, inst: ProblemInstance):
        self.lower = inst.lower
        free = (inst.upper > inst.lower) & (inst.coeff > 0)
        self.row, self.col = np.divmod(np.flatnonzero(free), free.shape[1])
        per_row = np.bincount(self.row, minlength=free.shape[0])
        rows = np.flatnonzero(per_row)
        n = per_row[rows]
        width = int(n.max(initial=0))
        # each free cell's row in the block, and its place in that row
        self.block_row = np.repeat(np.arange(rows.size), n)
        place = np.arange(self.row.size) - np.repeat(np.cumsum(n) - n, n)
        self.lo, self.hi, self.c = (a[self.row, self.col]
                                    for a in (inst.lower, inst.upper, inst.coeff))
        ratio = np.full((rows.size, 2 * width), np.inf)
        # A breakpoint beyond the largest float is never reached at a finite tau: the largest
        # float stands in for it, and every breakpoint stays finite.
        with np.errstate(over="ignore"):
            ratio[self.block_row, place] = np.minimum(self.lo / self.c, _FLOAT_MAX)
            ratio[self.block_row, width + place] = np.minimum(self.hi / self.c, _FLOAT_MAX)
        step = np.zeros(ratio.shape)  # the change of slope at each breakpoint
        step[self.block_row, place] = self.c
        step[self.block_row, width + place] = -self.c
        order = np.argsort(ratio, axis=1, kind="stable")
        ratio = np.take_along_axis(ratio, order, axis=1)
        step = np.take_along_axis(step, order, axis=1)
        del order
        # the padding repeats the row's last breakpoint
        np.minimum(ratio, ratio[np.arange(rows.size), 2 * n - 1][:, None], out=ratio)
        first = np.zeros((rows.size, 1))  # tau = 0: every cell at lo
        self.tau = np.hstack([first, ratio])
        # a row's c summed in and out again can round below 0
        self.slope = np.hstack([first, np.maximum(np.cumsum(step, axis=1), 0.0)])
        rise = np.diff(self.tau, axis=1) * self.slope[:, :-1]
        self.moved = np.hstack([first, np.cumsum(rise, axis=1)])
        self.rows = rows
        self.headroom = inst.capacities[rows] - inst.lower.sum(axis=1)[rows]
        if (self.headroom <= 0).any():
            raise EmptyInterior(f"element(s) {rows[self.headroom <= 0].tolist()} have free cells "
                                "but their lower bounds already exhaust the capacity")
        self.iters = int(self.row.size > 0)  # inner iterations a centre records

    def __call__(self, t: float):
        """(the centre at t, a new (I, K) array; tau = t sigma there on each element of
        ``rows``)."""
        target = t * self.headroom
        level = self.tau + t * self.moved
        below = np.count_nonzero(level < target[:, None], axis=1)
        rows, j = np.arange(below.size), np.maximum(below - 1, 0)
        tau = self.tau[rows, j] + (target - level[rows, j]) / (1.0 + t * self.slope[rows, j])
        s = self.lower.copy()
        s[self.row, self.col] = np.clip(self.c * tau[self.block_row], self.lo, self.hi)
        return s, tau


def _newton_cg_direction(terms, g, mask, max_cg: int = 25):
    """Approximately solve H d = g on the unmasked coordinates by CG.

    ``terms`` is ``_InnerProblem.curvature_terms`` at the current point.  The
    Hessian has diagonal-plus-rank-one-per-row/column structure, so each
    matrix-vector product costs one pass over the grid.  Truncated CG output
    always has positive inner product with g (an ascent direction).

    Every grid vector of the iteration (x, r, z, p, the product and one
    temporary) and the row and column sums of the product are buffers
    allocated once per call and updated in place, in the same floating-point
    operations as the textbook expressions.  The residual is exactly +0.0
    off the mask, so the preconditioned residual is too, and only the
    product needs zeroing there.
    """
    w_el, v_app, precond = terms
    damping = 1e-12 * float(precond.max())  # keeps the masked Hessian nonsingular
    off = ~mask
    hp, tmp = np.empty(precond.shape), np.empty(precond.shape)
    row_sum, col_sum = np.empty(precond.shape[0]), np.empty(precond.shape[1])
    b = np.where(mask, g, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = r / precond  # +0.0 off the mask, as r is
    p = z.copy()
    rz = float(np.vdot(r, z))
    b_norm = float(np.abs(b).max())
    if b_norm == 0.0 or rz <= 0.0:
        return z
    for _ in range(max_cg):
        # hp = H p: damping p + w (row sums of p) + v (column sums of p), 0 off the mask
        np.multiply(p, damping, out=hp)
        np.add.reduce(p, axis=1, out=row_sum)
        row_sum *= w_el
        hp += row_sum[:, None]
        np.add.reduce(p, axis=0, out=col_sum)
        col_sum *= v_app
        hp += col_sum
        np.copyto(hp, 0.0, where=off)
        php = float(np.vdot(p, hp))
        if php <= 0.0:
            return p if not x.any() else x
        alpha = rz / php
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(hp, alpha, out=tmp)
        if np.abs(r, out=tmp).max() <= 1e-2 * b_norm:
            break
        np.divide(r, precond, out=z)
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new
    if float(np.vdot(x, b)) <= 0.0:
        return z
    return x


def _grid_line_search(work: _InnerProblem, s, slacks, d, g, t: float, f_cur: float):
    """Armijo backtracking along a grid step d, clipped to the box, from ``s``.

    Every trial is a point of the whole grid, its slacks and value computed
    afresh; the linear path searches this way.  A trial must keep every
    barrier slack positive and at least a fraction of its value at ``s``
    (``slacks``).  Returns (point, its slacks, its value), or None when no
    step within ``_MAX_BACKTRACKS`` halvings is accepted.

    A trial is built in one grid buffer, and its slacks are one vector, laid
    out by :attr:`_InnerProblem.slack_layout`, tested in one comparison.  When
    a built trial fails on an element row (the witness), the next trials
    first clip and sum that row alone, whose 1-D sum is the row's entry of
    the grid's row sums, and are rejected unbuilt while it still fails;
    rejected trials are mostly rejected this way.  The witness is cleared
    when a built trial fails first on a column or passes the slack test.
    Only a trial that passes has its gain and value computed.
    """
    lo, hi = work.inst.lower, work.inst.upper
    take, sign, offset = work.slack_layout
    # x >= floor is (x >= fraction x0) & (x > 0): no float lies strictly between 0 and the
    # smallest subnormal
    floor = np.maximum(_BOUNDARY_FRACTION * np.concatenate(slacks),
                       np.finfo(float).smallest_subnormal)
    num_el, num_rows = s.shape[0], work.capacities.size
    low_start = num_rows + work.app_upper.size  # where the lower application slacks start
    trial, line = np.empty(s.shape), np.empty(s.shape[1])
    sums, x = np.empty(num_el + s.shape[1]), np.empty(take.size)
    row_sums, col_sums = sums[:num_el], sums[num_el:]
    witness = None  # the slack index of the element row that failed the last trial built
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        if witness is not None:
            i = take[witness]
            np.multiply(d[i], alpha, out=line)
            line += s[i]
            line.clip(lo[i], hi[i], out=line)
            if not offset[witness] + sign[witness] * np.add.reduce(line) >= floor[witness]:
                alpha *= _CONTRACTION
                continue
        np.multiply(d, alpha, out=trial)
        trial += s
        trial.clip(lo, hi, out=trial)
        np.add.reduce(trial, axis=1, out=row_sums)
        np.add.reduce(trial, axis=0, out=col_sums)
        np.take(sums, take, out=x)
        x *= sign
        x += offset
        passed = x >= floor
        if passed.all():
            witness = None
            gain = float(np.vdot(g, trial - s))
            if gain > 0:
                trial_slacks = (x[:num_rows], x[num_rows:low_start], x[low_start:])
                f_new = work.value(trial, t, trial_slacks)
                if f_new >= f_cur + _ARMIJO * gain:
                    return trial, trial_slacks, f_new
        else:
            first = int(passed.argmin())
            witness = first if first < num_rows else None
        alpha *= _CONTRACTION
    return None


def _inner_loop(work: _InnerProblem, s: np.ndarray, t: float, cfg: SolverConfig, at=None):
    """Projected ascent with Armijo backtracking on the linear inner problem.

    The search direction is a truncated-CG Newton step on the inactive
    coordinates (:func:`_newton_cg_direction`; the Hessian is singular), and
    the diagonally scaled gradient when that step fails the line search
    (:func:`_grid_line_search`).  Accepted steps never decrease the inner
    objective, and every iterate keeps all active barrier slacks strictly
    positive (fraction-to-boundary rule).

    The loop ends ``converged`` when the projected gradient is within
    ``inner_tol`` of zero; the truncated-CG g^T d is no Newton decrement.
    ``plateau`` (no progress over a window of accepted steps), ``stalled``
    (no step accepted) and ``max_iters`` end it otherwise.

    ``at``, when given, is :meth:`_InnerProblem.evaluate` of ``s``.

    Returns (s, iterations, status, objective_history).
    """
    # the slacks of the current point, carried over from the line search
    utility, slacks, barrier = work.evaluate(s) if at is None else at
    history = [t * utility + barrier]
    lo, hi = work.inst.lower, work.inst.upper
    status = "max_iters"
    iters = 0
    for iters in range(1, cfg.max_inner_iters + 1):
        g = work.gradient(s, t, slacks)
        blocked = ((s <= lo) & (g < 0)) | ((s >= hi) & (g > 0))
        if np.abs(np.where(blocked, 0.0, g)).max(initial=0.0) <= cfg.inner_tol:
            status = "converged"
            iters -= 1
            break

        f_cur = history[-1]
        mask = work.free & ~blocked
        terms = work.curvature_terms(slacks)
        step = _grid_line_search(work, s, slacks, _newton_cg_direction(terms, g, mask), g,
                                 t, f_cur)
        if step is None:
            scaled = np.where(mask, g, 0.0) / terms[-1]
            step = _grid_line_search(work, s, slacks, scaled, g, t, f_cur)
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


def solve_inner(inst: ProblemInstance, start: AllocationMatrix, t: float,
                config: SolverConfig | None = None) -> AllocationMatrix:
    """Solve the inner problem at fixed t.

    For logarithmic utility this is the exact centre (:class:`_Centre`), and
    ``start`` and ``config`` are not used.  For linear utility it is
    :func:`_inner_loop` from the strictly interior ``start``.
    """
    if inst.utility_kind == "logarithmic":
        return AllocationMatrix(_Centre(inst)(t)[0])
    s, _, _, _ = _inner_loop(_InnerProblem(inst), start.values.copy(), t,
                             config or SolverConfig())
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
    """
    cfg = config or SolverConfig()
    work = _InnerProblem(inst)
    s = interior_start(inst, cfg.interior_shift).values.copy()
    centre = _Centre(inst) if inst.utility_kind == "logarithmic" else None

    t = cfg.t0
    outer = 0
    inner_total = 0
    trace = []
    at = None  # the evaluation of the last inner loop's point, the next one's start
    exact = None  # (rows, tau) of the last centre, for its dual multipliers
    while gap_bound(inst, t) > cfg.epsilon and outer < cfg.max_outer_iters:
        if centre is None:
            s, iters, status, _ = _inner_loop(work, s, t, cfg, at)
        else:
            (s, tau), iters, status = centre(t), centre.iters, "converged"
            exact = centre.rows, tau
        inner_total += iters
        at = work.evaluate(s)
        trace.append(OuterTrace(
            t=t,
            objective=at[0],
            barrier=at[2],
            gap_bound=gap_bound(inst, t),
            inner_iters=iters,
            inner_status=status,
        ))
        t *= cfg.mu
        outer += 1

    alloc = AllocationMatrix(s)
    dual_gap = work.dual_gap(s, trace[-1].t if trace else t, exact)
    return SolveResult(
        allocation=alloc,
        objective=trace[-1].objective if trace else total_utility(inst, alloc),
        gap_bound=gap_bound(inst, t),
        outer_iters=outer,
        inner_iters_total=inner_total,
        converged=gap_bound(inst, t) <= cfg.epsilon and dual_gap <= cfg.epsilon,
        dual_gap=dual_gap,
        trace=tuple(trace),
    )
