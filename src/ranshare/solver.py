"""Barrier-method solver for the allocation problem.

The coupling constraints (element capacities and per-application aggregate
bounds) are folded into a logarithmic barrier; the per-cell box bounds stay
explicit and are handled by projection.  For logarithmic utility the
barrier leaves out the aggregate bounds the boxes already enforce.  An outer
loop sharpens the barrier multiplier t by a factor mu until the certified
bound (B + |K|) / t drops below the requested suboptimality epsilon.
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
_GATHER_SHARE = 0.9  # a log step that moves at most this share of the support gathers its cells


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3        # target suboptimality
    t0: float = 1.0              # initial barrier multiplier
    mu: float = 10.0             # outer growth factor
    inner_tol: float = 1e-8      # inner stop: Newton decrement^2 / 2 (log), projected gradient
    max_inner_iters: int = 500
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
    zero.  For logarithmic utility an application bound that the cell boxes
    enforce (``app_lower[k] <= lower[:, k].sum()``, or
    ``app_upper[k] >= upper[:, k].sum()``, as on every generated instance)
    has no term either.  Every slack with a term must be strictly positive
    (``NotInterior``).
    """
    return _InnerProblem(inst).barrier(alloc.values)


def interior_objective(inst: ProblemInstance, alloc: AllocationMatrix, t: float) -> float:
    """t * utility + barrier, the objective of the inner problem.

    The barrier is :func:`barrier_value`, so constraints without a free cell,
    and for logarithmic utility the application bounds the boxes enforce,
    contribute nothing.
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
    the barrier also leaves out every application bound that the cell boxes
    already enforce (presolve; Andersen & Andersen 1995): the lower term of
    column k where ``app_lower[k] <= lower[:, k].sum()``, its upper term
    where ``app_upper[k] >= upper[:, k].sum()``.  Floating-point summation is
    monotone, so any point of the box meets those bounds exactly.  A cell with
    c = 0 in a column without a lower term then has gradient -1/bs_i, minus
    1/ms_k where the upper term is kept, < 0 everywhere: it never leaves its
    lower bound, so the solver holds it there (``pinned``) and it is not free.
    The log inner loop runs on the ``free`` cells alone, the :attr:`support`.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        box_free = inst.upper > inst.lower
        self.el_active = box_free.any(axis=1)
        app_free = box_free.any(axis=0)
        self.low_active = self.up_active = app_free
        self.pinned = np.zeros(box_free.shape, bool)
        # Linear utility keeps the full barrier until it has an exact inner loop
        # (ROADMAP item 1): its truncated-CG results move with the barrier's terms.
        if inst.utility_kind == "logarithmic":
            self.low_active = app_free & (inst.app_lower > inst.lower.sum(axis=0))
            self.up_active = app_free & (inst.app_upper < inst.upper.sum(axis=0))
            self.pinned = box_free & (inst.coeff == 0) & ~self.low_active[None, :]
        self.free = box_free & ~self.pinned
        # the bounds of the constraints in the barrier
        self.capacities = inst.capacities[self.el_active]
        self.app_upper = inst.app_upper[self.up_active]
        self.app_lower = inst.app_lower[self.low_active]

    @cached_property
    def support(self):
        """(cells, lo, hi, c): the free cells and their box and coefficients, flat."""
        inst = self.inst
        cells = _FlatCells.of(self.free)
        return cells, cells.take(inst.lower), cells.take(inst.upper), cells.take(inst.coeff)

    def start(self, s):
        """``s`` with the ``pinned`` cells at their lower bound, in place; still interior."""
        s[self.pinned] = self.inst.lower[self.pinned]
        return s

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

    def weights(self, slacks):
        """Row and column weights w, v of the negated inner Hessian, 0 off the barrier.

        ``slacks`` are :meth:`slacks` at the point: w_i = 1/bs_i^2 per element,
        v_k = 1/ms_k^2 + 1/ls_k^2 per application, each term only where its
        constraint is in the barrier.
        """
        bs, ms, ls = slacks
        w_el = _spread(self.el_active, 1.0 / (bs * bs))
        return w_el, self.col_terms(1.0 / (ms * ms), 1.0 / (ls * ls))

    def curvature_terms(self, slacks):
        """The negated inner Hessian's weights and its diagonal, the preconditioner, for linear
        utility, on the grid.

        H = sum_i w_i (row_i)(row_i)^T + sum_k v_k (col_k)(col_k)^T with w, v
        from :meth:`weights`; linear utility adds no diagonal of its own, so
        H is singular.  The truncated-CG step and its scaled-gradient fallback
        read the (I, K) preconditioner.
        """
        w_el, v_app = self.weights(slacks)
        return w_el, v_app, np.maximum(w_el[:, None] + v_app[None, :], 1e-300)

    def dual_gap(self, s, t) -> float:
        """Lagrangian dual at the barrier multipliers of t, minus the utility of ``s``.

        The multipliers are lambda_i = 1/(t bs_i), nu+_k = 1/(t ms_k) and
        nu-_k = 1/(t ls_k) for the constraints in the barrier, 0 for the
        others.  With a = lambda_i + nu+_k - nu-_k, each cell of the dual
        maximizes u(x) - a x over its box: at clip(c/a, lo, hi) for log
        utility (hi where a <= 0), at a box corner for linear.  By weak
        duality the utility of ``s`` plus this gap bounds the optimum; the
        dual keeps the cell boxes, which enforce every bound the barrier
        leaves out.  The difference is summed term by term, m/t for the m
        constraints in the barrier plus a non-negative term per cell, so a
        gap far below the utility keeps its digits.
        """
        inst = self.inst
        bs, ms, ls = self.interior_slacks(s)
        lam = _spread(self.el_active, 1.0 / (t * bs))
        nu = self.col_terms(1.0 / (t * ms), -1.0 / (t * ls))
        a = lam[:, None] + nu[None, :]
        lo, hi, c = inst.lower, inst.upper, inst.coeff
        if inst.utility_kind == "logarithmic":
            x = np.where(a > 0, np.clip(c / np.where(a > 0, a, 1.0), lo, hi), hi)
            cells = c * np.log(x / s) - a * (x - s)
        else:
            cells = (c - a) * (np.where(c > a, hi, lo) - s)
        return float((bs.size + ms.size + ls.size) / t + cells.sum())


class _FlatCells:
    """Some cells of the (I, K) grid, as flat arrays of their rows and columns, in row-major order.

    Row and column sums are bincounts over the cells' rows and columns.  The
    Gram matrix sum_i a_i a_i^T of the rows is a bincount over the pairs of
    cells that share a row, sum_i n_i^2 of them for n_i cells in row i, when
    the pairs are no more than the grid's cells; with more (:attr:`dense`) it
    is a dense product of the rows scattered onto the grid, which builds no
    pair arrays.
    """

    def __init__(self, shape, row, col):
        self.shape, self.row, self.col = shape, row, col

    @classmethod
    def of(cls, mask):
        """The ``mask`` cells of a grid."""
        row, col = np.divmod(np.flatnonzero(mask), mask.shape[1])  # faster than np.nonzero
        return cls(mask.shape, row, col)

    @cached_property
    def dense(self):
        """Whether the same-row pairs outnumber the grid's cells: then the Gram product is
        formed on the grid."""
        per_row = np.bincount(self.row, minlength=self.shape[0])
        return int(per_row @ per_row) > self.shape[0] * self.shape[1]

    @cached_property
    def _pairs(self):
        """(a, b, bin): the two cells of every same-row pair and its Gram entry, K a_col + b_col."""
        num_app = self.shape[1]
        per_row = np.bincount(self.row, minlength=self.shape[0])
        n = per_row[self.row]  # the cells in each cell's row
        first_pair = np.cumsum(n) - n
        row_start = np.cumsum(per_row) - per_row
        pair_a = np.repeat(np.arange(self.row.size), n)
        pair_b = np.arange(pair_a.size) - np.repeat(first_pair - row_start[self.row], n)
        return pair_a, pair_b, self.col[pair_a] * num_app + self.col[pair_b]

    def take(self, a):
        return a[self.row, self.col]

    def row_sum(self, a):
        return np.bincount(self.row, a, self.shape[0])

    def col_sum(self, a):
        return np.bincount(self.col, a, self.shape[1])

    def of_row(self, r):
        return r[self.row]

    def of_col(self, c):
        return c[self.col]

    def gram(self, a):
        if self.dense:
            on_grid = self.grid(a)
            return on_grid.T @ on_grid
        num_app = self.shape[1]
        pair_a, pair_b, pair_bin = self._pairs
        gram = np.bincount(pair_bin, a[pair_a] * a[pair_b], num_app * num_app)
        return gram.reshape(num_app, num_app)

    def where(self, flags):
        """(index, rows, cols) of the flagged cells."""
        index = np.flatnonzero(flags)
        return index, self.row[index], self.col[index]

    def grid(self, a, out=None):
        """``a`` scattered onto the grid: into ``out``, or zeros."""
        out = np.zeros(self.shape) if out is None else out
        out[self.row, self.col] = a
        return out


def _exact_newton_direction(terms, g, cells, s, lo, hi, free):
    """Projected Newton step for logarithmic utility: H d = g solved exactly on ``cells``.

    ``cells`` is a :class:`_FlatCells`, and g, s, the box lo, hi and the
    flags ``free`` are flat arrays on them; the step moves the ``free``
    cells and holds the others.  ``terms`` is (t c, w, v): the coefficients
    times t on the cells and the weights of :meth:`_InnerProblem.weights` at
    ``s``.  H is the negated inner Hessian diag(t c / s^2) +
    sum_i w_i (row_i)(row_i)^T + sum_k v_k (col_k)(col_k)^T on the free
    cells, its diagonal damped by 1e-12 times its largest entry.  Each
    element row of H is diag(d + damping) + w_i 11^T, inverted by
    Sherman-Morrison; a row can hold a single free cell, whose 1 - rho e
    cancels to sigma = 1 / (1 + w e) when w e is large, so 1 - rho e_j is
    formed as sigma + rho (sum e - e_j), exact for such a cell.  The
    application columns with v_k > 0, those with a term in the barrier, are
    then eliminated through the Woodbury system S = I + V^1/2 C^T A^-1 C V^1/2
    on them (:meth:`_FlatCells.gram`).  Without such a column, as on every
    generated log instance, the step is the row-block solve alone, with no
    Gram product and no dense solve.  Every pass is over the cells.

    Cells the step would push past ``lo``/``hi`` are fixed at that bound,
    their moves go to the right-hand side and the rest is solved again,
    until no free cell is pushed out (Bertsekas 1982, projected Newton).
    The free set shrinks every round, so the loop ends.  Returns the step d
    on the cells, zero on the held ones, or None when no cell is free, the
    Woodbury solve fails, or the moves to a bound leave a step that is no
    ascent direction; the returned step always has g^T d > 0.
    """
    tc, w_el, v_app = terms
    num_el, num_app = cells.shape
    if not free.any():
        return None  # no cell can move
    diag = tc / (s * s)
    hess_diag = diag + cells.of_row(w_el) + cells.of_col(v_app)
    damping = 1e-12 * float(np.max(hess_diag, where=free, initial=0.0))
    # the inverse diagonal of the row blocks A on the free cells, zero elsewhere
    e = np.where(free, 1.0 / (diag + damping), 0.0)
    rhs = np.where(free, g, 0.0)
    free = free.copy()
    in_barrier = v_app > 0  # the columns of the Woodbury system
    root_v = np.sqrt(v_app[in_barrier])
    step = np.zeros_like(e)  # the moves of the cells fixed at a bound
    while True:
        # Sherman-Morrison on a row block: A^-1 y = e (y - rho (e^T y)), rho = w / (1 + w sum e)
        row_e = cells.row_sum(e)
        rho = w_el / (1.0 + w_el * row_e)
        rho_at = cells.of_row(rho)
        keep = rho_at * (cells.of_row(row_e) - e)  # 1 - rho e
        keep += cells.of_row(1.0 / (1.0 + w_el * row_e))

        def row_solve(y):
            """A^-1 y, in place, on every row block: y (1 - rho e) - rho (e^T y - e y), times e."""
            ey = e * y
            y *= keep
            y -= rho_at * (cells.of_row(cells.row_sum(ey)) - ey)
            y *= e
            return y

        if in_barrier.any():
            # C^T A^-1 C = diag(sum_i e (1 - rho e)) - (rho^1/2 e)^T (rho^1/2 e) off the diagonal
            schur = -cells.gram(e * cells.of_row(np.sqrt(rho)))[np.ix_(in_barrier, in_barrier)]
            schur[np.diag_indices_from(schur)] = cells.col_sum(e * keep)[in_barrier]
            schur *= root_v[:, None] * root_v[None, :]
            schur[np.diag_indices_from(schur)] += 1.0
            col_rhs = root_v * cells.col_sum(row_solve(rhs.copy()))[in_barrier]
            try:
                u = _spread(in_barrier, root_v * np.linalg.solve(schur, col_rhs))
            except np.linalg.LinAlgError:
                return None
            x = row_solve(rhs - cells.of_col(u))
        else:
            x = row_solve(rhs.copy())
        if not np.isfinite(x).all():
            return None
        trial = s + x
        index, rows, cols = cells.where(free & ((trial > hi) | (trial < lo)))
        if rows.size == 0:
            x += step  # x is zero on the fixed cells
            # the moves to a bound can turn the step away from g
            return x if float(np.vdot(g, x)) > 0.0 else None
        move = np.where(trial[index] > hi[index], hi[index], lo[index]) - s[index]
        step[index] = move
        free[index] = False
        e[index] = 0.0
        rhs -= cells.of_row(w_el * np.bincount(rows, move, num_el))
        rhs -= cells.of_col(v_app * np.bincount(cols, move, num_app))


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


def _line_search(work: _InnerProblem, cells, point, slacks, d, g, t: float, f_cur: float):
    """Armijo backtracking along d, clipped to the box, on the cells of a step (log utility).

    ``point`` is (s, lo, hi, c): the point, its box and its coefficients on
    ``cells``, flat arrays like the step d and the gradient g.  A trial's
    slacks are ``slacks`` minus the row and column sums (bincounts) of its
    moves, and its value is ``f_cur`` plus t sum c (log trial - log s) over
    the cells plus the change of the barrier, so a trial costs passes over
    the cells and the I + 2K slacks, not over the grid.  The tests are those
    of :func:`_grid_line_search`.  Returns (the trial on the cells, its
    slacks, its value), or None when no step within ``_MAX_BACKTRACKS``
    halvings is accepted.
    """
    s0, lo, hi, c = point
    log_s0 = np.log(s0)
    bs, ms, ls = slacks
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        trial = np.clip(s0 + alpha * d, lo, hi)
        move = trial - s0
        row_move = cells.row_sum(move)[work.el_active]
        col_move = cells.col_sum(move)
        trial_slacks = (bs - row_move, ms - col_move[work.up_active],
                        ls + col_move[work.low_active])
        if all(((x >= _BOUNDARY_FRACTION * x0) & (x > 0)).all()
               for x, x0 in zip(trial_slacks, slacks)):
            gain = float(np.vdot(g, move))
            if gain > 0:
                change = (t * float(np.vdot(c, np.log(trial) - log_s0))
                          + sum(float(np.log(x / x0).sum()) for x, x0 in zip(trial_slacks, slacks)))
                if change >= _ARMIJO * gain:
                    return trial, trial_slacks, f_cur + change
        alpha *= _CONTRACTION
    return None


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
    """Projected ascent with Armijo backtracking on the inner objective.

    The search direction is a Newton step on the inactive coordinates:
    exact, with the cells it would push out of their box fixed at the
    bound, for logarithmic utility (:func:`_exact_newton_direction`), and
    truncated CG for linear utility, whose Hessian is singular
    (:func:`_newton_cg_direction`).  When there is no exact step, or the
    Newton step fails the line search, the diagonally scaled gradient is
    tried.  Accepted steps never decrease the inner objective, and every
    iterate keeps all active barrier slacks strictly positive
    (fraction-to-boundary rule).

    The log path runs on the :attr:`_InnerProblem.support`, its free cells
    gathered once per solve into flat arrays: the gradient, the blocked test
    and the stop on them, the step and its search (:func:`_line_search`) on
    those not blocked, with the slacks and the objective carried from step
    to step; ``s`` is written back to the grid once, at the end.  A step
    that moves at most ``_GATHER_SHARE`` of the support gathers its cells; a
    larger one runs on every support cell with the blocked ones held.  The
    linear path runs on the grid (:func:`_grid_line_search`).

    The loop ends ``converged`` when the projected gradient is within
    ``inner_tol`` of zero or, on the exact path, when the Newton decrement
    lambda^2 / 2 = g^T d / 2 is at most ``inner_tol`` (Boyd & Vandenberghe
    9.5.1) or below the spacing of floats at the inner objective, where the
    ascent left cannot show in it; the truncated-CG g^T d is no decrement,
    so the linear path has only the gradient test.  ``plateau`` (no progress
    over a window of accepted steps) and ``stalled`` (no step accepted) end
    it otherwise.

    ``at``, when given, is :meth:`_InnerProblem.evaluate` of ``s``.

    Returns (s, iterations, status, objective_history).
    """
    exact = work.inst.utility_kind == "logarithmic"
    # the slacks of the current point, carried over from the line search
    utility, slacks, barrier = work.evaluate(s) if at is None else at
    history = [t * utility + barrier]
    if exact:
        support, lo, hi, c = work.support
        x, tc = support.take(s), t * c  # the log utility's curvature is t c / s^2
    else:
        support, lo, hi, x = None, work.inst.lower, work.inst.upper, s
    status = "max_iters"
    iters = 0
    for iters in range(1, cfg.max_inner_iters + 1):
        if exact:
            row, col = work.barrier_terms(slacks)
            g = t * marginal_utility("logarithmic", c, x)
            g = g - support.of_row(row) - support.of_col(col)
        else:
            g = work.gradient(x, t, slacks)
        blocked = ((x <= lo) & (g < 0)) | ((x >= hi) & (g > 0))
        if np.abs(np.where(blocked, 0.0, g)).max(initial=0.0) <= cfg.inner_tol:
            status = "converged"
            iters -= 1
            break

        f_cur = history[-1]
        if exact:
            # The step moves the support cells not blocked.  A step that moves most of the
            # support runs on all of it with the blocked cells held; a smaller one gathers its
            # cells, which costs a few copies of them and saves passes over the others.
            free = ~blocked
            if np.count_nonzero(free) > _GATHER_SHARE * free.size:
                cells, index = support, slice(None)
            else:
                index = np.flatnonzero(free)
                cells = _FlatCells(support.shape, support.row[index], support.col[index])
                free = free[index]
            point, g_at = (x[index], lo[index], hi[index], c[index]), g[index]
            w_el, v_app = work.weights(slacks)
            d = _exact_newton_direction((tc[index], w_el, v_app), g_at, cells, *point[:3], free)
            # Newton decrement: lambda^2 / 2 = g^T d / 2 estimates the ascent left; below
            # the rounding floor of f it cannot show in f
            floor = max(cfg.inner_tol, float(np.spacing(abs(f_cur))))
            if d is not None and float(np.vdot(g_at, d)) <= 2.0 * floor:
                status = "converged"
                iters -= 1
                break
            search = (work, cells, point, slacks)
            step = None if d is None else _line_search(*search, d, g_at, t, f_cur)
            if step is None:
                # the gradient scaled by the Hessian diagonal
                precond = tc[index] / (point[0] * point[0]) + cells.of_row(w_el)
                precond += cells.of_col(v_app)
                scaled = np.where(free, g_at, 0.0) / np.maximum(precond, 1e-300)
                step = _line_search(*search, scaled, g_at, t, f_cur)
            if step is not None:
                trial, slacks, f_new = step
                x[index] = trial  # x is the loop's own, gathered from s
        else:
            mask = work.free & ~blocked
            terms = work.curvature_terms(slacks)
            step = _grid_line_search(work, x, slacks, _newton_cg_direction(terms, g, mask), g,
                                     t, f_cur)
            if step is None:
                scaled = np.where(mask, g, 0.0) / terms[-1]
                step = _grid_line_search(work, x, slacks, scaled, g, t, f_cur)
            if step is not None:
                x, slacks, f_new = step
        if step is None:
            status = "stalled"
            break
        history.append(f_new)
        # plateau exit: no measurable progress over a window of accepted steps
        if len(history) > _PLATEAU_WINDOW:
            ref = history[-_PLATEAU_WINDOW - 1]
            if history[-1] - ref <= 1e-13 * max(1.0, abs(ref)):
                status = "plateau"
                break
    return (support.grid(x, s.copy()) if exact else x), iters, status, history


def solve_inner(inst: ProblemInstance, start: AllocationMatrix, t: float,
                config: SolverConfig | None = None) -> AllocationMatrix:
    """Solve the inner problem at fixed t from a strictly interior start.

    The cells the presolve holds (:class:`_InnerProblem`) start at their
    lower bound.
    """
    cfg = config or SolverConfig()
    work = _InnerProblem(inst)
    s, _, _, _ = _inner_loop(work, work.start(start.values.copy()), t, cfg)
    return AllocationMatrix(s)


def solve(inst: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Run the outer barrier loop until (B + |K|) / t <= epsilon.

    The returned allocation is always feasible; ``converged`` is False when
    the outer iteration cap was hit before the bound dropped below epsilon.
    """
    cfg = config or SolverConfig()
    work = _InnerProblem(inst)
    s = work.start(interior_start(inst, cfg.interior_shift).values.copy())

    t = cfg.t0
    outer = 0
    inner_total = 0
    trace = []
    at = None  # the evaluation of the last inner loop's point, the next one's start
    while gap_bound(inst, t) > cfg.epsilon and outer < cfg.max_outer_iters:
        s, iters, status, _ = _inner_loop(work, s, t, cfg, at)
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
    return SolveResult(
        allocation=alloc,
        objective=trace[-1].objective if trace else total_utility(inst, alloc),
        gap_bound=gap_bound(inst, t),
        outer_iters=outer,
        inner_iters_total=inner_total,
        converged=gap_bound(inst, t) <= cfg.epsilon,
        dual_gap=work.dual_gap(s, trace[-1].t if trace else t),
        trace=tuple(trace),
    )
