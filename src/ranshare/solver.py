"""Barrier-method solver for the allocation problem.

The coupling constraints (element capacities and per-application aggregate
bounds) are folded into a logarithmic barrier; the per-cell box bounds stay
explicit and are handled by projection.  An outer loop sharpens the barrier
multiplier t by a factor mu until the certified bound (B + |K|) / t drops
below the requested suboptimality epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInterior, InvalidParams, NotInterior
from .model import AllocationMatrix, ProblemInstance, integers
from .utility import _utility_sum, marginal_utility, total_utility

_ARMIJO = 1e-4
_CONTRACTION = 0.5
_BOUNDARY_FRACTION = 1e-12  # trial slacks must keep this fraction of their previous value
_MAX_BACKTRACKS = 80
_PLATEAU_WINDOW = 20


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3        # target suboptimality
    t0: float = 1.0              # initial barrier multiplier
    mu: float = 10.0             # outer growth factor
    inner_tol: float = 1e-8      # projected-gradient stationarity target
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
    trace: tuple = ()


def _slacks(inst: ProblemInstance, s: np.ndarray):
    rows = s.sum(axis=1)
    cols = s.sum(axis=0)
    return inst.capacities - rows, inst.app_upper - cols, cols - inst.app_lower


def barrier_value(inst: ProblemInstance, alloc: AllocationMatrix) -> float:
    """Logarithmic barrier over the coupling constraints at a strictly interior point.

    This is the barrier the solver maximizes.  A constraint without a free
    cell (an element row or application column whose cells all have
    upper == lower) is constant, so its term is dropped and its slack may be
    zero; every other slack must be strictly positive (``NotInterior``).
    """
    return _InnerProblem(inst).barrier(alloc.values)


def interior_objective(inst: ProblemInstance, alloc: AllocationMatrix, t: float) -> float:
    """t * utility + barrier, the objective of the inner problem.

    The barrier is :func:`barrier_value`, so constraints without a free cell
    contribute nothing.
    """
    return _InnerProblem(inst).value(alloc.values, t)


def interior_gradient(inst: ProblemInstance, alloc: AllocationMatrix, t: float) -> np.ndarray:
    """Gradient of :func:`interior_objective` at every cell, pinned ones included.

    Raises ``NotInterior`` where :func:`barrier_value` does; constraints
    without a free cell contribute no term.
    """
    work = _InnerProblem(inst)
    work.interior_slacks(alloc.values)
    return work.gradient(alloc.values, t)


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


class _InnerProblem:
    """The inner problem at fixed t; the public barrier functions are views of it.

    Pinned cells (upper == lower) stay fixed, and the constant barrier terms
    of constraints without a free cell are dropped.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.free = inst.upper > inst.lower
        self.el_active = self.free.any(axis=1)
        self.app_active = self.free.any(axis=0)

    def slacks(self, s):
        bs, ms, ls = _slacks(self.inst, s)
        return bs[self.el_active], ms[self.app_active], ls[self.app_active]

    def interior_slacks(self, s):
        """The slacks, which must all be strictly positive."""
        slacks = self.slacks(s)
        if not all((x > 0).all() for x in slacks):
            raise NotInterior("allocation is not strictly interior to the coupling constraints")
        return slacks

    def barrier(self, s) -> float:
        bs, ms, ls = self.interior_slacks(s)
        return float(np.log(bs).sum() + np.log(ms).sum() + np.log(ls).sum())

    def value(self, s, t) -> float:
        return t * _utility_sum(self.inst, s) + self.barrier(s)

    def gradient(self, s, t):
        inst = self.inst
        bs, ms, ls = _slacks(inst, s)
        g = t * marginal_utility(inst.utility_kind, inst.coeff, s)
        g -= np.where(self.el_active, 1.0 / np.where(self.el_active, bs, 1.0), 0.0)[:, None]
        col = np.where(self.app_active, 1.0 / np.where(self.app_active, ms, 1.0), 0.0)
        col -= np.where(self.app_active, 1.0 / np.where(self.app_active, ls, 1.0), 0.0)
        g -= col[None, :]
        return g

    def curvature_terms(self, s, t):
        """Pieces of the negated inner Hessian and its diagonal, the preconditioner.

        H = diag(d) + sum_i w_i (row_i)(row_i)^T + sum_k v_k (col_k)(col_k)^T
        with d from the utility term, w from element slacks, v from the two
        application slacks; all pieces are positive semidefinite.
        """
        inst = self.inst
        bs, ms, ls = _slacks(inst, s)
        diag = np.zeros_like(s)
        if inst.utility_kind == "logarithmic":
            diag = t * inst.coeff / (s * s)
        w_el = np.where(self.el_active, 1.0 / np.where(self.el_active, bs * bs, 1.0), 0.0)
        v_app = np.where(self.app_active, 1.0 / np.where(self.app_active, ms * ms, 1.0), 0.0)
        v_app += np.where(self.app_active, 1.0 / np.where(self.app_active, ls * ls, 1.0), 0.0)
        precond = np.maximum(diag + w_el[:, None] + v_app[None, :], 1e-300)
        return diag, w_el, v_app, precond


def _damping(precond) -> float:
    """The diagonal shift that keeps the masked Hessian nonsingular."""
    return 1e-12 * float(precond.max())


def _scaled_gradient(g, mask, precond):
    """The gradient on the mask cells, scaled by the Hessian diagonal."""
    return np.where(mask, g, 0.0) / precond


def _exact_newton_direction(terms, g, mask, s, lo, hi):
    """Projected Newton step for logarithmic utility: H d = g solved exactly.

    ``terms`` is ``_InnerProblem.curvature_terms`` at ``s``; H is the damped
    negated Hessian restricted to the ``mask`` cells.  Each element row of
    H is diag(d + damping) + w_i 11^T, inverted by Sherman-Morrison; the
    application columns are then eliminated through the |K| x |K| Woodbury
    system S = I + V^1/2 C^T A^-1 C V^1/2, which stays valid where v_k = 0.

    Cells the step would push past ``lo``/``hi`` are fixed at that bound,
    their moves go to the right-hand side and the rest is solved again,
    until no free cell is pushed out (Bertsekas 1982, projected Newton).
    The free set shrinks every round, so the loop ends.  When the Woodbury
    solve fails, or the moves to a bound leave a step that is no ascent
    direction, the diagonally scaled gradient is returned instead.
    """
    diag, w_el, v_app, precond = terms
    # the inverse diagonal of the row blocks A on the free cells, zero elsewhere
    e = np.where(mask, 1.0 / (diag + _damping(precond)), 0.0)
    root_v = np.sqrt(v_app)
    num_app = g.shape[1]
    free = mask.copy()
    step = np.zeros_like(g)  # the moves of the cells fixed at a bound
    rhs = np.where(mask, g, 0.0)
    while True:
        rho = w_el / (1.0 + w_el * e.sum(axis=1))

        def row_solve(y):
            """A^-1 y, in place: Sherman-Morrison on every row block."""
            y -= (rho * np.einsum("ik,ik->i", e, y))[:, None]
            y *= e
            return y

        # C^T A^-1 C = diag(column sums of e) - (rho^1/2 e)^T (rho^1/2 e)
        root_rho_e = e * np.sqrt(rho)[:, None]
        schur = -(root_rho_e.T @ root_rho_e)
        del root_rho_e
        schur[np.diag_indices(num_app)] += e.sum(axis=0)
        schur *= root_v[:, None] * root_v[None, :]
        schur[np.diag_indices(num_app)] += 1.0
        col_rhs = root_v * row_solve(rhs.copy()).sum(axis=0)
        try:
            u = root_v * np.linalg.solve(schur, col_rhs)
        except np.linalg.LinAlgError:
            return _scaled_gradient(g, mask, precond)
        x = row_solve(rhs - u[None, :])
        if not np.isfinite(x).all():
            return _scaled_gradient(g, mask, precond)
        trial = s + x
        rows, cols = np.nonzero(free & ((trial > hi) | (trial < lo)))
        if rows.size == 0:
            x += step  # x is zero off the free cells
            # the moves to a bound can turn the step away from g
            return x if float(np.vdot(g, x)) > 0.0 else _scaled_gradient(g, mask, precond)
        bound = np.where(trial[rows, cols] > hi[rows, cols], hi[rows, cols], lo[rows, cols])
        move = bound - s[rows, cols]
        step[rows, cols] = move
        free[rows, cols] = False
        e[rows, cols] = 0.0
        rhs -= w_el[:, None] * np.bincount(rows, move, len(w_el))[:, None]
        rhs -= v_app * np.bincount(cols, move, num_app)


def _newton_cg_direction(terms, g, mask, max_cg: int = 25):
    """Approximately solve H d = g on the unmasked coordinates by CG.

    ``terms`` is ``_InnerProblem.curvature_terms`` at the current point.  The
    Hessian has diagonal-plus-rank-one-per-row/column structure, so each
    matrix-vector product costs one pass over the grid.  Truncated CG output
    always has positive inner product with g (an ascent direction).
    """
    diag, w_el, v_app, precond = terms
    damping = _damping(precond)

    def matvec(v):
        out = (diag + damping) * v
        out += w_el[:, None] * v.sum(axis=1)[:, None]
        out += v_app[None, :] * v.sum(axis=0)[None, :]
        out[~mask] = 0.0
        return out

    b = np.where(mask, g, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = r / precond
    z[~mask] = 0.0
    p = z.copy()
    rz = float(np.vdot(r, z))
    b_norm = float(np.abs(b).max())
    if b_norm == 0.0 or rz <= 0.0:
        return z
    for _ in range(max_cg):
        hp = matvec(p)
        php = float(np.vdot(p, hp))
        if php <= 0.0:
            return p if not x.any() else x
        alpha = rz / php
        x += alpha * p
        r -= alpha * hp
        if np.abs(r).max() <= 1e-2 * b_norm:
            break
        z = r / precond
        z[~mask] = 0.0
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    if float(np.vdot(x, b)) <= 0.0:
        return z
    return x


def _inner_loop(work: _InnerProblem, s: np.ndarray, t: float, cfg: SolverConfig):
    """Projected ascent with Armijo backtracking on the inner objective.

    The search direction is a Newton step on the inactive coordinates:
    exact, with the cells it would push out of their box fixed at the
    bound, for logarithmic utility (:func:`_exact_newton_direction`), and
    truncated CG for linear utility, whose Hessian is singular
    (:func:`_newton_cg_direction`).  When the Newton step fails the line
    search, the diagonally scaled gradient is tried.  Accepted steps never
    decrease the inner objective, and every iterate keeps all active
    barrier slacks strictly positive (fraction-to-boundary rule).

    Returns (s, iterations, status, objective_history).
    """
    lo, hi = work.inst.lower, work.inst.upper
    exact = work.inst.utility_kind == "logarithmic"
    history = [work.value(s, t)]
    status = "max_iters"
    iters = 0
    for iters in range(1, cfg.max_inner_iters + 1):
        g = work.gradient(s, t)
        pg = g.copy()
        pg[(s <= lo) & (g < 0)] = 0.0
        pg[(s >= hi) & (g > 0)] = 0.0
        if np.abs(pg).max() <= cfg.inner_tol:
            status = "converged"
            iters -= 1
            break

        mask = work.free & ~((s <= lo) & (g < 0)) & ~((s >= hi) & (g > 0))
        terms = work.curvature_terms(s, t)
        if exact:
            newton = _exact_newton_direction(terms, g, mask, s, lo, hi)
        else:
            newton = _newton_cg_direction(terms, g, mask)
        fallback = _scaled_gradient(g, mask, terms[-1])
        base = work.slacks(s)
        f_cur = history[-1]

        accepted = False
        for d in (newton, fallback):
            alpha = 1.0
            for _ in range(_MAX_BACKTRACKS):
                trial = np.clip(s + alpha * d, lo, hi)
                interior_ok = all(((x >= _BOUNDARY_FRACTION * x0) & (x > 0)).all()
                                  for x, x0 in zip(work.slacks(trial), base))
                if interior_ok:
                    gain = float(np.vdot(g, trial - s))
                    if gain > 0:
                        f_new = work.value(trial, t)
                        if f_new >= f_cur + _ARMIJO * gain:
                            s = trial
                            history.append(f_new)
                            accepted = True
                            break
                alpha *= _CONTRACTION
            if accepted:
                break
        if not accepted:
            status = "stalled"
            break
        # plateau exit: no measurable progress over a window of accepted steps
        if len(history) > _PLATEAU_WINDOW:
            ref = history[-_PLATEAU_WINDOW - 1]
            if history[-1] - ref <= 1e-13 * max(1.0, abs(ref)):
                status = "plateau"
                break
    return s, iters, status, history


def solve_inner(inst: ProblemInstance, start: AllocationMatrix, t: float,
                config: SolverConfig | None = None) -> AllocationMatrix:
    """Solve the inner problem at fixed t from a strictly interior start."""
    cfg = config or SolverConfig()
    work = _InnerProblem(inst)
    s, _, _, _ = _inner_loop(work, start.values.copy(), t, cfg)
    return AllocationMatrix(s)


def solve(inst: ProblemInstance, config: SolverConfig | None = None) -> SolveResult:
    """Run the outer barrier loop until (B + |K|) / t <= epsilon.

    The returned allocation is always feasible; ``converged`` is False when
    the outer iteration cap was hit before the bound dropped below epsilon.
    """
    cfg = config or SolverConfig()
    work = _InnerProblem(inst)
    s = interior_start(inst, cfg.interior_shift).values.copy()

    t = cfg.t0
    outer = 0
    inner_total = 0
    trace = []
    while gap_bound(inst, t) > cfg.epsilon and outer < cfg.max_outer_iters:
        s, iters, status, _ = _inner_loop(work, s, t, cfg)
        inner_total += iters
        trace.append(OuterTrace(
            t=t,
            objective=total_utility(inst, AllocationMatrix(s)),
            barrier=work.barrier(s),
            gap_bound=gap_bound(inst, t),
            inner_iters=iters,
            inner_status=status,
        ))
        t *= cfg.mu
        outer += 1

    alloc = AllocationMatrix(s)
    return SolveResult(
        allocation=alloc,
        objective=total_utility(inst, alloc),
        gap_bound=gap_bound(inst, t),
        outer_iters=outer,
        inner_iters_total=inner_total,
        converged=gap_bound(inst, t) <= cfg.epsilon,
        trace=tuple(trace),
    )
