import math

import numpy as np
import pytest

from ranshare.errors import EmptyInterior, InvalidParams, NotInterior
from ranshare.model import AllocationMatrix, ProblemInstance, check_feasible
from ranshare import solver
from ranshare.sim import ScenarioParams, build_instance, generate_scenario
from ranshare.solver import (SolverConfig, _FlatCells, _InnerProblem,
                             _exact_newton_direction, _grid_line_search, _inner_loop,
                             _line_search, barrier_value, gap_bound,
                             interior_gradient, interior_objective, interior_start, solve,
                             solve_inner)

from conftest import make_instance, pin_cells, random_instance
from oracles import optimum_bracket


class TestBarrier:
    def test_value_1x1(self, tiny_instance):
        # slacks: 10-4=6, 8-4=4, 4-2=2 -> ln 48
        got = barrier_value(tiny_instance, AllocationMatrix([[4.0]]))
        assert got == pytest.approx(math.log(48.0), rel=1e-14)

    def test_unit_slacks_give_zero(self):
        inst = make_instance([6.0], [[4.0]], [[6.0]], [[1.0]])
        assert barrier_value(inst, AllocationMatrix([[5.0]])) == pytest.approx(0.0, abs=1e-14)

    def test_boundary_rejected(self, tiny_instance):
        on_floor = AllocationMatrix([[2.0]])  # sits on app floor
        with pytest.raises(NotInterior):
            barrier_value(tiny_instance, on_floor)
        with pytest.raises(NotInterior):
            interior_gradient(tiny_instance, on_floor, 1.0)

    def test_fully_pinned_application_dropped(self):
        # application 0 is pinned, so its zero slacks carry no term:
        # slacks 10-7=3, 7-5=2, 5-3=2 -> ln 12
        inst = make_instance([10.0], [[2.0, 3.0]], [[2.0, 7.0]], [[1.0, 1.0]])
        got = barrier_value(inst, AllocationMatrix([[2.0, 5.0]]))
        assert got == pytest.approx(math.log(12.0), rel=1e-14)


class TestInteriorObjective:
    def test_t_zero_reduces_to_barrier(self, tiny_instance):
        a = AllocationMatrix([[4.0]])
        assert interior_objective(tiny_instance, a, 0.0) == barrier_value(tiny_instance, a)

    def test_value_with_multiplier(self, tiny_instance):
        a = AllocationMatrix([[4.0]])
        assert interior_objective(tiny_instance, a, 2.0) == pytest.approx(
            8.0 + math.log(48.0), rel=1e-14)

    def test_multiplier_irrelevant_for_zero_utility(self):
        inst = make_instance([10.0], [[2.0]], [[8.0]], [[0.0]])
        a = AllocationMatrix([[4.0]])
        assert interior_objective(inst, a, 1.0) == interior_objective(inst, a, 2.0)


class TestInteriorGradient:
    def test_hand_value_1x1(self, tiny_instance):
        g = interior_gradient(tiny_instance, AllocationMatrix([[4.0]]), 1.0)
        assert g[0, 0] == pytest.approx(13.0 / 12.0, rel=1e-14)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for pinned in [False] * 30 + [True] * 30:
            inst = random_instance(rng, num_elements=3 if pinned else None,
                                   num_apps=2 if pinned else None)
            if pinned:
                # element 0 and application 0 fully pinned, and some other cells
                pin = rng.random(inst.lower.shape) < 0.3
                pin[0, :] = pin[:, 0] = True
                inst = pin_cells(inst, pin)
            t = float(rng.uniform(0.1, 10.0))
            span = inst.upper - inst.lower
            s = inst.lower + rng.uniform(0.2, 0.8, span.shape) * span
            alloc = AllocationMatrix(s)
            g = interior_gradient(inst, alloc, t)
            # central differences cannot resolve components below the
            # rounding floor |F| * 2^-52 / h
            noise = 1e-9 * max(1.0, abs(interior_objective(inst, alloc, t)))
            fd = np.zeros_like(g)
            for idx in np.ndindex(*s.shape):
                up, dn = s.copy(), s.copy()
                up[idx] += h
                dn[idx] -= h
                fd[idx] = (interior_objective(inst, AllocationMatrix(up), t)
                           - interior_objective(inst, AllocationMatrix(dn), t)) / (2 * h)
            assert np.all(np.abs(g - fd) <= 1e-5 * np.abs(g) + noise)

    def test_symmetric_instance_symmetric_gradient(self):
        inst = make_instance([10.0, 10.0], [[1.0, 1.0], [1.0, 1.0]],
                             [[4.0, 4.0], [4.0, 4.0]], np.zeros((2, 2)))
        g = interior_gradient(inst, AllocationMatrix(np.full((2, 2), 2.0)), 1.0)
        assert np.ptp(g) == pytest.approx(0.0, abs=1e-14)


class TestInteriorStart:
    def test_formula_1x1(self, tiny_instance):
        # delta = 0.5 * min(8/1, 3, 3) = 1.5 -> start 3.5
        s0 = interior_start(tiny_instance, 0.5)
        assert s0.values[0, 0] == pytest.approx(3.5)

    def test_result_strictly_interior(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            inst = random_instance(rng)
            s0 = interior_start(inst, float(rng.uniform(0.05, 0.95))).values
            assert np.all(inst.capacities - s0.sum(axis=1) > 0)
            assert np.all(inst.app_upper - s0.sum(axis=0) > 0)
            assert np.all(s0.sum(axis=0) - inst.app_lower > 0)
            assert np.all(s0 >= inst.lower) and np.all(s0 <= inst.upper)

    def test_fully_pinned_instance_returns_lower(self):
        inst = make_instance([10.0], [[2.0, 3.0]], [[2.0, 3.0]], [[1.0, 1.0]])
        s0 = interior_start(inst, 0.5)
        assert np.array_equal(s0.values, inst.lower)

    def test_saturated_element_with_free_cells(self):
        inst = make_instance([10.0], [[4.0, 6.0]], [[5.0, 7.0]], [[1.0, 1.0]])
        with pytest.raises(EmptyInterior):
            interior_start(inst, 0.5)


class TestGapBound:
    def test_arithmetic(self, tiny_instance):
        assert gap_bound(tiny_instance, 1100.0) == pytest.approx(0.01)

    def test_scaling_in_t(self, tiny_instance):
        assert gap_bound(tiny_instance, 10.0) == pytest.approx(
            gap_bound(tiny_instance, 100.0) * 10.0)

    def test_termination_threshold_full_scale_numbers(self):
        inst = make_instance([200_000.0], [[0.0] * 1], [[100_000.0]], [[1.0]])
        # with |K| = 1 here: bound <= 1 exactly when t >= 200_001
        assert gap_bound(inst, 200_001.0) <= 1.0
        assert gap_bound(inst, 200_000.0) > 1.0


class TestSolveInner:
    def test_matches_scalar_stationarity_root(self, tiny_instance):
        # independent oracle: bisection on t*c - 1/(B-s) - 1/(M-s) + 1/(s-L) = 0
        t = 1000.0

        def slope(s):
            return t - 1.0 / (10.0 - s) - 1.0 / (8.0 - s) + 1.0 / (s - 2.0)

        lo, hi = 6.0, 8.0 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)

        out = solve_inner(tiny_instance, interior_start(tiny_instance, 0.5), t)
        assert out.values[0, 0] == pytest.approx(root, abs=1e-6)

    def test_analytic_center_at_t_zero_is_coefficient_free(self):
        inst_a = make_instance([10.0, 10.0], np.full((2, 2), 1.0), np.full((2, 2), 4.0),
                               [[5.0, 0.0], [1.0, 2.0]])
        inst_b = make_instance([10.0, 10.0], np.full((2, 2), 1.0), np.full((2, 2), 4.0),
                               np.zeros((2, 2)))
        start = interior_start(inst_a, 0.5)
        sa = solve_inner(inst_a, start, 0.0)
        sb = solve_inner(inst_b, start, 0.0)
        assert np.allclose(sa.values, sb.values, atol=1e-9)
        # symmetric instance: the center equalizes symmetric cells
        assert np.ptp(sa.values) == pytest.approx(0.0, abs=1e-7)

    def test_held_and_gathered_steps_agree(self, monkeypatch):
        # A step either runs on every support cell with the blocked ones held or gathers the
        # cells it moves; the two differ in rounding only.
        rng = np.random.default_rng(43)
        for _ in range(10):
            inst = random_instance(rng, num_elements=int(rng.integers(2, 9)),
                                   num_apps=int(rng.integers(2, 6)), kind="logarithmic",
                                   zero_coeff_prob=0.3)
            results = []
            for share in (0.0, 1.0):  # every step holds, every step gathers
                monkeypatch.setattr(solver, "_GATHER_SHARE", share)
                results.append(solve(inst, SolverConfig(epsilon=1e-4)))
            held, gathered = results
            assert held.objective == pytest.approx(gathered.objective, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(held.allocation.values, gathered.allocation.values,
                                       rtol=1e-9, atol=0)

    def test_objective_monotone_and_iterates_interior(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            inst = random_instance(rng)
            work = _InnerProblem(inst)
            s0 = interior_start(inst, 0.5).values.copy()
            t = float(rng.uniform(0.5, 200.0))
            s, _, status, history = _inner_loop(work, s0, t, SolverConfig())
            assert status in ("converged", "stalled", "plateau", "max_iters")
            diffs = np.diff(np.array(history))
            assert np.all(diffs >= 0.0)  # accepted steps never decrease the objective
            assert check_feasible(inst, AllocationMatrix(s), tol=0.0).feasible


def _masked_hessian(terms, s, mask):
    """The damped negated inner Hessian on the mask cells, as an explicit matrix.

    ``terms`` is (t c, w, v) at ``s``; the damping is 1e-12 times the largest
    diagonal entry of the masked Hessian.
    """
    tc, w_el, v_app = terms
    num_el, num_app = s.shape
    rows = np.repeat(np.eye(num_el), num_app, axis=1)  # rows[i] marks element i's cells
    cols = np.tile(np.eye(num_app), num_el)            # cols[k] marks application k's cells
    h = np.diag((tc / (s * s)).ravel())
    h += rows.T @ (w_el[:, None] * rows) + cols.T @ (v_app[:, None] * cols)
    m = mask.ravel()
    h = h[np.ix_(m, m)]
    h[np.diag_indices_from(h)] += 1e-12 * h.diagonal().max(initial=0.0)
    return h


def _random_terms(rng, num_el, num_app):
    """A Hessian diagonal over four decades, row and column weights over eight."""
    diag = 10.0 ** rng.uniform(-2, 2, (num_el, num_app))
    w_el = 10.0 ** rng.uniform(-2, 6, num_el)
    v_app = 10.0 ** rng.uniform(-2, 6, num_app)
    return diag, w_el, v_app


def _grid_step(terms, g, mask, s, lo, hi):
    """``_exact_newton_direction`` on the ``mask`` cells of (I, K) arrays, its step scattered
    onto the grid; None stays."""
    cells = _FlatCells.of(mask)
    tc, w_el, v_app = terms
    d = _exact_newton_direction((cells.take(tc), w_el, v_app), cells.take(g), cells,
                                *(cells.take(a) for a in (s, lo, hi)), cells.take(mask))
    return None if d is None else cells.grid(d)


def _terms_at(s, diag, w_el, v_app):
    """(t c, w, v) whose Hessian diagonal at ``s`` is ``diag``."""
    return diag * s * s, w_el, v_app


DIRECTION_CASES = ("free", "pinned", "pinned_row_and_column", "zero_app_weight", "empty_mask",
                   "sparse_mask", "dense_then_sparse")


def _sparse_mask(rng, free):
    """At most 5% of the grid, drawn from ``free``, none in the first element row or column.

    At full scale the cells without demand (zero coefficient) sit at their
    lower bound, outside the mask, and a few percent of the grid is free.
    """
    mask = free & (rng.random(free.shape) < 0.04)
    mask[0, :] = mask[:, 0] = False
    assert mask.any() and mask.mean() <= 0.05
    assert not _FlatCells.of(mask).dense  # the step's Gram product is the pair bincount
    return mask


@pytest.fixture
def grams(monkeypatch):
    """For every Gram product a step forms, whether it is the dense one."""
    kinds = []
    gram = _FlatCells.gram
    monkeypatch.setattr(_FlatCells, "gram",
                        lambda cells, a: kinds.append(cells.dense) or gram(cells, a))
    return kinds


class TestExactNewtonDirection:
    @pytest.mark.parametrize("case", DIRECTION_CASES)
    def test_matches_explicit_solve(self, case, grams):
        rng = np.random.default_rng(DIRECTION_CASES.index(case))
        for _ in range(10):
            if case in ("sparse_mask", "dense_then_sparse"):
                # the dense mask holds every cell, so none may lack curvature of its own
                inst = random_instance(rng, num_elements=40, num_apps=25, kind="logarithmic",
                                       zero_coeff_prob=0.2 if case == "sparse_mask" else 0.0)
            else:
                inst = random_instance(rng, num_elements=int(rng.integers(2, 6)),
                                       num_apps=int(rng.integers(2, 5)), kind="logarithmic",
                                       zero_coeff_prob=0.0)
            if case.startswith("pinned"):
                pin = rng.random(inst.lower.shape) < 0.3
                if case == "pinned_row_and_column":
                    pin[0, :] = pin[:, 0] = True
                inst = pin_cells(inst, pin)
            work = _InnerProblem(inst)
            s = interior_start(inst, 0.5).values
            t = float(rng.uniform(0.1, 100.0))
            g = work.gradient(s, t)
            w_el, _ = work.weights(work.slacks(s))
            # generated log instances have no application term in the barrier (v = 0);
            # positive column weights of their own keep the Woodbury system under test
            v_app = 10.0 ** rng.uniform(-3, 1, inst.num_apps)
            if case == "zero_app_weight":
                v_app[0] = 0.0
            terms = (t * inst.coeff, w_el, v_app)
            mask = work.free & (rng.random(s.shape) < 0.8)
            if case == "empty_mask":
                mask[:] = False
            if case == "sparse_mask":
                mask = _sparse_mask(rng, work.free & (inst.coeff > 0))
            unbounded = np.full(s.shape, np.inf)
            lo, hi = -unbounded, unbounded
            if case == "dense_then_sparse":
                # the whole grid in the mask, 90% of it in boxes too narrow for the step
                mask = work.free.copy()
                narrow = rng.random(s.shape) < 0.9
                lo = np.where(narrow, s - 1e-9, -np.inf)
                hi = np.where(narrow, s + 1e-9, np.inf)
            grams.clear()
            d = _grid_step(terms, g, mask, s, lo, hi)
            if case == "empty_mask":
                assert d is None  # no cell can move, so there is no ascent step
                continue
            # the cells fixed at a bound, whose moves go to the right-hand side
            fixed = mask & ((d == hi - s) | (d == lo - s))
            free = mask & ~fixed
            want = np.where(fixed, d, 0.0)
            if free.any():
                h = _masked_hessian(terms, s, mask)
                f_idx, b_idx = free[mask], fixed[mask]
                want[free] = np.linalg.solve(h[np.ix_(f_idx, f_idx)],
                                             g[free] - h[np.ix_(f_idx, b_idx)] @ d[fixed])
            assert np.all(np.abs(d - want) <= 1e-8 * np.abs(want).max())
            if case == "dense_then_sparse":
                # round 1 fixes most cells; every round's Gram product is the dense one, as the
                # mask's same-row pairs outnumber the grid's cells
                assert fixed.sum() >= 0.8 * mask.sum()
                assert len(grams) >= 2 and all(grams)
            else:
                assert not fixed.any()
            if case == "sparse_mask":
                assert grams and not any(grams)  # the pair bincount

    def test_stiff_row_with_one_free_cell_keeps_its_digits(self):
        # A^-1 of a row block with one free cell is e / (1 + w e); as e - rho e^2 with
        # w e = 1e8 it keeps only about 8 digits
        s = np.ones((4, 3))
        mask = np.zeros(s.shape, bool)
        mask[[0, 1, 2, 3], [0, 1, 2, 0]] = True
        terms = (s * s, np.array([1e8, 1e8, 1.0, 1.0]), np.ones(3))
        g = np.random.default_rng(5).normal(size=s.shape)
        unbounded = np.full(s.shape, np.inf)
        d = _grid_step(terms, g, mask, s, -unbounded, unbounded)
        want = np.linalg.solve(_masked_hessian(terms, s, mask), g[mask])
        np.testing.assert_allclose(d[mask], want, rtol=1e-12, atol=0)

    @staticmethod
    def _bound_hit_case(terms, g, mask, s, lo, hi):
        """Check one bound-hit step; None when there is no step, else whether a cell was fixed."""
        d = _grid_step(terms, g, mask, s, lo, hi)
        if d is None:
            return None
        assert np.all(d[~mask] == 0.0)
        assert np.vdot(g, d) > 0.0
        fixed = mask & ((d == hi - s) | (d == lo - s))
        free = mask & ~fixed
        # fixed cells land on their bound, free cells stay in their box
        bound = np.where(d > 0, hi, lo)
        np.testing.assert_array_max_ulp(np.clip(s + d, lo, hi)[fixed], bound[fixed], 1)
        assert np.all((s + d)[free] >= lo[free]) and np.all((s + d)[free] <= hi[free])
        # the free cells solve the system whose right-hand side holds the fixed moves
        h = _masked_hessian(terms, s, mask)
        f_idx, b_idx = free[mask], fixed[mask]
        lhs = h[np.ix_(f_idx, f_idx)] @ d[free]
        rhs = g[free] - h[np.ix_(f_idx, b_idx)] @ d[fixed]
        assert np.all(np.abs(lhs - rhs) <= 1e-8 * max(np.abs(lhs).max(initial=0.0),
                                                      np.abs(rhs).max(initial=1.0)))
        return bool(fixed.any())

    @staticmethod
    def _box(rng, shape):
        s = rng.uniform(1.0, 2.0, shape)
        return s, s - 10.0 ** rng.uniform(-3, 1, shape), s + 10.0 ** rng.uniform(-3, 1, shape)

    def test_bound_hit_fixes_cells_and_solves_the_rest(self):
        rng = np.random.default_rng(7)
        outcomes = []
        for _ in range(300):
            num_el, num_app = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            diag = _random_terms(rng, num_el, num_app)
            g = rng.normal(size=(num_el, num_app))
            s, lo, hi = self._box(rng, g.shape)
            mask = rng.random(g.shape) < 0.9
            outcomes.append(self._bound_hit_case(_terms_at(s, *diag), g, mask, s, lo, hi))
        # fixing moves at a bound can leave no ascent step; then there is no Newton step
        assert outcomes.count(True) >= 100 and outcomes.count(None) >= 1

        # a 40 x 25 grid with at most 5% of its cells in the mask
        rng = np.random.default_rng(8)
        outcomes = []
        for _ in range(40):
            diag = _random_terms(rng, 40, 25)
            g = rng.normal(size=(40, 25))
            s, lo, hi = self._box(rng, g.shape)
            mask = _sparse_mask(rng, np.ones(g.shape, bool))
            outcomes.append(self._bound_hit_case(_terms_at(s, *diag), g, mask, s, lo, hi))
        assert outcomes.count(True) >= 20


def _tight_instance(rng, num_elements, num_apps, zero_coeff_prob=0.2):
    """A log instance whose aggregate bounds are inside the boxes' column sums, as far as
    ProblemInstance allows: every application keeps both barrier terms, so v_k > 0."""
    inst = random_instance(rng, num_elements=num_elements, num_apps=num_apps,
                           kind="logarithmic", zero_coeff_prob=zero_coeff_prob)
    room = 0.5e-9 * max(1.0, float(inst.upper.max()) * num_elements)
    return ProblemInstance(inst.capacities, inst.lower, inst.upper,
                           inst.lower.sum(axis=0) + room, inst.upper.sum(axis=0) - room,
                           inst.coeff, "logarithmic")


class TestGramProduct:
    def test_both_products_match_explicit_solve(self, grams):
        inst = _tight_instance(np.random.default_rng(29), 20, 10)
        work = _InnerProblem(inst)
        s = interior_start(inst, 0.5).values
        t = 7.0
        slacks = work.interior_slacks(s)
        w_el, v_app = work.weights(slacks)
        assert np.all(v_app > 0)
        terms = (t * inst.coeff, w_el, v_app)
        g = work.gradient(s, t, slacks)
        unbounded = np.full(s.shape, np.inf)
        # a few cells per row (pairs), and every cell with curvature of its own, about
        # 8 of 10 per row: some 20 x 8^2 pairs, more than the 200 cells of the grid
        curved = work.free & (inst.coeff > 0)
        for mask, dense in ((_sparse_mask(np.random.default_rng(30), curved), False),
                            (curved, True)):
            assert _FlatCells.of(mask).dense == dense
            grams.clear()
            d = _grid_step(terms, g, mask, s, -unbounded, unbounded)
            want = np.linalg.solve(_masked_hessian(terms, s, mask), g[mask])
            assert np.all(np.abs(d[mask] - want) <= 1e-8 * np.abs(want).max())
            assert grams == [dense]

    def test_solve_lands_in_the_oracle_bracket(self):
        inst = _tight_instance(np.random.default_rng(29), 20, 10)
        work = _InnerProblem(inst)
        assert work.low_active.all() and work.up_active.all()
        r = solve(inst, SolverConfig(epsilon=1e-4))
        optimum = optimum_bracket(inst, rtol=1e-8)
        assert optimum.upper - 1e-4 <= r.objective <= optimum.upper
        assert r.objective + r.dual_gap >= optimum.lower - 1e-9


class TestLineSearch:
    @staticmethod
    def _halvings(s, d, lo, hi, point):
        """The k for which ``point`` is the trial clip(s + 2^-k d, lo, hi)."""
        return next(k for k in range(80)
                    if np.array_equal(np.clip(s + 0.5 ** k * d, lo, hi), point))

    def test_moved_cell_search_matches_grid_search(self):
        rng = np.random.default_rng(23)
        halvings = []
        for _ in range(20):
            inst = random_instance(rng, num_elements=40, num_apps=25, kind="logarithmic",
                                   zero_coeff_prob=0.2)
            work = _InnerProblem(inst)
            s = interior_start(inst, 0.5).values
            t = float(rng.uniform(0.1, 100.0))
            slacks = work.interior_slacks(s)
            g = work.gradient(s, t, slacks)
            f = work.value(s, t, slacks)
            cells = _FlatCells.of(_sparse_mask(rng, work.free & (inst.coeff > 0)))
            point = tuple(cells.take(a) for a in (s, inst.lower, inst.upper, inst.coeff))
            g_at = cells.take(g)
            newton = _exact_newton_direction((t * point[3], *work.weights(slacks)), g_at, cells,
                                             *point[:3], np.ones(g_at.size, bool))
            # the Newton step and the steepest ascent, both on the flat mask cells
            for step in (newton, g_at):
                d = cells.grid(step)
                moved = _line_search(work, cells, point, slacks, step, g_at, t, f)
                moved = (cells.grid(moved[0], s.copy()), *moved[1:])
                grid = _grid_line_search(work, s, slacks, d, g, t, f)
                k = self._halvings(s, d, inst.lower, inst.upper, grid[0])
                assert k == self._halvings(s, d, inst.lower, inst.upper, moved[0])
                np.testing.assert_allclose(moved[0], grid[0], rtol=1e-12, atol=0)
                for x, y in zip(moved[1], grid[1]):
                    np.testing.assert_allclose(x, y, rtol=1e-12, atol=0)
                assert moved[2] == pytest.approx(grid[2], rel=1e-12, abs=0)
                halvings.append(k)
        assert min(halvings) == 0 and max(halvings) >= 3  # full steps and backtracked ones


# Objectives the solver reaches on _log_case(0..19) at epsilon 1e-4, with the
# application bounds the cell boxes enforce left out of the barrier; each one
# is checked against the oracle's bracket.
CG_LOG_OBJECTIVES = (
    278.6840108752575, 122.16104538392055, 160.84249459889267, 69.64145351191688,
    351.3260325984225, 246.13133225205334, 146.6864548880392, 265.35652168310287,
    99.61461779369216, 185.84961092524085, 303.95229598563674, 20.5841730313118,
    119.78235321018668, 365.17181902502193, 131.37815768804165, 257.7576497714044,
    116.05171810214122, 258.0928819691629, 188.68472562238523, 140.985285124013,
)


def _log_case(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_elements=int(rng.integers(2, 9)),
                           num_apps=int(rng.integers(1, 6)), kind="logarithmic")
    if seed % 2:
        inst = pin_cells(inst, rng.random(inst.lower.shape) < 0.25)
    return inst


@pytest.mark.parametrize("seed", range(len(CG_LOG_OBJECTIVES)))
def test_log_solve_matches_cg_objective(seed):
    inst = _log_case(seed)
    r = solve(inst, SolverConfig(epsilon=1e-4))
    assert r.objective == pytest.approx(CG_LOG_OBJECTIVES[seed], rel=1e-9, abs=0.0)
    # the pin itself is within epsilon of the optimum; a bracket 1e-8 wide suffices
    optimum = optimum_bracket(inst, rtol=1e-8)
    assert optimum.upper - 1e-4 <= CG_LOG_OBJECTIVES[seed] <= optimum.upper


# Inner iterations _log_case(seed) took at epsilon 1e-4 while its log loops ended on
# plateau and stall exits, before the Newton-decrement stop.
PLATEAU_ERA_INNER_ITERS = {0: 119, 2: 114, 4: 148}


class TestInnerStop:
    @pytest.mark.parametrize("seed", sorted(PLATEAU_ERA_INNER_ITERS))
    def test_log_loops_end_on_the_newton_decrement(self, seed):
        r = solve(_log_case(seed), SolverConfig(epsilon=1e-4))
        assert [tr.inner_status for tr in r.trace] == ["converged"] * len(r.trace)
        assert r.inner_iters_total < PLATEAU_ERA_INNER_ITERS[seed]

    def test_decrement_below_the_objective_spacing_converges(self):
        # At t near 1e11 the inner objective is about 3e13, so an ascent of inner_tol
        # cannot show in it; with the stop at inner_tol alone this solve took 98 inner
        # iterations and its last loop ended plateau.
        r = solve(_log_case(0), SolverConfig(epsilon=1e-8))
        assert [tr.inner_status for tr in r.trace] == ["converged"] * len(r.trace)
        assert r.inner_iters_total < 98

    def test_linear_path_unchanged(self):
        # counts recorded before the decrement stop; the truncated-CG path has no decrement
        inst = random_instance(np.random.default_rng(0), num_elements=4, num_apps=3,
                               kind="linear")
        r = solve(inst, SolverConfig(epsilon=1e-3))
        assert r.inner_iters_total == 94
        assert [tr.inner_status for tr in r.trace] == [
            "converged", "converged", "converged", "stalled", "plateau", "plateau"]


class TestDualGap:
    def test_bounds_the_oracle_optimum(self):
        rng = np.random.default_rng(97)
        kinds = []
        for _ in range(24):
            inst = random_instance(rng)
            r = solve(inst, SolverConfig(epsilon=1e-3))
            assert r.dual_gap >= 0.0
            assert r.objective + r.dual_gap >= optimum_bracket(inst).lower - 1e-9
            kinds.append(inst.utility_kind)
        assert set(kinds) == {"linear", "logarithmic"}

    @pytest.mark.parametrize("seed", range(len(CG_LOG_OBJECTIVES)))
    def test_log_gap_within_epsilon(self, seed):
        assert solve(_log_case(seed), SolverConfig(epsilon=1e-4)).dual_gap <= 1e-4

    def test_fully_pinned_instance_has_zero_gap(self):
        inst = make_instance([10.0], [[2.0, 3.0]], [[2.0, 3.0]], [[1.0, 1.0]], "logarithmic")
        assert solve(inst, SolverConfig(epsilon=1e-2)).dual_gap == 0.0


@pytest.fixture(scope="module")
def desk_linear_5000():
    """The desk grid (100 x 20) with 5,000 flows at load 1, linear, eps 1.0:
    the scale of the desk-linear benchmark, solved once for both tests."""
    inst = build_instance(generate_scenario(ScenarioParams(num_flows=5000), 42), "linear")
    cfg = SolverConfig(epsilon=1.0)
    return inst, cfg, solve(inst, cfg), optimum_bracket(inst).upper


class TestLinearAtBenchmarkScale:
    def test_dual_certificate_bounds_highs_optimum(self, desk_linear_5000):
        inst, _, r, optimum = desk_linear_5000
        assert check_feasible(inst, r.allocation, 1e-9).feasible
        assert r.objective + r.dual_gap >= optimum

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP open item 'Linear utility returns a false certificate': every linear "
        "inner loop ends at max_iters, 334.6 below the HiGHS optimum while converged "
        "is True and gap_bound is 0.198"))
    def test_within_epsilon_of_highs_optimum(self, desk_linear_5000):
        _, cfg, r, optimum = desk_linear_5000
        assert optimum - r.objective <= cfg.epsilon


class TestPresolve:
    def test_zero_utility_cells_of_implied_columns_end_at_lower(self):
        rng = np.random.default_rng(101)
        pinned = 0
        for _ in range(20):
            inst = random_instance(rng, num_elements=int(rng.integers(2, 7)),
                                   num_apps=int(rng.integers(2, 5)), kind="logarithmic",
                                   zero_coeff_prob=0.3)
            work = _InnerProblem(inst)
            # the generated bounds are the column sums of the boxes: no application term
            assert not work.low_active.any() and not work.up_active.any()
            zero = (inst.coeff == 0) & (inst.upper > inst.lower)
            assert np.array_equal(work.pinned, zero)
            r = solve(inst, SolverConfig(epsilon=1e-3))
            assert np.array_equal(r.allocation.values[zero], inst.lower[zero])
            pinned += int(zero.sum())
        assert pinned >= 20

    def test_terms_the_boxes_do_not_imply_are_kept(self):
        rng = np.random.default_rng(103)
        kept = np.zeros(2, int)
        for _ in range(12):
            inst = random_instance(rng, num_elements=int(rng.integers(2, 6)),
                                   num_apps=int(rng.integers(2, 5)), kind="logarithmic",
                                   zero_coeff_prob=0.3)
            keep_low = rng.random(inst.num_apps) < 0.5
            keep_up = rng.random(inst.num_apps) < 0.5
            # bounds inside the boxes' column sums, as far as ProblemInstance allows
            room = 0.5e-9 * max(1.0, float(inst.upper.max()) * inst.num_elements)
            lower_sum, upper_sum = inst.lower.sum(axis=0), inst.upper.sum(axis=0)
            inst = ProblemInstance(inst.capacities, inst.lower, inst.upper,
                                   np.where(keep_low, lower_sum + room, lower_sum),
                                   np.where(keep_up, upper_sum - room, upper_sum),
                                   inst.coeff, "logarithmic")
            work = _InnerProblem(inst)
            assert np.array_equal(work.low_active, keep_low)
            assert np.array_equal(work.up_active, keep_up)
            r = solve(inst, SolverConfig(epsilon=1e-4))
            assert check_feasible(inst, r.allocation, tol=0.0).feasible
            optimum = optimum_bracket(inst)
            assert optimum.upper - r.objective <= 1e-4
            assert 0.0 <= r.dual_gap <= 1e-4
            assert r.objective + r.dual_gap >= optimum.lower - 1e-9
            kept += keep_low.sum(), keep_up.sum()
        assert kept.min() >= 5


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["epsilon", "t0", "mu", "inner_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidParams):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_inner_iters", "max_outer_iters"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_non_integer_iteration_cap_rejected(self, field, value):
        with pytest.raises(InvalidParams):
            SolverConfig(**{field: value})

    def test_numpy_integer_iteration_cap_accepted(self):
        assert SolverConfig(max_inner_iters=np.int64(7)).max_inner_iters == 7


class TestSolve:
    def test_fully_pinned_instance_returns_lower(self):
        inst = make_instance([10.0], [[2.0, 3.0]], [[2.0, 3.0]], [[1.0, 1.0]])
        r = solve(inst, SolverConfig(epsilon=1e-2))
        assert np.array_equal(r.allocation.values, inst.lower)
        assert r.inner_iters_total == 0
        assert r.trace and all(tr.barrier == 0.0 and tr.inner_status == "converged"
                               for tr in r.trace)

    @pytest.mark.parametrize("empty", ["all_pinned", "zero_coefficients"])
    def test_log_instance_without_free_cell_returns_its_start(self, empty):
        inst = random_instance(np.random.default_rng(37), num_elements=4, num_apps=3,
                               kind="logarithmic", zero_coeff_prob=0.0)
        if empty == "all_pinned":
            inst = pin_cells(inst, np.ones(inst.lower.shape, bool))
        else:
            inst = make_instance(inst.capacities, inst.lower, inst.upper,
                                 np.zeros(inst.lower.shape), "logarithmic")
        work = _InnerProblem(inst)
        assert not work.free.any()
        start = work.start(interior_start(inst, 0.5).values.copy())
        r = solve(inst, SolverConfig(epsilon=1e-2))
        assert r.inner_iters_total == 0 and r.converged
        assert [tr.inner_status for tr in r.trace] == ["converged"] * len(r.trace)
        assert np.array_equal(r.allocation.values, start)

    def test_1x1_linear_reaches_box_cap(self, tiny_instance):
        r = solve(tiny_instance, SolverConfig(epsilon=1e-3))
        assert r.converged
        assert r.objective == pytest.approx(8.0, abs=2e-3)
        assert r.objective <= 8.0 + 1e-12
        assert check_feasible(tiny_instance, r.allocation, 1e-9).feasible

    def test_zero_coefficients_any_feasible_point(self):
        inst = make_instance([10.0, 12.0], np.full((2, 2), 1.0), np.full((2, 2), 4.0),
                             np.zeros((2, 2)))
        r = solve(inst, SolverConfig(epsilon=1e-3))
        assert r.objective == 0.0
        assert check_feasible(inst, r.allocation, 1e-9).feasible

    def test_matches_oracle_on_random_2x2(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            inst = random_instance(rng, num_elements=2, num_apps=2, kind="linear")
            r = solve(inst, SolverConfig(epsilon=1e-3))
            assert optimum_bracket(inst).upper - r.objective <= 1e-3 + 1e-6

    def test_outer_iteration_count_formula(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            inst = random_instance(rng)
            cfg = SolverConfig(epsilon=float(rng.uniform(1e-4, 1.0)),
                               t0=float(rng.uniform(0.1, 10.0)),
                               mu=float(rng.uniform(2.0, 20.0)))
            r = solve(inst, cfg)
            ratio = (inst.aggregate_capacity + inst.num_apps) / (cfg.t0 * cfg.epsilon)
            expected = max(0, math.ceil(math.log(ratio) / math.log(cfg.mu)))
            assert r.outer_iters == expected
            assert len(r.trace) == expected

    def test_gap_bound_shrinks_by_mu_each_round(self, tiny_instance):
        r = solve(tiny_instance, SolverConfig(epsilon=1e-2, mu=7.0))
        bounds = [tr.gap_bound for tr in r.trace]
        for a, b in zip(bounds, bounds[1:]):
            assert a / b == pytest.approx(7.0, rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(71)
        inst = random_instance(rng, num_elements=3, num_apps=2)
        r1 = solve(inst, SolverConfig(epsilon=1e-3))
        r2 = solve(inst, SolverConfig(epsilon=1e-3))
        assert np.array_equal(r1.allocation.values, r2.allocation.values)
        assert r1.objective == r2.objective

    def test_start_shift_does_not_change_optimum(self):
        # strictly concave objective: unique optimum, both runs within 2 eps
        rng = np.random.default_rng(83)
        eps = 1e-3
        for _ in range(8):
            inst = random_instance(rng, kind="logarithmic", zero_coeff_prob=0.0)
            u1 = solve(inst, SolverConfig(epsilon=eps, interior_shift=0.2)).objective
            u2 = solve(inst, SolverConfig(epsilon=eps, interior_shift=0.8)).objective
            assert abs(u1 - u2) <= 2 * eps

    def test_trace_records_inner_iterations(self, tiny_instance):
        r = solve(tiny_instance, SolverConfig(epsilon=1e-2))
        assert r.inner_iters_total == sum(tr.inner_iters for tr in r.trace)
        assert all(tr.t > 0 for tr in r.trace)
