import math

import numpy as np
import pytest

from ranshare.errors import EmptyInterior, InvalidParams, NotInterior
from ranshare.model import AllocationMatrix, check_feasible
from ranshare.oracle import oracle_solve
from ranshare.solver import (SolverConfig, _InnerProblem, _exact_newton_direction,
                             _inner_loop, _scaled_gradient, barrier_value, gap_bound,
                             interior_gradient, interior_objective, interior_start, solve,
                             solve_inner)

from conftest import make_instance, pin_cells, random_instance


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


def _masked_hessian(terms, mask):
    """The damped negated inner Hessian on the mask cells, as an explicit matrix."""
    diag, w_el, v_app, precond = terms
    num_el, num_app = diag.shape
    rows = np.repeat(np.eye(num_el), num_app, axis=1)  # rows[i] marks element i's cells
    cols = np.tile(np.eye(num_app), num_el)            # cols[k] marks application k's cells
    h = np.diag((diag + 1e-12 * precond.max()).ravel())
    h += rows.T @ (w_el[:, None] * rows) + cols.T @ (v_app[:, None] * cols)
    m = mask.ravel()
    return h[np.ix_(m, m)]


def _random_terms(rng, num_el, num_app):
    """Curvature terms with the row and column weights over eight decades."""
    diag = 10.0 ** rng.uniform(-2, 2, (num_el, num_app))
    w_el = 10.0 ** rng.uniform(-2, 6, num_el)
    v_app = 10.0 ** rng.uniform(-2, 6, num_app)
    return diag, w_el, v_app, diag + w_el[:, None] + v_app[None, :]


DIRECTION_CASES = ("free", "pinned", "pinned_row_and_column", "zero_app_weight", "empty_mask")


class TestExactNewtonDirection:
    @pytest.mark.parametrize("case", DIRECTION_CASES)
    def test_matches_explicit_solve(self, case):
        rng = np.random.default_rng(DIRECTION_CASES.index(case))
        for _ in range(10):
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
            diag, w_el, v_app, precond = work.curvature_terms(s, t)
            if case == "zero_app_weight":
                v_app[0] = 0.0
            mask = work.free & (rng.random(s.shape) < 0.8)
            if case == "empty_mask":
                mask[:] = False
            unbounded = np.full(s.shape, np.inf)
            d = _exact_newton_direction((diag, w_el, v_app, precond), g, mask, s,
                                        -unbounded, unbounded)
            want = np.zeros_like(g)
            if mask.any():
                want[mask] = np.linalg.solve(_masked_hessian((diag, w_el, v_app, precond), mask),
                                             g[mask])
            assert np.all(np.abs(d - want) <= 1e-8 * np.abs(want).max())

    def test_bound_hit_fixes_cells_and_solves_the_rest(self):
        rng = np.random.default_rng(7)
        hit_cases = fallback_cases = 0
        for _ in range(300):
            num_el, num_app = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            terms = _random_terms(rng, num_el, num_app)
            g = rng.normal(size=(num_el, num_app))
            s = rng.uniform(1.0, 2.0, g.shape)
            lo = s - 10.0 ** rng.uniform(-3, 1, g.shape)
            hi = s + 10.0 ** rng.uniform(-3, 1, g.shape)
            mask = rng.random(g.shape) < 0.9
            d = _exact_newton_direction(terms, g, mask, s, lo, hi)
            assert np.all(d[~mask] == 0.0)
            if np.array_equal(d, _scaled_gradient(g, mask, terms[-1])):
                fallback_cases += 1
                continue
            assert np.vdot(g, d) > 0.0
            fixed = mask & ((d == hi - s) | (d == lo - s))
            free = mask & ~fixed
            # fixed cells land on their bound, free cells stay in their box
            bound = np.where(d > 0, hi, lo)
            np.testing.assert_array_max_ulp(np.clip(s + d, lo, hi)[fixed], bound[fixed], 1)
            assert np.all((s + d)[free] >= lo[free]) and np.all((s + d)[free] <= hi[free])
            # the free cells solve the system whose right-hand side holds the fixed moves
            h = _masked_hessian(terms, mask)
            f_idx, b_idx = free[mask], fixed[mask]
            lhs = h[np.ix_(f_idx, f_idx)] @ d[free]
            rhs = g[free] - h[np.ix_(f_idx, b_idx)] @ d[fixed]
            assert np.all(np.abs(lhs - rhs) <= 1e-8 * max(np.abs(lhs).max(initial=0.0),
                                                          np.abs(rhs).max(initial=1.0)))
            hit_cases += bool(fixed.any())
        # fixing moves at a bound can leave no ascent step; then the scaled gradient is used
        assert hit_cases >= 100 and fallback_cases >= 1


# Objectives the truncated-CG Newton step reached on _log_case(0..19) at
# epsilon 1e-4; the exact step must reach the same central-path points.
CG_LOG_OBJECTIVES = (
    278.68401087518686, 122.16104538391812, 160.84249439889268, 69.64145351191688,
    351.3260325983554, 246.13133215201276, 146.68645488750317, 265.3565216830325,
    99.6146177936419, 185.8496099249405, 303.95229598547877, 20.58417203131218,
    119.78235311018669, 365.1718190249412, 131.37815768804157, 257.75764957138904,
    116.05171800213867, 258.09288196916106, 188.68472552238518, 140.98528512400287,
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
    r = solve(_log_case(seed), SolverConfig(epsilon=1e-4))
    assert r.objective == pytest.approx(CG_LOG_OBJECTIVES[seed], rel=1e-9, abs=0.0)


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
            o = oracle_solve(inst, tol=1e-6)
            assert o.objective - r.objective <= 1e-3 + 1e-6

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
