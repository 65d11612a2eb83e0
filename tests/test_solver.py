import math

import numpy as np
import pytest

from ranshare.errors import EmptyInterior, InvalidParams, NotInterior
from ranshare.model import AllocationMatrix, check_feasible
from ranshare.oracle import oracle_solve
from ranshare.solver import (SolverConfig, _InnerProblem, _inner_loop, barrier_value,
                             gap_bound, interior_gradient, interior_objective,
                             interior_start, solve, solve_inner)

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


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["epsilon", "t0", "mu", "inner_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidParams):
            SolverConfig(**{field: value})


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
