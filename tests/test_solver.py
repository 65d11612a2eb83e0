import math
import tracemalloc

import numpy as np
import pytest

from ranshare.errors import EmptyInterior, InvalidParams, NotInterior
from ranshare.model import AllocationMatrix, ProblemInstance, check_feasible
from ranshare import solver
from ranshare.sim import (HotspotParams, ScenarioParams, add_hotspot, allocate_app_opt,
                          build_instance, generate_scenario, run_experiment)
from ranshare.solver import (OuterTrace, SolverConfig, _Centre, _InnerProblem, _inner_loop,
                             barrier_value, gap_bound, interior_gradient, interior_objective,
                             interior_start, solve, solve_inner)
from ranshare.utility import total_utility

from conftest import make_instance, pin_cells, random_instance
from oracles import exact_optimum, optimum_bracket


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
            if inst.utility_kind == "linear":
                s, _, status, history = _inner_loop(work, s0, t)
                assert status in ("converged", "stalled", "plateau", "max_iters")
                diffs = np.diff(np.array(history))
                assert np.all(diffs >= 0.0)  # accepted steps never decrease the objective
            else:
                s = _Centre(inst)(t)[0]
                assert work.value(s, t) >= work.value(s0, t)  # interior, and the maximizer
            assert check_feasible(inst, AllocationMatrix(s), tol=0.0).feasible

    def test_linear_inner_loop_only_reads_its_start(self):
        # solve and solve_inner hand their read-only start over uncopied: a write to it
        # would raise, and the loop ends where it ends from a writeable copy, bit for bit
        inst = random_instance(np.random.default_rng(43), num_elements=5, num_apps=4,
                               kind="linear")
        start = interior_start(inst).values
        before = start.copy()
        assert not start.flags.writeable
        for t in (1.0, 50.0):
            s, iters, status, history = _inner_loop(_InnerProblem(inst), start, t)
            again = _inner_loop(_InnerProblem(inst), start.copy(), t)
            assert iters > 0 and np.array_equal(s, again[0])
            assert (iters, status, history) == again[1:]
        assert np.array_equal(start, before)
        assert np.array_equal(solve_inner(inst, interior_start(inst), 50.0).values, s)


def _log_instance(rng, pin_share=0.3):
    """A random log instance of 1-6 x 1-6 with 30% zero coefficients; every other one has
    cells pinned at their lower bound."""
    inst = random_instance(rng, num_elements=int(rng.integers(1, 7)),
                           num_apps=int(rng.integers(1, 7)), kind="logarithmic",
                           zero_coeff_prob=0.3)
    if rng.random() < 0.5:
        inst = pin_cells(inst, rng.random(inst.lower.shape) < pin_share)
    return inst


def _rounding_scenario():
    """The 2,000-flow desk scenario with a 3,000-flow hotspot, capacities and demands scaled
    by 1024: its exact centres round past the capacity from t = 1e10 on."""
    scen = generate_scenario(ScenarioParams(num_flows=2000, capacity_range=(102400, 307200),
                                            demand_range=(102.4, 1024)), 7)
    return add_hotspot(scen, HotspotParams(n_flows=3000, n_entities=2, n_elements=30,
                                           mean_bw=5120), 8)


class TestCentre:
    def test_solve_is_within_epsilon_of_the_exact_optimum(self):
        rng = np.random.default_rng(2024)
        seen = np.zeros(2, int)  # pinned cells, free cells without utility
        for _ in range(20):
            inst = _log_instance(rng)
            r = solve(inst, SolverConfig(epsilon=1e-3))
            optimum = exact_optimum(inst).value
            assert check_feasible(inst, r.allocation, tol=0.0).feasible
            assert optimum - r.objective <= 1e-3 + 1e-6
            assert r.objective + r.dual_gap >= optimum - 1e-9
            box_free = inst.upper > inst.lower
            seen += int((~box_free).sum()), int((box_free & (inst.coeff == 0)).sum())
        assert seen.min() >= 10

    def test_is_stationary_on_its_box(self):
        # the inner gradient at the centre: zero on the cells between their bounds, <= 0 at
        # lo and >= 0 at hi, up to rounding relative to the barrier's 1/sigma
        rng = np.random.default_rng(2025)
        for _ in range(40):
            inst = _log_instance(rng)
            t = float(10.0 ** rng.uniform(-1, 5))
            s = solve_inner(inst, interior_start(inst), t)
            g = interior_gradient(inst, s, t)
            scale = 1e-8 / (inst.capacities - s.values.sum(axis=1))[:, None]
            at_lo, at_hi = s.values <= inst.lower, s.values >= inst.upper
            assert np.all(g[at_lo & ~at_hi] <= scale.repeat(inst.num_apps, 1)[at_lo & ~at_hi])
            assert np.all(g[at_hi & ~at_lo] >= -scale.repeat(inst.num_apps, 1)[at_hi & ~at_lo])
            between = ~at_lo & ~at_hi
            assert np.all(np.abs(g)[between] <= scale.repeat(inst.num_apps, 1)[between])

    def test_dual_gap_is_m_over_t(self):
        # at an exact centre the dual gap is m/t, m the element rows with a free cell
        rng = np.random.default_rng(2026)
        for _ in range(40):
            inst = _log_instance(rng, pin_share=0.6)
            r = solve(inst, SolverConfig(epsilon=1e-4))
            m = int((inst.upper > inst.lower).any(axis=1).sum())
            assert r.dual_gap == pytest.approx(m / r.trace[-1].t, rel=1e-6, abs=0.0)
            # one inner iteration per centre with a cell to place
            free = ((inst.upper > inst.lower) & (inst.coeff > 0)).any()
            assert r.inner_iters_total == (r.outer_iters if free else 0)
            assert {tr.inner_status for tr in r.trace} == {"converged"}

    def test_row_whose_lower_bounds_fill_its_capacity_raises(self):
        inst = make_instance([10.0, 10.0], [[4.0, 6.0], [1.0, 1.0]],
                             [[5.0, 7.0], [4.0, 4.0]], np.ones((2, 2)), "logarithmic")
        with pytest.raises(EmptyInterior):
            solve(inst)
        with pytest.raises(EmptyInterior):
            solve_inner(inst, None, 5.0)  # the centre ignores the start

    def test_row_without_utility_whose_lower_bounds_fill_its_capacity_raises(self):
        # row 0 has free cells, all with c = 0, so no centre row holds it; the centre checks
        # the interior as interior_start does
        inst = make_instance([2.0, 10.0], [[1, 1], [1, 1]], [[3, 3], [3, 3]],
                             [[0, 0], [1, 2]], "logarithmic")
        with pytest.raises(EmptyInterior):
            solve(inst)
        with pytest.raises(EmptyInterior):
            solve_inner(inst, None, 5.0)

    def test_solve_without_outer_iteration_returns_the_start(self):
        # the bound is met at t0: no centre is taken, and the start is the result
        inst = _log_case(3)
        cfg = SolverConfig(epsilon=1.0, t0=2.0 * gap_bound(inst, 1.0))
        r = solve(inst, cfg)
        assert r.outer_iters == 0 and r.trace == ()
        assert np.array_equal(r.allocation.values, interior_start(inst).values)
        assert r.objective == total_utility(inst, interior_start(inst))

    def test_dual_gap_at_the_centre_is_its_multipliers_times_its_slacks(self):
        # at the centre's own tau each cell with c > 0 sits at the maximizer of
        # c log x - x / tau over its box, and every other cell at lo or pinned: every dense
        # term of the dual is 0 up to the rounding of c tau against c / (1 / tau), and the gap
        # is the multipliers times the slacks, bit for bit
        inst = _sparse_log_case()
        work, centre = _InnerProblem(inst), _Centre(inst)
        for t in (1.0, 10.0, 1e3):
            s, tau = centre(t)
            bs = work.interior_slacks(s)[0]
            lam = np.zeros(inst.num_elements)
            lam[work.el_active] = 1.0 / (t * bs)
            lam[centre.rows] = 1.0 / tau
            assert work.dual_gap(s, t, (centre.rows, tau)) == float(lam[work.el_active] @ bs)
            dense = solver._log_terms(inst.coeff, lam[:, None], inst.lower, inst.upper, s)
            assert np.all(np.abs(dense) <= 1e-15 * (inst.coeff + lam[:, None] * s))

    def test_equal_ratios_give_identical_allocations(self):
        # every free cell of a row has the breakpoints lo/c = 0.5 and hi/c = 2.5: ties
        lower, upper, coeff = np.full((3, 4), 1.0), np.full((3, 4), 5.0), np.full((3, 4), 2.0)
        lower[1, :2], upper[1, :2], coeff[1, :2] = 2.0, 10.0, 4.0
        inst = make_instance([9.0, 18.0, 100.0], lower, upper, coeff, "logarithmic")
        runs = [solve(inst, SolverConfig(epsilon=1e-4)).allocation.values for _ in range(3)]
        assert all(s.tobytes() == runs[0].tobytes() for s in runs)
        s = runs[0]
        assert np.ptp(s[0]) == 0.0 and np.ptp(s[1, :2]) == 0.0 and np.ptp(s[1, 2:]) == 0.0
        assert np.array_equal(s[2], upper[2])  # a row with room for every cell's upper bound

    def test_breakpoints_past_the_largest_float(self):
        # lo/c and hi/c of the first cell overflow; it stays at lo, the second reaches hi
        inst = make_instance([10.0], [[1.0, 1.0]], [[4.0, 4.0]], [[1e-310, 1.0]], "logarithmic")
        r = solve(inst, SolverConfig(epsilon=1e-3))
        assert check_feasible(inst, r.allocation, tol=0.0).feasible
        assert r.objective == pytest.approx(math.log(4.0), abs=1e-3)
        assert r.converged

    def test_centre_rounding_past_capacity_ends_at_the_last_centre(self):
        # at t = 1e10 the centre places 8 rows whose sums round above their capacity, its
        # sigma within a few ulp of B_i: the solve ends at the centre before, unconverged
        scen = _rounding_scenario()
        cfg = SolverConfig(epsilon=1e-3)
        _, r = allocate_app_opt(scen, "logarithmic", cfg)
        inst = build_instance(scen, "logarithmic")
        assert check_feasible(inst, r.allocation, tol=0.0).feasible
        assert not r.converged and r.outer_iters < cfg.max_outer_iters
        t = r.trace[-1].t
        assert r.gap_bound == gap_bound(inst, t * cfg.mu) > cfg.epsilon
        # the returned point is the centre at the trace's last t, and every figure is its own
        centre = _Centre(inst)
        s, tau = centre(t)
        assert np.array_equal(r.allocation.values, s)
        assert r.objective == r.trace[-1].objective == total_utility(inst, r.allocation)
        assert r.trace[-1].barrier == barrier_value(inst, r.allocation)
        assert r.dual_gap == _InnerProblem(inst).dual_gap(s, t, (centre.rows, tau))
        report = run_experiment(scen, ["app-opt"], [1], "logarithmic", cfg)
        assert [row.error for row in report.rows] == [None]

    def test_first_centre_past_capacity_returns_the_start(self):
        # the same scenario from t0 = 1e10: no centre is interior, so the solve returns the
        # start, as one without an outer iteration does
        inst = build_instance(_rounding_scenario(), "logarithmic")
        cfg = SolverConfig(epsilon=1e-3, t0=1e10)
        r = solve(inst, cfg)
        start = interior_start(inst)
        assert r.outer_iters == 0 and r.trace == () and not r.converged
        assert np.array_equal(r.allocation.values, start.values)
        assert r.objective == total_utility(inst, start)
        assert r.gap_bound == gap_bound(inst, cfg.t0)
        assert r.dual_gap == _InnerProblem(inst).dual_gap(start.values, cfg.t0)

    def test_hotspot_sweep_over_scales_stays_feasible(self):
        # capacities, demands and the hotspot's bandwidth scaled by 2^0 .. 2^30: from 2^12 on
        # a centre's rows round past their capacity before the bound meets epsilon
        ended_early = 0
        for k in range(31):
            f = 2.0 ** k
            scen = generate_scenario(ScenarioParams(
                num_elements=20, num_entities=4, num_apps=5, num_flows=200,
                capacity_range=(100 * f, 300 * f), demand_range=(0.1 * f, 1.0 * f)), 3)
            scen = add_hotspot(scen, HotspotParams(n_flows=300, n_entities=2, n_elements=10,
                                                   mean_bw=5 * f), 4)
            inst = build_instance(scen, "logarithmic")
            r = solve(inst, SolverConfig(epsilon=1e-3))
            assert check_feasible(inst, r.allocation, tol=0.0).feasible, k
            ended_early += r.gap_bound > 1e-3
        assert ended_early >= 10


@pytest.fixture(scope="module")
def full_scale_log():
    """The full-scale log instance: 1000 x 100, seed 42."""
    return build_instance(generate_scenario(ScenarioParams.full_scale(), 42), "logarithmic")


def centre_buffer_bytes(inst):
    """The bytes a log solve's exact centre holds at its peak, sized from the instance.

    The point grid, which becomes the allocation; the breakpoint block's ``tau``,
    ``slope`` and ``moved``, and a call's ``level`` with its comparison mask; eleven
    vectors over the free cells with c > 0 (the seven :class:`_Centre` keeps, two that a
    call's placement and its gather or the utility's gather and its logarithms add, and
    two to spare) and ten over the rows that hold such a cell (the two it keeps, a
    call's temporaries and the barrier's slacks).  No log grid.
    """
    free = (inst.upper > inst.lower) & (inst.coeff > 0)
    per_row = free.sum(axis=1)
    rows = np.count_nonzero(per_row)
    block = rows * (2 * int(per_row.max()) + 1) * 8
    return inst.lower.nbytes + 4.125 * block + 11 * 8 * int(per_row.sum()) + 10 * 8 * rows


@pytest.mark.parametrize("seed", [7, 42])
def test_full_scale_log_solve_holds_its_centre_buffers_alone(seed):
    # the traced peak of a full-scale log solve above what was live at the call; seed 7
    # peaks at 2.93 grids, seed 42 at 2.61, each below its own centre's buffers
    inst = build_instance(generate_scenario(ScenarioParams.full_scale(), seed), "logarithmic")
    cfg = SolverConfig(epsilon=1e-2)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        r = solve(inst, cfg)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert r.converged
    assert r.objective == total_utility(inst, r.allocation)
    limit = centre_buffer_bytes(inst)
    assert peak <= limit, f"{peak / inst.lower.nbytes:.3f} grids, limit " \
                          f"{limit / inst.lower.nbytes:.3f}"


def test_centre_utility_is_the_total_utility_at_every_outer_t(full_scale_log, monkeypatch):
    # the utility each outer iterate records, against total_utility of the point afresh
    inst, seen, utility = full_scale_log, [], _Centre.utility

    def checked(centre):
        got = utility(centre)
        seen.append((got, total_utility(inst, AllocationMatrix(centre.point))))
        return got

    monkeypatch.setattr(_Centre, "utility", checked)
    r = solve(inst, SolverConfig(epsilon=1e-2))
    assert len(seen) == r.outer_iters == 8
    assert all(got == fresh for got, fresh in seen)
    assert [tr.objective for tr in r.trace] == [got for got, _ in seen]


def test_full_scale_log_solve_is_certified_by_the_exact_optimum(full_scale_log):
    # the true gap, read from the optimum solved row by row: within epsilon, and bounded by
    # the dual gap the centre's cells certify
    inst = full_scale_log
    cfg = SolverConfig(epsilon=1e-2)
    r = solve(inst, cfg)
    optimum = exact_optimum(inst).value
    assert r.converged and check_feasible(inst, r.allocation, tol=0.0).feasible
    assert 0.0 < optimum - r.objective <= cfg.epsilon
    assert r.dual_gap >= optimum - r.objective


def _textbook_cg_direction(terms, g, mask, exits):
    """The truncated-CG direction with one new array per expression, the form the
    buffered :func:`_newton_cg_direction` must match bit for bit; appends how it ended to
    ``exits``."""
    w_el, v_app, precond = terms
    damping = 1e-12 * float(precond.max())

    def matvec(v):
        out = damping * v
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
        exits.append("zero")
        return z
    for _ in range(solver._MAX_CG):
        hp = matvec(p)
        php = float(np.vdot(p, hp))
        if php <= 0.0:
            exits.append("curvature" if x.any() else "first_curvature")
            return p if not x.any() else x
        alpha = rz / php
        x += alpha * p
        r -= alpha * hp
        if np.abs(r).max() <= 1e-2 * b_norm:
            end = "residual"
            break
        z = r / precond
        z[~mask] = 0.0
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    else:
        end = "max_cg"
    if float(np.vdot(x, b)) <= 0.0:
        exits.append("not_ascent")
        return z
    exits.append(end)
    return x


def _textbook_grid_search(work, s, slacks, d, g, t, f_cur, trials):
    """The grid line search building and testing every trial in full, the form
    :func:`_grid_line_search` must match bit for bit; appends each trial's outcome to
    ``trials``: ("row", i) for the first element row that fails, "column", "gain",
    "armijo" or "accepted"."""
    lo, hi = work.inst.lower, work.inst.upper
    alpha = 1.0
    for _ in range(solver._MAX_BACKTRACKS):
        trial = np.clip(s + alpha * d, lo, hi)
        trial_slacks = work.slacks(trial)
        passed = [(x >= solver._BOUNDARY_FRACTION * x0) & (x > 0)
                  for x, x0 in zip(trial_slacks, slacks)]
        if not passed[0].all():
            trials.append(("row", int(np.flatnonzero(work.el_active)[np.argmin(passed[0])])))
        elif not all(ok.all() for ok in passed):
            trials.append("column")
        else:
            gain = float(np.vdot(g, trial - s))
            if gain > 0:
                f_new = work.value(trial, t, trial_slacks)
                if f_new >= f_cur + solver._ARMIJO * gain:
                    trials.append("accepted")
                    return trial, trial_slacks, f_new
                trials.append("armijo")
            else:
                trials.append("gain")
        alpha *= 0.5
    return None


def _same_bits(got, want):
    """Whether two float arrays hold the same bits, signed zeros and NaN payloads included."""
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _replayed_exits(directions):
    """Replays recorded (arguments, direction) pairs of the CG step against the textbook
    form, asserting the same bits; returns how each ended."""
    exits = []
    for (terms, g, mask), got in directions:
        assert _same_bits(got, _textbook_cg_direction(terms, g, mask, exits))
    return exits


def _assert_same_search(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want[0])
        assert len(got[1]) == 3 and all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
        assert got[2] == want[2]


def _witness_stack_steps(work, s, slacks, d, trials):
    """The look-ahead of :func:`_grid_line_search` read off the full-trial search's
    ``trials``: after a trial whose element row i fails first, the search builds next the
    first later trial whose row i passes.  Returns, per look-ahead, that trial's step in the
    stack of the remaining steps (0 for the next one), or None when row i fails at all of
    them, which ends the search."""
    lo, hi = work.inst.lower, work.inst.upper
    rows = np.flatnonzero(work.el_active)

    def row_passes(k, row):
        x = work.slacks(np.clip(s + np.ldexp(1.0, -k) * d, lo, hi))[0][row]
        return x >= solver._BOUNDARY_FRACTION * slacks[0][row] and x > 0

    stack_steps, k = [], 0
    while k < len(trials):
        outcome, k = trials[k], k + 1
        if isinstance(outcome, tuple):
            row = int(np.searchsorted(rows, outcome[1]))
            ahead = next((j for j in range(k, solver._MAX_BACKTRACKS) if row_passes(j, row)),
                         None)
            stack_steps.append(None if ahead is None else ahead - k)
            if ahead is None:
                break
            k = ahead
    return stack_steps


def _wide_linear_instance(rng, num_elements, num_apps, capacity_room):
    """A linear instance with cell boxes in [0, 10) and element capacities
    ``capacity_room`` times the row sums of the upper bounds."""
    lower = rng.uniform(0.0, 1.0, (num_elements, num_apps))
    upper = lower + rng.uniform(0.5, 9.0, lower.shape)
    return ProblemInstance(capacity_room * upper.sum(axis=1), lower, upper,
                           rng.uniform(0.0, 5.0, lower.shape), "linear")


@pytest.mark.filterwarnings("error")
class TestLinearInnerIteration:
    """The buffered truncated-CG direction and the grid search with its witness row match
    their textbook forms bit for bit."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Every direction and search a solve makes, each checked against its textbook form;
        returns the CG exits and the search trials seen."""
        exits, trials = [], []
        direction, search = solver._newton_cg_direction, solver._grid_line_search

        def checked_direction(terms, g, mask):
            got = direction(terms, g, mask)
            assert _same_bits(got, _textbook_cg_direction(terms, g, mask, exits))
            # a direction is kept through the line search: it holds one grid, no more
            assert (got if got.base is None else got.base).nbytes == got.nbytes
            return got

        def checked_search(work, s, slacks, d, g, t, f_cur):
            got = search(work, s, slacks, d, g, t, f_cur)
            _assert_same_search(got, _textbook_grid_search(work, s, slacks, d, g, t, f_cur,
                                                            trials))
            return got

        monkeypatch.setattr(solver, "_newton_cg_direction", checked_direction)
        monkeypatch.setattr(solver, "_grid_line_search", checked_search)
        return exits, trials

    def test_solves_match_textbook_forms(self, checked, monkeypatch):
        exits, trials = checked
        rng = np.random.default_rng(151)
        instances = [random_instance(rng, num_elements=int(rng.integers(1, 12)),
                                     num_apps=int(rng.integers(1, 8)), kind="linear")
                     for _ in range(12)]
        instances += [_wide_linear_instance(rng, 12, 6, 0.6) for _ in range(3)]
        monkeypatch.setattr(solver, "_MAX_INNER_ITERS", 60)
        for inst in instances:
            solve(inst, SolverConfig(epsilon=1e-3))
        # the desk grid at the benchmark's density, a few iterations per outer step
        desk = build_instance(generate_scenario(ScenarioParams(num_flows=2000), 5), "linear")
        monkeypatch.setattr(solver, "_MAX_INNER_ITERS", 12)
        solve(desk, SolverConfig(epsilon=1.0))
        assert {"residual", "max_cg"} <= set(exits)
        assert {"accepted", "armijo", "gain", "column"} <= set(trials)
        # the trials right after a row failed: that row again, another row, a column, a pass
        after = [(a, b) for a, b in zip(trials, trials[1:]) if isinstance(a, tuple)]
        assert len(after) > 100 and {"column", "accepted"} <= {b for _, b in after}
        assert any(a == b for a, b in after)
        assert any(isinstance(b, tuple) and a != b for a, b in after)

    @pytest.fixture(scope="class")
    def desk_solve_calls(self):
        """The directions and searches of a solve at the desk-linear benchmark's size (5,000
        flows, seed 1, eps 1.0, 40 inner iterations per outer one), each with its arguments
        and result."""
        directions, searches = [], []
        direction, search = solver._newton_cg_direction, solver._grid_line_search

        def recorded_direction(*args):
            directions.append((args, direction(*args)))
            return directions[-1][1]

        def recorded_search(*args):
            searches.append((args, search(*args)))
            return searches[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_newton_cg_direction", recorded_direction)
            patch.setattr(solver, "_grid_line_search", recorded_search)
            patch.setattr(solver, "_MAX_INNER_ITERS", 40)
            desk = build_instance(generate_scenario(ScenarioParams(num_flows=5000), 1), "linear")
            solve(desk, SolverConfig(epsilon=1.0))
        return directions, searches

    def test_directions_match_the_textbook_form_at_benchmark_scale(self, desk_solve_calls):
        # Every CG direction of the solve, replayed against the textbook form: the same bits,
        # signed zeros included.  Each runs all _MAX_CG steps, as at the benchmark, on a
        # mask of 36% to all of the 2,000 cells.
        directions, _ = desk_solve_calls
        assert set(_replayed_exits(directions)) == {"max_cg"} and len(directions) == 200
        assert max(mask.mean() for (_, _, mask), _ in directions) == 1.0

    def test_directions_match_the_textbook_form_on_sparse_masks(self, monkeypatch):
        # The second inner loop of the same solve at full length (t = 10, from the first
        # loop's end), where most cells are blocked: the median mask holds 7% of the grid,
        # as in the benchmark's solves.
        desk = build_instance(generate_scenario(ScenarioParams(num_flows=5000), 1), "linear")
        start = solve_inner(desk, interior_start(desk), 1.0)
        directions, direction = [], solver._newton_cg_direction

        def recorded(*args):
            directions.append((args, direction(*args)))
            return directions[-1][1]

        monkeypatch.setattr(solver, "_newton_cg_direction", recorded)
        solve_inner(desk, start, 10.0)
        assert set(_replayed_exits(directions)) == {"max_cg"} and len(directions) == 500
        assert np.median([mask.mean() for (_, _, mask), _ in directions]) < 0.08

    def test_lookahead_matches_the_full_trial_search(self, desk_solve_calls):
        # The searches of the solve, each replayed against the search that builds the full
        # trial at every step: the same accepted trial, bit for bit.  Their witnesses pass at
        # the first step of the look-ahead's stack and at step 8 or later; the hand cases
        # below add one passing at step 20 and one that never passes.
        _, searches = desk_solve_calls
        stack_steps = []
        for (work, s, slacks, d, g, t, f_cur), got in searches:
            trials = []
            _assert_same_search(got, _textbook_grid_search(work, s, slacks, d, g, t, f_cur,
                                                           trials))
            stack_steps += _witness_stack_steps(work, s, slacks, d, trials)
        assert len(searches) == 200
        assert 0 in stack_steps and any(j is not None and j >= 8 for j in stack_steps)

    def test_column_fails_first_and_the_witness_clears(self, checked):
        _, trials = checked
        rng = np.random.default_rng(157)
        for _ in range(10):
            inst = _wide_linear_instance(rng, 8, 5, 2.0)  # rows never bind
            work = _InnerProblem(inst)
            s = interior_start(inst, 0.5).values
            slacks = work.interior_slacks(s)
            g = work.gradient(s, 3.0, slacks)
            d = np.zeros(s.shape)
            d[:, rng.integers(5)] = 100.0  # one column to its upper bounds
            solver._grid_line_search(work, s, slacks, d, g, 3.0, work.value(s, 3.0, slacks))
        assert "column" in trials and not any(isinstance(x, tuple) for x in trials)

    def test_witness_row_is_clipped_to_its_box(self, checked):
        # Element 0 fails the full step; at half of it its first cell is still clipped to its
        # upper bound and the row passes, though its unclipped sum would not.
        _, trials = checked
        inst = make_instance([6.0, 100.0], np.zeros((2, 2)), [[1.0, 10.0], [1.0, 10.0]],
                             np.ones((2, 2)))
        work = _InnerProblem(inst)
        s = np.array([[0.5, 1.0], [0.5, 1.0]])
        slacks = work.interior_slacks(s)
        d = np.array([[1e6, 6.0], [0.0, 0.0]])
        step = solver._grid_line_search(work, s, slacks, d, work.gradient(s, 10.0, slacks),
                                        10.0, work.value(s, 10.0, slacks))
        assert trials == [("row", 0), "accepted"]
        assert _witness_stack_steps(work, s, slacks, d, trials) == [0]
        assert np.array_equal(step[0], [[1.0, 4.0], [0.5, 1.0]])

    def test_witness_passes_late_and_another_row_fails(self, checked):
        # Element 0 fails every step down to 2^-20 and passes at 2^-21; element 1 fails the
        # trial built there and passes at 2^-22, where the step is accepted.
        _, trials = checked
        inst = make_instance([10.0, 10.0, 100.0], np.zeros((3, 2)),
                             [[40.0, 20.0], [40.0, 20.0], [20.0, 20.0]], np.ones((3, 2)))
        work = _InnerProblem(inst)
        s = np.ones((3, 2))
        slacks = work.interior_slacks(s)
        d = np.array([[2.0 ** 23, 0.0], [2.0 ** 24, 0.0], [0.0, 0.0]])
        step = solver._grid_line_search(work, s, slacks, d, work.gradient(s, 10.0, slacks),
                                        10.0, work.value(s, 10.0, slacks))
        assert trials == [("row", 0)] * 21 + [("row", 1), "accepted"]
        assert _witness_stack_steps(work, s, slacks, d, trials) == [20, 0]
        assert np.array_equal(step[0], [[3.0, 1.0], [5.0, 1.0], [1.0, 1.0]])

    def test_exhausted_search_returns_none(self, checked):
        _, trials = checked
        rng = np.random.default_rng(163)
        inst = _wide_linear_instance(rng, 6, 4, 0.3)
        work = _InnerProblem(inst)
        s = interior_start(inst, 0.5).values
        slacks = work.interior_slacks(s)
        g = work.gradient(s, 2.0, slacks)
        f = work.value(s, 2.0, slacks)
        d = np.zeros(s.shape)
        d[2] = 1e30  # element row 2 fails at every halving
        assert solver._grid_line_search(work, s, slacks, d, g, 2.0, f) is None
        assert trials == [("row", 2)] * solver._MAX_BACKTRACKS
        assert _witness_stack_steps(work, s, slacks, d, trials) == [None]
        trials.clear()
        # every trial stays inside and moves against the gradient
        assert solver._grid_line_search(work, s, slacks, -1e-3 * g, g, 2.0, f) is None
        assert trials == ["gain"] * solver._MAX_BACKTRACKS

    def test_all_blocked_mask_gives_the_zero_direction(self, checked):
        exits, _ = checked
        inst = random_instance(np.random.default_rng(167), num_elements=5, num_apps=4,
                               kind="linear")
        work = _InnerProblem(inst)
        s = interior_start(inst, 0.5).values
        slacks = work.interior_slacks(s)
        d = solver._newton_cg_direction(work.curvature_terms(slacks),
                                        work.gradient(s, 1.0, slacks),
                                        np.zeros(s.shape, bool))
        assert exits == ["zero"] and not d.any() and not np.signbit(d).any()

    def test_one_column_grid_sums_its_column_on_the_grid(self, checked):
        # numpy sums a one-column grid's column pairwise, as a row, not row by row as
        # np.bincount does: the step must sum it on the grid to keep the textbook's bits
        exits, _ = checked
        rng = np.random.default_rng(181)
        for rows in (9, 40, 200):
            precond = rng.uniform(1.0, 3.0, (rows, 1))
            solver._newton_cg_direction((rng.uniform(1.0, 2.0, rows), np.array([1.5]), precond),
                                        rng.normal(size=(rows, 1)), rng.random((rows, 1)) < 0.9)
        assert len(exits) == 3

    def test_negative_curvature_exits(self, checked):
        # weights of either sign: p^T H p <= 0 on the first product, or after some steps
        exits, _ = checked
        rng = np.random.default_rng(173)
        for _ in range(200):
            shape = (int(rng.integers(2, 8)), int(rng.integers(2, 6)))
            w_el = rng.normal(size=shape[0]) * 10.0 ** rng.uniform(-2, 2, shape[0])
            v_app = rng.normal(size=shape[1]) * 10.0 ** rng.uniform(-2, 2, shape[1])
            precond = 10.0 ** rng.uniform(-2, 2, shape)
            mask = rng.random(shape) < 0.8
            solver._newton_cg_direction((w_el, v_app, precond), rng.normal(size=shape), mask)
        assert {"first_curvature", "curvature"} <= set(exits)

    def test_direction_without_ascent_exits_with_the_preconditioned_residual(self, checked):
        # p^T H p overflows to inf, so every step is 0: x stays 0, x^T b = 0 after _MAX_CG
        # steps, and the direction is the preconditioned residual.
        exits, _ = checked
        terms = (np.array([10.0]), np.array([10.0, 10.0]), np.array([[1e-154, 1.0]]))
        d = solver._newton_cg_direction(terms, np.ones((1, 2)), np.array([[True, False]]))
        assert exits == ["not_ascent"] and np.array_equal(d, [[1e154, 0.0]])

    def test_product_not_finite_off_the_mask(self, checked):
        # An infinite weight on a row without a free coordinate makes H p NaN there, off the
        # mask: it must be zeroed as the textbook product zeroes it.
        exits, _ = checked
        rng = np.random.default_rng(179)
        w_el, v_app = rng.uniform(1.0, 2.0, 4), rng.uniform(1.0, 2.0, 3)
        w_el[1] = np.inf
        mask = rng.random((4, 3)) < 0.8
        mask[1] = False
        with np.errstate(invalid="ignore"):
            d = solver._newton_cg_direction((w_el, v_app, rng.uniform(1.0, 3.0, (4, 3))),
                                            rng.normal(size=(4, 3)), mask)
        assert exits == ["residual"] and np.isfinite(d).all()


def test_linear_inner_loop_stalls_after_one_failed_search(monkeypatch):
    # the truncated-CG step is the only direction: when its search fails, the loop ends
    searches = []  # every search records its arguments and fails (append returns None)
    monkeypatch.setattr(solver, "_grid_line_search", lambda *args: searches.append(args))
    inst = random_instance(np.random.default_rng(0), num_elements=4, num_apps=3, kind="linear")
    s0 = interior_start(inst).values
    s, iters, status, history = _inner_loop(_InnerProblem(inst), s0.copy(), 1.0)
    assert (len(searches), iters, status) == (1, 1, "stalled")
    assert np.array_equal(s, s0) and len(history) == 1


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 20, 25, 100, 127, 128,
                                   129, 255, 256, 257, 1000])
def test_row_slice_sum_is_the_row_of_the_grid_sum(width):
    # The witness row of the grid search is summed alone: its 1-D sum must be its entry of
    # the grid's row sums.  A strided 1-D column is no such twin: it is summed pairwise,
    # while the grid's column sums add row by row (the next test's np.bincount repeats
    # those).
    rng = np.random.default_rng(width)
    grid = rng.uniform(0.0, 1.0, (300, width)) * 10.0 ** rng.uniform(-8, 8, (300, width))
    rows = grid.sum(axis=1)
    assert np.array_equal(np.array([np.add.reduce(row) for row in grid]), rows)
    # After a failed trial the search sums its witness row at every remaining step at once:
    # C-contiguous (steps, width) stacks of every height it can have, each of whose rows
    # sums as the 1-D row does.
    for steps in range(1, solver._MAX_BACKTRACKS):
        stack = np.multiply.outer(np.ldexp(1.0, -np.arange(steps)), grid[0]) + grid[1]
        assert stack.flags.c_contiguous
        assert np.array_equal(np.add.reduce(stack, axis=1),
                              np.array([np.add.reduce(row) for row in stack]))
    if width > 1:
        assert np.array_equal(grid.sum(axis=0), np.cumsum(grid, axis=0)[-1])
        assert not np.array_equal(np.array([np.add.reduce(col) for col in grid.T]),
                                  grid.sum(axis=0))


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 20, 25, 100, 127, 128,
                                   129, 255, 256, 257, 1000])
def test_bincount_over_the_cells_is_the_grid_column_sum(width):
    # The CG step sums p's columns over its unmasked cells: np.bincount adds each column's
    # cells from +0.0 in row-major order, as the grid's axis-0 sum adds row by row from
    # +0.0 (so a column of -0.0 sums to +0.0 both ways), and the +0.0 off the mask changes
    # no sum.  On one column numpy sums the grid pairwise, as a row, and the step sums
    # that column on the grid.
    rng = np.random.default_rng(width)
    pairwise_differs = False
    for rows in range(1, 101):
        grid = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-8, 8, (rows, width))
        grid[rng.random(grid.shape) < rng.uniform(0.0, 1.0)] = 0.0
        grid[rng.random(rows) < 0.2] = 0.0  # all-zero rows
        mask = (grid != 0.0) | (rng.random(grid.shape) < 0.1)  # and zeros on the mask
        if rows % 3 == 0:  # a column of -0.0, all on the mask
            grid[:, rows % width] = -0.0
            mask[:, rows % width] = True
        want = np.add.reduce(grid, axis=0)
        for cells in (np.flatnonzero(grid), np.flatnonzero(mask)):
            got = np.bincount(cells % width, grid.take(cells), width)
            if width > 1:
                assert _same_bits(got, want)
            else:
                assert _same_bits(want, np.add.reduce(grid.ravel(), keepdims=True))
                pairwise_differs |= not _same_bits(got, want)
    assert pairwise_differs == (width == 1)


def _fresh_evaluation_solve(inst, cfg):
    """:func:`solve` with every outer iterate evaluated afresh: its trace entry from
    ``total_utility`` and ``barrier_value``, and the next linear inner loop's start from the
    point alone; a log iterate is a new centre's, whose tau gives the dual multipliers.
    Returns (allocation, trace, objective, dual_gap)."""
    work = _InnerProblem(inst)
    s = interior_start(inst).values.copy()
    t, trace, exact = cfg.t0, [], None
    while gap_bound(inst, t) > cfg.epsilon and len(trace) < cfg.max_outer_iters:
        if inst.utility_kind == "linear":
            s, iters, status, _ = _inner_loop(work, s, t)
        else:
            centre = _Centre(inst)
            (s, tau), iters, status = centre(t), centre.iters, "converged"
            exact = centre.rows, tau
        alloc = AllocationMatrix(s)
        trace.append(OuterTrace(t, total_utility(inst, alloc), barrier_value(inst, alloc),
                                gap_bound(inst, t), iters, status))
        t *= cfg.mu
    return (s, trace, total_utility(inst, AllocationMatrix(s)),
            work.dual_gap(s, trace[-1].t, exact))


def _sparse_log_case():
    """A log instance where few cells carry utility: 80% zero coefficients, a quarter of the
    cells pinned at their lower bound, and row 2 pinned whole."""
    rng = np.random.default_rng(7)
    inst = random_instance(rng, num_elements=8, num_apps=6, kind="logarithmic",
                           zero_coeff_prob=0.8)
    pin = rng.random(inst.lower.shape) < 0.25
    pin[2] = True
    return pin_cells(inst, pin)


@pytest.mark.parametrize("kind", ["linear", "logarithmic", "sparse-log"])
def test_outer_evaluation_is_the_fresh_one(kind):
    if kind == "linear":
        inst = random_instance(np.random.default_rng(0), num_elements=4, num_apps=3,
                               kind="linear")
    elif kind == "logarithmic":
        inst = _log_case(1)
    else:
        inst = _sparse_log_case()
        pinned, utility = inst.upper == inst.lower, inst.coeff > 0
        assert (~pinned & utility).mean() < 0.25
        assert (pinned & utility).any() and pinned.all(axis=1).any()
    cfg = SolverConfig(epsilon=1e-4)
    r = solve(inst, cfg)
    s, trace, objective, dual_gap = _fresh_evaluation_solve(inst, cfg)
    assert np.array_equal(r.allocation.values, s)
    assert list(r.trace) == trace  # every field, ==
    assert r.objective == objective and r.dual_gap == dual_gap


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
    # the pin itself is within epsilon of the optimum
    optimum = exact_optimum(inst).value
    assert optimum - 1e-4 <= CG_LOG_OBJECTIVES[seed] <= optimum + 1e-9


class TestInnerStop:
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

    def test_log_multipliers_come_from_the_centre(self):
        # at t = 1e11 the fresh row slacks round far above sigma; 1/tau keeps the gap at m/t
        inst = _log_case(17)
        r = solve(inst, SolverConfig(epsilon=1e-8))
        m = int((inst.upper > inst.lower).any(axis=1).sum())
        assert r.dual_gap == pytest.approx(m / r.trace[-1].t, rel=1e-3)
        assert r.converged

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

    def test_reads_unconverged(self, desk_linear_5000):
        _, cfg, r, _ = desk_linear_5000
        assert r.gap_bound <= cfg.epsilon < r.dual_gap
        assert not r.converged

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP open item 'Linear utility returns a false certificate': every linear "
        "inner loop ends at max_iters, 334.6 below the HiGHS optimum; gap_bound reads "
        "0.198 and dual_gap 2038, so converged is False"))
    def test_within_epsilon_of_highs_optimum(self, desk_linear_5000):
        _, cfg, r, optimum = desk_linear_5000
        assert optimum - r.objective <= cfg.epsilon


def _small_capacity_instance(rng, num_elements, num_apps, kind):
    """Capacities U[0.01, 0.02]: B + |K| is far below m, the number of barrier terms."""
    caps = rng.uniform(0.01, 0.02, num_elements)
    mins = rng.uniform(0.01, 0.5 / num_apps, num_apps)
    maxs = np.minimum(mins + rng.uniform(0.05, 0.5, num_apps), 1.0)
    return make_instance(caps, caps[:, None] * mins, caps[:, None] * maxs,
                         rng.uniform(0.5, 5.0, (num_elements, num_apps)), kind)


@pytest.mark.parametrize("kind", ["linear", "logarithmic"])
@pytest.mark.parametrize("shape", [(200, 3), (400, 2)])
def test_bound_below_epsilon_without_certificate_is_unconverged(shape, kind):
    # (B + |K|)/t stops the loop, but m/t of the last centre is 2 or 4
    inst = _small_capacity_instance(np.random.default_rng(5), *shape, kind)
    r = solve(inst, SolverConfig(epsilon=1e-2))
    assert check_feasible(inst, r.allocation, tol=0.0).feasible
    assert r.gap_bound <= 1e-2
    assert r.dual_gap > 1.0
    assert not r.converged
    if kind == "linear":
        optimum = optimum_bracket(inst).upper
        assert optimum - r.objective > 1e-2  # the bound's claim is false
        assert r.objective + r.dual_gap >= optimum - 1e-9


class TestPresolve:
    def test_zero_utility_cells_of_implied_columns_end_at_lower(self):
        rng = np.random.default_rng(101)
        pinned = 0
        for _ in range(20):
            inst = random_instance(rng, num_elements=int(rng.integers(2, 7)),
                                   num_apps=int(rng.integers(2, 5)), kind="logarithmic",
                                   zero_coeff_prob=0.3)
            zero = (inst.coeff == 0) & (inst.upper > inst.lower)
            r = solve(inst, SolverConfig(epsilon=1e-3))
            assert np.array_equal(r.allocation.values[zero], inst.lower[zero])
            pinned += int(zero.sum())
        assert pinned >= 20

    def test_instance_stores_exact_column_sums(self):
        # The aggregate bounds are the boxes' column sums, which the boxes enforce: a log
        # barrier keeps its element terms alone, a linear one its application terms too.
        rng = np.random.default_rng(103)
        for _ in range(12):
            inst = random_instance(rng, num_elements=int(rng.integers(2, 6)),
                                   num_apps=int(rng.integers(2, 5)), kind="logarithmic",
                                   zero_coeff_prob=0.3)
            assert np.array_equal(inst.app_lower, inst.lower.sum(axis=0))
            assert np.array_equal(inst.app_upper, inst.upper.sum(axis=0))
            work = _InnerProblem(inst)
            assert not work.app_active.any()
            linear = _InnerProblem(make_instance(inst.capacities, inst.lower, inst.upper,
                                                 inst.coeff, "linear"))
            assert np.array_equal(linear.app_active, (inst.upper > inst.lower).any(axis=0))
            r = solve(inst, SolverConfig(epsilon=1e-4))
            assert check_feasible(inst, r.allocation, tol=0.0).feasible
            optimum = optimum_bracket(inst)
            assert optimum.upper - r.objective <= 1e-4
            assert 0.0 <= r.dual_gap <= 1e-4
            assert r.objective + r.dual_gap >= optimum.lower - 1e-9


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["epsilon", "t0", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidParams):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_outer_iters"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_non_integer_iteration_cap_rejected(self, field, value):
        with pytest.raises(InvalidParams):
            SolverConfig(**{field: value})

    def test_numpy_integer_iteration_cap_accepted(self):
        assert SolverConfig(max_outer_iters=np.int64(7)).max_outer_iters == 7


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
        assert not ((inst.upper > inst.lower) & (inst.coeff > 0)).any()
        r = solve(inst, SolverConfig(epsilon=1e-2))
        assert r.inner_iters_total == 0 and r.converged
        assert [tr.inner_status for tr in r.trace] == ["converged"] * len(r.trace)
        assert np.array_equal(r.allocation.values, inst.lower)

    @pytest.mark.parametrize("capacity, lower, upper, coeff, kind, cfg", [
        (1e300, 1.0, 2e299, 1.0, "linear", {}),
        (1e300, 1.0, 2e299, 1.0, "logarithmic", {}),
        (10.0, 1.0, 4.0, 1e300, "linear", {"epsilon": 1e-12}),
        (10.0, 1.0, 4.0, 1e300, "logarithmic", {"epsilon": 1e-12}),
        (1e-300, 1e-302, 4e-301, 1.0, "logarithmic", {"t0": 1e-300})],
        ids=["capacity-linear", "capacity-log", "coefficient-linear", "coefficient-log",
             "tiny-log"])
    def test_magnitudes_outside_the_range_rejected(self, capacity, lower, upper, coeff, kind,
                                                   cfg):
        # the first three overflowed and the last divided by zero inside the solve, which
        # the suite's RuntimeWarning filter turns into an error
        inst = ProblemInstance([capacity], [[lower, lower]],
                               [[upper, upper]], [[coeff, 1.0]], kind)
        with pytest.raises(InvalidParams, match="must"):
            solve(inst, SolverConfig(**cfg))

    @pytest.mark.parametrize("kind", ["linear", "logarithmic"])
    @pytest.mark.parametrize("scale, epsilon, t0", [(1e49, 10.0, 1.0), (1e-49, 1e-3, 1e-50)])
    def test_magnitudes_at_the_edges_of_the_range_solve(self, kind, scale, epsilon, t0):
        inst = ProblemInstance([scale], [[0.01 * scale, 0.01 * scale]],
                               [[0.4 * scale, 0.4 * scale]], [[1e50, 1.0]], kind)
        r = solve(inst, SolverConfig(epsilon=epsilon, t0=t0))
        assert r.outer_iters > 0 and math.isfinite(r.objective) and math.isfinite(r.dual_gap)
        assert check_feasible(inst, r.allocation, 0.0).feasible

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

    def test_trace_records_inner_iterations(self, tiny_instance):
        r = solve(tiny_instance, SolverConfig(epsilon=1e-2))
        assert r.inner_iters_total == sum(tr.inner_iters for tr in r.trace)
        assert all(tr.t > 0 for tr in r.trace)
