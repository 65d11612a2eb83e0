import numpy as np
import pytest

from ranshare.errors import InvalidParams, TooLarge
from ranshare.model import check_feasible
from ranshare.oracle import dykstra_project, oracle_solve
from ranshare.solver import SolverConfig, solve

from conftest import make_instance, random_instance


def test_1x1_linear_analytic_optimum(tiny_instance):
    o = oracle_solve(tiny_instance, tol=1e-6)
    assert o.method == "grid_refine"
    assert o.objective == pytest.approx(8.0, abs=1e-5)


def test_1x2_puts_everything_on_heavier_coefficient():
    inst = make_instance([10.0], [[0.0, 0.0]], [[10.0, 10.0]], [[1.0, 2.0]])
    o = oracle_solve(inst, tol=1e-6)
    assert o.objective == pytest.approx(20.0, abs=1e-5)
    assert np.allclose(o.allocation.values, [[0.0, 10.0]], atol=1e-4)


def test_grid_rejects_large_instances():
    inst = make_instance([10.0, 10.0, 10.0], np.zeros((3, 3)), np.full((3, 3), 3.0),
                         np.ones((3, 3)))
    with pytest.raises(TooLarge):
        oracle_solve(inst, tol=1e-4, method="grid_refine")
    # projected gradient handles any size
    o = oracle_solve(inst, tol=1e-4, method="long_run_projected_gradient")
    assert o.method == "long_run_projected_gradient"


def test_unknown_method_rejected(tiny_instance):
    with pytest.raises(InvalidParams):
        oracle_solve(tiny_instance, method="simplex")


def test_oracle_allocations_feasible():
    rng = np.random.default_rng(9)
    for _ in range(10):
        inst = random_instance(rng)
        for method in ("grid_refine", "long_run_projected_gradient"):
            o = oracle_solve(inst, tol=1e-5, method=method)
            assert check_feasible(inst, o.allocation, 1e-9).feasible


def test_cross_oracle_agreement():
    # the two mechanisms share no code path; they must land on the same value
    rng = np.random.default_rng(13)
    tol = 1e-4
    for _ in range(100):
        inst = random_instance(rng, num_elements=2, num_apps=2)
        g = oracle_solve(inst, tol=tol, method="grid_refine")
        p = oracle_solve(inst, tol=tol, method="long_run_projected_gradient")
        assert abs(g.objective - p.objective) <= 10 * tol


def test_oracle_never_loses_to_solver():
    rng = np.random.default_rng(31)
    for _ in range(25):
        inst = random_instance(rng)
        r = solve(inst, SolverConfig(epsilon=1e-3))
        o = oracle_solve(inst, tol=1e-8)
        assert o.objective >= r.objective - 1e-9


def test_dykstra_projection_lands_in_intersection():
    rng = np.random.default_rng(37)
    for _ in range(20):
        inst = random_instance(rng)
        point = inst.upper + rng.uniform(0.0, 50.0, inst.upper.shape)
        x = dykstra_project(inst, point)
        rows = x.sum(axis=1)
        cols = x.sum(axis=0)
        assert np.all(rows <= inst.capacities + 1e-7)
        assert np.all(cols <= inst.app_upper + 1e-7)
        assert np.all(cols >= inst.app_lower - 1e-7)
        assert np.all(x >= inst.lower - 1e-7) and np.all(x <= inst.upper + 1e-7)
