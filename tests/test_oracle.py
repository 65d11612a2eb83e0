"""The reference optima of ``oracles.optimum_bracket`` and ``oracles.exact_optimum`` on
analytic cases, against each other and against the solver."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranshare
from ranshare.model import check_feasible
from ranshare.solver import SolverConfig, solve

from conftest import make_instance, pin_cells, random_instance
from oracles import exact_optimum, optimum_bracket


def test_1x1_linear_analytic_optimum(tiny_instance):
    b = optimum_bracket(tiny_instance)
    assert b.lower == pytest.approx(8.0, abs=1e-9)
    assert b.upper == pytest.approx(8.0, abs=1e-9)


def test_1x2_puts_everything_on_heavier_coefficient():
    inst = make_instance([10.0], [[0.0, 0.0]], [[10.0, 10.0]], [[1.0, 2.0]])
    b = optimum_bracket(inst)
    assert b.upper == pytest.approx(20.0, abs=1e-9)
    assert np.allclose(b.point.values, [[0.0, 10.0]], atol=1e-9)


def test_1x1_log_optimum_is_the_box_cap():
    inst = make_instance([10.0], [[2.0]], [[8.0]], [[3.0]], "logarithmic")
    b = optimum_bracket(inst)
    assert b.lower == pytest.approx(3.0 * math.log(8.0), abs=1e-9)
    assert b.upper == pytest.approx(3.0 * math.log(8.0), abs=1e-9)


def test_oracle_allocations_feasible():
    rng = np.random.default_rng(9)
    kinds = set()
    for _ in range(10):
        inst = random_instance(rng)
        b = optimum_bracket(inst)
        assert b.lower <= b.upper
        assert check_feasible(inst, b.point, 1e-9).feasible
        kinds.add(inst.utility_kind)
    assert kinds == {"linear", "logarithmic"}


def test_exact_optimum_on_analytic_rows():
    # linear: the row's headroom of 10 fills the heavier cell first
    inst = make_instance([10.0], [[0.0, 0.0]], [[10.0, 10.0]], [[1.0, 2.0]])
    assert np.array_equal(exact_optimum(inst).point.values, [[0.0, 10.0]])
    # log, boxes that fit the capacity: every cell at its upper bound (lambda = 0)
    inst = make_instance([10.0], [[2.0]], [[8.0]], [[3.0]], "logarithmic")
    assert exact_optimum(inst).value == 3.0 * math.log(8.0)
    # log, capacity binding: s = c / lambda with 1/lambda = 2 fills 8 = 2 + 6
    inst = make_instance([8.0], [[1.0, 1.0]], [[7.0, 7.0]], [[1.0, 3.0]], "logarithmic")
    best = exact_optimum(inst)
    assert np.allclose(best.point.values, [[2.0, 6.0]], rtol=1e-15, atol=0.0)
    assert best.value == pytest.approx(math.log(2.0) + 3.0 * math.log(6.0), rel=1e-15)


def test_exact_optimum_lies_in_the_highs_bracket():
    # the row split against HiGHS, which does not assume it, with pinned cells and cells
    # without utility
    rng = np.random.default_rng(9)
    kinds = set()
    for trial in range(40):
        inst = random_instance(rng, zero_coeff_prob=0.3)
        if trial % 3 == 0:
            inst = pin_cells(inst, rng.random(inst.lower.shape) < 0.3)
        best, bracket = exact_optimum(inst), optimum_bracket(inst)
        assert bracket.lower - 1e-9 <= best.value <= bracket.upper + 1e-9
        assert check_feasible(inst, best.point, 1e-9).feasible
        kinds.add(inst.utility_kind)
    assert kinds == {"linear", "logarithmic"}


def test_oracle_never_loses_to_solver():
    rng = np.random.default_rng(31)
    for _ in range(25):
        inst = random_instance(rng)
        r = solve(inst, SolverConfig(epsilon=1e-3))
        assert r.objective <= optimum_bracket(inst).upper + 1e-9


def test_package_imports_without_scipy():
    # scipy is a test dependency of the oracle only; the library stays numpy-only
    src = str(Path(ranshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ranshare; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
