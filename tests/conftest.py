"""Shared builders for the test suite."""

import numpy as np
import pytest

from ranshare.model import ProblemInstance, expand_bounds


def make_instance(capacities, lower, upper, coeff, kind="linear"):
    return ProblemInstance(capacities, lower, upper, coeff, kind)


def random_instance(rng, num_elements=None, num_apps=None, kind=None,
                    zero_coeff_prob=0.1):
    """Random share-based instance; invariants hold by construction."""
    ni = num_elements or int(rng.integers(1, 4))
    nk = num_apps or int(rng.integers(1, 3))
    kind = kind or ("linear" if rng.random() < 0.5 else "logarithmic")
    mins = rng.uniform(0.01, 0.5 / nk, nk)
    maxs = np.minimum(mins + rng.uniform(0.05, 0.5, nk), 1.0)
    caps = rng.uniform(100.0, 300.0, ni)
    lower, upper = expand_bounds(mins, maxs, caps)
    coeff = rng.uniform(0.0, 5.0, (ni, nk))
    coeff[rng.random((ni, nk)) < zero_coeff_prob] = 0.0
    return ProblemInstance(caps, lower, upper, coeff, kind)


def per_entity(scenario, flow_alloc):
    """(E, I, K) resource granted to each entity's flows per cell, summed in flow order."""
    shape = (scenario.num_entities, *scenario.ratios.shape)
    index = scenario.flow_plan.pairs.key.astype(np.intp) * shape[2] + scenario.flows.app
    return np.bincount(index, flow_alloc.resource, np.prod(shape)).reshape(shape)


def pin_cells(inst, pin):
    """`inst` with the cells where `pin` is True pinned at their lower bound."""
    upper = np.where(pin, inst.lower, inst.upper)
    return make_instance(inst.capacities, inst.lower, upper, inst.coeff, inst.utility_kind)


@pytest.fixture
def tiny_instance():
    """1x1 instance: capacity 10, box [2, 8], aggregate bounds [2, 8], c=1."""
    return make_instance([10.0], [[2.0]], [[8.0]], [[1.0]])
