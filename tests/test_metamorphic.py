"""Metamorphic relations of the allocation schemes: relations between two runs whose
inputs differ by a known transformation, where no oracle gives either output
(Chen, Cheung & Yiu 1998)."""

import numpy as np
import pytest

from ranshare.baselines import net_rsv_allocate, per_bs_rsv_allocate
from ranshare.model import Flows
from ranshare.sim import (Scenario, ScenarioParams, allocate_app_opt, build_instance,
                          generate_scenario, qoe_satisfied_count, scale_load)
from ranshare.solver import SolverConfig
from ranshare.utility import TranslatingRatios

from oracles import exact_optimum

DESK_5000 = ScenarioParams(num_flows=5000)
RELABELLINGS = ("elements", "applications", "entities", "flow order")


def relabel(scen, rng, parts):
    """``scen`` with the objects named in ``parts`` relabelled at random, and the flow
    order: new flow j is old flow ``order[j]``.  The focus applications keep their ids, as
    ``generate_scenario`` gives the focus shares to ids 0, 1, ... ."""
    num_el, num_app = scen.ratios.shape
    num_focus = DESK_5000.num_focus

    def shuffled(n, name, fixed=0):
        return np.concatenate([np.arange(fixed), fixed + (rng.permutation(n - fixed)
                                                           if name in parts
                                                           else np.arange(n - fixed))])

    el, app = shuffled(num_el, "elements"), shuffled(num_app, "applications", num_focus)
    ent, order = shuffled(scen.num_entities, "entities"), shuffled(len(scen.flows), "flow order")
    f = scen.flows
    flows = Flows(f.id[order], np.argsort(ent)[f.entity[order]], np.argsort(app)[f.app[order]],
                  np.argsort(el)[f.element[order]], f.demand[order])
    return Scenario(capacities=scen.capacities[el], min_share=scen.min_share[app],
                    max_share=scen.max_share[app], num_entities=scen.num_entities,
                    flows=flows, ratios=TranslatingRatios(scen.ratios.values[el][:, app]),
                    seed=scen.seed), order


@pytest.mark.parametrize("parts", [(part,) for part in RELABELLINGS] + [RELABELLINGS],
                         ids=list(RELABELLINGS) + ["all"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_allocations_permute_with_the_labels(seed, parts):
    # Log app-opt and per-bs-rsv give every flow the same bandwidth bit for bit.  Net-rsv
    # sums in label order: aggregate_capacity and each entity's demand run over the
    # elements, an entity's reserve sums its demand in the order of the capacity the
    # entities before it left, and np.bincount runs over the flows.  So its bandwidths
    # move by rounding alone.
    base = generate_scenario(DESK_5000, seed)
    scen, order = relabel(base, np.random.default_rng(100 + seed), parts)
    cfg = SolverConfig(epsilon=1e-2)
    for scheme in (lambda s: allocate_app_opt(s, "logarithmic", cfg)[0], per_bs_rsv_allocate,
                   net_rsv_allocate):
        want, got = scheme(base), scheme(scen)
        assert np.array_equal(got.flow_ids, want.flow_ids[order])
        assert qoe_satisfied_count(got, scen.flows) == qoe_satisfied_count(want, base.flows)
        if scheme is net_rsv_allocate:
            np.testing.assert_allclose(got.bandwidth, want.bandwidth[order], rtol=1e-14, atol=0)
        else:
            assert np.array_equal(got.bandwidth, want.bandwidth[order])


def test_exact_log_optimum_ignores_a_uniform_load():
    # A uniform load m scales every coefficient by m, and the maximiser of
    # m sum c log s over the same boxes and capacities is the one of sum c log s.
    base = generate_scenario(ScenarioParams(), 0)
    grant = exact_optimum(build_instance(base, "logarithmic")).point.values
    for load in (2, 5, 10):
        moved = exact_optimum(build_instance(scale_load(base, load), "logarithmic")).point.values
        np.testing.assert_allclose(moved, grant, rtol=1e-15, atol=0)
