"""Application-level RAN-sharing resource allocation toolkit."""

from .baselines import (EntityAllocation, ReservationConfig, net_rsv_allocate,
                        per_bs_rsv_allocate)
from .errors import (ConfigError, DimensionMismatch, DomainError, EmptyInterior,
                     InfeasibleConfig, InvalidParams, NotInterior, RanShareError,
                     UnknownReference)
from .fairshare import water_fill
from .model import (AllocationMatrix, FeasibilityReport, Flow, FlowAllocation, Flows,
                    ProblemInstance, check_feasible, expand_bounds)
from .sim import (ALL_SCHEMES, ExperimentReport, ExperimentRow, HotspotParams,
                  SCHEME_APP_OPT, SCHEME_NET_RSV, SCHEME_PER_BS_RSV, Scenario,
                  ScenarioParams, add_hotspot, allocate_app_opt, build_instance,
                  flow_utility, generate_scenario, qoe_satisfied_count,
                  run_experiment, scale_load, second_phase_allocate)
from .solver import (OuterTrace, SolveResult, SolverConfig, barrier_value,
                     gap_bound, interior_gradient, interior_objective,
                     interior_start, solve, solve_inner)
from .utility import TranslatingRatios, estimate_demand, total_utility

__version__ = "0.1.0"
