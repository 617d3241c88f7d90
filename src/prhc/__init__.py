"""Receding-horizon control with overlapping planning windows.

Plan over a preview of N future costs and disturbances, apply the first
N - M inputs, then replan from the state reached, keeping M steps of
overlap between consecutive windows. The package bundles the linear
dynamics and cost families, a horizon solver, the overlap policy, the
certified disturbance-gain bound with its numerical audit, and a seeded
experiment harness with a CLI.
"""

from .bounds import (
    GainCertificate,
    a_factor,
    certify,
    kappa,
    omega_op,
    recursion_audit,
)
from .costs import (
    CostModel,
    EnvelopeParams,
    NonConvexCost,
    QuadraticCost,
    SeparableCost,
    SetDistanceCost,
    estimate_alpha_lower,
    estimate_gamma_alpha_upper,
    estimate_params,
    quadratic_value_form,
    total_cost,
)
from .harness import (
    AggregateCell,
    ExperimentReport,
    ReportRow,
    Scenario,
    ScenarioConfig,
    aggregate_report,
    brute_force_oracle,
    emit_report,
    gen_scenario,
    load_report,
    run_comparison,
    run_table1,
    scenario_params,
)
from .linsys import (
    DisturbanceSequence,
    LinearSystem,
    StackedDynamics,
    Trajectory,
    rollout,
    stack_dynamics,
)
from .policy import (
    RhcSchedule,
    RunResult,
    WindowStop,
    build_schedule,
    run_policy,
)
from .solver import (
    HorizonProblem,
    HorizonSolution,
    SolverConfig,
    adjoint_gradient,
    horizon_objective,
    solve,
    solve_general,
    solve_quadratic,
)

__version__ = "0.1.0"
