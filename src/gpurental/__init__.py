"""Plan and verify cloud-GPU rental policies under a time-average budget.

Given a stream of malleable jobs (each type with its own speedup function,
arrival rate, and size distribution) and a limit on the time-average number
of rented GPUs, this package computes the optimal fixed-width allocation,
sweeps budget/response-time trade-off curves, and checks the analytic
predictions by discrete-event simulation of job traces.
"""

from .errors import (
    AxiomError,
    BruteForceError,
    InstabilityError,
    ReplayError,
    SpecError,
    TraceError,
)
from .optimizer import (
    Allocation,
    ParetoPoint,
    brute_force_allocation,
    budget_usage,
    inner_minimize,
    merge_segments,
    objective,
    pareto_frontier,
    solve_allocation,
)
from .simulator import (
    FixedWidth,
    Policy,
    SimMetrics,
    SmallestRemainingFirst,
    StaticClusterEqualSplit,
    budget_timeseries,
    compare_policies,
    simulate,
)
from .speedup import (
    Amdahl,
    PowerLaw,
    SpeedupFunction,
    Tabular,
    ValidationReport,
    parse_speedup,
    validate,
)
from .workload import (
    BoundedPareto,
    Deterministic,
    Exponential,
    JobType,
    LoadEstimate,
    Trace,
    Weibull,
    WorkloadSpec,
    empirical_loads,
    generate_trace,
    load_spec,
    read_trace,
    spec_from_dict,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Amdahl",
    "AxiomError",
    "BoundedPareto",
    "BruteForceError",
    "Deterministic",
    "Exponential",
    "FixedWidth",
    "InstabilityError",
    "JobType",
    "LoadEstimate",
    "ParetoPoint",
    "Policy",
    "PowerLaw",
    "ReplayError",
    "SimMetrics",
    "SmallestRemainingFirst",
    "SpecError",
    "SpeedupFunction",
    "StaticClusterEqualSplit",
    "Tabular",
    "Trace",
    "TraceError",
    "ValidationReport",
    "Weibull",
    "WorkloadSpec",
    "brute_force_allocation",
    "budget_timeseries",
    "budget_usage",
    "compare_policies",
    "empirical_loads",
    "generate_trace",
    "inner_minimize",
    "load_spec",
    "merge_segments",
    "objective",
    "pareto_frontier",
    "parse_speedup",
    "read_trace",
    "simulate",
    "solve_allocation",
    "spec_from_dict",
    "validate",
    "write_trace",
]
