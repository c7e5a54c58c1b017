"""Fractional load-balancing games over heterogeneous servers.

The package covers two coupled models: a one-shot game where players split
divisible jobs across loaded servers (closed-form best responses, one-pass
convergence to a pure equilibrium, price-of-anarchy bounds), and a stepped
game where queues carry work over between arrivals (best-response engine,
analytic drain-time bounds, steady-state behavior). An experiments module
reproduces a catalog of benchmark settings with seeded, byte-stable traces,
and the ``lbgame`` command line exposes all of it.
"""

__version__ = "0.1.0"

from .model import (
    Action,
    ActionProfile,
    InfeasibleError,
    Instance,
    ServerLoads,
    instantaneous_cost,
    normalized_loads,
    player_cost,
    player_costs,
    potential,
    social_cost,
    state_transition,
)
from .static import (
    BestResponseResult,
    NashCheck,
    best_response,
    empirical_poa,
    is_nash,
    opt_lower_bound,
    poa_upper_bound,
    run_sequential_pass,
    water_fill,
)
from .dynamic import (
    DynamicRun,
    StepRecord,
    Trace,
    dynamic_step,
    full_support_time,
    run_sequential,
    run_simultaneous,
    zero_load_time,
    zero_load_time_alt,
)
from .experiments import (
    ExperimentReport,
    GeneratorSpec,
    SettingSpec,
    StaticPassResult,
    builtin_setting,
    builtin_settings,
    convergence_grid,
    export_trace,
    generate_instance,
    load_trace_jsonl,
    run_experiment,
    setting_instance,
    write_trace_csv,
    write_trace_jsonl,
)

__all__ = [
    "Action",
    "ActionProfile",
    "BestResponseResult",
    "DynamicRun",
    "ExperimentReport",
    "GeneratorSpec",
    "InfeasibleError",
    "Instance",
    "NashCheck",
    "ServerLoads",
    "SettingSpec",
    "StaticPassResult",
    "StepRecord",
    "Trace",
    "best_response",
    "builtin_setting",
    "builtin_settings",
    "convergence_grid",
    "dynamic_step",
    "empirical_poa",
    "export_trace",
    "full_support_time",
    "generate_instance",
    "instantaneous_cost",
    "is_nash",
    "load_trace_jsonl",
    "normalized_loads",
    "opt_lower_bound",
    "player_cost",
    "player_costs",
    "poa_upper_bound",
    "potential",
    "run_experiment",
    "run_sequential",
    "run_sequential_pass",
    "run_simultaneous",
    "setting_instance",
    "social_cost",
    "state_transition",
    "water_fill",
    "write_trace_csv",
    "write_trace_jsonl",
    "zero_load_time",
    "zero_load_time_alt",
]
