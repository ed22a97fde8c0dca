"""Fireworks-style global optimization with a reproducible benchmark harness."""

from .baselines import BaParams, FwaParams, SpsoParams, ba_run, fwa_run, spso_run
from .benchmarks import Objective, ObjectiveLookupError, make_objective, objective_names
from .core import (
    EvaluationError,
    Individual,
    RngStream,
    RunConfig,
    RunRecord,
    SearchSpace,
    map_into_bounds,
)
from .harness import (
    ALGORITHMS,
    ExperimentSummary,
    export_curves,
    run_experiment,
    summarize,
)
from .lfwa import (
    LfwaState,
    average_intensity,
    explosion_intensity,
    explosion_radius,
    gaussian_mutation,
    generate_explosion_sparks,
    lfwa_run,
    lfwa_step,
    select_next_generation,
)

__version__ = "0.1.0"
