from dataclasses import fields

import numpy as np
import pytest

from litefwa.baselines import (
    BaParams,
    FwaParams,
    SpsoParams,
    ba_run,
    fwa_run,
    spso_run,
)
from litefwa.benchmarks import Objective, make_objective
from litefwa.core import RunConfig, SearchSpace

SHORT = RunConfig(max_iterations=30, seed=11)


def flat_objective(dim=3, value=2.5):
    return Objective(
        name="flat",
        label="Flat",
        dim=dim,
        space=SearchSpace.symmetric(10.0, dim),
        declared_optimum=value,
        known_minimizer=np.zeros(dim),
        func=lambda x: np.full(len(x), value),
    )


def test_params_validation():
    with pytest.raises(ValueError):
        FwaParams(intensity_min_fraction=0.9, intensity_max_fraction=0.8)
    with pytest.raises(ValueError):
        FwaParams(max_amplitude=0.0)
    with pytest.raises(ValueError):
        SpsoParams(inertia_start=0.3, inertia_end=0.4)
    with pytest.raises(ValueError):
        SpsoParams(cognitive=0.0)
    with pytest.raises(ValueError):
        BaParams(frequency_min=3.0, frequency_max=2.0)
    with pytest.raises(ValueError):
        BaParams(loudness_decay=1.5)


PARAMS_FIELDS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (FwaParams, SpsoParams, BaParams)
    for f in fields(cls)
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("params_class,field", PARAMS_FIELDS)
def test_params_reject_non_finite_fields(params_class, field, value):
    # NaN passes every range check, so only the finiteness check stops it.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        params_class(**{field: value})


INTEGER_PARAMS_FIELDS = [
    (FwaParams, "total_spark_budget"),
    (FwaParams, "gaussian_spark_count"),
    (SpsoParams, "swarm_size"),
    (BaParams, "population"),
]


@pytest.mark.parametrize("value", [2.5, 10.5, 30.0])
@pytest.mark.parametrize("params_class,field", INTEGER_PARAMS_FIELDS)
def test_params_reject_non_integer_counts(params_class, field, value):
    # a fraction passed the range checks and failed mid-run, or ran as a
    # different budget than the one recorded
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        params_class(**{field: value})


@pytest.mark.parametrize("params_class,field", INTEGER_PARAMS_FIELDS)
def test_params_accept_numpy_integer_counts(params_class, field):
    default = getattr(params_class(), field)
    assert params_class(**{field: np.int64(default)}) == params_class()


@pytest.mark.parametrize(
    "runner,params",
    [(fwa_run, FwaParams()), (spso_run, SpsoParams()), (ba_run, BaParams())],
)
def test_determinism_same_seed_identical_record(runner, params):
    rec1 = runner(make_objective("f9"), params, SHORT)
    rec2 = runner(make_objective("f9"), params, SHORT)
    assert np.array_equal(rec1.trajectory, rec2.trajectory)
    assert np.array_equal(rec1.final_best.position, rec2.final_best.position)
    assert rec1.evaluations_used == rec2.evaluations_used


@pytest.mark.parametrize(
    "runner,params",
    [(fwa_run, FwaParams()), (spso_run, SpsoParams()), (ba_run, BaParams())],
)
def test_flat_objective_keeps_best_constant(runner, params):
    record = runner(flat_objective(), params, SHORT)
    assert np.all(record.trajectory == 2.5)


@pytest.mark.parametrize(
    "runner,params",
    [(fwa_run, FwaParams()), (spso_run, SpsoParams()), (ba_run, BaParams())],
)
def test_trajectory_monotone_and_final_in_bounds(runner, params):
    objective = make_objective("f7")
    record = runner(objective, params, RunConfig(max_iterations=60, seed=4))
    assert np.all(np.diff(record.trajectory) <= 0.0)
    assert record.trajectory.shape == (61,)
    assert objective.space.contains(record.final_best.position)


def test_fwa_spark_counts_respect_published_clamp():
    """Re-derive the per-generation counts from the update formula and check
    the clamp window [round(a*m), round(b*m)]."""
    params = FwaParams()
    budget = params.total_spark_budget
    lo = round(params.intensity_min_fraction * budget)
    hi = round(params.intensity_max_fraction * budget)
    rng = np.random.default_rng(0)
    eps = np.finfo(np.float64).eps
    for _ in range(200):
        fitness = rng.normal(size=5) * 10.0 ** rng.integers(-6, 6)
        f_max = fitness.max()
        raw = budget * (f_max - fitness + eps) / (np.sum(f_max - fitness) + eps)
        counts = np.clip(np.round(raw).astype(int), max(lo, 1), hi)
        assert np.all((counts >= lo) & (counts <= hi))


def test_spso_zero_velocity_clamp_freezes_the_swarm():
    params = SpsoParams(velocity_clamp_fraction=0.0)
    objective = make_objective("f9")
    record = spso_run(objective, params, RunConfig(max_iterations=25, seed=2))
    assert np.all(record.trajectory == record.trajectory[0])


def test_ba_degenerate_schedules_run_pure_frequency_search():
    # fixed loudness, zero pulse rate: no local walk, acceptance probability
    # stays at the initial loudness
    params = BaParams(loudness_decay=1.0, pulse_rate=0.0)
    record = ba_run(make_objective("f9"), params, RunConfig(max_iterations=25, seed=6))
    assert np.all(np.diff(record.trajectory) <= 0.0)


def test_ba_on_f6_documents_the_declared_optimum_inconsistency():
    """Minimizing the circulated f6 drives the best far below the declared 0,
    so distance-to-0 success is unattainable for a faithful minimizer."""
    objective = make_objective("f6")
    record = ba_run(objective, BaParams(), RunConfig(max_iterations=200, seed=0))
    assert record.final_best.fitness < -100.0


def test_evaluations_are_counted_per_candidate():
    objective = make_objective("f9")
    record = spso_run(objective, SpsoParams(swarm_size=10), RunConfig(max_iterations=20, seed=3))
    assert record.evaluations_used == 10 * 21  # init + one batch per iteration
    assert objective.eval_count == record.evaluations_used
