from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import in_box
from litefwa.baselines import (
    BaParams,
    FwaParams,
    SpsoParams,
    _select_fireworks,
    ba_run,
    ba_runs,
    fwa_run,
    fwa_runs,
    spso_run,
    spso_runs,
)
from litefwa.benchmarks import Objective, make_objective, objective_names
from litefwa.core import RngStream, RunConfig, SearchSpace
from litefwa.harness import ALGORITHMS

SHORT = RunConfig(max_iterations=30, seed=11)


def flat_objective(dim=3, value=2.5):
    return Objective(
        name="flat",
        label="Flat",
        space=SearchSpace.symmetric(10.0, dim),
        declared_optimum=value,
        known_minimizer=np.zeros(dim),
        func=lambda x: np.full(np.shape(x)[:-1], value),
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


def test_fwa_params_reject_a_budget_whose_spark_clamps_are_empty():
    # round(0.2 * 2) = 0 sparks at most, below the lower clamp of 1: FWA
    # would run with no explosion sparks at all
    with pytest.raises(ValueError, match="total_spark_budget \\* intensity_max_fraction rounds "
                                         "to 0 sparks per firework, below the lower clamp of 1"):
        FwaParams(total_spark_budget=2, intensity_max_fraction=0.2)
    assert FwaParams().spark_count_clamps == (2, 40)
    assert FwaParams(total_spark_budget=10).spark_count_clamps == (1, 8)
    assert FwaParams(total_spark_budget=2, intensity_max_fraction=0.3).spark_count_clamps == (1, 1)


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


@pytest.mark.parametrize("value", ["40", None])
@pytest.mark.parametrize("params_class,field", PARAMS_FIELDS)
def test_params_reject_non_numeric_fields_by_name(params_class, field, value):
    # numpy's isfinite raised "ufunc 'isfinite' not supported" for these,
    # naming no field
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
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


@pytest.mark.parametrize("params_class,field", PARAMS_FIELDS)
def test_params_reject_an_array_field_by_name(params_class, field):
    # every field holds one number; an array passes the finiteness check
    kind = "an integer" if field in {f for _, f in INTEGER_PARAMS_FIELDS} else "a real number"
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got array"):
        params_class(**{field: np.array([1.0, 2.0])})


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
    assert in_box(objective.space, record.final_best.position)


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


def record_bytes(record):
    return (record.seed, record.trajectory.tobytes(), record.final_best.position.tobytes(),
            record.evaluations_used)


def lockstep_configs(draw, **fields):
    """A function, a RunConfig with ``fields``, 0..12 iterations and a base
    seed, and a run count of 1..5."""
    function = draw(st.sampled_from(objective_names()))
    iterations = draw(st.integers(0, 12))
    config = RunConfig(max_iterations=iterations, seed=draw(st.integers(0, 2**32 - 1)), **fields)
    return function, config, draw(st.integers(1, 5))


def one_run_per_seed(run, function, params, config, runs):
    """``run`` once per seed of a lockstep call, each on its own objective."""
    return [run(make_objective(function), params, replace(config, seed=config.seed + r))
            for r in range(runs)]


@st.composite
def lockstep_cases(draw):
    """BaParams with 2..8 bats (constant loudness and a single frequency
    included), a function, 0..12 iterations, a base seed and 1..5 runs."""
    f_min = draw(st.floats(0.0, 2.0))
    params = BaParams(
        population=draw(st.integers(2, 8)),
        frequency_min=f_min,
        frequency_max=draw(st.one_of(st.just(f_min), st.floats(f_min, 4.0))),
        loudness=draw(st.floats(0.0, 1.0)),
        loudness_decay=draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0))),
        pulse_rate=draw(st.floats(0.0, 1.0)),
        pulse_growth=draw(st.floats(0.01, 2.0)),
        local_step_scale=draw(st.floats(0.0, 1.0)),
    )
    return params, *lockstep_configs(draw)


@settings(max_examples=150, deadline=None)
@given(case=lockstep_cases())
# most bats take the local walk
@example(case=(BaParams(population=4, pulse_rate=1.0, pulse_growth=2.0), "f1",
               RunConfig(max_iterations=6, seed=29), 4))
# every no-worse candidate is accepted at first and the loudness halves each
# time, so a run's walk scale goes stale unless it follows its loudness
@example(case=(BaParams(population=4, loudness=1.0, loudness_decay=0.5, pulse_rate=0.5,
                        pulse_growth=1.0), "f7", RunConfig(max_iterations=8, seed=3), 3))
@example(case=(BaParams(population=5, loudness=1.0, loudness_decay=0.5, pulse_rate=0.5,
                        pulse_growth=1.0), "f2", RunConfig(max_iterations=6, seed=17), 5))
# no bat fires
@example(case=(BaParams(population=4, pulse_rate=0.0), "f3",
               RunConfig(max_iterations=5, seed=8), 3))
def test_ba_runs_equal_ba_run_per_seed_bit_for_bit(case):
    params, function, config, runs = case
    objective = make_objective(function)
    records = ba_runs(objective, params, config, runs)
    alone = one_run_per_seed(ba_run, function, params, config, runs)
    assert [record_bytes(r) for r in records] == [record_bytes(r) for r in alone]
    assert objective.eval_count == runs * records[0].evaluations_used


@st.composite
def fwa_lockstep_cases(draw):
    """FwaParams with a budget of 2..20 sparks and 1..4 mutants, 2..10
    fireworks, a function, 0..12 iterations, a base seed and 1..5 runs."""
    params = FwaParams(
        total_spark_budget=draw(st.integers(2, 20)),
        intensity_min_fraction=draw(st.floats(0.01, 0.4)),
        intensity_max_fraction=draw(st.floats(0.5, 0.95)),
        max_amplitude=draw(st.floats(0.01, 100.0)),
        gaussian_spark_count=draw(st.integers(1, 4)),
    )
    return params, *lockstep_configs(draw, population_size=draw(st.integers(2, 10)))


@st.composite
def spso_lockstep_cases(draw):
    """SpsoParams with 2..8 particles (no velocity, and inertia constant,
    included), a function, 0..12 iterations, a base seed and 1..5 runs."""
    inertia_end = draw(st.floats(0.0, 1.0))
    params = SpsoParams(
        swarm_size=draw(st.integers(2, 8)),
        inertia_start=draw(st.one_of(st.just(inertia_end), st.floats(inertia_end, 1.2))),
        inertia_end=inertia_end,
        cognitive=draw(st.floats(0.1, 3.0)),
        social=draw(st.floats(0.1, 3.0)),
        velocity_clamp_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
    )
    return params, *lockstep_configs(draw)


@st.composite
def lfwa_lockstep_cases(draw):
    """No params, 2..8 fireworks and 1..6 mutants per generation (or the
    default one per firework), a function, 0..12 iterations, a base seed and
    1..5 runs. The 2-d f7 draws short shuffles as scalars, and the 30-d
    functions draw long ones with an array ``low``."""
    mutants = draw(st.one_of(st.none(), st.integers(1, 6)))
    return None, *lockstep_configs(draw, population_size=draw(st.integers(2, 8)),
                                   gaussian_sparks_per_generation=mutants)


@pytest.mark.parametrize("run_many,run,cases", [
    (fwa_runs, fwa_run, fwa_lockstep_cases()),
    (spso_runs, spso_run, spso_lockstep_cases()),
    (ALGORITHMS["lfwa"].run_many, ALGORITHMS["lfwa"].run, lfwa_lockstep_cases()),
], ids=["fwa", "spso", "lfwa"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fwa_and_spso_chunks_give_each_seed_its_one_run_record(run_many, run, cases, data):
    # Each seed of a chunk of 1..5 runs, wherever it sits in the chunk, gets
    # the record of its one-run form, bit for bit. For LFWA that is
    # lfwa_run's own body (the registry's LFWA entries call lfwa_runs and
    # lfwa_run). fwa_run and spso_run are their lockstep form's chunk of one
    # seed, so for FWA and SPSO this is batch independence; the golden
    # tables, made from the one-seed bodies they replaced, are their oracle.
    params, function, config, runs = data.draw(cases)
    objective = make_objective(function)
    records = run_many(objective, params, config, runs)
    alone = one_run_per_seed(run, function, params, config, runs)
    assert [record_bytes(r) for r in records] == [record_bytes(r) for r in alone]
    assert objective.eval_count == sum(r.evaluations_used for r in records)


@pytest.mark.parametrize("run_many,params", [
    (fwa_runs, FwaParams()), (spso_runs, SpsoParams()), (ba_runs, BaParams()),
    (ALGORITHMS["lfwa"].run_many, None),
], ids=["fwa", "spso", "ba", "lfwa"])
@pytest.mark.parametrize("runs,message", [
    (0, "runs must be at least 1, got 0"),
    (-1, "runs must be at least 1, got -1"),
    (2.5, "runs must be an integer, got 2.5"),
])
def test_lockstep_runs_take_a_run_count_of_at_least_one(run_many, params, runs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_many(make_objective("f7"), params, SHORT, runs)


def reference_select_fireworks(cand_positions, cand_fitness, m, rng):
    """FWA's selection as first written, kept as a reference: the crowding
    from fresh temporaries, and the roulette pool gathered by index."""
    elite = int(cand_fitness.argmin())
    sq = np.add.reduce(cand_positions * cand_positions, axis=1)
    gram2 = 2.0 * cand_positions @ cand_positions.T
    dist_sq = np.maximum(sq[:, None] + sq[None, :] - gram2, 0.0)
    crowding = np.add.reduce(np.sqrt(dist_sq), axis=1)
    pool_indices = (np.arange(cand_fitness.size) != elite).nonzero()[0]
    weights = crowding[pool_indices]
    weight_sum = np.add.reduce(weights)
    if weight_sum <= 0:
        probs = np.full(weights.size, 1.0 / weights.size)
    else:
        probs = weights / weight_sum
    cumulative = np.add.accumulate(probs)
    spins = rng.uniform(size=m - 1)
    picks = pool_indices[np.minimum(cumulative.searchsorted(spins), weights.size - 1)]
    return np.concatenate(([elite], picks))


@st.composite
def selection_cases(draw):
    """N = 2..70 candidates in d = 1..30 dimensions, m = 2..10 picks, a
    seed, and the elite placed first, last or wherever the fitness puts it.
    Duplicate rows are whole numbers, so every sum in the crowding is exact
    and every crowding is 0."""
    n, d = draw(st.integers(2, 70)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        row = draw(arrays(float, d, elements=st.integers(-8, 8).map(float)))
        positions = np.tile(row, (n, 1))
    else:
        positions = draw(arrays(float, (n, d), elements=st.floats(-100.0, 100.0)))
    fitness = draw(arrays(float, n, elements=st.floats(-1e3, 1e3)))
    elite = draw(st.sampled_from([None, 0, n - 1]))
    if elite is not None:
        fitness[elite] = fitness.min() - 1.0
    return positions, fitness, draw(st.integers(2, 10)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=selection_cases())
@example(case=(np.zeros((4, 3)), np.array([0.0, 1.0, 2.0, 3.0]), 5, 1))
@example(case=(np.ones((6, 2)), np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.0]), 4, 2))
@example(case=(np.arange(10.0).reshape(5, 2), np.array([3.0, 1.0, 2.0, 4.0, 0.0]), 6, 3))
def test_fwa_selection_matches_its_reference(case):
    # the picks and what the roulette drew, for spread-out candidates,
    # duplicate ones (the uniform roulette) and the elite first or last
    positions, fitness, m, seed = case
    rng, reference_rng = RngStream(seed), RngStream(seed)
    picks = _select_fireworks(positions, fitness, m, rng)
    expected = reference_select_fireworks(positions, fitness, m, reference_rng)
    assert picks.dtype == expected.dtype
    assert picks.tolist() == expected.tolist()
    assert rng._gen.bit_generator.state == reference_rng._gen.bit_generator.state
