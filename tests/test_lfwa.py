"""Unit and property tests for the optimizer's individual operations and
its one-generation step. Derived expectations are recomputed with scalar
arithmetic independent of the vectorized implementation, and each batched
operator is checked against its one-firework (or one-row) calls on the same
stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ConstantRng, RecordingRng, in_box, traced_step
from litefwa.benchmarks import Objective, make_objective
from litefwa.core import XI, RngStream, RunConfig, SearchSpace, map_into_bounds
from litefwa.lfwa import (
    _SCALAR_SWAPS_MAX,
    LfwaState,
    average_intensity,
    explosion_intensity,
    explosion_radius,
    gaussian_mutation,
    generate_explosion_sparks,
    initialize_state,
    lfwa_run,
    lfwa_step,
    select_next_generation,
    _sample_without_replacement,
)


def sphere_objective(dim, half_width=100.0, name="sphere"):
    return Objective(
        name=name,
        label="Sphere",
        space=SearchSpace.symmetric(half_width, dim),
        declared_optimum=0.0,
        known_minimizer=np.zeros(dim),
        func=lambda x: np.sum(x * x, axis=-1),
    )


def constant_objective(dim, value=7.0):
    return Objective(
        name="flat",
        label="Flat",
        space=SearchSpace.symmetric(10.0, dim),
        declared_optimum=value,
        known_minimizer=np.zeros(dim),
        func=lambda x: np.full(np.shape(x)[:-1], value),
    )


# ---------------------------------------------------------------- intensity


def test_intensity_worst_firework_gets_one_spark():
    counts = explosion_intensity([1.0, 2.0, 3.0, 4.0, 5.0])
    assert counts[-1] == 1


def test_intensity_matches_scalar_recomputation():
    fitnesses = [1.0, 2.0, 3.0, 4.0, 5.0]
    counts = explosion_intensity(fitnesses)
    expected = [
        math.ceil(5.0 ** ((5.0 - f) / (5.0 - 1.0 + XI))) for f in fitnesses
    ]
    assert list(counts) == expected == [5, 4, 3, 2, 1]
    assert counts[2] == 3  # 5**0.5 = 2.236... rounds up to 3


def test_intensity_flat_population_all_one():
    counts = explosion_intensity([4.2] * 7)
    assert list(counts) == [1] * 7


def test_intensity_bounds_and_monotonicity_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        fitnesses = rng.normal(size=m) * 10.0 ** rng.integers(-12, 12)
        counts = explosion_intensity(fitnesses)
        assert np.all((counts >= 1) & (counts <= m))
        order = np.argsort(fitnesses)
        assert np.all(np.diff(counts[order]) <= 0)


def test_intensity_rejects_bad_inputs():
    for bad in ([1.0, np.nan], [np.nan, np.nan], [1.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="all fitnesses must be finite"):
            explosion_intensity(bad)


def test_average_intensity():
    assert average_intensity([1, 5, 3, 2, 4]) == 3.0
    assert average_intensity([1, 1, 1, 1, 1]) == 1.0
    assert average_intensity([1, 2]) == 1.5


def test_intensity_and_mean_of_a_block_equal_row_by_row_calls():
    sampler = np.random.default_rng(5)
    for _ in range(200):
        runs, m = int(sampler.integers(1, 5)), int(sampler.integers(1, 10))
        block = sampler.normal(size=(runs, m)) * 10.0 ** sampler.integers(-12, 12)
        block[sampler.random(size=(runs, m)) < 0.3] = 1.5  # ties, and flat rows
        counts = explosion_intensity(block)
        rows = [explosion_intensity(row) for row in block]
        assert counts.dtype == rows[0].dtype
        assert np.array_equal(counts, np.stack(rows))
        means = average_intensity(counts)
        assert type(means) is np.ndarray and means.shape == (runs,)
        assert means.tolist() == [average_intensity(row) for row in rows]  # bit for bit
        assert type(average_intensity(rows[0])) is float


def test_intensity_of_a_block_rejects_any_non_finite_row():
    for bad in ([[1.0, 2.0], [np.nan, 1.0]], [[np.inf, 1.0]], [[1.0, 2.0], [3.0, -np.inf]]):
        with pytest.raises(ValueError, match="all fitnesses must be finite"):
            explosion_intensity(bad)


# ------------------------------------------------------------------ radius


def test_radius_low_intensity_branch_points_at_slot_best():
    r = explosion_radius(np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([9.0, 9.0]), 1, 3.0)
    assert np.array_equal(r, [1.0, 1.0])


def test_radius_high_intensity_branch_points_at_core():
    r = explosion_radius(np.array([1.0, -1.0]), np.array([5.0, 5.0]), np.array([0.0, 0.0]), 4, 3.0)
    assert np.array_equal(r, [-1.0, 1.0])


def test_radius_branch_boundary_is_greater_or_equal():
    x = np.array([0.0])
    pbest = np.array([1.0])
    core = np.array([2.0])
    assert explosion_radius(x, pbest, core, 3, 3.0)[0] == 2.0  # s_i == s_avg -> core
    assert explosion_radius(x, pbest, core, 2, 3.0)[0] == 1.0  # s_i < s_avg -> pbest


def test_radius_zero_when_firework_sits_on_attractor():
    x = np.array([4.0, -2.0])
    assert np.array_equal(explosion_radius(x, x, np.ones(2), 1, 2.0), [0.0, 0.0])


def test_radius_batch_rows_match_single_firework_calls():
    sampler = np.random.default_rng(4)
    x = sampler.normal(size=(5, 3))
    pbest = sampler.normal(size=(5, 3))
    core = sampler.normal(size=3)
    counts = np.array([1, 4, 2, 5, 3])
    radii = explosion_radius(x, pbest, core, counts, 3.0)
    assert radii.shape == (5, 3)
    for i in range(5):
        assert np.array_equal(radii[i], explosion_radius(x[i], pbest[i], core, counts[i], 3.0))


# ------------------------------------------------------------------ sparks


def test_sparks_zero_beta_clones_the_firework():
    sparks = generate_explosion_sparks(np.array([[3.0, -4.0]]), np.array([[1.0, 2.0]]), [4],
                                       ConstantRng(uniform_value=0.0))
    assert np.array_equal(sparks, np.tile([3.0, -4.0], (4, 1)))


def test_sparks_unit_beta_reaches_the_attractor():
    x = np.array([[1.0, 1.0]])
    attractor = np.array([5.0, -3.0])
    sparks = generate_explosion_sparks(x, attractor - x, [3], ConstantRng(uniform_value=1.0))
    assert np.allclose(sparks, np.tile(attractor, (3, 1)))


def test_sparks_stay_in_displacement_box_property():
    rng = RngStream(42)
    x = np.array([[2.0, -1.0, 0.5]])
    radius = np.array([[-3.0, 4.0, 0.0]])
    lo = np.minimum(x, x + radius)
    hi = np.maximum(x, x + radius)
    for _ in range(1000):
        sparks = generate_explosion_sparks(x, radius, [3], rng)
        assert sparks.shape == (3, 3)
        assert np.all(sparks >= lo) and np.all(sparks <= hi)


def test_sparks_batch_equals_consecutive_single_firework_calls():
    sampler = np.random.default_rng(5)
    x = sampler.normal(size=(4, 3))
    radius = sampler.normal(size=(4, 3))
    counts = np.array([3, 1, 4, 2])
    batch = generate_explosion_sparks(x, radius, counts, RngStream(8))
    rng = RngStream(8)
    rows = [generate_explosion_sparks(x[i : i + 1], radius[i : i + 1], counts[i : i + 1], rng)
            for i in range(4)]
    assert batch.shape == (10, 3)
    assert np.array_equal(batch, np.concatenate(rows))  # grouped by firework, bit for bit


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 4), m=st.integers(1, 6),
       d=st.integers(1, 4), data=st.data())
def test_sparks_over_lockstep_runs_equal_one_call_per_run_property(seed, runs, m, d, data):
    # a list of streams with (R, M, d) blocks against one call per run on
    # its own (M, d) rows and stream, values and final stream states
    sampler = np.random.default_rng(seed)
    x, radius = sampler.normal(size=(2, runs, m, d))
    counts = np.array(data.draw(st.lists(st.integers(1, m), min_size=runs * m,
                                         max_size=runs * m))).reshape(runs, m)
    alone_rngs = [RngStream(seed + r) for r in range(runs)]
    alone = [generate_explosion_sparks(x[r], radius[r], counts[r], rng)
             for r, rng in enumerate(alone_rngs)]
    rngs = [RngStream(seed + r) for r in range(runs)]
    sparks = generate_explosion_sparks(x, radius, counts, rngs)
    assert sparks.shape == (counts.sum(), d)
    assert np.array_equal(sparks, np.concatenate(alone))  # bit for bit
    assert [_state(rng) for rng in rngs] == [_state(rng) for rng in alone_rngs]


# ---------------------------------------------------------------- mutation


def test_mutation_zero_normal_draw_is_identity():
    # the stub picks row 1 as every parent and draws a zero normal
    fireworks = np.array([[1.0, -2.0, 3.0], [4.0, -5.0, 6.0], [7.0, 8.0, -9.0]])
    out = gaussian_mutation(fireworks, 4, ConstantRng(normal_value=0.0, integer_value=1))
    assert np.array_equal(out, fireworks[[1, 1, 1, 1]])


def test_mutation_zero_coordinate_is_fixed_point():
    fireworks = np.zeros((4, 3))
    out = gaussian_mutation(fireworks, 6, RngStream(9))
    assert np.array_equal(out, np.zeros((6, 3)))


def test_mutation_changes_exactly_n_dimensions():
    # pin n = 2 via the stub stream; the shared factor is 1.7
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    (out,) = gaussian_mutation(x[None], 1, ConstantRng(normal_value=0.7, integer_value=2))
    changed = np.flatnonzero(out != x)
    assert changed.size == 2
    assert np.allclose(out[changed], x[changed] * 1.7)


def test_mutation_changed_count_matches_drawn_n_property():
    fireworks = np.arange(1.0, 25.0).reshape(3, 8)
    for seed in range(50):
        recorder_rng = RngStream(seed)
        parent = recorder_rng.integers(0, 3)  # peek at the first two draws
        n = recorder_rng.integers(1, 9)
        (out,) = gaussian_mutation(fireworks, 1, RngStream(seed))
        assert np.count_nonzero(out != fireworks[parent]) == n


def _state(rng):
    return rng._gen.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, _SCALAR_SWAPS_MAX + 2),
    extra=st.integers(0, 40),
)
def test_shuffle_is_the_same_on_both_sides_of_the_scalar_crossover(seed, k, extra):
    # transcribed: k scalar swap draws, and the same swaps from one
    # array-low draw; the shuffle must match both, and leave the same state
    n = k + extra
    got_rng, scalar_rng, array_rng = RngStream(seed), RngStream(seed), RngStream(seed)
    got = _sample_without_replacement(n, k, got_rng)
    expected = []
    for targets in ([scalar_rng.integers(j, n) for j in range(k)],
                    array_rng.integers(np.arange(k), n).tolist()):
        idx = list(range(n))
        for j, s in enumerate(targets):
            idx[j], idx[s] = idx[s], idx[j]
        expected.append(idx[:k])
    assert got == expected[0] == expected[1]
    assert _state(got_rng) == _state(scalar_rng) == _state(array_rng)


def _mutants_one_by_one(fireworks, count, rng):
    """Transcribed per-mutant formulation: a parent index, then that row's
    own mutation (n, the n-swap shuffle, one normal) into a fresh row."""
    rows = []
    for _ in range(count):
        row = np.array(fireworks[rng.integers(0, len(fireworks))], dtype=float)
        dims = _sample_without_replacement(row.size, rng.integers(1, row.size + 1), rng)
        row[dims] *= float(rng.normal()) + 1.0
        rows.append(row)
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 10, 11, 30]),
    count=st.integers(1, 8),
    m=st.integers(2, 7),
    runs=st.integers(1, 3),
)
def test_mutation_batch_equals_mutants_one_by_one_property(seed, d, count, m, runs):
    # d = 10 and 11 put n on both sides of the scalar-shuffle crossover, and
    # d = 1 makes the one swap a range-1 draw; some coordinates are zero
    sampler = np.random.default_rng(seed)
    fireworks = sampler.normal(size=(runs, m, d)) * sampler.integers(0, 2, size=(runs, m, d))
    got_rngs = [RngStream(seed + r) for r in range(runs)]
    expected_rngs = [RngStream(seed + r) for r in range(runs)]
    expected = [_mutants_one_by_one(fireworks[r], count, expected_rngs[r]) for r in range(runs)]

    # one stream and one (M, d) block per call, run by run
    got = [gaussian_mutation(fireworks[r], count, got_rngs[r]) for r in range(runs)]
    for r in range(runs):
        assert got[r].shape == (count, d)
        assert np.array_equal(got[r], expected[r])  # bit for bit
        assert _state(got_rngs[r]) == _state(expected_rngs[r])

    # a list of streams and the (R, M, d) block in one call
    list_rngs = [RngStream(seed + r) for r in range(runs)]
    assert np.array_equal(gaussian_mutation(fireworks, count, list_rngs), np.concatenate(expected))
    assert [_state(rng) for rng in list_rngs] == [_state(rng) for rng in expected_rngs]


# ----------------------------------------------------------------- mapping


def test_mapping_leaves_in_bounds_input_untouched():
    space = SearchSpace.symmetric(100.0, 2)
    x = np.array([99.9, -100.0])
    assert np.array_equal(map_into_bounds(x, space, RngStream(0)), x)


def test_mapping_beta_zero_lands_on_lower_bound():
    space = SearchSpace.symmetric(100.0, 2)
    out = map_into_bounds(np.array([150.0, 0.0]), space, ConstantRng(uniform_value=0.0))
    assert out[0] == -100.0
    assert out[1] == 0.0


@st.composite
def boxes_and_positions(draw):
    """A non-uniform box and a (d,) row or (n, d) batch whose coordinates
    lie below, inside, on the bounds of, or above the box."""
    d = draw(st.integers(1, 6))
    lower = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d)))
    space = SearchSpace(lower, lower + width)
    shape = (draw(st.integers(0, 8)), d) if draw(st.booleans()) else (d,)
    offsets = st.floats(-1.0, 2.0) | st.sampled_from([0.0, 1.0])
    return space, space.lower + draw(arrays(float, shape, elements=offsets)) * space.width


def out_of_box(space, positions):
    return (positions < space.lower) | (positions > space.upper)


@settings(max_examples=300, deadline=None)
@given(case=boxes_and_positions(), seed=st.integers(0, 2**32 - 1))
def test_mapping_redraws_only_violating_dimensions_property(case, seed):
    space, positions = case
    before = positions.copy()
    out = map_into_bounds(positions, space, RngStream(seed))
    assert np.array_equal(positions, before)  # the input is not modified
    inside = ~out_of_box(space, positions)
    assert np.array_equal(out[inside], positions[inside])
    assert not np.any(out[~inside] == positions[~inside])


@settings(max_examples=300, deadline=None)
@given(case=boxes_and_positions(), seed=st.integers(0, 2**32 - 1))
def test_mapping_batch_equals_row_by_row_mapping(case, seed):
    space, positions = case
    batch_rng, row_rng = RngStream(seed), RngStream(seed)
    batch = map_into_bounds(np.atleast_2d(positions), space, batch_rng)
    rows = [map_into_bounds(row, space, row_rng) for row in np.atleast_2d(positions)]
    assert np.array_equal(batch, np.reshape(rows, batch.shape))
    assert batch_rng._gen.bit_generator.state == row_rng._gen.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(case=boxes_and_positions(), seed=st.integers(0, 2**32 - 1))
def test_mapping_result_always_within_box_property(case, seed):
    space, positions = case
    out = map_into_bounds(positions, space, RngStream(seed))
    assert out.shape == positions.shape
    assert not out_of_box(space, out).any()


# --------------------------------------------------------------- selection


def test_selection_keeps_the_best_candidate_first():
    # fireworks, pbest, core, explosion sparks, Gaussian sparks
    fitness = np.array([5.0, 6.0, 4.0, 5.5, 4.0, 3.0, -1.0316285, 7.0, 8.0])
    for seed in range(20):
        out = select_next_generation(fitness, 2, RngStream(seed))
        assert out[0] == 6
        assert fitness[out[0]] == -1.0316285
        assert len(out) == 2


def test_selection_elite_is_the_first_of_tied_minima():
    out = select_next_generation(np.array([2.0, 1.0, 3.0, 1.0]), 3, RngStream(0))
    assert out[0] == 1


def test_selection_all_identical_candidates():
    fitness = np.full(7, 2.0)
    out = select_next_generation(fitness, 2, RngStream(0))
    assert np.all(fitness[out] == 2.0)


def test_selection_samples_distinct_non_elite_candidates():
    # 30 candidates total: 5 fireworks + 5 pbest + core + 15 explosion + 4 gaussian
    fitness = np.concatenate(
        [np.arange(10, 15), np.arange(5, 10), [5.0], np.arange(30, 45), np.arange(50, 54)]
    ).astype(float)
    for seed in range(50):
        out = select_next_generation(fitness, 5, RngStream(seed))
        assert len(out) == 5
        assert fitness[out[0]] == 5.0
        assert len(set(out.tolist())) == 5  # elite plus 4 distinct picks
        assert np.all((out >= 0) & (out < fitness.size))


def test_selection_matches_scalar_fisher_yates_on_the_pool():
    # transcribed: the pool lists every candidate but the elite, in order,
    # and swap j draws its partner from [j, len(pool)) one call at a time
    fitness = np.random.default_rng(7).normal(size=25)
    for seed in range(30):
        out = select_next_generation(fitness, 6, RngStream(seed))
        elite = int(np.argmin(fitness))
        pool = [i for i in range(25) if i != elite]
        rng = RngStream(seed)
        for j in range(5):
            swap = rng.integers(j, len(pool))
            pool[j], pool[swap] = pool[swap], pool[j]
        assert out.tolist() == [elite] + pool[:5]


def test_selection_rejects_fewer_candidates_than_slots():
    with pytest.raises(ValueError, match="^selection needs 4 candidates, got 2: 2 short$"):
        select_next_generation(np.array([1.0, 1.0]), 4, RngStream(1))
    with pytest.raises(ValueError, match="got 1: 2 short"):
        select_next_generation(np.array([3.0]), 3, RngStream(1))
    # exactly enough candidates: the elite, then every other one once
    out = select_next_generation(np.array([2.0, 1.0, 3.0]), 3, RngStream(1))
    assert out[0] == 1 and sorted(out.tolist()) == [0, 1, 2]


# -------------------------------------------------------------------- step


def make_state(objective, config, seed):
    rng = RngStream(seed)
    return initialize_state(objective, config, rng), rng


def test_step_monotone_best_over_200_generations():
    objective = sphere_objective(2)
    config = RunConfig(population_size=5, seed=0)
    state, rng = make_state(objective, config, 0)
    previous = state.best_fitness
    for _ in range(200):
        state = lfwa_step(state, objective, config, rng)
        assert state.best_fitness <= previous
        assert objective.evaluate(state.best_position) == state.best_fitness
        previous = state.best_fitness


def test_step_flat_objective_changes_nothing_about_best():
    objective = constant_objective(3)
    config = RunConfig(population_size=4, seed=5)
    state, rng = make_state(objective, config, 5)
    start = state.best_fitness
    for _ in range(30):
        state = lfwa_step(state, objective, config, rng)
    assert state.best_fitness == start


def test_step_invariants_pbest_dominance_core_and_bounds():
    objective = make_objective("f9")
    config = RunConfig(population_size=5, seed=3)
    state, rng = make_state(objective, config, 3)
    for _ in range(100):
        state, trace = traced_step(state, objective, config, rng)
        for i in range(config.population_size):
            assert state.pbest_fitness[i] <= state.fitness[i]
        assert state.pbest_fitness[state.core_index] == min(state.pbest_fitness)
        assert in_box(objective.space, state.fireworks)
        assert in_box(objective.space, trace.explosion_sparks_mapped)
        assert in_box(objective.space, trace.gaussian_sparks_mapped)
        # every row's fitness is its objective value
        assert np.array_equal(objective.evaluate_many(state.fireworks), state.fitness)
        assert np.array_equal(objective.evaluate_many(state.pbest), state.pbest_fitness)


def test_step_branch_rule_follows_intensity_vs_mean():
    objective = sphere_objective(3)
    config = RunConfig(population_size=5, seed=8)
    state, rng = make_state(objective, config, 8)
    for _ in range(20):
        fireworks_before = state.fireworks
        pbest_before = state.pbest
        core_before = state.pbest[state.core_index]
        state, trace = traced_step(state, objective, config, rng)
        s_avg = trace.mean_intensity
        for i, radius in enumerate(trace.radii):
            if trace.spark_counts[i] < s_avg:
                expected = pbest_before[i] - fireworks_before[i]
            else:
                expected = core_before - fireworks_before[i]
            assert np.array_equal(radius, expected)


def test_step_optimal_core_is_never_displaced():
    objective = sphere_objective(2)
    config = RunConfig(population_size=4, seed=2)
    state, rng = make_state(objective, config, 2)
    pbest = state.pbest.copy()
    pbest[0] = 0.0
    pbest_fitness = state.pbest_fitness.copy()
    pbest_fitness[0] = 0.0
    state = LfwaState(
        fireworks=state.fireworks,
        fitness=state.fitness,
        pbest=pbest,
        pbest_fitness=pbest_fitness,
        best_position=np.zeros(2),
        best_fitness=0.0,
    )
    for _ in range(50):
        state = lfwa_step(state, objective, config, rng)
        assert state.pbest_fitness[state.core_index] == 0.0
        assert np.array_equal(state.pbest[state.core_index], np.zeros(2))
        assert state.best_fitness == 0.0


def test_step_spark_set_sizes_match_counts():
    objective = sphere_objective(4)
    config = RunConfig(population_size=5, seed=6, gaussian_sparks_per_generation=3)
    state, rng = make_state(objective, config, 6)
    _, trace = traced_step(state, objective, config, rng)
    assert trace.explosion_sparks_mapped.shape == (int(trace.spark_counts.sum()), 4)
    assert trace.gaussian_sparks_mapped.shape == (3, 4)
    assert trace.gaussian_inputs.shape == (3, 4)


def test_step_selected_rows_come_from_the_candidate_set():
    objective = sphere_objective(3)
    config = RunConfig(population_size=5, seed=4)
    state, rng = make_state(objective, config, 4)
    for _ in range(20):
        before = state
        state, trace = traced_step(state, objective, config, rng)
        core = before.core_index
        candidates = np.concatenate((before.fireworks, before.pbest, before.pbest[core : core + 1],
                                     trace.explosion_sparks_mapped, trace.gaussian_sparks_mapped))
        assert np.array_equal(state.fireworks, candidates[trace.selected])
        assert trace.selected[0] == np.argmin(objective.evaluate_many(candidates))


@pytest.mark.parametrize(
    "function,seed,mutant_dims",
    [("f7", 2, [2, 2, 1, 1, 2]), ("f1", 10, [11, 5, 30, 11, 3])],
)
def test_step_integer_draws_follow_the_shuffle_crossover(function, seed, mutant_dims):
    # f7 is 2-d, so every mutant's shuffle is drawn as scalar calls; f1's
    # mutants cross the crossover (up to _SCALAR_SWAPS_MAX swaps scalar,
    # longer shuffles as one array call), and so may the M - 1 selection swaps
    objective = make_objective(function)
    config = RunConfig(seed=seed)
    state, rng = make_state(objective, config, seed)
    recorder = RecordingRng(rng)
    _, trace = traced_step(state, objective, config, recorder)
    m, d = config.population_size, objective.dim

    def shuffle_calls(k, n):
        if k <= _SCALAR_SWAPS_MAX:
            return [(j, n) for j in range(k)]
        return [(list(range(k)), n)]

    expected = []
    for n in mutant_dims:
        expected += [(0, m), (1, d + 1)]
        expected += shuffle_calls(n, d)
    pool = 2 * m + 1 + int(trace.spark_counts.sum()) + config.gaussian_spark_count - 1
    expected += shuffle_calls(m - 1, pool)
    integer_calls = [(size, bounds) for kind, size, bounds, _ in recorder.tape if kind == "integers"]
    assert integer_calls == [(None, bounds) for bounds in expected]
    drawn_dims = [value for kind, _, bounds, value in recorder.tape
                  if kind == "integers" and bounds == (1, d + 1)]
    assert drawn_dims == mutant_dims


# --------------------------------------------------------------------- run


def test_run_same_seed_is_bitwise_identical():
    config = RunConfig(max_iterations=40, seed=123)
    rec1 = lfwa_run(make_objective("f9"), config)
    rec2 = lfwa_run(make_objective("f9"), config)
    assert np.array_equal(rec1.trajectory, rec2.trajectory)
    assert np.array_equal(rec1.final_best.position, rec2.final_best.position)
    assert rec1.final_best.fitness == rec2.final_best.fitness
    assert rec1.evaluations_used == rec2.evaluations_used


def test_run_evaluation_count_is_exact():
    objective = sphere_objective(2)
    config = RunConfig(population_size=3, seed=1, max_iterations=25,
                       gaussian_sparks_per_generation=2)
    rng = RngStream(config.seed)
    state = initialize_state(objective, config, rng)
    expected = config.population_size
    for _ in range(config.max_iterations):
        state, trace = traced_step(state, objective, config, rng)
        expected += int(trace.spark_counts.sum()) + 2
    record = lfwa_run(sphere_objective(2), config)
    assert record.evaluations_used == expected


def test_run_trajectory_length_and_monotone():
    record = lfwa_run(make_objective("f7"), RunConfig(max_iterations=60, seed=9))
    assert record.trajectory.shape == (61,)
    assert np.all(np.diff(record.trajectory) <= 0.0)
    assert record.trajectory[-1] == record.final_best.fitness

