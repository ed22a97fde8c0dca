import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litefwa.benchmarks import make_objective
from litefwa.core import (
    EvaluationError,
    Individual,
    RngStream,
    RunConfig,
    RunRecord,
    SearchSpace,
)
from litefwa.lfwa import lfwa_run


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        SearchSpace(np.array([1.0]), np.array([1.0]))
    space = SearchSpace.symmetric(100.0, 30)
    assert space.dim == 30
    assert np.all(space.width == 200.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["lower", "upper"])
def test_search_space_rejects_non_finite_bounds(field, value):
    bounds = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    bounds[field][1] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SearchSpace(**bounds)


def test_search_space_contains_and_sample():
    space = SearchSpace.symmetric(5.0, 3)
    assert space.contains([0.0, 5.0, -5.0])
    assert not space.contains([0.0, 5.0001, 0.0])
    points = space.sample(RngStream(7), 100)
    assert points.shape == (100, 3)
    assert all(space.contains(p) for p in points)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 30), dim=st.integers(1, 30))
def test_search_space_sample_equals_row_by_row_draws(seed, count, dim):
    # One (count, d) draw gives the rows of count consecutive (d,) draws,
    # and leaves the stream where they leave it.
    space = SearchSpace(np.linspace(-3.0, 1.0, dim), np.linspace(2.0, 9.0, dim))
    joined, split = RngStream(seed), RngStream(seed)
    rows = [space.lower + split.uniform(size=dim) * space.width for _ in range(count)]
    assert np.array_equal(space.sample(joined, count), np.reshape(rows, (count, dim)))
    assert joined._gen.bit_generator.state == split._gen.bit_generator.state


def test_individual_rejects_non_finite_fitness():
    with pytest.raises(ValueError):
        Individual(np.zeros(2), float("nan"))
    with pytest.raises(ValueError):
        Individual(np.zeros(2), float("inf"))
    ind = Individual([1.0, 2.0], 3)
    assert ind.fitness == 3.0
    assert ind.position.dtype == np.float64


def test_rng_stream_determinism():
    a = RngStream(123)
    b = RngStream(123)
    assert a.uniform() == b.uniform()
    assert np.array_equal(a.uniform(size=(3, 2)), b.uniform(size=(3, 2)))
    assert a.normal() == b.normal()
    assert a.integers(0, 10) == b.integers(0, 10)
    c = RngStream(124)
    assert RngStream(123).uniform() != c.uniform()


def test_rng_stream_ranges():
    rng = RngStream(5)
    u = rng.uniform(size=10_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    ints = np.array([rng.integers(2, 5) for _ in range(500)])
    assert set(ints) == {2, 3, 4}


def _state(rng):
    return rng._gen.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 60),
    n=st.integers(1, 2**40),
    before=st.integers(0, 3),
)
def test_rng_integers_array_low_equals_scalar_draws(seed, k, n, before):
    # LFWA's batched Fisher-Yates shuffles rely on this identity; ``before``
    # leaves a buffered 32-bit half-word in the stream first
    n = max(n, k)
    joined, single = RngStream(seed), RngStream(seed)
    for rng in (joined, single):
        for _ in range(before):
            rng.integers(0, 7)
    batch = joined.integers(np.arange(k), n)
    assert isinstance(batch, np.ndarray) and batch.shape == (k,)
    assert batch.tolist() == [single.integers(j, n) for j in range(k)]
    assert _state(joined) == _state(single)
    assert joined.uniform() == single.uniform() and joined.integers(0, 5) == single.integers(0, 5)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    width=st.integers(1, 4),
    interleave=st.booleans(),
)
def test_rng_uniform_split_equals_joined(seed, sizes, width, interleave):
    # LFWA draws all displacement betas, and all repair betas, as one block
    joined, split = RngStream(seed), RngStream(seed)
    if interleave:  # a buffered 32-bit half-word must not disturb doubles
        joined.integers(0, 9)
        split.integers(0, 9)
    block = joined.uniform(size=(sum(sizes), width))
    parts = [split.uniform(size=(size, width)) for size in sizes]
    assert np.array_equal(block, np.concatenate(parts))
    assert _state(joined) == _state(split)


def test_rng_integers_scalar_bounds_give_python_int():
    value = RngStream(1).integers(0, 10)
    assert type(value) is int
    assert RngStream(1).integers(0, 10, size=3).shape == (3,)


def test_run_config_defaults_and_validation():
    config = RunConfig()
    assert config.population_size == 5
    assert config.max_iterations == 1000
    assert config.tolerance == 1e-5
    assert config.xi == np.finfo(np.float64).eps
    assert config.gaussian_spark_count == 5

    assert RunConfig(gaussian_sparks_per_generation=3).gaussian_spark_count == 3
    assert RunConfig(population_size=8).gaussian_spark_count == 8

    with pytest.raises(ValueError):
        RunConfig(population_size=1)
    with pytest.raises(ValueError):
        RunConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        RunConfig(xi=0.0)
    with pytest.raises(ValueError):
        RunConfig(population_size=0)
    with pytest.raises(ValueError):
        RunConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        RunConfig(gaussian_sparks_per_generation=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_run_config_rejects_non_finite_tolerance(value):
    with pytest.raises(ValueError, match="tolerance must be finite"):
        RunConfig(tolerance=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_run_config_rejects_non_finite_or_nonpositive_xi(value):
    with pytest.raises(ValueError, match="xi must be finite and positive"):
        RunConfig(xi=value)


# None is gaussian_sparks_per_generation's documented default
NON_INTEGER_FIELDS = [
    (field, value)
    for field in ("population_size", "max_iterations", "seed", "gaussian_sparks_per_generation")
    for value in (float("nan"), 2.5, 10.0, "3", None)
    if not (value is None and field == "gaussian_sparks_per_generation")
]


@pytest.mark.parametrize("field,value", NON_INTEGER_FIELDS)
def test_run_config_rejects_non_integer_fields(field, value):
    # NaN and fractions used to pass the range checks and fail mid-run, and
    # a fractional seed ran silently as its integer part
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        RunConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, np.int64(-3)])
def test_run_config_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match="^seed must be nonnegative"):
        RunConfig(seed=seed)


def test_run_config_accepts_numpy_integers():
    numpy_fields = {"population_size": np.int64(3), "max_iterations": np.int64(4),
                    "seed": np.int64(2), "gaussian_sparks_per_generation": np.int64(2)}
    config = RunConfig(**numpy_fields)
    plain = RunConfig(**{name: int(value) for name, value in numpy_fields.items()})
    a = lfwa_run(make_objective("f7"), config)
    b = lfwa_run(make_objective("f7"), plain)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert a.evaluations_used == b.evaluations_used


def test_run_record_validation():
    good = RunRecord(
        algorithm="lfwa",
        objective="f1",
        seed=0,
        trajectory=[3.0, 2.0, 2.0],
        final_best=Individual(np.zeros(2), 2.0),
        evaluations_used=10,
    )
    assert good.trajectory.dtype == np.float64
    with pytest.raises(ValueError):
        RunRecord("lfwa", "f1", 0, [1.0, 2.0], Individual(np.zeros(2), 2.0), 1)
    with pytest.raises(ValueError):
        RunRecord("lfwa", "f1", 0, [2.0, 1.0], Individual(np.zeros(2), 0.5), 1)


def test_evaluation_error_carries_position():
    err = EvaluationError("bad", [1.0, 2.0])
    assert np.array_equal(err.position, [1.0, 2.0])
