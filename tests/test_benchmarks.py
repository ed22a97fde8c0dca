"""Registry checks: metadata, declared optima at known minimizers, and the
independent oracles for the two non-trivial entries (f7 located by dense
grid plus local refinement, f6's true floor by 1-d dense grid)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litefwa.benchmarks import Objective, ObjectiveLookupError, make_objective, objective_names
from litefwa.core import EvaluationError, SearchSpace

EXPECTED_METADATA = {
    # name: (label, dim, half_width, declared_optimum)
    "f1": ("Sphere", 30, 100.0, 0.0),
    "f2": ("Rosenbrock", 30, 10.0, 0.0),
    "f3": ("Rastrigin", 30, 5.12, 0.0),
    "f4": ("Griewank", 30, 600.0, 0.0),
    "f5": ("Ackley", 30, 32.0, 0.0),
    "f6": ("Schwefel (as circulated)", 30, 100.0, 0.0),
    "f7": ("Six-Hump Camel-Back", 2, 5.0, -1.0316285),
    "f8": ("Goldstein-Price", 2, 2.0, 3.0),
    "f9": ("Schaffer F6", 2, 100.0, 0.0),
}


def test_registry_is_complete_and_ordered():
    assert objective_names() == [f"f{i}" for i in range(1, 10)]


@pytest.mark.parametrize("name", list(EXPECTED_METADATA))
def test_registry_metadata(name):
    label, dim, half_width, optimum = EXPECTED_METADATA[name]
    obj = make_objective(name)
    assert obj.label == label
    assert obj.dim == dim
    assert np.all(obj.space.lower == -half_width)
    assert np.all(obj.space.upper == half_width)
    assert obj.declared_optimum == optimum


def test_unknown_name_lists_valid_ones():
    with pytest.raises(ObjectiveLookupError, match="f1, f2, f3"):
        make_objective("f99")


@pytest.mark.parametrize("name", [n for n in EXPECTED_METADATA if n != "f6"])
def test_known_minimizer_attains_declared_optimum(name):
    obj = make_objective(name)
    value = obj.evaluate(obj.known_minimizer)
    assert abs(value - obj.declared_optimum) <= 1e-6


def test_f6_has_no_registered_minimizer_and_is_flagged():
    obj = make_objective("f6")
    assert obj.known_minimizer is None
    assert obj.optimum_inconsistent
    assert not obj.standard_form
    assert obj.evaluate(np.zeros(30)) == 0.0


def test_f3_records_the_tabulated_label():
    assert make_objective("f3").source_label == "Rosenbrock"


def test_evaluation_counter_counts_rows():
    obj = make_objective("f1")
    obj.evaluate(np.zeros(30))
    obj.evaluate_many(np.zeros((7, 30)))
    assert obj.eval_count == 8


def test_dimension_mismatch_raises():
    obj = make_objective("f7")
    with pytest.raises(ValueError, match="dimension 2"):
        obj.evaluate(np.zeros(3))


def test_objective_takes_its_dimension_from_its_space():
    obj = Objective(name="sphere3", label="Sphere", space=SearchSpace.symmetric(1.0, 3),
                    declared_optimum=0.0, known_minimizer=np.zeros(3),
                    func=lambda x: np.sum(x * x, axis=-1))
    assert obj.dim == 3
    assert obj.evaluate_many(np.zeros((5, 3))).tolist() == [0.0] * 5
    assert dataclasses.replace(obj, space=SearchSpace.symmetric(1.0, 2)).dim == 2


def test_non_finite_value_raises_evaluation_error():
    obj = make_objective("f1")
    obj.func = lambda x: np.full(np.shape(x)[:-1], np.nan)
    x = np.linspace(-1.0, 1.0, 30)
    with pytest.raises(EvaluationError) as info:
        obj.evaluate(x)
    assert np.array_equal(info.value.position, x)
    assert obj.eval_count == 1


def test_non_finite_value_in_a_batch_names_the_first_bad_row():
    obj = make_objective("f1")
    func = obj.func

    def nan_in_row_2_inf_in_row_4(x):
        values = func(x)
        values[2], values[4] = np.nan, np.inf
        return values

    obj.func = nan_in_row_2_inf_in_row_4
    positions = np.arange(6 * 30, dtype=float).reshape(6, 30)
    with pytest.raises(EvaluationError, match=r"^f1 returned non-finite value nan$") as info:
        obj.evaluate_many(positions)
    assert info.value.row == 2
    assert np.array_equal(info.value.position, positions[2])
    assert obj.eval_count == 6


@st.composite
def in_box_points(draw):
    """A registry function name and a point inside its (uniform) box."""
    name = draw(st.sampled_from(objective_names()))
    obj = make_objective(name)
    coordinate = st.floats(obj.space.lower[0], obj.space.upper[0], allow_nan=False)
    return name, draw(st.lists(coordinate, min_size=obj.dim, max_size=obj.dim))


@settings(max_examples=300, deadline=None)
@given(case=in_box_points())
def test_evaluate_equals_one_row_batch(case):
    name, point = case
    obj = make_objective(name)
    x = np.asarray(point)
    value = obj.evaluate(x)
    assert obj.eval_count == 1
    assert obj.evaluate(point) == value  # a list is accepted
    assert obj.eval_count == 2
    batch = obj.evaluate_many(x[None])
    assert np.float64(value).tobytes() == batch[0].tobytes()


@pytest.mark.parametrize("name", objective_names())
def test_evaluate_rejects_every_other_shape(name):
    obj = make_objective(name)
    for shape in [(obj.dim + 1,), (1, obj.dim), ()]:
        with pytest.raises(ValueError, match=f"dimension {obj.dim}, got array of shape"):
            obj.evaluate(np.zeros(shape))
    assert obj.eval_count == 0


@st.composite
def kernel_batches(draw):
    """A registry function, a random in-box batch, and an index k whose row
    hypothesis draws (and may pick from the edges of the box)."""
    name = draw(st.sampled_from(objective_names()))
    obj = make_objective(name)
    rows = draw(st.integers(1, 40))
    k = draw(st.integers(0, rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = rng.uniform(obj.space.lower, obj.space.upper, (rows, obj.dim))
    coordinate = st.floats(obj.space.lower[0], obj.space.upper[0], allow_nan=False)
    batch[k] = draw(st.lists(coordinate, min_size=obj.dim, max_size=obj.dim))
    return obj.func, batch, k


@settings(max_examples=300, deadline=None)
@given(case=kernel_batches())
def test_kernel_scores_a_row_alone_and_in_a_batch_with_the_same_bits(case):
    # Single-row callers (BA) and batch callers (the rest) must score one
    # point identically: a (d,) row reduces to a scalar with the bits of its
    # entry in any batch.
    func, batch, k = case
    row = batch[k].copy()
    alone = func(row)
    assert np.ndim(alone) == 0
    assert np.float64(alone).tobytes() == func(row[None])[0].tobytes()
    assert np.float64(alone).tobytes() == func(batch)[k].tobytes()


@pytest.mark.parametrize("name", objective_names())
def test_kernel_scores_every_row_of_a_large_batch_alone_with_the_same_bits(name):
    # A last-bit difference between the scalar and the array arithmetic (a
    # numpy scalar's ``** 2`` against the array square, say) shows on about
    # one row in a few thousand, too rarely for the property above to meet.
    obj = make_objective(name)
    batch = np.random.default_rng(9).uniform(obj.space.lower, obj.space.upper, (20000, obj.dim))
    alone = np.array([obj.func(row) for row in batch])
    assert alone.tobytes() == obj.func(batch).tobytes()


@pytest.mark.parametrize(
    "func",
    [lambda x: np.full(len(x), 2.0), lambda x: np.sum(x * x, axis=1), lambda x: x[:, 0]],
    ids=["one-value-per-row", "axis-1-reduction", "column-index"],
)
def test_evaluate_names_the_func_contract_for_a_batch_only_func(func):
    obj = make_objective("f1")
    obj.func = func
    message = r"f1: func must map positions of shape \(\.\.\., 30\) to values of shape \(\.\.\.\)"
    with pytest.raises(ValueError, match=message + r"; positions of shape \(30,\)"):
        obj.evaluate(np.zeros(30))
    assert obj.eval_count == 0


def test_evaluate_many_names_the_func_contract_for_a_scalar_func():
    obj = make_objective("f7")
    obj.func = lambda x: 1.5
    with pytest.raises(ValueError, match=r"positions of shape \(4, 2\) gave shape \(\)"):
        obj.evaluate_many(np.zeros((4, 2)))
    assert obj.eval_count == 0


# The registry's kernels written with the numpy wrappers they replaced.
WRAPPER_KERNELS = {
    "f1": lambda x: np.sum(x * x, axis=1),
    "f2": lambda x: np.sum(
        100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (x[:, :-1] - 1.0) ** 2, axis=1
    ),
    "f3": lambda x: np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=1),
    "f4": lambda x: (
        np.sum(x * x, axis=1) / 4000.0
        - np.prod(np.cos(x / np.sqrt(np.arange(1, x.shape[1] + 1, dtype=float))), axis=1)
        + 1.0
    ),
    "f5": lambda x: (
        -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x * x, axis=1)))
        - np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=1))
        + 20.0
        + np.e
    ),
    "f6": lambda x: np.sum(-x * np.sin(np.sqrt(np.abs(x))), axis=1),
}


@pytest.mark.parametrize("name", sorted(WRAPPER_KERNELS))
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_kernels_equal_their_wrapper_form_bit_for_bit(name, rows):
    obj = make_objective(name)
    x = np.random.default_rng(rows).uniform(obj.space.lower, obj.space.upper, (rows, obj.dim))
    assert obj.evaluate_many(x).tobytes() == WRAPPER_KERNELS[name](x).tobytes()


def test_metadata_keeps_scalar_bounds_on_uniform_boxes():
    meta = make_objective("f7").metadata
    assert (meta["lower"], meta["upper"]) == (-5.0, 5.0)


def test_metadata_lists_bounds_of_a_non_uniform_box():
    space = SearchSpace(np.array([-5.0, 0.0]), np.array([10.0, 15.0]))
    obj = dataclasses.replace(make_objective("f7"), space=space)
    meta = obj.metadata
    assert meta["lower"] == [-5.0, 0.0]
    assert meta["upper"] == [10.0, 15.0]
    # a box with only one side uniform is still reported per dimension
    space = SearchSpace(np.array([-5.0, -5.0]), np.array([10.0, 15.0]))
    meta = dataclasses.replace(obj, space=space).metadata
    assert (meta["lower"], meta["upper"]) == ([-5.0, -5.0], [10.0, 15.0])


def test_purity_bitwise_repeatable():
    rng = np.random.default_rng(0)
    for name in objective_names():
        obj = make_objective(name)
        x = rng.uniform(obj.space.lower, obj.space.upper)
        assert obj.evaluate(x) == obj.evaluate(x)


@pytest.mark.parametrize("name", ["f1", "f3", "f4", "f5", "f9"])
def test_sign_flip_symmetry(name):
    obj = make_objective(name)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(obj.space.lower, obj.space.upper)
        flip = np.where(rng.uniform(size=obj.dim) < 0.5, -1.0, 1.0)
        assert obj.evaluate(x) == pytest.approx(obj.evaluate(x * flip), abs=1e-9)


def test_point_values():
    # direct hand evaluations of the implemented forms
    assert make_objective("f1").evaluate(np.zeros(30)) == 0.0
    assert make_objective("f2").evaluate(np.ones(30)) == 0.0
    assert make_objective("f2").evaluate(np.zeros(30)) == 29.0
    assert make_objective("f3").evaluate(np.zeros(30)) == 0.0
    assert make_objective("f4").evaluate(np.zeros(30)) == 0.0
    f5_at_zero = make_objective("f5").evaluate(np.zeros(30))
    assert 0.0 <= f5_at_zero <= 8.882e-16  # floating-point floor, not exact 0
    assert make_objective("f8").evaluate([0.0, -1.0]) == 3.0
    assert make_objective("f9").evaluate([0.0, 0.0]) == 0.0


def test_f7_optimum_against_grid_refinement_oracle():
    """Locate the camel-back minimum independently: dense grid, then local
    refinement from the best cell."""
    from scipy.optimize import minimize

    obj = make_objective("f7")
    xs = np.linspace(-5.0, 5.0, 401)
    grid = np.array(np.meshgrid(xs, xs)).reshape(2, -1).T
    values = obj.func(grid)
    start = grid[np.argmin(values)]
    result = minimize(
        lambda z: float(obj.func(z[None, :])[0]),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14},
    )
    assert abs(result.fun - obj.declared_optimum) <= 1e-6
    # the registered minimizer agrees with the oracle's location up to the
    # function's sign symmetry (x -> -x)
    assert min(
        np.linalg.norm(result.x - obj.known_minimizer),
        np.linalg.norm(result.x + obj.known_minimizer),
    ) < 1e-4
    assert abs(obj.evaluate(obj.known_minimizer) - obj.declared_optimum) <= 1e-6


def test_f6_true_floor_is_negative_by_dense_grid_oracle():
    """The circulated formula's real minimum contradicts its declared 0:
    separable, so a 1-d dense grid per dimension bounds the 30-d minimum."""
    xs = np.linspace(-100.0, 100.0, 2_000_001)
    per_dim = -xs * np.sin(np.sqrt(np.abs(xs)))
    per_dim_min = per_dim.min()
    assert per_dim_min < 0.0
    assert per_dim_min == pytest.approx(-63.63498, abs=1e-3)
    true_floor = 30.0 * per_dim_min
    assert true_floor == pytest.approx(-1909.05, abs=0.1)

    obj = make_objective("f6")
    assert true_floor < obj.declared_optimum
    # the grid argmin is a genuine feasible point of the 30-d objective
    best_x = xs[np.argmin(per_dim)]
    assert obj.evaluate(np.full(30, best_x)) == pytest.approx(true_floor, rel=1e-12)
