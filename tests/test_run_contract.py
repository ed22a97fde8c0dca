"""The run contract every registered algorithm keeps under ``core.drive``.

One property over algorithm x function x seed x iterations: the trajectory
has one best-so-far value after initialization and one per generation, and
never rises; its last value is the final best's fitness, which re-evaluates
to itself and lies in the box; the evaluations used are exactly what the
objective counted; and a repeated seed repeats every bit. At 0 iterations
only the initial population is evaluated, by the single-run forms and by
each run of the lockstep forms, which pins that ``core.drive`` never
resumes an algorithm after the last generation it asked for.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_box
from litefwa.benchmarks import make_objective, objective_names
from litefwa.core import RunConfig
from litefwa.harness import ALGORITHMS


def _run(algorithm, function, config):
    entry = ALGORITHMS[algorithm]
    params = entry.params()
    objective = make_objective(function)
    before = objective.eval_count
    record = entry.run(objective, params, config)
    return record, objective, objective.eval_count - before, entry.population(config, params)


@settings(max_examples=300, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    function=st.sampled_from(objective_names()),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(0, 15),
)
def test_every_algorithm_keeps_the_run_contract(algorithm, function, seed, iterations):
    config = RunConfig(max_iterations=iterations, seed=seed)
    record, objective, counted, population = _run(algorithm, function, config)

    assert (record.algorithm, record.objective, record.seed) == (algorithm, function, seed)
    assert record.trajectory.shape == (iterations + 1,)
    assert np.all(np.diff(record.trajectory) <= 0.0)
    assert record.evaluations_used == counted
    if iterations == 0:
        assert counted == population
    best = record.final_best
    assert record.trajectory[-1] == best.fitness == objective.evaluate(best.position)
    assert in_box(objective.space, best.position)

    again, _, _, _ = _run(algorithm, function, config)
    assert again.trajectory.tobytes() == record.trajectory.tobytes()
    assert again.final_best.position.tobytes() == best.position.tobytes()
    assert again.final_best.fitness == best.fitness
    assert again.evaluations_used == record.evaluations_used


def test_zero_iterations_evaluate_exactly_the_initial_populations():
    config = RunConfig(max_iterations=0, seed=4)
    used = {name: _run(name, "f7", config)[2] for name in ALGORITHMS}
    assert used == {"lfwa": 5, "fwa": 5, "spso": 30, "ba": 30}
    # the lockstep forms: each record counts its own population, the
    # objective both
    for name, entry in ALGORITHMS.items():
        objective = make_objective("f7")
        records = entry.run_many(objective, entry.params(), config, 2)
        assert [r.evaluations_used for r in records] == [used[name]] * 2
        assert objective.eval_count == 2 * used[name]
