import json
import math
import os
from dataclasses import replace
from itertools import count

import numpy as np
import pytest

from litefwa.baselines import BaParams, FwaParams, SpsoParams
from litefwa.benchmarks import make_objective
from litefwa.core import EvaluationError, Individual, RunConfig, RunRecord
from litefwa.harness import (
    ALGORITHMS,
    SUMMARY_COLUMNS,
    build_summary_row,
    export_curves,
    params_fingerprint,
    resolved_parameters,
    run_experiment,
    run_grid,
    summarize,
    write_curves_csv,
    write_provenance_json,
    write_summary_csv,
    write_summary_json,
)

FAST = RunConfig(max_iterations=30, seed=0)


def record_from(trajectory, seed=0, algorithm="lfwa", objective="f1"):
    trajectory = np.asarray(trajectory, dtype=float)
    return RunRecord(
        algorithm=algorithm,
        objective=objective,
        seed=seed,
        trajectory=trajectory,
        final_best=Individual(np.zeros(1), trajectory[-1]),
        evaluations_used=1,
    )


# --------------------------------------------------------------- summarize


def test_summarize_hand_computed_three_values():
    summary = summarize([1.0, 2.0, 3.0], declared_optimum=0.0, tolerance=1e-5)
    assert summary.worst == 3.0
    assert summary.best == 1.0
    assert summary.mean == 2.0
    assert summary.sd == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert summary.success_rate == 0.0


def test_summarize_identical_finals_have_zero_sd_and_full_success():
    summary = summarize([-1.0316285] * 4, declared_optimum=-1.0316285, tolerance=1e-5)
    assert summary.sd == 0.0
    assert summary.success_rate == 1.0
    assert summary.best == summary.worst == summary.mean == -1.0316285
    assert summarize([0.0, 0.0, 0.0, 0.0], 0.0, 1e-5).success_rate == 1.0


def test_summarize_boundary_straddle():
    summary = summarize([0.0, 2e-5], declared_optimum=0.0, tolerance=1e-5)
    assert summary.success_rate == 0.5


def test_summarize_tolerance_boundary_is_inclusive():
    summary = summarize([1e-5], declared_optimum=0.0, tolerance=1e-5)
    assert summary.success_rate == 1.0


def test_summarize_single_sample():
    summary = summarize([4.2], declared_optimum=0.0, tolerance=1e-5)
    assert summary.worst == summary.best == summary.mean == 4.2
    assert summary.sd == 0.0


def test_summarize_order_independent():
    finals = [3.0, -1.0, 0.5, 7.25]
    a = summarize(finals, 0.0, 1e-5)
    b = summarize(finals[::-1], 0.0, 1e-5)
    assert (a.worst, a.best, a.mean, a.sd, a.success_rate) == (
        b.worst, b.best, b.mean, b.sd, b.success_rate,
    )


def test_summarize_success_monotone_in_tolerance():
    finals = [0.0, 1e-6, 1e-4, 0.3]
    rates = [summarize(finals, 0.0, tol).success_rate for tol in (1e-3, 1e-5, 1e-7)]
    assert rates == sorted(rates, reverse=True)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], 0.0, 1e-5)


# ----------------------------------------------------------------- curves


def test_curves_single_run_raw_equals_trajectory():
    record = record_from([5.0, 3.0, 1.0])
    table = export_curves([record])
    assert table.columns == ["iteration", "mean_best", "run_0"]
    assert np.array_equal(table.rows[:, 1], [5.0, 3.0, 1.0])
    assert np.array_equal(table.rows[:, 2], [5.0, 3.0, 1.0])


def test_curves_mean_matches_hand_average():
    records = [
        record_from([6.0, 3.0, 0.0], seed=0),
        record_from([3.0, 3.0, 3.0], seed=1),
        record_from([0.0, 0.0, 0.0], seed=2),
    ]
    table = export_curves(records)
    assert np.array_equal(table.rows[:, 1], [3.0, 2.0, 1.0])


def test_curves_log10_floors_exact_zero():
    record = record_from([1.0, 0.0])
    table = export_curves([record], transform="log10")
    assert table.rows[0, 1] == 0.0
    assert table.rows[1, 1] == -300.0


def test_curves_log10_rejects_negative_values():
    # a floor would write -300.0 for them, which reads as convergence to 1e-300
    records = [record_from([2.0, -0.5, -1.25], seed=0), record_from([3.0, 0.0, 0.0], seed=1)]
    with pytest.raises(ValueError, match=r"nonnegative.*the lowest is -1\.25"):
        export_curves(records, transform="log10")
    assert export_curves(records).rows[2, 1] == -0.625


def test_curves_mixed_lengths_error():
    with pytest.raises(ValueError, match="mixed iteration counts"):
        export_curves([record_from([1.0, 0.5]), record_from([1.0])])


def test_curves_mixed_objectives_error():
    with pytest.raises(ValueError, match="mix objectives"):
        export_curves([record_from([1.0]), record_from([1.0], objective="f2")])


def test_curves_unknown_transform_error():
    with pytest.raises(ValueError):
        export_curves([record_from([1.0])], transform="sqrt")


# -------------------------------------------------------------- experiment


def test_run_experiment_seeds_are_consecutive_and_summary_matches():
    summary, records = run_experiment("lfwa", "f9", 3, replace(FAST, seed=100))
    assert [r.seed for r in records] == [100, 101, 102]
    finals = [r.final_best.fitness for r in records]
    assert summary.run_count == 3
    assert summary.best == min(finals)
    assert summary.worst == max(finals)


def test_run_experiment_seeds_come_from_the_config():
    _, records = run_experiment("lfwa", "f7", 2, RunConfig(seed=5, max_iterations=2))
    assert [r.seed for r in records] == [5, 6]


def test_run_experiment_takes_params_and_jobs_by_keyword_only():
    # a stale caller passing a base seed by position fails instead of having
    # the seed taken as params
    with pytest.raises(TypeError):
        run_experiment("lfwa", "f7", 2, RunConfig(max_iterations=2), 0)


def test_run_experiment_single_run_degenerate_summary():
    summary, records = run_experiment("lfwa", "f9", 1, replace(FAST, seed=7))
    assert summary.worst == summary.best == summary.mean == records[0].final_best.fitness
    assert summary.sd == 0.0


def test_run_experiment_is_reproducible():
    s1, r1 = run_experiment("spso", "f8", 2, replace(FAST, seed=5))
    s2, r2 = run_experiment("spso", "f8", 2, replace(FAST, seed=5))
    assert s1.finals.tolist() == s2.finals.tolist()
    for a, b in zip(r1, r2):
        assert np.array_equal(a.trajectory, b.trajectory)


def test_run_experiment_parallel_matches_sequential():
    seq, _ = run_experiment("lfwa", "f9", 4, FAST, jobs=1)
    par, par_records = run_experiment("lfwa", "f9", 4, FAST, jobs=2)
    assert seq.finals.tolist() == par.finals.tolist()
    assert [r.seed for r in par_records] == [0, 1, 2, 3]


def test_run_experiment_unknown_algorithm():
    with pytest.raises(KeyError, match="valid names"):
        run_experiment("cmaes", "f1", 1, FAST)


def test_run_experiment_failed_run_names_the_seed(monkeypatch):
    import litefwa.harness as harness

    def exploding_run(objective, params, config):
        raise ArithmeticError("boom")

    monkeypatch.setitem(harness.ALGORITHMS, "lfwa", replace(ALGORITHMS["lfwa"], run=exploding_run))
    with pytest.raises(RuntimeError, match="seed 31"):
        run_experiment("lfwa", "f1", 1, replace(FAST, seed=31))


def test_run_experiment_unknown_objective_is_a_lookup_error():
    from litefwa.benchmarks import ObjectiveLookupError

    with pytest.raises(ObjectiveLookupError, match="valid names"):
        run_experiment("lfwa", "f99", 1, FAST)


def test_default_params_registry():
    assert ALGORITHMS["lfwa"].params() is None
    assert ALGORITHMS["fwa"].params().total_spark_budget == 50
    assert ALGORITHMS["spso"].params().swarm_size == 30
    assert ALGORITHMS["ba"].params().population == 30
    with pytest.raises(KeyError, match="unknown algorithm 'nope'; valid names: lfwa, fwa, spso, ba"):
        run_experiment("nope", "f1", 1, FAST, params=SpsoParams())


GRID_CELLS = [("lfwa", "f9", None), ("spso", "f7", SpsoParams(swarm_size=6)), ("ba", "f8", None)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_grid_joins_each_cell_in_seed_order_as_run_experiment_does(jobs):
    results = run_grid(GRID_CELLS, 3, replace(FAST, seed=4), jobs=jobs)
    assert len(results) == len(GRID_CELLS)
    for (algorithm, function, params), (summary, records) in zip(GRID_CELLS, results):
        alone, alone_records = run_experiment(
            algorithm, function, 3, replace(FAST, seed=4), params=params
        )
        assert [(r.algorithm, r.objective, r.seed) for r in records] == [
            (algorithm, function, seed) for seed in (4, 5, 6)
        ]
        assert summary.finals.tolist() == alone.finals.tolist()
        assert summary.success_rate == alone.success_rate
        for a, b in zip(records, alone_records):
            assert np.array_equal(a.trajectory, b.trajectory)
            assert a.evaluations_used == b.evaluations_used


def test_run_grid_checks_every_cell_before_any_run(monkeypatch):
    import litefwa.harness as harness

    def no_runs(*args, **kwargs):
        raise AssertionError("a run or a pool started before every cell was checked")

    monkeypatch.setattr(harness, "_execute_run", no_runs)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_runs)
    with pytest.raises(KeyError, match="unknown algorithm 'cmaes'; valid names"):
        run_grid(GRID_CELLS + [("cmaes", "f1", None)], 2, FAST, jobs=2)
    from litefwa.benchmarks import ObjectiveLookupError

    with pytest.raises(ObjectiveLookupError, match="valid names"):
        run_grid(GRID_CELLS + [("lfwa", "f99", None)], 2, FAST, jobs=2)
    with pytest.raises(ValueError, match="runs must be at least 1"):
        run_grid(GRID_CELLS, 0, FAST, jobs=2)
    with pytest.raises(ValueError, match="^jobs must be at least 1, got 0$"):
        run_experiment("ba", "f7", 2, RunConfig(max_iterations=2), jobs=0)
    with pytest.raises(ValueError, match="^jobs must be at least 1, got -2$"):
        run_grid(GRID_CELLS, 2, FAST, jobs=-2)
    for value in (2.5, "2", None):
        with pytest.raises(ValueError, match=f"^runs must be an integer, got {value!r}$"):
            run_grid(GRID_CELLS, value, FAST, jobs=2)
        with pytest.raises(ValueError, match=f"^jobs must be an integer, got {value!r}$"):
            run_grid(GRID_CELLS, 2, FAST, jobs=value)


def test_failed_one_seed_chunk_names_its_seed_not_its_batch_row(inline_pool, monkeypatch):
    # At jobs=2 the 2 seeds run as one-seed chunks [0] and [1]. Seed 1's run
    # fails with an EvaluationError whose row, 3, indexes its own batch, not
    # a run of the chunk: the message names seed 1, not seed 1 + 3.
    import litefwa.harness as harness

    seen, run = [], ALGORITHMS["lfwa"].run

    def lfwa_failing_at_seed_1(objective, params, config):
        seen.append(config.seed)
        if config.seed == 1:
            raise EvaluationError("boom", np.zeros(2), row=3)
        return run(objective, params, config)

    monkeypatch.setitem(
        harness.ALGORITHMS, "lfwa", replace(ALGORITHMS["lfwa"], run=lfwa_failing_at_seed_1)
    )
    with pytest.raises(RuntimeError, match=r"^lfwa run on f1 with seed 1 failed: boom$"):
        run_experiment("lfwa", "f1", 2, FAST, jobs=2)
    assert seen == [0, 1]


CHUNK_CASES = {
    "one-seed": (1, 1, [("run", [0])]),
    "one-chunk": (3, 1, [("run_many", [0, 1, 2])]),
    "jobs2": (3, 2, [("run", [0]), ("run_many", [1, 2])]),
    "jobs3": (5, 3, [("run", [0]), ("run_many", [1, 2]), ("run_many", [3, 4])]),
}
LOCKSTEP_ALGORITHMS = ("ba", "fwa", "spso", "lfwa")


def lockstep_params(cases):
    """Pytest params from ``cases``, algorithm -> case id -> values. BA's
    ids are the case ids alone; the others' carry the algorithm in front."""
    return [
        pytest.param(algorithm, *values, id=name if algorithm == "ba" else f"{algorithm}-{name}")
        for algorithm, by_name in cases.items()
        for name, values in by_name.items()
    ]


@pytest.mark.parametrize("algorithm,runs,jobs,calls",
                         lockstep_params(dict.fromkeys(LOCKSTEP_ALGORITHMS, CHUNK_CASES)))
def test_ba_chunks_run_in_lockstep_unless_they_hold_one_seed(
    algorithm, runs, jobs, calls, inline_pool, monkeypatch
):
    import litefwa.harness as harness

    entry, seen = ALGORITHMS[algorithm], []

    def counting_run(objective, params, config):
        seen.append(("run", [config.seed]))
        return entry.run(objective, params, config)

    def counting_run_many(objective, params, config, runs):
        seen.append(("run_many", [config.seed + r for r in range(runs)]))
        return entry.run_many(objective, params, config, runs)

    monkeypatch.setitem(
        harness.ALGORITHMS, algorithm, replace(entry, run=counting_run, run_many=counting_run_many)
    )
    _, records = run_experiment(algorithm, "f7", runs, FAST, jobs=jobs)
    assert seen == calls
    assert [r.seed for r in records] == list(range(runs))


def objective_with_a_failing_batch(name, failing_call, fail):
    """``make_objective(name)`` whose ``func`` calls ``fail(values)`` on the
    values of its ``failing_call``-th batch (counting from 0)."""
    objective = make_objective(name)
    func, calls = objective.func, count()

    def func_failing_once(x):
        values = np.array(func(x), dtype=float)
        if x.ndim == 2 and next(calls) == failing_call:
            fail(values)
        return values

    objective.func = func_failing_once
    return objective


def nan_in_row(row):
    def fail(values):
        values[row] = np.nan

    return fail


# One task runs seeds 10..13 together. Call 0 is the initial batch of 4 x 30
# bats or particles, or 4 x 5 fireworks; a later call is one bat step or one
# generation. A BA step holds one row per run and an SPSO generation 30;
# an FWA or LFWA generation holds each run's sparks and mutants, so its last
# row belongs to the last run.
NON_FINITE_CASES = {
    "ba": {"initial-batch": (0, 2 * 30 + 1, 12), "initial-batch-first-row": (0, 0, 10),
           "bat-step": (7, 3, 13), "bat-step-first-row": (7, 0, 10)},
    "fwa": {"initial-batch": (0, 2 * 5 + 1, 12), "generation-last-row": (3, -1, 13)},
    "spso": {"initial-batch": (0, 3 * 30 + 7, 13), "generation": (3, 30 + 4, 11)},
    "lfwa": {"initial-batch": (0, 2 * 5 + 1, 12), "generation-last-row": (3, -1, 13)},
}


@pytest.mark.parametrize("algorithm,failing_call,row,seed", lockstep_params(NON_FINITE_CASES))
def test_non_finite_value_in_a_lockstep_batch_names_its_rows_seed(
    algorithm, failing_call, row, seed, monkeypatch
):
    import litefwa.harness as harness

    monkeypatch.setattr(harness, "make_objective", lambda name: objective_with_a_failing_batch(
        name, failing_call, nan_in_row(row)))
    with pytest.raises(RuntimeError) as raised:
        run_experiment(algorithm, "f1", 4, replace(FAST, seed=10))
    assert str(raised.value) == (
        f"{algorithm} run on f1 with seed {seed} failed: f1 returned non-finite value nan"
    )


@pytest.mark.parametrize("algorithm", LOCKSTEP_ALGORITHMS)
def test_other_error_in_a_lockstep_batch_names_the_batchs_seeds(algorithm, monkeypatch):
    import litefwa.harness as harness

    def boom(values):
        raise ArithmeticError("boom")

    monkeypatch.setattr(harness, "make_objective", lambda name: objective_with_a_failing_batch(
        name, 7, boom))
    with pytest.raises(RuntimeError, match=(
            f"^{algorithm} runs on f1 with seeds 10, 11, 12, 13 failed: boom$")):
        run_experiment(algorithm, "f1", 4, replace(FAST, seed=10))


@pytest.mark.parametrize(
    "algorithm,expected_params,expected_population",
    [
        ("lfwa", None, 9),
        ("fwa", ALGORITHMS["fwa"].params(), 9),
        ("spso", SpsoParams(swarm_size=7), 7),
        ("ba", BaParams(population=7), 7),
    ],
)
def test_registry_population_override(algorithm, expected_params, expected_population):
    # RunConfig sets the population of lfwa and fwa; spso and ba take it
    # from their own params field.
    entry = ALGORITHMS[algorithm]
    params = entry.params(7)
    assert params == expected_params
    assert entry.population(RunConfig(population_size=9), params) == expected_population
    assert resolved_parameters(algorithm, RunConfig(population_size=9), params)[
        "population_size"] == expected_population


def test_provenance_lfwa_only_fields():
    config = RunConfig(gaussian_sparks_per_generation=3)
    for algorithm, entry in ALGORITHMS.items():
        payload = resolved_parameters(algorithm, config, entry.params())
        expected = (3, False) if algorithm == "lfwa" else (None, None)
        assert (payload["gaussian_sparks_per_generation"], payload["scalar_beta"]) == expected


# ----------------------------------------------------------------- writers


def test_summary_row_and_csv_round_trip(tmp_path):
    summary, _ = run_experiment("lfwa", "f9", 2, FAST)
    parameters = resolved_parameters("lfwa", FAST, None)
    row = build_summary_row("f9", summary, 0, parameters)
    assert list(row) == SUMMARY_COLUMNS
    assert (row["runs"], row["iterations"], row["pop_size"]) == (2, 30, 5)
    assert row["params_fingerprint"] == params_fingerprint(parameters)
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [row])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "lfwa"
    assert float(cells[7]) == summary.mean


@pytest.mark.parametrize(
    "algorithm,numpy_params",
    [
        ("lfwa", None),
        ("fwa", FwaParams(total_spark_budget=np.int64(50), gaussian_spark_count=np.int32(5))),
        ("spso", SpsoParams(swarm_size=np.int64(30))),
        ("ba", BaParams(population=np.uint16(30))),
        # numpy floats that represent the defaults exactly
        ("fwa", FwaParams(max_amplitude=np.float32(40.0))),
        ("spso", SpsoParams(cognitive=np.float32(2.0), velocity_clamp_fraction=np.float16(0.5))),
        ("ba", BaParams(frequency_min=np.float16(0.0), frequency_max=np.float32(2.0))),
    ],
)
def test_numpy_integer_fields_give_the_int_run(algorithm, numpy_params, tmp_path):
    plain_config = RunConfig(population_size=5, max_iterations=6, tolerance=0.5, seed=3,
                             gaussian_sparks_per_generation=4)
    numpy_config = RunConfig(population_size=np.int64(5), max_iterations=np.int32(6),
                             tolerance=np.float16(0.5), seed=np.uint8(3),
                             gaussian_sparks_per_generation=np.int64(4))
    plain_params = ALGORITHMS[algorithm].params()
    assert numpy_config == plain_config and numpy_params == plain_params
    for fields in (vars(numpy_config), vars(numpy_params) if numpy_params else {}):
        assert not any(isinstance(v, np.generic) for v in fields.values()), fields
    results = []
    for config, params in ((plain_config, plain_params), (numpy_config, numpy_params)):
        payload = resolved_parameters(algorithm, config, params)
        path = tmp_path / f"{len(results)}.json"
        write_provenance_json(path, payload)
        record = ALGORITHMS[algorithm].run(make_objective("f7"), params, config)
        assert type(record.seed) is int
        results.append((params_fingerprint(payload), path.read_bytes(), record.seed,
                        record.trajectory.tobytes(), record.final_best.position.tobytes(),
                        record.evaluations_used))
    assert results[0] == results[1]


def test_fingerprint_is_stable_and_sensitive():
    payload = resolved_parameters("spso", FAST, ALGORITHMS["spso"].params())
    assert params_fingerprint(payload) == params_fingerprint(dict(payload))
    changed = dict(payload)
    changed["population_size"] = 31
    assert params_fingerprint(changed) != params_fingerprint(payload)


def test_curves_csv_and_provenance_files(tmp_path):
    _, records = run_experiment("lfwa", "f9", 2, replace(FAST, seed=3))
    table = export_curves(records)
    curve_path = tmp_path / "curves.csv"
    write_curves_csv(curve_path, table)
    lines = curve_path.read_text().strip().split("\n")
    assert lines[0] == "iteration,mean_best,run_3,run_4"
    assert len(lines) == FAST.max_iterations + 2

    prov_path = tmp_path / "prov.json"
    write_provenance_json(prov_path, resolved_parameters("lfwa", FAST, None))
    loaded = json.loads(prov_path.read_text())
    assert loaded["sd_convention"] == "population (divide by N)"
    assert loaded["algorithm"] == "lfwa"


WRITERS = [
    (write_summary_csv, [{c: 1 for c in SUMMARY_COLUMNS}]),
    (write_summary_json, [{"algorithm": "lfwa", "mean": 0.5}]),
    (write_curves_csv, export_curves([record_from([3.0, 2.0])])),
    (write_provenance_json, {"algorithm": "lfwa"}),
]


@pytest.mark.parametrize("writer,payload", WRITERS, ids=[w.__name__ for w, _ in WRITERS])
def test_writer_replaces_target_whole_and_leaves_no_temp_file(writer, payload, tmp_path):
    target = tmp_path / "out"
    target.write_text("old\n")
    writer(target, payload)
    assert target.read_text() != "old\n"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("writer", [write_summary_json, write_provenance_json])
def test_writer_failing_mid_write_keeps_target_and_removes_temp_file(writer, tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    target = tmp_path / "out.json"
    target.write_text("old\n")
    # The first entries are written to the temporary file before the last fails.
    payload = [{"a": 1.0}] * 2000 + [{"b": Unprintable()}]
    with pytest.raises((TypeError, RuntimeError)):
        writer(target, payload)
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_writer_failing_rename_keeps_target_and_removes_temp_file(tmp_path, monkeypatch):
    import litefwa.harness as harness

    def failing_replace(src, dst):
        raise OSError("rename failed")

    target = tmp_path / "summary.csv"
    target.write_text("old\n")
    monkeypatch.setattr(harness.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_summary_csv(target, [{c: 1 for c in SUMMARY_COLUMNS}])
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["summary.csv"]
