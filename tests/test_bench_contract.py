"""The benchmark in ``bench/`` reaches into the package from outside: its
tracer wraps named functions and ``bench/grid_share.py`` patches two harness
functions. A rename there would not fail the benchmark but quietly blind it
(a traced metric reads 0 and ``trace.boundaries_absent`` rises), so the
names it relies on are checked here. ``bench/`` is read, never changed."""

import os
import sys
from itertools import product

import pytest

import litefwa
import litefwa.cli  # noqa: F401  (the tracer wraps cli.main)
from litefwa import harness
from litefwa.core import RunConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_finds_every_boundary_but_the_retired_batch_repair(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install(litefwa)
    try:
        assert sorted(tracer.absent) == [
            "litefwa.baselines.map_batch_into_bounds",
            "litefwa.lfwa.map_batch_into_bounds",
        ]
    finally:
        tracer.uninstall()


def test_tracer_sees_every_layer_of_a_driven_run(tracer_module):
    # Runs go through core.drive. Each algorithm's generator must still call
    # the names the tracer wraps, looked up when called, or a layer reads 0.
    config = RunConfig(max_iterations=5, seed=0)
    tracer = tracer_module.Tracer()
    tracer.install(litefwa)
    try:
        litefwa.lfwa_run(litefwa.make_objective("f7"), config)
        litefwa.fwa_run(litefwa.make_objective("f7"), litefwa.FwaParams(), config)
        litefwa.spso_run(litefwa.make_objective("f7"), litefwa.SpsoParams(), config)
        litefwa.ba_run(litefwa.make_objective("f7"), litefwa.BaParams(), config)
    finally:
        tracer.uninstall()
    calls = tracer.calls
    assert calls["lfwa.step"] == 5
    # per step on f7 at M = 5: two intensity calls (counts, then their mean),
    # one radius, one sparks, one mutation for all mutants, and one select
    lfwa_layers = ("intensity", "radius", "sparks", "mutation", "select")
    assert [calls[f"lfwa.{layer}"] for layer in lfwa_layers] == [10, 5, 5, 5, 5]
    assert [calls[f"baselines.{name}"] for name in ("fwa", "spso", "ba")] == [1, 1, 1]
    # one batch repair per generation for LFWA, FWA and SPSO; one per bat for BA
    assert calls["lfwa.repair"] == 5 + 5 + 5 + 30 * 5
    assert calls["core.rng"] > 0
    assert calls["benchmarks.eval"] > 0


def test_grid_share_patch_points_are_looked_up_at_call_time(monkeypatch):
    # grid_share.py replaces both module attributes and relies on
    # run_experiment calling _execute_run through the module, once per task.
    calls = []
    execute_run = harness._execute_run

    def counting_run(*args):
        calls.append(args[:2])
        return execute_run(*args)

    monkeypatch.setattr(harness, "_execute_run", counting_run)
    harness.run_experiment("lfwa", "f7", 2, RunConfig(max_iterations=2))
    assert calls == [("lfwa", "f7")]


@pytest.mark.parametrize(
    "runs,jobs,chunks",
    [("3", "3", [[5], [6], [7]]), ("4", "2", [[5, 6], [7, 8]])],
    ids=["runs3-jobs3", "runs4-jobs2"],
)
def test_compare_reaches_execute_run_once_per_chunk_cell_by_cell(
    runs, jobs, chunks, inline_pool, monkeypatch, tmp_path
):
    # The tracer and grid_share.py time tasks by patching
    # harness._execute_run. Every task of a compare, BA's lockstep chunks
    # included, must still call it through the module: one call per chunk
    # of a cell's seeds (one chunk per worker), cell by cell in seed order.
    # With as many workers as runs, every chunk is one replication.
    calls = []
    execute_run = harness._execute_run

    def counting_run(algorithm, function, config, runs, params):
        calls.append((algorithm, function, [config.seed + r for r in range(runs)]))
        return execute_run(algorithm, function, config, runs, params)

    monkeypatch.setattr(harness, "_execute_run", counting_run)
    monkeypatch.chdir(tmp_path)
    code = litefwa.cli.main(
        ["compare", "--algorithms", "spso,ba,lfwa", "--functions", "f9,f7",
         "--runs", runs, "--iterations", "2", "--seed", "5", "--jobs", jobs]
    )
    assert code == 0
    assert calls == [
        (algorithm, function, seeds)
        for algorithm, function in product(["spso", "ba", "lfwa"], ["f9", "f7"])
        for seeds in chunks
    ]
