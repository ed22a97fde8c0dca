"""Benchmark workloads, driven only through litefwa's stable entry points.

The untraced benchmark calls nothing but ``make_objective``, ``RunConfig``,
the ``*Params`` classes, the four ``*_run`` functions and ``cli.main``, all
looked up on the package at call time. It never touches
``harness.ALGORITHMS`` or ``default_params``, which a planned refactor
replaces, and the tracer can wrap exactly the names called here.

Each workload is a sequence of *units*. A unit is one round of serial runs
at one seed, or one sweep of ``litefwa compare`` calls over the grid at one
seed, one call per function. Unit i uses seed ``base + i``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile

SERIAL_FUNCTIONS = ("f1", "f2", "f5", "f7")
SERIAL_ITERATIONS = 1000  # the RunConfig default, stated so the checks know it
ALL_FUNCTIONS = tuple(f"f{i}" for i in range(1, 10))
BASELINES = ("fwa", "spso", "ba")

# The compare grid: all four algorithms over f1..f9 at the CLI's default
# --runs 20, so each cell hands its pool as many tasks as a default compare
# does. Iterations are cut from the default 1000 to 50 so that a few sweeps
# fit in one benchmark run; README.md gives the share of pool start-up and
# per-cell barrier time this leaves, next to the default protocol's. A sweep
# runs the grid as one compare per function (four cells each), so that a
# benchmark run times a few dozen calls rather than three or four grids.
GRID_ALGORITHMS = ("lfwa", "fwa", "spso", "ba")
GRID_RUNS = 20
GRID_ITERATIONS = 50
GRID_JOBS = 2

WORKLOADS = ("lfwa-serial", "baselines-serial", "compare-grid")

# What the committed digests were made under; golden.json records it.
PROTOCOL = {
    "serial_functions": list(SERIAL_FUNCTIONS),
    "serial_iterations": SERIAL_ITERATIONS,
    "grid_algorithms": list(GRID_ALGORITHMS),
    "grid_runs": GRID_RUNS,
    "grid_iterations": GRID_ITERATIONS,
    "grid_jobs": GRID_JOBS,
    "grid_call": "one compare per function",
}


def serial_algorithms(workload: str) -> tuple[str, ...]:
    return ("lfwa",) if workload == "lfwa-serial" else BASELINES


def serial_unit(workload: str, seed: int, functions: tuple[str, ...] = SERIAL_FUNCTIONS
                ) -> list[tuple[str, str, int]]:
    """The (algorithm, function, seed) runs of one round, in execution order;
    ``functions`` restricts the round to part of SERIAL_FUNCTIONS."""
    return [(alg, fn, seed) for fn in functions for alg in serial_algorithms(workload)]


def run_one(litefwa, algorithm: str, function: str, seed: int,
            iterations: int = SERIAL_ITERATIONS):
    """One optimizer run with default parameters; returns its RunRecord."""
    objective = litefwa.make_objective(function)
    config = litefwa.RunConfig(seed=seed, max_iterations=iterations)
    if algorithm == "lfwa":
        return litefwa.lfwa_run(objective, config)
    params = {
        "fwa": litefwa.FwaParams,
        "spso": litefwa.SpsoParams,
        "ba": litefwa.BaParams,
    }[algorithm]()
    return getattr(litefwa, f"{algorithm}_run")(objective, params, config)


def compare_cells(functions: tuple[str, ...]) -> list[tuple[str, str]]:
    return [(alg, fn) for alg in GRID_ALGORITHMS for fn in functions]


def compare_generations(functions: tuple[str, ...]) -> int:
    return len(compare_cells(functions)) * GRID_RUNS * GRID_ITERATIONS


def run_compare(cli, functions: tuple[str, ...], seed: int, jobs: int, scratch_dir: str,
                runs: int = GRID_RUNS, iterations: int = GRID_ITERATIONS
                ) -> tuple[int, bytes, bytes]:
    """One ``litefwa compare`` of every grid algorithm over ``functions``,
    writing into a fresh directory under ``scratch_dir``; returns the exit
    code and the bytes of the summary CSV and provenance JSON (empty when
    missing)."""
    out_dir = tempfile.mkdtemp(dir=scratch_dir)
    base = os.path.join(out_dir, "grid")
    argv = [
        "compare",
        "--algorithms", ",".join(GRID_ALGORITHMS),
        "--functions", ",".join(functions),
        "--runs", str(runs),
        "--iterations", str(iterations),
        "--seed", str(seed),
        "--jobs", str(jobs),
        "--output", base,
    ]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        files = []
        for suffix in ("_summary.csv", "_provenance.json"):
            try:
                with open(base + suffix, "rb") as fh:
                    files.append(fh.read())
            except FileNotFoundError:
                files.append(b"")
        return code, files[0], files[1]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
