"""Experiment protocol: repeated seeded runs, summary statistics, curve export.

An experiment is ``runs`` independent replications with seeds
``config.seed + 0 .. config.seed + runs - 1``. Summaries report worst, best,
mean, and population standard deviation (divide by N; the convention is
pinned here and printed in provenance files), plus the fraction of runs
whose final best lies within the tolerance of the objective's declared
optimum. Convergence curves are exported as per-iteration means across runs
with one column per run and an optional log10 transform.

``run_grid`` runs a grid of experiments as one flat task list through one
process pool per call, and joins the results by position;
``run_experiment`` is its one-cell case. A task is one contiguous chunk of a
cell's seeds, one chunk per worker, given as its first seed's config and a
run count; its runs share one objective, since every run form counts its own
evaluations. Every algorithm has a lockstep form (``lfwa_runs``,
``fwa_runs``, ``spso_runs``, ``ba_runs``) that runs a chunk's replications
together, sharing every array call, and gives each seed its one-run record
bit for bit; a chunk of more than one seed runs through it. A one-seed
chunk takes the single-run form. For FWA and SPSO that is the lockstep
form's chunk of one, their only body; LFWA and BA keep a body of their own
for one seed, where their lockstep forms cost about 1.2 and 2.2 times as
much.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import uuid
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import baselines, lfwa
from .benchmarks import make_objective
from .core import XI, EvaluationError, RunConfig, RunRecord, as_integer

__all__ = [
    "ExperimentSummary",
    "RunRecord",
    "ALGORITHMS",
    "Algorithm",
    "run_experiment",
    "run_grid",
    "summarize",
    "export_curves",
    "CurveTable",
    "build_summary_row",
    "summary_lines",
    "params_fingerprint",
    "write_summary_csv",
    "write_summary_json",
    "write_curves_csv",
    "write_provenance_json",
    "SUMMARY_COLUMNS",
]

LOG10_FLOOR = 1e-300

SUMMARY_COLUMNS = [
    "algorithm",
    "function",
    "runs",
    "iterations",
    "pop_size",
    "worst",
    "best",
    "mean",
    "sd",
    "success_rate",
    "seed_base",
    "params_fingerprint",
]


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate statistics over the final best values of one experiment."""

    worst: float
    best: float
    mean: float
    sd: float
    success_rate: float
    run_count: int
    finals: np.ndarray


def summarize(finals, declared_optimum: float, tolerance: float) -> ExperimentSummary:
    """Worst/best/mean/SD plus the success fraction against the declared optimum.

    SD is the population standard deviation (divide by N). A run counts as
    successful when |final - declared_optimum| <= tolerance.
    """
    finals = np.asarray(finals, dtype=float)
    if finals.size == 0:
        raise ValueError("finals must be non-empty")
    mean = float(np.mean(finals))
    sd = float(np.sqrt(np.mean((finals - mean) ** 2)))
    success = float(np.mean(np.abs(finals - declared_optimum) <= tolerance))
    return ExperimentSummary(
        worst=float(np.max(finals)),
        best=float(np.min(finals)),
        mean=mean,
        sd=sd,
        success_rate=success,
        run_count=int(finals.size),
        finals=finals,
    )


@dataclass(frozen=True)
class Algorithm:
    """One registry entry: what an algorithm's parameters and population are.

    ``run(objective, params, config)`` performs one run, and
    ``run_many(objective, params, config, runs)`` performs ``runs`` runs with
    seeds ``config.seed + r`` in lockstep and returns the records ``run``
    would, in seed order, evaluation counts included; an ``EvaluationError``
    it raises names its run's index ``r`` as ``row``. ``run`` is the form for
    one seed: ``run_many``'s chunk of one for FWA and SPSO, and for LFWA and
    BA a body of its own, the cheaper of the two at one seed. ``params_class``
    is None for an algorithm configured by ``RunConfig`` alone (LFWA), whose
    LFWA-only ``RunConfig`` fields then enter provenance.
    ``population_field`` names the params field that sets the population, or
    is None when ``RunConfig.population_size`` does.
    """

    run: Callable[..., RunRecord]
    params_class: type | None
    population_field: str | None
    run_many: Callable[..., list[RunRecord]]

    def params(self, population: int | None = None):
        """Default parameters (None without a params class), with the
        population field set to ``population`` when one is given."""
        if self.params_class is None:
            return None
        params = self.params_class()
        if population is not None and self.population_field is not None:
            params = replace(params, **{self.population_field: population})
        return params

    def population(self, config: RunConfig, params) -> int:
        """The population size the algorithm actually runs with."""
        if self.population_field is None:
            return config.population_size
        return getattr(params, self.population_field)


ALGORITHMS = {
    "lfwa": Algorithm(lambda objective, _, config: lfwa.lfwa_run(objective, config), None, None,
                      lambda objective, _, config, runs: lfwa.lfwa_runs(objective, config, runs)),
    "fwa": Algorithm(baselines.fwa_run, baselines.FwaParams, None, baselines.fwa_runs),
    "spso": Algorithm(baselines.spso_run, baselines.SpsoParams, "swarm_size", baselines.spso_runs),
    "ba": Algorithm(baselines.ba_run, baselines.BaParams, "population", baselines.ba_runs),
}


def _execute_run(
    algorithm: str, objective_name: str, config: RunConfig, runs: int, params
) -> list[RunRecord]:
    """The records of one task, the ``runs`` seeds of one cell from
    ``config.seed`` on, all on one objective: one ``run`` for a one-seed
    chunk, else ``run_many`` in lockstep."""
    entry = ALGORITHMS[algorithm]
    objective = make_objective(objective_name)
    try:
        if runs == 1:
            return [entry.run(objective, params, config)]
        return entry.run_many(objective, params, config, runs)
    except Exception as exc:
        # a one-seed run's EvaluationError row indexes its batch, not a run
        if runs == 1:
            failed = f"run on {objective_name} with seed {config.seed}"
        elif isinstance(exc, EvaluationError) and exc.row is not None:
            failed = f"run on {objective_name} with seed {config.seed + exc.row}"
        else:
            seeds = ", ".join(str(config.seed + r) for r in range(runs))
            failed = f"runs on {objective_name} with seeds {seeds}"
        raise RuntimeError(f"{algorithm} {failed} failed: {exc}") from exc


def run_grid(
    cells, runs: int, config: RunConfig, jobs: int = 1
) -> list[tuple[ExperimentSummary, list[RunRecord]]]:
    """One ``(summary, records)`` per ``(algorithm, function, params)``
    cell, from ``runs`` replications with seeds ``config.seed + i``. All cells
    are checked, and None params defaulted, before any run.

    Each cell's seeds are split into ``min(jobs, runs)`` contiguous chunks,
    one ``_execute_run`` task each, so that no two chunks of a grid differ
    by more than one seed. The tasks run in cell-major, seed order, through
    one process pool when ``jobs > 1``; their records are joined by
    position, never by completion order. ``runs`` and ``jobs`` are integers
    of at least 1."""
    runs, jobs = as_integer("runs", runs, least=1), as_integer("jobs", jobs, least=1)
    chunks = min(jobs, runs)
    bounds = [k * runs // chunks for k in range(chunks + 1)]
    seed_chunks = [(replace(config, seed=config.seed + start), stop - start)
                   for start, stop in zip(bounds, bounds[1:])]
    tasks, declared = [], []
    for algorithm, function, params in cells:
        if algorithm not in ALGORITHMS:
            valid = ", ".join(ALGORITHMS)
            raise KeyError(f"unknown algorithm {algorithm!r}; valid names: {valid}")
        if params is None:
            params = ALGORITHMS[algorithm].params()
        declared.append(make_objective(function).declared_optimum)
        tasks += [(algorithm, function, first, count, params) for first, count in seed_chunks]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_execute_run, *zip(*tasks)))
    else:
        results = [_execute_run(*task) for task in tasks]
    records = [record for chunk in results for record in chunk]
    cell_records = [records[k : k + runs] for k in range(0, len(records), runs)]
    return [
        (summarize([r.final_best.fitness for r in cell], optimum, config.tolerance), cell)
        for optimum, cell in zip(declared, cell_records)
    ]


def run_experiment(
    algorithm: str,
    objective_name: str,
    runs: int,
    config: RunConfig,
    *,
    params=None,
    jobs: int = 1,
) -> tuple[ExperimentSummary, list[RunRecord]]:
    """``run_grid`` over one cell: ``runs`` independent replications with
    seeds ``config.seed + i``, and the summary of their finals."""
    return run_grid([(algorithm, objective_name, params)], runs, config, jobs)[0]


@dataclass(frozen=True)
class CurveTable:
    """Tabular convergence curves: one row per iteration."""

    columns: list[str]
    rows: np.ndarray


def export_curves(records: list[RunRecord], transform: str = "raw") -> CurveTable:
    """Per-iteration mean best-so-far across runs, with per-run columns.

    ``transform="log10"`` takes log10 of every emitted value, flooring the
    argument at 1e-300 first so exact zeros stay plottable; a negative value
    (f6 and f7 reach them) raises ValueError naming the lowest one.
    """
    if not records:
        raise ValueError("records must be non-empty")
    if transform not in ("raw", "log10"):
        raise ValueError(f"transform must be 'raw' or 'log10', got {transform!r}")
    lengths = {len(r.trajectory) for r in records}
    if len(lengths) != 1:
        raise ValueError(f"records have mixed iteration counts: {sorted(lengths)}")
    objectives = {r.objective for r in records}
    if len(objectives) != 1:
        raise ValueError(f"records mix objectives: {sorted(objectives)}")

    trajectories = np.vstack([r.trajectory for r in records])
    mean = trajectories.mean(axis=0)
    columns = ["iteration", "mean_best"]
    data = [np.arange(trajectories.shape[1], dtype=float), mean]
    for r, row in zip(records, trajectories):
        columns.append(f"run_{r.seed}")
        data.append(row)
    rows = np.column_stack(data)
    if transform == "log10":
        lowest = rows[:, 1:].min()
        if lowest < 0:
            raise ValueError(
                f"log10 transform needs nonnegative values; the lowest is {float(lowest)!r}"
            )
        rows[:, 1:] = np.log10(np.maximum(rows[:, 1:], LOG10_FLOOR))
    return CurveTable(columns=columns, rows=rows)


def params_fingerprint(payload: dict) -> str:
    """Short stable hash of a resolved-parameter dictionary."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def resolved_parameters(algorithm: str, config: RunConfig, params) -> dict:
    """Every knob that influenced an experiment, for provenance files."""
    entry = ALGORITHMS[algorithm]
    run_config_only = entry.params_class is None
    return {
        "algorithm": algorithm,
        "population_size": entry.population(config, params),
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
        "gaussian_sparks_per_generation": config.gaussian_spark_count if run_config_only else None,
        # constants, kept so every provenance byte and fingerprint stays as published
        "xi": XI,
        "scalar_beta": False if run_config_only else None,
        "sd_convention": "population (divide by N)",
        "algorithm_params": None if params is None else asdict(params),
    }


def build_summary_row(
    objective_name: str, summary: ExperimentSummary, seed_base: int, parameters: dict
) -> dict:
    """One summary-CSV row, in SUMMARY_COLUMNS order, from an experiment's
    summary and its ``resolved_parameters``."""
    return {
        "algorithm": parameters["algorithm"],
        "function": objective_name,
        "runs": summary.run_count,
        "iterations": parameters["max_iterations"],
        "pop_size": parameters["population_size"],
        "worst": summary.worst,
        "best": summary.best,
        "mean": summary.mean,
        "sd": summary.sd,
        "success_rate": summary.success_rate,
        "seed_base": seed_base,
        "params_fingerprint": params_fingerprint(parameters),
    }


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_atomic(path, write) -> None:
    """Call ``write(fh)`` on a new temporary file next to ``path``, then
    rename it over ``path``, so that ``path`` holds either its old content
    or all of the new. On failure the temporary file is removed and ``path``
    is left as it was."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _json_writer(payload, **options):
    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True, **options)
        fh.write("\n")

    return write


def summary_lines(rows: list[dict]) -> list[str]:
    """The summary CSV's lines: the header, then one line per row."""
    return [",".join(SUMMARY_COLUMNS)] + [
        ",".join(_format_cell(row[c]) for c in SUMMARY_COLUMNS) for row in rows
    ]


def write_summary_csv(path, rows: list[dict]) -> None:
    lines = summary_lines(rows)
    _write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def write_summary_json(path, rows: list[dict]) -> None:
    _write_atomic(path, _json_writer(rows))


def write_curves_csv(path, table: CurveTable) -> None:
    lines = [",".join(table.columns)]
    for row in table.rows:
        cells = [str(int(row[0]))] + [repr(float(v)) for v in row[1:]]
        lines.append(",".join(cells))
    _write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def write_provenance_json(path, payload: dict) -> None:
    _write_atomic(path, _json_writer(payload, default=str))
