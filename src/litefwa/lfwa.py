"""Reduced-parameter fireworks optimizer with history-guided explosion radii.

One generation runs, in order: explosion intensities from relative fitness,
their mean, a per-firework radius vector (pointing at the slot's historical
best for weak exploders, at the core firework for strong ones), displacement
sparks, multiplicative Gaussian mutants, bounds mapping, Elite-Random
selection, and finally the per-slot history update. The only algorithm
parameters beyond the run protocol are the population size and the mutant
budget; explosion amplitudes adapt from the population's own history instead
of a preset maximum radius.

The generation works on arrays: (M, d) positions and (M,) fitnesses for the
fireworks and for the per-slot history, with candidates addressed by index.
Each operator is called once per generation, ``gaussian_mutation`` for all
of the generation's mutants. Its random draws, in order, are:

  1. one uniform block for all displacement betas, shape (sum(s_i), d),
     fireworks in slot order;
  2. per Gaussian mutant: the parent index, n, the n swaps of the
     dimension shuffle (n scalar integer draws for n <= 10, otherwise one
     integer draw), then one normal;
  3. one uniform block for the out-of-bounds coordinates of all explosion
     sparks then all mutants, row-major (no draw when none is out of bounds);
  4. the M - 1 swaps of the selection shuffle (M - 1 scalar integer draws
     for M <= 11, otherwise one integer draw).

Short shuffles draw scalars because an ``integers`` call with an array
``low`` costs about as much as ten or eleven scalar calls whatever its
length: ``RngStream`` takes a scalar draw straight from the bit generator,
while an array ``low`` goes through numpy's argument handling. The
crossover is ``_SCALAR_SWAPS_MAX``.

This is the draw sequence of the per-firework formulation (one uniform block
per firework, one mapping draw per spark, one integer draw per swap), joined
into fewer calls: numpy's ``Generator`` gives consecutive ``random`` calls
the values of one joined call, and evaluates an ``integers`` call with an
array ``low`` as the scalar calls in sequence, leaving the same generator
state. ``tests/test_core.py`` checks both identities, and seeded outputs are
unchanged from the per-firework implementation.

``lfwa_run`` yields the best-so-far and its evaluation count after
``initialize_state`` and after each ``lfwa_step`` to ``core.drive``.

``lfwa_runs`` advances a chunk of seeds in lockstep, each run on its own
stream with the draws above in the same order: per generation, run by run,
its beta block (1), then its mutants' draws (2), each from one operator
call given the list of streams; then, from one shared repair of the rows
as built, each run's repair betas (3); then, run by run, its selection
shuffle (4). Since every stream is its own, each run sees ``lfwa_step``'s
sequence, interleaved with the others' only in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import Objective
from .core import XI, RngStream, RunConfig, RunRecord, drive, evaluate_runs, map_into_bounds

__all__ = [
    "LfwaState",
    "explosion_intensity",
    "average_intensity",
    "explosion_radius",
    "generate_explosion_sparks",
    "gaussian_mutation",
    "select_next_generation",
    "initialize_state",
    "lfwa_step",
    "lfwa_run",
    "lfwa_runs",
]


@dataclass(frozen=True)
class LfwaState:
    """Population state at a generation boundary.

    Row i of ``pbest`` is the best position that ever occupied slot i; the
    core firework is the first best of them (``core_index``).
    ``best_position``/``best_fitness`` track the minimum over everything
    evaluated since initialization. The arrays are never modified in place.
    """

    fireworks: np.ndarray
    fitness: np.ndarray
    pbest: np.ndarray
    pbest_fitness: np.ndarray
    best_position: np.ndarray
    best_fitness: float

    @property
    def core_index(self) -> int:
        return int(self.pbest_fitness.argmin())


def explosion_intensity(fitnesses) -> np.ndarray:
    """Spark count per firework from its normalized fitness gap.

    Count i is ceil(M ** ((f_max - f_i) / (f_max - f_min + xi))), with M
    the number of fireworks, the length of the last axis: the worst gets
    ceil(M**0) = 1 spark and the best approaches M. The ceiling keeps every
    count in [1, M], and xi, fixed at machine epsilon (``core.XI``), keeps
    the exponent finite when all fitnesses coincide. A 2-d block, one row
    of M fitnesses per run, gives one row of counts per run, each bit for
    bit that row's own call.
    """
    fitnesses = np.asarray(fitnesses, dtype=float)
    f_max = np.maximum.reduce(fitnesses, axis=-1)
    f_min = np.minimum.reduce(fitnesses, axis=-1)
    # a NaN propagates into both extrema, and an infinity is one of them;
    # one row's extrema are scalars, which math.isfinite checks cheapest
    if fitnesses.ndim == 1:
        finite = math.isfinite(f_max) and math.isfinite(f_min)
    else:
        finite = np.isfinite(f_max).all() and np.isfinite(f_min).all()
        f_max, f_min = f_max[..., None], f_min[..., None]
    if not finite:
        raise ValueError("all fitnesses must be finite")
    exponents = (f_max - fitnesses) / (f_max - f_min + XI)
    return np.ceil(np.power(float(fitnesses.shape[-1]), exponents)).astype(int)


def average_intensity(spark_counts):
    """Mean spark count, kept as a real number (no truncation); a 2-d
    block of counts gives one mean per row as a 1-d array."""
    counts = np.asarray(spark_counts, dtype=float)
    mean = np.add.reduce(counts, axis=-1) / counts.shape[-1]  # what np.mean computes
    return mean if mean.ndim else float(mean)


def explosion_radius(x, pbest, core, counts, s_avg: float) -> np.ndarray:
    """Radius vectors, one row per firework, chosen by intensity.

    Below-average exploders (s_i < s_avg) step toward their own slot's
    historical best; the rest step toward the core firework. Rows of ``x``
    and ``pbest`` pair with entries of ``counts``; one 1-d firework with a
    scalar count gives one 1-d radius.
    """
    toward_pbest = (np.asarray(counts) < s_avg)[..., None]
    target = np.where(toward_pbest, np.asarray(pbest, dtype=float), np.asarray(core, dtype=float))
    return target - np.asarray(x, dtype=float)


def generate_explosion_sparks(x, radius, counts, rng: RngStream | list[RngStream]) -> np.ndarray:
    """Displace each firework ``counts[i]`` times along its radius vector.

    Each spark is x_i + beta * radius_i with beta uniform in [0, 1), drawn
    independently per dimension, all in one draw. Sparks come back as one
    (sum(counts), d) array grouped by firework in row order, unmapped;
    bounds handling happens later. ``x`` and ``radius`` are (M, d) arrays
    and ``counts`` holds M counts; given a list of R streams, as
    ``gaussian_mutation`` takes them, they are (R, M, d) and (R, M), each
    run draws its block from its own stream, and the runs' sparks follow
    one another in run order.
    """
    x, radius = np.asarray(x, dtype=float), np.asarray(radius, dtype=float)
    if isinstance(rng, list):
        d = x.shape[-1]
        totals = np.add.reduce(counts, axis=-1).tolist()
        beta = np.concatenate([s.uniform(size=(total, d)) for s, total in zip(rng, totals)])
        counts = np.ravel(counts)
        x, radius = x.reshape(-1, d).repeat(counts, axis=0), radius.reshape(-1, d)
    else:
        x = x.repeat(counts, axis=0)
        beta = rng.uniform(size=x.shape)
    return x + beta * radius.repeat(counts, axis=0)


# Longest shuffle drawn as scalar calls. Through RngStream, with numpy 2.4
# and Python 3.11 on a 2-core x86_64 machine, an integer draw with an array
# low costs about 11 us whatever its length, and k scalar draws, which
# RngStream takes straight from the bit generator, about 1.05k us; the two
# break even between ten and eleven swaps.
_SCALAR_SWAPS_MAX = 10


def _sample_without_replacement(n: int, k: int, rng: RngStream) -> list[int]:
    """First k entries of a partial Fisher-Yates shuffle of range(n).

    Swap j exchanges entries j and s_j with s_j uniform in [j, n). The k
    targets come from k scalar draws up to ``_SCALAR_SWAPS_MAX`` swaps and
    from one array-``low`` draw beyond; both give the same values and
    leave the same stream state.
    """
    idx = list(range(n))
    if k <= _SCALAR_SWAPS_MAX:
        integers = rng.integers
        for j in range(k):
            s = integers(j, n)
            idx[j], idx[s] = idx[s], idx[j]
    else:
        for j, s in enumerate(rng.integers(np.arange(k), n).tolist()):
            idx[j], idx[s] = idx[s], idx[j]
    return idx[:k]


def gaussian_mutation(fireworks, count: int, rng: RngStream | list[RngStream]) -> np.ndarray:
    """``count`` multiplicative Gaussian mutants of random fireworks.

    Each mutant picks its parent uniformly among the M rows of the (M, d)
    ``fireworks``, then n uniformly from {1..d}, then n distinct dimensions,
    and scales the selected coordinates by one shared (N(0,1) + 1) factor,
    the original fireworks-mutation convention; a single small factor can
    contract every selected coordinate at once. Zero coordinates are fixed
    points of this mutation; that is a documented property, not a bug.
    The draws come mutant by mutant in that order; the mutants are then
    built at once, from one gather of their parent rows and one multiply by
    a scale that holds each mutant's factor on its selected coordinates and
    1.0, which changes no value, elsewhere. They come back as a (count, d)
    array.

    ``rng`` may also be a list of R streams, with ``fireworks`` an (R, M, d)
    block whose first axis is the run, as ``core.map_into_bounds`` takes
    them: run r's ``count`` mutants draw from its own stream and pick their
    parents among its own fireworks, and the result holds every run's
    mutants in run order, (R * count, d).
    """
    fireworks = np.asarray(fireworks, dtype=float)
    m, d = fireworks.shape[-2:]
    streams = rng if isinstance(rng, list) else [rng]
    parents, scale = [], [1.0] * (len(streams) * count * d)
    for r, stream in enumerate(streams):
        integers, normal = stream.integers, stream.normal
        # k is the mutant's first entry in the flat scale
        for k in range(r * count * d, (r + 1) * count * d, d):
            parents.append(r * m + integers(0, m))
            dims = _sample_without_replacement(d, integers(1, d + 1), stream)
            factor = normal() + 1.0
            for j in dims:
                scale[k + j] = factor
    mutants = fireworks.reshape(-1, d)[parents]
    mutants *= np.array(scale).reshape(mutants.shape)
    return mutants


def select_next_generation(fitness, population_size: int, rng: RngStream) -> np.ndarray:
    """Elite-Random selection; returns the chosen candidates' indices.

    ``fitness`` holds one value per candidate; ``lfwa_step`` passes
    fireworks + pbest + core + all sparks, in that order. The single best
    candidate (first found wins ties) fills slot 0; the remaining slots are
    drawn uniformly at random without replacement from the rest. Fewer
    candidates than ``population_size`` raise ValueError; ``lfwa_step``
    always passes at least 3M + 1 + G, with G the number of Gaussian mutants.
    """
    if population_size > len(fitness):
        raise ValueError(f"selection needs {population_size} candidates, got {len(fitness)}: "
                         f"{population_size - len(fitness)} short")
    elite = int(np.asarray(fitness).argmin())
    picks = _sample_without_replacement(len(fitness) - 1, population_size - 1, rng)
    # pool entry p is candidate p, or p + 1 from the elite on
    return np.array([elite] + [p + (p >= elite) for p in picks])


def lfwa_step(
    state: LfwaState,
    objective: Objective,
    config: RunConfig,
    rng: RngStream,
) -> LfwaState:
    """Advance the population by one full generation."""
    m = config.population_size
    fireworks, pbest, pbest_fitness = state.fireworks, state.pbest, state.pbest_fitness
    core = state.core_index
    counts = explosion_intensity(state.fitness)
    s_avg = average_intensity(counts)
    radii = explosion_radius(fireworks, pbest, pbest[core], counts, s_avg)
    raw_sparks = generate_explosion_sparks(fireworks, radii, counts, rng)
    mutants = gaussian_mutation(fireworks, config.gaussian_spark_count, rng)
    # explosion sparks then Gaussian mutants, one row each
    sparks = map_into_bounds(np.concatenate((raw_sparks, mutants)), objective.space, rng)
    values = objective.evaluate_many(sparks)

    positions = np.concatenate((fireworks, pbest, pbest[core : core + 1], sparks))
    fitness = np.concatenate((state.fitness, pbest_fitness, pbest_fitness[core : core + 1], values))
    selected = select_next_generation(fitness, m, rng)
    new_fireworks = positions[selected]
    new_fitness = fitness[selected]

    improved = new_fitness < pbest_fitness
    # no state array is written in place, so an unchanged history is shared
    if improved.any():
        pbest = np.where(improved[:, None], new_fireworks, pbest)
        pbest_fitness = np.where(improved, new_fitness, pbest_fitness)
    if new_fitness[0] < state.best_fitness:
        best_position, best_fitness = new_fireworks[0], float(new_fitness[0])
    else:
        best_position, best_fitness = state.best_position, state.best_fitness

    return LfwaState(
        fireworks=new_fireworks,
        fitness=new_fitness,
        pbest=pbest,
        pbest_fitness=pbest_fitness,
        best_position=best_position,
        best_fitness=best_fitness,
    )


def initialize_state(objective: Objective, config: RunConfig, rng: RngStream) -> LfwaState:
    """Uniform random population; each slot starts as its own historical best."""
    positions = objective.space.sample(rng, config.population_size)
    values = objective.evaluate_many(positions)
    best = int(np.argmin(values))
    return LfwaState(
        fireworks=positions,
        fitness=values,
        pbest=positions,
        pbest_fitness=values,
        best_position=positions[best],
        best_fitness=float(values[best]),
    )


def lfwa_run(objective: Objective, config: RunConfig) -> RunRecord:
    """Run the optimizer for the configured number of generations."""

    def generations(rngs: list[RngStream]):
        (rng,) = rngs
        # lfwa_step does not return its spark count; the objective counts
        start = objective.eval_count
        state = initialize_state(objective, config, rng)
        while True:
            yield [state.best_position], [state.best_fitness], [objective.eval_count - start]
            state = lfwa_step(state, objective, config, rng)

    return drive("lfwa", objective, config, generations)[0]


def lfwa_runs(objective: Objective, config: RunConfig, runs: int) -> list[RunRecord]:
    """``lfwa_run`` for ``runs`` seeds from ``config.seed`` on, one record per
    seed, each bit for bit ``lfwa_run``'s.

    The runs advance in lockstep as (R, M, d) fireworks and pbest, one
    generation at a time, through ``lfwa_step``'s operators.
    ``explosion_intensity``, ``average_intensity`` and ``explosion_radius``
    reduce along one run's M values; ``generate_explosion_sparks`` and
    ``gaussian_mutation``, given the list of streams, draw from each run's
    own stream in ``lfwa_step``'s order. The runs share one bounds repair
    and one ``evaluate_many`` over the rows as built, every run's explosion
    sparks and then every run's mutants, and each run then selects alone
    through ``select_next_generation``. An
    ``EvaluationError`` raised here has ``row`` set to the index of its run.
    ``lfwa_run`` keeps its own body, being the cheaper form at one seed.
    """
    m = config.population_size
    g = config.gaussian_spark_count
    d = objective.dim
    space = objective.space

    def generations(rngs: list[RngStream]):
        runs = np.arange(len(rngs))
        fireworks = np.stack([space.sample(rng, m) for rng in rngs])
        fitness = evaluate_runs(objective, fireworks)
        pbest, pbest_fitness = fireworks, fitness
        best = fitness.argmin(axis=1)
        best_positions, best_fitness = fireworks[runs, best], fitness[runs, best]
        evaluations = np.full(len(rngs), m)

        while True:
            yield best_positions, best_fitness.tolist(), evaluations.tolist()
            counts = explosion_intensity(fitness)
            totals = np.add.reduce(counts, axis=1)
            core = pbest_fitness.argmin(axis=1)
            core_positions = pbest[runs, core]
            radii = explosion_radius(fireworks, pbest, core_positions[:, None], counts,
                                     average_intensity(counts)[:, None])

            explosion = generate_explosion_sparks(fireworks, radii, counts, rngs)
            mutants = gaussian_mutation(fireworks, g, rngs)
            row_runs = np.concatenate((runs.repeat(totals), runs.repeat(g)))
            sparks = map_into_bounds(np.concatenate((explosion, mutants)), space, rngs, row_runs)
            values = evaluate_runs(objective, sparks, row_runs)
            evaluations += totals + g

            # lfwa_step's candidates, one contiguous block per run: its
            # fireworks, pbest, core and sparks
            cand_runs = np.concatenate((runs.repeat(m), runs.repeat(m), runs, row_runs))
            order = cand_runs.argsort(kind="stable")
            cand_fitness = np.concatenate(
                (fitness.ravel(), pbest_fitness.ravel(), pbest_fitness[runs, core], values))[order]
            starts = [0, *np.add.accumulate(2 * m + 1 + totals + g).tolist()]
            picks = np.concatenate([
                select_next_generation(cand_fitness[start:stop], m, rng) + start
                for rng, start, stop in zip(rngs, starts, starts[1:])])
            cand_positions = np.concatenate(
                (fireworks.reshape(-1, d), pbest.reshape(-1, d), core_positions, sparks))
            fireworks = cand_positions[order[picks]].reshape(-1, m, d)
            fitness = cand_fitness[picks].reshape(-1, m)

            improved = fitness < pbest_fitness
            pbest = np.where(improved[..., None], fireworks, pbest)
            pbest_fitness = np.where(improved, fitness, pbest_fitness)
            better = fitness[:, 0] < best_fitness
            np.copyto(best_positions, fireworks[:, 0], where=better[:, None])
            np.copyto(best_fitness, fitness[:, 0], where=better)

    return drive("lfwa", objective, config, generations, runs)
