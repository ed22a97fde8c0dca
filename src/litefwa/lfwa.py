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
Its random draws, in order, are:

  1. one uniform block for all displacement betas, shape (sum(s_i), d), or
     (sum(s_i),) with ``scalar_beta``, fireworks in slot order;
  2. per Gaussian mutant: the parent index, n, the n swaps of the
     dimension shuffle (n scalar integer draws for n <= 3, otherwise one
     integer draw), then one normal;
  3. one uniform block for the out-of-bounds coordinates of all explosion
     sparks then all mutants, row-major (no draw when none is out of bounds);
  4. the M - 1 swaps of the selection shuffle (M - 1 scalar integer draws
     for M <= 4, otherwise one integer draw).

Short shuffles draw scalars because an ``integers`` call with an array
``low`` costs about as much as four scalar calls whatever its length; the
crossover is ``_SCALAR_SWAPS_MAX``.

This is the draw sequence of the per-firework formulation (one uniform block
per firework, one mapping draw per spark, one integer draw per swap), joined
into fewer calls: numpy's ``Generator`` gives consecutive ``random`` calls
the values of one joined call, and evaluates an ``integers`` call with an
array ``low`` as the scalar calls in sequence, leaving the same generator
state. ``tests/test_core.py`` checks both identities, and seeded outputs are
unchanged from the per-firework implementation.

``lfwa_run`` yields the best-so-far after ``initialize_state`` and after
each ``lfwa_step`` to ``core.drive``, which records the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import Objective
from .core import RngStream, RunConfig, RunRecord, drive, map_into_bounds

__all__ = [
    "LfwaState",
    "GenerationTrace",
    "explosion_intensity",
    "average_intensity",
    "explosion_radius",
    "generate_explosion_sparks",
    "gaussian_mutation",
    "select_next_generation",
    "initialize_state",
    "lfwa_step",
    "lfwa_run",
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


@dataclass
class GenerationTrace:
    """Optional record of one generation's intermediate quantities.

    Filled by ``lfwa_step`` when passed in; used for step-by-step
    verification against an independent transcription of the update rules.
    Sparks are grouped by firework in slot order; ``selected`` holds the
    candidate indices of the next generation, into fireworks + pbest + core
    + explosion sparks + Gaussian sparks.
    """

    spark_counts: np.ndarray | None = None
    mean_intensity: float | None = None
    radii: np.ndarray | None = None
    explosion_sparks_raw: np.ndarray | None = None
    explosion_sparks_mapped: np.ndarray | None = None
    gaussian_parents: list[int] | None = None
    gaussian_sparks_raw: np.ndarray | None = None
    gaussian_sparks_mapped: np.ndarray | None = None
    selected: np.ndarray | None = None


def explosion_intensity(fitnesses, population_size: int, xi: float) -> np.ndarray:
    """Spark count per firework from its normalized fitness gap.

    Count i is ceil(M ** ((f_max - f_i) / (f_max - f_min + xi))): the worst
    firework gets ceil(M**0) = 1 spark and the best approaches M. The
    ceiling keeps every count in [1, M], and xi keeps the exponent finite
    when all fitnesses coincide.
    """
    fitnesses = np.asarray(fitnesses, dtype=float)
    if population_size < 1:
        raise ValueError("population_size must be at least 1")
    if not xi > 0:  # also rejects NaN
        raise ValueError("xi must be positive")
    f_max = np.maximum.reduce(fitnesses)
    f_min = np.minimum.reduce(fitnesses)
    # a NaN propagates into both extrema, and an infinity is one of them
    if not (math.isfinite(f_max) and math.isfinite(f_min)):
        raise ValueError("all fitnesses must be finite")
    exponents = (f_max - fitnesses) / (f_max - f_min + xi)
    return np.ceil(np.power(float(population_size), exponents)).astype(int)


def average_intensity(spark_counts) -> float:
    """Mean spark count, kept as a real number (no truncation)."""
    counts = np.asarray(spark_counts, dtype=float)
    return float(np.add.reduce(counts) / counts.size)  # what np.mean computes


def explosion_radius(x, pbest, core, counts, s_avg: float) -> np.ndarray:
    """Radius vectors, one row per firework, chosen by intensity.

    Below-average exploders (s_i < s_avg) step toward their own slot's
    historical best; the rest step toward the core firework. Rows of ``x``
    and ``pbest`` pair with entries of ``counts``; one 1-d firework with a
    scalar count gives one 1-d radius.
    """
    x = np.asarray(x, dtype=float)
    toward_pbest = (np.asarray(counts) < s_avg)[..., None]
    return np.where(toward_pbest, np.asarray(pbest, dtype=float) - x,
                    np.asarray(core, dtype=float) - x)


def generate_explosion_sparks(
    x,
    radius,
    counts,
    rng: RngStream,
    scalar_beta: bool = False,
) -> np.ndarray:
    """Displace each firework ``counts[i]`` times along its radius vector.

    Each spark is x_i + beta * radius_i with beta uniform in [0, 1), drawn
    independently per dimension (or once per spark with ``scalar_beta``),
    all in one draw. Sparks come back as one (sum(counts), d) array grouped
    by firework in row order, unmapped; bounds handling happens later. One
    1-d firework with an integer count is one row.
    """
    x = np.asarray(x, dtype=float)
    radius = np.asarray(radius, dtype=float)
    if x.ndim == 1:
        x, radius, counts = x[None], radius[None], [counts]
    rows = np.arange(len(x)).repeat(counts)
    if scalar_beta:
        beta = rng.uniform(size=rows.size)[:, None]
    else:
        beta = rng.uniform(size=(rows.size, x.shape[1]))
    return x[rows] + beta * radius[rows]


# Longest shuffle drawn as scalar calls. Through RngStream, with numpy 2.4
# and Python 3.11 on a 2-core x86_64 machine, an integer draw with an array
# low cost about 10 us whatever its length and k scalar draws about 2.6k us,
# so the two break even at four swaps.
_SCALAR_SWAPS_MAX = 3


def _sample_without_replacement(n: int, k: int, rng: RngStream) -> list[int]:
    """First k entries of a partial Fisher-Yates shuffle of range(n).

    Swap j exchanges entries j and s_j with s_j uniform in [j, n). The k
    targets come from k scalar draws up to ``_SCALAR_SWAPS_MAX`` swaps and
    from one array-``low`` draw beyond; both give the same values and
    leave the same stream state.
    """
    if k <= _SCALAR_SWAPS_MAX:
        targets = [rng.integers(j, n) for j in range(k)]
    else:
        targets = rng.integers(np.arange(k), n).tolist()
    idx = list(range(n))
    for j, s in enumerate(targets):
        idx[j], idx[s] = idx[s], idx[j]
    return idx[:k]


def gaussian_mutation(x_i: np.ndarray, rng: RngStream) -> np.ndarray:
    """Multiplicative Gaussian mutant of a firework.

    Picks n uniformly from {1..d}, then n distinct dimensions, and scales
    the selected coordinates by one shared (N(0,1) + 1) factor, the
    original fireworks-mutation convention; a single small factor can
    contract every selected coordinate at once. Zero coordinates are fixed
    points of this mutation; that is a documented property, not a bug.
    """
    out = np.array(x_i, dtype=float)
    d = out.size
    n = rng.integers(1, d + 1)
    dims = _sample_without_replacement(d, n, rng)
    out[dims] *= float(rng.normal()) + 1.0
    return out


def select_next_generation(fitness, population_size: int, rng: RngStream) -> np.ndarray:
    """Elite-Random selection; returns the chosen candidates' indices.

    ``fitness`` holds one value per candidate; ``lfwa_step`` passes
    fireworks + pbest + core + all sparks, in that order. The single best
    candidate (first found wins ties) fills slot 0; the remaining slots are
    drawn uniformly at random without replacement from the rest. Should the
    pool ever be too small, the remainder is sampled with replacement.
    """
    elite = int(np.asarray(fitness).argmin())
    pool = len(fitness) - 1
    needed = population_size - 1
    if not pool:
        return np.full(population_size, elite)
    if needed <= pool:
        picks = _sample_without_replacement(pool, needed, rng)
    else:
        picks = list(range(pool)) + [rng.integers(0, pool) for _ in range(needed - pool)]
    # pool entry p is candidate p, or p + 1 from the elite on
    return np.array([elite] + [p + (p >= elite) for p in picks])


def lfwa_step(
    state: LfwaState,
    objective: Objective,
    config: RunConfig,
    rng: RngStream,
    trace: GenerationTrace | None = None,
) -> LfwaState:
    """Advance the population by one full generation."""
    m = config.population_size
    fireworks, pbest, pbest_fitness = state.fireworks, state.pbest, state.pbest_fitness
    core = state.core_index
    counts = explosion_intensity(state.fitness, m, config.xi)
    s_avg = average_intensity(counts)
    radii = explosion_radius(fireworks, pbest, pbest[core], counts, s_avg)
    raw_sparks = generate_explosion_sparks(fireworks, radii, counts, rng, config.scalar_beta)

    # explosion sparks then Gaussian mutants, one row each
    n_explosion = len(raw_sparks)
    raw = np.empty((n_explosion + config.gaussian_spark_count, fireworks.shape[1]))
    raw[:n_explosion] = raw_sparks
    parents: list[int] = []
    for row in range(n_explosion, len(raw)):
        parent = rng.integers(0, m)
        parents.append(parent)
        raw[row] = gaussian_mutation(fireworks[parent], rng)

    sparks = map_into_bounds(raw, objective.space, rng)
    values = objective.evaluate_many(sparks)

    positions = np.concatenate((fireworks, pbest, pbest[core : core + 1], sparks))
    fitness = np.concatenate((state.fitness, pbest_fitness, pbest_fitness[core : core + 1], values))
    selected = select_next_generation(fitness, m, rng)
    new_fireworks = positions[selected]
    new_fitness = fitness[selected]

    improved = new_fitness < pbest_fitness
    if new_fitness[0] < state.best_fitness:
        best_position, best_fitness = new_fireworks[0], float(new_fitness[0])
    else:
        best_position, best_fitness = state.best_position, state.best_fitness

    if trace is not None:
        trace.spark_counts = counts
        trace.mean_intensity = s_avg
        trace.radii = radii
        trace.explosion_sparks_raw = raw_sparks
        trace.explosion_sparks_mapped = sparks[:n_explosion]
        trace.gaussian_parents = parents
        trace.gaussian_sparks_raw = raw[n_explosion:]
        trace.gaussian_sparks_mapped = sparks[n_explosion:]
        trace.selected = selected

    return LfwaState(
        fireworks=new_fireworks,
        fitness=new_fitness,
        pbest=np.where(improved[:, None], new_fireworks, pbest),
        pbest_fitness=np.where(improved, new_fitness, pbest_fitness),
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

    def generations(rng: RngStream):
        state = initialize_state(objective, config, rng)
        while True:
            yield state.best_position, state.best_fitness
            state = lfwa_step(state, objective, config, rng)

    return drive("lfwa", objective, config, generations)
