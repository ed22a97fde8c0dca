"""Reference implementations of the three comparison algorithms.

All three run under the same protocol as the main optimizer (same run
configuration, same uniform initialization pattern, same out-of-bounds
mapping rule, and one recorder, ``core.drive``, fed the best-so-far and the
evaluation counts after initialization and after each generation), so
result differences reflect the algorithms and not the plumbing. Their
parameters are pinned here as documented finite defaults and are printed
into every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .benchmarks import Objective
from .core import (
    XI,
    RngStream,
    RunConfig,
    RunRecord,
    drive,
    evaluate_runs,
    map_into_bounds,
    store_numbers,
)

__all__ = ["FwaParams", "SpsoParams", "BaParams",
           "fwa_run", "fwa_runs", "spso_run", "spso_runs", "ba_run", "ba_runs"]


@dataclass(frozen=True)
class FwaParams:
    """Classic fireworks algorithm settings (2010 formulation defaults)."""

    total_spark_budget: int = 50
    intensity_min_fraction: float = 0.04
    intensity_max_fraction: float = 0.8
    max_amplitude: float = 40.0
    gaussian_spark_count: int = 5

    def __post_init__(self) -> None:
        store_numbers(self, "total_spark_budget", "gaussian_spark_count")
        if not 0.0 < self.intensity_min_fraction < self.intensity_max_fraction < 1.0:
            raise ValueError("need 0 < min fraction < max fraction < 1")
        if self.total_spark_budget < 1 or self.gaussian_spark_count < 1:
            raise ValueError("spark budgets must be positive")
        if self.max_amplitude <= 0:
            raise ValueError("max_amplitude must be positive")
        low, high = self.spark_count_clamps
        if high < low:
            raise ValueError(f"total_spark_budget * intensity_max_fraction rounds to {high} "
                             f"sparks per firework, below the lower clamp of {low}")

    @property
    def spark_count_clamps(self) -> tuple[int, int]:
        """Least and most explosion sparks per firework: the budget times
        each fraction, rounded, the least raised to 1."""
        budget = self.total_spark_budget
        return (max(round(self.intensity_min_fraction * budget), 1),
                round(self.intensity_max_fraction * budget))


@dataclass(frozen=True)
class SpsoParams:
    """Global-best particle swarm settings with a linear inertia schedule."""

    swarm_size: int = 30
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    cognitive: float = 2.0
    social: float = 2.0
    velocity_clamp_fraction: float = 0.5

    def __post_init__(self) -> None:
        store_numbers(self, "swarm_size")
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        if self.cognitive <= 0 or self.social <= 0:
            raise ValueError("acceleration coefficients must be positive")
        if self.inertia_start < self.inertia_end:
            raise ValueError("inertia must not increase over the run")
        if self.velocity_clamp_fraction < 0:
            raise ValueError("velocity_clamp_fraction must be nonnegative")


@dataclass(frozen=True)
class BaParams:
    """Bat algorithm settings: frequency range plus loudness/pulse schedules."""

    population: int = 30
    frequency_min: float = 0.0
    frequency_max: float = 2.0
    loudness: float = 0.9
    loudness_decay: float = 0.97
    pulse_rate: float = 0.1
    pulse_growth: float = 0.1
    local_step_scale: float = 0.1

    def __post_init__(self) -> None:
        store_numbers(self, "population")
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.frequency_min > self.frequency_max:
            raise ValueError("frequency_min must not exceed frequency_max")
        if not 0.0 < self.loudness_decay <= 1.0:
            raise ValueError("loudness_decay must be in (0, 1]")
        if self.pulse_growth <= 0:
            raise ValueError("pulse_growth must be positive")


def _random_dim_masks(uniforms: np.ndarray, per_row_counts: np.ndarray) -> np.ndarray:
    """Boolean (rows, dim) mask with exactly per_row_counts[k] True entries
    per row, each subset uniform: the entries whose value in the (rows, dim)
    ``uniforms`` ranks below the row's count."""
    ranks = uniforms.argsort(axis=1).argsort(axis=1)
    return ranks < per_row_counts[:, None]


def _select_fireworks(cand_positions: np.ndarray, cand_fitness: np.ndarray, m: int,
                      rng: RngStream) -> np.ndarray:
    """The indices of one run's next ``m`` fireworks among its candidates:
    the elite first, then ``m - 1`` roulette picks among the others, each
    weighted by its summed distance to every candidate, so that crowded
    regions get lower selection pressure."""
    elite = int(cand_fitness.argmin())
    sq = np.add.reduce(cand_positions * cand_positions, axis=1)
    gram2 = 2.0 * cand_positions @ cand_positions.T
    dist_sq = np.maximum(sq[:, None] + sq[None, :] - gram2, 0.0)
    crowding = np.add.reduce(np.sqrt(dist_sq), axis=1)
    pool_indices = (np.arange(cand_fitness.size) != elite).nonzero()[0]
    weights = crowding[pool_indices]
    weight_sum = np.add.reduce(weights)
    if weight_sum <= 0:
        probs = np.full(weights.size, 1.0 / weights.size)
    else:
        probs = weights / weight_sum
    cumulative = np.add.accumulate(probs)
    spins = rng.uniform(size=m - 1)
    picks = pool_indices[np.minimum(cumulative.searchsorted(spins), weights.size - 1)]
    return np.concatenate(([elite], picks))


def fwa_run(objective: Objective, params: FwaParams, config: RunConfig) -> RunRecord:
    """Classic fireworks algorithm: budgeted spark counts with clamping,
    fitness-proportional amplitudes, shared-displacement explosion sparks,
    multiplicative Gaussian sparks, and distance-based roulette selection
    that always keeps the best candidate.

    Up to the repair, a generation draws in this order: each spark's
    dimension count, its dimension-subset uniforms, its offset, the mutant
    parents, each mutant's dimension count, its subset uniforms and its
    normal factor. This is the one-seed case of ``fwa_runs``, FWA's one body.
    """
    return fwa_runs(objective, params, config, 1)[0]


def fwa_runs(objective: Objective, params: FwaParams, config: RunConfig,
             runs: int) -> list[RunRecord]:
    """``fwa_run`` for ``runs`` seeds from ``config.seed`` on, one record per
    seed; a seed's record does not depend on the other runs of the chunk or
    on its place among them.

    The runs advance in lockstep, one generation at a time. Each run draws
    from its own stream in ``fwa_run``'s order, and every array operation is
    elementwise or reduces along one run's fireworks, sparks or candidates.
    The runs share one build of every run's sparks and mutants, one pass of
    the subset masks, one bounds repair and one ``evaluate_many``, all over
    the rows as built: every run's sparks, then every run's mutants. Each
    run then selects its next fireworks alone from its fireworks, its
    sparks and its mutants. An ``EvaluationError`` raised here has ``row``
    set to the index of its run.
    """
    d = objective.dim
    space = objective.space
    budget = params.total_spark_budget
    low_clamp, high_clamp = params.spark_count_clamps
    g = params.gaussian_spark_count
    m = config.population_size
    scales = np.array([budget, params.max_amplitude])[:, None, None]

    # The generation calls ufuncs and array methods, not the numpy wrappers
    # around them (np.sum, np.clip, np.round, np.argsort, np.vstack, ...),
    # which run the same loops; fancy indexing already returns a copy.
    def generations(rngs: list[RngStream]):
        runs = np.arange(len(rngs))
        positions = np.stack([space.sample(rng, m) for rng in rngs])
        fitness = evaluate_runs(objective, positions)
        best = fitness.argmin(axis=1)
        best_positions = positions[runs, best]
        best_fitness = fitness[runs, best].tolist()
        evaluations = [m] * len(rngs)
        firework_rows = np.arange(fitness.size)
        first_rows = firework_rows[::m].tolist()
        mutants_end = len(rngs) * g
        gaps = np.empty((2, *fitness.shape))
        below_worst, above_best = gaps
        flat_positions = positions.reshape(-1, d)

        while True:
            # drive keeps every step's fitness list, so each step yields a copy
            yield best_positions, best_fitness[:], evaluations
            # Each run's counts and amplitudes along its row, both at once:
            # scale * (gap + XI) / (the gaps' sum + XI), where the gap is
            # below the run's worst for a count and above its best for an
            # amplitude.
            worst = np.maximum.reduce(fitness, axis=1, keepdims=True)
            np.subtract(worst, fitness, out=below_worst)
            np.subtract(fitness, np.minimum.reduce(fitness, axis=1, keepdims=True), out=above_best)
            gap_sums = np.add.reduce(gaps, axis=2, keepdims=True)
            gap_sums += XI
            raw_counts, amplitudes = (gaps + XI) * scales / gap_sums
            counts = np.minimum(np.maximum(np.rint(raw_counts).astype(int), low_clamp), high_clamp)
            totals = [sum(run_counts) for run_counts in counts.tolist()]
            sparks_end = sum(totals)
            rows_end = sparks_end + mutants_end

            # Each run's draws: its three spark draws as one block, its
            # mutant parents as scalar draws (the values and stream state of
            # one sized draw), and its two mutant uniform draws as one block.
            z, offsets, gz, normals, spark_uniforms, mutant_uniforms = [], [], [], [], [], []
            mutant_parents = []
            for rng, total, first in zip(rngs, totals, first_rows):
                block = rng.uniform(size=total * (d + 2))
                z.append(block[:total])
                spark_uniforms.append(block[total:-total])
                offsets.append(block[-total:])
                mutant_parents += [rng.integers(first, first + m) for _ in range(g)]
                block = rng.uniform(size=g * (d + 1))
                gz.append(block[:g])
                mutant_uniforms.append(block[g:])
                normals.append(rng.normal(size=g))

            # Explosion sparks displace a random subset of their parent's
            # dimensions by one shared amplitude-scaled offset; mutants scale
            # a random subset by one normal factor.
            parents = firework_rows.repeat(counts.ravel())
            sources = np.concatenate((parents, mutant_parents))
            rows = flat_positions[sources]
            draws = np.concatenate(z + gz + offsets + normals + spark_uniforms + mutant_uniforms)
            uniforms = draws[2 * rows_end:].reshape(-1, d)
            masks = _random_dim_masks(uniforms, np.rint(d * draws[:rows_end]).astype(int))
            sparks, mutants = rows[:sparks_end], rows[sparks_end:]
            shifts = amplitudes.ravel()[parents] * (
                2.0 * draws[rows_end:rows_end + sparks_end] - 1.0)
            sparks += masks[:sparks_end] * shifts[:, None]
            factors = 1.0 + draws[rows_end + sparks_end:2 * rows_end]
            np.copyto(mutants, mutants * factors[:, None], where=masks[sparks_end:])

            row_runs = sources // m  # row r * m + i of flat_positions is run r's
            new_positions = map_into_bounds(rows, space, rngs, row_runs)
            spark_fitness = evaluate_runs(objective, new_positions, row_runs)
            evaluations = [e + total + g for e, total in zip(evaluations, totals)]

            stop = 0
            for r, (rng, total) in enumerate(zip(rngs, totals)):
                start, stop = stop, stop + total
                mutant_start = sparks_end + r * g
                cand_positions = np.concatenate((positions[r], new_positions[start:stop],
                                                 new_positions[mutant_start:mutant_start + g]))
                cand_fitness = np.concatenate((fitness[r], spark_fitness[start:stop],
                                               spark_fitness[mutant_start:mutant_start + g]))
                keep = _select_fireworks(cand_positions, cand_fitness, m, rng)
                elite = keep[0]
                if cand_fitness[elite] < best_fitness[r]:
                    best_positions[r] = cand_positions[elite]
                    best_fitness[r] = float(cand_fitness[elite])
                positions[r] = cand_positions[keep]
                fitness[r] = cand_fitness[keep]

    return drive("fwa", objective, config, generations, runs)


def spso_run(objective: Objective, params: SpsoParams, config: RunConfig) -> RunRecord:
    """Global-best particle swarm with linearly decaying inertia weight.

    Velocities start at zero and are clamped per dimension to a fraction of
    the domain width; positions leaving the box are re-placed by the shared
    mapping rule before evaluation. This is the one-seed case of
    ``spso_runs``, SPSO's one body.
    """
    return spso_runs(objective, params, config, 1)[0]


def spso_runs(objective: Objective, params: SpsoParams, config: RunConfig,
              runs: int) -> list[RunRecord]:
    """``spso_run`` for ``runs`` seeds from ``config.seed`` on, one record per
    seed; a seed's record does not depend on the other runs of the chunk or
    on its place among them.

    The runs advance in lockstep as (R, n, d) blocks. Per generation each
    run draws from its own stream its ``r1`` and then its ``r2`` as one
    block, then the betas of its repair. Every array operation is
    elementwise or reduces along one run's particles, and the runs share
    one velocity update, one clamp, one bounds repair and one
    ``evaluate_many`` of R * n rows. An ``EvaluationError`` raised here has
    ``row`` set to the index of its run.
    """
    n = params.swarm_size
    d = objective.dim
    space = objective.space
    v_max = params.velocity_clamp_fraction * space.width
    v_min = -v_max
    steps = max(config.max_iterations - 1, 1)

    def generations(rngs: list[RngStream]):
        runs = np.arange(len(rngs))
        positions = np.stack([space.sample(rng, n) for rng in rngs])
        fitness = evaluate_runs(objective, positions)
        velocities = np.zeros_like(positions)
        pbest_pos = positions.copy()
        pbest_fit = fitness.copy()
        g = pbest_fit.argmin(axis=1)
        best_positions, best_fitness = pbest_pos[runs, g], pbest_fit[runs, g]

        for t in count():
            yield best_positions, best_fitness.tolist(), [n * (t + 1)] * len(rngs)
            w = params.inertia_start - (params.inertia_start - params.inertia_end) * (t / steps)
            # r1 and r2 of each run, drawn one after the other as one block
            r = np.concatenate([rng.uniform(size=(1, 2, n, d)) for rng in rngs])
            velocities = (
                w * velocities
                + params.cognitive * r[:, 0] * (pbest_pos - positions)
                + params.social * r[:, 1] * (best_positions[:, None] - positions)
            )
            # np.clip without its wrapper. The two can differ only in the
            # sign of a zero velocity, which reaches no position: a sum
            # with a nonzero term ignores it, and x + 0.0 and x + -0.0
            # differ only for x = -0.0, which no position is (samples and
            # repairs are lower + u * width; x + v is -0.0 only for x = -0.0).
            velocities = np.minimum(np.maximum(velocities, v_min), v_max)
            positions = map_into_bounds(positions + velocities, space, rngs)
            fitness = evaluate_runs(objective, positions)

            improved = fitness < pbest_fit
            np.copyto(pbest_pos, positions, where=improved[..., None])
            np.copyto(pbest_fit, fitness, where=improved)
            g = pbest_fit.argmin(axis=1)
            leaders = pbest_fit[runs, g]
            better = leaders < best_fitness
            np.copyto(best_positions, pbest_pos[runs, g], where=better[:, None])
            np.copyto(best_fitness, leaders, where=better)

    return drive("spso", objective, config, generations, runs)


def ba_run(objective: Objective, params: BaParams, config: RunConfig) -> RunRecord:
    """Bat algorithm: frequency-tuned velocities toward the global best,
    a loudness-scaled local walk taken with the (growing) pulse rate, and
    loudness-gated acceptance of improvements.

    Bats move one after another, each toward the best found so far,
    including by the bats before it in the same iteration. Per bat the
    draws are: the frequency, the pulse test, ``d`` normals when the pulse
    fires, one uniform per out-of-bounds coordinate, and the acceptance
    test only when the candidate is no worse than the bat's position.
    ``ba_runs`` gives the same records for many seeds at once, faster.
    This body stays for one seed: ``ba_runs`` makes numpy calls on (R, d)
    blocks where it works on scalars, and costs about 2.2 times as much
    there.
    """
    n = params.population
    d = objective.dim
    space = objective.space
    f_min = params.frequency_min
    frequency_span = params.frequency_max - f_min
    pulse_rate, pulse_growth = params.pulse_rate, params.pulse_growth
    step_scale, decay = params.local_step_scale, params.loudness_decay

    def generations(rngs: list[RngStream]):
        (rng,) = rngs
        uniform, normal = rng.uniform, rng.normal
        sample = space.sample(rng, n)
        fitness = objective.evaluate_many(sample).tolist()
        positions = list(sample)
        velocities = list(np.zeros_like(sample))
        loudness = np.full(n, params.loudness)
        g = int(np.argmin(fitness))
        best_position = positions[g].copy()
        best_fitness = fitness[g]

        for t in count(1):
            yield [best_position], [best_fitness], [n * t]
            pulse = pulse_rate * (1.0 - np.exp(-pulse_growth * t))
            for i in range(n):
                freq = f_min + frequency_span * uniform()
                velocity = velocities[i]
                velocity += (positions[i] - best_position) * freq
                if uniform() < pulse:
                    # np.add.reduce(...) / n is the mean's sum and division
                    step = step_scale * (np.add.reduce(loudness) / n) * normal(size=d)
                    candidate = best_position + step
                else:
                    candidate = positions[i] + velocity
                # A fresh array: the best may keep it without a copy.
                candidate = map_into_bounds(candidate, space, rng)
                value = objective.evaluate(candidate)
                if value <= fitness[i] and uniform() < loudness[i]:
                    positions[i] = candidate
                    fitness[i] = value
                    loudness[i] *= decay
                if value < best_fitness:
                    best_position = candidate
                    best_fitness = value

    return drive("ba", objective, config, generations)[0]


def ba_runs(objective: Objective, params: BaParams, config: RunConfig,
            runs: int) -> list[RunRecord]:
    """``ba_run`` for ``runs`` seeds from ``config.seed`` on, one record per
    seed, each bit for bit ``ba_run``'s.

    The runs advance in lockstep: bat i moves in every run before bat i + 1
    moves in any. Each run draws from its own stream in ``ba_run``'s order,
    and every array operation is elementwise or reduces along one run's
    row, so each run sees ``ba_run``'s values. What the runs share is the
    cost of each numpy call: per bat, one velocity update, one bounds repair
    and one ``evaluate_many`` serve all R runs. An ``EvaluationError``
    raised here has ``row`` set to the index of its run.
    """
    n = params.population
    d = objective.dim
    space = objective.space
    f_min = params.frequency_min
    frequency_span = params.frequency_max - f_min
    pulse_rate, pulse_growth = params.pulse_rate, params.pulse_growth
    step_scale, decay = params.local_step_scale, params.loudness_decay

    def generations(rngs: list[RngStream]):
        runs = np.arange(len(rngs))
        uniforms = [rng.uniform for rng in rngs]
        samples = np.stack([space.sample(rng, n) for rng in rngs])
        # Bat-major positions, velocities and fitness, so that bat i of every
        # run is one contiguous (R, d) block; run-major loudness, whose row
        # sums then match ba_run's.
        fitness = evaluate_runs(objective, samples).T.copy()
        positions = samples.transpose(1, 0, 2).copy()
        velocities = np.zeros_like(positions)
        loudness = np.full((len(rngs), n), params.loudness)
        g = fitness.argmin(axis=0)
        best_positions = positions[g, runs]
        best_fitness = fitness[g, runs]

        for t in count(1):
            yield best_positions, best_fitness.tolist(), [n * t] * len(rngs)
            pulse = pulse_rate * (1.0 - np.exp(-pulse_growth * t))
            for i in range(n):
                freqs, fired = [], []
                for r, uniform in enumerate(uniforms):
                    freqs.append(f_min + frequency_span * uniform())
                    if uniform() < pulse:
                        fired.append(r)
                velocity = velocities[i]
                velocity += (positions[i] - best_positions) * np.array(freqs)[:, None]
                candidates = positions[i] + velocity
                if fired:
                    scales = step_scale * (np.add.reduce(loudness[fired], axis=1) / n)
                    steps = scales[:, None] * np.array([rngs[r].normal(size=d) for r in fired])
                    candidates[fired] = best_positions[fired] + steps
                candidates = map_into_bounds(candidates, space, rngs)
                values = objective.evaluate_many(candidates)
                no_worse = (values <= fitness[i]).nonzero()[0].tolist()
                accepted = [r for r in no_worse if uniforms[r]() < loudness[r, i]]
                if accepted:
                    positions[i, accepted] = candidates[accepted]
                    fitness[i, accepted] = values[accepted]
                    loudness[accepted, i] *= decay
                improved = values < best_fitness
                np.copyto(best_positions, candidates, where=improved[:, None])
                np.copyto(best_fitness, values, where=improved)

    return drive("ba", objective, config, generations, runs)
