"""Reference implementations of the three comparison algorithms.

All three run under the same protocol as the main optimizer (same run
configuration, same uniform initialization pattern, same out-of-bounds
mapping rule, and one recorder, ``core.drive``, fed the best-so-far after
initialization and after each generation), so result differences reflect
the algorithms and not the plumbing. Their parameters are pinned here as
documented finite defaults and are printed into every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .benchmarks import Objective
from .core import (
    RngStream,
    RunConfig,
    RunRecord,
    drive,
    map_into_bounds,
    require_finite,
    require_integer,
)

__all__ = ["FwaParams", "SpsoParams", "BaParams", "fwa_run", "spso_run", "ba_run"]


@dataclass(frozen=True)
class FwaParams:
    """Classic fireworks algorithm settings (2010 formulation defaults)."""

    total_spark_budget: int = 50
    intensity_min_fraction: float = 0.04
    intensity_max_fraction: float = 0.8
    max_amplitude: float = 40.0
    gaussian_spark_count: int = 5

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        require_integer(
            total_spark_budget=self.total_spark_budget,
            gaussian_spark_count=self.gaussian_spark_count,
        )
        if not 0.0 < self.intensity_min_fraction < self.intensity_max_fraction < 1.0:
            raise ValueError("need 0 < min fraction < max fraction < 1")
        if self.total_spark_budget < 1 or self.gaussian_spark_count < 1:
            raise ValueError("spark budgets must be positive")
        if self.max_amplitude <= 0:
            raise ValueError("max_amplitude must be positive")


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
        require_finite(**vars(self))
        require_integer(swarm_size=self.swarm_size)
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
        require_finite(**vars(self))
        require_integer(population=self.population)
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.frequency_min > self.frequency_max:
            raise ValueError("frequency_min must not exceed frequency_max")
        if not 0.0 < self.loudness_decay <= 1.0:
            raise ValueError("loudness_decay must be in (0, 1]")
        if self.pulse_growth <= 0:
            raise ValueError("pulse_growth must be positive")


def _random_dim_masks(rows: int, dim: int, per_row_counts: np.ndarray, rng: RngStream) -> np.ndarray:
    """Boolean (rows, dim) mask with exactly per_row_counts[k] True entries
    per row, each subset uniform; one batched draw."""
    noise = np.asarray(rng.uniform(size=(rows, dim)))
    ranks = np.argsort(np.argsort(noise, axis=1), axis=1)
    return ranks < per_row_counts[:, None]


def fwa_run(objective: Objective, params: FwaParams, config: RunConfig) -> RunRecord:
    """Classic fireworks algorithm: budgeted spark counts with clamping,
    fitness-proportional amplitudes, shared-displacement explosion sparks,
    multiplicative Gaussian sparks, and distance-based roulette selection
    that always keeps the best candidate."""
    m = config.population_size
    d = objective.dim
    eps = config.xi
    budget = params.total_spark_budget
    low_clamp = int(round(params.intensity_min_fraction * budget))
    high_clamp = int(round(params.intensity_max_fraction * budget))

    def generations(rng: RngStream):
        positions = objective.space.sample(rng, m)
        fitness = objective.evaluate_many(positions)
        best_idx = int(np.argmin(fitness))
        best_position, best_fitness = positions[best_idx].copy(), float(fitness[best_idx])

        while True:
            yield best_position, best_fitness
            f_max = fitness.max()
            f_min = fitness.min()
            raw_counts = budget * (f_max - fitness + eps) / (np.sum(f_max - fitness) + eps)
            counts = np.clip(np.round(raw_counts).astype(int), max(low_clamp, 1), high_clamp)
            amplitudes = (
                params.max_amplitude * (fitness - f_min + eps) / (np.sum(fitness - f_min) + eps)
            )

            # Explosion sparks, batched: each spark displaces a random subset
            # of dimensions of its parent by one shared amplitude-scaled offset.
            total = int(counts.sum())
            parents = np.repeat(np.arange(m), counts)
            sparks = positions[parents].copy()
            z = np.round(d * np.asarray(rng.uniform(size=total))).astype(int)
            masks = _random_dim_masks(total, d, z, rng)
            offsets = amplitudes[parents] * (2.0 * np.asarray(rng.uniform(size=total)) - 1.0)
            sparks += masks * offsets[:, None]

            g = params.gaussian_spark_count
            g_parents = np.asarray(rng.integers(0, m, size=g))
            mutants = positions[g_parents].copy()
            gz = np.round(d * np.asarray(rng.uniform(size=g))).astype(int)
            g_masks = _random_dim_masks(g, d, gz, rng)
            factors = 1.0 + np.asarray(rng.normal(size=g))
            mutants = np.where(g_masks, mutants * factors[:, None], mutants)

            new_positions = map_into_bounds(np.vstack([sparks, mutants]), objective.space, rng)
            spark_fitness = objective.evaluate_many(new_positions)
            cand_positions = np.vstack([positions, new_positions])
            cand_fitness = np.concatenate([fitness, spark_fitness])

            elite = int(np.argmin(cand_fitness))
            if cand_fitness[elite] < best_fitness:
                best_position = cand_positions[elite].copy()
                best_fitness = float(cand_fitness[elite])

            # Distance-based roulette over the non-elite candidates: crowded
            # regions get lower selection pressure.
            sq = np.sum(cand_positions**2, axis=1)
            gram2 = 2.0 * cand_positions @ cand_positions.T
            dist_sq = np.maximum(sq[:, None] + sq[None, :] - gram2, 0.0)
            crowding = np.sqrt(dist_sq).sum(axis=1)
            pool = np.arange(len(cand_fitness)) != elite
            weights = crowding[pool]
            weight_sum = weights.sum()
            if weight_sum <= 0:
                probs = np.full(weights.size, 1.0 / weights.size)
            else:
                probs = weights / weight_sum
            cumulative = np.cumsum(probs)
            pool_indices = np.flatnonzero(pool)
            spins = np.asarray(rng.uniform(size=m - 1))
            picks = pool_indices[np.minimum(np.searchsorted(cumulative, spins), weights.size - 1)]
            keep = np.concatenate(([elite], picks))
            positions = cand_positions[keep].copy()
            fitness = cand_fitness[keep].copy()

    return drive("fwa", objective, config, generations)


def spso_run(objective: Objective, params: SpsoParams, config: RunConfig) -> RunRecord:
    """Global-best particle swarm with linearly decaying inertia weight.

    Velocities start at zero and are clamped per dimension to a fraction of
    the domain width; positions leaving the box are re-placed by the shared
    mapping rule before evaluation.
    """
    n = params.swarm_size
    space = objective.space
    v_max = params.velocity_clamp_fraction * space.width
    steps = max(config.max_iterations - 1, 1)

    def generations(rng: RngStream):
        positions = space.sample(rng, n)
        fitness = objective.evaluate_many(positions)
        velocities = np.zeros_like(positions)
        pbest_pos = positions.copy()
        pbest_fit = fitness.copy()
        g = int(np.argmin(pbest_fit))
        best_position, best_fitness = pbest_pos[g].copy(), float(pbest_fit[g])

        for t in count():
            yield best_position, best_fitness
            w = params.inertia_start - (params.inertia_start - params.inertia_end) * (t / steps)
            r1 = np.asarray(rng.uniform(size=positions.shape))
            r2 = np.asarray(rng.uniform(size=positions.shape))
            velocities = (
                w * velocities
                + params.cognitive * r1 * (pbest_pos - positions)
                + params.social * r2 * (best_position - positions)
            )
            velocities = np.clip(velocities, -v_max, v_max)
            positions = map_into_bounds(positions + velocities, space, rng)
            fitness = objective.evaluate_many(positions)

            improved = fitness < pbest_fit
            pbest_pos[improved] = positions[improved]
            pbest_fit[improved] = fitness[improved]
            g = int(np.argmin(pbest_fit))
            if pbest_fit[g] < best_fitness:
                best_position, best_fitness = pbest_pos[g].copy(), float(pbest_fit[g])

    return drive("spso", objective, config, generations)


def ba_run(objective: Objective, params: BaParams, config: RunConfig) -> RunRecord:
    """Bat algorithm: frequency-tuned velocities toward the global best,
    a loudness-scaled local walk taken with the (growing) pulse rate, and
    loudness-gated acceptance of improvements.

    Bats move one after another, each toward the best found so far,
    including by the bats before it in the same iteration. Per bat the
    draws are: the frequency, the pulse test, ``d`` normals when the pulse
    fires, one uniform per out-of-bounds coordinate, and the acceptance
    test only when the candidate is no worse than the bat's position.
    """
    n = params.population
    d = objective.dim
    space = objective.space
    frequency_span = params.frequency_max - params.frequency_min

    def generations(rng: RngStream):
        positions = space.sample(rng, n)
        fitness = objective.evaluate_many(positions).tolist()
        velocities = np.zeros_like(positions)
        loudness = np.full(n, params.loudness)
        g = int(np.argmin(fitness))
        best_position = positions[g].copy()
        best_fitness = fitness[g]

        for t in count(1):
            yield best_position, best_fitness
            pulse = params.pulse_rate * (1.0 - np.exp(-params.pulse_growth * t))
            for i in range(n):
                freq = params.frequency_min + frequency_span * rng.uniform()
                velocity = velocities[i]
                velocity += (positions[i] - best_position) * freq
                if rng.uniform() < pulse:
                    step = np.asarray(rng.normal(size=d))
                    candidate = best_position + params.local_step_scale * loudness.mean() * step
                else:
                    candidate = positions[i] + velocity
                # A fresh array: the best may keep it without a copy.
                candidate = map_into_bounds(candidate, space, rng)
                value = objective.evaluate(candidate)
                if value <= fitness[i] and rng.uniform() < loudness[i]:
                    positions[i] = candidate
                    fitness[i] = value
                    loudness[i] *= params.loudness_decay
                if value < best_fitness:
                    best_position = candidate
                    best_fitness = value

    return drive("ba", objective, config, generations)
