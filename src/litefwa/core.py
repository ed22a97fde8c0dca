"""Shared domain types: search spaces, individuals, random streams, run
configuration, and ``drive``, which records every algorithm's runs."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np


class EvaluationError(RuntimeError):
    """An objective produced a non-finite value; carries the offending position."""

    def __init__(self, message: str, position) -> None:
        super().__init__(message)
        self.position = np.asarray(position, dtype=float)


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box bounds, one (lower, upper) pair per dimension;
    ``width`` is ``upper - lower``, computed once."""

    lower: np.ndarray
    upper: np.ndarray
    width: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        require_finite(lower=lower, upper=upper)
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "width", upper - lower)

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def symmetric(cls, half_width: float, dim: int) -> "SearchSpace":
        """Box ``[-half_width, half_width]`` replicated over ``dim`` dimensions."""
        return cls(np.full(dim, -float(half_width)), np.full(dim, float(half_width)))

    def contains(self, position) -> bool:
        position = np.asarray(position, dtype=float)
        return bool(np.all(position >= self.lower) and np.all(position <= self.upper))

    def sample(self, rng: "RngStream", count: int) -> np.ndarray:
        """``count`` uniform random positions as a (count, d) array, one
        independent draw per coordinate, row-major from one draw."""
        return self.lower + rng.uniform(size=(count, self.dim)) * self.width


def require_finite(**values) -> None:
    """Raise ValueError naming the first value that holds a NaN or an infinity."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_integer(**values) -> None:
    """Raise ValueError naming the first value that is not an integer, that
    is, one ``operator.index`` refuses (floats, NaN, strings)."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


def map_into_bounds(positions, space: SearchSpace, rng: "RngStream") -> np.ndarray:
    """Re-place out-of-bounds coordinates uniformly inside the box.

    Takes one (d,) position or an (n, d) batch and returns a new array of
    the same shape. Only violating coordinates are redrawn, as lower +
    beta * width with one fresh beta each, drawn in one block in row-major
    order (no draw when none violates); in-bounds coordinates pass through
    unchanged.
    """
    positions = np.array(positions, dtype=float)
    mask = (positions < space.lower) | (positions > space.upper)
    cols = mask.nonzero()[-1]
    if cols.size:
        positions[mask] = space.lower[cols] + rng.uniform(size=cols.size) * space.width[cols]
    return positions


@dataclass(frozen=True)
class Individual:
    """A position vector with its cached objective value (minimization)."""

    position: np.ndarray
    fitness: float

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=float)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "fitness", float(self.fitness))
        if not math.isfinite(self.fitness):
            raise ValueError(f"individual fitness must be finite, got {self.fitness!r}")


class RngStream:
    """Seeded random stream; every stochastic step in the library draws from one.

    A stream is single-owner: one run owns one stream, and identical seeds
    with identical call sequences reproduce identical outputs bit for bit.
    The three primitives below are the only randomness the optimizers use,
    which keeps runs replayable from a recorded tape of draws.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        """Uniform draw(s) from [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draw(s), mean 0 and standard deviation 1."""
        return self._gen.standard_normal(size)

    def integers(self, low, high, size=None):
        """Uniform integer draw(s) from [low, high).

        An array ``low`` (or ``high``) gives one draw per entry, with the
        values and the final stream state of the scalar draws made one
        after another; scalar bounds without ``size`` give a Python int.
        """
        out = self._gen.integers(low, high, size=size)
        return out if isinstance(out, np.ndarray) else int(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed})"


@dataclass(frozen=True)
class RunConfig:
    """Run protocol knobs shared by every algorithm.

    ``population_size`` is the number of fireworks M. ``xi`` is the tiny
    constant that keeps the intensity exponent finite when all fitnesses
    coincide; it defaults to machine epsilon. ``gaussian_sparks_per_generation``
    of ``None`` means one mutant per firework (M total). The counts and the
    seed must be integers (numpy integers included), the seed nonnegative.

    ``scalar_beta`` switches the displacement step from one uniform draw per
    dimension (default) to a single shared draw per spark, for comparison
    against the whole-vector-displacement reading.
    """

    population_size: int = 5
    max_iterations: int = 1000
    tolerance: float = 1e-5
    seed: int = 0
    gaussian_sparks_per_generation: int | None = None
    xi: float = float(np.finfo(np.float64).eps)
    scalar_beta: bool = False

    def __post_init__(self) -> None:
        require_integer(
            population_size=self.population_size,
            max_iterations=self.max_iterations,
            seed=self.seed,
        )
        if self.gaussian_sparks_per_generation is not None:
            require_integer(gaussian_sparks_per_generation=self.gaussian_sparks_per_generation)
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance!r}")
        if not (math.isfinite(self.xi) and self.xi > 0):
            raise ValueError(f"xi must be finite and positive, got {self.xi!r}")
        if (
            self.gaussian_sparks_per_generation is not None
            and self.gaussian_sparks_per_generation < 1
        ):
            raise ValueError("gaussian_sparks_per_generation must be positive")

    @property
    def gaussian_spark_count(self) -> int:
        if self.gaussian_sparks_per_generation is None:
            return self.population_size
        return self.gaussian_sparks_per_generation


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one optimization run under the shared protocol.

    ``trajectory`` holds the best-so-far fitness at initialization and after
    each iteration, so its length is ``max_iterations + 1``.
    """

    algorithm: str
    objective: str
    seed: int
    trajectory: np.ndarray
    final_best: Individual
    evaluations_used: int

    def __post_init__(self) -> None:
        trajectory = np.asarray(self.trajectory, dtype=float)
        object.__setattr__(self, "trajectory", trajectory)
        if trajectory.ndim != 1 or trajectory.size == 0:
            raise ValueError("trajectory must be a non-empty 1-d array")
        if np.any(np.diff(trajectory) > 0):
            raise ValueError("best-so-far trajectory must be non-increasing")
        if trajectory[-1] != self.final_best.fitness:
            raise ValueError("final_best.fitness must equal the last trajectory entry")


def drive(algorithm: str, objective, config: RunConfig, generations) -> RunRecord:
    """One run of ``algorithm`` on ``objective`` under the shared protocol.

    ``generations(rng)`` is a generator over the run's stream, seeded with
    ``config.seed``. It yields the best-so-far ``(position, fitness)``, a
    Python float fitness, once after initialization and once after each
    generation. ``drive`` takes ``config.max_iterations + 1`` of them and
    never resumes the generator after the last: that would run one more
    generation of draws and evaluations.
    """
    evals_before = objective.eval_count
    trajectory = []
    for position, fitness in islice(generations(RngStream(config.seed)), config.max_iterations + 1):
        trajectory.append(fitness)
    return RunRecord(
        algorithm=algorithm,
        objective=objective.name,
        seed=config.seed,
        trajectory=np.asarray(trajectory),
        final_best=Individual(position, fitness),
        evaluations_used=objective.eval_count - evals_before,
    )
