"""Shared domain types: search spaces, individuals, random streams, run
configuration, and ``drive``, which records every algorithm's runs."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np


class EvaluationError(RuntimeError):
    """An objective produced a non-finite value; carries the offending
    position and, for a batch, ``row``, its index in the batch (None for a
    single position)."""

    def __init__(self, message: str, position, row: int | None = None) -> None:
        super().__init__(message)
        self.position = np.asarray(position, dtype=float)
        self.row = row


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box bounds, one (lower, upper) pair per dimension;
    ``width`` is ``upper - lower``, computed once. The bounds are copies of
    the arrays given, and all three arrays are read-only."""

    lower: np.ndarray
    upper: np.ndarray
    width: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower = np.array(self.lower, dtype=float, ndmin=1)
        upper = np.array(self.upper, dtype=float, ndmin=1)
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        require_finite(lower=lower, upper=upper)
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        for name, value in (("lower", lower), ("upper", upper), ("width", upper - lower)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def symmetric(cls, half_width: float, dim: int) -> "SearchSpace":
        """Box ``[-half_width, half_width]`` replicated over ``dim`` dimensions."""
        return cls(np.full(dim, -float(half_width)), np.full(dim, float(half_width)))

    def sample(self, rng: "RngStream", count: int) -> np.ndarray:
        """``count`` uniform random positions as a (count, d) array, one
        independent draw per coordinate, row-major from one draw."""
        return self.lower + rng.uniform(size=(count, self.dim)) * self.width


def _is_real(value) -> bool:
    """True for a real number (numpy scalars included) or a real-valued array;
    False for a string, None, a complex number or an object array."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biuf"
    return isinstance(value, numbers.Real)


def require_finite(**values) -> None:
    """Raise ValueError naming the first value that is not real or that holds
    a NaN or an infinity."""
    for name, value in values.items():
        if not _is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


def as_integer(name: str, value, least: int | None = None) -> int:
    """``operator.index`` of ``value``, so a numpy integer becomes a Python
    int; raise ValueError naming ``name`` for a value that is not an integer,
    one ``operator.index`` refuses (floats, NaN, strings, None), or that is
    below ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def store_integers(instance, *names) -> None:
    """Replace each named field of the frozen dataclass ``instance`` by
    ``as_integer`` of its value, raising for the first that is not one."""
    for name in names:
        object.__setattr__(instance, name, as_integer(name, getattr(instance, name)))


def store_numbers(instance, *integers) -> None:
    """Check and store every field of the frozen dataclass ``instance``:
    ``require_finite`` over all fields, then ``store_integers`` over the
    named ``integers``, then every other field stored as a Python float, so
    numpy scalars give the same instance and fingerprint as plain numbers."""
    fields = dict(vars(instance))
    require_finite(**fields)
    store_integers(instance, *integers)
    for name, value in fields.items():
        if name not in integers:
            if np.ndim(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(instance, name, float(value))


def map_into_bounds(positions, space: SearchSpace, rng: "RngStream", runs=None) -> np.ndarray:
    """Re-place out-of-bounds coordinates uniformly inside the box.

    Takes one (d,) position or an (n, d) batch and returns a new array of
    the same shape. Only violating coordinates are redrawn, as lower +
    beta * width with one fresh beta each, drawn in one block in row-major
    order (no draw when none violates); in-bounds coordinates pass through
    unchanged.

    ``rng`` may also be a list of R streams, one per run of R runs advanced
    in lockstep. The positions are then an (R, d) or (R, n, d) array whose
    first axis is the run, or (N, d) rows in any order with ``runs`` giving
    each row's run. Each run's betas come from its own stream, one block
    per run that violates, in the order of its rows, so every run gets the
    values a call on its own rows and stream alone would give. A list of
    one stream is taken as that stream, whatever the layout.
    """
    if isinstance(rng, list) and len(rng) == 1:
        (rng,) = rng
    positions = np.array(positions, dtype=float)
    mask = (positions < space.lower) | (positions > space.upper)
    index = mask.nonzero()
    cols = index[-1]
    if cols.size:
        if isinstance(rng, list):
            owners = index[0] if runs is None else runs[index[0]]
            counts = np.bincount(owners, minlength=len(rng)).tolist()
            betas = np.concatenate([s.uniform(size=k) for s, k in zip(rng, counts) if k])
            if runs is not None:  # each run's betas go to its coordinates in row order
                betas[owners.argsort(kind="stable")] = betas.copy()
        else:
            betas = rng.uniform(size=cols.size)
        positions[mask] = space.lower[cols] + betas * space.width[cols]
    return positions


def evaluate_runs(objective, positions: np.ndarray, runs=None) -> np.ndarray:
    """The fitness of lockstep runs' positions from one ``evaluate_many``,
    for the two layouts ``map_into_bounds`` takes: an (R, n, d) array whose
    first axis is the run gives (R, n), and (N, d) rows in any order with
    ``runs`` giving each row's run give (N,). An ``EvaluationError`` it
    raises has ``row`` set to the index of its run."""
    try:
        values = objective.evaluate_many(positions.reshape(-1, positions.shape[-1]))
    except EvaluationError as exc:
        exc.row = exc.row // positions.shape[1] if runs is None else int(runs[exc.row])
        raise
    return values.reshape(positions.shape[:-1])


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

    One kind of draw bypasses numpy's ``Generator.integers``, whose argument
    handling is most of a scalar call's cost: a single draw with Python-int
    bounds ``0 <= low < high <= 2**32 - 1``. A range of 1 returns ``low``
    and draws nothing, as numpy does; a wider one reads the bit generator's
    32-bit output through ``bit_generator.ctypes.next_uint32`` and applies
    numpy's own rule for such a range, Lemire's multiply-and-reject (Lemire,
    "Fast Random Integer Generation in an Interval", ACM TOMACS 2019).
    ``next_uint32`` shares the buffered half-word that numpy's integer path
    uses, so both paths interleave exactly and ``bit_generator.state``
    describes the stream. ``tests/test_core.py``'s
    ``test_scalar_integer_fast_path_matches_numpy`` pins the values and the
    final state to a plain numpy ``Generator``. Every other integer draw
    goes through numpy: array bounds, ``size``, numpy-int bounds, a negative
    ``low`` and a ``high`` of 2**32 or more.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._bind_bits()

    def _bind_bits(self) -> None:
        # self._gen keeps alive the bit generator whose state the pointer addresses
        bits = self._gen.bit_generator.ctypes
        self._next_uint32, self._bits_state = bits.next_uint32, bits.state
        self._next_double = bits.next_double

    def __getstate__(self) -> dict:
        # a ctypes pointer cannot be pickled; a copy binds to its own generator
        return {"seed": self.seed, "_gen": self._gen}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_bits()

    def uniform(self, size=None):
        """Uniform draw(s) from [0, 1). A single draw reads the bit
        generator's ``next_double``, the double ``Generator.random()``
        returns, without numpy's argument handling."""
        if size is None:
            return self._next_double(self._bits_state)
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
        if (size is None and type(low) is int and type(high) is int
                and 0 <= low < high <= 0xFFFFFFFF):
            # numpy's bounded draw for a 32-bit range: the high word of a
            # 32x32-bit product, rejecting the low words below the threshold
            excl = high - low
            if excl == 1:
                return low
            m = self._next_uint32(self._bits_state) * excl
            if m & 0xFFFFFFFF < excl:
                threshold = (0x100000000 - excl) % excl
                while m & 0xFFFFFFFF < threshold:
                    m = self._next_uint32(self._bits_state) * excl
            return low + (m >> 32)
        out = self._gen.integers(low, high, size=size)
        return out if isinstance(out, np.ndarray) else int(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed})"


# Keeps the intensity exponent finite when all fitnesses coincide (LFWA) and
# the FWA count and amplitude ratios defined; machine epsilon in both papers.
XI = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RunConfig:
    """Run protocol knobs shared by every algorithm.

    ``population_size`` is the number of fireworks M.
    ``gaussian_sparks_per_generation`` of ``None`` means one mutant per
    firework (M total). The counts and the seed must be integers (numpy
    integers included, stored as Python ints), the seed nonnegative; the
    tolerance is stored as a Python float.
    """

    population_size: int = 5
    max_iterations: int = 1000
    tolerance: float = 1e-5
    seed: int = 0
    gaussian_sparks_per_generation: int | None = None

    def __post_init__(self) -> None:
        store_integers(self, "population_size", "max_iterations", "seed")
        if self.gaussian_sparks_per_generation is not None:
            store_integers(self, "gaussian_sparks_per_generation")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        tolerance = self.tolerance
        if not (_is_real(tolerance) and np.ndim(tolerance) == 0
                and math.isfinite(tolerance) and tolerance >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
        object.__setattr__(self, "tolerance", float(tolerance))
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


def drive(algorithm: str, objective, config: RunConfig, generations, runs: int = 1):
    """``runs`` runs of ``algorithm`` on ``objective`` under the shared
    protocol, seeded ``config.seed + r`` for r in ``range(runs)``, one record
    per run in seed order.

    ``generations(rngs)`` is a generator over the runs' streams, one per
    seed. It yields the runs' best-so-far positions (an (R, d) array or R
    rows), their R Python float fitnesses and their R evaluation counts,
    each the number of positions its run has evaluated so far: once after
    initialization and once after each generation. ``drive`` takes
    ``config.max_iterations + 1`` of them and never resumes the generator
    after the last: that would run one more generation of draws and
    evaluations. Only the last step's positions and counts are kept, but
    every step's fitness sequence is kept as a row of the trajectories, so
    a generator must yield a new one every step, never one it later
    updates in place.
    """
    seeds = range(config.seed, config.seed + as_integer("runs", runs, least=1))
    steps = islice(generations([RngStream(seed) for seed in seeds]), config.max_iterations + 1)
    trajectory = []
    for positions, fitness, evaluations in steps:
        trajectory.append(fitness)
    return [
        RunRecord(
            algorithm=algorithm,
            objective=objective.name,
            seed=seed,
            trajectory=column,
            final_best=Individual(position, f),
            evaluations_used=count,
        )
        for seed, column, position, f, count in zip(
            seeds, np.array(trajectory).T.copy(), positions, fitness, evaluations)
    ]
