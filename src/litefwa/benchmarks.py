"""Benchmark objective registry: nine classic test functions, f1 through f9.

The registry reproduces a widely used nine-function comparison suite.
Several circulated statements of that suite contain transcription errors
that contradict their own declared optima (a linear Sphere, an unsquared
Rosenbrock coupling, a 3.1*x1**6 camel-back coefficient, and so on); those
entries are registered here in their standard textbook forms, and every
reconciliation is recorded in the objective's ``formula_note`` so reports
can print which form was actually evaluated.

The one entry that cannot be reconciled is f6: the formula
``sum(-x*sin(sqrt(|x|)))`` is kept exactly as circulated, its declared
optimum of 0 is kept for success-rate bookkeeping, and the contradiction
(its true minimum on the domain is about -1909) is flagged via
``optimum_inconsistent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import EvaluationError, SearchSpace

__all__ = ["Objective", "ObjectiveLookupError", "make_objective", "objective_names"]


class ObjectiveLookupError(KeyError):
    """Requested benchmark name is not registered."""


@dataclass
class Objective:
    """A benchmark function plus the metadata used for success bookkeeping.

    ``func`` maps positions of shape ``(..., dim)`` to values of shape
    ``(...)``: a ``(dim,)`` row to a scalar, an ``(n, dim)`` batch to ``n``
    values; ``dim`` is ``space.dim``, set at construction.
    ``declared_optimum`` is the target value a run is judged against.
    ``known_minimizer`` is a point attaining it (absent for f6, where no
    such point exists on the domain). ``eval_count`` tallies every
    evaluation performed through this instance, over all the runs it serves.
    """

    name: str
    label: str
    dim: int = field(init=False)
    space: SearchSpace
    declared_optimum: float
    known_minimizer: np.ndarray | None
    func: Callable[[np.ndarray], np.ndarray]
    formula_note: str = ""
    source_label: str | None = None
    standard_form: bool = True
    optimum_inconsistent: bool = False
    eval_count: int = 0

    def __post_init__(self) -> None:
        self.dim = self.space.dim

    def evaluate(self, position) -> float:
        """Evaluate one position of shape ``(dim,)``, incrementing the
        evaluation counter by 1; ``func`` gets the row itself, and the value
        equals ``evaluate_many`` on the position as a one-row batch."""
        position = np.asarray(position, dtype=float)
        if position.shape != (self.dim,):
            raise self._shape_error(position)
        try:
            value = self.func(position)
        except IndexError as exc:  # batch-only indexing: axis=1, x[:, k] (AxisError too)
            raise self._contract_error(position, f"raised {type(exc).__name__}: {exc}") from exc
        if getattr(value, "ndim", 0):
            raise self._contract_error(position, f"gave shape {value.shape}")
        value = float(value)
        self.eval_count += 1
        if not math.isfinite(value):
            raise EvaluationError(f"{self.name} returned non-finite value {value!r}", position)
        return value

    def evaluate_many(self, positions) -> np.ndarray:
        """Evaluate a batch of positions, one counter increment per row; a
        non-finite value raises EvaluationError with the first such row."""
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != self.dim:
            raise self._shape_error(positions)
        values = np.asarray(self.func(positions), dtype=float)
        if values.shape != positions.shape[:1]:
            raise self._contract_error(positions, f"gave shape {values.shape}")
        self.eval_count += len(positions)
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise EvaluationError(
                f"{self.name} returned non-finite value {float(values[i])!r}", positions[i], row=i
            )
        return values

    def _contract_error(self, positions: np.ndarray, outcome: str) -> ValueError:
        return ValueError(
            f"{self.name}: func must map positions of shape (..., {self.dim}) to "
            f"values of shape (...); positions of shape {positions.shape} {outcome}"
        )

    def _shape_error(self, positions: np.ndarray) -> ValueError:
        return ValueError(
            f"{self.name} expects positions of dimension {self.dim}, "
            f"got array of shape {positions.shape}"
        )

    @property
    def metadata(self) -> dict:
        """Registry metadata as plain values, for reports and provenance files.

        ``lower``/``upper`` are single numbers when every dimension shares
        them, as in the registry's boxes, and per-dimension lists otherwise.
        """
        lower, upper = self.space.lower, self.space.upper
        uniform = bool(np.all(lower == lower[0]) and np.all(upper == upper[0]))
        return {
            "name": self.name,
            "label": self.label,
            "dim": self.dim,
            "lower": float(lower[0]) if uniform else lower.tolist(),
            "upper": float(upper[0]) if uniform else upper.tolist(),
            "declared_optimum": self.declared_optimum,
            "formula_note": self.formula_note,
            "source_label": self.source_label,
            "standard_form": self.standard_form,
            "optimum_inconsistent": self.optimum_inconsistent,
        }


# Each kernel maps (..., d) to (...): one (d,) row gives a scalar and an
# (n, d) batch n values, with the same bits for a row alone or inside a batch
# (the reductions run over the last axis, one row at a time). They call the
# ufunc reductions directly: np.sum, np.prod and np.mean run the same
# reductions (and np.mean the same true division) behind a Python wrapper
# whose cost exceeds the arithmetic on the single rows that the bat algorithm
# evaluates. On a row, ``x[..., k]`` is a 0-d array, whose ``**`` is the
# array power, but arithmetic on it gives numpy scalars, whose ``**`` calls
# the C library's pow and can differ from the array power in the last bit;
# such intermediates square by multiplication, which ``** 2`` on an array is.


def _sphere(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x * x, axis=-1)


def _rosenbrock(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(
        100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (x[..., :-1] - 1.0) ** 2, axis=-1
    )


def _rastrigin(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def _griewank(x: np.ndarray) -> np.ndarray:
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    return (
        np.add.reduce(x * x, axis=-1) / 4000.0
        - np.multiply.reduce(np.cos(x / np.sqrt(i)), axis=-1)
        + 1.0
    )


def _ackley(x: np.ndarray) -> np.ndarray:
    # Term order matters at convergence: evaluated left to right this form
    # bottoms out at a few ulps of e instead of exactly 0.
    n = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.add.reduce(x * x, axis=-1) / n))
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / n)
        + 20.0
        + np.e
    )


def _schwefel_as_circulated(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(-x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def _six_hump_camel_back(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[..., 0], x[..., 1]
    return 4.0 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2 - 4.0 * x2**2 + 4.0 * x2**4


def _goldstein_price(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[..., 0], x[..., 1]
    s = x1 + x2 + 1.0
    t = 2.0 * x1 - 3.0 * x2
    a = 1.0 + s * s * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    b = 30.0 + t * t * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return a * b


def _schaffer_f6(x: np.ndarray) -> np.ndarray:
    rr = x[..., 0] ** 2 + x[..., 1] ** 2
    s = np.sin(np.sqrt(rr))
    q = 1.0 + 0.001 * rr
    return 0.5 + (s * s - 0.5) / (q * q)


_REGISTRY: dict[str, dict] = {
    "f1": dict(
        label="Sphere",
        dim=30,
        half_width=100.0,
        declared_optimum=0.0,
        minimizer=0.0,
        func=_sphere,
        formula_note=(
            "standard sum of squares; the linear-sum variant sometimes circulated "
            "for this suite attains -3000 on the domain, contradicting optimum 0"
        ),
    ),
    "f2": dict(
        label="Rosenbrock",
        dim=30,
        half_width=10.0,
        declared_optimum=0.0,
        minimizer=1.0,
        func=_rosenbrock,
        formula_note=(
            "standard form with squared coupling 100*(x[i+1]-x[i]**2)**2; the "
            "unsquared variant has no minimum of 0 at the all-ones point"
        ),
    ),
    "f3": dict(
        label="Rastrigin",
        dim=30,
        half_width=5.12,
        declared_optimum=0.0,
        minimizer=0.0,
        func=_rastrigin,
        formula_note="standard Rastrigin; the formula is authoritative over the label",
        source_label="Rosenbrock",
    ),
    "f4": dict(
        label="Griewank",
        dim=30,
        half_width=600.0,
        declared_optimum=0.0,
        minimizer=0.0,
        func=_griewank,
        formula_note="",
    ),
    "f5": dict(
        label="Ackley",
        dim=30,
        half_width=32.0,
        declared_optimum=0.0,
        minimizer=0.0,
        func=_ackley,
        formula_note=(
            "standard averaged form; variants omitting the 1/n factors do not "
            "attain the declared 0 at the origin"
        ),
    ),
    "f6": dict(
        label="Schwefel (as circulated)",
        dim=30,
        half_width=100.0,
        declared_optimum=0.0,
        minimizer=None,
        func=_schwefel_as_circulated,
        formula_note=(
            "kept exactly as circulated: sum(-x*sin(sqrt(|x|))); its true minimum "
            "on [-100,100]^30 is about -1909, so the declared optimum 0 is "
            "unreachable bookkeeping only"
        ),
        standard_form=False,
        optimum_inconsistent=True,
    ),
    "f7": dict(
        label="Six-Hump Camel-Back",
        dim=2,
        half_width=5.0,
        declared_optimum=-1.0316285,
        minimizer=np.array([0.089842, -0.712656]),
        func=_six_hump_camel_back,
        formula_note=(
            "standard x1**6/3 coefficient; a circulated 3.1*x1**6 variant cannot "
            "reach the declared -1.0316285"
        ),
    ),
    "f8": dict(
        label="Goldstein-Price",
        dim=2,
        half_width=2.0,
        declared_optimum=3.0,
        minimizer=np.array([0.0, -1.0]),
        func=_goldstein_price,
        formula_note=(
            "standard bracket constants with 3*x2**2 in the first factor; the "
            "3*x2**4 variant does not have minimum 3 at (0, -1)"
        ),
    ),
    "f9": dict(
        label="Schaffer F6",
        dim=2,
        half_width=100.0,
        declared_optimum=0.0,
        minimizer=0.0,
        func=_schaffer_f6,
        formula_note="",
    ),
}


def objective_names() -> list[str]:
    """Registered benchmark names in suite order."""
    return list(_REGISTRY)


def make_objective(name: str) -> Objective:
    """Build a fresh objective (its evaluation counter starts at zero).

    Raises ObjectiveLookupError for unknown names, listing the valid ones.
    """
    try:
        entry = _REGISTRY[name]
    except KeyError:
        valid = ", ".join(_REGISTRY)
        raise ObjectiveLookupError(
            f"unknown objective {name!r}; valid names: {valid}"
        ) from None
    minimizer = entry["minimizer"]
    if minimizer is not None:
        minimizer = np.full(entry["dim"], float(minimizer)) if np.ndim(minimizer) == 0 else np.asarray(minimizer, dtype=float)
    return Objective(
        name=name,
        label=entry["label"],
        space=SearchSpace.symmetric(entry["half_width"], entry["dim"]),
        declared_optimum=float(entry["declared_optimum"]),
        known_minimizer=minimizer,
        func=entry["func"],
        formula_note=entry["formula_note"],
        source_label=entry.get("source_label"),
        standard_form=entry.get("standard_form", True),
        optimum_inconsistent=entry.get("optimum_inconsistent", False),
    )
