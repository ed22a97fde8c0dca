"""Golden digests: seeded LFWA runs must reproduce committed outputs bit for bit.

A run's digest is SHA-256 over ``trajectory.tobytes()``,
``final_best.position.tobytes()`` and the decimal ``evaluations_used``, the
same digest ``bench/checks.py`` commits in ``bench/golden.json``. Two tables
are checked:

- the ``lfwa/f{1,2,5,7}/{0,1}`` entries of ``bench/golden.json`` (default
  ``RunConfig``, 1000 generations), read and never written here;
- ``golden_lfwa.json`` next to this file: all nine functions at seeds 0..2
  and 150 generations, plus ``scalar_beta``, population 2 and 8, and three
  Gaussian mutants per generation on f7.

A change that reorders or merges random draws in a way that moves any value
fails here by name. Regenerate the committed table only for a change meant
to alter seeded outputs, and say which outputs moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import hashlib
import json
import os

import pytest

from litefwa.benchmarks import make_objective, objective_names
from litefwa.core import RunConfig
from litefwa.lfwa import lfwa_run

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "golden_lfwa.json")
BENCH_GOLDEN_PATH = os.path.join(os.path.dirname(HERE), "bench", "golden.json")

TABLE_ITERATIONS = 150
TABLE_SEEDS = (0, 1, 2)
# name -> RunConfig fields beyond seed and iterations, all on f7
F7_VARIANTS = {
    "scalar_beta": {"scalar_beta": True},
    "pop2": {"population_size": 2},
    "pop8": {"population_size": 8},
    "mutants3": {"gaussian_sparks_per_generation": 3},
}
BENCH_KEYS = [f"lfwa/{fn}/{seed}" for fn in ("f1", "f2", "f5", "f7") for seed in (0, 1)]


def run_digest(record) -> str:
    h = hashlib.sha256()
    h.update(record.trajectory.tobytes())
    h.update(record.final_best.position.tobytes())
    h.update(str(int(record.evaluations_used)).encode())
    return h.hexdigest()


def table_cases() -> dict[str, tuple[str, dict]]:
    """Case name -> (function, RunConfig keyword arguments)."""
    cases = {}
    for seed in TABLE_SEEDS:
        common = {"seed": seed, "max_iterations": TABLE_ITERATIONS}
        for fn in objective_names():
            cases[f"{fn}/{seed}"] = (fn, common)
        for variant, fields in F7_VARIANTS.items():
            cases[f"f7/{variant}/{seed}"] = ("f7", {**common, **fields})
    return cases


def case_digest(function: str, fields: dict) -> str:
    return run_digest(lfwa_run(make_objective(function), RunConfig(**fields)))


@functools.cache
def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", BENCH_KEYS)
def test_lfwa_matches_bench_golden(key):
    _, fn, seed = key.split("/")
    expected = load_json(BENCH_GOLDEN_PATH)["serial"][key]
    assert case_digest(fn, {"seed": int(seed)}) == expected


@pytest.mark.parametrize("name", sorted(table_cases()))
def test_lfwa_matches_committed_table(name):
    function, fields = table_cases()[name]
    assert case_digest(function, fields) == load_json(TABLE_PATH)[name]


def test_committed_table_covers_every_case():
    assert sorted(load_json(TABLE_PATH)) == sorted(table_cases())


if __name__ == "__main__":
    table = {name: case_digest(fn, fields) for name, (fn, fields) in table_cases().items()}
    with open(TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {TABLE_PATH}")
