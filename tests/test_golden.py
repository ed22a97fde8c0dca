"""Golden digests: seeded runs must reproduce committed outputs bit for bit.

A run's digest is SHA-256 over ``trajectory.tobytes()``,
``final_best.position.tobytes()`` and the decimal ``evaluations_used``, the
same digest ``bench/checks.py`` commits in ``bench/golden.json``. Three
tables are checked:

- the ``{lfwa,fwa,spso,ba}/f{1,2,5,7}/{0,1}`` entries of
  ``bench/golden.json`` (default ``RunConfig`` and parameters, 1000
  generations), read and never written here;
- ``golden_lfwa.json`` next to this file: LFWA on all nine functions at
  seeds 0..2 and 150 generations, plus ``scalar_beta``, population 2 and 8,
  and three Gaussian mutants per generation on f7;
- ``golden_baselines.json`` next to this file: FWA, SPSO and BA on all nine
  functions at seeds 0..2 and 150 iterations, plus parameter variants on f1
  and f7 (BA with a frequent local walk, with constant loudness and no
  walk, and with two bats; FWA with a budget of 10 sparks; SPSO with 10
  particles).

A change that reorders or merges random draws in a way that moves any value
fails here by name. Regenerate the committed tables only for a change meant
to alter seeded outputs, and say which outputs moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

from litefwa.baselines import BaParams, FwaParams, SpsoParams, ba_run, fwa_run, spso_run
from litefwa.benchmarks import make_objective, objective_names
from litefwa.core import RunConfig
from litefwa.lfwa import lfwa_run

HERE = os.path.dirname(os.path.abspath(__file__))
LFWA_TABLE_PATH = os.path.join(HERE, "golden_lfwa.json")
BASELINES_TABLE_PATH = os.path.join(HERE, "golden_baselines.json")
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
BASELINES = {
    "fwa": (fwa_run, FwaParams),
    "spso": (spso_run, SpsoParams),
    "ba": (ba_run, BaParams),
}
# name -> parameter fields, each run on VARIANT_FUNCTIONS
BASELINE_VARIANTS = {
    "ba/pulse0.9": {"pulse_rate": 0.9},
    "ba/constant-loudness": {"loudness_decay": 1.0, "pulse_rate": 0.0},
    "ba/pop2": {"population": 2},
    "fwa/budget10": {"total_spark_budget": 10},
    "spso/swarm10": {"swarm_size": 10},
}
VARIANT_FUNCTIONS = ("f1", "f7")
BENCH_FUNCTIONS = ("f1", "f2", "f5", "f7")
BENCH_SEEDS = (0, 1)
BENCH_KEYS = [f"lfwa/{fn}/{seed}" for fn in BENCH_FUNCTIONS for seed in BENCH_SEEDS]
BASELINE_BENCH_KEYS = [
    f"{alg}/{fn}/{seed}" for alg in BASELINES for fn in BENCH_FUNCTIONS for seed in BENCH_SEEDS
]


def run_digest(record) -> str:
    h = hashlib.sha256()
    h.update(record.trajectory.tobytes())
    h.update(record.final_best.position.tobytes())
    h.update(str(int(record.evaluations_used)).encode())
    return h.hexdigest()


def table_cases() -> dict[str, tuple[str, dict]]:
    """LFWA case name -> (function, RunConfig keyword arguments)."""
    cases = {}
    for seed in TABLE_SEEDS:
        common = {"seed": seed, "max_iterations": TABLE_ITERATIONS}
        for fn in objective_names():
            cases[f"{fn}/{seed}"] = (fn, common)
        for variant, fields in F7_VARIANTS.items():
            cases[f"f7/{variant}/{seed}"] = ("f7", {**common, **fields})
    return cases


def baseline_cases() -> dict[str, tuple[str, str, dict, dict]]:
    """Baseline case name -> (algorithm, function, RunConfig keyword
    arguments, parameter keyword arguments)."""
    cases = {}
    for seed in TABLE_SEEDS:
        common = {"seed": seed, "max_iterations": TABLE_ITERATIONS}
        for alg in BASELINES:
            for fn in objective_names():
                cases[f"{alg}/{fn}/{seed}"] = (alg, fn, common, {})
        for variant, fields in BASELINE_VARIANTS.items():
            alg = variant.split("/")[0]
            for fn in VARIANT_FUNCTIONS:
                cases[f"{variant}/{fn}/{seed}"] = (alg, fn, common, fields)
    return cases


def case_digest(function: str, fields: dict) -> str:
    return run_digest(lfwa_run(make_objective(function), RunConfig(**fields)))


def baseline_digest(algorithm: str, function: str, fields: dict, params: dict) -> str:
    run, params_class = BASELINES[algorithm]
    record = run(make_objective(function), params_class(**params), RunConfig(**fields))
    return run_digest(record)


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
    assert case_digest(function, fields) == load_json(LFWA_TABLE_PATH)[name]


def test_committed_table_covers_every_case():
    assert sorted(load_json(LFWA_TABLE_PATH)) == sorted(table_cases())


@pytest.mark.parametrize("key", BASELINE_BENCH_KEYS)
def test_baseline_matches_bench_golden(key):
    alg, fn, seed = key.split("/")
    expected = load_json(BENCH_GOLDEN_PATH)["serial"][key]
    assert baseline_digest(alg, fn, {"seed": int(seed)}, {}) == expected


@pytest.mark.parametrize("name", sorted(baseline_cases()))
def test_baseline_matches_committed_table(name):
    assert baseline_digest(*baseline_cases()[name]) == load_json(BASELINES_TABLE_PATH)[name]


def test_committed_baselines_table_covers_every_case():
    assert sorted(load_json(BASELINES_TABLE_PATH)) == sorted(baseline_cases())


# FWA's crowding multiplies a Gram matrix through BLAS, the only BLAS call
# in the package; these cases must not depend on how many threads share it.
BLAS_THREAD_CASES = ("fwa/f1/0", "fwa/f7/0")


def test_fwa_digests_do_not_depend_on_blas_threads():
    script = (
        "from test_golden import BLAS_THREAD_CASES, baseline_cases, baseline_digest\n"
        "for name in BLAS_THREAD_CASES:\n"
        "    print(name, baseline_digest(*baseline_cases()[name]))\n"
    )
    src = os.path.join(os.path.dirname(HERE), "src")
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, HERE])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        outputs[threads] = done.stdout
    expected = "".join(f"{name} {load_json(BASELINES_TABLE_PATH)[name]}\n"
                       for name in BLAS_THREAD_CASES)
    assert outputs["1"] == outputs["2"] == expected


def write_table(path: str, table: dict) -> None:
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {path}")


if __name__ == "__main__":
    write_table(
        LFWA_TABLE_PATH,
        {name: case_digest(fn, fields) for name, (fn, fields) in table_cases().items()},
    )
    write_table(
        BASELINES_TABLE_PATH,
        {name: baseline_digest(*case) for name, case in baseline_cases().items()},
    )
