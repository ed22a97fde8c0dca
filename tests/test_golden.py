"""Golden digests: seeded runs must reproduce committed outputs bit for bit.

A run's digest is SHA-256 over ``trajectory.tobytes()``,
``final_best.position.tobytes()`` and the decimal ``evaluations_used``, the
same digest ``bench/checks.py`` commits in ``bench/golden.json``. Three
tables are checked:

- the ``{lfwa,fwa,spso,ba}/f{1,2,5,7}/{0,1}`` entries of
  ``bench/golden.json`` (default ``RunConfig`` and parameters, 1000
  generations), read and never written here;
- ``golden_lfwa.json`` next to this file: LFWA on all nine functions at
  seeds 0..2 and 150 generations, plus population 2 and 8 and three
  Gaussian mutants per generation on f7;
- ``golden_baselines.json`` next to this file: FWA, SPSO and BA on all nine
  functions at seeds 0..2 and 150 iterations, plus parameter variants on f1
  and f7 (BA with a frequent local walk, with constant loudness and no
  walk, and with two bats; FWA with a budget of 10 sparks; SPSO with 10
  particles).

Every case is also run through its algorithm's lockstep form
(``lfwa_runs``, ``fwa_runs``, ``spso_runs``, ``ba_runs``, as registered in
``harness.ALGORITHMS``), the form that ``compare`` uses, one batch of seeds
per function and variant: the first seed's config and a run count, which
holds because ``TABLE_SEEDS`` and ``BENCH_SEEDS`` are consecutive.
``fwa_run`` and ``spso_run`` are ``fwa_runs``' and ``spso_runs``' chunks of
one seed, so FWA's and SPSO's cases check each one body at one seed and at
several, against tables made from the one-seed bodies they replaced;
``lfwa_run`` and ``ba_run`` keep bodies of their own, which the tables were
made from.

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
from litefwa.harness import ALGORITHMS
from litefwa.lfwa import lfwa_run, lfwa_runs

HERE = os.path.dirname(os.path.abspath(__file__))
LFWA_TABLE_PATH = os.path.join(HERE, "golden_lfwa.json")
BASELINES_TABLE_PATH = os.path.join(HERE, "golden_baselines.json")
BENCH_GOLDEN_PATH = os.path.join(os.path.dirname(HERE), "bench", "golden.json")

TABLE_ITERATIONS = 150
TABLE_SEEDS = (0, 1, 2)
# name -> RunConfig fields beyond seed and iterations, all on f7
F7_VARIANTS = {
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


def lockstep_batches(*algorithms: str) -> dict[str, list[str]]:
    """The cases of ``algorithms`` in the baselines table, grouped by
    function and variant: case-name prefix -> case names in seed order."""
    batches: dict[str, list[str]] = {}
    for name, (algorithm, *_) in baseline_cases().items():
        if algorithm in algorithms:
            batches.setdefault(name.rsplit("/", 1)[0], []).append(name)
    return batches


def check_lockstep_batch_against_table(prefix: str) -> None:
    names = lockstep_batches(prefix.split("/")[0])[prefix]
    algorithm, function, config, params = baseline_cases()[names[0]]
    params = BASELINES[algorithm][1](**params)
    records = ALGORITHMS[algorithm].run_many(make_objective(function), params,
                                             RunConfig(**config), len(names))
    table = load_json(BASELINES_TABLE_PATH)
    assert [r.seed for r in records] == [baseline_cases()[name][2]["seed"] for name in names]
    assert [run_digest(r) for r in records] == [table[name] for name in names]


def check_lockstep_batch_against_bench_golden(algorithm: str, function: str) -> None:
    entry = ALGORITHMS[algorithm]
    records = entry.run_many(make_objective(function), entry.params(),
                             RunConfig(seed=BENCH_SEEDS[0]), len(BENCH_SEEDS))
    serial = load_json(BENCH_GOLDEN_PATH)["serial"]
    assert [r.seed for r in records] == list(BENCH_SEEDS)
    assert [run_digest(r) for r in records] == [serial[f"{algorithm}/{function}/{seed}"]
                                                for seed in BENCH_SEEDS]


@pytest.mark.parametrize("prefix", sorted(lockstep_batches("ba")))
def test_ba_lockstep_batch_matches_committed_table(prefix):
    check_lockstep_batch_against_table(prefix)


@pytest.mark.parametrize("function", BENCH_FUNCTIONS)
def test_ba_lockstep_batch_matches_bench_golden(function):
    check_lockstep_batch_against_bench_golden("ba", function)


@pytest.mark.parametrize("prefix", sorted(lockstep_batches("fwa", "spso")))
def test_fwa_and_spso_lockstep_batches_match_committed_table(prefix):
    check_lockstep_batch_against_table(prefix)


@pytest.mark.parametrize("algorithm", ["fwa", "spso"])
@pytest.mark.parametrize("function", BENCH_FUNCTIONS)
def test_fwa_and_spso_lockstep_batches_match_bench_golden(algorithm, function):
    check_lockstep_batch_against_bench_golden(algorithm, function)


def lfwa_lockstep_batches() -> dict[str, list[str]]:
    """The LFWA table's cases grouped by function and variant: case-name
    prefix -> case names in seed order."""
    batches: dict[str, list[str]] = {}
    for name in table_cases():
        batches.setdefault(name.rsplit("/", 1)[0], []).append(name)
    return batches


@pytest.mark.parametrize("prefix", sorted(lfwa_lockstep_batches()))
def test_lfwa_lockstep_batches_match_committed_table(prefix):
    names = lfwa_lockstep_batches()[prefix]
    function, fields = table_cases()[names[0]]
    records = lfwa_runs(make_objective(function), RunConfig(**fields), len(names))
    table = load_json(LFWA_TABLE_PATH)
    assert [r.seed for r in records] == [table_cases()[name][1]["seed"] for name in names]
    assert [run_digest(r) for r in records] == [table[name] for name in names]


@pytest.mark.parametrize("function", BENCH_FUNCTIONS)
def test_lfwa_lockstep_batch_matches_bench_golden(function):
    check_lockstep_batch_against_bench_golden("lfwa", function)


# FWA's crowding multiplies a Gram matrix through BLAS, the only BLAS call
# in the package; these cases must not depend on how many threads share it,
# nor on which core type's kernels OpenBLAS picks. OpenBLAS falls back to
# the detected core for a name it does not know, and a build without
# DYNAMIC_ARCH ignores OPENBLAS_CORETYPE, so no environment below needs a skip.
BLAS_THREAD_CASES = ("fwa/f1/0", "fwa/f7/0")
BLAS_ENVIRONMENTS = (
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
)


def test_fwa_digests_do_not_depend_on_blas_threads():
    script = (
        "from test_golden import BLAS_THREAD_CASES, baseline_cases, baseline_digest\n"
        "for name in BLAS_THREAD_CASES:\n"
        "    print(name, baseline_digest(*baseline_cases()[name]))\n"
    )
    src = os.path.join(os.path.dirname(HERE), "src")
    expected = "".join(f"{name} {load_json(BASELINES_TABLE_PATH)[name]}\n"
                       for name in BLAS_THREAD_CASES)
    for blas in BLAS_ENVIRONMENTS:
        env = {**os.environ, **blas, "PYTHONPATH": os.pathsep.join([src, HERE])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        assert done.stdout == expected, blas


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
