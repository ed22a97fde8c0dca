"""Regenerate golden.json, the committed output digests the benchmark checks.

    python3 bench/make_golden.py

Run it only when a change is meant to alter seeded outputs (or the
workload protocol in workloads.py), and say in CHANGES.md which outputs
moved and why; the diff of golden.json then shows exactly which runs
changed. It refuses to write digests for outputs that fail the invariants.
Covers run seeds 0..SEEDS-1 for every serial algorithm x function and the
compare-grid calls (one per function) at base seeds 0..SEEDS-1; other seeds
are checked by invariants alone.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import workloads as wl
from worker import ROOT, import_litefwa

SEEDS = 48


def main() -> int:
    litefwa = import_litefwa()
    problems = []
    serial = {}
    for seed in range(SEEDS):
        for workload in ("lfwa-serial", "baselines-serial"):
            for alg, fn, run_seed in wl.serial_unit(workload, seed):
                record = wl.run_one(litefwa, alg, fn, run_seed)
                key = checks.run_key(alg, fn, run_seed)
                problems += [f"{key}: {p}" for p in
                             checks.run_problems(litefwa, record, fn, wl.SERIAL_ITERATIONS, None)]
                serial[key] = checks.run_digest(record)
        print(f"serial seed {seed} done", flush=True)

    grid = {}
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        for seed in range(SEEDS):
            for fn in wl.ALL_FUNCTIONS:
                code, summary, provenance = wl.run_compare(litefwa.cli, (fn,), seed,
                                                           wl.GRID_JOBS, scratch)
                bad = [f"cli exit code {code}"] if code else sum(checks.compare_problems(
                    summary, provenance, seed, wl.compare_cells((fn,)), wl.GRID_RUNS,
                    wl.GRID_ITERATIONS, None), [])
                key = checks.compare_key(fn, seed)
                problems += [f"compare/{key}: {p}" for p in bad]
                grid[key] = {"summary": checks.bytes_digest(summary),
                             "provenance": checks.bytes_digest(provenance)}
            print(f"grid seed {seed} done", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass

    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump({"protocol": wl.PROTOCOL, "serial": serial, "grid": grid}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
