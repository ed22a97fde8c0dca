"""Where the cores of a ``litefwa compare`` grid spend their time.

    python3 bench/grid_share.py --runs 20 --iterations 1000 --out share.json

Runs one compare grid over all four algorithms x f1..f9 at ``--jobs 2``
(with ``--per-function``, as compare-grid runs it: one compare per function)
and splits its core-seconds (jobs x wall) into:

- ``runs``: inside a replication, in a pool worker;
- ``pool_start``: from the start of a cell until a worker starts its first
  replication (process pool start-up and the first task hand-off);
- ``barrier``: from a worker's last replication until the cell ends (the
  per-cell barrier, plus pool shut-down);
- ``between``: the other gaps, i.e. task hand-off inside a cell and the
  parent's own work between cells (summaries, provenance, writers).

ROADMAP item 3 (one flat task list over one pool) removes most of
``pool_start`` and ``barrier``; their share tells how much of a grid's time
that change can save at a given protocol. Replications are timed by a
wrapper around ``harness._execute_run`` that forked pool workers inherit, so
this script needs the per-cell pools of the current harness and a fork start
method; the benchmark itself does not depend on either.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import workloads as wl
from run import git_commit
from worker import ROOT, environment, import_litefwa


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--jobs", type=int, default=wl.GRID_JOBS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-function", action="store_true",
                        help="one compare per function, as the compare-grid workload runs it")
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args(argv)

    litefwa = import_litefwa()
    harness = litefwa.harness
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    log_dir = os.path.join(scratch, "log")
    os.mkdir(log_dir)
    cells: list[tuple[float, float]] = []
    execute_run, run_experiment = harness._execute_run, harness.run_experiment

    def timed_run(*a, **kw):
        start = time.monotonic()
        try:
            return execute_run(*a, **kw)
        finally:
            with open(os.path.join(log_dir, str(os.getpid())), "a") as fh:
                fh.write(f"{start!r} {time.monotonic()!r}\n")

    def timed_experiment(*a, **kw):
        start = time.monotonic()
        try:
            return run_experiment(*a, **kw)
        finally:
            cells.append((start, time.monotonic()))

    # Pickled by reference: the wrapper must carry the original's name.
    timed_run.__module__, timed_run.__qualname__ = execute_run.__module__, execute_run.__qualname__
    harness._execute_run, harness.run_experiment = timed_run, timed_experiment
    try:
        calls = [(fn,) for fn in wl.ALL_FUNCTIONS] if args.per_function else [wl.ALL_FUNCTIONS]
        start = time.monotonic()
        code = 0
        for functions in calls:
            code = code or wl.run_compare(litefwa.cli, functions, args.seed, args.jobs, scratch,
                                          args.runs, args.iterations)[0]
        wall = time.monotonic() - start
        spans = {}
        for name in os.listdir(log_dir):
            with open(os.path.join(log_dir, name)) as fh:
                spans[name] = [tuple(map(float, line.split())) for line in fh]
    finally:
        harness._execute_run, harness.run_experiment = execute_run, run_experiment
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
    if code != 0:
        print(f"error: compare exited with code {code}", file=sys.stderr)
        return 1

    runs_s = pool_start_s = barrier_s = 0.0
    for cell_start, cell_end in cells:
        workers = [[s for s in worker if cell_start <= s[0] <= cell_end] for worker in spans.values()]
        workers = [w for w in workers if w]
        runs_s += sum(end - start for w in workers for start, end in w)
        pool_start_s += sum(min(s for s, _ in w) - cell_start for w in workers)
        barrier_s += sum(cell_end - max(e for _, e in w) for w in workers)
        # A worker that got no replication idled through the whole cell.
        idle_workers = min(args.jobs, args.runs) - len(workers)
        pool_start_s += idle_workers * (cell_end - cell_start)
    core_s = args.jobs * wall
    shares = {
        "runs": runs_s / core_s,
        "pool_start": pool_start_s / core_s,
        "barrier": barrier_s / core_s,
        "between": 1.0 - (runs_s + pool_start_s + barrier_s) / core_s,
    }
    print(f"{len(cells)} cells x {args.runs} runs x {args.iterations} iterations at --jobs "
          f"{args.jobs}: wall {wall:.2f} s")
    for name, share in shares.items():
        print(f"{name:12s} {100 * share:6.2f}% of core-seconds")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": args.runs, "iterations": args.iterations, "jobs": args.jobs,
                       "compare_calls": len(calls),
                       "seed": args.seed, "cells": len(cells), "wall_s": wall, "shares": shares,
                       "environment": environment(litefwa, git_commit())},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
