#!/usr/bin/env python3
"""litefwa benchmark: one command per workload, every metric by name and unit.

    python3 bench/run.py --workload lfwa-serial --seed 0 --seconds 30 --trace 0

Run it from a checkout of the repository: the package is imported from
``src/`` (nothing is installed). ``--trace 0`` prints the end-to-end metrics
and ``--trace 1`` the per-layer metrics; the last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md next to this file for what each workload and metric is for.

This file only orchestrates, using the standard library: it times fresh
interpreters doing the set-up (``setup_s``), then runs the workload in one
more interpreter (``worker.py``), so that memory and CPU figures cover the
workload and its pool workers and nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 9
DEADLINE_S = 170.0
# One BLAS thread per process unless the user chose otherwise. FWA's small
# matmuls gain nothing from a second thread, whose spinning took about a
# third of a core and made baselines-serial's timings swing, and at --jobs 2
# each pool worker's extra thread would oversubscribe two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="litefwa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    return args


def run_bounded(cmd: list[str], deadline: float, stdout) -> tuple[int, str | None]:
    """Run ``cmd`` in its own process group and wait for it; at the deadline
    the whole group is killed, pool workers included. The wait blocks rather
    than polls, so a timed probe ends the moment it exits."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), kill_group)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not the top of
    a git repository or git is missing."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return "unknown"
    return lines[1]


def setup_seconds(deadline: float) -> float | None:
    """Median wall time of fresh interpreters that import litefwa, build the
    nine objectives and make one short run per algorithm; None if one fails."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        code, _ = run_bounded([sys.executable, WORKER, "--setup-only"], deadline,
                              subprocess.DEVNULL)
        if code != 0:
            print(f"error: set-up probe exited with code {code}", file=sys.stderr)
            return None
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def main(argv=None) -> int:
    deadline = perf_counter() + DEADLINE_S
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(ROOT, "src", "litefwa", "__init__.py")):
        print(f"error: no litefwa source at {os.path.join(ROOT, 'src', 'litefwa')}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(deadline)
        if setup_s is None:
            return 1
    code, out = run_bounded(
        [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", git_commit()],
        deadline, subprocess.PIPE)
    lines = out.splitlines()
    if code != 0 or not lines:
        print("\n".join(lines))
        print(f"error: worker exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"{'setup_s':32s} {setup_s:>16.6g} s (median of {SETUP_PROBES} fresh interpreters)")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
