"""Benchmark worker: runs one workload in a fresh interpreter.

Started by ``run.py``, never by hand. It imports litefwa from the checkout's
``src/`` (and refuses any other copy), pays the set-up cost, then either
measures the workload untraced for ``--seconds`` (``--trace 0``) or runs one
unit untraced and once more under the layer tracer (``--trace 1``). It
prints a readable report, then one JSON line that ``run.py`` turns into the
result. ``--setup-only`` does the set-up and exits; ``run.py`` times it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np

import checks
import workloads as wl
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_ENV = os.path.join(HERE, "results", "noise.json")
WARMUP_ITERATIONS = 20
# Time of reference_seconds()'s loop at the machine speed all timings are
# scaled to (about its median on the machine the bounds were set on).
REFERENCE_S = 0.15


def import_litefwa():
    sys.path.insert(0, SRC)
    import litefwa
    import litefwa.cli  # noqa: F401  (the compare-grid entry point)

    if not os.path.abspath(litefwa.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"error: imported litefwa from {litefwa.__file__}, not from {SRC}")
    return litefwa


def setup(litefwa) -> None:
    """Build all nine objectives and make one short run per algorithm, so
    lazy numpy and BLAS initialisation is paid before anything is timed."""
    for fn in wl.ALL_FUNCTIONS:
        litefwa.make_objective(fn)
    for alg in wl.GRID_ALGORITHMS:
        wl.run_one(litefwa, alg, "f1", 0, iterations=WARMUP_ITERATIONS)


def environment(litefwa, commit: str) -> dict:
    """What a result depends on besides the code; results taken under a
    different environment are not comparable."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    generator = getattr(getattr(litefwa.RngStream(0), "_gen", None), "bit_generator", None)
    source = hashlib.sha256()
    package_dir = os.path.dirname(litefwa.__file__)
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "bit_generator": type(generator).__name__ if generator is not None else "unknown",
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def warn_if_environment_differs(env: dict) -> None:
    try:
        with open(REFERENCE_ENV) as fh:
            reference = json.load(fh)["environment"]
    except (OSError, ValueError, KeyError):
        return
    for key in ("cpu_affinity", "machine", "python", "numpy", "blas", "num_threads_env", "bit_generator"):
        if reference.get(key) != env.get(key):
            print(f"warning: {key} is {env.get(key)!r} here but {reference.get(key)!r} where the "
                  "bounds were set; do not compare these results with those silently", file=sys.stderr)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile). Below 40 samples ten is more than a quarter of them;
    there it is the highest percentile with a quarter of the samples beyond
    it (about p75), not the maximum, whose value one slow sample decides."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 1 - min(10, math.ceil(n / 4)))
    return ordered[k], 100.0 * (k + 1) / n


def reference_seconds() -> float:
    """Wall time of a fixed loop with the optimizers' mix of scalar random
    draws, small-array numpy and Python arithmetic. It runs no litefwa code,
    so no change to the package moves it; it only tracks how fast the
    machine runs at the moment."""
    rng = np.random.Generator(np.random.PCG64(12345))
    x = rng.random((5, 30))
    acc = 0.0
    start = perf_counter()
    for _ in range(20000):
        y = x[int(rng.integers(0, 5))] * (1.0 + rng.standard_normal())
        acc += float(np.sum(y * y))
    return perf_counter() - start


class Tally:
    """Attempted and failed outputs of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def serial_pass(litefwa, workload, seed, golden, tally, records=None, on_run=None, check=True,
                functions=wl.SERIAL_FUNCTIONS):
    """One round of serial runs at ``seed`` on ``functions``; returns
    (per-run wall times, generations). ``records`` collects each run's digest, keyed by run;
    ``on_run`` is called with each run's key and generation count. With
    ``check`` off the outputs are not checked, so that a traced pass traces
    only the runs."""
    times: list[float] = []
    generations = 0
    for alg, fn, run_seed in wl.serial_unit(workload, seed, functions):
        key = checks.run_key(alg, fn, run_seed)
        t = perf_counter()
        try:
            record = wl.run_one(litefwa, alg, fn, run_seed)
        except Exception:
            traceback.print_exc()
            tally.add(key, ["raised"])
            continue
        times.append(perf_counter() - t)
        generations += len(record.trajectory) - 1
        if check:
            tally.add(key, checks.run_problems(litefwa, record, fn, wl.SERIAL_ITERATIONS,
                                               golden["serial"].get(key)))
        if records is not None:
            records[key] = checks.run_digest(record)
        if on_run is not None:
            on_run(key, len(record.trajectory) - 1)
    return times, generations


def compare_once(litefwa, function, seed, jobs, golden, tally, scratch,
                 check_provenance_digest=True):
    """One compare call of the grid's algorithms on ``function``; returns
    (wall, summary bytes, provenance bytes, ok)."""
    t = perf_counter()
    try:
        code, summary, provenance = wl.run_compare(litefwa.cli, (function,), seed, jobs, scratch)
    except Exception:
        traceback.print_exc()
        code, summary, provenance = -1, b"", b""
    wall = perf_counter() - t
    label = f"compare/{function}/{seed}/jobs{jobs}"
    if code != 0:
        tally.add(label + "/summary", [f"cli exit code {code}"])
        tally.add(label + "/provenance", [f"cli exit code {code}"])
        return wall, summary, provenance, False
    expected = dict(golden["grid"].get(checks.compare_key(function, seed), {}))
    if not check_provenance_digest:
        expected.pop("provenance", None)
    summary_bad, provenance_bad = checks.compare_problems(
        summary, provenance, seed, wl.compare_cells((function,)), wl.GRID_RUNS,
        wl.GRID_ITERATIONS, expected)
    tally.add(label + "/summary", summary_bad)
    tally.add(label + "/provenance", provenance_bad)
    return wall, summary, provenance, True


def sweep_once(litefwa, seed, jobs, golden, tally, scratch, check_provenance_digest=True):
    """One compare call per function at ``seed``; returns (wall, the calls'
    summary and provenance bytes, generations of the calls that ran)."""
    wall, outputs, generations = 0.0, [], 0
    for fn in wl.ALL_FUNCTIONS:
        t, summary, provenance, ok = compare_once(litefwa, fn, seed, jobs, golden, tally, scratch,
                                                  check_provenance_digest)
        wall += t
        outputs.append((summary, provenance))
        generations += wl.compare_generations((fn,)) if ok else 0
    return wall, outputs, generations


def timed_steps(litefwa, workload, seed, golden, tally, scratch):
    """The timed steps of one unit, one per function, each returning
    (per-sample wall times, generations): the workload's serial runs on that
    function, or its compare call."""
    if workload != "compare-grid":
        return [functools.partial(serial_pass, litefwa, workload, seed, golden, tally,
                                  functions=(fn,)) for fn in wl.SERIAL_FUNCTIONS]

    def compare_step(fn):
        wall, _, _, ok = compare_once(litefwa, fn, seed, wl.GRID_JOBS, golden, tally, scratch)
        return [wall], wl.compare_generations((fn,)) if ok else 0

    return [functools.partial(compare_step, fn) for fn in wl.ALL_FUNCTIONS]


def measure(litefwa, workload, seed, seconds, golden, scratch):
    """Untraced run: every end-to-end metric except set-up time.

    Whole units run until ``seconds`` have passed. The speed of a shared
    machine drifts by tens of percent within minutes (see README.md), so each
    timed step (a serial round, or one compare call) is bracketed by timings
    of ``reference_seconds()``, and the step's wall and CPU times are scaled
    by REFERENCE_S over the mean of the two: every timing reported is at the
    reference machine speed. Rates are medians over steps. The unscaled
    figures are printed in the report.
    """
    tally = Tally()
    times: list[float] = []  # scaled, per optimizer run or per compare call
    rates: list[float] = []
    cpu_per_gen: list[float] = []
    raw_rates: list[float] = []
    speeds: list[float] = []
    start = perf_counter()
    reference = reference_seconds()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        for step in timed_steps(litefwa, workload, seed + i, golden, tally, scratch):
            cpu0, t0 = cpu_seconds(), perf_counter()
            run_times, generations = step()
            wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
            following = reference_seconds()
            speed = REFERENCE_S / ((reference + following) / 2)  # > 1 on a fast stretch
            reference = following
            times += [t * speed for t in run_times]
            if generations:
                speeds.append(speed)
                raw_rates.append(generations / wall)
                rates.append(generations / (wall * speed))
                cpu_per_gen.append(cpu * speed * 1e6 / generations)
        i += 1
    if not rates:  # every unit failed; correct is false and the figures mean nothing
        rates = cpu_per_gen = times = raw_rates = speeds = [0.0]
    tail_value, tail_pct = tail(times)
    unit = "compare call" if workload == "compare-grid" else "optimizer run"
    print(f"samples: {i} units, {len(times)} x {unit}; run_s_tail is p{tail_pct:.0f} of {len(times)}")
    print(f"machine speed relative to the reference: median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}..{max(speeds):.3f}; unscaled gens_per_s "
          f"{statistics.median(raw_rates):.6g}")
    metrics = {
        "gens_per_s": (statistics.median(rates), "1/s"),
        "cpu_us_per_gen": (statistics.median(cpu_per_gen), "us"),
        "run_s_p50": (statistics.median(times), "s"),
        "run_s_tail": (tail_value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return tally, metrics


def traced(litefwa, workload, seed, golden, scratch):
    """One unit untraced, then the same unit traced; the digests must agree."""
    tally = Tally()
    speedup = 0.0
    tracer = Tracer()
    if workload == "compare-grid":
        wall_plain, outputs, generations = sweep_once(
            litefwa, seed, wl.GRID_JOBS, golden, tally, scratch)
        wall_serial, serial_outputs, _ = sweep_once(
            litefwa, seed, 1, golden, tally, scratch, check_provenance_digest=False)
        speedup = wall_serial / wall_plain
        tracer.install(litefwa)
        try:
            wall_traced, traced_outputs, _ = sweep_once(
                litefwa, seed, wl.GRID_JOBS, golden, tally, scratch)
        finally:
            tracer.uninstall()
        tally.add("compare/jobs1-vs-jobs2 summary bytes",
                  [] if [s for s, _ in serial_outputs] == [s for s, _ in outputs] else ["differ"])
        tally.add("compare/traced-vs-untraced bytes",
                  [] if traced_outputs == outputs else ["differ"])
    else:
        plain: dict[str, str] = {}
        with_trace: dict[str, str] = {}
        t = perf_counter()
        _, generations = serial_pass(litefwa, workload, seed, golden, tally, plain)
        wall_plain = perf_counter() - t
        last_rng_calls = 0

        def report_rng(key, gens):
            nonlocal last_rng_calls
            calls = tracer.calls["core.rng"]
            print(f"{key}: {(calls - last_rng_calls) / gens:.1f} core.rng_calls per generation")
            last_rng_calls = calls

        tracer.install(litefwa)
        t = perf_counter()
        try:
            serial_pass(litefwa, workload, seed, golden, tally, with_trace, on_run=report_rng,
                        check=False)
        finally:
            wall_traced = perf_counter() - t
            tracer.uninstall()
        for key, digest in plain.items():
            tally.add(f"{key} traced-vs-untraced digest",
                      [] if with_trace.get(key) == digest else ["differ"])
    for name in tracer.absent:
        print(f"absent boundary: {name}")
    metrics = layer_metrics(tracer, generations)
    metrics["harness.speedup_vs_serial"] = (speedup, "x")
    metrics["trace.gens_per_s_ratio"] = (wall_plain / wall_traced, "x")
    if metrics["benchmarks.eval_self_s"][0]:
        share = metrics["benchmarks.eval_self_s"][0] / wall_traced
        print(f"benchmarks.eval_self_s is {100 * share:.1f}% of the traced wall time")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--commit", default="unknown", help="git commit of the checkout")
    args = parser.parse_args(argv)

    litefwa = import_litefwa()
    setup(litefwa)
    if args.setup_only:
        return 0

    golden = checks.load_golden()
    if golden.get("protocol") != wl.PROTOCOL:
        raise SystemExit("error: golden.json was made under another protocol; run make_golden.py")
    env = environment(litefwa, args.commit)
    print("environment: " + json.dumps(env, sort_keys=True))
    warn_if_environment_differs(env)

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        if args.trace:
            tally, metrics = traced(litefwa, args.workload, args.seed, golden, scratch)
        else:
            tally, metrics = measure(litefwa, args.workload, args.seed, args.seconds, golden,
                                     scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac: {failed_frac:.4f} ({tally.failed} of {tally.attempted} outputs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
