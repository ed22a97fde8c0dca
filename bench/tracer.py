"""Outside-in layer tracer: wraps litefwa's public functions from outside.

No litefwa source is changed. ``Tracer.install`` replaces each boundary in
``BOUNDARIES`` by a timing wrapper when the attribute exists, and records it
as absent otherwise, so a refactor that removes or renames a function makes
a metric read 0 and ``trace.boundaries_absent`` rise instead of crashing the
benchmark. ``Tracer.uninstall`` puts every original back.

Each wrapped call is a span. Spans are aggregated per layer as they close
(a full span log of a serial round would hold millions of entries): call
count, rows, and self time, which is the span's duration minus the time its
child spans cover. A call into a layer from inside the same layer, such as
``Objective.evaluate`` calling ``evaluate_many``, adds self time but is not
counted as a second call. The wrapper's own cost is kept out of every
layer's self time and summed in ``overhead_s``. Forked pool workers inherit
the wrappers but bypass them, so only the benchmark's own process is traced.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

_MISSING = object()

# Layers whose individual call durations are kept, for percentiles.
_DURATION_LAYERS = frozenset({"harness.experiment"})


# Counters read the call's positional arguments, which is how every caller in
# the package passes them.


def _rows_evaluated(args, kwargs):
    return len(args[1]), 0


def _one_row(args, kwargs):
    return 1, 0


def _repair_rows(args, kwargs):
    """Rows and out-of-box coordinates (the redraws) of a repair input."""
    positions, space = np.asarray(args[0]), args[1]
    redraws = int(np.count_nonzero((positions < space.lower) | (positions > space.upper)))
    return (1 if positions.ndim == 1 else positions.shape[0]), redraws


# (module under litefwa, or "" for the package itself; attribute path; layer; counter)
BOUNDARIES = [
    ("core", "RngStream.uniform", "core.rng", None),
    ("core", "RngStream.normal", "core.rng", None),
    ("core", "RngStream.integers", "core.rng", None),
    ("benchmarks", "Objective.evaluate_many", "benchmarks.eval", _rows_evaluated),
    ("benchmarks", "Objective.evaluate", "benchmarks.eval", _one_row),
    ("lfwa", "lfwa_step", "lfwa.step", None),
    ("lfwa", "explosion_intensity", "lfwa.intensity", None),
    ("lfwa", "average_intensity", "lfwa.intensity", None),
    ("lfwa", "explosion_radius", "lfwa.radius", None),
    ("lfwa", "generate_explosion_sparks", "lfwa.sparks", None),
    ("lfwa", "gaussian_mutation", "lfwa.mutation", None),
    ("lfwa", "select_next_generation", "lfwa.select", None),
    ("lfwa", "map_into_bounds", "lfwa.repair", _repair_rows),
    ("lfwa", "map_batch_into_bounds", "lfwa.repair", _repair_rows),
    ("baselines", "map_into_bounds", "lfwa.repair", _repair_rows),
    ("baselines", "map_batch_into_bounds", "lfwa.repair", _repair_rows),
    ("", "fwa_run", "baselines.fwa", None),
    ("", "spso_run", "baselines.spso", None),
    ("", "ba_run", "baselines.ba", None),
    ("cli", "main", "cli.main", None),
    ("harness", "run_experiment", "harness.experiment", None),
    ("harness", "write_summary_csv", "harness.write", None),
    ("harness", "write_summary_json", "harness.write", None),
    ("harness", "write_curves_csv", "harness.write", None),
    ("harness", "write_provenance_json", "harness.write", None),
]


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stack: list[list] = []  # open spans: [layer, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self.redraws: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.overhead_s = 0.0
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    def install(self, litefwa) -> None:
        for module, path, layer, counter in BOUNDARIES:
            owner = litefwa if not module else getattr(litefwa, module, None)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.absent.append(f"litefwa.{module + '.' if module else ''}{path}")
                continue
            self._patch(owner, attr, layer, counter)
        # Pools are counted wherever the package creates them.
        self._patch(concurrent.futures.ProcessPoolExecutor, "__init__", "harness.pool", None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, layer, counter) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return original(*args, **kwargs)
            return self._call(layer, counter, original, args, kwargs)

        setattr(owner, attr, wrapper)

    def _call(self, layer, counter, fn, args, kwargs):
        t0 = perf_counter()
        stack = self.stack
        outer = not stack or stack[-1][0] != layer
        if outer:
            self.calls[layer] += 1
            if counter is not None:
                rows, redraws = counter(args, kwargs)
                self.rows[layer] += rows
                self.redraws[layer] += redraws
        frame = [layer, 0.0]
        stack.append(frame)
        t1 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t2 = perf_counter()
            stack.pop()
            duration = t2 - t1
            self.self_s[layer] += duration - frame[1]
            if outer and layer in _DURATION_LAYERS:
                self.durations[layer].append(duration)
            t3 = perf_counter()
            if stack:
                stack[-1][1] += t3 - t0
            self.overhead_s += (t3 - t0) - duration


def layer_metrics(tracer: Tracer, generations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``; layers the run did not
    reach read 0."""
    c, s = tracer.calls, tracer.self_s
    eval_calls = c["benchmarks.eval"]
    experiments = tracer.durations["harness.experiment"]
    return {
        "core.rng_calls": (c["core.rng"], "count"),
        "core.rng_calls_per_gen": (c["core.rng"] / generations if generations else 0.0, "count/gen"),
        "core.rng_self_s": (s["core.rng"], "s"),
        "benchmarks.eval_calls": (eval_calls, "count"),
        "benchmarks.eval_rows": (tracer.rows["benchmarks.eval"], "count"),
        "benchmarks.rows_per_call": (
            tracer.rows["benchmarks.eval"] / eval_calls if eval_calls else 0.0, "rows/call"),
        "benchmarks.eval_self_s": (s["benchmarks.eval"], "s"),
        "lfwa.step_self_s": (s["lfwa.step"], "s"),
        "lfwa.intensity_self_s": (s["lfwa.intensity"], "s"),
        "lfwa.radius_self_s": (s["lfwa.radius"], "s"),
        "lfwa.sparks_self_s": (s["lfwa.sparks"], "s"),
        "lfwa.mutation_self_s": (s["lfwa.mutation"], "s"),
        "lfwa.select_self_s": (s["lfwa.select"], "s"),
        "lfwa.mutation_calls": (c["lfwa.mutation"], "count"),
        "lfwa.sparks_calls": (c["lfwa.sparks"], "count"),
        "lfwa.repair_calls": (c["lfwa.repair"], "count"),
        "lfwa.repair_rows": (tracer.rows["lfwa.repair"], "count"),
        "lfwa.repair_redraws": (tracer.redraws["lfwa.repair"], "count"),
        "lfwa.repair_self_s": (s["lfwa.repair"], "s"),
        "baselines.fwa_self_s": (s["baselines.fwa"], "s"),
        "baselines.spso_self_s": (s["baselines.spso"], "s"),
        "baselines.ba_self_s": (s["baselines.ba"], "s"),
        "harness.experiments": (len(experiments), "count"),
        "harness.pools_created": (c["harness.pool"], "count"),
        "harness.experiment_s_p50": (statistics.median(experiments) if experiments else 0.0, "s"),
        "harness.experiment_s_max": (max(experiments, default=0.0), "s"),
        "harness.write_s": (s["harness.write"], "s"),
        "cli.self_s": (s["cli.main"], "s"),
        "trace.overhead_s": (tracer.overhead_s, "s"),
        "trace.boundaries_absent": (len(tracer.absent), "count"),
    }
