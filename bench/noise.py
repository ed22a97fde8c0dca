"""Measure run-to-run noise of the end-to-end metrics and record it.

    python3 bench/noise.py --runs 10 --out bench/results/noise.json

Runs ``run.py --trace 0`` once per seed 0..runs-1 on every workload in
``BENCHMARK.json`` (workloads interleaved, so drift in machine load hits
all of them alike), then reports per workload and metric the median, the
quartiles and the spread: the distance between the first and third
quartile as a share of the median, as ``statistics.quantiles(n=4)`` gives
them. A metric is marked steady when its spread is under a third of its
bound in ``BENCHMARK.json``, the aim for every bound. The script exits with
code 3 when a spread exceeds its bound (``setup_s`` excepted), the rule by
which the benchmark is accepted or refused. With ``--against`` an earlier
record, it also reports by how much each median got worse than that
record's and exits with code 3 when one got worse by more than its bound.
The output file keeps every raw value, the comparison and the environment
line.

    python3 bench/noise.py --runs 10 --out bench/results/noise2.json --against bench/results/noise.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    parser.add_argument("--against", default=None, help="an earlier record to compare medians with")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["summary"]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    run_wall: dict[str, list[float]] = {w: [] for w in names}  # whole invocation, set-up included
    environment = None
    for seed in range(args.runs):
        for workload in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            run_wall[workload].append(time.perf_counter() - started)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks", file=sys.stderr)
                return 1
            for line in lines:
                if line.startswith("environment: "):
                    environment = json.loads(line[len("environment: "):])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = {}
    all_ok = True
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            steady = spread < bounds[name] / 3
            all_ok &= spread <= bounds[name] or name == "setup_s"
            entry = summary.setdefault(workload, {})[name] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                "within_third_of_bound": steady,
            }
            verdict = ("steady" if steady else "within bound" if spread <= bounds[name]
                       else "beyond bound (exempt)" if name == "setup_s" else "BEYOND BOUND")
            line = (f"{workload:18s} {name:16s} median {q2:10.4g} spread {100 * spread:5.1f}% "
                    f"bound {100 * bounds[name]:4.0f}% {verdict}")
            if earlier is not None:
                before = earlier[workload][name]["median"]
                worse = (q2 - before) / before * (1 if lower_is_better[name] else -1)
                entry["median_worse_than_against"] = worse
                all_ok &= worse <= bounds[name]
                line += (f"; median {100 * worse:+5.1f}% worse than --against "
                         f"{'ok' if worse <= bounds[name] else 'BEYOND BOUND'}")
            print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": environment, "run_seconds": spec["run_seconds"],
                       "seeds": list(range(args.runs)), "against": args.against,
                       "summary": summary, "raw": values, "run_wall_s": run_wall},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
