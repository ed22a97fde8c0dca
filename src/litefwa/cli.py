"""Command-line front end.

Verbs:
  run             one algorithm on one function; writes summary, curves,
                  and a provenance sidecar
  curve           ``run`` without the summary: convergence curves (raw or log10)
  compare         ``run`` over a grid of algorithms x functions, without curves
  list-functions  the benchmark registry as a table

Every experiment is reproducible from its command line: all randomness
flows from --seed, outputs carry no timestamps, and file names are derived
from the configuration so reruns overwrite deterministically.

Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial

from . import harness
from .benchmarks import make_objective, objective_names
from .core import RunConfig


def _reject_duplicates(kind: str, names: list[str]) -> None:
    """Each name may appear once: a repeat would add a summary row that the
    provenance, keyed by name, cannot tell apart."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"{kind} given more than once: {', '.join(repeated)}")


def _expand_functions(spec: str) -> list[str]:
    """Expand 'f1..f9' ranges and comma lists into registry names."""
    names: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"f(\d+)\.\.f(\d+)", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise ValueError(f"empty function range {part!r}")
            names.extend(f"f{i}" for i in range(lo, hi + 1))
        else:
            names.append(part)
    valid = objective_names()
    for name in names:
        if name not in valid:
            raise ValueError(f"unknown function {name!r}; valid names: {', '.join(valid)}")
    if not names:
        raise ValueError("no functions given")
    _reject_duplicates("function", names)
    return names


def _expand_algorithms(spec: str) -> list[str]:
    names = [part.strip() for part in spec.split(",") if part.strip()]
    for name in names:
        if name not in harness.ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {name!r}; valid names: {', '.join(harness.ALGORITHMS)}"
            )
    if not names:
        raise ValueError("no algorithms given")
    _reject_duplicates("algorithm", names)
    return names


def _function_slug(functions: list[str]) -> str:
    numbers = sorted(int(f[1:]) for f in functions)
    if numbers == list(range(numbers[0], numbers[0] + len(numbers))) and len(numbers) > 1:
        return f"f{numbers[0]}-f{numbers[-1]}"
    return "+".join(f"f{n}" for n in numbers)


def _output_base(args, algorithms: list[str], functions: list[str]) -> str:
    """The output base path; checked before any run, so that a directory
    that cannot take the files fails the command before the compute."""
    base = args.output or (
        f"{args.verb}_{'+'.join(algorithms)}_{_function_slug(functions)}"
        f"_r{args.runs}_i{args.iterations}_s{args.seed}"
    )
    directory = os.path.dirname(base) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} is not an existing directory")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ValueError(f"output directory {directory!r} is not writable")
    return base


def _build_config(args) -> RunConfig:
    population = {} if args.pop_size is None else {"population_size": args.pop_size}
    return RunConfig(
        max_iterations=args.iterations, tolerance=args.tolerance, seed=args.seed, **population
    )


def _run_grid(args, algorithms: list[str], functions: list[str]):
    """The summary rows, the ``(summary, records)`` of each cell in grid
    order, and the provenance of one experiment verb."""
    config = _build_config(args)
    cells = [(algorithm, function, harness.ALGORITHMS[algorithm].params(args.pop_size))
             for algorithm in algorithms for function in functions]
    results = harness.run_grid(cells, args.runs, config, jobs=args.jobs)
    rows, experiments = [], {}
    for (algorithm, function, params), (summary, records) in zip(cells, results):
        parameters = harness.resolved_parameters(algorithm, config, params)
        rows.append(harness.build_summary_row(function, summary, args.seed, parameters))
        experiments[f"{algorithm}/{function}"] = {
            "parameters": parameters,
            "objective": make_objective(function).metadata,
            "finals": [float(v) for v in summary.finals],
            "evaluations": [r.evaluations_used for r in records],
        }
    provenance = {"runs": args.runs, "seed_base": args.seed, "jobs": args.jobs,
                  "experiments": experiments}
    return rows, results, provenance


def cmd_run(args, summary: bool, curves: bool) -> int:
    """Every experiment verb: the summary (when ``summary``) and the curves
    (when ``curves``) of its grid, then the provenance. A verb that writes
    curves runs one algorithm on one function."""
    algorithms = _expand_algorithms(args.algorithms)
    functions = _expand_functions(args.functions)
    if curves and (len(algorithms) != 1 or len(functions) != 1):
        raise ValueError(
            f"{args.verb} takes exactly one algorithm and one function; use compare for grids"
        )
    base = _output_base(args, algorithms, functions)
    rows, results, provenance = _run_grid(args, algorithms, functions)
    if curves:  # before any file is written: export_curves rejects some curves
        ((_, records),) = results
        table = harness.export_curves(records, transform=args.transform)
    written = []
    if summary:
        written.append(f"{base}_summary.{args.format}")
        writers = {"csv": harness.write_summary_csv, "json": harness.write_summary_json}
        writers[args.format](written[-1], rows)
    if curves:
        written.append(f"{base}_curves.csv")
        harness.write_curves_csv(written[-1], table)
    written.append(f"{base}_provenance.json")
    harness.write_provenance_json(written[-1], provenance)
    print("\n".join(harness.summary_lines(rows)))
    print("wrote: " + ", ".join(written))
    return 0


def cmd_list_functions(args) -> int:
    header = f"{'name':<5} {'label':<24} {'dim':>3} {'domain':>18} {'optimum':>12} flags"
    print(header)
    print("-" * len(header))
    for name in objective_names():
        obj = make_objective(name)
        domain = f"[{obj.space.lower[0]:g}, {obj.space.upper[0]:g}]^{obj.dim}"
        flags = []
        if obj.optimum_inconsistent:
            flags.append("optimum-inconsistent")
        if not obj.standard_form:
            flags.append("as-circulated")
        elif obj.formula_note:
            flags.append("reconciled-form")
        if obj.source_label:
            flags.append(f"tabulated-as-{obj.source_label}")
        print(
            f"{obj.name:<5} {obj.label:<24} {obj.dim:>3} {domain:>18} "
            f"{obj.declared_optimum:>12.8g} {';'.join(flags) or '-'}"
        )
    return 0


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# verb: (help, writes a summary, writes curves)
EXPERIMENT_VERBS = {
    "run": ("one algorithm on one function", True, True),
    "compare": ("grid of algorithms x functions", True, False),
    "curve": ("convergence-curve export", False, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litefwa",
        description="Fireworks-style optimizers and a reproducible benchmark harness.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, (help_text, summary, curves) in EXPERIMENT_VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        if curves:
            p.add_argument("--algorithm", default="lfwa", dest="algorithms", metavar="ALGORITHM",
                           help="algorithm name")
            p.add_argument("--function", required=True, dest="functions", metavar="FUNCTION",
                           help="benchmark name, e.g. f1")
        else:
            p.add_argument("--algorithms", default="lfwa,fwa,spso,ba", help="comma list")
            p.add_argument("--functions", default="f1..f9", help="comma list or f1..f9 range")
        p.add_argument("--runs", type=int, default=20, help="replications (default 20)")
        p.add_argument("--iterations", type=int, default=1000, help="generations per run")
        p.add_argument("--pop-size", type=int, default=None, dest="pop_size",
                       help="population size (default 5; swarm/bat baselines default 30)")
        p.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
        p.add_argument("--tolerance", type=float, default=1e-5, help="success tolerance")
        p.add_argument("--output", default=None, help="output base path (no extension)")
        if summary:
            p.add_argument("--format", choices=["csv", "json"], default="csv",
                           help="summary file format")
        if curves:
            p.add_argument("--transform", choices=["raw", "log10"], default="raw",
                           help="curve value transform")
        p.add_argument("--jobs", type=int, default=_available_cpus(),
                       help="parallel replications, at least 1 (default: available CPUs)")
        p.set_defaults(func=partial(cmd_run, summary=summary, curves=curves))

    p_list = sub.add_parser("list-functions", help="print the benchmark registry")
    p_list.set_defaults(func=cmd_list_functions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - runtime failures
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
