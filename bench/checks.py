"""Output checks: golden digests for committed seeds, invariants for any seed.

A serial run's digest is SHA-256 over ``trajectory.tobytes()``,
``final_best.position.tobytes()`` and the decimal ``evaluations_used``; a
compare call's digests are SHA-256 over the bytes of its summary CSV and
provenance JSON. ``golden.json`` holds these for the seeds listed in it
(regenerate with ``make_golden.py``). Every run is also checked against the
invariants, which hold for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def run_key(algorithm: str, function: str, seed: int) -> str:
    return f"{algorithm}/{function}/{seed}"


def compare_key(function: str, seed: int) -> str:
    return f"{function}/{seed}"


def run_digest(record) -> str:
    h = hashlib.sha256()
    h.update(record.trajectory.tobytes())
    h.update(record.final_best.position.tobytes())
    h.update(str(int(record.evaluations_used)).encode())
    return h.hexdigest()


def bytes_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run_problems(litefwa, record, function: str, iterations: int, golden_digest) -> list[str]:
    """Why a run's output is wrong; empty when it passes every check."""
    problems = []
    if golden_digest is not None and run_digest(record) != golden_digest:
        problems.append("digest differs from golden.json")
    traj = record.trajectory
    if len(traj) != iterations + 1:
        problems.append(f"trajectory length {len(traj)} != {iterations + 1}")
    if any(later > earlier for earlier, later in zip(traj[:-1], traj[1:])):
        problems.append("trajectory increases")
    if traj[-1] != record.final_best.fitness:
        problems.append("last trajectory entry != final_best.fitness")
    again = litefwa.make_objective(function).evaluate(record.final_best.position)
    if again != record.final_best.fitness:
        problems.append(f"re-evaluated final_best gives {again!r}, not {record.final_best.fitness!r}")
    return problems


def compare_problems(summary: bytes, provenance: bytes, seed: int, cells, runs: int,
                  iterations: int, golden: dict | None) -> tuple[list[str], list[str]]:
    """Problems with the summary CSV and with the provenance JSON of one
    compare call.

    ``cells`` is the list of (algorithm, function) pairs the call covers.
    ``golden`` holds the committed digests for this seed, if any; a key
    missing from it skips that file's digest comparison.
    """
    golden = golden or {}
    summary_bad: list[str] = []
    provenance_bad: list[str] = []
    if "summary" in golden and bytes_digest(summary) != golden["summary"]:
        summary_bad.append("summary digest differs from golden.json")
    if "provenance" in golden and bytes_digest(provenance) != golden["provenance"]:
        provenance_bad.append("provenance digest differs from golden.json")

    rows = list(csv.DictReader(io.StringIO(summary.decode())))
    by_cell = {(r.get("algorithm"), r.get("function")): r for r in rows}
    if len(rows) != len(cells) or set(by_cell) != set(cells):
        summary_bad.append(f"summary has {len(rows)} rows, not one per cell of {len(cells)}")
    for row in rows:
        try:
            worst, best, mean = float(row["worst"]), float(row["best"]), float(row["mean"])
            ok = (
                int(row["runs"]) == runs
                and int(row["iterations"]) == iterations
                and int(row["seed_base"]) == seed
                and best <= mean <= worst
                and 0.0 <= float(row["success_rate"]) <= 1.0
            )
        except (KeyError, TypeError, ValueError) as exc:
            summary_bad.append(f"unreadable summary row: {exc}")
            continue
        if not ok:
            summary_bad.append(f"inconsistent summary row {row['algorithm']}/{row['function']}")

    try:
        experiments = json.loads(provenance)["experiments"]
    except (ValueError, KeyError, TypeError) as exc:
        return summary_bad, provenance_bad + [f"unreadable provenance: {exc}"]
    if set(experiments) != {f"{a}/{f}" for a, f in cells}:
        provenance_bad.append("provenance experiments do not match the compare cells")
    for (alg, fn), row in by_cell.items():
        finals = experiments.get(f"{alg}/{fn}", {}).get("finals", [])
        if len(finals) != runs:
            provenance_bad.append(f"{alg}/{fn}: {len(finals)} finals, not {runs}")
        elif min(finals) != float(row["best"]) or max(finals) != float(row["worst"]):
            provenance_bad.append(f"{alg}/{fn}: finals disagree with the summary row")
    return summary_bad, provenance_bad
