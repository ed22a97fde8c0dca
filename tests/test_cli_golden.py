"""Golden digests of the command line's output bytes.

``bench/golden.json`` pins seeded runs at default populations only; the
``--pop-size`` override, which each algorithm routes to a different
population field, is pinned here. Each case runs one command in an empty
directory and checks SHA-256 digests of its stdout and of every file it
writes against ``golden_cli.json`` next to this file.

Regenerate the table only for a change meant to alter seeded outputs, and
say which outputs moved and why:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from litefwa.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "golden_cli.json")

COMPARE = ["compare", "--algorithms", "lfwa,fwa,spso,ba", "--functions", "f1,f7",
           "--runs", "2", "--iterations", "20", "--jobs", "1"]
CASES = {
    "compare": COMPARE,
    "compare/pop7": COMPARE + ["--pop-size", "7"],
    "run/ba/pop7": ["run", "--algorithm", "ba", "--function", "f7", "--runs", "2",
                    "--iterations", "20", "--pop-size", "7", "--jobs", "1"],
    "run/lfwa/json": ["run", "--algorithm", "lfwa", "--function", "f1", "--runs", "2",
                      "--iterations", "20", "--format", "json", "--jobs", "1"],
    "curve/spso/pop7": ["curve", "--algorithm", "spso", "--function", "f1", "--runs", "2",
                        "--iterations", "20", "--pop-size", "7", "--transform", "log10",
                        "--jobs", "1"],
    "curve/fwa": ["curve", "--algorithm", "fwa", "--function", "f7", "--runs", "2",
                  "--iterations", "20", "--jobs", "1"],
}


def case_digests(argv: list[str]) -> dict[str, str]:
    """Exit code, and SHA-256 of stdout and of each file written, by name."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            os.chdir(cwd)
        digests = {"exit": str(code), "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def load_table() -> dict:
    with open(TABLE_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_committed_table(name):
    assert case_digests(CASES[name]) == load_table()[name]


def test_committed_cli_table_covers_every_case():
    assert sorted(load_table()) == sorted(CASES)


if __name__ == "__main__":
    table = {name: case_digests(argv) for name, argv in CASES.items()}
    with open(TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} cases to {TABLE_PATH}")
