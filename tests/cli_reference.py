"""Record the CLI outputs that ``test_cli_reference.py`` compares to.

Usage, from the root of a checkout::

    python3 tests/cli_reference.py

runs every entry of ``RUNS`` through ``tpoe.cli.main`` at seed 7, each in
its own output directory under a temporary directory, and writes
``tests/cli_reference.json``: the exit code of each run and every number and
string of every JSON and CSV file it writes, keyed by run and file name (not
by the hashed run directory).  Run it only on a commit whose outputs are the
accepted ones: the test then fails any string that changes and any number
that moves by more than ``REL`` relative.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "cli_reference.json"
SEED = 7
# the one bound on every number; strings must match exactly
REL = 1e-12

# (run, subcommand, --set overrides), in this order: the benchmark's
# verify-cli campaign, then one solve per recipe with its full norm report
# (n=3 adds the steady Stokes norm, n=2 with lambda=1 the 2-d Oseen norm)
RUNS = (
    ("transference", "transference", {"n": 3, "N": 16, "Nt": 16, "lambda": 1}),
    ("roundtrip", "roundtrip",
     {"n": 3, "N": 16, "Nt": 16, "lambda": 1, "ensemble": 10}),
    ("marcinkiewicz", "marcinkiewicz", {"n": 3}),
    ("sweep", "sweep", {"n": 2, "N": 32, "Nt": 32, "q": 1.5, "lambdas": "0,1,10",
                        "ensemble": 4}),
    ("convergence", "convergence",
     {"n": 2, "recipe": "mixed", "resolutions": "16x16,32x32"}),
    ("solve-zero", "solve", {"recipe": "zero", "n": 3, "N": 12, "Nt": 12, "q": 1.2}),
    ("solve-random", "solve", {"recipe": "random", "n": 3, "N": 16, "Nt": 16,
                               "q": 1.2}),
    ("solve-mixed", "solve", {"recipe": "mixed", "N": 16, "Nt": 16, "lambda": 1,
                              "q": 1.2}),
)


def _cell(text: str):
    """A CSV cell as a number where it reads as one, else the string."""
    try:
        return float(text)
    except ValueError:
        return text


def _values(path: Path):
    """Every number and string of one JSON or CSV file."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as handle:
        return [[_cell(text) for text in row] for row in csv.reader(handle)]


def outputs(root: Path) -> dict:
    """Run ``RUNS`` with output directories under ``root``; for each run
    its exit code and the values of every JSON and CSV file it wrote."""
    from tpoe import cli

    record = {}
    for run, subcommand, overrides in RUNS:
        config = root / f"{run}.cfg"
        config.write_text(f"seed = {SEED}\noutput_dir = {root / run}\n")
        argv = [subcommand, "--config", str(config)]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]
        code = cli.main(argv)
        files = sorted(
            path for path in (root / run).rglob("*")
            if path.suffix in (".json", ".csv")
        )
        record[run] = {
            "exit_code": code,
            "files": {path.name: _values(path) for path in files},
        }
    return record


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as root:
        record = outputs(Path(root))
    REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
