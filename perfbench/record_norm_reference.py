"""Record the norm-report values that the ``norm-report`` check compares to.

Usage, from the root of a checkout::

    python3 perfbench/record_norm_reference.py --seeds 0-24

writes ``perfbench/norm_reference.json`` with the report of every input
case of every listed workload seed, computed by the checkout's ``src/tpoe``.
Run it only on a commit whose norm values are the accepted ones: the
benchmark then fails any op whose value moves by more than 1e-10 relative.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tpoe  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-24", help="inclusive range a-b")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    if not workloads.NORM_REFERENCE.exists():
        workloads.NORM_REFERENCE.write_text('{"values": {}}\n')
    values = {}
    for seed in range(first, last + 1):
        workload = workloads.NormReport(tpoe, seed, HERE)
        for case in range(workload.setup_units):
            workload.setup_unit(case)
            bundle = workload.op(case)
            workload.check(case, bundle)
            values[str(workloads.case_seed(seed, case))] = bundle.norm_report
            print(seed, case, bundle.norm_report, flush=True)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
        capture_output=True, text=True, check=False,
    ).stdout.strip()
    payload = {"recorded_at_commit": commit or "unknown", "values": values}
    workloads.NORM_REFERENCE.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
