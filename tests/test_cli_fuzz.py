"""Property-based fuzz of the command line (hypothesis, derandomized).

Every run must end in one of two ways: exit 0 with finite numbers in every
file it wrote, or exit 2, 3 or 4 with exactly one JSON error record on
stderr.  Exit 5 (internal error) is always a defect; under the suite's
``error::RuntimeWarning`` filter, a numpy warning in any subcommand ends
in one.  Each run draws a subcommand, a small base grid and a few ``--set``
overrides from a fixed list of values per schema key, extremes included.

The grids are small (n = 2 or 3, N and Nt at most 16, ensembles of one or
two, convergence resolutions at most 16x16) so that a run takes about
15 ms and the 600 runs about 10 s on 2 CPUs: the defects it looks for are
overflows and unchecked parameters, which depend on the values drawn, not
on the grid size.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tpoe import SpaceTimeField, TorusDomain, save_field
from tpoe.cli import RUNNERS, SCHEMA, main

TWO_PI = repr(2.0 * math.pi)
FLOATS = [
    "0", "-1", "1e-300", "1e-10", "1", TWO_PI, "1e10", "1e300", "inf", "-inf", "nan",
]
LISTS = ["", "0", "0,1", "-2.5", "1e10", "1e300", "-1e300", "nan", "inf"]

# ``--set`` values per schema key; output_dir and input hold placeholders
# that name files of the run's scratch directory
VALUES = {
    "schema_version": ["1", "2", "one"],
    "n": ["2", "3", "1", "4"],
    "L": FLOATS,
    "N": ["4", "8", "12", "16", "0", "7", "-4", "x"],
    "T": FLOATS,
    "Nt": ["4", "8", "12", "16", "0", "7", "-4"],
    "lambda": FLOATS + ["-2.5"],
    "q": ["1", "1.2", "1.5", "2", "4", "1e4", "1e300", "0.5", "inf", "nan"],
    "seed": ["0", "7", "-1", str(2**64)],
    "tol": ["1e-10", "1e-300", "1", "0", "-1", "inf", "nan"],
    "output_dir": ["{blocker}"],
    "recipe": ["", "zero", "single-mode", "random", "mixed", "bogus"],
    "input": ["", "{snapshot}", "{missing}", "{garbage}"],
    "ensemble": ["1", "2", "0", "-1"],
    "lambdas": LISTS,
    "periods": ["", TWO_PI, "1e-300", "0", "-1", "1e300", "inf", "nan"],
    "resolutions": [
        "", "8x8,12x12", "12x12,16x16", "16x16", "4x4,8x8", "8x", "7x8,8x8",
    ],
    "shells": ["1", "4", "0", "-1"],
    "directions": ["0", "2", "-1"],
    "radial_min": FLOATS,
    "radial_max": FLOATS + ["1e80"],
}


# admissible but extreme values of the keys whose size decides whether a
# symbol, a scan or a norm overflows; each is set in about half the runs
LARGE = ["1e10", "1e300"]
EXTREMES = {
    "L": ["1e-300", "1e-10"] + LARGE,
    "T": ["1e-300", "1e-10"] + LARGE,
    "lambda": ["-2.5", "-1e300"] + LARGE,
    "q": ["1.2", "1.5", "4", "1e4", "1e300"],
    "radial_min": ["1e-300", "1e-10", "1"],
    "radial_max": ["1e80"] + LARGE,
    "lambdas": ["-2.5", "1e-300", "0,1e300"] + LARGE,
    "periods": ["1e-300", "1e-10"] + LARGE,
}


def test_values_cover_every_schema_key():
    assert set(VALUES) == set(SCHEMA)


def finite_json(text: str):
    """Parse JSON that must hold finite numbers only."""

    def reject(constant):
        raise ValueError(f"non-finite constant {constant}")

    def walk(value):
        if isinstance(value, dict):
            return all(walk(v) for v in value.values())
        if isinstance(value, list):
            return all(walk(v) for v in value)
        return not isinstance(value, float) or math.isfinite(value)

    payload = json.loads(text, parse_constant=reject)
    assert walk(payload), text
    return payload


def check_outputs(root: Path) -> None:
    for path in root.rglob("*"):
        if path.suffix == ".json":
            finite_json(path.read_text())
        elif path.suffix == ".csv":
            for row in path.read_text().splitlines()[1:]:
                for cell in row.split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)


@pytest.fixture(scope="module")
def scratch_files(tmp_path_factory):
    """A valid snapshot (n=2, N=Nt=8, L=T=2*pi), a garbage file, a missing
    path and a regular file in the way of ``output_dir``."""
    root = tmp_path_factory.mktemp("fuzz_files")
    d = TorusDomain(n=2, L=2.0 * math.pi, N=8, T=2.0 * math.pi, Nt=8)
    x1, _, t = d.meshgrid()
    samples = np.zeros((2,) + d.grid_shape)
    samples[1] = np.cos(x1 + t)
    save_field(SpaceTimeField(d, samples), root / "f.tpf")
    (root / "garbage.tpf").write_bytes(b"not a snapshot")
    (root / "blocker").write_text("a file, not a directory")
    return {
        "snapshot": root / "f.tpf",
        "garbage": root / "garbage.tpf",
        "missing": root / "missing.tpf",
        "blocker": root / "blocker" / "runs",
    }


@settings(
    max_examples=600,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    subcommand=st.sampled_from(sorted(RUNNERS)),
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([8, 12, 16]),
    Nt=st.sampled_from([8, 12, 16]),
    extremes=st.fixed_dictionaries(
        {k: st.one_of(st.none(), st.sampled_from(v)) for k, v in EXTREMES.items()}
    ),
    overrides=st.lists(
        st.sampled_from(sorted(VALUES)), max_size=2, unique=True
    ).flatmap(
        lambda keys: st.tuples(*(st.sampled_from(VALUES[k]) for k in keys)).map(
            lambda values: list(zip(keys, values))
        )
    ),
)
def test_cli_exits_cleanly(scratch_files, subcommand, n, N, Nt, extremes, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "run.cfg"
        config.write_text(
            f"n = {n}\nN = {N}\nNt = {Nt}\nensemble = 1\nlambdas = 0,1\n"
            f"resolutions = 8x8,12x12\noutput_dir = {root / 'runs'}\n"
        )
        argv = [subcommand, "--config", str(config)]
        drawn = [(k, v) for k, v in extremes.items() if v is not None]
        for key, value in drawn + overrides:  # a later --set wins
            value = value.format(**{k: str(v) for k, v in scratch_files.items()})
            argv += ["--set", f"{key}={value}"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert lines == [], argv
        else:
            assert code in (2, 3, 4), (argv, lines)
            assert len(lines) == 1, (argv, lines)
            assert finite_json(lines[0])["exit_code"] == code
        check_outputs(root / "runs")
        if code == 0 and subcommand == "solve":
            (summary,) = (root / "runs").rglob("summary.json")
            resolved = (summary.parent / "config.resolved.txt").read_text()
            values = dict(line.split(" = ") for line in resolved.splitlines())
            residual = finite_json(summary.read_text())["residual"]
            assert residual <= float(values["tol"])
