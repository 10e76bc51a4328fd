"""End-to-end tests of the batch command-line front door."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpoe import (
    OseenParams, SpaceTimeField, TorusDomain, analysis, lq_norm, save_field, spectral,
)
from tpoe.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    SCHEMA,
    _write_csv,
    main,
    parse_config,
    run_directory,
)
from tpoe.errors import (
    ConfigError,
    DomainMismatch,
    EmptySweep,
    IncompatibleMean,
    InvalidExponent,
    InvalidGrid,
    NonHermitian,
    NonSolenoidal,
    NotPurelyPeriodic,
    SnapshotFormatError,
    UnknownRecipe,
)

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_CONFIG = """
# demo configuration
schema_version = 1
n = 2
N = 16
Nt = 16
lambda = 1.0
q = 2.0
seed = 3
recipe = mixed
"""


@pytest.fixture
def config_file(tmp_path):
    def write(extra: str = "", name: str = "run.cfg") -> str:
        path = tmp_path / name
        path.write_text(
            BASE_CONFIG + f"output_dir = {tmp_path / 'out'}\n" + extra
        )
        return str(path)

    return write


def run_dir_of(config_path, overrides=()):
    config = parse_config(config_path, list(overrides))
    return run_directory(config)


class TestConfigParsing:
    def test_unknown_key_rejected(self, config_file):
        path = config_file(extra="bogus_key = 1\n")
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    def test_bad_value_rejected(self, config_file):
        path = config_file(extra="N = sixteen\n")
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["exit_code"] == EXIT_CONFIG

    def test_unknown_subcommand_prints_usage(self, config_file, capsys):
        path = config_file()
        code = main(["frobnicate", "--config", path])
        assert code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_set_overrides_change_run_directory(self, config_file):
        path = config_file()
        base = run_dir_of(path)
        other = run_dir_of(path, ["N=32"])
        assert base != other

    @pytest.mark.parametrize(
        "extra, overrides, message",
        [("N 16\n", [], "expected 'key = value'"),
         ("", ["--set", "N16"], "--set expects key=value, got 'N16'")],
        ids=["config-line", "set"],
    )
    def test_item_without_equals_rejected(
        self, config_file, tmp_path, capsys, extra, overrides, message
    ):
        path = config_file(extra=extra)
        assert main(["solve", "--config", path, *overrides]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert record["exit_code"] == EXIT_CONFIG
        assert message in record["message"]
        assert list(tmp_path.iterdir()) == [Path(path)]  # no output directory

    def test_negative_tolerance_rejected(self, config_file):
        path = config_file(extra="tol = -1e-10\n")
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, overrides",
        [("solve", ["recipe=random"]), ("roundtrip", []), ("marcinkiewicz", [])],
    )
    def test_negative_seed_rejected(self, config_file, capsys, command, overrides):
        # numpy's generators refuse a negative seed; that is the config's fault
        args = [command, "--config", config_file(), "--set", "seed=-1"]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "seed" in record["message"]

    def test_internal_error_exit_code(self, config_file, capsys, monkeypatch):
        import tpoe.cli as cli_module

        def boom(config, outdir):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli_module.RUNNERS, "solve", boom)
        path = config_file()
        assert main(["solve", "--config", path]) == 5
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"

    def test_readme_config_block_runs_verbatim(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        assert "output_dir = runs\n" in block
        path = tmp_path / "readme.cfg"
        path.write_text(
            block.replace("output_dir = runs\n", f"output_dir = {tmp_path}\n")
        )
        defaults = {key: default for key, (_, default) in SCHEMA.items()}
        defaults["output_dir"] = str(tmp_path)
        assert parse_config(str(path), []) == defaults
        assert main(["solve", "--config", str(path)]) == EXIT_OK

    def test_readme_python_example_runs_verbatim(self, capsys):
        block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
        namespace: dict = {}
        exec(compile(block, str(README), "exec"), namespace)
        bundle = namespace["bundle"]
        assert bundle.residual_norm <= 1e-10
        assert capsys.readouterr().out.startswith(repr(bundle.residual_norm))

    @pytest.mark.parametrize(
        "subcommand, overrides, message",
        [
            ("convergence", ["resolutions=15x16,32x32"], "N must be even"),
            ("convergence", ["resolutions=16x16"], "at least two resolutions"),
            ("sweep", ["periods=-1"], "period T must be positive"),
            ("sweep", ["q=0.5"], "exponent q must lie in (1, inf)"),
            ("roundtrip", ["ensemble=0"], "at least one field"),
        ],
        ids=["odd-N", "one-resolution", "negative-period", "sweep-q", "no-ensemble"],
    )
    def test_unrunnable_config_is_config_error(
        self, config_file, capsys, subcommand, overrides, message
    ):
        path = config_file()
        argv = [subcommand, "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["exit_code"] == EXIT_CONFIG
        assert message in record["message"]
        error_file = run_dir_of(path, overrides) / "error.json"
        assert json.loads(error_file.read_text()) == record


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (IncompatibleMean, EXIT_PRECONDITION),
            (NonSolenoidal, EXIT_PRECONDITION),
            (NotPurelyPeriodic, EXIT_PRECONDITION),
            (ConfigError, EXIT_CONFIG),
            (EmptySweep, EXIT_CONFIG),
            (InvalidGrid, EXIT_CONFIG),
            (InvalidExponent, EXIT_CONFIG),
            (UnknownRecipe, EXIT_CONFIG),
            (DomainMismatch, EXIT_CONFIG),
            (SnapshotFormatError, EXIT_IO),
            (OSError, EXIT_IO),
            (NonHermitian, EXIT_INTERNAL),
            (RuntimeError, EXIT_INTERNAL),
        ],
    )
    def test_exception_maps_to_exit_code(
        self, config_file, capsys, monkeypatch, error, code
    ):
        import tpoe.cli as cli_module

        def fail(config, outdir):
            raise error("synthetic")

        monkeypatch.setitem(cli_module.RUNNERS, "solve", fail)
        path = config_file()
        assert main(["solve", "--config", path]) == code
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {
            "error": error.__name__, "message": "synthetic", "exit_code": code,
        }
        error_file = run_dir_of(path) / "error.json"
        assert json.loads(error_file.read_text()) == record

    def test_unwritable_error_record_still_reaches_stderr(self, config_file, capsys):
        # a directory where error.json goes: removing an earlier record fails
        # (an OSError, so exit 4), and so does writing this one
        path = config_file()
        outdir = run_dir_of(path)
        (outdir / "error.json").mkdir(parents=True)
        assert main(["solve", "--config", path]) == EXIT_IO
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] in ("IsADirectoryError", "PermissionError")
        assert record["exit_code"] == EXIT_IO
        assert list(outdir.iterdir()) == [outdir / "error.json"]
        assert list((outdir / "error.json").iterdir()) == []


class TestSolveCommand:
    @pytest.mark.parametrize("probe", ["lambda=1e300", "T=1e-300", "L=1e-10"])
    def test_residual_over_tol_is_contract_error(self, config_file, capsys, probe):
        # each probe solves to a relative residual above tol = 1e-10 (1.0,
        # 1.0 and 1.4e-10); reporting such a solve would be a wrong answer
        overrides = ["recipe=mixed", "N=16", "Nt=16", probe]
        path = config_file()
        argv = ["solve", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_PRECONDITION
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ResidualExceedsTol"
        assert record["exit_code"] == EXIT_PRECONDITION
        outdir = run_dir_of(path, overrides)
        assert json.loads((outdir / "error.json").read_text()) == record
        assert not (outdir / "summary.json").exists()

    def test_residual_error_names_the_box(self, config_file, capsys):
        # below the underflow check the solve still fails its residual
        # outright; the record names L, T and lambda as _symbol's errors do
        overrides = ["L=1e154", "recipe=mixed", "N=12", "Nt=12"]
        path = config_file()
        argv = ["solve", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_PRECONDITION
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        domain = f"TorusDomain(n=2, L=1e+154, N=12, T={2 * np.pi!r}, Nt=12)"
        assert record == {
            "error": "ResidualExceedsTol",
            "message": "relative residual 1.000e+00 exceeds tol 1.000e-10 "
            f"on {domain}, lambda=1.0",
            "exit_code": EXIT_PRECONDITION,
        }
        outdir = run_dir_of(path, overrides)
        assert json.loads((outdir / "error.json").read_text()) == record

    def test_overflowing_symbol_is_config_error(self, config_file, capsys):
        # lam * xi_1 overflows: the solve stops on the non-finite samples
        # instead of reporting them
        overrides = ["lambda=1e300", "L=1e-10"]
        path = config_file()
        argv = ["solve", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DomainMismatch"
        assert not (run_dir_of(path, overrides) / "summary.json").exists()

    def test_success_removes_an_earlier_error_record(self, config_file):
        # the run directory hashes the config, not the subcommand, so a
        # transference run shares the directory of a failed solve
        path = config_file()
        overrides = ["--set", "lambda=1e300"]
        assert main(["solve", "--config", path, *overrides]) == EXIT_PRECONDITION
        outdir = run_dir_of(path, ["lambda=1e300"])
        assert (outdir / "error.json").is_file()
        assert main(["transference", "--config", path, *overrides]) == EXIT_OK
        assert (outdir / "transference.json").is_file()
        assert not (outdir / "error.json").exists()

    def test_recipe_solve_writes_bundle_and_summary(self, config_file):
        path = config_file()
        assert main(["solve", "--config", path]) == EXIT_OK
        outdir = run_dir_of(path)
        for name in ("u.tpf", "v.tpf", "w.tpf", "p.tpf", "summary.json"):
            assert (outdir / name).is_file()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["residual"] <= 1e-10
        assert summary["recovery_error"] <= 1e-10
        assert summary["source"] == {"recipe": "mixed"}
        assert "lq_data" in summary["norms"]

    def test_snapshot_input_roundtrip(self, config_file, tmp_path):
        d = TorusDomain(n=2, L=2 * np.pi, N=16, T=2 * np.pi, Nt=16)
        x1, _, t = d.meshgrid()
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1 + t)
        field_path = tmp_path / "forcing.tpf"
        save_field(SpaceTimeField(d, samples), field_path)
        path = config_file(extra=f"input = {field_path}\n")
        assert main(["solve", "--config", path]) == EXIT_OK
        summary = json.loads(
            (run_dir_of(path) / "summary.json").read_text()
        )
        assert summary["residual"] <= 1e-10
        assert "recovery_error" not in summary

    def test_input_domain_mismatch_is_config_error(self, config_file, tmp_path):
        d = TorusDomain(n=2, L=2 * np.pi, N=32, T=2 * np.pi, Nt=32)
        field_path = tmp_path / "forcing.tpf"
        save_field(SpaceTimeField.zeros(d, 2), field_path)
        path = config_file(extra=f"input = {field_path}\n")  # config says N=16
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    def test_missing_input_snapshot_is_io_error(self, config_file, tmp_path):
        path = config_file(extra=f"input = {tmp_path / 'absent.tpf'}\n")
        assert main(["solve", "--config", path]) == EXIT_IO

    def test_incompatible_mean_surfaces_as_named_error(
        self, config_file, tmp_path, capsys
    ):
        d = TorusDomain(n=2, L=2 * np.pi, N=16, T=2 * np.pi, Nt=16)
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = 1.0  # constant forcing: no steady torus inverse
        field_path = tmp_path / "constant.tpf"
        save_field(SpaceTimeField(d, samples), field_path)
        path = config_file(extra=f"input = {field_path}\n")
        assert main(["solve", "--config", path]) == EXIT_PRECONDITION
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "IncompatibleMean"
        error_file = run_dir_of(path, [f"input={field_path}"]) / "error.json"
        assert error_file.is_file()
        assert json.loads(error_file.read_text())["exit_code"] == EXIT_PRECONDITION

    def test_rerun_is_byte_identical(self, config_file):
        path = config_file()
        assert main(["solve", "--config", path]) == EXIT_OK
        outdir = run_dir_of(path)
        before = {
            p.name: p.read_bytes() for p in outdir.iterdir() if p.is_file()
        }
        assert main(["solve", "--config", path]) == EXIT_OK
        after = {p.name: p.read_bytes() for p in outdir.iterdir() if p.is_file()}
        assert before == after


class TestAnalysisCommands:
    def test_roundtrip_command(self, config_file):
        path = config_file(extra="ensemble = 3\n")
        assert main(["roundtrip", "--config", path]) == EXIT_OK
        payload = json.loads(
            (run_dir_of(path, ["ensemble=3"]) / "roundtrip.json").read_text()
        )
        assert payload["worst_relative_error"] <= 1e-10
        assert payload["generator"] == "numpy-pcg64"

    def test_transference_command(self, config_file):
        path = config_file()
        assert main(["transference", "--config", path]) == EXIT_OK
        payload = json.loads(
            (run_dir_of(path) / "transference.json").read_text()
        )
        assert payload["max_deviation"] <= 1e-15

    def test_marcinkiewicz_command(self, config_file):
        path = config_file(extra="shells = 8\ndirections = 2\n")
        assert main(["marcinkiewicz", "--config", path]) == EXIT_OK
        outdir = run_dir_of(path, ["shells=8", "directions=2"])
        lines = (outdir / "marcinkiewicz.csv").read_text().splitlines()
        assert lines[0] == "eps_bits,sup_value"
        assert len(lines) == 1 + 8
        grid = json.loads((outdir / "marcinkiewicz_grid.json").read_text())
        assert grid["grid_spec"]["shells"] == 8
        assert grid["cutoff"] == {"inner": 0.5, "outer": 1.0}

    def test_sweep_command_idempotent(self, config_file):
        extra = (
            "lambdas = 0,1\nperiods = 6.283185307179586\n"
            "ensemble = 2\nshells = 6\ndirections = 2\n"
        )
        path = config_file(extra=extra)
        assert main(["sweep", "--config", path]) == EXIT_OK
        outdir = run_dir_of(
            path,
            ["lambdas=0,1", "periods=6.283185307179586", "ensemble=2",
             "shells=6", "directions=2"],
        )
        first = (outdir / "sweep.csv").read_bytes()
        first_fit = (outdir / "sweep_fit.json").read_bytes()
        header = first.decode().splitlines()[0]
        assert header == "lambda,T,q,N,Nt,statistic,value,seed"
        assert main(["sweep", "--config", path]) == EXIT_OK
        assert (outdir / "sweep.csv").read_bytes() == first
        assert (outdir / "sweep_fit.json").read_bytes() == first_fit

    def test_sweep_takes_each_data_norm_once(self, config_file, monkeypatch):
        # member i of period T is the same field for every lambda, so its
        # ||f||_q is taken once: ensemble x periods = 4 calls for 3 lambdas
        # (12 when each cell took its own); the ratios are unchanged
        calls = []

        def counted(f, q):
            calls.append(f.domain.T)
            return lq_norm(f, q)

        monkeypatch.setattr(analysis, "lq_norm", counted)
        sets = ["q=1.5", "lambdas=0,1,10", "periods=6.283185307179586,20",
                "ensemble=2", "shells=6", "directions=2"]
        path = config_file()
        argv = ["sweep", "--config", path]
        assert main(argv + [arg for s in sets for arg in ("--set", s)]) == EXIT_OK
        assert sorted(calls) == [6.283185307179586] * 2 + [20.0] * 2
        with open(run_dir_of(path, sets) / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        ratios = [
            float(row["value"]).hex() for row in rows
            if row["statistic"] == "max_ratio_sobolev21q_over_lq"
        ]
        # recorded before the data norms were shared
        assert ratios == [
            "0x1.6211a07fdfa1bp+0", "0x1.8f480e7be6a25p+0", "0x1.5d8546d0af19dp+0",
            "0x1.7f30f4dda852dp+0", "0x1.b5e46b85d30c3p-1", "0x1.ffcfc20d1aab5p-1",
        ]

    def test_empty_sweep_is_config_error(self, config_file):
        path = config_file(extra="lambdas =\n")
        assert main(["sweep", "--config", path]) == EXIT_CONFIG

    def test_convergence_command(self, config_file):
        path = config_file(extra="resolutions = 16x16,32x32\n")
        assert main(["convergence", "--config", path]) == EXIT_OK
        outdir = run_dir_of(path, ["resolutions=16x16,32x32"])
        lines = (outdir / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,Nt,residual,recovery_error,fd_residual"
        assert len(lines) == 3


class TestFreshOutputs:
    # every output file is unlinked and created anew, never truncated: a
    # reader of the first run keeps its bytes, and the rerun's file is a new
    # inode with the same bytes
    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("solve", ["N=12", "Nt=12"]),
            ("transference", ["N=8", "Nt=8"]),
            ("roundtrip", ["N=8", "Nt=8", "ensemble=2"]),
            ("marcinkiewicz", ["shells=4", "directions=2"]),
            (
                "sweep",
                ["N=8", "Nt=8", "lambdas=0,1", "periods=6.283185307179586",
                 "ensemble=2", "shells=4", "directions=2"],
            ),
            ("convergence", ["resolutions=10x10,12x12"]),
        ],
        ids=[
            "solve", "transference", "roundtrip", "marcinkiewicz", "sweep",
            "convergence",
        ],
    )
    def test_rerun_writes_every_file_fresh(self, config_file, subcommand, overrides):
        path = config_file()
        argv = [subcommand, "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        outdir = run_dir_of(path, overrides)
        files = sorted(outdir.iterdir())
        assert len(files) >= 2  # config.resolved.txt and the outputs
        old = {p: (p.read_bytes(), p.stat().st_ino) for p in files}
        handles = {p: open(p, "rb") for p in files}
        try:
            assert main(argv) == EXIT_OK
            assert sorted(outdir.iterdir()) == files
            assert {p: p.read_bytes() for p in files} == {
                p: data for p, (data, _) in old.items()
            }
            fresh = [
                p.name
                for p, (data, inode) in old.items()
                if handles[p].read() == data and p.stat().st_ino != inode
            ]
            assert fresh == [p.name for p in files]
        finally:
            for handle in handles.values():
                handle.close()


class TestConcurrentEnsembles:
    # members run on threads of the call; the files must be the serial run's
    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("roundtrip", ["ensemble=5"]),
            ("sweep", ["ensemble=3", "lambdas=0,1", "shells=4", "directions=0"]),
        ],
    )
    def test_files_equal_the_serial_run(
        self, config_file, monkeypatch, workers, subcommand, overrides
    ):
        def run():
            path = config_file()
            argv = [subcommand, "--config", path]
            for item in overrides:
                argv += ["--set", item]
            assert main(argv) == EXIT_OK
            outdir = run_dir_of(path, overrides)
            return {p.name: p.read_bytes() for p in outdir.iterdir()}

        files = run()
        monkeypatch.setattr(spectral, "_WORKERS", 1)
        assert run() == files


class TestRecipeBand:
    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("solve", ["N=8", "Nt=8"]),
            ("solve", ["N=16", "Nt=8"]),
            ("convergence", ["resolutions=8x8,16x16"]),
        ],
    )
    def test_grid_below_the_band_is_config_error(
        self, config_file, capsys, subcommand, overrides
    ):
        path = config_file()  # recipe = mixed
        argv = [subcommand, "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainMismatch"
        assert record["exit_code"] == EXIT_CONFIG
        error_file = run_dir_of(path, overrides) / "error.json"
        assert json.loads(error_file.read_text()) == record

    def test_smallest_grid_holding_the_band_solves(self, config_file):
        path = config_file()
        argv = ["solve", "--config", path, "--set", "N=10", "--set", "Nt=10"]
        assert main(argv) == EXIT_OK


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "subcommand, overrides, error, message",
        [
            ("transference", ["lambda=inf"], "ConfigError", "lam must be finite"),
            ("marcinkiewicz", ["radial_max=inf"], "InvalidGrid", "radial_max < inf"),
            ("solve", ["lambda=nan"], "ConfigError", "lam must be finite"),
            ("sweep", ["lambdas=0,inf"], "ConfigError", "lam must be finite"),
            ("roundtrip", ["T=inf"], "ConfigError", "T must be positive and finite"),
            ("convergence", ["L=nan"], "ConfigError", "L must be positive and finite"),
            ("solve", ["tol=inf"], "ConfigError", "tol must be positive and finite"),
        ],
        ids=[
            "transference", "marcinkiewicz", "solve", "sweep", "roundtrip",
            "convergence", "solve-tol",
        ],
    )
    def test_non_finite_value_is_config_error(
        self, config_file, capsys, subcommand, overrides, error, message
    ):
        path = config_file()
        argv = [subcommand, "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == error
        assert record["exit_code"] == EXIT_CONFIG
        assert message in record["message"]
        try:
            outdir = run_dir_of(path, overrides)
        except ConfigError as exc:
            # rejected while parsing, before any run directory exists
            assert str(exc) == record["message"]
            assert not (Path(path).parent / "out").exists()
            return
        assert json.loads((outdir / "error.json").read_text()) == record
        assert sorted(p.name for p in outdir.iterdir()) == [
            "config.resolved.txt", "error.json"
        ]


class TestScanOverflow:
    # the weighted derivatives overflow once 2 xi_j does (radius above
    # 8.99e307, half the largest double), or where m itself does (at
    # T = 1e300 and lambda = 1, D = |xi|^2 is 6.7e-321 where eta = xi_1 =
    # 5.8e-161 on the diagonal of n = 2, and 7.5e-321 where eta = xi_1 =
    # 5e-161 on that of n = 3); no scan output may be written before that
    # is known
    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("marcinkiewicz", ["n=3", "radial_max=9e307"]),
            ("sweep", ["ensemble=1", "radial_max=9e307"]),
            ("marcinkiewicz", ["n=3", "T=1e300", "radial_min=1e-160"]),
            ("sweep", ["ensemble=1", "periods=1e300", "radial_min=1e-160"]),
            ("marcinkiewicz", ["T=1e300", "radial_min=1e-160"]),
        ],
        ids=["radius-n3", "radius-sweep", "period-n3", "period-sweep", "period"],
    )
    def test_overflow_is_config_error_before_any_output(
        self, config_file, capsys, subcommand, overrides
    ):
        path = config_file()
        argv = [subcommand, "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidGrid"
        assert record["message"].endswith("lower radial_max, lambda or T")
        outdir = run_dir_of(path, overrides)
        assert sorted(p.name for p in outdir.iterdir()) == [
            "config.resolved.txt", "error.json"
        ]

    # lambda * xi_1 overflows, but D is built from its parts, so its real
    # part stays |xi|^2 and lambda drops out where it dominates; the grid
    # suprema of 60-digit mpmath over every point, each at the eta axis
    # (radial_max = 1e76) or at the end of the cut-off ramp (1e10)
    @pytest.mark.parametrize(
        "radial_max, overall",
        [("1e76", 0.33404849835132444), ("1e10", 2.9025379948402574)],
    )
    def test_lambda_overflow_leaves_the_scan_finite(
        self, config_file, radial_max, overall
    ):
        path = config_file()
        overrides = ["lambda=1e300", "radial_min=0.01", f"radial_max={radial_max}"]
        argv = ["marcinkiewicz", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        outdir = run_dir_of(path, overrides)
        grid = json.loads((outdir / "marcinkiewicz_grid.json").read_text())
        assert grid["overall"] == pytest.approx(overall, rel=1e-15)
        # a sweep cell at that lambda scans the same grid
        overrides = ["ensemble=1", "lambdas=1e300", f"radial_max={radial_max}"]
        argv = ["sweep", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        rows = (run_dir_of(path, overrides) / "sweep.csv").read_text().splitlines()
        (scan,) = [row for row in rows if ",marcinkiewicz_overall," in row]
        assert float(scan.split(",")[6]) == pytest.approx(overall, rel=1e-15)

    # at radial_min = 1e-300, 1/D overflows, but only where |eta| <= pi/T:
    # there m and w' vanish, and every derivative of m is exactly 0
    @pytest.mark.parametrize(
        "overrides",
        [["n=3", "radial_max=8.9e307"], ["lambda=1e300"]]
        + [
            [f"n={n}", f"lambda={lam}", "radial_min=1e-300"]
            for n in (2, 3)
            for lam in ("0", "1e300")
        ],
        ids=["radius-n3", "lambda"]
        + [f"plateau-n{n}-lambda-{lam}" for n in (2, 3) for lam in ("0", "1e300")],
    )
    def test_largest_finite_scans_still_succeed(self, config_file, overrides):
        path = config_file()
        argv = ["marcinkiewicz", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        outdir = run_dir_of(path, overrides)
        rows = (outdir / "marcinkiewicz.csv").read_text().splitlines()[1:]
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows)
        grid = json.loads((outdir / "marcinkiewicz_grid.json").read_text())
        assert np.isfinite(grid["overall"])


class TestSymbolOverflow:
    # lam * xi_1 leaves the double range in the symbol of A, |xi|^2 in the
    # transference check, or the norms of a sweep do: exit 2 with nothing
    # but the record
    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("solve", ["N=8", "Nt=8", "lambda=1e300", "L=1e-10"]),
            ("transference", ["N=6", "Nt=6", "lambda=1e10", "L=1e-300"]),
            (
                "sweep",
                ["N=8", "Nt=8", "ensemble=1", "q=1.2", "L=1e10", "periods=1e300"],
            ),
        ],
        ids=["lambda-solve", "box", "sweep-norms"],
    )
    def test_overflow_is_config_error_before_any_output(
        self, config_file, capsys, subcommand, overrides
    ):
        path = config_file()
        argv = [subcommand, "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert record["error"] == "DomainMismatch"
        outdir = run_dir_of(path, overrides)
        assert sorted(p.name for p in outdir.iterdir()) == [
            "config.resolved.txt", "error.json"
        ]

    def test_lambda_overflow_leaves_transference_exact(self, config_file):
        # lam * xi_1 = -inf is D's imaginary part alone, so M and m are both
        # 0 there and the identity holds exactly
        path = config_file()
        overrides = ["N=8", "Nt=8", "lambda=1e300", "L=1e-10"]
        argv = ["transference", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        record = (run_dir_of(path, overrides) / "transference.json").read_text()
        assert json.loads(record)["max_deviation"] == 0.0

    def test_non_finite_norms_are_config_error(self, config_file, capsys, tmp_path):
        # finite data whose solve succeeds but whose norms pass the double
        # range (every norm is finite at max|f| = 1e305): the record names
        # them, and no snapshot or summary is written
        d = TorusDomain(n=2, L=100.0, N=16, T=2 * np.pi, Nt=16)
        pr = OseenParams(lam=1.0, T=d.T, q=1.2)
        _, _, f = analysis.manufactured_case("mixed", d, pr, seed=0)
        field_path = tmp_path / "forcing.tpf"
        save_field(f * (1e306 / f.max_abs()), field_path)
        path = config_file()
        overrides = ["L=100", "q=1.2", f"input={field_path}"]
        argv = ["solve", "--config", path]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert record["error"] == "DomainMismatch"
        names = ["lq_data", "lq_velocity", "sobolev_21q_periodic"]
        assert record["message"] == (
            f"norms {names} are not finite: beyond the double range"
        )
        outdir = run_dir_of(path, overrides)
        assert sorted(p.name for p in outdir.iterdir()) == [
            "config.resolved.txt", "error.json"
        ]

    @pytest.mark.parametrize(
        "L, cause", [("1e158", "underflows"), ("1e163", "vanishes")]
    )
    def test_huge_box_names_its_cause(self, config_file, capsys, L, cause):
        # the least |xi|^2 is subnormal or 0: the error names L, T and lambda,
        # not the layout check that a non-finite quotient would reach
        argv = ["solve", "--config", config_file()]
        for item in ["N=12", "Nt=12", "recipe=mixed", f"L={L}"]:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.strip().splitlines()
        record = json.loads(line)
        assert record["error"] == "DomainMismatch"
        domain = f"TorusDomain(n=2, L={float(L)!r}, N=12, T={2 * np.pi!r}, Nt=12)"
        assert record["message"] == f"symbol of A {cause} on {domain}, lambda=1.0"

    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("marcinkiewicz", ["n=3", "radial_max=9e307"]),
            ("transference", ["N=6", "Nt=6", "lambda=1e10", "L=1e-300"]),
            ("solve", ["lambda=1e300", "L=1e-10"]),
            (
                "roundtrip",
                ["N=8", "Nt=8", "ensemble=1", "lambda=1e300", "L=1e-10"],
            ),
            ("solve", ["N=12", "Nt=12", "recipe=mixed", "L=1e200"]),
            ("solve", ["n=3", "N=32", "Nt=32", "recipe=mixed", "L=1e200"]),
        ],
        ids=[
            "scan", "transference", "solve-overflow", "roundtrip-overflow",
            "solve-underflow", "solve-threaded",
        ],
    )
    def test_stderr_is_one_json_line(self, config_file, subcommand, overrides):
        # in a fresh interpreter, where numpy's warnings reach stderr
        argv = [sys.executable, "-m", "tpoe.cli", subcommand]
        argv += ["--config", config_file()]
        for item in overrides:
            argv += ["--set", item]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            argv, env=env, timeout=120, capture_output=True, text=True
        )
        assert done.returncode == EXIT_CONFIG
        (line,) = done.stderr.splitlines()
        assert json.loads(line)["exit_code"] == EXIT_CONFIG


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_non_finite_csv_writes_nothing(tmp_path, bad):
    # checked before the file is opened: no file, and an old one is kept
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        _write_csv(path, ("key", "value"), [("a", 1.0), ("b", bad)])
    assert not path.exists()
    _write_csv(path, ("key", "value"), [("a", 1.0)])
    before, inode = path.read_bytes(), path.stat().st_ino
    with pytest.raises(ValueError):
        _write_csv(path, ("key", "value"), iter([("a", 1.0), ("b", bad)]))
    assert path.read_bytes() == before
    assert path.stat().st_ino == inode  # not even replaced
