"""End-to-end tests of the batch command-line front door."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from tpoe import SpaceTimeField, TorusDomain, save_field
from tpoe.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    SCHEMA,
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

    def test_negative_tolerance_rejected(self, config_file):
        path = config_file(extra="tol = -1e-10\n")
        assert main(["solve", "--config", path]) == EXIT_CONFIG

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


class TestSolveCommand:
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
