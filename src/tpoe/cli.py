"""Batch front door: config-file-driven runs writing snapshots, JSON, CSV.

Usage::

    tpoe <subcommand> --config <path> [--set key=value]...

Subcommands (RUNNERS): solve, roundtrip, marcinkiewicz, transference,
sweep, convergence.  The config is a flat ``key = value`` text file (see
SCHEMA; ``#`` starts a comment, an empty value leaves ``recipe`` or
``input`` unset); ``--set`` overrides individual keys.  Outputs land in a
run directory named by the hash of the resolved config plus the seed, so
identical runs are byte-identical and sweep provenance survives.

Only ``solve`` passes the config ``tol`` on; ``roundtrip``, ``sweep`` and
``convergence`` use ``solver.DEFAULT_TOL`` (1e-10) whatever the config says.

Exit codes (``_EXIT_CODES``): 0 ok, 2 config error, 3 precondition or
contract violation (IncompatibleMean, NonSolenoidal, NotPurelyPeriodic,
ResidualExceedsTol), 4 I/O failure, 5 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, solver, symbols
from .errors import (
    ConfigError,
    DomainMismatch,
    EmptySweep,
    IncompatibleMean,
    InvalidExponent,
    InvalidGrid,
    NonSolenoidal,
    NotPurelyPeriodic,
    ResidualExceedsTol,
    SnapshotFormatError,
    UnknownRecipe,
)
from .snapshot import _create, _write_json, load_field, save_bundle
from .spectral import TorusDomain
from .symbols import OseenParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

# exit code -> exception classes; anything else is EXIT_INTERNAL
_EXIT_CODES = {
    EXIT_PRECONDITION: (
        IncompatibleMean, NonSolenoidal, NotPurelyPeriodic, ResidualExceedsTol,
    ),
    EXIT_CONFIG: (
        ConfigError, EmptySweep, InvalidGrid, InvalidExponent, UnknownRecipe,
        DomainMismatch,
    ),
    EXIT_IO: (SnapshotFormatError, OSError),
}

_DOMAIN_KEYS = ("n", "L", "N", "T", "Nt")

TWO_PI = 2.0 * np.pi


def _parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(part) for part in text.split(",")]


def _parse_resolutions(text: str) -> list[tuple[int, int]]:
    out = []
    text = text.strip()
    if not text:
        return out
    for part in text.split(","):
        try:
            a, b = part.strip().split("x")
            out.append((int(a), int(b)))
        except ValueError as exc:
            raise ConfigError(
                f"resolution entries look like 16x16, got {part!r}"
            ) from exc
    return out


# key -> (parser, default); None default means "no value unless configured"
SCHEMA: dict = {
    "schema_version": (int, 1),
    "n": (int, 2),
    "L": (float, TWO_PI),
    "N": (int, 32),
    "T": (float, TWO_PI),
    "Nt": (int, 32),
    "lambda": (float, 0.0),
    "q": (float, 2.0),
    "seed": (int, 0),
    "tol": (float, solver.DEFAULT_TOL),
    "output_dir": (str, "runs"),
    "recipe": (str, None),
    "input": (str, None),
    "ensemble": (int, 10),
    "lambdas": (_parse_float_list, [0.0, 1.0, 10.0]),
    "periods": (_parse_float_list, [TWO_PI]),
    "resolutions": (_parse_resolutions, [(16, 16), (32, 32)]),
    "shells": (int, analysis.ScanGrid.shells),
    "directions": (int, analysis.ScanGrid.directions),
    "radial_min": (float, analysis.ScanGrid.radial_min),
    "radial_max": (float, analysis.ScanGrid.radial_max),
}


def parse_config(path: str, overrides: list[str]) -> dict:
    """Read the key-value config file and apply --set overrides."""
    raw: dict[str, str] = {}
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(config_path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()

    config: dict = {}
    for key, value in raw.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser, default = SCHEMA[key]
        if default is None and not value:
            continue
        try:
            config[key] = parser(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    for key, (_, default) in SCHEMA.items():
        config.setdefault(key, default)
    if config["schema_version"] != 1:
        raise ConfigError(
            f"unsupported schema_version {config['schema_version']}; expected 1"
        )
    if config["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {config['seed']}")
    try:
        solver._require_tol(config["tol"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _canonical_lines(config: dict) -> str:
    lines = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, list):
            if value and isinstance(value[0], tuple):
                text = ",".join(f"{a}x{b}" for a, b in value)
            else:
                text = ",".join(repr(v) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def run_directory(config: dict) -> Path:
    digest = hashlib.sha256(_canonical_lines(config).encode()).hexdigest()[:12]
    return Path(config["output_dir"]) / f"{digest}-s{config['seed']}"


def _domain(config: dict) -> TorusDomain:
    try:
        return TorusDomain(**{key: config[key] for key in _DOMAIN_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _params(config: dict) -> OseenParams:
    try:
        return OseenParams(lam=config["lambda"], T=config["T"], q=config["q"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_csv(path: Path, header, rows) -> None:
    # csv writes floats with repr, so every value round-trips exactly; a
    # non-finite one raises before ``_create`` touches the file, as in JSON
    rows = list(rows)
    if any(isinstance(v, float) and not np.isfinite(v) for row in rows for v in row):
        raise ValueError(f"{path.name}: non-finite value; nothing written")
    with _create(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _common_header(config: dict, **fields) -> dict:
    return {
        "schema_version": 1,
        "generator": analysis.GENERATOR_NAME,
        "seed": config["seed"],
        "domain": {key: config[key] for key in _DOMAIN_KEYS},
        "lambda": config["lambda"],
        "q": config["q"],
        **fields,
    }


def _cmd_solve(config: dict, outdir: Path) -> None:
    domain = _domain(config)
    params = _params(config)
    truth = None
    if config["input"] is not None:
        f = load_field(config["input"])
        if f.domain != domain:
            raise DomainMismatch(
                "input snapshot domain does not match the configured domain"
            )
        source = {"input": config["input"]}
    else:
        recipe = config["recipe"] or "single-mode"
        u_true, p_true, f = analysis.manufactured_case(
            recipe, domain, params, seed=config["seed"]
        )
        truth = (u_true, p_true)
        source = {"recipe": recipe}

    bundle = solver.solve_full(f, params, tol=config["tol"])
    extra = _common_header(config, source=source)
    if truth is not None:
        extra["recovery_error"] = analysis._recovery_error(bundle, *truth)
    save_bundle(bundle, outdir, params, extra=extra)


def _cmd_roundtrip(config: dict, outdir: Path) -> None:
    if config["ensemble"] < 1:
        raise ConfigError("ensemble must contain at least one field")
    worst = analysis.roundtrip_verify(
        _domain(config), _params(config), config["ensemble"], config["seed"]
    )
    payload = _common_header(
        config, ensemble=config["ensemble"], worst_relative_error=worst
    )
    _write_json(outdir / "roundtrip.json", payload)


def _cmd_transference(config: dict, outdir: Path) -> None:
    deviation = analysis.transference_check(_domain(config), _params(config))
    payload = _common_header(config, max_deviation=deviation)
    _write_json(outdir / "transference.json", payload)


def _scan_grid(config: dict) -> analysis.ScanGrid:
    return analysis.ScanGrid(
        n=config["n"],
        radial_min=config["radial_min"],
        radial_max=config["radial_max"],
        shells=config["shells"],
        directions=config["directions"],
        seed=config["seed"],
    )


def _cmd_marcinkiewicz(config: dict, outdir: Path) -> None:
    params, grid = _params(config), _scan_grid(config)
    report = analysis.marcinkiewicz_scan(params, grid)
    _write_csv(
        outdir / "marcinkiewicz.csv",
        ("eps_bits", "sup_value"),
        sorted(report.per_epsilon.items()),
    )
    _write_json(
        outdir / "marcinkiewicz_grid.json",
        {
            "grid_spec": dataclasses.asdict(grid),
            "overall": report.overall,
            "lambda": params.lam,
            "T": params.T,
            "q": params.q,
            "cutoff": dict(zip(("inner", "outer"), symbols._CUTOFF_RADII)),
            "generator": analysis.GENERATOR_NAME,
        },
    )


def _cmd_sweep(config: dict, outdir: Path) -> None:
    # reject a bad period, q or drift before any work
    for T in config["periods"]:
        _params({**config, "T": T})
    for lam in config["lambdas"]:
        _params({**config, "lambda": lam})
    records = analysis.constant_sweep(
        _domain(config),
        config["q"],
        config["lambdas"],
        config["periods"],
        config["ensemble"],
        config["seed"],
        scan_grid=_scan_grid(config),
    )
    _write_csv(
        outdir / "sweep.csv",
        ("lambda", "T", "q", "N", "Nt", "statistic", "value", "seed"),
        map(dataclasses.astuple, records),
    )
    fit = analysis.fit_log_trend(records)
    _write_json(outdir / "sweep_fit.json", _common_header(config, fit=fit))


def _cmd_convergence(config: dict, outdir: Path) -> None:
    if len(config["resolutions"]) < 2:
        raise ConfigError("convergence study needs at least two resolutions")
    for N, Nt in config["resolutions"]:  # reject a bad grid before any work
        _domain({**config, "N": N, "Nt": Nt})
    rows = analysis.convergence_study(
        config["recipe"] or "single-mode",
        _domain(config),
        _params(config),
        config["resolutions"],
        seed=config["seed"],
    )
    _write_csv(
        outdir / "convergence.csv",
        ("N", "Nt", "residual", "recovery_error", "fd_residual"),
        map(dataclasses.astuple, rows),
    )


RUNNERS = {
    "solve": _cmd_solve,
    "roundtrip": _cmd_roundtrip,
    "marcinkiewicz": _cmd_marcinkiewicz,
    "transference": _cmd_transference,
    "sweep": _cmd_sweep,
    "convergence": _cmd_convergence,
}


def _classify(exc: Exception) -> int:
    for code, kinds in _EXIT_CODES.items():
        if isinstance(exc, kinds):
            return code
    return EXIT_INTERNAL


def _emit_error(exc: Exception, code: int, outdir: Path | None) -> None:
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    line = json.dumps(record, sort_keys=True)
    print(line, file=sys.stderr)
    if outdir is not None and outdir.is_dir():
        try:
            _write_json(outdir / "error.json", record)
        except OSError:
            pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpoe",
        description="Time-periodic Stokes/Oseen spectral solver and verifier",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override one config key",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    outdir: Path | None = None
    try:
        config = parse_config(args.config, args.overrides)
        outdir = run_directory(config)
        outdir.mkdir(parents=True, exist_ok=True)
        # one config shares its directory across subcommands and reruns, so
        # an earlier failure's record must not outlive this run
        (outdir / "error.json").unlink(missing_ok=True)
        with _create(outdir / "config.resolved.txt", "w") as handle:
            handle.write(_canonical_lines(config))
        # outputs are checked before writing: a warning could only precede the record
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            RUNNERS[args.subcommand](config, outdir)
    except Exception as exc:
        code = _classify(exc)
        _emit_error(exc, code, outdir)
        return code
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
