"""The benchmark's workloads: set-up, one op, and the check of each op.

A workload object is built from the imported ``tpoe`` package, the
workload seed and a scratch directory inside the checkout. The run
loop calls ``setup_unit(i)`` for ``i < setup_units``, then ``op(k)`` for
k = 0, 1, ... in a closed loop with one client, and ``check(k, result)``
after each op. Every call into the package goes through an attribute of
``tpoe`` or of one of its modules at call time, so the tracer's rebound
wrappers see it.

All workloads use L = T = 2*pi. The domain and ``OseenParams`` take T from
the one constant ``PERIOD``: ``solve_full`` silently uses the domain's T
when the two disagree.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

PERIOD = 2.0 * math.pi
TOL = 1e-10  # residual and recovery bound of acceptance criterion 2
TRANSFERENCE_TOL = 1e-15
NORM_REFERENCE = Path(__file__).with_name("norm_reference.json")
NORM_REPORT_KEYS = (
    "lq_data", "lq_velocity", "sobolev_21q_periodic", "steady_stokes",
    "pressure_xp",
)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def case_seed(seed: int, case: int) -> int:
    """Seed of the ``case``-th manufactured input of a workload seed."""
    return 1000 * seed + case


def check_solution(bundle, u_true, p_true) -> None:
    """Residual and recovery error against the manufactured truth."""
    if not bundle.residual_norm <= TOL:
        raise CheckFailed(f"residual {bundle.residual_norm!r} > {TOL}")
    scale = max(u_true.max_abs(), p_true.max_abs(), 1e-300)
    error = max(
        float(np.max(np.abs(bundle.u.samples - u_true.samples))),
        float(np.max(np.abs(bundle.p.samples - p_true.samples))),
    ) / scale
    if not error <= TOL:
        raise CheckFailed(f"recovery error {error!r} > {TOL}")


class SolveLean:
    """Load a snapshot, solve with no norm report, save the bundle.

    n=3, N=Nt=32, lam=1, q=2: the transform-bound reference size.
    """

    name = "solve-lean"
    setup_units = 3  # manufactured cases; ops cycle through them

    def __init__(self, tpoe, seed: int, workdir: Path) -> None:
        self.tpoe = tpoe
        self.seed = seed
        self.workdir = Path(workdir)
        self.domain = tpoe.TorusDomain(n=3, L=PERIOD, N=32, T=PERIOD, Nt=32)
        self.params = tpoe.OseenParams(lam=1.0, T=self.domain.T, q=2.0)
        self.input_points = self.domain.n * math.prod(self.domain.grid_shape)

    def _case(self, k: int) -> Path:
        return self.workdir / f"case{k % self.setup_units}"

    def setup_unit(self, i: int) -> None:
        u, p, f = self.tpoe.manufactured_case(
            "mixed", self.domain, self.params, seed=case_seed(self.seed, i)
        )
        case = self._case(i)
        case.mkdir()
        for name, field in (("f", f), ("u", u), ("p", p)):
            self.tpoe.save_field(field, case / f"{name}.tpf")

    def op(self, k: int):
        tpoe = self.tpoe
        f = tpoe.load_field(self._case(k) / "f.tpf")
        bundle = tpoe.solve_full(f, self.params, norm_kinds=[])
        tpoe.save_bundle(bundle, self.workdir / "out", self.params)
        return bundle

    def check(self, k: int, bundle) -> None:
        case = self._case(k)
        check_solution(
            bundle,
            self.tpoe.load_field(case / "u.tpf"),
            self.tpoe.load_field(case / "p.tpf"),
        )
        saved = self.tpoe.load_field(self.workdir / "out" / "u.tpf")
        if saved.domain != bundle.u.domain or not np.array_equal(
            saved.samples, bundle.u.samples
        ):
            raise CheckFailed("saved u.tpf does not reload equal to bundle.u")


class NormReport:
    """Solve with the full default norm report.

    n=3, N=Nt=16, lam=0, q=1.2: every norm oversamples x2, so the norm
    quadrature, not the solve, dominates.
    """

    name = "norm-report"
    setup_units = 2

    def __init__(self, tpoe, seed: int, workdir: Path) -> None:
        self.tpoe = tpoe
        self.seed = seed
        self.domain = tpoe.TorusDomain(n=3, L=PERIOD, N=16, T=PERIOD, Nt=16)
        self.params = tpoe.OseenParams(lam=0.0, T=self.domain.T, q=1.2)
        self.input_points = self.domain.n * math.prod(self.domain.grid_shape)
        self.cases: list = []
        self.reference = json.loads(NORM_REFERENCE.read_text())["values"]

    def setup_unit(self, i: int) -> None:
        self.cases.append(self.tpoe.manufactured_case(
            "mixed", self.domain, self.params, seed=case_seed(self.seed, i)
        ))

    def op(self, k: int):
        _, _, f = self.cases[k % self.setup_units]
        return self.tpoe.solve_full(f, self.params)

    def check(self, k: int, bundle) -> None:
        u_true, p_true, _ = self.cases[k % self.setup_units]
        check_solution(bundle, u_true, p_true)
        report = bundle.norm_report
        if set(report) != set(NORM_REPORT_KEYS):
            raise CheckFailed(f"unexpected report keys {sorted(report)}")
        for key, value in report.items():
            if not (math.isfinite(value) and value > 0.0):
                raise CheckFailed(f"{key} = {value!r} is not finite and positive")
        recorded = self.reference.get(
            str(case_seed(self.seed, k % self.setup_units))
        )
        for key, value in (recorded or {}).items():
            if not abs(report[key] - value) <= TOL * abs(value):
                raise CheckFailed(
                    f"{key} = {report[key]!r} differs from recorded {value!r}"
                )


# One campaign: (subcommand, --set overrides), run in this order.
CAMPAIGN = (
    ("transference", {"n": 3, "N": 16, "Nt": 16, "lambda": 1}),
    ("roundtrip", {"n": 3, "N": 16, "Nt": 16, "lambda": 1, "ensemble": 10}),
    ("marcinkiewicz", {"n": 3}),
    ("sweep", {"n": 2, "N": 32, "Nt": 32, "q": 1.5, "lambdas": "0,1,10",
               "ensemble": 4}),
    ("convergence", {"n": 2, "recipe": "mixed", "resolutions": "16x16,32x32"}),
)


class VerifyCli:
    """One campaign of in-process ``tpoe.cli.main`` calls.

    The config seed is the workload seed and ``output_dir`` lies in the
    scratch directory; the outputs of each campaign are hashed file by file
    and must equal those of the first campaign, since the (config, seed)
    pairs repeat.
    """

    name = "verify-cli"
    setup_units = 1

    def __init__(self, tpoe, seed: int, workdir: Path) -> None:
        self.tpoe = tpoe
        self.seed = seed
        self.workdir = Path(workdir)
        self.config = self.workdir / "campaign.cfg"
        self.runs = self.workdir / "runs"
        # vector-field points the campaign's solves consume: roundtrip's
        # ensemble, the sweep's ensembles and both convergence resolutions
        self.input_points = (
            10 * 3 * 16**4 + 3 * 4 * 2 * 32**3 + 2 * (16**3 + 32**3)
        )
        self.first_hashes: dict[str, str] | None = None

    def setup_unit(self, i: int) -> None:
        self.config.write_text(
            f"seed = {self.seed}\n"
            f"L = {PERIOD!r}\n"
            f"T = {PERIOD!r}\n"
            f"output_dir = {self.runs}\n"
        )

    def op(self, k: int):
        # clear the previous campaign, so a file it fails to write shows up
        shutil.rmtree(self.runs, ignore_errors=True)
        codes = []
        for subcommand, overrides in CAMPAIGN:
            argv = [subcommand, "--config", str(self.config)]
            for key, value in overrides.items():
                argv += ["--set", f"{key}={value}"]
            codes.append(self.tpoe.cli.main(argv))
        return codes

    def check(self, k: int, codes) -> None:
        if codes != [0] * len(CAMPAIGN):
            raise CheckFailed(f"exit codes {codes}")
        outputs = sorted(p for p in self.runs.rglob("*") if p.is_file())
        by_name = {p.name: p for p in outputs}
        deviation = json.loads(by_name["transference.json"].read_text())
        if not deviation["max_deviation"] <= TRANSFERENCE_TOL:
            raise CheckFailed(f"max_deviation {deviation['max_deviation']!r}")
        roundtrip = json.loads(by_name["roundtrip.json"].read_text())
        if not roundtrip["worst_relative_error"] <= TOL:
            raise CheckFailed(
                f"worst_relative_error {roundtrip['worst_relative_error']!r}"
            )
        with open(by_name["convergence.csv"], newline="") as handle:
            for row in csv.DictReader(handle):
                for column in ("residual", "recovery_error"):
                    if not float(row[column]) <= TOL:
                        raise CheckFailed(f"convergence {column} {row[column]}")
        hashes = {
            str(p.relative_to(self.runs)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in outputs
        }
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            changed = sorted(
                set(hashes.items()) ^ set(self.first_hashes.items())
            )
            raise CheckFailed(f"rerun is not byte-identical: {changed[:4]}")


WORKLOADS = {w.name: w for w in (SolveLean, NormReport, VerifyCli)}
