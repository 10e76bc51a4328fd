"""Self-tests of the benchmark's mechanics (not of measured numbers).

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tpoe  # noqa: E402
import tpoe.cli  # noqa: E402,F401

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

PERIOD = workloads.PERIOD


@pytest.fixture
def tracer():
    t = Tracer()
    t.hook_transforms()
    t.attach()
    yield t
    t.unhook_transforms()


class TinySolve:
    """solve_full on n=2, N=Nt=8, with an op that can be told to break."""

    setup_units = 1
    input_points = 2 * 8**3

    def __init__(self, raise_on=(), reject_on=()):
        self.domain = tpoe.TorusDomain(n=2, L=PERIOD, N=8, T=PERIOD, Nt=8)
        self.params = tpoe.OseenParams(lam=1.0, T=self.domain.T, q=2.0)
        self.u, self.p, self.f = tpoe.manufactured_case(
            "single-mode", self.domain, self.params
        )
        self.raise_on = raise_on
        self.reject_on = reject_on

    def op(self, k):
        if k in self.raise_on:
            raise RuntimeError("deliberately broken op")
        return tpoe.solve_full(self.f, self.params, norm_kinds=[])

    def check(self, k, bundle):
        if k in self.reject_on:
            raise workloads.CheckFailed("deliberately rejected op")
        workloads.check_solution(bundle, self.u, self.p)


def test_solve_full_transforms_are_charged_to_solver(tracer):
    workload = TinySolve()
    with tracer.recording("op"):
        workload.op(0)
    totals = tracer.totals["op"]
    vector, scalar = 2 * 8**3, 8**3
    # forward f; inverse v, w, p; residual: forward u, p and one inverse
    assert totals["fft_calls"] == 7
    assert totals["fft_points"] == 5 * vector + 2 * scalar
    assert totals["fft_by_caller"] == {
        LAYERS.index("solver"): [7, 5 * vector + 2 * scalar]
    }
    calls = dict(zip(tracer.funcs, totals["calls"]))
    assert calls["solver.solve_full"] == 1
    assert calls["spectral.forward"] == 3
    assert calls["spectral.inverse"] == 4
    assert calls["symbols.steady_symbol_grid"] == 1
    assert calls["symbols.time_periodic_multiplier_grid"] == 1


def test_self_times_fit_inside_the_op_wall_time(tracer):
    records = run.run_loop(TinySolve(), 0.0, tracer, min_ops=6)
    assert [r["traced"] for r in records] == [
        None, "op", None, "op_memory", None, "op"
    ]
    traced = [r["wall"] for r in records if r["traced"] == "op"]
    totals = tracer.totals["op"]
    assert totals["recordings"] == 2
    assert np.all(totals["self_s"] >= 0.0)
    assert totals["self_s"].sum() <= sum(traced)
    assert totals["self_s"].sum() <= totals["total_s"].max()
    metrics, _ = run.per_layer(tracer, records, TinySolve.input_points)
    assert metrics["fft.calls_per_op"][0] == 7
    assert metrics["symbols.calls_per_op"][0] == 2
    assert sum(metrics[f"{layer}.self_share"][0] for layer in LAYERS) <= 1.0
    assert metrics["solver.peak_alloc_mb"][0] > 0.0


def test_wrapped_functions_are_restored(tracer):
    originals = [(ns, attr, orig) for ns, attr, orig, _ in tracer._bindings]
    assert any(attr == "solve_full" and ns is tpoe for ns, attr, _ in originals)
    assert any(attr == "forward" and ns is tpoe.solver for ns, attr, _ in originals)
    with tracer.recording("op"):
        assert all(getattr(ns, attr) is not orig for ns, attr, orig in originals)
    assert all(getattr(ns, attr) is orig for ns, attr, orig in originals)
    wrapped = np.fft.fftn
    tracer.unhook_transforms()
    assert np.fft.fftn is wrapped.__wrapped__


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    written = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.SolveLean(tpoe, seed, workdir)
        workload.setup_unit(0)
        written.append({
            p.name: p.read_bytes() for p in sorted((workdir / "case0").iterdir())
        })
    assert sorted(written[0]) == ["f.tpf", "p.tpf", "u.tpf"]
    assert written[0] == written[1]
    assert all(written[0][k] != written[2][k] for k in written[0])

    cases = []
    for seed in (7, 7):
        workload = workloads.NormReport(tpoe, seed, tmp_path)
        workload.setup_unit(1)
        cases.append([field.samples.tobytes() for field in workload.cases[0]])
    assert cases[0] == cases[1]


def test_broken_ops_count_as_failed_and_the_loop_goes_on():
    workload = TinySolve(raise_on=(1,), reject_on=(3,))
    with contextlib.redirect_stderr(io.StringIO()) as errors:
        records = run.run_loop(workload, 0.0, min_ops=5)
    assert [r["ok"] for r in records] == [True, False, True, False, True]
    assert "deliberately broken op" in errors.getvalue()
    assert "deliberately rejected op" in errors.getvalue()
    metrics, printed_only, notes = run.end_to_end(records, setup_s=1.0)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        run.report("tiny", 0, metrics, notes, records, printed_only)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 5, 2
    )
    assert any(line.split()[1:3] == ["error_rate", "0.4"] for line in lines)
    assert metrics["ops_per_s"][0] == pytest.approx(
        3 / sum(r["wall"] for r in records)
    )
