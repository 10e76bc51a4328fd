"""tpoe benchmark: closed-loop workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-lean --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One invocation runs one workload in this process as a closed loop with one
client: the next op starts when the previous one ends, until ``--seconds``
have passed (at least two ops). Every op's output is checked; an op that
raises or fails its check counts as failed and the loop goes on.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops after the cold first op and reports the per-layer
metrics of the traced ones (see ``tracer.py``). ``--workload all`` runs
every workload, untraced and then traced, each in a child process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit. The package is imported from
``src/`` of the checkout this file lies in; without it the run exits 2
before printing a result.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("solve-lean", "norm-report", "verify-cli")
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
MIN_TAIL_BEYOND = 10
MB = 1024.0 * 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tpoe benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_loop(workload, seconds, tracer=None, min_ops=2):
    """Run ops until ``seconds`` have passed and ``min_ops`` are done.

    Returns one dict per op: its wall time, CPU time, whether it passed
    and how it was traced (None, "op" or "op_memory"). With a tracer, op 0
    runs untraced, and after it every other op is traced, alternating
    between spans only ("op") and spans plus tracemalloc ("op_memory"):
    tracemalloc slows allocation-heavy Python code several times over, so
    self times come from the "op" recordings and memory peaks from the
    "op_memory" ones.
    """
    records = []
    start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        phase = None
        if tracer is not None and k % 2 == 1:
            phase = "op" if k % 4 == 1 else "op_memory"
        ok = True
        cpu0 = cpu_seconds()
        with (
            tracer.recording(phase, memory=phase == "op_memory")
            if phase else contextlib.nullcontext()
        ):
            t0 = time.perf_counter()
            try:
                result = workload.op(k)
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if ok:
            try:
                workload.check(k, result)
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            del result  # free the op's output before the next op starts
        records.append({"wall": wall, "cpu": cpu, "ok": ok, "traced": phase})
        k += 1
    return records


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). Below 21 samples no
    percentile above the median has ten samples beyond it, and the maximum
    (p100) is returned instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * MIN_TAIL_BEYOND + 1:
        return ordered[-1], 100.0, n
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n, n


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(records, setup_s):
    """Returns (metrics, printed_only, notes).

    ``first_op_s`` (one sample per run) and ``op_s_tail`` (the maximum of a
    few ops) vary too much between runs to carry a bound, so they are
    printed but left out of the result's metrics.
    """
    warm = [r["wall"] for r in records[1:]]
    value, percentile, count = tail(warm)
    done = sum(r["ok"] for r in records)
    metrics = {
        "ops_per_s": (done / sum(r["wall"] for r in records), "1/s"),
        "op_s_p50": (statistics.median(warm), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    printed_only = {
        "op_s_tail": (value, "s"),
        "first_op_s": (records[0]["wall"], "s"),
    }
    notes = {
        "op_s_tail": f"p{percentile:.1f} of {count} warm ops",
        "op_s_p50": f"median of {count} warm ops",
    }
    return metrics, printed_only, notes


HOT_CALLS = ("spectral.forward", "spectral.inverse", "spectral.embed_spectrum")
HOT_SELF = HOT_CALLS + (
    "solver.apply_operator", "solver.project_solenoidal",
    "norms.lq_norm", "norms.sobolev_norm_21q", "norms.steady_norm",
    "norms.pressure_norm",
    "analysis.transference_check", "analysis.roundtrip_verify",
    "analysis.constant_sweep", "analysis.manufactured_case",
)
HOT_MEMORY = ("norms.sobolev_norm_21q", "norms.steady_norm", "norms.pressure_norm")
FFT_CALLERS = ("solver", "norms", "analysis")


def per_layer(tracer, records, input_points):
    from tracer import LAYERS, MEMORY_LAYERS

    totals = tracer.totals["op"]
    peaks = tracer.totals["op_memory"]["peak_bytes"]
    ops = totals["recordings"]
    traced = [r["wall"] for r in records if r["traced"] == "op"]
    untraced = [r["wall"] for r in records[1:] if not r["traced"]]
    op_s = sum(traced) / ops
    index = {name: i for i, name in enumerate(tracer.funcs)}
    layer_of = [LAYERS[j] for j in tracer.func_layer]

    def by_layer(values, layer, reduce=sum):
        picked = [v for v, owner in zip(values, layer_of) if owner == layer]
        return reduce(picked) if picked else 0.0

    metrics = {}
    for layer in LAYERS:
        self_s = by_layer(totals["self_s"], layer) / ops
        metrics[f"{layer}.calls_per_op"] = (
            by_layer(totals["calls"], layer) / ops, "count")
        metrics[f"{layer}.self_s_per_op"] = (self_s, "s")
        metrics[f"{layer}.self_share"] = (self_s / op_s, "ratio")
    for layer in MEMORY_LAYERS:
        metrics[f"{layer}.peak_alloc_mb"] = (
            by_layer(peaks, layer, max) / MB, "MB")
    metrics["fft.calls_per_op"] = (totals["fft_calls"] / ops, "count")
    metrics["fft.points_per_op"] = (totals["fft_points"] / ops, "count")
    metrics["fft.bytes_per_op"] = (totals["fft_bytes"] / ops, "B")
    metrics["fft.points_per_input_point"] = (
        totals["fft_points"] / ops / input_points, "ratio")
    for caller in FFT_CALLERS:
        calls, points = totals["fft_by_caller"].get(LAYERS.index(caller), (0, 0))
        metrics[f"{caller}.fft_calls_per_op"] = (calls / ops, "count")
        metrics[f"{caller}.fft_points_per_op"] = (points / ops, "count")
    for name in HOT_CALLS:
        metrics[f"{name}.calls_per_op"] = (totals["calls"][index[name]] / ops,
                                           "count")
    for name in HOT_SELF:
        metrics[f"{name}.self_s_per_op"] = (totals["self_s"][index[name]] / ops,
                                            "s")
    for name in HOT_MEMORY:
        metrics[f"{name}.peak_alloc_mb"] = (
            peaks[index[name]] / MB, "MB")
    setup = tracer.totals.get("setup")
    metrics["analysis.manufactured_case.setup_s"] = (
        setup["total_s"][index["analysis.manufactured_case"]] if setup else 0.0,
        "s")
    metrics["snapshot.bytes_written_per_op"] = (totals["io_written"] / ops, "B")
    metrics["snapshot.bytes_read_per_op"] = (totals["io_read"] / ops, "B")
    plain = [r for r in records[1:] if not r["traced"]]
    metrics["bench.cpu_per_wall"] = (
        sum(r["cpu"] for r in plain) / sum(r["wall"] for r in plain), "ratio")
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    notes = {
        "trace.overhead": f"{len(traced)} span-traced vs {len(untraced)} "
                          "warm untraced ops",
        "fft.bytes_per_op": "computed from array sizes (input + output)",
    }
    return metrics, notes


def environment() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def report(workload, trace, metrics, notes, records, printed_only=None):
    """Print every metric with its unit, then the result as the last line."""
    failed = sum(not r["ok"] for r in records)
    print(f"# {workload} trace={trace} environment {json.dumps(environment())}")
    walls = " ".join(f"{r['wall']:.4f}" for r in records)
    print(f"# op wall times (s): {walls}")
    print(f"# {'error_rate':<48} {failed / len(records):>14.6g} ratio"
          f"  ({failed} of {len(records)} ops failed; printed only)")
    for name, (value, unit) in {**metrics, **(printed_only or {})}.items():
        note = [notes[name]] if name in notes else []
        if name in (printed_only or {}):
            note.append("printed only")
        note = f"  ({'; '.join(note)})" if note else ""
        print(f"# {name:<48} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    if not (SRC / "tpoe" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'tpoe'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.hook_transforms()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import tpoe
    import tpoe.cli  # noqa: F401  (not imported by the package itself)

    if Path(tpoe.__file__).resolve().parent != (SRC / "tpoe").resolve():
        print(f"perfbench: imported tpoe from {tpoe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        workload = workloads.WORKLOADS[args.workload](tpoe, args.seed, workdir)
        if tracer is not None:
            tracer.attach()
        units = []
        for i in range(workload.setup_units):
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.recording("setup"):
                    workload.setup_unit(i)
            else:
                workload.setup_unit(i)
            units.append(time.perf_counter() - t0)
        setup_wall = time.perf_counter() - PROCESS_START
        # the set-up units repeat one job; their median replaces their sum
        setup_s = setup_wall - sum(units) + len(units) * statistics.median(units)
        records = run_loop(workload, args.seconds, tracer,
                           min_ops=4 if tracer else 2)
        printed_only = None
        if tracer is None:
            metrics, printed_only, notes = end_to_end(records, setup_s)
        else:
            metrics, notes = per_layer(tracer, records, workload.input_points)
    finally:
        if tracer is not None:
            tracer.unhook_transforms()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    report(args.workload, args.trace, metrics, notes, records, printed_only)
    return 0


def run_all(args) -> int:
    """Every workload untraced and then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            child = subprocess.run([
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ], check=False)
            status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
