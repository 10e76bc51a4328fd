"""Outside-in tracer for the tpoe benchmark.

The tracer never edits the package. It wraps, from the outside:

* the transform entry points of ``numpy.fft`` and ``scipy.fft`` (hooked
  before ``import tpoe``, so a module that binds a transform by name at
  import time is still counted), recording one FFT event per call with
  its point count and the bytes of its input and output arrays;
* every public function of the seven package modules (the layers),
  rebound in every ``tpoe.*`` namespace that holds it, so that
  cross-module calls such as ``solver.solve_full -> spectral.forward``
  open nested spans.

Spans live in preallocated arrays for the length of one recording and are
aggregated when the recording ends; nothing is written out during a run.
A layer's self time is its span's duration minus the durations of its
direct child spans. Spans of the layers in ``MEMORY_LAYERS`` also record
the ``tracemalloc`` peak above their start; a nested span folds its peak
into its parent. Other layers leave ``tracemalloc`` alone, so their
allocations count towards the nearest enclosing memory span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("spectral", "symbols", "solver", "norms", "analysis", "snapshot", "cli")
MEMORY_LAYERS = ("spectral", "solver", "norms", "analysis")
TRANSFORM_MODULES = ("numpy.fft", "scipy.fft")
TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)
# Snapshot functions whose ``path`` argument names a field file read or
# written; its size is charged to snapshot I/O. summary.json is left out
# because its size varies with the printed floats, and the byte counts
# must repeat exactly between runs.
SNAPSHOT_IO = {"snapshot.load_field": "read", "snapshot.save_field": "written"}

_INITIAL_CAPACITY = 1 << 19


class Tracer:
    """Span recorder around the public functions of the tpoe layers."""

    def __init__(self) -> None:
        self.recording_now = False
        self._tracking_memory = False
        self.funcs: list[str] = []  # "layer.function", indexed by func id
        self.func_layer: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._transform_bindings: list[tuple[object, str, object]] = []
        self._io_direction: dict[int, str] = {}
        self._allocate(_INITIAL_CAPACITY)
        self._n = 0
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self._fft_events: list[tuple[int, int, int]] = []
        self._io_events: list[tuple[str, int]] = []
        self.totals: dict[str, dict] = {}

    # -- hooking ---------------------------------------------------------

    def hook_transforms(self) -> None:
        """Wrap the FFT entry points; call before ``import tpoe``."""
        for module_name in TRANSFORM_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for name in TRANSFORMS:
                original = getattr(module, name, None)
                if original is None:
                    continue
                setattr(module, name, self._transform_wrapper(original))
                self._transform_bindings.append((module, name, original))

    def unhook_transforms(self) -> None:
        for module, name, original in reversed(self._transform_bindings):
            setattr(module, name, original)
        self._transform_bindings.clear()

    def attach(self, package: str = "tpoe") -> None:
        """Find the public functions of every layer module and the
        ``tpoe.*`` namespaces that bind them. Wrappers go in only while
        a recording is open."""
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(package + "."))
        ]
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"{package}.{layer}")
            for name, func in sorted(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(func)
                    or func.__module__ != module.__name__
                ):
                    continue
                func_id = len(self.funcs)
                qualified = f"{layer}.{name}"
                self.funcs.append(qualified)
                self.func_layer.append(layer_index)
                if qualified in SNAPSHOT_IO:
                    self._io_direction[func_id] = SNAPSHOT_IO[qualified]
                wrapper = self._span_wrapper(
                    func_id, func, layer in MEMORY_LAYERS
                )
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is func:
                            self._bindings.append((namespace, attr, func, wrapper))

    def _install(self) -> None:
        for namespace, attr, _, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)

    def _uninstall(self) -> None:
        for namespace, attr, original, _ in self._bindings:
            setattr(namespace, attr, original)

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, phase: str, memory: bool = False):
        """Install the wrappers, record spans until exit, then restore the
        originals and fold the spans into ``self.totals[phase]``. With
        ``memory``, ``tracemalloc`` runs for the length of the recording."""
        self._reset()
        self._install()
        if memory:
            tracemalloc.start()
        self._tracking_memory = memory
        self.recording_now = True
        try:
            yield
        finally:
            self.recording_now = False
            if memory:
                tracemalloc.stop()
            self._uninstall()
            self._aggregate(phase)

    def _reset(self) -> None:
        self._n = 0
        self._stack.clear()
        self._mem_stack.clear()
        self._fft_events.clear()
        self._io_events.clear()

    def _allocate(self, capacity: int) -> None:
        self._cap = capacity
        self._fid = np.zeros(capacity, dtype=np.int32)
        self._parent = np.zeros(capacity, dtype=np.int32)
        self._t0 = np.zeros(capacity)
        self._t1 = np.zeros(capacity)
        self._peak = np.zeros(capacity)

    def _grow(self) -> None:
        old = (self._fid, self._parent, self._t0, self._t1, self._peak)
        self._allocate(2 * self._cap)
        for new, prev in zip(
            (self._fid, self._parent, self._t0, self._t1, self._peak), old
        ):
            new[: len(prev)] = prev

    def _open(self, func_id: int, track_memory: bool) -> int:
        i = self._n
        if i == self._cap:
            self._grow()
        self._n = i + 1
        self._fid[i] = func_id
        self._parent[i] = self._stack[-1] if self._stack else -1
        self._peak[i] = 0.0
        self._stack.append(i)
        if track_memory and self._tracking_memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                top = self._mem_stack[-1]
                top[2] = max(top[2], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([i, current, current])
        self._t0[i] = time.perf_counter()
        return i

    def _close(self, i: int, track_memory: bool) -> None:
        self._t1[i] = time.perf_counter()
        self._stack.pop()
        if track_memory and self._tracking_memory:
            _, peak = tracemalloc.get_traced_memory()
            _, start, seen = self._mem_stack.pop()
            high = max(seen, peak)
            self._peak[i] = high - start
            if self._mem_stack:
                top = self._mem_stack[-1]
                top[2] = max(top[2], high)
            tracemalloc.reset_peak()

    def _span_wrapper(self, func_id, func, track_memory):
        tracer = self
        io = self._io_direction.get(func_id)
        signature = inspect.signature(func) if io else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            i = tracer._open(func_id, track_memory)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(i, track_memory)
            if io:
                path = signature.bind(*args, **kwargs).arguments["path"]
                tracer._io_events.append((io, os.path.getsize(path)))
            return result

        return wrapper

    def _transform_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            if tracer.recording_now:
                data = args[0] if args else kwargs.get("a", kwargs.get("x"))
                data = np.asarray(data)
                tracer._fft_events.append((
                    tracer._fft_caller(),
                    max(data.size, out.size),
                    data.nbytes + out.nbytes,
                ))
            return out

        return wrapper

    def _fft_caller(self) -> int:
        """Layer index of the nearest open span outside ``spectral``
        (-1 when the transform was called from outside every layer)."""
        spectral = LAYERS.index("spectral")
        for i in reversed(self._stack):
            layer = self.func_layer[self._fid[i]]
            if layer != spectral:
                return layer
        return -1

    # -- aggregation -----------------------------------------------------

    def _aggregate(self, phase: str) -> None:
        n = self._n
        funcs = len(self.funcs)
        fid = self._fid[:n]
        parent = self._parent[:n]
        duration = self._t1[:n] - self._t0[:n]
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=n
        )[:n]
        self_time = duration - child_time
        peak = np.zeros(funcs)
        np.maximum.at(peak, fid, self._peak[:n])

        totals = self.totals.setdefault(phase, _empty_totals(funcs))
        totals["recordings"] += 1
        totals["calls"] += np.bincount(fid, minlength=funcs)
        totals["self_s"] += np.bincount(fid, weights=self_time, minlength=funcs)
        totals["total_s"] += np.bincount(fid, weights=duration, minlength=funcs)
        totals["peak_bytes"] = np.maximum(totals["peak_bytes"], peak)
        for caller, points, nbytes in self._fft_events:
            totals["fft_calls"] += 1
            totals["fft_points"] += points
            totals["fft_bytes"] += nbytes
            by_caller = totals["fft_by_caller"].setdefault(caller, [0, 0])
            by_caller[0] += 1
            by_caller[1] += points
        for direction, nbytes in self._io_events:
            totals["io_" + direction] += nbytes
        self._reset()


def _empty_totals(funcs: int) -> dict:
    return {
        "recordings": 0,
        "calls": np.zeros(funcs, dtype=np.int64),
        "self_s": np.zeros(funcs),
        "total_s": np.zeros(funcs),
        "peak_bytes": np.zeros(funcs),
        "fft_calls": 0,
        "fft_points": 0,
        "fft_bytes": 0,
        "fft_by_caller": {},
        "io_read": 0,
        "io_written": 0,
    }
