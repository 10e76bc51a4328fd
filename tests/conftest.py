"""Shared fixtures for the tpoe test suite."""

import tracemalloc

import numpy as np
import pytest

from tpoe import OseenParams, TorusDomain, manufactured_case, spectral


@pytest.fixture
def record_transforms(monkeypatch):
    """Return a function that wraps numpy's n-d and one-dimensional
    transforms until ``monkeypatch.undo()``; each call returns a fresh list
    that collects (name, input shape) per transform.  Calls that numpy's
    n-d transforms make internally are not recorded."""

    def record() -> list[tuple[str, tuple[int, ...]]]:
        calls = []
        for name in (
            "fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"
        ):
            original = getattr(np.fft, name)

            def wrapper(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, wrapper)
        return calls

    return record


@pytest.fixture
def transform_passes():
    """Return a function that expands full-grid transforms, given as
    ``("rfftn" | "irfftn", input shape)``, into the one-dimensional passes
    that ``spectral._rfft``/``_irfft`` make for them, as (name, input shape)
    in the order ``record_transforms`` records them.  Each pass is one call
    below ``spectral._THREAD_BYTES``; the first axis holds components."""

    def expand(*transforms):
        calls = []
        for name, shape in transforms:
            passes = len(shape) - 2  # complex passes: every axis but two
            if name == "rfftn":
                half = shape[:-1] + (shape[-1] // 2 + 1,)
                calls += [("rfft", shape)] + [("fft", half)] * passes
            elif name == "irfftn":
                calls += [("ifft", shape)] * passes + [("irfft", shape)]
            else:
                raise ValueError(f"not a full-grid transform: {name}")
        return calls

    return expand


@pytest.fixture
def traced_peak():
    """Return a function that calls ``call()`` under ``tracemalloc`` and
    returns the peak of the memory it allocated, in bytes, and the call's
    result."""

    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def bound_case():
    """The case of the allocation bounds, as (domain, params, f): n=3, L=3,
    T=5, N=Nt=16, lam=-2.5 and the mixed recipe's data for seed 0."""
    d = TorusDomain(n=3, L=3.0, N=16, T=5.0, Nt=16)
    pr = OseenParams(lam=-2.5, T=5.0, q=2.0)
    _, _, f = manufactured_case("mixed", d, pr, seed=0)
    return d, pr, f


@pytest.fixture(params=[1, 2, 3], ids=lambda count: f"workers-{count}")
def workers(request, monkeypatch):
    """``spectral._WORKERS`` set to 1, 2 and 3 in turn for the test, which
    gets the count."""
    monkeypatch.setattr(spectral, "_WORKERS", request.param)
    return request.param
