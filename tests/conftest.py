"""Shared fixtures for the tpoe test suite."""

import numpy as np
import pytest


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
