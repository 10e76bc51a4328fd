"""Guard on the package's public namespace."""

import tpoe


def test_every_export_resolves():
    missing = [name for name in tpoe.__all__ if not hasattr(tpoe, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(tpoe.__all__) == len(set(tpoe.__all__))
