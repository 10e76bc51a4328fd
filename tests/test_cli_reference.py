"""Today's CLI outputs, pinned: each run of ``cli_reference.RUNS`` must give
the exit code and the JSON and CSV values that ``tests/cli_reference.json``
recorded, for any thread count.  Re-record with ``python3
tests/cli_reference.py`` only when a change of the values is intended."""

import json

import pytest
from cli_reference import REFERENCE, REL, outputs


def assert_matches(got, want, where=""):
    """Strings, booleans and nulls equal; numbers within ``REL`` relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (mine, theirs) in enumerate(zip(got, want)):
            assert_matches(mine, theirs, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= REL * abs(want), (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("workers", [1, 3], indirect=True)
def test_outputs_match_the_record(tmp_path, workers):
    assert_matches(outputs(tmp_path), json.loads(REFERENCE.read_text()))
