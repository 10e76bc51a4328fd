"""Tests for the field snapshot container."""

import json

import numpy as np
import pytest

from tpoe import (
    SnapshotFormatError,
    SpaceTimeField,
    TorusDomain,
    load_field,
    random_band_limited_field,
    save_field,
)
from tpoe.snapshot import MAGIC


def dom(n=2, N=16, Nt=16):
    return TorusDomain(n=n, L=2 * np.pi, N=N, T=2 * np.pi, Nt=Nt)


def test_roundtrip_is_exact(tmp_path):
    d = dom()
    f = random_band_limited_field(d, 2, np.random.default_rng(0))
    path = tmp_path / "field.tpf"
    save_field(f, path)
    g = load_field(path)
    assert g.domain == d
    assert np.array_equal(g.samples, f.samples)


def test_three_dimensional_scalar(tmp_path):
    d = dom(n=3, N=8, Nt=8)
    f = random_band_limited_field(d, 1, np.random.default_rng(1), m_max=2, k_max=2)
    path = tmp_path / "field.tpf"
    save_field(f, path)
    assert np.array_equal(load_field(path).samples, f.samples)


def test_bytes_are_deterministic(tmp_path):
    d = dom()
    f = random_band_limited_field(d, 2, np.random.default_rng(2))
    p1 = tmp_path / "a.tpf"
    p2 = tmp_path / "b.tpf"
    save_field(f, p1)
    save_field(f, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.tpf"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(SnapshotFormatError, match="not a TPOE-FIELD"):
        load_field(path)


def test_truncated_payload_rejected(tmp_path):
    d = dom()
    f = SpaceTimeField.zeros(d, 1)
    path = tmp_path / "field.tpf"
    save_field(f, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(SnapshotFormatError, match="payload"):
        load_field(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "field.tpf"
    path.write_bytes(b"TPOE-FIELD v1\n{\"n\": 2}\n")
    with pytest.raises(SnapshotFormatError):
        load_field(path)


@pytest.mark.parametrize(
    "header",
    [b'{"n": 2}', b"[2, 16]\n", b"2\n", b'"n"\n', b"null\n"],
    ids=["no-newline", "array", "number", "string", "null"],
)
def test_header_that_is_not_a_json_object_line_rejected(tmp_path, header):
    path = tmp_path / "field.tpf"
    path.write_bytes(b"TPOE-FIELD v1\n" + header)
    with pytest.raises(SnapshotFormatError, match="malformed snapshot header"):
        load_field(path)


@pytest.mark.parametrize(
    "key, value, components",
    [("N", 8.9, 2), ("n", 2.0, 2), ("Nt", "8", 2), ("components", True, 1)],
    ids=["float-N", "float-n", "string-Nt", "bool-components"],
)
def test_header_sizes_must_be_json_integers(tmp_path, key, value, components):
    # the payload keeps its size, so only the header type can fail
    d = dom(n=2, N=8, Nt=8)
    path = tmp_path / "field.tpf"
    save_field(SpaceTimeField.zeros(d, components), path)
    raw = path.read_bytes()
    header_end = raw.index(b"\n", len(MAGIC))
    meta = json.loads(raw[len(MAGIC):header_end])
    meta[key] = value
    path.write_bytes(MAGIC + json.dumps(meta).encode("ascii") + raw[header_end:])
    message = f"header size {key} must be an integer"
    with pytest.raises(SnapshotFormatError, match=message):
        load_field(path)


def test_json_writer_rejects_non_finite_values(tmp_path):
    from tpoe.snapshot import _write_json

    with pytest.raises(ValueError):
        _write_json(tmp_path / "bad.json", {"max_deviation": float("nan")})
