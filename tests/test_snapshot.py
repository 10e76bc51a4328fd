"""Tests for the field snapshot container."""

import inspect
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from tpoe import (
    OseenParams,
    SnapshotFormatError,
    SpaceTimeField,
    TorusDomain,
    load_field,
    manufactured_case,
    random_band_limited_field,
    save_bundle,
    save_field,
    solve_full,
)
from tpoe import snapshot, spectral
from tpoe.snapshot import MAGIC, _write_json


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


def test_rewrite_writes_a_fresh_file(tmp_path):
    # the old file is unlinked, not truncated: an open handle keeps its bytes
    d = dom()
    old, new = (
        random_band_limited_field(d, 2, np.random.default_rng(seed)) for seed in (2, 3)
    )
    path = tmp_path / "field.tpf"
    save_field(old, path)
    before = path.read_bytes()
    with open(path, "rb") as handle:
        save_field(new, path)
        assert handle.read() == before
    assert np.array_equal(load_field(path).samples, new.samples)


def test_rewrite_replaces_a_symlink(tmp_path):
    d = dom()
    target = tmp_path / "target.tpf"
    target.write_bytes(b"kept")
    path = tmp_path / "field.tpf"
    path.symlink_to(target)
    f = random_band_limited_field(d, 2, np.random.default_rng(4))
    save_field(f, path)
    assert not path.is_symlink() and target.read_bytes() == b"kept"
    assert np.array_equal(load_field(path).samples, f.samples)


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


@pytest.mark.parametrize("dtype", [">f8", "<f4", "<c16"])
def test_header_with_an_unsupported_dtype_rejected(tmp_path, dtype):
    # the payload keeps its size, so only the dtype can fail
    path = tmp_path / "field.tpf"
    save_field(SpaceTimeField.zeros(dom(n=2, N=8, Nt=8), 2), path)
    raw = path.read_bytes()
    header_end = raw.index(b"\n", len(MAGIC))
    meta = json.loads(raw[len(MAGIC):header_end])
    meta["dtype"] = dtype
    path.write_bytes(MAGIC + json.dumps(meta).encode("ascii") + raw[header_end:])
    with pytest.raises(SnapshotFormatError, match=f"unsupported dtype {dtype}$"):
        load_field(path)


def test_json_writer_rejects_non_finite_values(tmp_path):
    from tpoe.snapshot import _write_json

    with pytest.raises(ValueError):
        _write_json(tmp_path / "bad.json", {"max_deviation": float("nan")})


def test_load_reads_into_the_samples(tmp_path, traced_peak, bound_case):
    # 1.13x measured: the samples and their finiteness check
    _, _, f = bound_case
    path = tmp_path / "f.tpf"
    save_field(f, path)
    peak, g = traced_peak(lambda: load_field(path))
    assert np.array_equal(g.samples, f.samples)
    assert peak <= 1.25 * f.samples.nbytes


def test_save_bundle_copies_at_most_one_row(
    tmp_path, traced_peak, bound_case, workers
):
    # 0.026x-0.037x measured at 1-3 workers: a row of the broadcast v per
    # write in flight; the other fields are written from their own buffers.
    # 0.34x when v was copied a whole component at a time
    _, pr, f = bound_case
    bundle = solve_full(f, pr, norm_kinds=[])
    peak, _ = traced_peak(lambda: save_bundle(bundle, tmp_path / "out", pr))
    assert peak <= 0.1 * f.samples.nbytes


def test_save_bundle_raises_the_first_failed_write(tmp_path, bound_case, workers):
    # directories where u and w go: the four writes run concurrently (at
    # three workers, u and w fail in two threads), u's error is raised, as a
    # loop would raise it, and no summary is written
    _, pr, f = bound_case
    bundle = solve_full(f, pr, norm_kinds=[])
    out = tmp_path / "out"
    for name in ("u", "w"):
        (out / f"{name}.tpf").mkdir(parents=True)
    with pytest.raises(OSError) as caught:
        save_bundle(bundle, out, pr)
    assert caught.value.filename == str(out / "u.tpf")
    assert not (out / "summary.json").exists()


def test_no_thread_outlives_a_solve_or_its_save(tmp_path, monkeypatch):
    # a field of _THREAD_BYTES: every transform phase and the snapshot writes
    # start threads, and each call joins them before it returns
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    d = TorusDomain(n=2, L=2 * np.pi, N=64, T=2 * np.pi, Nt=64)
    pr = OseenParams(lam=1.0, T=d.T, q=2.0)
    _, _, f = manufactured_case("mixed", d, pr, seed=0)
    assert f.samples.nbytes >= spectral._THREAD_BYTES
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    bundle = solve_full(f, pr, norm_kinds=[])
    assert threading.active_count() == before
    solved = len(started)
    save_bundle(bundle, tmp_path / "out", pr)
    assert threading.active_count() == before
    assert solved > 0 and len(started) > solved
    assert not any(thread.is_alive() for thread in started)


def test_read_only_steady_part_saves_as_its_copy(tmp_path, bound_case):
    _, pr, f = bound_case
    bundle = solve_full(f, pr, norm_kinds=[])
    assert not bundle.v.samples.flags.writeable
    save_bundle(bundle, tmp_path / "out", pr)
    copy = SpaceTimeField(bundle.v.domain, bundle.v.samples.copy())
    save_field(copy, tmp_path / "copy.tpf")
    saved = tmp_path / "out" / "v.tpf"
    assert saved.read_bytes() == (tmp_path / "copy.tpf").read_bytes()
    assert np.array_equal(load_field(saved).samples, copy.samples)


def test_non_finite_json_writes_nothing(tmp_path):
    # the payload is serialized before the file is opened, so a NaN neither
    # creates a file nor truncates an existing one
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _write_json(path, {"finite": 1.0, "overall": float("nan")})
    assert not path.exists()
    _write_json(path, {"finite": 1.0})
    before, inode = path.read_bytes(), path.stat().st_ino
    with pytest.raises(ValueError):
        _write_json(path, {"finite": 1.0, "overall": float("nan")})
    assert path.read_bytes() == before
    assert path.stat().st_ino == inode  # not even replaced


def test_the_package_has_one_writer():
    # every file the package writes goes through snapshot._create, which
    # unlinks instead of truncating; the one reader opens with "rb"
    package = Path(__file__).resolve().parents[1] / "src" / "tpoe"
    lines = [
        (source.name, line.strip())
        for source in sorted(package.glob("*.py"))
        for line in source.read_text().splitlines()
    ]
    opens = [
        (name, line)
        for name, line in lines
        if re.search(r"\bopen\(", line) and '"rb"' not in line
    ]
    assert [name for name, _ in opens] == ["snapshot.py"]
    writer = inspect.getsource(snapshot._create)
    assert opens[0][1] in writer and "unlink" in writer
    assert [line for _, line in lines if re.search(r"write_(text|bytes)", line)] == []
