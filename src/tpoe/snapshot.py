"""Field snapshot container: one self-describing file per field.

Layout (stable across versions, no timestamps):

* line 1: the ASCII magic ``TPOE-FIELD v1``
* line 2: a JSON object with keys ``n, L, N, T, Nt, components, dtype``
* the raw sample bytes, little-endian float64, C order, shape
  ``(components, N, ..., N, Nt)``

Written bytes depend only on the field content, so identical fields
produce identical files.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .errors import SnapshotFormatError
from .solver import SolutionBundle
from .spectral import SpaceTimeField, TorusDomain, _map
from .symbols import OseenParams

MAGIC = b"TPOE-FIELD v1\n"
DTYPE = "<f8"


def _create(path, mode: str):
    """The one writer: a new file at ``path`` in ``mode``, ``"w"`` (no newline
    translation) or ``"wb"``.  A file there is unlinked, never truncated (on
    ext4 that waits for a rewritten file's writeback), so an open reader
    keeps its bytes and a symlink or read-only file is replaced."""
    Path(path).unlink(missing_ok=True)
    return open(path, mode, newline=None if "b" in mode else "")


def _write_json(path, payload: dict) -> None:
    """The one JSON file layout: sorted keys, indent 2, trailing newline,
    written by :func:`_create`; a non-finite value raises ``ValueError``
    before the file is touched."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with _create(path, "w") as handle:
        handle.write(text + "\n")


def save_field(field: SpaceTimeField, path) -> None:
    """Write ``field`` as one snapshot.  Each component's buffer is written
    as it is; only a component that is not a C-contiguous float64 array,
    such as a broadcast view, is copied, one row along its first axis at a
    time.  The file is written fresh by :func:`_create`."""
    meta = dataclasses.asdict(field.domain)
    meta.update(components=field.components, dtype=DTYPE)
    with _create(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(json.dumps(meta, sort_keys=True).encode("ascii"))
        handle.write(b"\n")
        for component in field.samples:
            whole = component.flags.c_contiguous
            for part in [component] if whole else component:
                handle.write(np.ascontiguousarray(part, dtype=DTYPE))


def load_field(path) -> SpaceTimeField:
    """Read one snapshot; the payload is read straight into the samples.

    Raises
    ------
    SnapshotFormatError
        If the magic line, the header or the payload size is wrong.
    """
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise SnapshotFormatError(f"{path}: not a TPOE-FIELD v1 snapshot")
        try:
            header = handle.readline()
            meta = json.loads(header[: header.index(b"\n")].decode("ascii"))
            for key in ("n", "N", "Nt", "components"):
                if type(meta[key]) is not int:  # bool is a subclass of int
                    raise SnapshotFormatError(
                        f"{path}: header size {key} must be an integer, "
                        f"got {meta[key]!r}"
                    )
            domain = TorusDomain(
                n=meta["n"],
                L=float(meta["L"]),
                N=meta["N"],
                T=float(meta["T"]),
                Nt=meta["Nt"],
            )
            components = meta["components"]
            if meta["dtype"] != DTYPE:
                raise SnapshotFormatError(
                    f"{path}: unsupported dtype {meta['dtype']}"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"{path}: malformed snapshot header") from exc
        shape = (components,) + domain.grid_shape
        expected = int(np.prod(shape)) * 8
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size == expected:
            samples = np.empty(shape, dtype=DTYPE)
            size = handle.readinto(samples)  # short only if the file shrank
        if size != expected:
            raise SnapshotFormatError(
                f"{path}: payload has {size} bytes, expected {expected}"
            )
    return SpaceTimeField(domain, samples)


def save_bundle(
    bundle: SolutionBundle,
    directory,
    params: OseenParams,
    extra: dict | None = None,
) -> None:
    """Write a solve result as four field snapshots plus summary.json.

    The snapshots are written concurrently, by ``spectral._map``; the first
    of u, v, w, p that fails raises its error, as a loop would, and then no
    summary is written.  The summary carries the residual, the norm report,
    and the run parameters; ``extra`` entries are merged in (callers add
    provenance).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fields = [("u", bundle.u), ("v", bundle.v), ("w", bundle.w), ("p", bundle.p)]
    _map(lambda item: save_field(item[1], directory / f"{item[0]}.tpf"), fields)
    summary = {
        "residual": bundle.residual_norm,
        "norms": bundle.norm_report,
        "lambda": params.lam,
        "T": params.T,
        "q": params.q,
    }
    if extra:
        summary.update(extra)
    _write_json(directory / "summary.json", summary)
