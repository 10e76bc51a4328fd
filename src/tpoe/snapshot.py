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
from pathlib import Path

import numpy as np

from .errors import SnapshotFormatError
from .solver import SolutionBundle
from .spectral import SpaceTimeField, TorusDomain
from .symbols import OseenParams

MAGIC = b"TPOE-FIELD v1\n"
DTYPE = "<f8"


def _write_json(path, payload: dict) -> None:
    """The one JSON file layout: sorted keys, indent 2, trailing newline;
    a non-finite value raises ``ValueError`` instead of writing invalid JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def save_field(field: SpaceTimeField, path) -> None:
    meta = dataclasses.asdict(field.domain)
    meta.update(components=field.components, dtype=DTYPE)
    payload = np.ascontiguousarray(field.samples, dtype=DTYPE).tobytes()
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(json.dumps(meta, sort_keys=True).encode("ascii"))
        handle.write(b"\n")
        handle.write(payload)


def load_field(path) -> SpaceTimeField:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise SnapshotFormatError(f"{path}: not a TPOE-FIELD v1 snapshot")
    try:
        header_end = raw.index(b"\n", len(MAGIC))
        meta = json.loads(raw[len(MAGIC):header_end].decode("ascii"))
        for key in ("n", "N", "Nt", "components"):
            if type(meta[key]) is not int:  # bool is a subclass of int
                raise SnapshotFormatError(
                    f"{path}: header size {key} must be an integer, got {meta[key]!r}"
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
            raise SnapshotFormatError(f"{path}: unsupported dtype {meta['dtype']}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: malformed snapshot header") from exc
    shape = (components,) + domain.grid_shape
    expected = int(np.prod(shape)) * 8
    payload = raw[header_end + 1:]
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    samples = np.frombuffer(payload, dtype=DTYPE).reshape(shape).copy()
    return SpaceTimeField(domain, samples)


def save_bundle(
    bundle: SolutionBundle,
    directory,
    params: OseenParams,
    extra: dict | None = None,
) -> None:
    """Write a solve result as four field snapshots plus summary.json.

    The summary carries the residual, the norm report, and the run
    parameters; ``extra`` entries are merged in (callers add provenance).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, field in (
        ("u", bundle.u), ("v", bundle.v), ("w", bundle.w), ("p", bundle.p),
    ):
        save_field(field, directory / f"{name}.tpf")
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
