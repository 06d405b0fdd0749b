"""Deterministic binary container used for dataset caches and checkpoints.

Layout: magic, little-endian uint64 header length, a canonical JSON header
(``{"meta": ..., "arrays": [{name, dtype, shape}, ...]}`` with sorted keys),
then the raw array buffers concatenated in manifest order.  Identical content
always produces identical bytes, so file hashes double as content hashes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

MAGIC = b"RULB1\n"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """sha256 over the canonical JSON rendering of a config mapping."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def save_blob(path, arrays: dict[str, np.ndarray], meta: dict) -> str:
    """Write arrays + metadata to `path`; returns the sha256 of the bytes."""
    manifest = []
    buffers = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        manifest.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
        buffers.append(arr.tobytes())
    header = canonical_json({"meta": meta, "arrays": manifest}).encode()
    blob = MAGIC + len(header).to_bytes(8, "little") + header + b"".join(buffers)
    Path(path).write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def load_blob(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise ValueError(f"{path}: not a ruladapt blob")
    offset = len(MAGIC)
    header_len = int.from_bytes(raw[offset : offset + 8], "little")
    offset += 8
    header = json.loads(raw[offset : offset + header_len])
    offset += header_len
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape)) if shape else dtype.itemsize
        count = int(np.prod(shape)) if shape else 1
        arrays[entry["name"]] = np.frombuffer(
            raw, dtype=dtype, count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    return arrays, header["meta"]
