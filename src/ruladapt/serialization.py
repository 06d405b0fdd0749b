"""Deterministic binary container used for dataset caches and checkpoints.

Layout: magic, little-endian uint64 header length, a canonical JSON header
(``{"meta": ..., "arrays": [{name, dtype, shape}, ...]}`` with sorted keys),
then the raw array buffers concatenated in manifest order.  Identical content
always produces identical bytes, so file hashes double as content hashes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

MAGIC = b"RULB1\n"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """sha256 over the canonical JSON rendering of a config mapping."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def save_blob(path, arrays: dict[str, np.ndarray], meta: dict) -> str:
    """Write arrays + metadata to `path`; returns the sha256 of the bytes.

    The bytes stream into a temporary file beside `path` that then replaces
    it, so a failure mid-write leaves any previous file untouched."""
    path = Path(path)
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    manifest = [{"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
                for name, arr in arrays.items()]
    header = canonical_json({"meta": meta, "arrays": manifest}).encode()
    digest = hashlib.sha256()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in (MAGIC, len(header).to_bytes(8, "little"), header, *arrays.values()):
                fh.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def load_blob(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of save_blob; every returned array owns its memory.  A file
    shorter than its header or manifest says is a ValueError naming it."""
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise ValueError(f"{path}: not a ruladapt blob")
    offset = len(MAGIC) + 8
    end = offset + int.from_bytes(raw[len(MAGIC) : offset], "little")
    if len(raw) < end:
        raise ValueError(f"{path}: truncated blob ({len(raw)} bytes, header ends at {end})")
    header = json.loads(raw[offset:end])
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"]))
        offset, end = end, end + count * dtype.itemsize
        if len(raw) < end:
            raise ValueError(
                f"{path}: truncated blob ({len(raw)} bytes, array {entry['name']!r} ends at {end})"
            )
        arrays[entry["name"]] = np.frombuffer(
            raw, dtype=dtype, count=count, offset=offset
        ).reshape(entry["shape"]).copy()
    return arrays, header["meta"]
