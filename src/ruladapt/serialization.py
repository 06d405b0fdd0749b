"""Deterministic binary container used for checkpoints.

Layout: magic, little-endian uint64 header length, a canonical JSON header
(``{"meta": ..., "arrays": [{name, dtype, shape}, ...]}`` with sorted keys),
then the raw array buffers concatenated in manifest order.  Identical content
always produces identical bytes, so file hashes double as content hashes.
The config classes take their hash and their field checks from here too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"RULB1\n"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """sha256 over the canonical JSON rendering of a config mapping."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# A config field's kinds: the words its error message uses, and its test.
# A bool (YAML reads `true` as one) is neither an int nor a float.
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list of integers",
           lambda v: isinstance(v, (list, tuple)) and all(map(_KINDS[int][1], v))),
}


def check_fields(obj, rules) -> None:
    """Raise ValueError at the first field of `obj` that breaks its rule
    (names, kind, test, text); `names` holds one or more field names.  A
    dataclass field whose default is None may be None; any other value must
    be of `kind`, pass `test` and, if a float, be finite."""
    for names, kind, test, text in rules:
        for name in names.split():
            value = getattr(obj, name)
            if value is None and obj.__dataclass_fields__[name].default is None:
                continue
            if not _KINDS[kind][1](value):
                raise ValueError(f"{name} must be {_KINDS[kind][0]}, got {value!r}")
            if not test(value):
                shown = list(value) if isinstance(value, tuple) else value
                raise ValueError(f"{name} must {text}, got {shown!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@contextmanager
def atomic_open(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside `path` that replaces `path` when the
    block exits cleanly.  On any failure the temporary file is removed and a
    previous file at `path` is left as it was.  There is no fsync: this
    guards against a failed writer, not against a lost machine."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """`obj` as indented JSON with sorted keys, replaced atomically."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def save_blob(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write arrays + metadata to `path` through `atomic_open`; an object-dtype
    array is a ValueError naming it, raised before anything is written."""
    arrays = {name: np.asarray(arr, order="C") for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if arr.dtype.hasobject:
            raise ValueError(f"{path}: array {name!r} has object dtype, which a blob cannot hold")
    manifest = [{"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
                for name, arr in arrays.items()]
    header = canonical_json({"meta": meta, "arrays": manifest}).encode()
    with atomic_open(path, "wb") as fh:
        for chunk in (MAGIC, len(header).to_bytes(8, "little"), header, *arrays.values()):
            fh.write(chunk)


def load_blob(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of save_blob; each array is read straight into a buffer it
    owns.  A file shorter or longer than its header and manifest say, whose
    header is not the expected JSON, or whose manifest lists a name twice
    is a ValueError naming it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(MAGIC) + 8)
        if not prefix.startswith(MAGIC):
            raise ValueError(f"{path}: not a ruladapt blob")
        end = len(MAGIC) + 8 + int.from_bytes(prefix[len(MAGIC) :], "little")
        if size < end:
            raise ValueError(f"{path}: truncated blob ({size} bytes, header ends at {end})")
        try:
            header = json.loads(fh.read(end - fh.tell()))
            meta = header["meta"]
            manifest = [(e["name"], np.dtype(e["dtype"]), e["shape"]) for e in header["arrays"]]
            if not all(isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
                       for _, _, shape in manifest):
                raise ValueError("a shape is not a list of non-negative integers")
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}: corrupt blob header ({type(exc).__name__}: {exc})") from exc
        arrays: dict[str, np.ndarray] = {}
        for name, dtype, shape in manifest:
            if name in arrays:
                raise ValueError(f"{path}: array {name!r} is listed twice in the manifest")
            if dtype.hasobject:
                raise ValueError(f"{path}: array {name!r} has object dtype, which a blob cannot hold")
            end += math.prod(shape) * dtype.itemsize
            if size < end:
                raise ValueError(
                    f"{path}: truncated blob ({size} bytes, array {name!r} ends at {end})"
                )
            arrays[name] = np.empty(shape, dtype)
            fh.readinto(arrays[name])
    if size > end:
        raise ValueError(f"{path}: {size - end} trailing bytes after the last array")
    return arrays, meta
