import errno
import hashlib

import numpy as np
import pytest

from ruladapt import serialization
from ruladapt.serialization import load_blob, save_blob


def toy_checkpoint():
    arrays = {
        "param/w": np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
        "adam_m/w": np.full((3, 4), -0.25),
        "extra/plan_src": np.array([3, 1, 2], dtype=np.int64),
        "stats_constant": np.array([1, 0], dtype=np.int8),
        "mask": np.array([True, False]),
        "empty": np.zeros((0, 2)),
    }
    meta = {"kind": "checkpoint", "iteration": 3, "rng": {"state": 2**70, "name": "PCG64"}}
    return arrays, meta


# sha256 of toy_checkpoint()'s bytes as the row-joining writer produced them;
# the streaming writer must reproduce them exactly.
TOY_SHA256 = "9c28f8aa4f28fb9c8acf098384ed2653966e920e586450cea2c2e0b475bd7e3e"


def test_toy_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "toy.bin"
    save_blob(path, *toy_checkpoint())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TOY_SHA256
    arrays, meta = load_blob(path)
    want_arrays, want_meta = toy_checkpoint()
    assert meta == want_meta and list(arrays) == list(want_arrays)
    for name, want in want_arrays.items():
        assert arrays[name].dtype == want.dtype
        np.testing.assert_array_equal(arrays[name], want)


@pytest.mark.parametrize("cut", [1, 100, 600])
def test_truncated_blob_names_its_path(tmp_path, cut):
    path = tmp_path / "toy.bin"
    save_blob(path, *toy_checkpoint())
    short = tmp_path / "short.bin"
    short.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match=r"short\.bin: truncated blob"):
        load_blob(short)


class _FullDisk:
    """A binary file whose writes fail once its first chunk is written."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        if self.fh.tell():
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(chunk)


def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "toy.bin"
    save_blob(path, *toy_checkpoint())
    before = path.read_bytes()
    monkeypatch.setattr(
        serialization, "open", lambda p, mode: _FullDisk(open(p, mode)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        save_blob(path, {"other": np.ones(4)}, {"kind": "other"})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.bin"]


def test_object_array_is_rejected_before_anything_is_written(tmp_path):
    path = tmp_path / "toy.bin"
    save_blob(path, *toy_checkpoint())
    before = path.read_bytes()
    with pytest.raises(ValueError, match=r"toy\.bin: array 'o' has object dtype"):
        save_blob(path, {"w": np.ones(2), "o": np.array([object()], dtype=object)}, {})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.bin"]


def _made_blob(path, shape, dtype="float64", data=np.arange(2.0).tobytes()):
    """A blob whose manifest holds one array, "x", of `dtype` and `shape`,
    followed by `data`."""
    header = serialization.canonical_json(
        {"meta": {}, "arrays": [{"name": "x", "dtype": dtype, "shape": shape}]}).encode()
    path.write_bytes(serialization.MAGIC + len(header).to_bytes(8, "little") + header + data)
    return path


def test_object_dtype_in_a_manifest_names_its_path(tmp_path):
    with pytest.raises(ValueError, match=r"made\.bin: array 'x' has object dtype"):
        load_blob(_made_blob(tmp_path / "made.bin", [1], "object", bytes(8)))


@pytest.mark.parametrize("shape", [[-1], [2.5], [True, 2], 2, {"2": 1}],
                         ids=["negative", "float", "bool", "not-a-list", "mapping"])
def test_a_manifest_shape_that_is_not_a_list_of_sizes_names_its_path(tmp_path, shape):
    with pytest.raises(ValueError, match=r"made\.bin: corrupt blob header .*non-negative integers"):
        load_blob(_made_blob(tmp_path / "made.bin", shape))


def test_trailing_bytes_after_the_last_array_name_their_path(tmp_path):
    arrays, _ = load_blob(_made_blob(tmp_path / "made.bin", [2]))
    np.testing.assert_array_equal(arrays["x"], [0.0, 1.0])
    with pytest.raises(ValueError, match=r"made\.bin: 3 trailing bytes after the last array"):
        load_blob(_made_blob(tmp_path / "made.bin", [2], data=bytes(16) + b"abc"))


@pytest.mark.parametrize("flip", [
    (0, 0x01),  # "{" -> "z": not JSON
    (0, 0x80),  # not UTF-8
    (None, 0x01),  # the "arrays" key becomes "arrayr": JSON, but not a blob header
])
def test_corrupt_header_names_its_path(tmp_path, flip):
    path = tmp_path / "toy.bin"
    save_blob(path, *toy_checkpoint())
    raw = bytearray(path.read_bytes())
    at, mask = flip
    raw[len(serialization.MAGIC) + 8 + at if at is not None else raw.index(b'"arrays"') + 6] ^= mask
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"bad\.bin: corrupt blob header"):
        load_blob(bad)


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "report.json"
    serialization.write_json(path, {"b": 1, "a": [1.5, float("nan")]})
    before = path.read_bytes()
    assert before == b'{\n  "a": [\n    1.5,\n    NaN\n  ],\n  "b": 1\n}'
    with pytest.raises(RuntimeError):
        with serialization.atomic_open(path) as fh:
            fh.write('{"partial"')
            raise RuntimeError("writer died")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
