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
    digest = save_blob(path, *toy_checkpoint())
    assert digest == TOY_SHA256
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
