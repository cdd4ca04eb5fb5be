import os
import struct

import numpy as np
import pytest

from vem.container import load_tensors, save_tensors
from vem.errors import DataError
from vem.rng import Rng


def test_round_trip_shapes_and_values(tmp_path):
    path = tmp_path / "t.vemt"
    tensors = {
        "a": Rng(1).gaussian((3, 4)),
        "b": np.arange(5, dtype=np.float32),
        "scalar": np.float32(2.5),
    }
    save_tensors(path, tensors)
    back, meta = load_tensors(path)
    assert meta == {}
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], np.asarray(tensors[k], dtype=np.float32))
        assert back[k].shape == np.asarray(tensors[k]).shape


def test_meta_round_trip(tmp_path):
    path = tmp_path / "m.vemt"
    meta = {"stage": "diffusion", "T": 1000, "widths": [8, 12], "lr": 0.001}
    save_tensors(path, {"x": np.zeros(2, dtype=np.float32)}, meta=meta)
    _, back = load_tensors(path)
    assert back == meta


def test_float64_input_saved_as_float32(tmp_path):
    path = tmp_path / "f.vemt"
    save_tensors(path, {"x": np.array([1.0, 2.0], dtype=np.float64)})
    back, _ = load_tensors(path)
    assert back["x"].dtype == np.float32


def test_empty_name_set(tmp_path):
    path = tmp_path / "e.vemt"
    save_tensors(path, {})
    back, meta = load_tensors(path)
    assert back == {} and meta == {}


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.vemt"
    save_tensors(path, {"x": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(DataError):
        load_tensors(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "b.vemt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_tensors(path)


def test_deeply_nested_metadata_rejected(tmp_path):
    # json's decoder recurses once per level and gives up with RecursionError
    blob = b"[" * 200_000
    path = tmp_path / "nested.vemt"
    path.write_bytes(b"VEMT\x02" + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(DataError, match="corrupt metadata block"):
        load_tensors(path)


def _entry(name_bytes, dims, payload):
    return (struct.pack("<I", len(name_bytes)) + name_bytes + struct.pack("<I", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


def test_oversized_dims_rejected_before_reading(tmp_path):
    # 100000 x 100000 float32 claims 40 GB; the file holds 16 bytes of payload
    path = tmp_path / "huge.vemt"
    path.write_bytes(b"VEMT\x01" + _entry(b"x", (100000, 100000), b"\x00" * 16))
    with pytest.raises(DataError):
        load_tensors(path)


def test_non_utf8_entry_name_rejected(tmp_path):
    path = tmp_path / "name.vemt"
    path.write_bytes(b"VEMT\x01" + _entry(b"\xff\xfe", (1,), b"\x00" * 4))
    with pytest.raises(DataError):
        load_tensors(path)


def test_failed_save_leaves_existing_file_untouched(tmp_path):
    path = tmp_path / "ckpt.vemt"
    save_tensors(path, {"w": np.ones(3, dtype=np.float32)}, meta={"stage": "diffusion"})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_tensors(path, {"a": np.zeros(2), "b": "not a number"}, meta={"stage": "adapter"})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ckpt.vemt"]


def test_deterministic_bytes(tmp_path):
    # same tensors, same bytes: checkpoint diffs stay meaningful
    t = {"w": Rng(2).gaussian((2, 3)), "b": np.zeros(3, dtype=np.float32)}
    p1, p2 = tmp_path / "1.vemt", tmp_path / "2.vemt"
    save_tensors(p1, t, meta={"k": 1})
    save_tensors(p2, dict(reversed(list(t.items()))), meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()
