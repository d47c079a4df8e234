"""Parameter store: initialization, updates, checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest

from coarsegen.autodiff import backward
from coarsegen.params import MAGIC, ParameterStore


def test_init_bounds_and_determinism():
    a = ParameterStore(seed=3).new("w", (50, 20), fan_in=20)
    b = ParameterStore(seed=3).new("w", (50, 20), fan_in=20)
    bound = 1.0 / np.sqrt(20)
    assert np.abs(a.data).max() <= bound
    np.testing.assert_array_equal(a.data, b.data)


def test_refetch_returns_same_tensor(store):
    a = store.new("x", (3, 3))
    b = store.new("x", (3, 3))
    assert a is b


def test_refetch_shape_mismatch_raises(store):
    store.new("x", (3, 3))
    with pytest.raises(ValueError, match="x"):
        store.new("x", (2, 3))


def test_zero_grad_and_sgd_step(store):
    w = store.new("w", (4,))
    before = w.data.copy()
    backward((w * w).sum())
    store.sgd_step(0.1)
    np.testing.assert_allclose(w.data, before - 0.1 * 2.0 * before)
    assert store.step == 1
    store.zero_grad()
    assert w.grad is None


def test_sgd_lr_zero_is_noop(store):
    w = store.new("w", (4,))
    before = w.data.copy()
    backward((w * w).sum())
    store.sgd_step(0.0)
    np.testing.assert_array_equal(w.data, before)


def test_adam_step_moves_against_gradient(store):
    w = store.new("w", (4,))
    w.data[:] = 1.0
    backward((w * w).sum())
    store.adam_step(0.01)
    assert np.all(w.data < 1.0)


def test_checkpoint_roundtrip_bit_exact(tmp_path, store):
    store.new("a.w", (3, 2))
    store.new("b.w", (5,))
    store.step = 7
    path = tmp_path / "ckpt.bin"
    store.save(path)
    loaded = ParameterStore.load(path)
    assert loaded.step == 7
    assert loaded.seed == store.seed
    assert loaded.names() == store.names()
    for name in store.names():
        np.testing.assert_array_equal(loaded.params[name].data,
                                      store.params[name].data)


def test_loaded_store_creates_no_parameters(tmp_path, store):
    store.new("a.w", (3, 2))
    path = tmp_path / "ckpt.bin"
    store.save(path)
    loaded = ParameterStore.load(path)
    assert loaded.new("a.w", (3, 2)) is loaded["a.w"]
    with pytest.raises(ValueError, match="'b.w' is not in the checkpoint"):
        loaded.new("b.w", (5,))
    assert "b.w" not in loaded


def test_checkpoint_save_is_deterministic(tmp_path, store):
    store.new("a.w", (3, 2))
    p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    store.save(p1)
    store.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
    with pytest.raises(ValueError, match="magic"):
        ParameterStore.load(path)


def test_checkpoint_header(tmp_path, store):
    store.new("w", (2,))
    path = tmp_path / "c.bin"
    store.save(path)
    assert path.read_bytes()[:8] == MAGIC


def _checkpoint_bytes(store, tmp_path) -> bytes:
    """Bytes of a saved two-array checkpoint."""
    store.new("w", (2, 3))
    store.new("b", (3,))
    store.save(tmp_path / "full.bin")
    return (tmp_path / "full.bin").read_bytes()


def _with_manifest(manifest: dict, payload: bytes = b"") -> bytes:
    blob = json.dumps(manifest).encode()
    return MAGIC + struct.pack("<Q", len(blob)) + blob + payload


@pytest.mark.parametrize("cut", [10, 8 + 4, 8 + 8 + 5, -1])
def test_truncated_checkpoint_names_path(tmp_path, store, cut):
    """A file cut short in the header, manifest or payload is a ValueError
    that names the file, not a struct or reshape error."""
    path = tmp_path / "trunc.bin"
    path.write_bytes(_checkpoint_bytes(store, tmp_path)[:cut])
    with pytest.raises(ValueError, match="trunc.bin: truncated checkpoint"):
        ParameterStore.load(path)


@pytest.mark.parametrize("blob", [
    MAGIC + struct.pack("<Q", 5) + b"{oops",
    MAGIC + struct.pack("<Q", 2) + b"\xff\xfe",
    _with_manifest({"step": 0, "arrays": []}),
    _with_manifest({"seed": 0, "arrays": []}),
    _with_manifest({"seed": 0, "step": 0}),
    _with_manifest({"seed": 0, "step": 0, "arrays": [{"name": "w"}]}),
    _with_manifest({"seed": 0, "step": 0,
                    "arrays": [{"name": "w", "shape": [-1]}]}),
    _with_manifest({"seed": 0, "step": 0, "arrays": []}, b"\0" * 8),
], ids=["bad-json", "not-utf8", "no-seed", "no-step", "no-arrays",
        "no-shape", "negative-shape", "trailing-bytes"])
def test_corrupt_checkpoint_names_path(tmp_path, blob):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="corrupt.bin: corrupt checkpoint"):
        ParameterStore.load(path)
