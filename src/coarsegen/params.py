"""Named parameter storage, initialization, SGD updates and checkpointing.

Checkpoint layout: an 8-byte magic header, a length-prefixed JSON manifest
(parameter names/shapes/dtype plus seed and step), then the raw float64
little-endian array payloads in manifest order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .autodiff import Tensor

MAGIC = b"CGCK0001"

# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ParameterStore:
    """Flat, named collection of trainable arrays with gradient slots."""

    def __init__(self, seed: int = 0):
        self.params: dict[str, Tensor] = {}
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self.step = 0
        self._loaded = False      # a loaded store creates no new parameters
        self._adam_m: dict[str, np.ndarray] = {}   # Adam first moments
        self._adam_v: dict[str, np.ndarray] = {}   # Adam second moments
        self._adam_t = 0                           # Adam steps taken

    def new(self, name: str, shape: tuple, fan_in: int | None = None) -> Tensor:
        """Create (or fetch) a parameter, initialized uniform(+-1/sqrt(fan_in)).

        A store returned by :meth:`load` only fetches: a name the checkpoint
        lacks raises ``ValueError`` instead of drawing random weights.
        """
        if name in self.params:
            existing = self.params[name]
            if existing.data.shape != tuple(shape):
                raise ValueError(
                    f"parameter {name!r} exists with shape {existing.data.shape}, "
                    f"requested {tuple(shape)}")
            return existing
        if self._loaded:
            raise ValueError(
                f"parameter {name!r} is not in the checkpoint: the model flags "
                f"do not match the checkpoint, or it never trained this part "
                f"of the model")
        if fan_in is None:
            fan_in = shape[0] if shape else 1
        bound = 1.0 / np.sqrt(max(fan_in, 1))
        data = self.rng.uniform(-bound, bound, size=shape)
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return sorted(self.params)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def sgd_step(self, lr: float) -> None:
        for t in self.params.values():
            if t.grad is not None:
                t.data -= lr * t.grad
        self.step += 1

    def adam_step(self, lr: float) -> None:
        """Adam update (optional config extension; SGD remains the default)."""
        self._adam_t += 1
        t_step = self._adam_t
        for name in self.names():
            p = self.params[name]
            if p.grad is None:
                continue
            m = self._adam_m.setdefault(name, np.zeros_like(p.data))
            v = self._adam_v.setdefault(name, np.zeros_like(p.data))
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * p.grad
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * p.grad * p.grad
            m_hat = m / (1 - ADAM_BETA1 ** t_step)
            v_hat = v / (1 - ADAM_BETA2 ** t_step)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        self.step += 1

    # -- checkpointing -------------------------------------------------------
    def save(self, path) -> None:
        names = self.names()
        manifest = {
            "seed": self.seed,
            "step": self.step,
            "arrays": [{"name": n, "shape": list(self.params[n].data.shape),
                        "dtype": "float64"} for n in names],
        }
        blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for n in names:
                fh.write(self.params[n].data.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "ParameterStore":
        """Read a checkpoint written by :meth:`save`.

        A truncated or corrupt file raises ``ValueError`` naming ``path``.
        """
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
        pos = 0

        def take(n: int, what: str) -> memoryview:
            nonlocal pos
            if n > len(blob) - pos:
                raise ValueError(f"{path}: truncated checkpoint: {what} needs "
                                 f"{n} bytes, {len(blob) - pos} left")
            pos += n
            return blob[pos - n:pos]

        magic = bytes(take(len(MAGIC), "header"))
        if magic != MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic: {magic!r}")
        (mlen,) = struct.unpack("<Q", take(8, "header"))
        raw = take(mlen, "manifest")
        try:
            manifest = json.loads(bytes(raw).decode("utf-8"))
            seed, step = int(manifest["seed"]), int(manifest["step"])
            entries = [(e["name"], tuple(int(d) for d in e["shape"]))
                       for e in manifest["arrays"]]
            if any(d < 0 for _, shape in entries for d in shape):
                raise ValueError("negative array dimension")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: corrupt checkpoint manifest: "
                             f"{type(exc).__name__}: {exc}") from None
        store = cls(seed=seed)
        store.step = step
        for name, shape in entries:
            data = take(8 * math.prod(shape), f"array {name!r}")
            store.params[name] = Tensor(
                np.frombuffer(data, dtype="<f8").reshape(shape).copy(),
                requires_grad=True)
        if pos != len(blob):
            raise ValueError(f"{path}: corrupt checkpoint: {len(blob) - pos} "
                             f"bytes after the last array")
        store._loaded = True
        return store
