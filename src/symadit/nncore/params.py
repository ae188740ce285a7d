"""Named parameter store with adaptive-moment updates and checkpoint I/O.

Checkpoint layout (little-endian):

    b"CKPT v1\\n"
    uint32  parameter count
    per parameter: uint16 name length, utf-8 name, uint8 ndim,
                   uint32 dims..., float64 raw data
    uint8   optimizer-state flag
    if set: uint64 step count, then per parameter the first- and
            second-moment arrays (same order and shapes as the parameters)

A JSON manifest (same path + ".json") records config, seed and the sha256
of the checkpoint bytes; a load requires it and refuses bytes that do not
match it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

__all__ = ["CheckpointError", "ParameterStore", "adam_step",
           "checkpoint_hash", "config_from", "run_steps"]

_MAGIC = b"CKPT v1\n"

WARMUP = 100   # steps of linear learning-rate warm-up
# adaptive-moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """A checkpoint lacks its manifest, does not match the hash the manifest
    records, or belongs to another stage-1 model."""


class ParameterStore:
    """Insertion-ordered named parameters plus optimizer state."""

    def __init__(self, seed: int = 0):
        self.params: dict[str, Tensor] = {}
        self.rng = np.random.default_rng(seed)
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0
        self.checkpoint_hash: str | None = None   # of the last save or load

    def add(self, name: str, shape: tuple[int, ...], scale: str | float = "auto") -> Tensor:
        if name in self.params:
            raise KeyError(f"parameter {name!r} already registered")
        if scale == "auto":
            fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
            scale = 1.0 / np.sqrt(fan_in)
        if scale == 0.0:
            data = np.zeros(shape)
        else:
            data = self.rng.normal(0.0, scale, size=shape)
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- persistence ---------------------------------------------------------

    def save(self, path, config: dict | None = None, seed: int | None = None) -> str:
        path = Path(path)
        blobs = [_MAGIC, struct.pack("<I", len(self.params))]
        for name, p in self.params.items():
            enc = name.encode("utf-8")
            blobs.append(struct.pack("<H", len(enc)))
            blobs.append(enc)
            blobs.append(struct.pack("<B", p.data.ndim))
            blobs.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            blobs.append(p.data.astype("<f8").tobytes())
        if self.step_count:
            blobs.append(struct.pack("<B", 1))
            blobs.append(struct.pack("<Q", self.step_count))
            for name, p in self.params.items():
                blobs.append(self.moment1.get(
                    name, np.zeros_like(p.data)).astype("<f8").tobytes())
                blobs.append(self.moment2.get(
                    name, np.zeros_like(p.data)).astype("<f8").tobytes())
        else:
            blobs.append(struct.pack("<B", 0))
        payload = b"".join(blobs)
        path.write_bytes(payload)
        self.checkpoint_hash = digest = hashlib.sha256(payload).hexdigest()
        manifest = {
            "hash": digest,
            "n_parameters": self.n_parameters(),
            "config": config or {},
            "seed": seed,
        }
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return digest

    @classmethod
    def load(cls, path) -> tuple["ParameterStore", dict]:
        path = Path(path)
        raw = path.read_bytes()
        manifest_path = path.with_suffix(path.suffix + ".json")
        if not manifest_path.exists():
            raise CheckpointError(f"{path}: manifest {manifest_path} is missing")
        manifest = json.loads(manifest_path.read_text())
        digest = hashlib.sha256(raw).hexdigest()
        if manifest.get("hash") != digest:
            raise CheckpointError(
                f"{path}: contents do not match the hash in {manifest_path}")
        if not raw.startswith(_MAGIC):
            raise ValueError(f"{path}: not a checkpoint file")
        off = len(_MAGIC)

        def take(shape) -> np.ndarray:
            nonlocal off
            size = int(np.prod(shape))
            data = np.frombuffer(raw, dtype="<f8", count=size, offset=off)
            off += 8 * size
            return data.reshape(shape).copy()

        (count,) = struct.unpack_from("<I", raw, off)
        off += 4
        store = cls()
        store.checkpoint_hash = digest
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off:off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", raw, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, off)
            off += 4 * ndim
            store.params[name] = Tensor(take(shape), requires_grad=True)
        (has_state,) = struct.unpack_from("<B", raw, off)
        off += 1
        if has_state:
            (store.step_count,) = struct.unpack_from("<Q", raw, off)
            off += 8
            for name, p in store.params.items():
                store.moment1[name] = take(p.data.shape)
                store.moment2[name] = take(p.data.shape)
        return store, manifest


def config_from(config_cls, config: dict, path):
    """`config_cls(**config)`; a key the class lacks is a CheckpointError."""
    unknown = set(config) - {f.name for f in dataclasses.fields(config_cls)}
    if unknown:
        raise CheckpointError(f"{path}: unknown config keys {sorted(unknown)}")
    return config_cls(**config)


def adam_step(store: ParameterStore, lr: float = 3e-4) -> None:
    """Adaptive-moment update after WARMUP steps of linear warm-up;
    deterministic given gradient contents."""
    store.step_count += 1
    t = store.step_count
    lr = lr * min(1.0, t / WARMUP)
    # bias-corrected update folded into scalar factors (fewer temporaries)
    alpha = lr * np.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t)
    eps_hat = ADAM_EPS * np.sqrt(1.0 - BETA2**t)
    for name, p in store.params.items():
        if p.grad is None:
            continue
        g = p.grad
        m = store.moment1.setdefault(name, np.zeros_like(p.data))
        v = store.moment2.setdefault(name, np.zeros_like(p.data))
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * (g * g)
        denom = np.sqrt(v)
        denom += eps_hat
        p.data -= alpha * m / denom


def run_steps(store: ParameterStore, budget: int, step_fn, log_every: int,
              callback=None) -> list[dict]:
    """Resume-aware training loop: `step_fn(step)` runs one optimizer step
    and returns its row, from the store's step count + 1 up to `budget`.

    Every `log_every`-th row and the last one get their "step", go to the
    returned history and to `callback(step, row)` when given.
    """
    history: list[dict] = []
    while store.step_count < budget:
        step = store.step_count + 1
        row = step_fn(step)
        if step % log_every == 0 or step == budget:
            row["step"] = step
            history.append(row)
            if callback is not None:
                callback(step, row)
    return history


def checkpoint_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
