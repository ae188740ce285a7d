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
of the checkpoint bytes; a load requires it to be an object with a config
object and refuses bytes that do not match it. Bytes that match it but do
not follow the layout (a truncated field, a name given twice, a state flag
other than 0 or 1, bytes after the last field) are refused next, as
malformed.

Saves and loads stream: each field and each array's buffer is hashed as it
is written or as it lands in its own array, so neither holds the file's
bytes a second time, and a load reads the file once.

A load keeps the optimizer state only when it is asked to resume training
(`resume=True`). Otherwise it hashes the moment arrays through one reused
HASH_CHUNK scratch buffer and keeps only the parameters and the step count.
A store loaded that way from a file that held state refuses `adam_step` and
`save`: they would restart the moments from zero under the old step count,
and write zeros as moments. A file without state loads and trains as ever.

A model checks a loaded store against the names, order and shapes that its
config builds; `Layout` records them without drawing initial values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

__all__ = ["CheckpointError", "Layout", "ParameterStore", "adam_step",
           "checkpoint_hash", "config_from", "run_steps"]

_MAGIC = b"CKPT v1\n"
HASH_CHUNK = 1 << 20   # bytes per read when hashing a whole file

WARMUP = 100   # steps of linear learning-rate warm-up
# adaptive-moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """A checkpoint lacks its manifest or has a malformed one, does not
    match the hash the manifest records, or belongs to another stage-1
    model."""


class ParameterStore:
    """Insertion-ordered named parameters plus optimizer state."""

    def __init__(self, seed: int = 0):
        self.params: dict[str, Tensor] = {}
        self.rng = np.random.default_rng(seed)
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0
        self.checkpoint_hash: str | None = None   # of the last save or load
        # loaded without the optimizer state its file held
        self.state_dropped = False

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

    def _require_state(self, action: str) -> None:
        if self.state_dropped:
            raise ValueError(f"cannot {action}: the store was loaded without "
                             "its optimizer state; load it with resume=True "
                             "to train on")

    # -- persistence ---------------------------------------------------------

    def save(self, path, config: dict | None = None, seed: int | None = None) -> str:
        """Write the checkpoint field by field, each array straight from its
        buffer, hashing every byte as it is written; then the manifest."""
        self._require_state("save")
        path = Path(path)
        sha = hashlib.sha256()
        with open(path, "wb") as fh:
            def put(data) -> None:
                sha.update(data)
                fh.write(data)

            put(_MAGIC + struct.pack("<I", len(self.params)))
            for name, p in self.params.items():
                enc = name.encode("utf-8")
                put(struct.pack(f"<H{len(enc)}sB{p.data.ndim}I", len(enc),
                                enc, p.data.ndim, *p.data.shape))
                put(_bytes_of(p.data))
            if self.step_count:
                put(struct.pack("<BQ", 1, self.step_count))
                for name, p in self.params.items():
                    for moments in (self.moment1, self.moment2):
                        put(_bytes_of(moments[name] if name in moments
                                      else np.zeros_like(p.data)))
            else:
                put(struct.pack("<B", 0))
        self.checkpoint_hash = digest = sha.hexdigest()
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
    def load(cls, path, resume: bool = False) -> tuple["ParameterStore", dict]:
        """Read the checkpoint in one pass, each kept array straight into its
        own buffer, hashing every byte as it lands. The optimizer state is
        kept only to `resume` training. A file whose hash does not match its
        manifest is refused before its contents are judged, so a parse
        failure first hashes the rest of the file."""
        path = Path(path)
        with open(path, "rb") as fh:
            manifest_path = path.with_suffix(path.suffix + ".json")
            if not manifest_path.exists():
                raise CheckpointError(
                    f"{path}: manifest {manifest_path} is missing")
            manifest = _read_manifest(path, manifest_path)
            reader = _HashingReader(fh)
            store = cls()
            try:
                reader.read_into(store, resume)
                problem = None
            except _Malformed as exc:
                problem = exc
            digest = reader.hexdigest()
        if manifest.get("hash") != digest:
            raise CheckpointError(
                f"{path}: contents do not match the hash in {manifest_path}")
        if problem is not None:
            raise ValueError(f"{path}: {problem}")
        store.checkpoint_hash = digest
        return store, manifest


def _read_manifest(path: Path, manifest_path: Path) -> dict:
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:       # not UTF-8, or not JSON
        raise CheckpointError(
            f"{path}: manifest {manifest_path} does not parse: {exc}") from None
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("config"), dict)):
        raise CheckpointError(f"{path}: manifest {manifest_path} is not an "
                              "object with a config object")
    return manifest


def _bytes_of(a: np.ndarray) -> memoryview:
    """The little-endian float64 bytes of `a`, without a copy when `a` is
    already a C-contiguous float64 array."""
    return memoryview(np.ascontiguousarray(a, dtype="<f8").reshape(-1)
                      .view(np.uint8))


class _Malformed(Exception):
    """Checkpoint bytes that do not parse; `ParameterStore.load` reports
    them only once the whole file's hash has matched."""


class Layout:
    """The names and shapes, in order, that a model's builder registers.
    The builder takes one in place of a ParameterStore; no initial value is
    drawn."""

    def __init__(self):
        self.shapes: dict[str, tuple[int, ...]] = {}

    def add(self, name: str, shape: tuple[int, ...],
            scale: str | float = "auto") -> None:
        del scale   # no values are drawn
        self.shapes[name] = tuple(shape)

    def check(self, store: ParameterStore, path) -> None:
        """Refuse a loaded store whose names, order or shapes are not this
        layout's, with a ValueError that names the checkpoint file."""
        names, built = list(store.params), list(self.shapes)
        extra = [n for n in names if n not in self.shapes]
        missing = [n for n in built if n not in store.params]
        if extra:
            problem = f"it holds {extra[0]!r}, which its config does not build"
        elif missing:
            problem = f"it lacks {missing[0]!r}, which its config builds"
        elif names != built:
            i = next(i for i, (a, b) in enumerate(zip(names, built)) if a != b)
            problem = (f"parameter {i} is {names[i]!r}, where its config "
                       f"builds {built[i]!r}")
        else:
            problem = next(
                (f"{n!r} has shape {store[n].shape}, its config builds "
                 f"{self.shapes[n]}" for n in names
                 if store[n].shape != self.shapes[n]), None)
        if problem is not None:
            raise ValueError(f"{path}: checkpoint does not fit its config: "
                             f"{problem}")


class _HashingReader:
    """One in-order pass over an open checkpoint that feeds every byte it
    reads to one sha256. It allocates no array larger than the bytes left
    in the file; bytes it does not keep pass through one scratch buffer."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.sha = hashlib.sha256()
        self.scratch = memoryview(bytearray(HASH_CHUNK))

    def unpack(self, fmt: str, what: str) -> tuple:
        size = struct.calcsize(fmt)
        raw = self.fh.read(size)
        self.sha.update(raw)
        if len(raw) < size:
            raise _Malformed(f"malformed checkpoint: it ends inside {what}")
        return struct.unpack(fmt, raw)

    def _room(self, shape: tuple[int, ...], what: str) -> int:
        """The byte size of a float64 array of `shape`, once the file is
        known to have that many bytes left."""
        nbytes = 8 * math.prod(shape)
        left = self.size - self.fh.tell()
        if nbytes > left:
            raise _Malformed(f"malformed checkpoint: {what} of shape "
                             f"{shape} needs {nbytes} bytes, {left} are left")
        return nbytes

    def skip(self, shape: tuple[int, ...], what: str) -> None:
        """Hash a float64 array of `shape` without keeping it."""
        nbytes = self._room(shape, what)
        if _hash_rest(self.fh, self.sha, self.scratch, nbytes) < nbytes:
            raise _Malformed(f"malformed checkpoint: it ends inside {what}")

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        nbytes = self._room(shape, what)
        out = np.empty(shape, dtype="<f8")
        view = memoryview(out.reshape(-1).view(np.uint8))
        got = self.fh.readinto(view)
        self.sha.update(view[:got])
        if got < nbytes:
            raise _Malformed(f"malformed checkpoint: it ends inside {what}")
        return out

    def read_into(self, store: ParameterStore, resume: bool) -> None:
        magic = self.fh.read(len(_MAGIC))
        self.sha.update(magic)
        if magic != _MAGIC:
            raise _Malformed("not a checkpoint file")
        (count,) = self.unpack("<I", "the parameter count")
        for i in range(count):
            (nlen,) = self.unpack("<H", f"the name length of parameter {i}")
            (enc,) = self.unpack(f"<{nlen}s", f"the name of parameter {i}")
            try:
                name = enc.decode("utf-8")
            except UnicodeDecodeError:
                raise _Malformed(f"malformed checkpoint: the name of "
                                 f"parameter {i} is not UTF-8") from None
            if name in store.params:
                raise _Malformed(f"malformed checkpoint: parameter {i} "
                                 f"repeats the name {name!r}")
            (ndim,) = self.unpack("<B", f"the rank of {name!r}")
            shape = self.unpack(f"<{ndim}I", f"the shape of {name!r}")
            store.params[name] = Tensor(self.array(shape, repr(name)),
                                        requires_grad=True)
        (has_state,) = self.unpack("<B", "the optimizer-state flag")
        if has_state not in (0, 1):
            raise _Malformed(f"malformed checkpoint: the optimizer-state "
                             f"flag is {has_state}, not 0 or 1")
        if has_state:
            (store.step_count,) = self.unpack("<Q", "the step count")
            read = self.array if resume else self.skip
            for name, p in store.params.items():
                m1 = read(p.data.shape, f"the first moment of {name!r}")
                m2 = read(p.data.shape, f"the second moment of {name!r}")
                if resume:
                    store.moment1[name], store.moment2[name] = m1, m2
            store.state_dropped = not resume
        left = self.size - self.fh.tell()
        if left:
            raise _Malformed(f"malformed checkpoint: {left} bytes follow "
                             "its last field")

    def hexdigest(self) -> str:
        """The digest of the whole file, once the unread rest is hashed."""
        _hash_rest(self.fh, self.sha, self.scratch)
        return self.sha.hexdigest()


def config_from(config_cls, config: dict, path):
    """`config_cls(**config)`; a key the class lacks is a CheckpointError."""
    unknown = set(config) - {f.name for f in dataclasses.fields(config_cls)}
    if unknown:
        raise CheckpointError(f"{path}: unknown config keys {sorted(unknown)}")
    return config_cls(**config)


def adam_step(store: ParameterStore, lr: float = 3e-4) -> None:
    """Adaptive-moment update after WARMUP steps of linear warm-up;
    deterministic given gradient contents."""
    store._require_state("take an optimizer step")
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
        m = store.moment1.get(name)
        if m is None:   # a parameter's first update
            m = store.moment1[name] = np.zeros_like(p.data)
        v = store.moment2.get(name)
        if v is None:
            v = store.moment2[name] = np.zeros_like(p.data)
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
    """sha256 of a file, read HASH_CHUNK bytes at a time."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        _hash_rest(fh, sha, memoryview(bytearray(HASH_CHUNK)))
    return sha.hexdigest()


def _hash_rest(fh, sha, buf: memoryview, nbytes: float = math.inf) -> int:
    """Feed the next `nbytes` of `fh` (all that is left, by default) to `sha`
    through `buf`, one buffer's worth at a time; the number of bytes fed."""
    fed = 0
    while fed < nbytes:
        n = fh.readinto(buf[:min(len(buf), nbytes - fed)])
        if not n:
            break
        sha.update(buf[:n])
        fed += n
    return fed
