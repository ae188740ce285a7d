import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import random_asu
from symadit import autoencoder, flowmatch
from symadit.nncore import (
    CheckpointError,
    ParameterStore,
    Tensor,
    adaln,
    adam_step,
    add_attention_block,
    attention_block,
    block_modulations,
    checkpoint_hash,
    cross_entropy,
    embedding,
    layer_norm,
    linear,
    mhsa,
    no_grad,
    run_steps,
    silu_mlp,
)
from symadit.nncore import layers
from symadit.nncore.layers import NEG_INF, token_sum
from symadit.nncore.params import (ADAM_EPS, BETA1, BETA2, HASH_CHUNK,
                                   WARMUP)


def numeric_grad(f, tensor: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued callable."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def check_gradients(build_loss, tensors, rtol=1e-5, atol=1e-7):
    """Compare backward() gradients with the finite-difference oracle."""
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    for t in tensors:
        numeric = numeric_grad(lambda: build_loss().item(), t)
        assert t.grad is not None
        err = np.abs(t.grad - numeric)
        scale = np.maximum(1.0, np.maximum(np.abs(t.grad), np.abs(numeric)))
        assert np.max(err / scale) < rtol + atol, \
            f"max rel err {np.max(err / scale):.2e}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# basic ops
# ---------------------------------------------------------------------------


def test_linear_grad_is_input():
    # loss = sum(w * x) -> dL/dw = x
    x = np.array([1.0, -2.0, 3.0])
    w = Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
    loss = (w * Tensor(x)).sum()
    loss.backward()
    assert np.array_equal(w.grad, x)


def test_detached_branch_zero_grad():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    frozen = Tensor(w.data.copy())
    loss = (w * 2.0).sum() + (frozen * 100.0).sum()
    loss.backward()
    assert np.array_equal(w.grad, [2.0, 2.0])


def test_backward_before_forward_fails():
    t = Tensor(np.array([1.0]))
    with pytest.raises(RuntimeError):
        t.backward()


def test_broadcast_gradients(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    check_gradients(lambda: ((a + b) * (a * b)).sum(), [a, b])


def test_elementwise_grads(rng):
    x = Tensor(rng.normal(size=(2, 5)) + 3.0, requires_grad=True)
    check_gradients(lambda: (x.log() + x.sqrt() + x.exp() * 1e-2).sum(), [x])
    y = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    check_gradients(lambda: y.silu().sum(), [y])
    check_gradients(lambda: (y * 2.0).cos().sum(), [y])


def test_matmul_grad(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check_gradients(lambda: ((a @ b) ** 2.0).sum(), [a, b])


# ---------------------------------------------------------------------------
# layers against the finite-difference oracle
# ---------------------------------------------------------------------------


def test_embedding_layer(rng):
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    idx = np.array([[0, 3], [3, 6]])
    out = embedding(table, idx)
    assert np.array_equal(out.data[0, 1], table.data[3])
    check_gradients(lambda: (embedding(table, idx) ** 2.0).sum(), [table])


def test_embedding_bounds(rng):
    table = Tensor(rng.normal(size=(7, 4)))
    with pytest.raises(IndexError):
        embedding(table, np.array([7]))


def test_linear_layer_grads(rng):
    x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    check_gradients(lambda: (linear(x, w, b) ** 2.0).sum(), [x, w, b])


def test_linear_shape_mismatch(rng):
    with pytest.raises(ValueError) as err:
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 4))))
    assert "(2, 3)" in str(err.value)


def test_silu_mlp_grads(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b1 = Tensor(rng.normal(size=(6,)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b2 = Tensor(rng.normal(size=(4,)), requires_grad=True)
    check_gradients(
        lambda: (silu_mlp(x, w1, b1, w2, b2) ** 2.0).sum(),
        [x, w1, b1, w2, b2])


def test_layer_norm_moments(rng):
    x = Tensor(rng.normal(2.0, 5.0, size=(4, 6, 8)))
    out = layer_norm(x).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_grads(rng):
    x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=(6,)), requires_grad=True)
    b = Tensor(rng.normal(size=(6,)), requires_grad=True)
    check_gradients(lambda: (layer_norm(x, g, b) ** 2.0).sum(), [x, g, b])


def test_adaln_grads(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    cond = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    b = Tensor(rng.normal(size=(8,)), requires_grad=True)
    check_gradients(lambda: (adaln(x, cond, w, b) ** 2.0).sum(),
                    [x, cond, w, b])


def test_adaptive_block_grads_reach_the_conditioning(rng):
    # the modulations are built apart from the block, as the denoiser does
    store = ParameterStore(seed=1)
    add_attention_block(store, "blk", 4, adaptive=True)
    for ln in ("ln1", "ln2"):
        for name in ("w", "b"):
            p = store[f"blk.{ln}.{name}"]
            p.data[...] = rng.normal(size=p.shape) * 0.3
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    cond = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    mask = np.array([[True, True, False], [True, True, True]])

    def loss():
        mods = block_modulations(cond, store, "blk")
        return (attention_block(x, store, "blk", 2, mask, mods) ** 2.0).sum()

    check_gradients(loss, [x, cond, store["blk.ln1.w"], store["blk.ln2.b"]])


def test_cross_entropy_grads(rng):
    logits = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    targets = rng.integers(0, 6, size=(2, 3))
    mask = np.array([[True, True, False], [True, False, False]])
    check_gradients(lambda: cross_entropy(logits, targets, mask), [logits])


def test_cross_entropy_ignores_masked(rng):
    logits = rng.normal(size=(2, 3, 6))
    targets = rng.integers(0, 6, size=(2, 3))
    mask = np.array([[True, True, False], [True, False, False]])
    base = cross_entropy(Tensor(logits), targets, mask).item()
    logits2 = logits.copy()
    logits2[~mask] = 1234.5
    again = cross_entropy(Tensor(logits2), targets, mask).item()
    assert base == again


def test_mhsa_grads(rng):
    d, heads = 8, 2
    x = Tensor(rng.normal(size=(2, 3, d)), requires_grad=True)
    ws = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d), requires_grad=True)
          for _ in range(4)]
    mask = np.array([[True, True, True], [True, True, False]])
    check_gradients(
        lambda: (mhsa(x, *ws, heads, mask) ** 2.0).sum(), [x] + ws)


def test_mhsa_single_token_is_value_path(rng):
    d, heads = 8, 2
    x = Tensor(rng.normal(size=(1, 1, d)))
    ws = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
    out = mhsa(x, *ws, heads)
    direct = ((x.data @ ws[2].data) @ ws[3].data)
    # one key: the softmax weight is exactly 1.0 and the value sum has one
    # addend, so attention is the value path bit for bit
    assert out.data.tobytes() == direct.tobytes()


def test_mhsa_permutation_equivariance_bitwise(rng):
    # token counts on both sides of the three-addend compare-exchange path
    d, heads = 16, 4
    for n in (2, 3, 4, 5, 6, 7, 8, 9):
        x = rng.normal(size=(1, n, d))
        ws = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
        out = mhsa(Tensor(x), *ws, heads).data
        for trial in range(5):
            perm = rng.permutation(n)
            out_p = mhsa(Tensor(x[:, perm]), *ws, heads).data
            assert np.array_equal(out_p, out[:, perm]), n


def test_mhsa_permutation_equivariance_bitwise_padded_batch(rng):
    d, heads, n = 16, 4, 6
    x = rng.normal(size=(2, n, d))
    mask = np.array([[True] * n, [True] * 4 + [False] * (n - 4)])
    ws = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
    out = mhsa(Tensor(x), *ws, heads, mask).data
    for trial in range(5):
        perm = rng.permutation(n)
        out_p = mhsa(Tensor(x[:, perm]), *ws, heads, mask[:, perm]).data
        assert out_p.tobytes() == out[:, perm].tobytes()


def _block_layout(d: int, adaptive: bool) -> dict:
    norm = ({"w": (d, 2 * d), "b": (2 * d,)} if adaptive
            else {"g": (d,), "b": (d,)})
    layout = {f"blk.{n}": (d, d) for n in ("wq", "wk", "wv", "wo")}
    for ln in ("ln1", "ln2"):
        layout.update({f"blk.{ln}.{n}": shape for n, shape in norm.items()})
    layout.update({"blk.ff1.w": (d, 2 * d), "blk.ff1.b": (2 * d,),
                   "blk.ff2.w": (2 * d, d), "blk.ff2.b": (d,)})
    return layout


def test_add_attention_block_layout(rng):
    d = 8
    stores = {}
    for adaptive in (False, True):
        store = ParameterStore(seed=0)
        add_attention_block(store, "blk", d, adaptive=adaptive)
        layout = _block_layout(d, adaptive)
        assert list(store.params) == list(layout)
        assert [store[n].shape for n in layout] == list(layout.values())
        for name in layout:
            if ".ln" in name or name.endswith(".b"):
                assert not store[name].data.any(), name
        stores[adaptive] = store
    # zero-initialised entries draw no random numbers, so both layouts
    # share their attention and feed-forward weights
    for name in ("wq", "wk", "wv", "wo", "ff1.w", "ff2.w"):
        assert np.array_equal(stores[False][f"blk.{name}"].data,
                              stores[True][f"blk.{name}"].data)

    x = Tensor(rng.normal(size=(2, 3, d)))
    mask = np.array([[True, True, False], [True, True, True]])
    cond = Tensor(rng.normal(size=(2, d)))
    plain = attention_block(x, stores[False], "blk", 2, mask)
    adaptive = attention_block(x, stores[True], "blk", 2, mask,
                               block_modulations(cond, stores[True], "blk"))
    assert plain.shape == adaptive.shape == (2, 3, d)
    assert not plain.data[0, 2].any() and not adaptive.data[0, 2].any()
    # both norms start as plain layer_norm: gain 1 + 0, scale 1 + 0
    assert np.array_equal(plain.data, adaptive.data)
    with pytest.raises(KeyError):
        block_modulations(cond, stores[False], "blk")
    with pytest.raises(KeyError):
        attention_block(x, stores[True], "blk", 2, mask)


def test_token_sum_order_independent(rng):
    for n in range(2, 10):
        x = rng.normal(size=(1, n, 5))
        base = token_sum(Tensor(x), axis=1).data
        for _ in range(5):
            perm = rng.permutation(n)
            assert np.array_equal(
                token_sum(Tensor(x[:, perm]), axis=1).data, base), n


def _hard_addends(rng, shape: tuple[int, ...], axis: int) -> np.ndarray:
    """Uniform addends in (-100, 100), each lane along `axis` scaled by one
    factor from 1e-298 to 1e298, so magnitudes span 1e-300 to 1e300 while
    the grouping of a lane's sum still shows in its bits; some +-0.0,
    +-inf and +-1.0 mixed in; some lanes end on a copy of their first
    addend, some hold only -0.0 and some only zeros of both signs."""
    lane_shape = np.moveaxis(np.empty(shape), axis, -1).shape[:-1]
    scale = np.expand_dims(10.0 ** rng.uniform(-298, 298, size=lane_shape),
                           axis)
    x = scale * rng.uniform(-100, 100, size=shape)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])
    pick = rng.random(shape) < 0.1
    x[pick] = rng.choice(special, size=int(pick.sum()))
    lanes = np.moveaxis(x, axis, -1)       # a view: writes land in x
    kind = rng.integers(0, 6, size=lane_shape)
    lanes[kind == 0, -1] = lanes[kind == 0, 0]
    lanes[kind == 1] = -0.0
    lanes[kind == 2] = rng.choice([0.0, -0.0], size=lanes[kind == 2].shape)
    return x


@pytest.mark.parametrize("n", range(1, 13))
def test_sorted_reduce_is_sort_then_reduce_bitwise(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        # attention's values, the softmax denominator and token_sum's
        # (B, N, D); then layouts whose axis numpy may reduce pairwise: a
        # trailing axis of one, and an axis innermost in memory but not
        # unit-strided
        strided_inner = _hard_addends(rng, (3, 6, 2 * n), 2).transpose(
            0, 2, 1)[:, ::2]
        cases = [(_hard_addends(rng, (2, 3, n, n, 5), 3), 3),
                 (_hard_addends(rng, (2, 3, n, n), -1), -1),
                 (_hard_addends(rng, (3, n, 6), 1), 1),
                 (_hard_addends(rng, (3, n, 1), 1), 1),
                 (strided_inner, 1)]
        for data, axis in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.add.reduce(np.sort(data, axis=axis), axis=axis)
                got = layers._sorted_reduce(data, axis)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64),
                                  want.view(np.int64)), (data.shape, axis)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _per_array_adam_step(store: ParameterStore, lr: float) -> None:
    """adam_step as one loop over the arrays, a zero moment built for every
    parameter on every step: the oracle for the optimizer's bits."""
    store.step_count += 1
    t = store.step_count
    lr = lr * min(1.0, t / WARMUP)
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


def test_adam_step_is_bitwise_the_per_array_loop():
    def run(step):
        store = ParameterStore(seed=4)
        for name, shape in (("a", (3, 5)), ("b", (5,)), ("c", (1,)),
                            ("d", (2,))):
            store.add(name, shape)
        r = np.random.default_rng(11)
        for k in range(120):   # through the end of the warm-up
            store.zero_grad()
            for name, p in store.params.items():
                # "c" first moves at step 3; "d" never has a gradient;
                # "b" holds a signed zero now and then
                if (name == "c" and k < 3) or name == "d":
                    continue
                p.grad = r.normal(size=p.data.shape)
                if name == "b" and k % 7 == 0:
                    p.grad[:2] = (-0.0, 0.0)
            step(store, lr=1e-2)
        return store

    got, want = run(adam_step), run(_per_array_adam_step)
    assert sorted(got.moment1) == sorted(got.moment2) == ["a", "b", "c"]
    for name in want.params:
        assert got[name].data.tobytes() == want[name].data.tobytes()
        if name in want.moment1:
            assert got.moment1[name].tobytes() == want.moment1[name].tobytes()
            assert got.moment2[name].tobytes() == want.moment2[name].tobytes()
    assert "d" not in want.moment1


def test_adam_step_builds_each_moment_once(monkeypatch):
    store = ParameterStore(seed=0)
    for name in ("a", "b"):
        store.add(name, (4,))
    built = []
    real = np.zeros_like
    monkeypatch.setattr(np, "zeros_like",
                        lambda a, *args, **kw: built.append(a.shape)
                        or real(a, *args, **kw))
    for _ in range(5):
        for p in store.params.values():
            p.grad = np.ones(4)
        adam_step(store)
    assert built == [(4,)] * 4   # two moments of two parameters


def test_zero_gradient_leaves_parameters(rng):
    store = ParameterStore(seed=0)
    p = store.add("w", (4,))
    before = p.data.copy()
    p.grad = np.zeros(4)
    adam_step(store, lr=0.1)
    assert np.array_equal(p.data, before)


def test_quadratic_bowl_decreases():
    store = ParameterStore(seed=1)
    p = store.add("w", (3,))
    p.data = np.array([5.0, -4.0, 3.0])
    start = float(np.sum(p.data**2))
    last = np.inf
    store.step_count = WARMUP   # past the warm-up: every step takes full lr
    for _ in range(100):
        store.zero_grad()
        p.grad = 2.0 * p.data   # gradient of sum(w^2)
        adam_step(store, lr=0.05)
        val = float(np.sum(p.data**2))
        assert val <= last + 1e-12
        last = val
    assert last < 0.05 * start


def test_determinism_same_seed():
    def run():
        store = ParameterStore(seed=42)
        p = store.add("w", (5,))
        rng = np.random.default_rng(7)
        for _ in range(10):
            store.zero_grad()
            p.grad = rng.normal(size=5)
            adam_step(store, lr=1e-2)
        return p.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, rng):
    store = ParameterStore(seed=3)
    store.add("a.w", (3, 4))
    store.add("b", (2,))
    for p in store.params.values():
        p.grad = np.ones_like(p.data)
    adam_step(store, lr=1e-3)
    digest = store.save(tmp_path / "model.ckpt", config={"d": 4}, seed=3)
    loaded, manifest = ParameterStore.load(tmp_path / "model.ckpt")
    assert manifest["hash"] == digest
    assert manifest["config"] == {"d": 4}
    assert list(loaded.params) == list(store.params)
    assert loaded.step_count == 1
    for name in store.params:
        assert np.array_equal(loaded[name].data, store[name].data)
        assert loaded.moment1[name].tobytes() == store.moment1[name].tobytes()
        assert loaded.moment2[name].tobytes() == store.moment2[name].tobytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        ParameterStore.load(path)


def test_checkpoint_load_requires_matching_sidecar(tmp_path):
    store = ParameterStore(seed=1)
    store.add("w", (2, 3))
    path = tmp_path / "model.ckpt"
    sidecar = tmp_path / "model.ckpt.json"
    digest = store.save(path, config={"d": 3})
    assert store.checkpoint_hash == digest
    assert ParameterStore.load(path)[0].checkpoint_hash == digest
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="do not match"):
        ParameterStore.load(path)
    path.write_bytes(raw)
    sidecar.unlink()
    with pytest.raises(CheckpointError, match="missing"):
        ParameterStore.load(path)
    with pytest.raises(FileNotFoundError):
        ParameterStore.load(tmp_path / "absent.ckpt")


def _f64(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _with_sidecar(path, payload: bytes, digest: str | None = None):
    """Write `payload` and a sidecar recording its hash (or `digest`)."""
    path.write_bytes(payload)
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(
        {"hash": digest or hashlib.sha256(payload).hexdigest(),
         "config": {}, "seed": None}))
    return path


# A checkpoint built by hand from the documented layout: "w" of shape (2, 1)
# and the scalar "é" (a two-byte UTF-8 name), after 3 optimizer steps.
_HAND_BUILT = (b"CKPT v1\n" + struct.pack("<I", 2)
               + struct.pack("<H1sB2I", 1, b"w", 2, 2, 1) + _f64(1.5, -2.0)
               + struct.pack("<H2sB", 2, "é".encode(), 0) + _f64(0.25)
               + struct.pack("<BQ", 1, 3)
               + _f64(0.1, 0.2) + _f64(0.3, 0.4)      # moments of "w"
               + _f64(0.5) + _f64(0.6))               # moments of "é"
# the same parameters without optimizer state: flag 0 ends the file
_NO_STATE = _HAND_BUILT[:-(9 + 8 * 6)] + b"\x00"


def test_save_writes_the_documented_bytes(tmp_path):
    store = ParameterStore()
    store.params["w"] = Tensor(np.array([[1.5], [-2.0]]), requires_grad=True)
    store.params["é"] = Tensor(np.array(0.25), requires_grad=True)
    path = tmp_path / "model.ckpt"
    assert store.save(path) == hashlib.sha256(_NO_STATE).hexdigest()
    assert path.read_bytes() == _NO_STATE
    store.step_count = 3
    store.moment1 = {"w": np.array([[0.1], [0.2]]), "é": np.array(0.5)}
    store.moment2 = {"w": np.array([[0.3], [0.4]]), "é": np.array(0.6)}
    digest = store.save(path)
    assert path.read_bytes() == _HAND_BUILT
    assert digest == store.checkpoint_hash == hashlib.sha256(
        _HAND_BUILT).hexdigest()
    assert json.loads(path.with_suffix(".ckpt.json").read_text())[
        "hash"] == digest


def test_load_reads_the_documented_bytes(tmp_path):
    path = _with_sidecar(tmp_path / "model.ckpt", _HAND_BUILT)
    store, _ = ParameterStore.load(path)
    assert store.checkpoint_hash == hashlib.sha256(_HAND_BUILT).hexdigest()
    assert list(store.params) == ["w", "é"] and store.step_count == 3
    assert store["w"].data.tobytes() == _f64(1.5, -2.0)
    assert store["é"].data.shape == () and store["é"].data == 0.25
    assert store.moment1["w"].tobytes() == _f64(0.1, 0.2)
    assert store.moment2["é"].tobytes() == _f64(0.6)
    for array in (store["w"].data, store.moment1["w"], store.moment2["w"]):
        assert array.dtype == np.float64 and array.flags.c_contiguous
        assert array.flags.owndata and array.flags.writeable


_ONE_PARAM = b"CKPT v1\n" + struct.pack("<I", 1)
_MALFORMED = {
    "truncated count": b"CKPT v1\n\x05",
    "truncated array": (_ONE_PARAM + struct.pack("<H1sB1I", 1, b"w", 1, 4)
                        + _f64(1.0, 2.0)),
    "non-UTF-8 name": (_ONE_PARAM
                       + struct.pack("<H2sB1I", 2, b"\xff\xfe", 1, 1)
                       + _f64(1.0) + b"\x00" + bytes(4096)),
    "oversized shape": (_ONE_PARAM
                        + struct.pack("<H1sB2I", 1, b"w", 2, 1024, 8192)
                        + bytes(4096)),
    "truncated step count": _HAND_BUILT[:-(8 * 6 + 4)],
    "truncated moment": _HAND_BUILT[:-4],
    # "w" twice, with state: a reader that let the second win would keep
    # the first one's moments and leave 16 bytes unread
    "repeated name": (b"CKPT v1\n" + struct.pack("<I", 2)
                      + struct.pack("<H1sB1I", 1, b"w", 1, 1) + _f64(1.0)
                      + struct.pack("<H1sB1I", 1, b"w", 1, 1) + _f64(2.0)
                      + struct.pack("<BQ", 1, 7) + _f64(0.1, 0.2, 0.3, 0.4)),
    # a state flag of 2 before a well-formed state, read as "has state"
    "state flag 2": (_HAND_BUILT[:len(_NO_STATE) - 1] + b"\x02"
                     + _HAND_BUILT[len(_NO_STATE):]),
    "bytes after the last moment": _HAND_BUILT + b"\x00",
    "bytes after the state flag": _NO_STATE + _f64(0.0),
}
# what the cases that a matching hash once let through are refused for
_PROBLEM = {
    "repeated name": "parameter 1 repeats the name 'w'",
    "state flag 2": "the optimizer-state flag is 2, not 0 or 1",
    "bytes after the last moment": "1 bytes follow its last field",
    "bytes after the state flag": "8 bytes follow its last field",
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_checkpoint_is_a_value_error_naming_the_file(tmp_path,
                                                               case):
    """Each raises once the whole file has hashed to its sidecar's hash, so
    the bytes after the fault are read too; the oversized shape (64 MiB in a
    4 kB file) allocates nothing on the way."""
    path = _with_sidecar(tmp_path / "model.ckpt", _MALFORMED[case])

    def load():
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            ParameterStore.load(path)
        return info

    info, peak = _traced_peak(load)
    assert not isinstance(info.value, CheckpointError)
    assert "malformed checkpoint" in str(info.value)
    assert _PROBLEM.get(case, "") in str(info.value)
    assert peak < HASH_CHUNK + 2**20


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_checkpoint_with_a_wrong_hash_is_a_hash_mismatch(tmp_path,
                                                                   case):
    path = _with_sidecar(tmp_path / "model.ckpt", _MALFORMED[case],
                         digest=hashlib.sha256(b"other").hexdigest())
    with pytest.raises(CheckpointError, match="do not match"):
        ParameterStore.load(path)


def _few_mb_store() -> ParameterStore:
    store = ParameterStore(seed=5)
    for name, shape in (("a", (400, 500)), ("b", (300,)), ("c", (200, 400))):
        store.add(name, shape)
    for p in store.params.values():
        p.grad = np.ones_like(p.data)
    adam_step(store)
    return store


def _traced_peak(fn):
    """(result, bytes allocated at the peak of `fn()` above the start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_load_holds_no_second_copy_of_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    _few_mb_store().save(path)
    (store, _), peak = _traced_peak(lambda: ParameterStore.load(path))
    resident = sum(a.nbytes for part in ([p.data for p in
                                          store.params.values()],
                                         store.moment1.values(),
                                         store.moment2.values())
                   for a in part)
    assert path.stat().st_size > resident > 6e6
    assert peak <= resident + 2**21


def test_save_holds_no_copy_of_the_file(tmp_path):
    store = _few_mb_store()
    _, peak = _traced_peak(lambda: store.save(tmp_path / "model.ckpt"))
    largest = max(p.data.nbytes for p in store.params.values())
    assert (tmp_path / "model.ckpt").stat().st_size > 3 * largest
    assert peak <= largest + 2**21


def test_checkpoint_hash_reads_in_chunks(tmp_path):
    path = tmp_path / "model.ckpt"
    _few_mb_store().save(path)
    digest, peak = _traced_peak(lambda: checkpoint_hash(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.stat().st_size > 6e6 and peak <= 2**21


@pytest.mark.parametrize("size", [0, 1, HASH_CHUNK - 1, HASH_CHUNK,
                                  HASH_CHUNK + 1, 3 * HASH_CHUNK + 7])
def test_checkpoint_hash_at_chunk_boundaries(tmp_path, size):
    assert HASH_CHUNK == 2**20
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert checkpoint_hash(path) == hashlib.sha256(
        path.read_bytes()).hexdigest()


def test_run_steps_logs_every_nth_and_last_step_and_resumes():
    store = ParameterStore()
    seen, logged = [], []

    def step_fn(step):
        seen.append(step)
        store.step_count += 1
        return {"value": 10 * step}

    history = run_steps(store, 7, step_fn, 3,
                        lambda step, row: logged.append((step, row["value"])))
    assert seen == list(range(1, 8))
    assert [r["step"] for r in history] == [3, 6, 7]
    assert logged == [(3, 30), (6, 60), (7, 70)]
    assert run_steps(store, 9, step_fn, 5) == [{"value": 90, "step": 9}]
    assert seen[7:] == [8, 9]


# ---------------------------------------------------------------------------
# fused nodes against their chains of elementary ops, bit for bit
# ---------------------------------------------------------------------------
#
# Each layer is one tape node whose backward replays the arithmetic of the
# chain below. The chains are the oracles: outputs and every parent's
# gradient must match to the last bit.


def chain_linear(x, w, b=None):
    out = x @ w
    return out if b is None else out + b


def chain_layer_norm(x, gamma=None, beta=None, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + eps).sqrt()
    if gamma is not None:
        normed = normed * gamma
    if beta is not None:
        normed = normed + beta
    return normed


def chain_split_heads(x, w, n_heads):
    b, n, _ = x.shape
    d = w.shape[-1]
    return (x @ w).reshape(b, n, n_heads, d // n_heads).swapaxes(1, 2)


def chain_scores(q, k, key_bias):
    scores = (q @ k.swapaxes(2, 3)) * (1.0 / np.sqrt(q.shape[-1]))
    return scores if key_bias is None else scores + Tensor(key_bias)


def chain_token_softmax(scores):
    shifted = scores - Tensor(np.max(scores.data, axis=-1, keepdims=True))
    e = shifted.exp()
    denom = token_sum(e, -1).reshape(scores.shape[:-1] + (1,))
    return e / denom


def chain_merge_heads(heads, wo):
    b, h, n, hd = heads.shape
    return heads.swapaxes(1, 2).reshape(b, n, h * hd) @ wo


SHAPES = [(b, n, hd) for b in (1, 2, 32) for n in (1, 3, 8, 27)
          for hd in (4, 32, 33)]
HEADS = 2


def _heads_view(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, N, D) as the (B, H, N, hd) view the head split hands on."""
    b, n, d = a.shape
    return np.swapaxes(a.reshape(b, n, n_heads, d // n_heads), 1, 2)


def _pad_mask(rng, b: int, n: int) -> np.ndarray:
    mask = np.ones((b, n), dtype=bool)
    for i in range(b):
        mask[i, int(rng.integers(1, n + 1)):] = False
    return mask


def _run(fn, arrays, flags, upstream, seeded_grads):
    """Output bytes and each parent's gradient bytes after one backward."""
    tensors = [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
    if seeded_grads is not None:
        for t, g0 in zip(tensors, seeded_grads):
            if t.requires_grad:
                t.grad = g0.copy()
    out = fn(*tensors)
    if out.requires_grad:
        out.backward(upstream)
    return (out.data.tobytes(),
            [None if t.grad is None else t.grad.tobytes() for t in tensors])


def assert_bitwise(fused, chain, arrays, rng, upstream_view=None,
                   patterns=None):
    """Every requires_grad pattern over the parents (or the given ones),
    with fresh and with already-holding gradients, gives the chain's
    bits."""
    out_shape = chain(*[Tensor(a) for a in arrays]).shape
    upstream = rng.normal(size=out_shape)
    if upstream_view is not None:        # the layout a head split receives
        upstream = upstream_view(upstream)
    seeds = [rng.normal(size=np.shape(a)) for a in arrays]
    if patterns is None:
        patterns = [[bool(bits >> i & 1) for i in range(len(arrays))]
                    for bits in range(2 ** len(arrays))]
    for flags in patterns:
        for seeded in (None, seeds):
            want = _run(chain, arrays, flags, upstream, seeded)
            got = _run(fused, arrays, flags, upstream, seeded)
            assert got == want, (flags, seeded is not None)


@pytest.mark.parametrize("b,n,hd", SHAPES)
def test_linear_node_is_the_chain_bitwise(b, n, hd):
    rng = np.random.default_rng(b * 1000 + n * 10 + hd)
    d = HEADS * hd
    x3 = rng.normal(size=(b, n, d))
    x2 = rng.normal(size=(b, d))
    w = rng.normal(size=(d, d + 3)) / np.sqrt(d)
    bias = rng.normal(size=(d + 3,))
    for x in (x3, x2):
        assert_bitwise(linear, chain_linear, [x, w, bias], rng)
        assert_bitwise(linear, chain_linear, [x, w], rng)


@pytest.mark.parametrize("b,n,hd", SHAPES)
def test_layer_norm_node_is_the_chain_bitwise(b, n, hd):
    rng = np.random.default_rng(b * 1000 + n * 10 + hd)
    d = HEADS * hd
    x = rng.normal(1.0, 3.0, size=(b, n, d))
    gamma, beta = rng.normal(size=(d,)), rng.normal(size=(d,))
    gain, shift = rng.normal(size=(b, 1, d)), rng.normal(size=(b, 1, d))
    assert_bitwise(layer_norm, chain_layer_norm, [x], rng)
    assert_bitwise(layer_norm, chain_layer_norm, [x, gamma, beta], rng)
    assert_bitwise(layer_norm, chain_layer_norm, [x, gain, shift], rng)
    assert_bitwise(layer_norm, chain_layer_norm, [x, gamma], rng)
    assert_bitwise(lambda x, s: layer_norm(x, None, s),
                   lambda x, s: chain_layer_norm(x, None, s),
                   [x, shift], rng)


@pytest.mark.parametrize("b,n,hd", SHAPES)
def test_head_split_node_is_the_chain_bitwise(b, n, hd):
    rng = np.random.default_rng(b * 1000 + n * 10 + hd)
    d = HEADS * hd
    x = rng.normal(size=(b, n, d))
    w = rng.normal(size=(d, d)) / np.sqrt(d)
    # the keys' gradient arrives transposed from the scores
    for view in (None, lambda g: np.swapaxes(
            np.ascontiguousarray(np.swapaxes(g, 2, 3)), 2, 3)):
        assert_bitwise(lambda x, w: layers._split_heads(x, w, HEADS),
                       lambda x, w: chain_split_heads(x, w, HEADS),
                       [x, w], rng, view)


@pytest.mark.parametrize("b,n,hd", SHAPES)
def test_scores_node_is_the_chain_bitwise(b, n, hd):
    rng = np.random.default_rng(b * 1000 + n * 10 + hd)
    q = _heads_view(rng.normal(size=(b, n, HEADS * hd)), HEADS)
    k = _heads_view(rng.normal(size=(b, n, HEADS * hd)), HEADS)
    padded = np.where(_pad_mask(rng, b, n), 0.0, NEG_INF)[:, None, None, :]
    for bias in (None, padded):
        assert_bitwise(lambda q, k: layers._scores(q, k, bias),
                       lambda q, k: chain_scores(q, k, bias), [q, k], rng)


@pytest.mark.parametrize("b,n,hd", SHAPES)
def test_token_softmax_node_is_the_chain_bitwise(b, n, hd):
    rng = np.random.default_rng(b * 1000 + n * 10 + hd)
    scores = rng.normal(size=(b, HEADS, n, n)) * np.sqrt(hd)
    padded = scores + np.where(_pad_mask(rng, b, n), 0.0,
                               NEG_INF)[:, None, None, :]
    for s in (scores, padded):
        assert_bitwise(layers._token_softmax, chain_token_softmax, [s], rng)


@pytest.mark.parametrize("b,n,hd", SHAPES)
def test_head_merge_node_is_the_chain_bitwise(b, n, hd):
    rng = np.random.default_rng(b * 1000 + n * 10 + hd)
    heads = rng.normal(size=(b, HEADS, n, hd))
    wo = rng.normal(size=(HEADS * hd, HEADS * hd)) / np.sqrt(hd)
    assert_bitwise(layers._merge_heads, chain_merge_heads, [heads, wo], rng)


def _always_masked_block(x, params, prefix, n_heads, pad_mask=None,
                         cond=None):
    """attention_block as the chain of layer nodes, without its all-true
    shortcut: every mask is applied as a key bias and as multiplies. The
    layers are looked up on `layers`, so `_use_chains` reaches them."""

    def norm(t, which):
        if cond is not None:
            return layers.layer_norm(t, *cond[which])
        ln = f"{prefix}.ln{which + 1}"
        return layers.layer_norm(t, params[f"{ln}.g"] + 1.0,
                                 params[f"{ln}.b"])

    h = x + layers.mhsa(
        norm(x, 0), params[f"{prefix}.wq"], params[f"{prefix}.wk"],
        params[f"{prefix}.wv"], params[f"{prefix}.wo"], n_heads, pad_mask)
    h = h + layers.silu_mlp(
        norm(h, 1), params[f"{prefix}.ff1.w"], params[f"{prefix}.ff1.b"],
        params[f"{prefix}.ff2.w"], params[f"{prefix}.ff2.b"])
    if pad_mask is not None:
        h = h * Tensor(np.asarray(pad_mask, bool)[:, :, None].astype(float))
    return h


def chain_attention_block(x, params, prefix, n_heads, pad_mask=None,
                          cond=None):
    if pad_mask is not None and np.all(pad_mask):
        pad_mask = None
    return _always_masked_block(x, params, prefix, n_heads, pad_mask, cond)


BLOCK_WEIGHTS = ("wq", "wk", "wv", "wo", "ff1.w", "ff1.b", "ff2.w", "ff2.b")


def _block_patterns(n_parents: int) -> list[list[bool]]:
    """All parents on, x off, and each parent on alone."""
    return ([[True] * n_parents, [False] + [True] * (n_parents - 1)]
            + [[i == j for j in range(n_parents)] for i in range(n_parents)])


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("b,n,hd", SHAPES)
def test_attention_block_node_is_the_chain_bitwise(b, n, hd, adaptive):
    rng = np.random.default_rng(b * 1000 + n * 10 + hd + adaptive)
    d = HEADS * hd
    arrays = {"x": rng.normal(size=(b, n, d))}
    for name in BLOCK_WEIGHTS:
        shape = _block_layout(d, False)[f"blk.{name}"]
        scale = 1 / np.sqrt(shape[0]) if len(shape) == 2 else 0.3
        arrays[name] = rng.normal(size=shape) * scale
    # plain: gain offsets and shifts (D,); adaptive: gains and shifts
    # (B, 1, D), as block_modulations hands them on
    norm_shape = (b, 1, d) if adaptive else (d,)
    for ln in ("ln1", "ln2"):
        arrays[f"{ln}.g"] = adaptive + 0.3 * rng.normal(size=norm_shape)
        arrays[f"{ln}.b"] = 0.3 * rng.normal(size=norm_shape)
    names = list(arrays)
    padded = _pad_mask(rng, b, n)
    padded[-1, -1] = n == 1      # at least one padded token when n > 1

    def run(block, mask):
        def fn(*tensors):
            t = dict(zip(names, tensors))
            cond = (((t["ln1.g"], t["ln1.b"]), (t["ln2.g"], t["ln2.b"]))
                    if adaptive else None)
            return block(t["x"], {f"blk.{k}": v for k, v in t.items()},
                         "blk", HEADS, mask, cond)
        return fn

    for mask in (None, padded):
        assert_bitwise(run(attention_block, mask),
                       run(chain_attention_block, mask),
                       list(arrays.values()), rng,
                       patterns=_block_patterns(len(names)))


@pytest.mark.parametrize("adaptive", [False, True])
def test_attention_block_permutation_equivariance_bitwise(adaptive):
    # head dim 4, token counts on both sides of the three-addend path
    rng = np.random.default_rng(15)
    d, heads = 16, 4
    store = _block_store(d, adaptive, rng)
    for n in range(2, 10):
        x = rng.normal(size=(2, n, d))
        padded = np.ones((2, n), dtype=bool)
        padded[1, n // 2:] = False
        cond = (block_modulations(Tensor(rng.normal(size=(2, d))), store,
                                  "blk") if adaptive else None)
        for mask in (None, padded):
            out = attention_block(Tensor(x), store, "blk", heads, mask,
                                  cond).data
            for _ in range(5):
                perm = rng.permutation(n)
                out_p = attention_block(
                    Tensor(x[:, perm]), store, "blk", heads,
                    None if mask is None else mask[:, perm], cond).data
                assert out_p.tobytes() == out[:, perm].tobytes(), n


def _use_chains(monkeypatch):
    """Route every fused layer back through its chain of elementary ops."""
    for module, name, chain in (
            (autoencoder, "attention_block", chain_attention_block),
            (flowmatch, "attention_block", chain_attention_block),
            (layers, "linear", chain_linear),
            (layers, "layer_norm", chain_layer_norm),
            (layers, "_split_heads", chain_split_heads),
            (layers, "_scores", chain_scores),
            (layers, "_token_softmax", chain_token_softmax),
            (layers, "_merge_heads", chain_merge_heads),
            (autoencoder, "linear", chain_linear),
            (flowmatch, "linear", chain_linear),
            (flowmatch, "layer_norm", chain_layer_norm)):
        monkeypatch.setattr(module, name, chain)


def test_desk_training_is_the_chain_training_bitwise(catalog, monkeypatch):
    rng = np.random.default_rng(5)
    asus = [random_asu(catalog, g, rng, max_sites=3)
            for g in (1, 2, 14, 62, 139, 166, 194, 221, 225, 227)]

    def train():
        ae = autoencoder.Autoencoder(
            autoencoder.AEConfig.desk(batch_size=8), catalog)
        for step in range(1, 4):
            autoencoder.ae_train_step(ae, asus, step)
        den = flowmatch.Denoiser(flowmatch.DenoiserConfig.desk())
        latents = ae.encode_dataset(asus)
        groups = np.array([a.spacegroup for a in asus])
        z1, mask = flowmatch._pad_latents(latents, ae.config.d_latent)
        step_rng = np.random.default_rng(3)
        losses = [flowmatch.train_step(den, z1, groups, mask, step_rng)
                  for _ in range(3)]
        return ([p.data.tobytes() for p in ae.store.params.values()]
                + [p.data.tobytes() for p in den.store.params.values()]
                + [np.array(losses).tobytes()])

    fused = train()
    with monkeypatch.context() as m:
        _use_chains(m)
        chained = train()
    assert fused == chained


# ---------------------------------------------------------------------------
# a mask with no padded token is no mask
# ---------------------------------------------------------------------------


def _grads_bytes(tensors):
    return [t.grad.tobytes() for t in tensors]


@pytest.mark.parametrize("hd", [4, 32, 33])
def test_all_true_mask_is_no_mask_in_mhsa(hd):
    rng = np.random.default_rng(hd)
    d = HEADS * hd
    x_data = rng.normal(size=(2, 5, d))
    w_data = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(4)]
    results = []
    for mask in (None, np.ones((2, 5), dtype=bool)):
        x = Tensor(x_data, requires_grad=True)
        ws = [Tensor(w, requires_grad=True) for w in w_data]
        out = mhsa(x, *ws, HEADS, mask)
        (out * out).sum().backward()
        results.append([out.data.tobytes()] + _grads_bytes([x] + ws))
    assert results[0] == results[1]


def _block_store(d, adaptive, rng):
    store = ParameterStore(seed=3)
    add_attention_block(store, "blk", d, adaptive=adaptive)
    for p in store.params.values():
        p.data[...] = rng.normal(size=p.shape) * 0.3
    return store


@pytest.mark.parametrize("adaptive", [False, True])
def test_all_true_mask_is_no_mask_in_attention_block(adaptive):
    rng = np.random.default_rng(11)
    d = 8
    store = _block_store(d, adaptive, rng)
    x_data, c_data = rng.normal(size=(3, 4, d)), rng.normal(size=(3, d))
    results = []
    for block, mask in ((attention_block, None),
                        (attention_block, np.ones((3, 4), dtype=bool)),
                        (_always_masked_block, np.ones((3, 4), dtype=bool))):
        store.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        cond = Tensor(c_data, requires_grad=True)
        mods = block_modulations(cond, store, "blk") if adaptive else None
        out = block(x, store, "blk", HEADS, mask, mods)
        (out * out).sum().backward()
        tensors = [x] + list(store.params.values())
        results.append([out.data.tobytes()] + _grads_bytes(
            tensors + [cond] if adaptive else tensors))
    assert results[0] == results[1] == results[2]


def _desk_denoiser_inputs(rows, n, rng):
    den = flowmatch.Denoiser(flowmatch.DenoiserConfig.desk())
    for p in den.store.params.values():
        p.data[...] += rng.normal(size=p.shape) * 0.05
    z = rng.normal(size=(rows, n, den.config.d_latent))
    prev = rng.normal(size=z.shape)
    cond_idx = np.arange(rows) % 3
    return den, z, prev, cond_idx


def test_all_true_mask_is_no_mask_in_denoiser_forward(monkeypatch):
    rng = np.random.default_rng(12)
    den, z, prev, cond_idx = _desk_denoiser_inputs(2, 3, rng)
    mask = np.ones((2, 3), dtype=bool)

    def run():
        den.store.zero_grad()
        z_t = Tensor(z, requires_grad=True)
        self_cond = Tensor(prev, requires_grad=True)
        cond = den.condition(np.array([0.3, 0.7]), cond_idx)
        out = den.forward(z_t, cond, mask, self_cond)
        (out * out).sum().backward()
        return [out.data.tobytes()] + _grads_bytes(
            [z_t, self_cond] + list(den.store.params.values()))

    shortcut = run()
    with monkeypatch.context() as m:
        m.setattr(flowmatch, "attention_block", _always_masked_block)
        forward = flowmatch.Denoiser.forward
        m.setattr(flowmatch.Denoiser, "forward",
                  lambda self, z_t, cond, mask, sc=None: forward(
                      self, z_t, cond, mask, sc)
                  * Tensor(mask[:, :, None].astype(float)))
        masked = run()
    assert shortcut == masked


@pytest.mark.parametrize("padded", [False, True])
def test_desk_denoiser_forward_builds_few_tape_nodes(padded, monkeypatch):
    rng = np.random.default_rng(13)
    den, z, prev, cond_idx = _desk_denoiser_inputs(2, 3, rng)
    mask = np.ones((2, 3), dtype=bool)
    mask[1, 2] = not padded
    cond = den.condition(np.array([0.2, 0.4]), cond_idx)
    made = []
    make = Tensor._make

    def counting(data, parents, backward):
        made.append(1)
        return make(data, parents, backward)

    monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
    with no_grad():
        den.forward(Tensor(z), cond, mask, Tensor(prev))
    # concat, input map, one per block, the output norm's gain + 1, the
    # output norm and map, and the mask when padded
    assert den.config.n_layers == 2
    assert len(made) == (8 if padded else 7)


# ---------------------------------------------------------------------------
# known defect: bitwise permutation equivariance at wide heads
# ---------------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "the BLAS q k^T product orders each head-dim sum by token position "
    "at head dims >= 32; the fix changes last bits of training"))
@pytest.mark.parametrize("hd", [32, 64, 33])
def test_mhsa_permutation_equivariance_bitwise_wide_heads(hd):
    # 27 tokens: at 8 or 12 tokens the product happened to keep the order
    rng = np.random.default_rng(hd)
    d, n = HEADS * hd, 27
    x = rng.normal(size=(1, n, d))
    ws = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
    base = mhsa(Tensor(x), *ws, HEADS).data
    for _ in range(10):
        perm = rng.permutation(n)
        assert np.array_equal(mhsa(Tensor(x[:, perm]), *ws, HEADS).data,
                              base[:, perm])
