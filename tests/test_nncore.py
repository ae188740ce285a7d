import numpy as np
import pytest

from symadit.nncore import (
    CheckpointError,
    ParameterStore,
    Tensor,
    adaln,
    adam_step,
    add_attention_block,
    attention_block,
    block_modulations,
    cross_entropy,
    embedding,
    layer_norm,
    linear,
    mhsa,
    run_steps,
    silu_mlp,
)
from symadit.nncore.layers import token_sum


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
    frozen = w.detach()
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
    assert np.allclose(out.data, direct, atol=1e-12)


def test_mhsa_permutation_equivariance_bitwise(rng):
    d, heads, n = 16, 4, 6
    x = rng.normal(size=(1, n, d))
    ws = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
    out = mhsa(Tensor(x), *ws, heads).data
    for trial in range(5):
        perm = rng.permutation(n)
        out_p = mhsa(Tensor(x[:, perm]), *ws, heads).data
        assert np.array_equal(out_p, out[:, perm])


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
        assert store.names() == list(layout)
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
    x = rng.normal(size=(1, 7, 5))
    base = token_sum(Tensor(x), axis=1).data
    for _ in range(5):
        perm = rng.permutation(7)
        assert np.array_equal(token_sum(Tensor(x[:, perm]), axis=1).data, base)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_zero_gradient_leaves_parameters(rng):
    store = ParameterStore(seed=0)
    p = store.add("w", (4,))
    before = p.data.copy()
    p.grad = np.zeros(4)
    adam_step(store, lr=0.1, warmup=0)
    assert np.array_equal(p.data, before)


def test_quadratic_bowl_decreases():
    store = ParameterStore(seed=1)
    p = store.add("w", (3,))
    p.data = np.array([5.0, -4.0, 3.0])
    start = float(np.sum(p.data**2))
    last = np.inf
    for _ in range(100):
        store.zero_grad()
        p.grad = 2.0 * p.data   # gradient of sum(w^2)
        adam_step(store, lr=0.05, warmup=0)
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
    assert loaded.names() == store.names()
    assert loaded.step_count == 1
    for name in store.names():
        assert np.array_equal(loaded[name].data, store[name].data)
        assert np.array_equal(loaded.moment1[name], store.moment1[name])


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
