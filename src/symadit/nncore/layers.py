"""Layer set: embeddings, affine maps, SiLU feed-forward blocks, layer norm,
adaptive layer norm (split into the conditioning-only modulation and its
application to the activations), multi-head self-attention (no positional
signal), the pre-norm transformer block, and stable log-softmax /
cross-entropy.

Each layer is one tape node. Its backward replays, in the same order, the
numpy operations the equivalent chain of elementary Tensor ops would run,
so values and gradients are bitwise those of that chain."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .params import ParameterStore
from .tensor import Tensor, _unbroadcast, matmul_backward, matmul_grads

__all__ = [
    "Modulation",
    "adaln",
    "adaln_modulation",
    "add_attention_block",
    "attention_block",
    "block_modulations",
    "cross_entropy",
    "embedding",
    "layer_norm",
    "linear",
    "log_softmax",
    "mhsa",
    "modulate",
    "silu_mlp",
]

NEG_INF = -1e30  # representable stand-in for -infinity in masked logits
LN_EPS = 1e-6    # layer-norm variance floor


def _sorted_reduce(data: np.ndarray, axis: int) -> np.ndarray:
    """Sum along axis with addends in value order.

    Float addition is commutative but not associative; fixing the reduction
    order by the values themselves (not their positions) makes the result a
    function of the addend multiset, so permuting tokens cannot change it.
    """
    ordered = np.sort(data, axis=axis)
    return np.add.reduce(ordered, axis=axis)


def token_sum(x: Tensor, axis: int) -> Tensor:
    """Order-independent sum over a token axis (bitwise permutation-safe)."""

    def backward(g):
        x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return Tensor._make(_sorted_reduce(x.data, axis), (x,), backward)


def _check_matmul(x: Tensor, w: Tensor, who: str) -> None:
    if x.shape[-1] != w.shape[0]:
        raise ValueError(
            f"{who}: input features {x.shape} incompatible with weight "
            f"{w.shape}")


def embedding(table: Tensor, indices) -> Tensor:
    """Exact row selection; gradient scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding index outside table of {table.shape[0]} rows")
    return table[idx]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    _check_matmul(x, weight, "linear")
    out = x.data @ weight.data
    if bias is None:
        parents = (x, weight)
    else:
        out = out + bias.data
        parents = (x, weight, bias)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        matmul_backward(x, weight, g)

    return Tensor._make(out, parents, backward)


def silu_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer feed-forward with SiLU between the layers."""
    return linear(linear(x, w1, b1).silu(), w2, b2)


def layer_norm(x: Tensor, gamma: Tensor | None = None,
               beta: Tensor | None = None) -> Tensor:
    """(x - mean) / sqrt(var + LN_EPS) over the last axis, times gamma plus
    beta. The backward keeps the gradient steps of mean, x - mu, c * c,
    mean, + eps, sqrt, divide, * gamma and + beta apart, in reverse."""
    inv_n = 1.0 / x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * inv_n
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + LN_EPS)
    normed = centered / std
    out = normed
    parents = [x]
    if gamma is not None:
        out = out * gamma.data
        parents.append(gamma)
    if beta is not None:
        out = out + beta.data
        parents.append(beta)

    def backward(g):
        if beta is not None and beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if gamma is not None:
            if gamma.requires_grad:
                gamma._accumulate(_unbroadcast(g * normed, gamma.shape))
            g = _unbroadcast(g * gamma.data, normed.shape)
        if not x.requires_grad:
            return
        g_centered = g / std
        g_std = _unbroadcast(-g * centered / std**2, std.shape)
        g_sq = np.broadcast_to((g_std * 0.5 / std) * inv_n, centered.shape)
        g_sq_c = g_sq * centered          # once for each factor of c * c
        g_centered += g_sq_c
        g_centered += g_sq_c
        g_mu = -_unbroadcast(g_centered, mu.shape)
        # two accumulations, as the chain made: summing the two terms
        # first rounds differently once x already holds a gradient
        x._accumulate(g_centered)
        x._accumulate(np.broadcast_to(g_mu * inv_n, x.shape).copy())

    return Tensor._make(out, tuple(parents), backward)


Modulation = tuple[Tensor, Tensor]  # adaLN (1 + scale, shift), each (B, 1, D)


def adaln_modulation(cond: Tensor, w: Tensor, b: Tensor) -> Modulation:
    """The half of adaptive layer norm that depends on the conditioning
    only: cond (B, C) maps to a gain 1 + scale and a shift, each (B, 1, D)."""
    params = linear(cond, w, b)           # (B, 2D)
    d = w.shape[-1] // 2
    scale = params[:, :d].reshape(params.shape[0], 1, d)
    shift = params[:, d:].reshape(params.shape[0], 1, d)
    return 1.0 + scale, shift


def modulate(x: Tensor, modulation: Modulation) -> Tensor:
    """The half of adaptive layer norm that reads the activations
    x (B, N, D)."""
    gain, shift = modulation
    return layer_norm(x, gain, shift)


def adaln(x: Tensor, cond: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Adaptive layer norm: scale/shift of the normalized activations are
    produced from the conditioning vector. cond is (B, C); x is (B, N, D)."""
    return modulate(x, adaln_modulation(cond, w, b))


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = x - Tensor(np.max(x.data, axis=-1, keepdims=True))
    return shifted - shifted.exp().sum(axis=-1, keepdims=True).log()


def cross_entropy(logits: Tensor, targets, valid_mask) -> Tensor:
    """Mean negative log-likelihood over valid rows.

    logits: (..., K); targets: integer array (...); valid_mask: boolean
    array (...) excluding padded rows from the mean.
    """
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits)
    flat = logp.reshape(-1, logits.shape[-1])
    rows = np.arange(flat.shape[0])
    picked = flat[rows, targets.reshape(-1)]
    weights = np.asarray(valid_mask, dtype=np.float64).reshape(-1)
    total = weights.sum()
    if total == 0:
        raise ValueError("cross_entropy: empty valid mask")
    return -(picked * Tensor(weights)).sum() / total


def _token_softmax(scores: Tensor) -> Tensor:
    """Softmax over the key axis with an order-independent denominator."""
    e = np.exp(scores.data - np.max(scores.data, axis=-1, keepdims=True))
    denom = _sorted_reduce(e, -1)[..., None]

    def backward(g):
        g_e = g / denom
        g_e += np.broadcast_to(
            _unbroadcast(-g * e / denom**2, denom.shape), e.shape)
        scores._accumulate(g_e * e)

    return Tensor._make(e / denom, (scores,), backward)


def _attend(attn: Tensor, v: Tensor) -> Tensor:
    """Weighted value sum over keys, reduced in value order.

    attn: (B, H, N, N); v: (B, H, N, hd). Equivalent to attn @ v up to
    summation order; the value-ordered reduction keeps the forward output
    bitwise invariant under token permutation.
    """
    prod = attn.data[..., None] * v.data[:, :, None, :, :]  # (B,H,N,N,hd)
    out_data = _sorted_reduce(prod, axis=3)

    def backward(g):
        if attn.requires_grad:
            attn._accumulate(np.einsum("bhid,bhjd->bhij", g, v.data))
        if v.requires_grad:
            v._accumulate(np.einsum("bhij,bhid->bhjd", attn.data, g))

    return Tensor._make(out_data, (attn, v), backward)


def _split_heads(x: Tensor, w: Tensor, n_heads: int) -> Tensor:
    """x (B, N, D) @ w, split into heads: (B, H, N, D / H)."""
    _check_matmul(x, w, "mhsa")
    b, n, _ = x.shape
    d = w.shape[-1]
    flat = x.data @ w.data

    def backward(g):
        matmul_backward(x, w, np.swapaxes(g, 1, 2).reshape(b, n, d))

    heads = np.swapaxes(flat.reshape(b, n, n_heads, d // n_heads), 1, 2)
    return Tensor._make(heads, (x, w), backward)


def _scores(q: Tensor, k: Tensor, key_bias: np.ndarray | None) -> Tensor:
    """Scaled dot products q k^T / sqrt(hd) (B, H, N, N), plus the
    key-padding bias."""
    k_t = np.swapaxes(k.data, 2, 3)
    scale = 1.0 / np.sqrt(q.shape[-1])
    out = (q.data @ k_t) * scale
    if key_bias is not None:
        out = out + key_bias

    def backward(g):
        gq, gk = matmul_grads(q.data, k_t, g * scale,
                              q.requires_grad, k.requires_grad)
        if gq is not None:
            q._accumulate(gq)
        if gk is not None:
            k._accumulate(np.swapaxes(gk, 2, 3))

    return Tensor._make(out, (q, k), backward)


def _merge_heads(heads: Tensor, wo: Tensor) -> Tensor:
    """Heads (B, H, N, hd) joined back to (B, N, H * hd), then @ wo."""
    b, h, n, hd = heads.shape
    flat = np.swapaxes(heads.data, 1, 2).reshape(b, n, h * hd)

    def backward(g):
        g_flat, gw = matmul_grads(flat, wo.data, g,
                                  heads.requires_grad, wo.requires_grad)
        if g_flat is not None:
            heads._accumulate(
                np.swapaxes(g_flat.reshape(b, n, h, hd), 1, 2))
        if gw is not None:
            wo._accumulate(gw)

    return Tensor._make(flat @ wo.data, (heads, wo), backward)


def mhsa(
    x: Tensor,
    wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
    n_heads: int,
    pad_mask=None,
) -> Tensor:
    """Multi-head self-attention over a token set (no positional input).

    x: (B, N, D); pad_mask: optional (B, N) boolean, True = real token.
    Padded keys receive no attention mass; padded query rows are zeroed.
    The softmax and value reductions over the token axis are
    order-independent, so permuting input tokens permutes the output
    bitwise at head dim 4; at head dims of 32 and more the BLAS q k^T
    product can break that (a known defect).
    """
    d = x.shape[-1]
    if d % n_heads:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
    q = _split_heads(x, wq, n_heads)
    k = _split_heads(x, wk, n_heads)
    v = _split_heads(x, wv, n_heads)
    key_bias = None
    if pad_mask is not None:
        pm = np.asarray(pad_mask, dtype=bool)
        key_bias = np.where(pm, 0.0, NEG_INF)[:, None, None, :]
    attn = _token_softmax(_scores(q, k, key_bias))     # (B, H, N, N)
    out = _merge_heads(_attend(attn, v), wo)
    if pad_mask is not None:
        out = out * Tensor(pm[:, :, None].astype(np.float64))
    return out


def add_attention_block(store: ParameterStore, prefix: str, d_model: int,
                        adaptive: bool = False) -> None:
    """Register the parameters attention_block reads under `prefix`.

    Norm parameters start at zero and draw no random numbers. A plain gain
    is stored as an offset from 1 and an adaptive norm's scale/shift map
    outputs zero, so either kind starts as plain layer_norm.
    """
    dm = d_model
    for name in ("wq", "wk", "wv", "wo"):
        store.add(f"{prefix}.{name}", (dm, dm))
    norm = ((("w", (dm, 2 * dm)), ("b", (2 * dm,))) if adaptive
            else (("g", (dm,)), ("b", (dm,))))
    for ln in ("ln1", "ln2"):
        for name, shape in norm:
            store.add(f"{prefix}.{ln}.{name}", shape, scale=0.0)
    store.add(f"{prefix}.ff1.w", (dm, 2 * dm))
    store.add(f"{prefix}.ff1.b", (2 * dm,), scale=0.0)
    store.add(f"{prefix}.ff2.w", (2 * dm, dm))
    store.add(f"{prefix}.ff2.b", (dm,), scale=0.0)


def block_modulations(cond: Tensor, params: Mapping[str, Tensor],
                      prefix: str) -> tuple[Modulation, Modulation]:
    """The ln1 and ln2 modulations of the adaptive block under `prefix`,
    from the conditioning vectors cond (B, C)."""
    return tuple(adaln_modulation(cond, params[f"{prefix}.{ln}.w"],
                                  params[f"{prefix}.{ln}.b"])
                 for ln in ("ln1", "ln2"))


def attention_block(
    x: Tensor,
    params: Mapping[str, Tensor],
    prefix: str,
    n_heads: int,
    pad_mask=None,
    cond: tuple[Modulation, Modulation] | None = None,
) -> Tensor:
    """Pre-norm transformer block; with cond, the norms become adaptive.

    params maps names under `prefix` (e.g. a ParameterStore). A plain
    layer-norm gain is stored as an offset from 1, so zero-initialised
    gains start as the identity. cond holds the block's precomputed ln1
    and ln2 modulations (see `block_modulations`). A mask with no padded
    token is no mask: multiplying by 1 and adding a 0 bias change no bit.
    """
    if pad_mask is not None and np.all(pad_mask):
        pad_mask = None

    def norm(t: Tensor, which: int) -> Tensor:
        if cond is not None:
            return modulate(t, cond[which])
        ln = f"{prefix}.ln{which + 1}"
        return layer_norm(t, params[f"{ln}.g"] + 1.0, params[f"{ln}.b"])

    h = x + mhsa(
        norm(x, 0),
        params[f"{prefix}.wq"], params[f"{prefix}.wk"],
        params[f"{prefix}.wv"], params[f"{prefix}.wo"],
        n_heads, pad_mask)
    h = h + silu_mlp(
        norm(h, 1),
        params[f"{prefix}.ff1.w"], params[f"{prefix}.ff1.b"],
        params[f"{prefix}.ff2.w"], params[f"{prefix}.ff2.b"])
    if pad_mask is not None:
        h = h * Tensor(np.asarray(pad_mask, bool)[:, :, None].astype(float))
    return h
