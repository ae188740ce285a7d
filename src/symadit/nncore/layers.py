"""Layer set: embeddings, affine maps, SiLU feed-forward blocks, layer norm,
adaptive layer norm (split into the conditioning-only modulation and its
application to the activations), multi-head self-attention (no positional
signal), the pre-norm transformer block, and stable log-softmax /
cross-entropy.

Each layer is one tape node, built from a numpy forward helper
(`_<layer>_fwd`) and a backward that replays, in the same order, the numpy
operations the equivalent chain of elementary Tensor ops would run, so
values and gradients are bitwise those of that chain.

The transformer block, `attention_block`, is the composition of those
nodes: layer_norm, mhsa, the residual, layer_norm, silu_mlp, the residual
and the row mask. `block_forward` computes its output on arrays from the
same forward helpers, for the sampler's tape-free pass
(`flowmatch.FrozenTrunk`), so no formula exists twice.

Sums over tokens (attention's value sum, the softmax denominator,
`token_sum`) add their addends in value order, bitwise
np.add.reduce(np.sort(x, axis), axis), so permuting tokens cannot change
them. `_sorted_reduce` sorts only what can reorder: two addends or fewer
are summed as they come, since a + b == b + a; of three addends on any
axis but the last, two compare-exchanges move the largest to the end, and
the slices are summed in numpy's sequential order; more addends and the
last axis keep np.sort."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .params import Layout, ParameterStore
from .tensor import (Tensor, _unbroadcast, matmul_backward, matmul_grads,
                     silu_forward)

__all__ = [
    "Modulation",
    "adaln",
    "adaln_modulation",
    "add_attention_block",
    "attention_block",
    "block_forward",
    "block_modulations",
    "cross_entropy",
    "embedding",
    "layer_norm",
    "linear",
    "log_softmax",
    "mhsa",
    "silu_mlp",
]

NEG_INF = -1e30  # representable stand-in for -infinity in masked logits
LN_EPS = 1e-6    # layer-norm variance floor


def _sorted_reduce(data: np.ndarray, axis: int) -> np.ndarray:
    """Sum along axis with addends in value order: bitwise
    np.add.reduce(np.sort(data, axis), axis).

    Float addition is commutative but not associative; fixing the reduction
    order by the values themselves (not their positions) makes the result a
    function of the addend multiset, so permuting tokens cannot change it.
    Only what can reorder is sorted:

    - n <= 2 addends: the plain reduce. a + b == b + a, so any order is
      value order.
    - n == 3 on any axis but the last: value order adds the two smaller
      addends first, in either order, then the largest, so it is enough to
      move the largest to the end with the compare-exchanges (0, 2) and
      (1, 2) of np.minimum/np.maximum over the axis's slices, then sum the
      slices first to last. numpy reduces three addends in that sequence,
      after a start of +0.0 that only turns a sum of -0.0s into +0.0;
      adding +0.0 last does the same. Ties between -0.0 and +0.0 may land
      in either order; a zero changes no nonzero partial sum and two zeros
      add to -0.0 only when both are, so the bits agree.
    - More addends and the last axis keep np.sort, which sorts a contiguous
      lane fast. A network costs about 1 us per comparator whatever the
      lane count, so longer ones beat np.sort on attention's many lanes
      but lose on few, such as `token_sum` over one crystal of five
      orbits; no benchmark workload has more than three orbits to settle
      that trade.
    """
    n = data.shape[axis]
    if n <= 2:
        return np.add.reduce(data, axis=axis)
    if n > 3 or axis % data.ndim == data.ndim - 1:
        return np.add.reduce(np.sort(data, axis=axis), axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    a, b, c = (data[lead + (i,)] for i in range(3))
    a, c = np.minimum(a, c), np.maximum(a, c)
    b, c = np.minimum(b, c), np.maximum(b, c)
    total = a + b
    total += c
    total += 0.0
    return total


def token_sum(x: Tensor, axis: int) -> Tensor:
    """Order-independent sum over a token axis (bitwise permutation-safe)."""

    def backward(g):
        x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return Tensor._make(_sorted_reduce(x.data, axis), (x,), backward)


def _check_matmul(x: Tensor, w: Tensor, who: str) -> None:
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(
            f"{who}: input features {x.data.shape} incompatible with weight "
            f"{w.data.shape}")


def _data(t: Tensor | None) -> np.ndarray | None:
    return None if t is None else t.data


def embedding(table: Tensor, indices) -> Tensor:
    """Exact row selection; gradient scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"embedding index outside table of {table.shape[0]} rows")
    return table[idx]


def _linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                matmul) -> np.ndarray:
    out = matmul(x, w)
    return out if b is None else out + b


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    _check_matmul(x, weight, "linear")

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        matmul_backward(x, weight, g)

    return Tensor._make(
        _linear_fwd(x.data, weight.data, _data(bias), np.matmul),
        (x, weight) if bias is None else (x, weight, bias), backward)


def silu_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer feed-forward with SiLU between the layers."""
    return linear(linear(x, w1, b1).silu(), w2, b2)


def _layer_norm_fwd(x: np.ndarray, gamma: np.ndarray | None,
                    beta: np.ndarray | None):
    """The output, and the (normed, centered, std) its backward reads."""
    inv_n = 1.0 / x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) * inv_n
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + LN_EPS)
    normed = centered / std
    out = normed
    if gamma is not None:
        out = out * gamma
    if beta is not None:
        out = out + beta
    return out, (normed, centered, std)


def layer_norm(x: Tensor, gamma: Tensor | None = None,
               beta: Tensor | None = None) -> Tensor:
    """(x - mean) / sqrt(var + LN_EPS) over the last axis, times gamma plus
    beta. The backward keeps the gradient steps of mean, x - mu, c * c,
    mean, + eps, sqrt, divide, * gamma and + beta apart, in reverse."""
    out, (normed, centered, std) = _layer_norm_fwd(x.data, _data(gamma),
                                                   _data(beta))
    inv_n = 1.0 / centered.shape[-1]

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
        g_mu = -_unbroadcast(g_centered, std.shape)
        # two accumulations, as the chain made: summing the two terms
        # first rounds differently once x already holds a gradient
        x._accumulate(g_centered)
        x._accumulate(np.broadcast_to(g_mu * inv_n, centered.shape).copy())

    parents = (x,) + tuple(p for p in (gamma, beta) if p is not None)
    return Tensor._make(out, parents, backward)


Modulation = tuple[Tensor, Tensor]  # adaLN (1 + scale, shift), each (B, 1, D)


def adaln_modulation(cond: Tensor, w: Tensor, b: Tensor) -> Modulation:
    """The half of adaptive layer norm that depends on the conditioning
    only: cond (B, C) maps to a gain 1 + scale and a shift, each (B, 1, D)."""
    params = linear(cond, w, b)           # (B, 2D)
    d = w.shape[-1] // 2
    scale = params[:, :d].reshape(params.shape[0], 1, d)
    shift = params[:, d:].reshape(params.shape[0], 1, d)
    return 1.0 + scale, shift


def adaln(x: Tensor, cond: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Adaptive layer norm: scale/shift of the normalized activations are
    produced from the conditioning vector. cond is (B, C); x is (B, N, D)."""
    return layer_norm(x, *adaln_modulation(cond, w, b))


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = x - Tensor(np.maximum.reduce(x.data, axis=-1, keepdims=True))
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


def _token_softmax_fwd(scores: np.ndarray):
    """The softmax, and the (e, denom) its backward reads."""
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    denom = _sorted_reduce(e, -1)[..., None]
    return e / denom, (e, denom)


def _token_softmax(scores: Tensor) -> Tensor:
    """Softmax over the key axis with an order-independent denominator."""
    out, (e, denom) = _token_softmax_fwd(scores.data)

    def backward(g):
        g_e = g / denom
        g_e += np.broadcast_to(
            _unbroadcast(-g * e / denom**2, denom.shape), e.shape)
        scores._accumulate(g_e * e)

    return Tensor._make(out, (scores,), backward)


def _attend_fwd(attn: np.ndarray, v: np.ndarray) -> np.ndarray:
    prod = attn[..., None] * v[:, :, None, :, :]  # (B, H, N, N, hd)
    return _sorted_reduce(prod, axis=3)


def _attend(attn: Tensor, v: Tensor) -> Tensor:
    """Weighted value sum over keys, reduced in value order.

    attn: (B, H, N, N); v: (B, H, N, hd). Equivalent to attn @ v up to
    summation order; the value-ordered reduction keeps the forward output
    bitwise invariant under token permutation.
    """

    def backward(g):
        if attn.requires_grad:
            attn._accumulate(np.einsum("bhid,bhjd->bhij", g, v.data))
        if v.requires_grad:
            v._accumulate(np.einsum("bhij,bhid->bhjd", attn.data, g))

    return Tensor._make(_attend_fwd(attn.data, v.data), (attn, v), backward)


def _heads(p: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, N, D) split into heads: (B, H, N, D / H)."""
    b, n, d = p.shape
    return p.reshape(b, n, n_heads, d // n_heads).swapaxes(1, 2)


def _split_heads(x: Tensor, w: Tensor, n_heads: int) -> Tensor:
    """x (B, N, D) @ w, split into heads: (B, H, N, D / H)."""
    _check_matmul(x, w, "mhsa")
    b, n, _ = x.data.shape

    def backward(g):
        matmul_backward(x, w, g.swapaxes(1, 2).reshape(b, n, w.data.shape[-1]))

    return Tensor._make(_heads(x.data @ w.data, n_heads), (x, w), backward)


def _scores_fwd(q: np.ndarray, k: np.ndarray,
                key_bias: np.ndarray | None) -> np.ndarray:
    out = (q @ k.swapaxes(2, 3)) * (1.0 / np.sqrt(q.shape[-1]))
    return out if key_bias is None else out + key_bias


def _scores(q: Tensor, k: Tensor, key_bias: np.ndarray | None) -> Tensor:
    """Scaled dot products q k^T / sqrt(hd) (B, H, N, N), plus the
    key-padding bias."""

    def backward(g):
        gq, gk = matmul_grads(q.data, k.data.swapaxes(2, 3),
                              g * (1.0 / np.sqrt(q.data.shape[-1])),
                              q.requires_grad, k.requires_grad)
        if gq is not None:
            q._accumulate(gq)
        if gk is not None:
            k._accumulate(gk.swapaxes(2, 3))

    return Tensor._make(_scores_fwd(q.data, k.data, key_bias), (q, k),
                        backward)


def _merge_heads_fwd(heads: np.ndarray, wo: np.ndarray, matmul):
    """The output, and the joined heads its backward reads."""
    b, h, n, hd = heads.shape
    flat = heads.swapaxes(1, 2).reshape(b, n, h * hd)
    return matmul(flat, wo), flat


def _merge_heads(heads: Tensor, wo: Tensor) -> Tensor:
    """Heads (B, H, N, hd) joined back to (B, N, H * hd), then @ wo."""
    out, flat = _merge_heads_fwd(heads.data, wo.data, np.matmul)

    def backward(g):
        b, h, n, hd = heads.data.shape
        g_flat, gw = matmul_grads(flat, wo.data, g,
                                  heads.requires_grad, wo.requires_grad)
        if g_flat is not None:
            heads._accumulate(g_flat.reshape(b, n, h, hd).swapaxes(1, 2))
        if gw is not None:
            wo._accumulate(gw)

    return Tensor._make(out, (heads, wo), backward)


def _padding(pad_mask) -> tuple[np.ndarray, np.ndarray]:
    """A (B, N) mask, True = real token, as the key bias (B, 1, 1, N) that
    keeps attention off padded keys and the (B, N, 1) factor that zeroes
    padded rows."""
    pm = np.asarray(pad_mask, dtype=bool)
    return (np.where(pm, 0.0, NEG_INF)[:, None, None, :],
            pm[:, :, None].astype(np.float64))


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
    if x.shape[-1] % n_heads:
        raise ValueError(f"model dim {x.shape[-1]} not divisible by "
                         f"{n_heads} heads")
    q = _split_heads(x, wq, n_heads)
    k = _split_heads(x, wk, n_heads)
    v = _split_heads(x, wv, n_heads)
    key_bias = rows = None
    if pad_mask is not None:
        key_bias, rows = _padding(pad_mask)
    attn = _token_softmax(_scores(q, k, key_bias))     # (B, H, N, N)
    out = _merge_heads(_attend(attn, v), wo)
    if rows is not None:
        out = out * Tensor(rows)
    return out


def add_attention_block(store: ParameterStore | Layout, prefix: str,
                        d_model: int, adaptive: bool = False) -> None:
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


# Inner dimensions up to which OpenBLAS (0.3.31, Haswell kernels) gives a
# product's rows the same bits whatever its row and column counts. Past
# it, a folded (B*N, K) GEMM or a packed [wq | wk | wv] product rounds
# differently from the batched products of the tape's layers at some
# shapes (K = 512 at d_model 512, for one).
SAME_BITS_MAX_K = 256


def _folded_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (B, N, K) @ w, bitwise. At N >= 2 and K <= SAME_BITS_MAX_K it runs
    as one (B*N, K) GEMM, which streams w once instead of once per row of
    B. At N = 1 numpy runs each row as a matrix-vector product, whose bits
    a GEMM does not reproduce, so the batched product stays."""
    b, n, k = x.shape
    if n < 2 or k > SAME_BITS_MAX_K:
        return x @ w
    return (x.reshape(b * n, k) @ w).reshape(b, n, w.shape[-1])


def block_forward(x: np.ndarray, norms, weights, n_heads: int,
                  key_bias: np.ndarray | None,
                  rows: np.ndarray | None) -> np.ndarray:
    """`attention_block`'s output on arrays, bitwise: x + mhsa(norm1(x)),
    then h + silu_mlp(norm2(h)), then the row mask.

    norms holds (gamma1, shift1, gamma2, shift2); weights holds (wqkv, wo,
    ff1.w, ff1.b, ff2.w, ff2.b), where wqkv is (wq, wk, wv) or the one
    packed (D, 3D) matrix [wq | wk | wv]. key_bias and rows are
    `_padding`'s, or None. Every product of activations and a weight runs
    as `_folded_matmul`.
    """
    gamma1, shift1, gamma2, shift2 = norms
    wqkv, wo, w1, b1, w2, b2 = weights
    d = x.shape[-1]
    n1 = _layer_norm_fwd(x, gamma1, shift1)[0]
    q, k, v = [_heads(p[..., i:i + d], n_heads)
               for p in (_folded_matmul(n1, w) for w in wqkv)
               for i in range(0, p.shape[-1], d)]
    attn = _token_softmax_fwd(_scores_fwd(q, k, key_bias))[0]
    m = _merge_heads_fwd(_attend_fwd(attn, v), wo, _folded_matmul)[0]
    h = x + (m if rows is None else m * rows)
    n2 = _layer_norm_fwd(h, gamma2, shift2)[0]
    s = silu_forward(_linear_fwd(n2, w1, b1, _folded_matmul))[0]
    h = h + _linear_fwd(s, w2, b2, _folded_matmul)
    return h if rows is None else h * rows


def attention_block(
    x: Tensor,
    params: Mapping[str, Tensor],
    prefix: str,
    n_heads: int,
    pad_mask=None,
    cond: tuple[Modulation, Modulation] | None = None,
) -> Tensor:
    """Pre-norm transformer block: x + mhsa(norm1(x)), then
    h + silu_mlp(norm2(h)), then the row mask; with cond, the norms become
    adaptive.

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
            return layer_norm(t, *cond[which])
        ln = f"{prefix}.ln{which + 1}"
        return layer_norm(t, params[f"{ln}.g"] + 1.0, params[f"{ln}.b"])

    h = x + mhsa(norm(x, 0), *[params[f"{prefix}.{name}"] for name in (
        "wq", "wk", "wv", "wo")], n_heads, pad_mask)
    h = h + silu_mlp(norm(h, 1), *[params[f"{prefix}.{name}"] for name in (
        "ff1.w", "ff1.b", "ff2.w", "ff2.b")])
    return h if pad_mask is None else h * Tensor(_padding(pad_mask)[1])
