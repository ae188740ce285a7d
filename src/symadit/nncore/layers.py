"""Layer set: embeddings, affine maps, SiLU feed-forward blocks, layer norm,
adaptive layer norm (split into the conditioning-only modulation and its
application to the activations), multi-head self-attention (no positional
signal), the pre-norm transformer block, and stable log-softmax /
cross-entropy.

Each layer is one tape node, built from a numpy forward helper
(`_<layer>_fwd`) and a backward helper (`_<layer>_bwd`). The backward
replays, in the same order, the numpy operations the equivalent chain of
elementary Tensor ops would run, so values and gradients are bitwise those
of that chain.

The transformer block is one tape node as well. Its forward,
`block_forward`, runs the layers' forward helpers straight through on
arrays; the sampler's tape-free pass (`flowmatch.FrozenTrunk`) runs the
same function. Its backward rebuilds the chain of layer nodes around the
saved results (`_node`) and runs their backward helpers in the order the
tape would (`_replay`), so values and gradients are bitwise those of the
chain of layer nodes, and no formula exists twice.

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
from .tensor import (Tensor, _unbroadcast, add_backward, matmul_backward,
                     matmul_grads, mul_backward, silu_forward, silu_grad)

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


def _linear_bwd(x: Tensor, w: Tensor, b: Tensor | None, g: np.ndarray) -> None:
    if b is not None and b.requires_grad:
        b._accumulate(_unbroadcast(g, b.shape))
    matmul_backward(x, w, g)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    _check_matmul(x, weight, "linear")
    return Tensor._make(
        _linear_fwd(x.data, weight.data, _data(bias), np.matmul),
        (x, weight) if bias is None else (x, weight, bias),
        lambda g: _linear_bwd(x, weight, bias, g))


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


def _layer_norm_bwd(x: Tensor, gamma: Tensor | None, beta: Tensor | None,
                    saved, g: np.ndarray) -> None:
    """Keeps the gradient steps of mean, x - mu, c * c, mean, + eps, sqrt,
    divide, * gamma and + beta apart, in reverse."""
    normed, centered, std = saved
    inv_n = 1.0 / centered.shape[-1]
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


def layer_norm(x: Tensor, gamma: Tensor | None = None,
               beta: Tensor | None = None) -> Tensor:
    """(x - mean) / sqrt(var + LN_EPS) over the last axis, times gamma plus
    beta."""
    out, saved = _layer_norm_fwd(x.data, _data(gamma), _data(beta))
    parents = (x,) + tuple(p for p in (gamma, beta) if p is not None)
    return Tensor._make(out, parents,
                        lambda g: _layer_norm_bwd(x, gamma, beta, saved, g))


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


def _token_softmax_bwd(scores: Tensor, saved, g: np.ndarray) -> None:
    e, denom = saved
    g_e = g / denom
    g_e += np.broadcast_to(
        _unbroadcast(-g * e / denom**2, denom.shape), e.shape)
    scores._accumulate(g_e * e)


def _token_softmax(scores: Tensor) -> Tensor:
    """Softmax over the key axis with an order-independent denominator."""
    out, saved = _token_softmax_fwd(scores.data)
    return Tensor._make(out, (scores,),
                        lambda g: _token_softmax_bwd(scores, saved, g))


def _attend_fwd(attn: np.ndarray, v: np.ndarray) -> np.ndarray:
    prod = attn[..., None] * v[:, :, None, :, :]  # (B, H, N, N, hd)
    return _sorted_reduce(prod, axis=3)


def _attend_bwd(attn: Tensor, v: Tensor, g: np.ndarray) -> None:
    if attn.requires_grad:
        attn._accumulate(np.einsum("bhid,bhjd->bhij", g, v.data))
    if v.requires_grad:
        v._accumulate(np.einsum("bhij,bhid->bhjd", attn.data, g))


def _attend(attn: Tensor, v: Tensor) -> Tensor:
    """Weighted value sum over keys, reduced in value order.

    attn: (B, H, N, N); v: (B, H, N, hd). Equivalent to attn @ v up to
    summation order; the value-ordered reduction keeps the forward output
    bitwise invariant under token permutation.
    """
    return Tensor._make(_attend_fwd(attn.data, v.data), (attn, v),
                        lambda g: _attend_bwd(attn, v, g))


def _heads(p: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, N, D) split into heads: (B, H, N, D / H)."""
    b, n, d = p.shape
    return p.reshape(b, n, n_heads, d // n_heads).swapaxes(1, 2)


def _split_heads_bwd(x: Tensor, w: Tensor, g: np.ndarray) -> None:
    b, n, _ = x.data.shape
    matmul_backward(x, w, g.swapaxes(1, 2).reshape(b, n, w.data.shape[-1]))


def _split_heads(x: Tensor, w: Tensor, n_heads: int) -> Tensor:
    """x (B, N, D) @ w, split into heads: (B, H, N, D / H)."""
    _check_matmul(x, w, "mhsa")
    return Tensor._make(_heads(x.data @ w.data, n_heads), (x, w),
                        lambda g: _split_heads_bwd(x, w, g))


def _scores_fwd(q: np.ndarray, k: np.ndarray,
                key_bias: np.ndarray | None) -> np.ndarray:
    out = (q @ k.swapaxes(2, 3)) * (1.0 / np.sqrt(q.shape[-1]))
    return out if key_bias is None else out + key_bias


def _scores_bwd(q: Tensor, k: Tensor, g: np.ndarray) -> None:
    gq, gk = matmul_grads(q.data, k.data.swapaxes(2, 3),
                          g * (1.0 / np.sqrt(q.data.shape[-1])),
                          q.requires_grad, k.requires_grad)
    if gq is not None:
        q._accumulate(gq)
    if gk is not None:
        k._accumulate(gk.swapaxes(2, 3))


def _scores(q: Tensor, k: Tensor, key_bias: np.ndarray | None) -> Tensor:
    """Scaled dot products q k^T / sqrt(hd) (B, H, N, N), plus the
    key-padding bias."""
    return Tensor._make(_scores_fwd(q.data, k.data, key_bias), (q, k),
                        lambda g: _scores_bwd(q, k, g))


def _merge_heads_fwd(heads: np.ndarray, wo: np.ndarray, matmul):
    """The output, and the joined heads its backward reads."""
    b, h, n, hd = heads.shape
    flat = heads.swapaxes(1, 2).reshape(b, n, h * hd)
    return matmul(flat, wo), flat


def _merge_heads_bwd(heads: Tensor, wo: Tensor, flat: np.ndarray,
                     g: np.ndarray) -> None:
    b, h, n, hd = heads.data.shape
    g_flat, gw = matmul_grads(flat, wo.data, g,
                              heads.requires_grad, wo.requires_grad)
    if g_flat is not None:
        heads._accumulate(g_flat.reshape(b, n, h, hd).swapaxes(1, 2))
    if gw is not None:
        wo._accumulate(gw)


def _merge_heads(heads: Tensor, wo: Tensor) -> Tensor:
    """Heads (B, H, N, hd) joined back to (B, N, H * hd), then @ wo."""
    out, flat = _merge_heads_fwd(heads.data, wo.data, np.matmul)
    return Tensor._make(out, (heads, wo),
                        lambda g: _merge_heads_bwd(heads, wo, flat, g))


def _check_heads(d: int, n_heads: int) -> None:
    if d % n_heads:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")


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
    _check_heads(x.shape[-1], n_heads)
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


def _node(data: np.ndarray, parents, backward) -> Tensor:
    """One node of a fused layer's chain, rebuilt for the fused backward:
    it needs a gradient when a parent does, as on the tape."""
    t = Tensor._make(data, (), None)
    t.requires_grad = any(p.requires_grad for p in parents)
    t._backward = backward
    return t


def _replay(nodes: list[Tensor], g: np.ndarray) -> None:
    """Backward through a chain rebuilt with `_node`. nodes are in the
    order the tape's depth-first sort would list them; the last receives
    g, and each runs in reverse order when it needs and holds a gradient,
    as Tensor.backward would run them."""
    nodes[-1].grad = g
    for t in reversed(nodes):
        if t.requires_grad and t.grad is not None:
            t._backward(t.grad)


def block_forward(x: np.ndarray, norms, weights, n_heads: int,
                  key_bias: np.ndarray | None, rows: np.ndarray | None,
                  matmul):
    """The pre-norm block on arrays: x + mhsa(norm1(x)), then
    h + silu_mlp(norm2(h)), then the row mask.

    norms holds (gamma1, shift1, gamma2, shift2); weights holds (wqkv, wo,
    ff1.w, ff1.b, ff2.w, ff2.b), where wqkv is (wq, wk, wv) or the one
    packed (D, 3D) matrix [wq | wk | wv]. key_bias and rows are
    `_padding`'s, or None. Every product of activations and a weight runs
    as matmul(x, w). Returns the output and the intermediates that
    `attention_block`'s backward reads.
    """
    gamma1, shift1, gamma2, shift2 = norms
    wqkv, wo, w1, b1, w2, b2 = weights
    d = x.shape[-1]
    n1, saved1 = _layer_norm_fwd(x, gamma1, shift1)
    q, k, v = [_heads(p[..., i:i + d], n_heads)
               for p in (matmul(n1, w) for w in wqkv)
               for i in range(0, p.shape[-1], d)]
    scores = _scores_fwd(q, k, key_bias)
    attn, saved_attn = _token_softmax_fwd(scores)
    att = _attend_fwd(attn, v)
    m, flat = _merge_heads_fwd(att, wo, matmul)
    m_masked = m if rows is None else m * rows
    h = x + m_masked
    n2, saved2 = _layer_norm_fwd(h, gamma2, shift2)
    f1 = _linear_fwd(n2, w1, b1, matmul)
    s, sig = silu_forward(f1)
    f2 = _linear_fwd(s, w2, b2, matmul)
    h2 = h + f2
    out = h2 if rows is None else h2 * rows
    return out, (n1, saved1, q, k, v, scores, attn, saved_attn, att, m, flat,
                 m_masked, h, n2, saved2, f1, s, sig, f2, h2)


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

    The block is one tape node: x + mhsa(norm1(x)), then
    h + silu_mlp(norm2(h)), then the mask, computed by `block_forward`
    from the same forward helpers as those layers' nodes. Its backward
    rebuilds that chain of nodes around the saved results and replays
    their backward helpers in the tape's order, so values and gradients
    are bitwise the chain's.
    """
    if pad_mask is not None and np.all(pad_mask):
        pad_mask = None
    wq, wk, wv, wo, w1, b1, w2, b2 = [params[f"{prefix}.{name}"] for name in (
        "wq", "wk", "wv", "wo", "ff1.w", "ff1.b", "ff2.w", "ff2.b")]
    if cond is None:
        (gain1, shift1), (gain2, shift2) = (
            (params[f"{prefix}.{ln}.g"], params[f"{prefix}.{ln}.b"])
            for ln in ("ln1", "ln2"))
        gamma1, gamma2 = gain1.data + 1.0, gain2.data + 1.0
    else:
        (gain1, shift1), (gain2, shift2) = cond
        gamma1, gamma2 = gain1.data, gain2.data
    _check_heads(x.data.shape[-1], n_heads)
    _check_matmul(x, wq, "attention_block")
    key_bias = mask = rows = None
    if pad_mask is not None:
        key_bias, rows = _padding(pad_mask)
        mask = Tensor(rows)

    weights = ((wq.data, wk.data, wv.data), wo.data, w1.data, b1.data,
               w2.data, b2.data)
    out, (n1, saved1, q, k, v, scores, attn, saved_attn, att, m, flat,
          m_masked, h, n2, saved2, f1, s, sig, f2, h2) = block_forward(
        x.data, (gamma1, shift1.data, gamma2, shift2.data), weights,
        n_heads, key_bias, rows, np.matmul)

    def backward(g):
        nodes = []
        if cond is None:      # the chain's `gain + 1.0` nodes
            g1 = _node(gamma1, (gain1,), gain1._accumulate)
            g2 = _node(gamma2, (gain2,), gain2._accumulate)
            nodes.append(g1)
        else:
            g1, g2 = gain1, gain2
        n1_t = _node(n1, (x, g1, shift1),
                     lambda g: _layer_norm_bwd(x, g1, shift1, saved1, g))
        q_t = _node(q, (n1_t, wq), lambda g: _split_heads_bwd(n1_t, wq, g))
        k_t = _node(k, (n1_t, wk), lambda g: _split_heads_bwd(n1_t, wk, g))
        scores_t = _node(scores, (q_t, k_t),
                         lambda g: _scores_bwd(q_t, k_t, g))
        attn_t = _node(attn, (scores_t,), lambda g: _token_softmax_bwd(
            scores_t, saved_attn, g))
        v_t = _node(v, (n1_t, wv), lambda g: _split_heads_bwd(n1_t, wv, g))
        att_t = _node(att, (attn_t, v_t),
                      lambda g: _attend_bwd(attn_t, v_t, g))
        m_t = _node(m, (att_t, wo),
                    lambda g: _merge_heads_bwd(att_t, wo, flat, g))
        nodes += [n1_t, q_t, k_t, scores_t, attn_t, v_t, att_t, m_t]
        res_t = m_t
        if mask is not None:
            res_t = _node(m_masked, (m_t,),
                          lambda g: mul_backward(m_t, mask, g))
            nodes.append(res_t)
        h_t = _node(h, (x, res_t), lambda g: add_backward(x, res_t, g))
        nodes.append(h_t)
        if cond is None:
            nodes.append(g2)
        n2_t = _node(n2, (h_t, g2, shift2),
                     lambda g: _layer_norm_bwd(h_t, g2, shift2, saved2, g))
        f1_t = _node(f1, (n2_t, w1, b1),
                     lambda g: _linear_bwd(n2_t, w1, b1, g))
        s_t = _node(s, (f1_t,), lambda g: f1_t._accumulate(
            silu_grad(f1, sig, g)))
        f2_t = _node(f2, (s_t, w2, b2), lambda g: _linear_bwd(s_t, w2, b2, g))
        h2_t = _node(h2, (h_t, f2_t), lambda g: add_backward(h_t, f2_t, g))
        nodes += [n2_t, f1_t, s_t, f2_t, h2_t]
        if mask is not None:
            nodes.append(_node(out, (h2_t,),
                               lambda g: mul_backward(h2_t, mask, g)))
        _replay(nodes, g)

    # the order in which the chain's depth-first sort reaches these
    parents = (x, gain1, shift1, wq, wk, wv, wo, gain2, shift2, w1, b1, w2, b2)
    return Tensor._make(out, parents, backward)
