"""Layer micro-timings at the shapes the workloads use.

Training shapes are the desk profile at batch 32 and three orbits per
crystal; sampling shapes are batch 1. The geometry timings use an
evaluation-mix crystal (group 229, a 96-point orbit plus a 2-point orbit).
Each timing is the median per-call time over repeated calls.
"""

from __future__ import annotations

import warnings
from time import perf_counter

import numpy as np

from symadit import _kernels_py, kernels, symcat
from symadit import crystal as cr
from symadit.autoencoder import AEConfig, Autoencoder
from symadit.evalx import structure_match
from symadit.flowmatch import Denoiser, DenoiserConfig
from symadit.nncore import (
    Tensor,
    adaln,
    adam_step,
    attention_block,
    cross_entropy,
    embedding,
    linear,
    no_grad,
)
from symadit.nncore.layers import NEG_INF

import inputs

BATCH, ORBITS = 32, 3
# A process that has so far run only small matrix products (generate,
# evaluate, ingest) runs its first multithreaded BLAS calls many times
# slower, for about a second; the timings start after this long a warm-up.
WARMUP_S = 1.5


def per_call_ms(fn, setup=None, budget_s: float = 0.15,
                min_calls: int = 5) -> float:
    """Median wall time of fn(state) in ms; setup() makes a fresh state for
    each call outside the timed region."""
    times = []
    stop = perf_counter() + budget_s
    while len(times) < min_calls or perf_counter() < stop:
        state = setup() if setup is not None else None
        t0 = perf_counter()
        fn(state)
        times.append(perf_counter() - t0)
    return 1e3 * float(np.median(times))


def _block_params(store, prefix):
    names = ("wq", "wk", "wv", "wo", "ln1.g", "ln1.b", "ln2.g", "ln2.b",
             "ff1.w", "ff1.b", "ff2.w", "ff2.b")
    params = {f"{prefix}.{n}": store[f"{prefix}.{n}"] for n in names}
    for n in ("ln1.g", "ln2.g"):
        params[f"{prefix}.{n}"] = store[f"{prefix}.{n}"] + 1.0
    return params


def run(catalog, seed: int) -> dict:
    """All micro-timings as {metric: (value, unit)}; raises on a kernel
    disagreeing with the numpy reference."""
    rng = np.random.default_rng((seed, 7))
    ae = Autoencoder(AEConfig.desk(seed=seed), catalog)
    fm = Denoiser(DenoiserConfig.desk(seed=seed))
    st, dm = ae.store, ae.config.d_model
    mask = np.ones((BATCH, ORBITS), dtype=bool)
    out = {}

    def ms(name, value):
        out[f"micro.{name}"] = (value, "ms")

    params = _block_params(st, "enc.block0")

    def block_forward(_):
        x = Tensor(rng.standard_normal((BATCH, ORBITS, dm)), requires_grad=True)
        return attention_block(x, params, "enc.block0", ae.config.n_heads, mask)

    stop = perf_counter() + WARMUP_S
    while perf_counter() < stop:
        st.zero_grad()
        y = block_forward(None)
        y.backward(np.ones(y.shape))

    ms("attention_block.fwd", per_call_ms(block_forward))
    ms("attention_block.bwd", per_call_ms(
        lambda y: y.backward(np.ones(y.shape)),
        setup=lambda: (st.zero_grad(), block_forward(None))[1]))

    fst = fm.store

    def adaln_call(b):
        x = Tensor(rng.standard_normal((b, ORBITS, dm)))
        cond = Tensor(rng.standard_normal((b, dm)))
        return adaln(x, cond, fst["block0.ln1.w"], fst["block0.ln1.b"])

    with no_grad():
        ms("adaln.b1", per_call_ms(lambda _: adaln_call(1)))
    ms("adaln.b32", per_call_ms(lambda _: adaln_call(BATCH)))

    groups = rng.choice(inputs.DESK_GROUPS, BATCH)
    group_bias = np.stack([np.where(symcat.wyckoff_mask(catalog, g), 0.0,
                                    NEG_INF) for g in groups])
    targets = np.stack([rng.integers(*catalog.mask_range(g), size=ORBITS)
                        for g in groups])

    def wyckoff_head(_):
        st.zero_grad()
        h = Tensor(rng.standard_normal((BATCH, ORBITS, dm)), requires_grad=True)
        wy = linear(h, st["dec.wyck.w"], st["dec.wyck.b"])
        wy = wy + Tensor(group_bias[:, None, :])
        cross_entropy(wy, targets, mask).backward()

    ms("wyckoff_head_ce.fwd_bwd", per_call_ms(wyckoff_head))

    idx = rng.integers(0, st["enc.wyck_emb"].shape[0], size=(BATCH, ORBITS))

    def embed(_):
        st.zero_grad()
        return embedding(st["enc.wyck_emb"], idx)

    ms("embedding.bwd", per_call_ms(
        lambda e: e.backward(np.ones(e.shape)), setup=lambda: embed(None)))

    for p in st.params.values():
        p.grad = rng.standard_normal(p.shape)
    ms("adam_step.ae", per_call_ms(lambda _: adam_step(st)))

    w96 = catalog.group(229).wyckoff[-1]
    entry = catalog.group(229)
    f96 = symcat.symmetrize_site(w96, rng.uniform(0.0, 1.0, size=3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", symcat.DegenerateOrbitWarning)
        ms("orbit_expand.g229_96", per_call_ms(
            lambda _: symcat.orbit_expand(entry, w96, f96)))
    ms("symmetrize_site.g229_96", per_call_ms(
        lambda _: symcat.symmetrize_site(w96, rng.uniform(0, 1, size=3))))

    asu = inputs.make_asu(catalog, 229, (96, 2), (8, 26),
                          inputs.DESK_ANGLES, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", symcat.DegenerateOrbitWarning)
        a = cr.expand_asu(asu, catalog)
        b = cr.expand_asu(inputs.permuted(asu, rng), catalog)
    if not structure_match(a, b):
        raise AssertionError("a site-permuted copy does not match itself")
    ms("structure_match.g229_98", per_call_ms(lambda _: structure_match(a, b)))

    row = a.frac[:1]
    for name, fn, ref, args in (
        ("min_pairwise_distance", kernels.min_pairwise_distance,
         _kernels_py.min_pairwise_distance, (a.frac, a.lattice)),
        ("min_image_distance_matrix", kernels.min_image_distance_matrix,
         _kernels_py.min_image_distance_matrix, (row, b.frac, b.lattice)),
    ):
        if not np.allclose(fn(*args), ref(*args), rtol=1e-12):
            raise AssertionError(f"{name}: {kernels.backend()} kernel "
                                 "disagrees with the numpy reference")
        ms(f"{name}.g229_98", per_call_ms(lambda _: fn(*args)))
    return out
