"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criterion 8 exercises dataset-conditional statistics and only runs when a
reference dataset is supplied via $SYMADIT_MP20 (ingested JSONL path).
"""

import itertools
import os
import time

import numpy as np
import pytest

from conftest import random_asu
from symadit import crystal as cr
from symadit import evalx, symcat
from symadit.autoencoder import (
    AEConfig,
    Autoencoder,
    batchify,
    reconstruction_metrics,
    train_autoencoder,
)
from symadit.crystal import CrystalASU, MatchParams, Site
from symadit.flowmatch import (
    Denoiser,
    DenoiserConfig,
    SamplerConfig,
    fit_priors,
    interpolate,
    sample,
    target_field,
    train_denoiser,
)
from symadit.nncore import Tensor, adaln, layer_norm, linear, mhsa, silu_mlp


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. catalog integrity
# ---------------------------------------------------------------------------


def test_criterion_1_catalog_integrity(catalog):
    t0 = time.time()
    ok = len(catalog) == 230 and len(catalog.positions) == 1731

    rng = np.random.default_rng(101)
    for g in rng.choice(230, size=20, replace=False) + 1:
        entry = catalog.group(int(g))
        ops = set(entry.operations)
        for a in entry.operations:
            for b in entry.operations:
                if a.compose(b) not in ops:
                    ok = False

    for entry in catalog.groups:
        for w in entry.wyckoff:
            f = symcat.symmetrize_site(w, rng.uniform(0.02, 0.98, 3))
            if len(symcat.orbit_expand(entry, w, f)) != w.multiplicity:
                ok = False

    elapsed = time.time() - t0
    report("1 catalog integrity (230/1731, closure, multiplicity oracle)",
           ok and elapsed < 30.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. NaCl golden test
# ---------------------------------------------------------------------------


def test_criterion_2_nacl_golden(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    ok = full.n_atoms == 8
    ell = cr.lattice_params(full.lattice)
    ok &= bool(np.allclose(ell, [5.65, 5.65, 5.65, 90, 90, 90], atol=1e-9))
    dist = cr.min_pairwise_distance(full)
    ok &= abs(dist - 2.825) <= 1e-6
    ok &= cr.structural_validity(full)
    back = cr.assign_wyckoff(full, 225, catalog)
    ok &= {(s.element, s.wyckoff) for s in back.sites} == {(11, "a"), (17, "b")}
    for site in back.sites:
        orig = next(s for s in nacl.sites if s.element == site.element)
        ok &= bool(np.allclose(site.frac, orig.frac, atol=1e-9))
    ok &= bool(np.allclose(back.lattice, nacl.lattice, atol=1e-9))
    report("2 NaCl golden (8 atoms, 2.825 A, validity, round trip)", ok,
           f"min distance {dist:.6f}")


# ---------------------------------------------------------------------------
# 3. symmetrizer suite
# ---------------------------------------------------------------------------


def test_criterion_3_symmetrizers(catalog):
    rng = np.random.default_rng(31)
    ok = True
    for entry in catalog.groups:
        lc = entry.lattice_class
        for w in entry.wyckoff:
            for _ in range(10):
                f = rng.uniform(-1.0, 2.0, 3)
                once = symcat.symmetrize_site(w, f)
                twice = symcat.symmetrize_site(w, once)
                if np.max(np.abs(once - twice)) > 1e-12:
                    ok = False
        for _ in range(10):
            ell = np.empty(6)
            ell[:3] = rng.uniform(0.5, 12, 3)
            ell[3:] = rng.uniform(30, 150, 3)
            once = symcat.symmetrize_lattice(lc, ell)
            twice = symcat.symmetrize_lattice(lc, once)
            if np.max(np.abs(once - twice)) > 1e-12:
                ok = False
    report("3a symmetrizer idempotence (1731 positions x 10 inputs)", ok)

    # decoded units satisfy their parametric forms by construction
    model = Autoencoder(AEConfig.desk(seed=0), catalog)
    from symadit.autoencoder import LatentBatch

    decode_ok = True
    for g in (1, 14, 62, 139, 166, 194, 221, 225, 230):
        latent = LatentBatch(
            z=rng.normal(size=(1, 3, model.config.d_latent)),
            mask=np.ones((1, 3), dtype=bool),
            groups=np.array([g]),
        )
        try:
            decoded = model.decode(latent, np.random.default_rng(g))
        except Exception:
            continue
        for asu in decoded:
            try:
                asu.validate(catalog)
            except ValueError:
                decode_ok = False
    report("3b decoded units satisfy parametric forms", decode_ok)

    # loss gradient w.r.t. constrained coordinate slots is exactly zero
    nacl_like = CrystalASU(
        spacegroup=225,
        sites=[Site(element=11, wyckoff="a", frac=np.zeros(3)),
               Site(element=17, wyckoff="b", frac=[0.5, 0.5, 0.5])],
        lattice=[5.65, 5.65, 5.65, 90, 90, 90])
    batch = batchify([nacl_like], catalog)
    b, n = batch.mask.shape
    frac_head = Tensor(rng.normal(size=(b, n, 3)), requires_grad=True)
    heads = (Tensor(np.zeros((b, n, 1731))), Tensor(np.zeros((b, n, 100))),
             frac_head, Tensor(model.normalize_lattice(batch.lattice)))
    total, _ = model.reconstruction_loss(batch, heads)
    total.backward()
    analytic = frac_head.grad.copy()
    grad_ok = bool(np.all(analytic[batch.dof_mask == 0.0] == 0.0))
    # finite-difference cross-check at h = 1e-5 on constrained slots
    h = 1e-5
    for (i, j, k) in itertools.product(range(b), range(n), range(3)):
        if batch.dof_mask[i, j, k] != 0.0 or not batch.mask[i, j]:
            continue
        for sign in (1.0, -1.0):
            bumped = frac_head.data.copy()
            bumped[i, j, k] += sign * h
            heads_b = (heads[0], heads[1], Tensor(bumped), heads[3])
            val = model.reconstruction_loss(batch, heads_b)[0].item()
            if val != total.item():
                grad_ok = False
    report("3c constrained-slot loss gradients exactly zero", grad_ok)


# ---------------------------------------------------------------------------
# 4. numerical core
# ---------------------------------------------------------------------------


def _numeric_grad(f, tensor, h=1e-5):
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


def test_criterion_4_numerical_core():
    rng = np.random.default_rng(41)
    worst = 0.0
    checked = 0
    for trial in range(20):
        b = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        d = int(rng.choice([4, 8]))
        kind = trial % 5
        if kind == 0:
            x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
            w = Tensor(rng.normal(size=(d, d)), requires_grad=True)
            build = lambda: (linear(x, w) ** 2.0).sum()
            params = [x, w]
        elif kind == 1:
            x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
            w1 = Tensor(rng.normal(size=(d, 2 * d)), requires_grad=True)
            b1 = Tensor(rng.normal(size=(2 * d,)), requires_grad=True)
            w2 = Tensor(rng.normal(size=(2 * d, d)), requires_grad=True)
            b2 = Tensor(rng.normal(size=(d,)), requires_grad=True)
            build = lambda: (silu_mlp(x, w1, b1, w2, b2) ** 2.0).sum()
            params = [x, w1, b1, w2, b2]
        elif kind == 2:
            x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
            g = Tensor(rng.normal(size=(d,)), requires_grad=True)
            bb = Tensor(rng.normal(size=(d,)), requires_grad=True)
            build = lambda: (layer_norm(x, g, bb) ** 2.0).sum()
            params = [x, g, bb]
        elif kind == 3:
            x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
            cond = Tensor(rng.normal(size=(b, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2 * d)), requires_grad=True)
            bb = Tensor(rng.normal(size=(2 * d,)), requires_grad=True)
            build = lambda: (adaln(x, cond, w, bb) ** 2.0).sum()
            params = [x, cond, w, bb]
        else:
            heads = 2
            x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
            ws = [Tensor(rng.normal(size=(d, d)) / np.sqrt(d),
                         requires_grad=True) for _ in range(4)]
            build = lambda: (mhsa(x, *ws, heads) ** 2.0).sum()
            params = [x] + ws
        for p in params:
            p.grad = None
        build().backward()
        for p in params:
            numeric = _numeric_grad(lambda: build().item(), p)
            scale = np.maximum(
                1.0, np.maximum(np.abs(p.grad), np.abs(numeric)))
            worst = max(worst, float(np.max(np.abs(p.grad - numeric) / scale)))
            checked += 1
    report("4a analytic gradients vs central differences (20 shapes)",
           worst < 1e-5, f"max rel err {worst:.2e} over {checked} tensors")

    # bitwise permutation equivariance of attention
    rng2 = np.random.default_rng(42)
    d, heads, n = 16, 4, 7
    x = rng2.normal(size=(1, n, d))
    ws = [Tensor(rng2.normal(size=(d, d)) / np.sqrt(d)) for _ in range(4)]
    base = mhsa(Tensor(x), *ws, heads).data
    bitwise = True
    for _ in range(10):
        perm = rng2.permutation(n)
        out = mhsa(Tensor(x[:, perm]), *ws, heads).data
        if not np.array_equal(out, base[:, perm]):
            bitwise = False
    report("4b attention permutation equivariance (bitwise)", bitwise)


# ---------------------------------------------------------------------------
# 5. flow-matching oracles
# ---------------------------------------------------------------------------


def test_criterion_5_flow_oracles():
    rng = np.random.default_rng(51)

    class FixedOracle:
        def __init__(self, target):
            self.target = target
            self.config = DenoiserConfig.desk(d_latent=target.shape[-1])

        def condition(self, t, cond_idx):
            return []

        def freeze(self):
            return lambda z_t, self_cond, cond, rows, mask: self.target.copy()

    from symadit.flowmatch import euler_trajectory

    target = rng.normal(size=(1, 4, 8))
    oracle = FixedOracle(target)
    mask = np.ones((1, 4), dtype=bool)
    ok_euler = True
    details = []
    for steps in (1, 10, 1000):
        z0 = rng.normal(size=(1, 4, 8))
        out = euler_trajectory(
            oracle, z0, 14, SamplerConfig(steps=steps, cfg_scale=1.0), mask)
        rel = np.linalg.norm(out - target) / np.linalg.norm(target)
        details.append(f"T={steps}: {rel:.2e}")
        ok_euler &= rel < 1e-9
    report("5a Euler sampler reaches fixed-oracle target", ok_euler,
           "; ".join(details))

    den = Denoiser(DenoiserConfig.desk(d_latent=8, d_model=32, n_heads=2,
                                       n_layers=1, seed=5))
    z0 = rng.normal(size=(1, 3, 8))
    mask = np.ones((1, 3), dtype=bool)
    guided = euler_trajectory(den, z0.copy(), 14,
                              SamplerConfig(steps=9, cfg_scale=1.0), mask)
    z = z0.copy()
    prev = np.zeros_like(z)
    dt = 1.0 / 9
    from symadit.nncore import no_grad
    for k in range(9):
        t = k * dt
        with no_grad():
            cond = den.condition(np.full(1, t), np.array([13]))
            pred = den.forward(Tensor(z), cond, mask, Tensor(prev)).data
        z = z + dt * (pred - z) / (1.0 - t)
        prev = pred
    report("5b guidance scale 1 bit-identical to conditional path",
           bool(np.array_equal(guided, z)))

    z0 = rng.normal(size=(5, 6))
    z1 = rng.normal(size=(5, 6))
    ok_field = True
    for t in (0.0, 0.3, 0.77, 0.999):
        z_t = interpolate(z0, z1, t)
        if np.max(np.abs(target_field(z_t, z1, t) - (z1 - z0))) > 1e-12:
            ok_field = False
    report("5c target field on path equals Z1 - Z0 (1e-12)", ok_field)

    sat = 5.0 / np.sqrt(1.0 + (5.0 / 5.0) ** 2)
    report("5d saturation at 5 equals 5/sqrt(2) (1e-12)",
           abs(sat - 5.0 / np.sqrt(2.0)) <= 1e-12)


# ---------------------------------------------------------------------------
# 6. desk-scale overfit and generation
# ---------------------------------------------------------------------------


def _synthetic_dataset(catalog, count=32, seed=600):
    rng = np.random.default_rng(seed)
    groups = [1, 2, 12, 14, 62, 74, 123, 139, 166, 191, 194, 221, 225, 229]
    out = []
    while len(out) < count:
        g = groups[len(out) % len(groups)]
        asu = random_asu(catalog, g, rng, max_sites=3)
        full = cr.expand_asu(asu, catalog)
        expected = sum(
            catalog.group(g).position(s.wyckoff).multiplicity
            for s in asu.sites)
        if full.n_atoms != expected or not cr.structural_validity(full):
            continue
        out.append(asu)
    return out


CRITERION_6_STEPS = 2000  # autoencoder steps of the criterion-6 recipe


def _criterion_6_config(seed: int) -> AEConfig:
    """The criterion-6 autoencoder recipe: the desk model at lr 2e-3 and
    batch 32, trained without augmentation."""
    return AEConfig.desk(seed=seed, lr=2e-3, batch_size=32,
                         sigma_frac=0.0, sigma_length=0.0, sigma_angle=0.0)


def _meets_6a(metrics: dict) -> bool:
    """Criterion 6a: >= 99 % argmax accuracy on atoms and Wyckoff
    positions, circular coordinate error below 0.01."""
    return (metrics["atom_accuracy"] >= 0.99
            and metrics["wyckoff_accuracy"] >= 0.99
            and metrics["circular_error"] < 0.01)


@pytest.mark.slow
def test_criterion_6_desk_scale_overfit(catalog):
    t0 = time.time()
    asus = _synthetic_dataset(catalog)
    config = _criterion_6_config(seed=6)
    model, _ = train_autoencoder(asus, config, catalog,
                                 max_steps=CRITERION_6_STEPS, log_every=500)
    metrics = reconstruction_metrics(model, asus)
    ae_ok = _meets_6a(metrics)
    report("6a autoencoder overfit (>=99% argmax, circ err < 0.01)", ae_ok,
           f"atom {metrics['atom_accuracy']:.3f}, "
           f"wyckoff {metrics['wyckoff_accuracy']:.3f}, "
           f"circ {metrics['circular_error']:.4f}, "
           f"{model.store.step_count} steps")

    latents = []
    groups = []
    for asu in asus:
        lb = model.encode([asu])
        latents.append(lb.z[0][lb.mask[0]])
        groups.append(asu.spacegroup)
    fm_cfg = DenoiserConfig.desk(d_latent=config.d_latent, seed=7, lr=1e-3,
                                 batch_size=32)
    denoiser, _ = train_denoiser(latents, np.array(groups), fm_cfg,
                                 max_steps=1200)

    priors = fit_priors(asus)
    sampler = SamplerConfig(steps=50, cfg_scale=2.0, seed=8)
    generated, stats = sample(priors, sampler, denoiser, model, count=200)
    gen_ok = len(generated) == stats.requested == 200
    inv_ok = True
    for asu in generated:
        try:
            asu.validate(catalog)
        except ValueError:
            inv_ok = False
    elapsed = time.time() - t0
    report("6b generation (all 200 produced, invariants, < 15 min)",
           gen_ok and inv_ok and elapsed < 900,
           f"{len(generated)} of {stats.requested} samples, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_7_metric_oracles(catalog):
    from collections import Counter

    from test_evalx import lp_transport_cost

    ok = evalx.jsd(Counter({"a": 3}), Counter({"b": 4})) == pytest.approx(1.0)
    ok &= evalx.jsd(Counter({0: 10}), Counter({0: 5, 1: 5})) == pytest.approx(
        0.31128, abs=1e-4)
    report("7a JSD golden values", bool(ok))

    rng = np.random.default_rng(71)
    w_ok = True
    for _ in range(50):
        gen = rng.integers(1, 11, size=int(rng.integers(2, 10))).tolist()
        ref = rng.integers(1, 11, size=int(rng.integers(2, 10))).tolist()
        got = evalx.wasserstein_atoms(gen, ref)
        want = lp_transport_cost(gen, ref)
        if abs(got - want) > 1e-9:
            w_ok = False
    report("7b W1 equals LP transport cost (50 instances)", w_ok)

    rng = np.random.default_rng(72)
    corpus = []
    while len(corpus) < 100:
        g = int(rng.integers(1, 231))
        asu = random_asu(catalog, g, rng, max_sites=2)
        full = cr.expand_asu(asu, catalog)
        if full.n_atoms <= 16 and cr.structural_validity(full):
            corpus.append(full)
    params = MatchParams()
    m_ok = True
    for s in corpus:
        if not evalx.structure_match(s, s, params):
            m_ok = False
    idx = rng.choice(100, size=(30, 2))
    for i, j in idx:
        a, b = corpus[i], corpus[j]
        if evalx.structure_match(a, b, params) != \
                evalx.structure_match(b, a, params):
            m_ok = False
    for s in corpus[:20]:
        shifted = cr.FullCrystal(
            lattice=s.lattice, elements=s.elements,
            frac=(s.frac + rng.uniform(0, 1, 3)) % 1.0)
        if not evalx.structure_match(s, shifted, params):
            m_ok = False
    report("7c matcher reflexive/symmetric/translation-invariant "
           "(100 structures)", m_ok)

    subset = corpus[:12] + corpus[:4]
    def unique_count(items):
        u, _, _ = evalx.uniqueness_and_novelty(items, [], n_novelty=1)
        return round(u * len(items) / 100)
    base = unique_count(subset)
    p_ok = all(
        unique_count([subset[i] for i in rng.permutation(len(subset))]) == base
        for _ in range(3))
    report("7d uniqueness count permutation-invariant", p_ok,
           f"{base} unique of {len(subset)}")


# ---------------------------------------------------------------------------
# 8. dataset-conditional statistics
# ---------------------------------------------------------------------------


def test_criterion_8_dataset_conditional(catalog):
    path = os.environ.get("SYMADIT_MP20")
    if not path or not os.path.exists(path):
        pytest.skip("reference dataset not provided (set $SYMADIT_MP20 to "
                    "the ingested training JSONL)")
    asus = cr.read_dataset_jsonl(path)
    p1 = evalx.p1_rate(asus)
    stats = evalx.composition_stats(asus)
    tokens = float(np.mean([len(a.sites) for a in asus]))
    ok = abs(p1 - 2.23) <= 0.05
    ok &= abs(stats["unique_elements"]["mean"] - 3.014) <= 0.01
    ok &= abs(stats["orbit_count"]["mean"] - 4.758) <= 0.01
    ok &= abs(tokens - 4.74) <= 0.05
    report("8 dataset-conditional statistics", ok,
           f"P1 {p1:.2f}%, elements {stats['unique_elements']['mean']:.3f}, "
           f"orbits {stats['orbit_count']['mean']:.3f}, tokens {tokens:.2f}")
