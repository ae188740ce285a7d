import numpy as np
import pytest

from conftest import random_asu
from symadit import crystal as cr
from symadit import symcat
from symadit.autoencoder import (
    AEConfig,
    Autoencoder,
    LatentBatch,
    augment,
    batchify,
    reconstruction_metrics,
    train_autoencoder,
)
from symadit.crystal import MAX_ELEMENT, CrystalASU, Site
from symadit.nncore import Tensor
from symadit.nncore.layers import NEG_INF


@pytest.fixture(scope="module")
def desk_model(catalog):
    return Autoencoder(AEConfig.desk(seed=5), catalog)


def small_dataset(catalog, n=6, seed=4):
    rng = np.random.default_rng(seed)
    groups = [1, 2, 14, 62, 139, 166, 194, 221, 225]
    out = []
    while len(out) < n:
        g = groups[len(out) % len(groups)]
        out.append(random_asu(catalog, g, rng, max_sites=3))
    return out


# ---------------------------------------------------------------------------
# saturation map
# ---------------------------------------------------------------------------


def saturate(z, s=5.0):
    return z / np.sqrt(1.0 + (z / s) ** 2)


def test_saturation_values():
    assert saturate(0.0) == 0.0
    assert saturate(5.0) == pytest.approx(5.0 / np.sqrt(2.0), abs=1e-12)
    # strictly below the asymptote for any activation float64 can resolve
    assert abs(saturate(1e6)) < 5.0
    assert saturate(1e6) == pytest.approx(5.0, abs=1e-4)
    assert saturate(-1e6) == pytest.approx(-5.0, abs=1e-4)


def test_saturation_is_odd_and_monotone():
    z = np.linspace(-40, 40, 2001)
    y = saturate(z)
    assert np.allclose(y, -saturate(-z), atol=1e-15)
    assert np.all(np.diff(y) > 0)
    # unit derivative at the origin
    h = 1e-6
    assert (saturate(h) - saturate(-h)) / (2 * h) == pytest.approx(1.0, abs=1e-9)


def test_latent_bound_holds(catalog, desk_model):
    asus = small_dataset(catalog, n=5)
    latent = desk_model.encode(asus)
    assert np.max(np.abs(latent.z)) < 5.0
    assert np.all(latent.z[~latent.mask] == 0.0)


# ---------------------------------------------------------------------------
# decode guarantees
# ---------------------------------------------------------------------------


def test_decode_satisfies_invariants(catalog, desk_model):
    asus = small_dataset(catalog, n=6)
    latent = desk_model.encode(asus)
    decoded = desk_model.decode(latent, mode="argmax")
    for asu in decoded:
        asu.validate(catalog)


def test_decode_sample_needs_an_rng(catalog, desk_model):
    # an unseeded fallback stream would make the same latents decode
    # differently from run to run
    latent = desk_model.encode(small_dataset(catalog, n=2))
    with pytest.raises(ValueError, match="rng"):
        desk_model.decode(latent, mode="sample")
    with pytest.raises(ValueError, match="mode"):
        desk_model.decode(latent, mode="greedy")


def test_decode_group_masking(catalog, desk_model):
    asus = small_dataset(catalog, n=3)
    latent = desk_model.encode(asus)
    decoded = desk_model.decode(latent, mode="argmax")
    wy, *_ = desk_model.decode_heads(Tensor(latent.z), latent.groups,
                                     latent.mask)
    for i, asu in enumerate(asus):
        allowed = symcat.wyckoff_mask(catalog, asu.spacegroup)
        logits = wy.data[i][latent.mask[i]]
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.all(probs[:, ~allowed] == 0.0)
        assert decoded[i].spacegroup == asu.spacegroup


def test_decode_zero_dof_sites_exact(catalog, desk_model):
    # any latent decoded in group 225 with Wyckoff a sits exactly at 0,0,0
    rng = np.random.default_rng(8)
    from symadit.autoencoder import LatentBatch

    latent = LatentBatch(
        z=rng.normal(size=(1, 2, desk_model.config.d_latent)),
        mask=np.ones((1, 2), dtype=bool),
        groups=np.array([225]),
    )
    decoded = desk_model.decode(latent, mode="sample",
                                rng=np.random.default_rng(0))
    entry = catalog.group(225)
    for site in decoded[0].sites:
        w = entry.position(site.wyckoff)
        if w.dof == 0:
            snapped = symcat.symmetrize_site(w, rng.uniform(size=3))
            assert np.allclose(site.frac, snapped)


def test_decode_lattice_constraints(catalog, desk_model):
    asus = small_dataset(catalog, n=6)
    latent = desk_model.encode(asus)
    decoded = desk_model.decode(latent)
    for asu in decoded:
        lc = catalog.group(asu.spacegroup).lattice_class
        assert np.allclose(
            symcat.symmetrize_lattice(lc, asu.lattice), asu.lattice)
        if lc.family == "cubic":
            assert asu.lattice[0] == asu.lattice[1] == asu.lattice[2]
            assert np.allclose(asu.lattice[3:], 90.0)


def test_decode_no_repeat_zero_dof(catalog, desk_model):
    rng = np.random.default_rng(3)

    # many orbits in group 225 force repeated sampling of discrete heads;
    # decoded zero-DOF letters must stay unique
    latent = LatentBatch(
        z=rng.normal(size=(1, 6, desk_model.config.d_latent)),
        mask=np.ones((1, 6), dtype=bool),
        groups=np.array([225]),
    )
    for seed in range(5):
        decoded = desk_model.decode(
            latent, mode="sample", rng=np.random.default_rng(seed))
        zero_dof = [s.wyckoff for s in decoded[0].sites
                    if catalog.group(225).position(s.wyckoff).dof == 0]
        assert len(zero_dof) == len(set(zero_dof))


def _assemble(model, catalog, group, picks, ell_pred, counters):
    """Decode one crystal whose Wyckoff head allows only `picks[j]` (global
    position indices) at orbit j."""
    n = len(picks)
    wy = np.full((n, len(catalog.positions)), NEG_INF)
    for j, allowed in enumerate(picks):
        wy[j, allowed] = 0.0
    return model._assemble(group, wy, np.zeros((n, MAX_ELEMENT)),
                           np.full((n, 3), 0.3), np.asarray(ell_pred, float),
                           np.ones(n, dtype=bool), "argmax", None, counters)


@pytest.mark.parametrize("mode", ["argmax", "sample"])
def test_decoding_is_total_in_every_group(catalog, mode):
    """With two orbits more than a group has zero-DOF positions, the
    no-repeat rule uses up every such position and still leaves the general
    position, so every orbit of every group decodes to a valid unit."""
    model = Autoencoder(AEConfig.desk(d_model=32, n_heads=2, d_latent=4,
                                      seed=11), catalog)
    rng = np.random.default_rng(12)
    orbits = np.array([sum(w.dof == 0 for w in entry.wyckoff) + 2
                       for entry in catalog.groups])
    mask = np.arange(orbits.max())[None, :] < orbits[:, None]
    latent = LatentBatch(
        z=rng.normal(size=mask.shape + (4,)) * mask[:, :, None], mask=mask,
        groups=np.array([entry.number for entry in catalog.groups]))
    decoded = model.decode(latent, mode=mode, rng=rng)
    assert [asu.spacegroup for asu in decoded] == list(range(1, 231))
    assert [len(asu.sites) for asu in decoded] == list(orbits)
    for asu in decoded:
        asu.validate(catalog)


def test_decode_counts_closing_cell_pulls(catalog, desk_model):
    start, _ = catalog.mask_range(2)
    counters = {}
    closes = _assemble(desk_model, catalog, 2, [[start]],
                       [5.0, 6.0, 7.0, 80.0, 95.0, 100.0], counters)
    assert counters == {}
    assert np.array_equal(closes.lattice, [5.0, 6.0, 7.0, 80.0, 95.0, 100.0])
    pulled = _assemble(desk_model, catalog, 2, [[start]],
                       [5.0, 5.0, 5.0, 150.0, 150.0, 150.0], counters)
    assert counters == {"closing_cell_pulls": 1}
    assert np.all(pulled.lattice[3:] < 150.0)
    cr.lattice_matrix(pulled.lattice)


def test_permutation_equivariance(catalog, desk_model):
    rng = np.random.default_rng(12)
    asu = random_asu(catalog, 2, rng, max_sites=4)
    while len(asu.sites) < 3:
        asu = random_asu(catalog, 2, rng, max_sites=4)
    latent = desk_model.encode([asu])
    perm = rng.permutation(len(asu.sites))
    permuted = CrystalASU(
        spacegroup=asu.spacegroup,
        sites=[asu.sites[i] for i in perm],
        lattice=asu.lattice,
    )
    latent_p = desk_model.encode([permuted])
    assert np.array_equal(latent_p.z[0], latent.z[0][perm])


def test_encode_dataset_is_per_crystal(catalog, desk_model):
    asus = small_dataset(catalog, n=5)
    latents = desk_model.encode_dataset(asus)
    reversed_latents = desk_model.encode_dataset(asus[::-1])
    for asu, z, z_rev in zip(asus, latents, reversed_latents[::-1]):
        assert z.shape == (len(asu.sites), desk_model.config.d_latent)
        assert np.array_equal(z, z_rev)
        assert np.array_equal(z, desk_model.encode([asu]).z[0])


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_periodic_loss_values():
    # per-slot values of 1 - cos(2 pi delta)
    assert 1 - np.cos(2 * np.pi * 0.5) == pytest.approx(2.0)
    assert 1 - np.cos(2 * np.pi * 1.0) == pytest.approx(0.0, abs=1e-12)


def test_perfect_predictions_zero_loss(catalog, desk_model):
    asus = small_dataset(catalog, n=4)
    batch = batchify(asus, catalog)
    b, n = batch.mask.shape
    wy = np.full((b, n, 1731), -30.0)
    atom = np.full((b, n, 100), -30.0)
    for i in range(b):
        for j in range(n):
            if batch.mask[i, j]:
                wy[i, j, batch.wyck_idx[i, j]] = 30.0
                atom[i, j, batch.elem_idx[i, j]] = 30.0
    heads = (Tensor(wy), Tensor(atom), Tensor(batch.frac),
             Tensor(desk_model.normalize_lattice(batch.lattice)))
    total, breakdown = desk_model.reconstruction_loss(batch, heads)
    assert total.item() == pytest.approx(0.0, abs=1e-10)
    assert breakdown["frac"] == pytest.approx(0.0, abs=1e-12)


def test_zero_dof_site_ignores_frac_head(catalog, desk_model, nacl):
    batch = batchify([nacl], catalog)
    b, n = batch.mask.shape
    wy = np.zeros((b, n, 1731))
    atom = np.zeros((b, n, 100))
    lat = desk_model.normalize_lattice(batch.lattice)
    base = desk_model.reconstruction_loss(
        [nacl] and batch,
        (Tensor(wy), Tensor(atom), Tensor(np.zeros((b, n, 3))), Tensor(lat)))
    wild = desk_model.reconstruction_loss(
        batch,
        (Tensor(wy), Tensor(atom), Tensor(np.full((b, n, 3), 0.37)),
         Tensor(lat)))
    assert base[1]["frac"] == wild[1]["frac"] == 0.0


def test_constrained_slot_gradients_exactly_zero(catalog, desk_model, nacl):
    batch = batchify([nacl], catalog)
    b, n = batch.mask.shape
    frac_head = Tensor(np.random.default_rng(0).normal(size=(b, n, 3)),
                       requires_grad=True)
    wy = Tensor(np.zeros((b, n, 1731)))
    atom = Tensor(np.zeros((b, n, 100)))
    lat = Tensor(desk_model.normalize_lattice(batch.lattice))
    total, _ = desk_model.reconstruction_loss(
        batch, (wy, atom, frac_head, lat))
    total.backward()
    constrained = batch.dof_mask == 0.0
    assert np.all(frac_head.grad[constrained] == 0.0)


def test_lattice_loss_only_free_slots(catalog, desk_model, nacl):
    batch = batchify([nacl], catalog)
    lat_norm = desk_model.normalize_lattice(batch.lattice)
    tampered = lat_norm.copy()
    tampered[:, 1:] += 9.99   # b, c, and all angles are tied in a cube
    b, n = batch.mask.shape
    heads_ok = (Tensor(np.zeros((b, n, 1731))), Tensor(np.zeros((b, n, 100))),
                Tensor(batch.frac), Tensor(lat_norm))
    heads_bad = (heads_ok[0], heads_ok[1], heads_ok[2], Tensor(tampered))
    _, ok = desk_model.reconstruction_loss(batch, heads_ok)
    _, bad = desk_model.reconstruction_loss(batch, heads_bad)
    assert ok["lattice"] == bad["lattice"] == 0.0


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def test_augment_cubic_only_length_moves(catalog, nacl):
    rng = np.random.default_rng(1)
    out = augment(nacl, catalog, sigma_frac=0.01, sigma_length=0.05,
                  sigma_angle=2.0, rng=rng)
    assert out.lattice[0] != pytest.approx(5.65)
    assert out.lattice[0] == out.lattice[1] == out.lattice[2]
    assert np.allclose(out.lattice[3:], 90.0)
    # both sites are zero-DOF: coordinates must not move
    for site, orig in zip(out.sites, nacl.sites):
        assert np.array_equal(site.frac, orig.frac)


def test_augment_zero_sigma_identity(catalog):
    rng = np.random.default_rng(2)
    asu = random_asu(catalog, 14, rng)
    out = augment(asu, catalog, 0.0, 0.0, 0.0, rng)
    assert np.array_equal(out.lattice, asu.lattice)
    for a, b in zip(out.sites, asu.sites):
        assert np.array_equal(a.frac, b.frac)


def test_augment_respects_site_form(catalog):
    rng = np.random.default_rng(3)
    for g in (62, 139, 166, 194):
        asu = random_asu(catalog, g, rng)
        out = augment(asu, catalog, 0.05, 0.02, 1.0, rng)
        out.validate(catalog)


# ---------------------------------------------------------------------------
# metrics, training
# ---------------------------------------------------------------------------


def test_training_reduces_loss(catalog):
    asus = small_dataset(catalog, n=4, seed=9)
    config = AEConfig.desk(seed=0, lr=1e-3, batch_size=4)
    model, history = train_autoencoder(asus, config, catalog, max_steps=60,
                                       log_every=10)
    assert history[-1]["total"] < history[0]["total"]
    metrics = reconstruction_metrics(model, asus)
    assert 0.0 <= metrics["atom_accuracy"] <= 1.0


def test_training_resume_is_deterministic(catalog, tmp_path):
    asus = small_dataset(catalog, n=4, seed=9)
    config = AEConfig.desk(seed=7, lr=1e-3, batch_size=4)
    full_model, _ = train_autoencoder(asus, config, catalog, max_steps=20)

    half_model, _ = train_autoencoder(asus, config, catalog, max_steps=10)
    half_model.save(tmp_path / "half.ckpt")
    resumed = Autoencoder.load(tmp_path / "half.ckpt", catalog)
    resumed_model, _ = train_autoencoder(
        asus, resumed.config, catalog, max_steps=20, model=resumed)
    for name in full_model.store.names():
        assert np.allclose(full_model.store[name].data,
                           resumed_model.store[name].data, atol=1e-12), name


def test_checkpoint_roundtrip_preserves_model(catalog, tmp_path, desk_model):
    asus = small_dataset(catalog, n=3)
    digest = desk_model.save(tmp_path / "ae.ckpt", seed=5)
    loaded = Autoencoder.load(tmp_path / "ae.ckpt", catalog)
    a = desk_model.encode(asus)
    b = loaded.encode(asus)
    assert np.array_equal(a.z, b.z)
    assert len(digest) == 64
    assert loaded.store.checkpoint_hash == digest
