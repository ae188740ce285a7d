"""Stage 1: per-orbit latent autoencoder over asymmetric units.

The encoder embeds each orbit's element, Wyckoff position and free
fractional parameters together with crystal-level group/lattice context,
runs a position-free transformer, and down-projects to a bounded latent
via the saturating map z = z' / sqrt(1 + (z'/s)^2). The decoder inverts
the path through four heads; discrete heads are masked to the crystal's
space group and every continuous output is projected onto its exact
symmetry-constrained form, so decoded units satisfy the structural
invariants by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import crystal as cr
from . import symcat
from .crystal import MAX_ELEMENT, CrystalASU, Site
from .nncore import (
    ParameterStore,
    Tensor,
    adam_step,
    add_attention_block,
    attention_block,
    cross_entropy,
    embedding,
    linear,
    no_grad,
    run_steps,
    silu_mlp,
)
from .nncore.layers import NEG_INF, token_sum
from .nncore.params import config_from
from .symcat import N_GROUPS, N_WYCKOFF, SymmetryCatalog

__all__ = [
    "AEConfig",
    "Autoencoder",
    "LatentBatch",
    "augment",
    "batchify",
    "train_autoencoder",
]

SATURATION = 5.0       # s of the latent map z' / sqrt(1 + (z'/s)^2)
LAMBDA_ATOM = 1.0      # weights of the four reconstruction terms
LAMBDA_WYCKOFF = 1.0
LAMBDA_FRAC = 5.0
LAMBDA_LATTICE = 1.0


@dataclass
class AEConfig:
    d_model: int = 512
    d_latent: int = 32
    n_heads: int = 8
    n_layers: int = 8
    sigma_frac: float = 0.01
    sigma_length: float = 0.02   # relative, multiplicative
    sigma_angle: float = 1.0     # degrees, additive
    # normalization of lattice parameters: lengths are log-standardized,
    # angles divided by 180
    length_log_mean: float = 1.6
    length_log_std: float = 0.5
    lr: float = 3e-4
    batch_size: int = 512
    epochs: int = 7000
    seed: int = 0

    @classmethod
    def desk(cls, **overrides) -> "AEConfig":
        """Small profile for tests and smoke runs."""
        base = dict(d_model=128, d_latent=16, n_heads=4, n_layers=2,
                    batch_size=32, epochs=200)
        base.update(overrides)
        return cls(**base)


@dataclass
class LatentBatch:
    """Per-orbit latents (B, N, d) with validity mask and conditioning."""

    z: np.ndarray
    mask: np.ndarray            # (B, N) bool, True = real orbit
    groups: np.ndarray          # (B,) 1-based space group numbers


@dataclass
class Batch:
    elem_idx: np.ndarray        # (B, N) 0-based
    wyck_idx: np.ndarray        # (B, N) global Wyckoff indices
    frac: np.ndarray            # (B, N, 3)
    dof_mask: np.ndarray        # (B, N, 3) float
    mask: np.ndarray            # (B, N) bool
    groups: np.ndarray          # (B,) 1-based
    lattice: np.ndarray         # (B, 6) raw
    lat_free: np.ndarray        # (B, 6) float free-slot mask


def batchify(asus: list[CrystalASU], catalog: SymmetryCatalog) -> Batch:
    b = len(asus)
    n = max(len(a.sites) for a in asus)
    elem = np.zeros((b, n), dtype=np.int64)
    wyck = np.zeros((b, n), dtype=np.int64)
    frac = np.zeros((b, n, 3))
    dofm = np.zeros((b, n, 3))
    mask = np.zeros((b, n), dtype=bool)
    groups = np.zeros(b, dtype=np.int64)
    lat = np.zeros((b, 6))
    latf = np.zeros((b, 6))
    for i, asu in enumerate(asus):
        entry = catalog.group(asu.spacegroup)
        groups[i] = asu.spacegroup
        lat[i] = asu.lattice
        latf[i] = np.array(entry.lattice_class.free_mask, dtype=float)
        for j, site in enumerate(asu.sites):
            w = entry.position(site.wyckoff)
            elem[i, j] = site.element - 1
            wyck[i, j] = w.global_index
            frac[i, j] = site.frac
            dofm[i, j] = np.array(w.dof_mask, dtype=float)
            mask[i, j] = True
    return Batch(elem, wyck, frac, dofm, mask, groups, lat, latf)


class Autoencoder:
    """Encoder/decoder pair; all parameters live in one ParameterStore."""

    def __init__(self, config: AEConfig, catalog: SymmetryCatalog,
                 store: ParameterStore | None = None):
        self.config = config
        self.catalog = catalog
        self.store = store if store is not None else self._build(config)

    @staticmethod
    def _build(cfg: AEConfig) -> ParameterStore:
        st = ParameterStore(seed=cfg.seed)
        dm, d = cfg.d_model, cfg.d_latent
        st.add("enc.elem_emb", (MAX_ELEMENT, dm), scale=0.02)
        st.add("enc.wyck_emb", (N_WYCKOFF, dm), scale=0.02)
        st.add("enc.group_emb", (N_GROUPS, dm), scale=0.02)
        st.add("enc.fmlp.w1", (6, dm))
        st.add("enc.fmlp.b1", (dm,), scale=0.0)
        st.add("enc.fmlp.w2", (dm, dm))
        st.add("enc.fmlp.b2", (dm,), scale=0.0)
        st.add("enc.lmlp.w1", (12, dm))
        st.add("enc.lmlp.b1", (dm,), scale=0.0)
        st.add("enc.lmlp.w2", (dm, dm))
        st.add("enc.lmlp.b2", (dm,), scale=0.0)
        for side in ("enc", "dec"):
            for i in range(cfg.n_layers):
                add_attention_block(st, f"{side}.block{i}", dm)
        st.add("enc.down.w", (dm, d))
        st.add("enc.down.b", (d,), scale=0.0)
        st.add("dec.up.w", (d, dm))
        st.add("dec.up.b", (dm,), scale=0.0)
        st.add("dec.wyck.w", (dm, N_WYCKOFF))
        st.add("dec.wyck.b", (N_WYCKOFF,), scale=0.0)
        st.add("dec.atom.w", (dm, MAX_ELEMENT))
        st.add("dec.atom.b", (MAX_ELEMENT,), scale=0.0)
        st.add("dec.fmlp.w1", (dm, dm))
        st.add("dec.fmlp.b1", (dm,), scale=0.0)
        st.add("dec.fmlp.w2", (dm, 3))
        st.add("dec.fmlp.b2", (3,), scale=0.0)
        st.add("dec.lmlp.w1", (dm, dm))
        st.add("dec.lmlp.b1", (dm,), scale=0.0)
        st.add("dec.lmlp.w2", (dm, 6))
        st.add("dec.lmlp.b2", (6,), scale=0.0)
        return st

    # -- normalization --------------------------------------------------------

    def normalize_lattice(self, ell: np.ndarray) -> np.ndarray:
        out = np.array(ell, dtype=np.float64, copy=True)
        cfg = self.config
        out[..., :3] = (np.log(np.maximum(out[..., :3], 1e-6))
                        - cfg.length_log_mean) / cfg.length_log_std
        out[..., 3:] = out[..., 3:] / 180.0
        return out

    def denormalize_lattice(self, raw: np.ndarray) -> np.ndarray:
        out = np.array(raw, dtype=np.float64, copy=True)
        cfg = self.config
        out[..., :3] = np.exp(
            np.clip(out[..., :3] * cfg.length_log_std + cfg.length_log_mean,
                    -20.0, 20.0))
        out[..., 3:] = np.clip(out[..., 3:] * 180.0, 10.0, 170.0)
        return out

    def _run_blocks(self, h: Tensor, side: str, mask) -> Tensor:
        for i in range(self.config.n_layers):
            h = attention_block(h, self.store, f"{side}.block{i}",
                                self.config.n_heads, pad_mask=mask)
        return h

    # -- encoder ----------------------------------------------------------------

    def encode_batch(self, batch: Batch) -> Tensor:
        """Per-orbit latents z (B, N, d_latent), zero on padded orbits."""
        st = self.store
        h_loc = embedding(st["enc.elem_emb"], batch.elem_idx)
        h_loc = h_loc + embedding(st["enc.wyck_emb"], batch.wyck_idx)
        f_in = Tensor(np.concatenate([batch.frac, batch.dof_mask], axis=-1))
        h_loc = h_loc + silu_mlp(
            f_in, st["enc.fmlp.w1"], st["enc.fmlp.b1"],
            st["enc.fmlp.w2"], st["enc.fmlp.b2"])
        ell_norm = self.normalize_lattice(batch.lattice)
        l_in = Tensor(np.concatenate([ell_norm, batch.lat_free], axis=-1))
        h_glob = embedding(st["enc.group_emb"], batch.groups - 1)
        h_glob = h_glob + silu_mlp(
            l_in, st["enc.lmlp.w1"], st["enc.lmlp.b1"],
            st["enc.lmlp.w2"], st["enc.lmlp.b2"])
        h = h_loc + h_glob.reshape(h_glob.shape[0], 1, h_glob.shape[1])
        h = self._run_blocks(h, "enc", batch.mask)
        z_raw = linear(h, st["enc.down.w"], st["enc.down.b"])
        z = z_raw / (1.0 + (z_raw * (1.0 / SATURATION)) ** 2).sqrt()
        return z * Tensor(batch.mask[:, :, None].astype(np.float64))

    def encode(self, asus: list[CrystalASU]) -> LatentBatch:
        batch = batchify(asus, self.catalog)
        with no_grad():
            z = self.encode_batch(batch)
        return LatentBatch(z=z.data, mask=batch.mask, groups=batch.groups)

    def encode_dataset(self, asus: list[CrystalASU]) -> list[np.ndarray]:
        """Frozen-encoder latents, one (orbits, d_latent) array per crystal.

        Each crystal is encoded on its own, so its latents do not depend on
        the rest of the data set."""
        return [self.encode([asu]).z[0] for asu in asus]

    # -- decoder ----------------------------------------------------------------

    def decode_heads(self, z: Tensor, groups: np.ndarray, mask: np.ndarray
                     ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Graph outputs: (wyckoff logits, atom logits, frac head, lattice head).

        Wyckoff logits are masked to each crystal's group before return.
        The lattice head operates on sum-pooled token states and returns the
        normalized 6-vector.
        """
        st = self.store
        h = linear(z, st["dec.up.w"], st["dec.up.b"])
        h = self._run_blocks(h, "dec", mask)
        wy = linear(h, st["dec.wyck.w"], st["dec.wyck.b"])
        start, stop = np.array(
            [self.catalog.mask_range(int(g)) for g in groups]).T
        column = np.arange(wy.shape[-1])
        inside = (column >= start[:, None]) & (column < stop[:, None])
        group_bias = np.where(inside, 0.0, NEG_INF)  # (B, 1731)
        wy = wy + Tensor(group_bias[:, None, :])
        atom = linear(h, st["dec.atom.w"], st["dec.atom.b"])
        frac = silu_mlp(h, st["dec.fmlp.w1"], st["dec.fmlp.b1"],
                        st["dec.fmlp.w2"], st["dec.fmlp.b2"])
        pooled = token_sum(h * Tensor(mask[:, :, None].astype(np.float64)),
                           axis=1)
        lat = silu_mlp(pooled, st["dec.lmlp.w1"], st["dec.lmlp.b1"],
                       st["dec.lmlp.w2"], st["dec.lmlp.b2"])
        return wy, atom, frac, lat

    def decode(self, latent: LatentBatch, rng: np.random.Generator,
               counters: dict | None = None) -> list[CrystalASU]:
        """Reconstruct asymmetric units from latents.

        Each discrete choice is drawn from its categorical head with `rng`,
        so the same latents and stream decode the same crystals. Zero-DOF
        positions are never chosen twice within one crystal (already-used
        slots are masked out, orbit by orbit), and each pick is one of the
        group's own positions. Decoding cannot fail: every group's general
        position has free parameters, so the no-repeat rule never masks it
        and every orbit has a pick. Pathology events (length clamps,
        closing-cell pulls) are tallied into `counters` when given.
        """
        with no_grad():
            wy_t, atom_t, frac_t, lat_t = self.decode_heads(
                Tensor(latent.z), latent.groups, latent.mask)
        lattice = self.denormalize_lattice(lat_t.data)
        return [self._assemble(int(g), wy_t.data[i], atom_t.data[i],
                               frac_t.data[i], lattice[i], latent.mask[i],
                               rng, counters)
                for i, g in enumerate(latent.groups)]

    def _assemble(self, group, wy_logits, atom_logits, frac, ell_pred,
                  mask, rng, counters) -> CrystalASU:
        entry = self.catalog.group(group)
        start, stop = self.catalog.mask_range(group)
        used_zero_dof: set[int] = set()
        sites = []
        for j in np.where(mask)[0]:
            # only the group's own columns; a pick indexes entry.wyckoff
            logits = wy_logits[j, start:stop].copy()
            for gi in used_zero_dof:
                logits[gi] = NEG_INF
            p = _softmax_1d(logits)
            pick = int(rng.choice(len(p), p=p))
            w = entry.wyckoff[pick]
            if w.dof == 0:
                used_zero_dof.add(pick)
            el = int(rng.choice(MAX_ELEMENT, p=_softmax_1d(atom_logits[j]))) + 1
            f = symcat.symmetrize_site(w, frac[j])
            sites.append(Site(element=el, wyckoff=w.letter, frac=f))
        if counters is not None and symcat.lattice_was_clamped(
                entry.lattice_class, ell_pred):
            counters["lattice_clamps"] = counters.get("lattice_clamps", 0) + 1
        ell = symcat.symmetrize_lattice(entry.lattice_class, ell_pred)
        closed = _ensure_closing_cell(ell, entry.lattice_class)
        if counters is not None and not np.array_equal(closed, ell):
            counters["closing_cell_pulls"] = counters.get(
                "closing_cell_pulls", 0) + 1
        return CrystalASU(spacegroup=group, sites=sites, lattice=closed)

    # -- loss ---------------------------------------------------------------

    def reconstruction_loss(self, batch: Batch, heads
                            ) -> tuple[Tensor, dict[str, float]]:
        """Weighted sum of the four reconstruction terms.

        Cross-entropies for atoms and (group-masked) Wyckoff labels, a
        periodic cosine loss on free fractional slots, and MSE on free
        lattice slots in normalized space. Constrained slots contribute
        exactly zero.
        """
        wy, atom, frac, lat = heads
        valid = batch.mask.astype(np.float64)
        l_atom = cross_entropy(atom, batch.elem_idx, batch.mask)
        l_wyck = cross_entropy(wy, batch.wyck_idx, batch.mask)

        free = Tensor(batch.dof_mask * valid[:, :, None])
        delta = frac - Tensor(batch.frac)
        per_slot = 1.0 - (delta * (2.0 * np.pi)).cos()
        denom = max(float(free.data.sum()), 1.0)
        l_frac = (per_slot * free).sum() / denom

        lat_free = Tensor(batch.lat_free)
        target_norm = Tensor(self.normalize_lattice(batch.lattice))
        dl = (lat - target_norm) * lat_free
        l_lat = (dl * dl).sum() / max(float(batch.lat_free.sum()), 1.0)

        total = (LAMBDA_ATOM * l_atom + LAMBDA_WYCKOFF * l_wyck
                 + LAMBDA_FRAC * l_frac + LAMBDA_LATTICE * l_lat)
        breakdown = {
            "atom": l_atom.item(), "wyckoff": l_wyck.item(),
            "frac": l_frac.item(), "lattice": l_lat.item(),
            "total": total.item(),
        }
        return total, breakdown

    # -- persistence ----------------------------------------------------------

    def save(self, path, seed: int | None = None) -> str:
        return self.store.save(path, config=asdict(self.config), seed=seed)

    @classmethod
    def load(cls, path, catalog: SymmetryCatalog) -> "Autoencoder":
        store, manifest = ParameterStore.load(path)
        return cls(config_from(AEConfig, manifest["config"], path), catalog,
                   store=store)


def _ensure_closing_cell(ell: np.ndarray, lattice_class) -> np.ndarray:
    """Pull free angles toward 90 degrees until the metric closes.

    Low-symmetry angle triples predicted far off-distribution can violate
    the cell-closure condition; like the length floor, this keeps decoding
    total while leaving in-distribution predictions untouched.
    """
    out = ell.copy()
    for _ in range(32):
        try:
            cr.lattice_matrix(out)
            return out
        except ValueError:
            out[3:] = 90.0 + 0.8 * (out[3:] - 90.0)
            out = symcat.symmetrize_lattice(lattice_class, out)
    out[3:] = 90.0
    return symcat.symmetrize_lattice(lattice_class, out)


def _softmax_1d(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def _nonzero_normal(rng: np.random.Generator, scale: float) -> float:
    """Gaussian draw excluding exactly zero (keeps special values unhit)."""
    while True:
        v = rng.normal(0.0, scale)
        if v != 0.0:
            return v


def augment(asu: CrystalASU, catalog: SymmetryCatalog,
            sigma_frac: float, sigma_length: float, sigma_angle: float,
            rng: np.random.Generator) -> CrystalASU:
    """Perturb only the unconstrained degrees of freedom.

    Free fractional parameters get additive Gaussian noise (wrapped mod 1),
    free lattice lengths multiplicative log-normal noise, free angles
    additive noise in degrees; everything is re-symmetrized afterwards.
    With no positive sigma it returns `asu` itself and draws nothing:
    `_perturbed` would rebuild it bitwise (the tests check every group).
    """
    if not (sigma_frac > 0 or sigma_length > 0 or sigma_angle > 0):
        return asu
    return _perturbed(asu, catalog, sigma_frac, sigma_length, sigma_angle,
                      rng)


def _perturbed(asu: CrystalASU, catalog: SymmetryCatalog,
               sigma_frac: float, sigma_length: float, sigma_angle: float,
               rng: np.random.Generator) -> CrystalASU:
    """`augment`'s perturbation, always into a new unit; it draws nothing
    for a zero sigma."""
    entry = catalog.group(asu.spacegroup)
    sites = []
    for site in asu.sites:
        w = entry.position(site.wyckoff)
        f = site.frac.copy()
        if sigma_frac > 0 and w.dof > 0:
            u = symcat.free_parameters(w, f)
            for col in range(3):
                if w.dof_mask[col]:
                    u[col] = (u[col] + _nonzero_normal(rng, sigma_frac)) % 1.0
            f = symcat.site_from_parameters(w, u)
        sites.append(Site(element=site.element, wyckoff=site.wyckoff, frac=f))
    ell = asu.lattice.copy()
    lc = entry.lattice_class
    for i in range(3):
        if lc.free_mask[i] and sigma_length > 0:
            ell[i] *= float(np.exp(_nonzero_normal(rng, sigma_length)))
    for i in range(3, 6):
        if lc.free_mask[i] and sigma_angle > 0:
            ell[i] += _nonzero_normal(rng, sigma_angle)
    ell = symcat.symmetrize_lattice(lc, ell)
    return CrystalASU(spacegroup=asu.spacegroup, sites=sites, lattice=ell)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def reconstruction_metrics(model: Autoencoder, asus: list[CrystalASU]
                           ) -> dict[str, float]:
    """Argmax accuracies and mean circular coordinate error on free slots."""
    batch = batchify(asus, model.catalog)
    with no_grad():
        z = model.encode_batch(batch)
        wy, atom, frac, _ = model.decode_heads(z, batch.groups, batch.mask)
    m = batch.mask
    atom_ok = (np.argmax(atom.data, axis=-1) == batch.elem_idx)[m]
    wyck_ok = (np.argmax(wy.data, axis=-1) == batch.wyck_idx)[m]
    d = np.abs(frac.data - batch.frac) % 1.0
    d = np.minimum(d, 1.0 - d)
    free = batch.dof_mask * m[:, :, None]
    total_free = free.sum()
    circ = float((d * free).sum() / total_free) if total_free else 0.0
    return {
        "atom_accuracy": float(atom_ok.mean()),
        "wyckoff_accuracy": float(wyck_ok.mean()),
        "circular_error": circ,
    }


def ae_train_step(model: Autoencoder, asus: list[CrystalASU],
                  step: int) -> dict[str, float]:
    """One optimizer step; randomness derives from (seed, step) only, so an
    interrupted run resumed from a checkpoint replays identical batches."""
    config = model.config
    rng = np.random.default_rng((config.seed, step))
    take = min(config.batch_size, len(asus))
    idx = rng.choice(len(asus), size=take, replace=False)
    noisy = [
        augment(asus[i], model.catalog, config.sigma_frac,
                config.sigma_length, config.sigma_angle, rng)
        for i in idx
    ]
    batch = batchify(noisy, model.catalog)
    model.store.zero_grad()
    z = model.encode_batch(batch)
    heads = model.decode_heads(z, batch.groups, batch.mask)
    loss, breakdown = model.reconstruction_loss(batch, heads)
    loss.backward()
    adam_step(model.store, lr=config.lr)
    return breakdown


def train_autoencoder(
    asus: list[CrystalASU],
    config: AEConfig,
    catalog: SymmetryCatalog,
    max_steps: int | None = None,
    log_every: int = 50,
    callback=None,
    model: Autoencoder | None = None,
) -> tuple[Autoencoder, list[dict]]:
    """Train on a dataset of asymmetric units; returns (model, loss log).

    Passing an existing model (loaded from a checkpoint) resumes training
    from its recorded step count with identical subsequent batches.
    """
    if model is None:
        model = Autoencoder(config, catalog)
    budget = max_steps if max_steps is not None else config.epochs * max(
        1, len(asus) // config.batch_size)
    history = run_steps(model.store, budget,
                        lambda step: ae_train_step(model, asus, step),
                        log_every, callback)
    return model, history
