"""Stage 2: latent flow matching over frozen-encoder latents.

Straight-line interpolation between Gaussian noise and clean latents, a
clean-sample-predicting transformer denoiser with time/group conditioning
through adaptive layer norm, self-conditioning, classifier-free guidance
on the space group, empirical priors over (group, orbit count), and a
deterministic Euler sampler. The conditioning depends on (t, label) only:
`Denoiser.condition` computes it apart from the latent trunk, once per
training step and once per sampled trajectory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .autoencoder import Autoencoder, LatentBatch
from .crystal import CrystalASU
from .nncore import (
    CheckpointError,
    ParameterStore,
    Tensor,
    adam_step,
    add_attention_block,
    attention_block,
    block_modulations,
    concat,
    layer_norm,
    linear,
    no_grad,
    run_steps,
    silu_mlp,
)
# perfbench/layers.py traces these names here; the blocks reach them via nncore
from .nncore import adaln, mhsa  # noqa: F401
from .nncore.layers import Modulation
from .nncore.params import config_from
from .symcat import N_GROUPS

__all__ = [
    "Denoiser",
    "DenoiserConfig",
    "EmpiricalPriors",
    "SamplerConfig",
    "fit_priors",
    "interpolate",
    "sample",
    "target_field",
    "train_step",
]

NULL_CONDITION = N_GROUPS  # embedding row reserved for the unconditional path

# Bound on the bytes of adaLN modulations the sampler holds at once; a
# trajectory's conditioning is computed in blocks of steps under it.
CONDITION_BLOCK_BYTES = 8 * 2**20

# Per row, every block's ln1/ln2 modulations: a list over blocks of pairs of
# (gain, shift), each (R, 1, d_model).
Conditioning = list[tuple[Modulation, Modulation]]


# ---------------------------------------------------------------------------
# Priors over (G, O)
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalPriors:
    """Training-set frequencies of the space group and orbit count."""

    p_group: dict[int, float]
    p_orbits_given_group: dict[int, dict[int, float]]

    def sample_group(self, rng: np.random.Generator) -> int:
        groups = sorted(self.p_group)
        probs = np.array([self.p_group[g] for g in groups])
        return int(rng.choice(groups, p=probs / probs.sum()))

    def sample_orbits(self, group: int, rng: np.random.Generator) -> int:
        table = self.p_orbits_given_group[group]
        counts = sorted(table)
        probs = np.array([table[c] for c in counts])
        return int(rng.choice(counts, p=probs / probs.sum()))

    def to_json(self) -> str:
        payload = {
            "G": {str(g): p for g, p in sorted(self.p_group.items())},
            "O_given_G": {
                str(g): {str(o): p for o, p in sorted(t.items())}
                for g, t in sorted(self.p_orbits_given_group.items())
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EmpiricalPriors":
        """Read `to_json`'s layout. A malformed file raises ValueError naming
        the problem, before any crystal is drawn from it."""
        payload = json.loads(text)
        if not (isinstance(payload, dict) and "G" in payload
                and "O_given_G" in payload):
            raise ValueError('priors: expected an object with "G" and '
                             '"O_given_G"')
        p_group = _weights(payload["G"], "G")
        if max(p_group) > N_GROUPS:
            raise ValueError(f"priors: G names group {max(p_group)}, "
                             f"outside 1..{N_GROUPS}")
        tables = payload["O_given_G"]
        if not isinstance(tables, dict):
            raise ValueError('priors: "O_given_G" is not an object')
        p_orbits = {_positive_int(g, "O_given_G"):
                    _weights(t, f"O_given_G[{g}]") for g, t in tables.items()}
        for g in p_group:
            if g not in p_orbits:
                raise ValueError(f"priors: group {g} has no O_given_G table")
        return cls(p_group=p_group, p_orbits_given_group=p_orbits)


def _positive_int(key: str, where: str) -> int:
    if not (key.isdecimal() and int(key) >= 1):
        raise ValueError(f"priors: {where} key {key!r} is not a positive "
                         "integer")
    return int(key)


def _weights(table, where: str) -> dict[int, float]:
    """A JSON object of positive, finite weights keyed by positive integers."""
    if not isinstance(table, dict) or not table:
        raise ValueError(f"priors: {where} is not a non-empty object")
    out = {}
    for key, w in table.items():
        if (isinstance(w, bool) or not isinstance(w, (int, float))
                or not 0.0 < w < np.inf):
            raise ValueError(f"priors: {where}[{key}] weight {w!r} is not a "
                             "positive finite number")
        out[_positive_int(key, where)] = float(w)
    return out


def fit_priors(asus: list[CrystalASU]) -> EmpiricalPriors:
    """Normalized counts of groups and per-group orbit counts."""
    if not asus:
        raise ValueError("cannot fit priors on an empty dataset")
    g_counts: dict[int, int] = {}
    o_counts: dict[int, dict[int, int]] = {}
    for asu in asus:
        g = asu.spacegroup
        g_counts[g] = g_counts.get(g, 0) + 1
        table = o_counts.setdefault(g, {})
        n = len(asu.sites)
        table[n] = table.get(n, 0) + 1
    total = len(asus)
    return EmpiricalPriors(
        p_group={g: c / total for g, c in g_counts.items()},
        p_orbits_given_group={
            g: {o: c / g_counts[g] for o, c in table.items()}
            for g, table in o_counts.items()
        },
    )


# ---------------------------------------------------------------------------
# Interpolation path and target field
# ---------------------------------------------------------------------------


def interpolate(z0: np.ndarray, z1: np.ndarray, t) -> np.ndarray:
    """Convex combination (1 - t) z0 + t z1; t is a scalar or one time per
    row (leading axis) of z0."""
    if z0.shape != z1.shape:
        raise ValueError(f"shape mismatch {z0.shape} vs {z1.shape}")
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError(f"t={t} outside [0, 1]")
    t = t.reshape(t.shape + (1,) * (z0.ndim - t.ndim))
    return (1.0 - t) * z0 + t * z1


def target_field(z_t: np.ndarray, z1: np.ndarray, t: float) -> np.ndarray:
    """Conditional velocity (z1 - z_t) / (1 - t); undefined at t = 1."""
    if t >= 1.0:
        raise ValueError("target field is undefined at t = 1")
    return (z1 - z_t) / (1.0 - t)


# ---------------------------------------------------------------------------
# Denoiser
# ---------------------------------------------------------------------------


COND_DROP = 0.1        # share of training rows without their group label
SELF_COND_PROB = 0.5   # chance of a training step's self-conditioning pass
TIME_FEATURES = 64     # sinusoidal features of the time


@dataclass
class DenoiserConfig:
    d_latent: int = 32
    d_model: int = 512
    n_heads: int = 8           # head dim 64, as in the autoencoder
    n_layers: int = 12
    lr: float = 3e-4
    batch_size: int = 512
    epochs: int = 7000
    seed: int = 0

    @classmethod
    def desk(cls, **overrides) -> "DenoiserConfig":
        base = dict(d_model=128, d_latent=16, n_heads=4, n_layers=2,
                    batch_size=32, epochs=200)
        base.update(overrides)
        return cls(**base)


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of the scalar time in [0, 1]."""
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    angles = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


class Denoiser:
    """Clean-sample predictor: tokens are per-orbit latents; time and group
    conditioning enter every block through adaptive layer norm."""

    def __init__(self, config: DenoiserConfig,
                 store: ParameterStore | None = None,
                 ae_checkpoint_hash: str | None = None):
        self.config = config
        self.store = store if store is not None else self._build(config)
        self.ae_checkpoint_hash = ae_checkpoint_hash

    @staticmethod
    def _build(cfg: DenoiserConfig) -> ParameterStore:
        st = ParameterStore(seed=cfg.seed)
        dm, d = cfg.d_model, cfg.d_latent
        # input projection consumes [z_t, self_cond]
        st.add("in.w", (2 * d, dm))
        st.add("in.b", (dm,), scale=0.0)
        st.add("group_emb", (N_GROUPS + 1, dm), scale=0.02)
        st.add("time.w1", (TIME_FEATURES, dm))
        st.add("time.b1", (dm,), scale=0.0)
        st.add("time.w2", (dm, dm))
        st.add("time.b2", (dm,), scale=0.0)
        for i in range(cfg.n_layers):
            add_attention_block(st, f"block{i}", dm, adaptive=True)
        st.add("out.g", (dm,), scale=0.0)
        st.add("out.b", (dm,), scale=0.0)
        st.add("out.w", (dm, d))
        st.add("out.bias", (d,), scale=0.0)
        return st

    def condition(self, t: np.ndarray, cond_idx: np.ndarray) -> Conditioning:
        """Every block's adaLN modulations for times t (R,) and labels
        cond_idx (R,); cond_idx uses NULL_CONDITION for the unconditional
        path. Time embedding, time MLP, group embedding and the blocks'
        modulation maps all live here, so `forward` runs the latent trunk
        only."""
        st, cfg = self.store, self.config
        t_feat = Tensor(time_embedding(t, TIME_FEATURES))
        cond = silu_mlp(t_feat, st["time.w1"], st["time.b1"],
                        st["time.w2"], st["time.b2"])
        cond = cond + st["group_emb"][np.asarray(cond_idx, dtype=np.int64)]
        return [block_modulations(cond, st, f"block{i}")
                for i in range(cfg.n_layers)]

    def forward(self, z_t: Tensor, cond: Conditioning, mask: np.ndarray,
                self_cond: Tensor | None = None) -> Tensor:
        """Predict the clean latents of z_t (B, N, d) under `condition`'s
        output for the same B rows; mask (B, N)."""
        st, cfg = self.store, self.config
        b, n, d = z_t.shape
        if cond[0][0][0].shape[0] != b:   # block 0, ln1, gain
            raise ValueError(f"conditioning for {cond[0][0][0].shape[0]} "
                             f"rows, latents for {b}")
        if self_cond is None:
            self_cond = Tensor(np.zeros((b, n, d)))
        x = concat([z_t, self_cond], axis=-1)
        h = linear(x, st["in.w"], st["in.b"])
        for i in range(cfg.n_layers):
            h = attention_block(h, st, f"block{i}", cfg.n_heads, mask,
                                cond[i])
        h = layer_norm(h, st["out.g"] + 1.0, st["out.b"])
        out = linear(h, st["out.w"], st["out.bias"])
        if mask.all():       # multiplying by 1 changes no bit
            return out
        return out * Tensor(mask[:, :, None].astype(np.float64))

    def save(self, path, seed: int | None = None) -> str:
        cfg = asdict(self.config)
        cfg["ae_checkpoint_hash"] = self.ae_checkpoint_hash
        return self.store.save(path, config=cfg, seed=seed)

    @classmethod
    def load(cls, path) -> "Denoiser":
        store, manifest = ParameterStore.load(path)
        cfg_dict = dict(manifest["config"])
        ae_hash = cfg_dict.pop("ae_checkpoint_hash", None)
        return cls(config_from(DenoiserConfig, cfg_dict, path), store=store,
                   ae_checkpoint_hash=ae_hash)

    def check_pair(self, autoencoder: Autoencoder) -> None:
        """Refuse a stage-1 model other than the checkpoint this denoiser was
        trained against, or one with another latent width."""
        if self.ae_checkpoint_hash != autoencoder.store.checkpoint_hash:
            raise CheckpointError("the denoiser was trained against another "
                                  "stage-1 checkpoint; refusing")
        if self.config.d_latent != autoencoder.config.d_latent:
            raise CheckpointError("latent dimension mismatch between stages")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_step(denoiser: Denoiser, z1: np.ndarray, groups: np.ndarray,
               mask: np.ndarray, rng: np.random.Generator) -> float:
    """One optimization step of clean-sample regression.

    Draws noise and a uniform time, interpolates, applies the 50%
    self-conditioning coin (first prediction gradient-detached) and the
    condition-dropout coin, then regresses the masked MSE to z1.
    """
    b, n, d = z1.shape
    z0 = rng.standard_normal(z1.shape)
    t = rng.uniform(0.0, 1.0, size=b)
    z_t = interpolate(z0, z1, t)

    cond_idx = groups.astype(np.int64) - 1
    drop = rng.uniform(size=b) < COND_DROP
    cond_idx = np.where(drop, NULL_CONDITION, cond_idx)

    cond = denoiser.condition(t, cond_idx)
    self_cond = None
    if rng.uniform() < SELF_COND_PROB:
        with no_grad():
            first = denoiser.forward(Tensor(z_t), cond, mask)
        self_cond = Tensor(first.data.copy())

    denoiser.store.zero_grad()
    pred = denoiser.forward(Tensor(z_t), cond, mask, self_cond)
    diff = pred - Tensor(z1)
    m = Tensor(mask[:, :, None].astype(np.float64))
    denom = max(float(mask.sum()) * d, 1.0)
    loss = (diff * diff * m).sum() / denom
    loss.backward()
    adam_step(denoiser.store, lr=denoiser.config.lr)
    return loss.item()


def train_denoiser(
    latents: list[np.ndarray],
    groups: np.ndarray,
    config: DenoiserConfig,
    ae_checkpoint_hash: str | None = None,
    max_steps: int | None = None,
    log_every: int = 50,
    callback=None,
    denoiser: Denoiser | None = None,
) -> tuple[Denoiser, list[dict]]:
    """Train on encoder outputs (one (N_i, d) array per crystal); returns
    (denoiser, loss log), and calls callback(step, row) per logged row.

    Per-step randomness derives from (seed, step); resuming a loaded
    denoiser continues the exact same sequence.
    """
    if denoiser is None:
        denoiser = Denoiser(config, ae_checkpoint_hash=ae_checkpoint_hash)
    n_data = len(latents)
    budget = max_steps if max_steps is not None else config.epochs * max(
        1, n_data // config.batch_size)

    def one_step(step: int) -> dict:
        rng = np.random.default_rng((config.seed, step))
        take = min(config.batch_size, n_data)
        idx = rng.choice(n_data, size=take, replace=False)
        z1, mask = _pad_latents([latents[i] for i in idx], config.d_latent)
        return {"loss": train_step(denoiser, z1, groups[idx], mask, rng)}

    history = run_steps(denoiser.store, budget, one_step, log_every, callback)
    return denoiser, history


def _pad_latents(per_crystal: list[np.ndarray], d: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    b = len(per_crystal)
    n = max(z.shape[0] for z in per_crystal)
    z1 = np.zeros((b, n, d))
    mask = np.zeros((b, n), dtype=bool)
    for i, z in enumerate(per_crystal):
        z1[i, : z.shape[0]] = z
        mask[i, : z.shape[0]] = True
    return z1, mask


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass
class SamplerConfig:
    steps: int = 1000
    cfg_scale: float = 2.0
    seed: int = 0
    condition: bool = True     # space-group conditioning on/off (ablation)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("sampler needs at least one integration step")


@dataclass
class SampleStats:
    """What `sample` was asked for. Decoding is total, so every requested
    crystal is produced: `decode_rejections` and `failures` are always 0.
    They stay only because the benchmark (perfbench's `generate` workload
    and its sample counters) reads them; nothing else does."""

    requested: int = 0
    decode_rejections: int = 0
    failures: int = 0


def euler_trajectory(denoiser: Denoiser, z: np.ndarray, group: int,
                     cfg: SamplerConfig, mask: np.ndarray) -> np.ndarray:
    """Integrate d z / d t = (z_pred - z) / (1 - t) over T uniform steps.

    t runs over {0, dt, ..., 1 - dt}; the last step lands exactly on the
    prediction, so the 1/(1 - t) singularity at t = 1 is never evaluated.
    Self-conditioning feeds the previous combined prediction. Under
    guidance each step makes one forward over 2B rows: the conditional
    rows, then the unconditional rows.

    The conditioning depends only on the step's time and the labels, so it
    is computed once per trajectory, in blocks of steps whose modulations
    fit CONDITION_BLOCK_BYTES; each step's forward runs the latent trunk
    on its slice of the table.
    """
    t_steps = cfg.steps
    dt = 1.0 / t_steps
    b = z.shape[0]
    guided = cfg.condition and cfg.cfg_scale != 1.0
    labels = [group - 1 if cfg.condition else NULL_CONDITION] * b
    if guided:
        labels += [NULL_CONDITION] * b
        mask = np.concatenate([mask, mask])
    cond_idx = np.array(labels, dtype=np.int64)
    r = len(cond_idx)
    # per row and block, a (gain, shift) pair of d_model floats for each norm
    step_bytes = r * denoiser.config.n_layers * 4 * denoiser.config.d_model * 8
    per_block = max(1, CONDITION_BLOCK_BYTES // step_bytes)
    prev = np.zeros_like(z)
    for k in range(t_steps):
        if k % per_block == 0:
            steps = np.arange(k, min(k + per_block, t_steps))
            with no_grad():
                table = denoiser.condition(np.repeat(steps * dt, r),
                                           np.tile(cond_idx, len(steps)))
        row = k % per_block * r
        t = k * dt
        z_in, prev_in = ((np.concatenate([z, z]), np.concatenate([prev, prev]))
                         if guided else (z, prev))
        with no_grad():
            pred = denoiser.forward(Tensor(z_in), _rows(table, row, row + r),
                                    mask, Tensor(prev_in)).data
        combined = ((1.0 - cfg.cfg_scale) * pred[b:] + cfg.cfg_scale * pred[:b]
                    if guided else pred)
        z = z + dt * (combined - z) / (1.0 - t)
        prev = combined
    return z


def _rows(cond: Conditioning, start: int, stop: int) -> Conditioning:
    """Rows start:stop of a conditioning table, off the tape."""
    return [tuple((Tensor._make(gain.data[start:stop], (), None),
                   Tensor._make(shift.data[start:stop], (), None))
                  for gain, shift in block)
            for block in cond]


def sample(
    priors: EmpiricalPriors,
    sampler_cfg: SamplerConfig,
    denoiser: Denoiser,
    autoencoder: Autoencoder,
    count: int,
    counters: dict | None = None,
) -> tuple[list[CrystalASU], SampleStats]:
    """Draw crystals, each in one pass: (G, O) from the priors, latents
    from the flow, the asymmetric unit from the decoder, which cannot fail.
    The decoder's pathology events are tallied into `counters` when given."""
    rng = np.random.default_rng(sampler_cfg.seed)
    d = denoiser.config.d_latent
    out: list[CrystalASU] = []
    for _ in range(count):
        group = priors.sample_group(rng)
        n_orbits = priors.sample_orbits(group, rng)
        z0 = rng.standard_normal((1, n_orbits, d))
        mask = np.ones((1, n_orbits), dtype=bool)
        z1 = euler_trajectory(denoiser, z0, group, sampler_cfg, mask)
        latent = LatentBatch(z=z1, mask=mask,
                             groups=np.array([group], dtype=np.int64))
        out += autoencoder.decode(latent, rng, counters)
    return out, SampleStats(requested=count)
