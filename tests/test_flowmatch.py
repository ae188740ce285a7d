import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_asu
from symadit import flowmatch as fm
from symadit.autoencoder import AEConfig, Autoencoder
from symadit.flowmatch import (
    Denoiser,
    DenoiserConfig,
    EmpiricalPriors,
    SamplerConfig,
    euler_trajectory,
    fit_priors,
    interpolate,
    sample,
    target_field,
    train_step,
)
from symadit.nncore import CheckpointError, Tensor, no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# interpolation path and target field
# ---------------------------------------------------------------------------


def test_interpolate_endpoints(rng):
    z0 = rng.normal(size=(4, 8))
    z1 = rng.normal(size=(4, 8))
    assert np.array_equal(interpolate(z0, z1, 0.0), z0)
    assert np.array_equal(interpolate(z0, z1, 1.0), z1)
    assert np.allclose(interpolate(z0, z1, 0.5), 0.5 * (z0 + z1))


def test_interpolate_validation(rng):
    z = rng.normal(size=(2, 3))
    with pytest.raises(ValueError):
        interpolate(z, rng.normal(size=(3, 2)), 0.5)
    for bad in (1.5, np.array([0.5, 1.5]), np.array([np.nan, 0.5])):
        with pytest.raises(ValueError):
            interpolate(z, z, bad)


def test_interpolate_per_row_times(rng):
    z0, z1 = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
    t = np.array([0.0, 0.3, 1.0])
    out = interpolate(z0, z1, t)
    for i in range(3):
        assert np.array_equal(out[i], interpolate(z0[i], z1[i], t[i]))


def test_target_field_on_path_is_z1_minus_z0(rng):
    z0 = rng.normal(size=(3, 5))
    z1 = rng.normal(size=(3, 5))
    for t in (0.0, 0.25, 0.5, 0.9, 0.999):
        z_t = interpolate(z0, z1, t)
        assert np.allclose(target_field(z_t, z1, t), z1 - z0, atol=1e-9)


def test_target_field_at_clean_sample_is_zero(rng):
    z1 = rng.normal(size=(3, 5))
    assert np.allclose(target_field(z1.copy(), z1, 0.7), 0.0)


def test_target_field_rejects_t_one(rng):
    z = rng.normal(size=(2, 2))
    with pytest.raises(ValueError):
        target_field(z, z, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(0.0, 0.999),
    seed=st.integers(0, 10**6),
)
def test_field_on_path_property(t, seed):
    r = np.random.default_rng(seed)
    z0 = r.normal(size=(2, 4))
    z1 = r.normal(size=(2, 4))
    z_t = interpolate(z0, z1, t)
    assert np.allclose(target_field(z_t, z1, t), z1 - z0, atol=1e-8)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


def test_priors_single_crystal(catalog, rng):
    asu = random_asu(catalog, 14, rng)
    priors = fit_priors([asu])
    assert priors.p_group == {14: 1.0}
    assert priors.p_orbits_given_group[14] == {len(asu.sites): 1.0}


def test_priors_exact_fractions(catalog, rng):
    asus = ([random_asu(catalog, 225, rng, max_sites=1)] * 3
            + [random_asu(catalog, 1, rng, max_sites=2)] * 7)
    priors = fit_priors(asus)
    assert priors.p_group[225] == pytest.approx(0.3)
    assert priors.p_group[1] == pytest.approx(0.7)


def test_priors_empty_rejected():
    with pytest.raises(ValueError):
        fit_priors([])


def test_priors_json_roundtrip(catalog, rng):
    asus = [random_asu(catalog, g, rng) for g in (1, 2, 14, 14, 225)]
    priors = fit_priors(asus)
    back = EmpiricalPriors.from_json(priors.to_json())
    assert back.p_group == priors.p_group
    assert back.p_orbits_given_group == priors.p_orbits_given_group


@pytest.mark.parametrize("payload, problem", [
    ({}, 'expected an object with "G" and "O_given_G"'),
    ([1], 'expected an object with "G" and "O_given_G"'),
    ({"G": {"1": 0.5, "2": 0.5}, "O_given_G": {"1": {"1": 1.0}}},
     "group 2 has no O_given_G table"),
    ({"G": {"1": 0.0}, "O_given_G": {"1": {"1": 1.0}}},
     "G[1] weight 0.0 is not a positive finite number"),
    ({"G": {"1": 1.0}, "O_given_G": {"1": {"1": 0}}},
     "O_given_G[1][1] weight 0 is not a positive finite number"),
    ({"G": {"1": -1.0}, "O_given_G": {"1": {"1": 1.0}}},
     "G[1] weight -1.0 is not a positive finite number"),
    ({"G": {"1": 1.0, "2": -0.1}, "O_given_G": {"1": {"1": 1.0},
                                               "2": {"1": 1.0}}},
     "G[2] weight -0.1 is not a positive finite number"),
    ({"G": {"1": "0.5"}, "O_given_G": {"1": {"1": 1.0}}},
     "G[1] weight '0.5' is not a positive finite number"),
    ({"G": {"1": 1.0}, "O_given_G": {"1": [1]}},
     "O_given_G[1] is not a non-empty object"),
    ({"G": {"x": 1.0}, "O_given_G": {"1": {"1": 1.0}}},
     "G key 'x' is not a positive integer"),
    ({"G": {"231": 1.0}, "O_given_G": {"231": {"1": 1.0}}},
     "G names group 231, outside 1..230"),
    ({"G": {"1": 1.0}, "O_given_G": {"1": {"0": 1.0}}},
     "O_given_G[1] key '0' is not a positive integer"),
])
def test_priors_from_json_names_the_problem(payload, problem):
    with pytest.raises(ValueError) as refused:
        EmpiricalPriors.from_json(json.dumps(payload))
    assert problem in str(refused.value)


def test_prior_sampling_frequency_chi2(catalog, rng):
    # frequencies over 10k draws must be consistent with the priors
    priors = EmpiricalPriors(
        p_group={1: 0.5, 14: 0.3, 225: 0.2},
        p_orbits_given_group={1: {2: 1.0}, 14: {1: 1.0}, 225: {2: 1.0}},
    )
    draws = [priors.sample_group(rng) for _ in range(10000)]
    counts = {g: draws.count(g) for g in (1, 14, 225)}
    chi2 = sum(
        (counts[g] - 10000 * p) ** 2 / (10000 * p)
        for g, p in priors.p_group.items()
    )
    # chi-square with 2 dof, alpha = 0.01 -> critical value 9.21
    assert chi2 < 9.21


# ---------------------------------------------------------------------------
# denoiser and training step
# ---------------------------------------------------------------------------


class OracleDenoiser:
    """Test double returning a fixed target regardless of the input."""

    def __init__(self, target, d_latent):
        self.target = target
        self.config = DenoiserConfig.desk(d_latent=d_latent)

    def condition(self, t, cond_idx):
        return []

    def forward(self, z_t, cond, mask, self_cond=None):
        reps = np.broadcast_to(
            self.target, z_t.shape if self.target.ndim < 3 else self.target.shape)
        return Tensor(reps.copy())


def test_oracle_denoiser_zero_loss(rng):
    cfg = DenoiserConfig.desk(d_latent=4)
    z1 = rng.normal(size=(2, 3, 4))
    mask = np.ones((2, 3), dtype=bool)

    class Perfect(OracleDenoiser):
        def forward(self, z_t, cond, mask, self_cond=None):
            return Tensor(z1.copy())

    oracle = Perfect(z1, 4)
    oracle.store = None
    loss_val = None
    # reimplement the loss exactly as train_step computes it, oracle pred
    pred = oracle.forward(None, None, None).data
    loss_val = float(((pred - z1) ** 2).sum())
    assert loss_val == 0.0


def test_train_step_decreases_loss(rng):
    cfg = DenoiserConfig.desk(d_latent=4, n_layers=1, d_model=32,
                              n_heads=2, lr=2e-3, seed=0)
    den = Denoiser(cfg)
    z1 = rng.normal(size=(8, 2, 4))
    groups = np.full(8, 14, dtype=np.int64)
    mask = np.ones((8, 2), dtype=bool)
    first = np.mean([train_step(den, z1, groups, mask, rng) for _ in range(5)])
    for _ in range(150):
        train_step(den, z1, groups, mask, rng)
    last = np.mean([
        train_step(den, z1, groups, mask, rng, update=False) for _ in range(5)
    ])
    assert last < first


def test_loss_excludes_padding(rng):
    cfg = DenoiserConfig.desk(d_latent=4, n_layers=1, d_model=32, n_heads=2)
    den = Denoiser(cfg)
    z1 = rng.normal(size=(2, 3, 4))
    mask = np.array([[True, True, False], [True, False, False]])
    z1_masked = z1 * mask[:, :, None]
    groups = np.array([1, 2], dtype=np.int64)
    seed_rng = lambda: np.random.default_rng(99)
    base = train_step(den, z1_masked, groups, mask, seed_rng(), update=False)
    z1_junk = z1_masked.copy()
    z1_junk[~mask] = 1e6
    again = train_step(den, z1_junk, groups, mask, seed_rng(), update=False)
    assert base == again


def _reference_train_step(den, z1, groups, mask, rng):
    """train_step with the conditioning rebuilt for each forward."""
    cfg = den.config
    z0 = rng.standard_normal(z1.shape)
    t = rng.uniform(0.0, 1.0, size=z1.shape[0])
    z_t = fm.interpolate(z0, z1, t)
    drop = rng.uniform(size=z1.shape[0]) < cfg.cond_drop
    cond_idx = np.where(drop, fm.NULL_CONDITION, groups - 1)
    self_cond = None
    if rng.uniform() < cfg.self_cond_prob:
        with no_grad():
            first = den.forward(Tensor(z_t), den.condition(t, cond_idx), mask)
        self_cond = Tensor(first.data.copy())
    den.store.zero_grad()
    pred = den.forward(Tensor(z_t), den.condition(t, cond_idx), mask,
                       self_cond)
    diff = pred - Tensor(z1)
    m = Tensor(mask[:, :, None].astype(np.float64))
    loss = (diff * diff * m).sum() / max(float(mask.sum()) * z1.shape[-1], 1.0)
    loss.backward()
    fm.adam_step(den.store, lr=cfg.lr, warmup=cfg.warmup)
    return loss.item()


def test_train_step_conditions_once_and_matches_per_forward_conditioning(
        rng):
    cfg = DenoiserConfig.desk(d_latent=4, n_layers=2, d_model=32, n_heads=2)
    z1 = rng.normal(size=(3, 4, 4))
    mask = np.ones((3, 4), dtype=bool)
    mask[2, 2:] = False
    groups = np.array([14, 225, 2], dtype=np.int64)
    forwards_per_step = set()
    for seed in (5, 6):   # the self-conditioning coin lands on each side
        got, want = Denoiser(cfg), Denoiser(cfg)
        counting = CountingDenoiser(got)
        counting.store = got.store
        loss = train_step(counting, z1, groups, mask,
                          np.random.default_rng(seed))
        assert len(counting.conditions) == 1
        forwards_per_step.add(len(counting.forwards))
        ref = _reference_train_step(want, z1, groups, mask,
                                    np.random.default_rng(seed))
        assert loss == ref
        for name in got.store.names():
            assert np.array_equal(got.store[name].data, want.store[name].data)
    assert forwards_per_step == {1, 2}   # both self-conditioning branches


def test_self_conditioning_coin_rate(rng):
    # the 50% coin drives the double forward pass; count over many draws
    cfg = DenoiserConfig.desk(d_latent=2, n_layers=1, d_model=16, n_heads=2)
    taken = 0
    n = 10000
    check = np.random.default_rng(123)
    for _ in range(n):
        taken += check.uniform() < cfg.self_cond_prob
    # binomial 99.9% interval around 0.5 for n = 10000
    assert abs(taken / n - 0.5) < 0.017


def test_paper_profile_forward(catalog, rng):
    # paper widths and heads; one layer per stack keeps the test cheap
    ae = Autoencoder(AEConfig(n_layers=1), catalog)
    den = Denoiser(DenoiserConfig(n_layers=1, d_latent=ae.config.d_latent))
    asus = [random_asu(catalog, g, rng) for g in (2, 225)]
    latent = ae.encode(asus)
    cond = den.condition(np.array([0.3, 0.7]), latent.groups - 1)
    pred = den.forward(Tensor(latent.z), cond, latent.mask)
    assert pred.shape == latent.z.shape
    assert np.all(np.isfinite(pred.data))


# ---------------------------------------------------------------------------
# Euler sampler
# ---------------------------------------------------------------------------


def test_euler_reaches_fixed_oracle_target(rng):
    d = 6
    target = rng.normal(size=(1, 3, d))
    oracle = OracleDenoiser(target, d)
    mask = np.ones((1, 3), dtype=bool)
    for steps in (1, 10, 1000):
        cfg = SamplerConfig(steps=steps, cfg_scale=1.0, seed=0)
        z0 = rng.normal(size=(1, 3, d))
        out = euler_trajectory(oracle, z0, group=14, cfg=cfg, mask=mask)
        rel = np.linalg.norm(out - target) / np.linalg.norm(target)
        assert rel < 1e-9, f"steps={steps}: rel={rel}"


def test_cfg_scale_one_equals_conditional(rng):
    cfg = DenoiserConfig.desk(d_latent=4, n_layers=1, d_model=32, n_heads=2)
    den = Denoiser(cfg)
    z0 = rng.normal(size=(1, 2, 4))
    mask = np.ones((1, 2), dtype=bool)
    a = euler_trajectory(den, z0.copy(), 14,
                         SamplerConfig(steps=7, cfg_scale=1.0), mask)
    # conditional-only trajectory computed by hand
    z = z0.copy()
    prev = np.zeros_like(z)
    dt = 1.0 / 7
    for k in range(7):
        t = k * dt
        pred = den.forward(Tensor(z), den.condition(np.array([t]), [13]),
                           mask, Tensor(prev)).data
        z = z + dt * (pred - z) / (1.0 - t)
        prev = pred
    assert np.array_equal(a, z)


class CountingDenoiser:
    """Wraps a real denoiser; records the times and labels of each
    `condition` call and the rows of each `forward` call."""

    def __init__(self, den):
        self.den = den
        self.config = den.config
        self.conditions = []
        self.forwards = []

    def condition(self, t, cond_idx):
        self.conditions.append((np.array(t), np.array(cond_idx)))
        return self.den.condition(t, cond_idx)

    def forward(self, z_t, cond, mask, self_cond=None):
        self.forwards.append(z_t.shape[0])
        return self.den.forward(z_t, cond, mask, self_cond)


def _desk_denoiser(seed=0):
    return Denoiser(DenoiserConfig.desk(d_latent=4, seed=seed))


def _two_forward_trajectory(den, z, group, cfg, mask):
    """The sampler before batching: separate conditional and unconditional
    forwards per step."""
    dt = 1.0 / cfg.steps
    b = z.shape[0]
    cond = np.full(b, group - 1, dtype=np.int64)
    uncond = np.full(b, fm.NULL_CONDITION, dtype=np.int64)
    prev = np.zeros_like(z)
    for k in range(cfg.steps):
        t = k * dt
        tv = np.full(b, t)
        pred_c = den.forward(Tensor(z), den.condition(tv, cond), mask,
                             Tensor(prev)).data
        pred_u = den.forward(Tensor(z), den.condition(tv, uncond), mask,
                             Tensor(prev)).data
        combined = (1.0 - cfg.cfg_scale) * pred_u + cfg.cfg_scale * pred_c
        z = z + dt * (combined - z) / (1.0 - t)
        prev = combined
    return z


def _assert_one_condition_of_tiled_rows(counting, steps, labels):
    """One `condition` call: per step k, time k / steps on each label."""
    assert len(counting.conditions) == 1
    t, cond_idx = counting.conditions[0]
    assert t.tolist() == [k * (1.0 / steps) for k in range(steps)
                          for _ in labels]
    assert cond_idx.tolist() == labels * steps


def test_guided_trajectory_makes_one_forward_of_2b_rows(rng):
    counting = CountingDenoiser(_desk_denoiser())
    z0 = rng.normal(size=(2, 3, 4))
    mask = np.array([[True, True, True], [True, True, False]])
    euler_trajectory(counting, z0, 14, SamplerConfig(steps=5, cfg_scale=2.0),
                     mask)
    assert counting.forwards == [4] * 5
    _assert_one_condition_of_tiled_rows(
        counting, 5, [13] * 2 + [fm.NULL_CONDITION] * 2)


@pytest.mark.parametrize("cfg", [SamplerConfig(steps=5, cfg_scale=1.0),
                                 SamplerConfig(steps=5, condition=False)])
def test_unguided_trajectory_makes_one_forward_of_b_rows(rng, cfg):
    counting = CountingDenoiser(_desk_denoiser())
    z0 = rng.normal(size=(2, 3, 4))
    euler_trajectory(counting, z0, 14, cfg, np.ones((2, 3), dtype=bool))
    label = 13 if cfg.condition else fm.NULL_CONDITION
    assert counting.forwards == [2] * 5
    _assert_one_condition_of_tiled_rows(counting, 5, [label, label])


@pytest.mark.parametrize("b,n", [(1, 1), (1, 3), (1, 6), (2, 6)])
def test_guided_trajectory_matches_two_forward_loop(rng, b, n):
    den = _desk_denoiser(seed=3)
    z0 = rng.normal(size=(b, n, 4))
    mask = np.ones((b, n), dtype=bool)
    if b == 2:
        mask[1, 4:] = False
        z0[1, 4:] = 0.0
    cfg = SamplerConfig(steps=9, cfg_scale=2.0)
    got = euler_trajectory(den, z0.copy(), 14, cfg, mask)
    want = _two_forward_trajectory(den, z0.copy(), 14, cfg, mask)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 1e-12, rel


def test_unconditional_trajectory_is_bitwise_the_null_label_loop(rng):
    den = _desk_denoiser(seed=4)
    z0 = rng.normal(size=(1, 3, 4))
    mask = np.ones((1, 3), dtype=bool)
    a = euler_trajectory(den, z0.copy(), 14,
                         SamplerConfig(steps=7, condition=False), mask)
    z = z0.copy()
    prev = np.zeros_like(z)
    dt = 1.0 / 7
    for k in range(7):
        t = k * dt
        cond = den.condition(np.array([t]), [fm.NULL_CONDITION])
        pred = den.forward(Tensor(z), cond, mask, Tensor(prev)).data
        z = z + dt * (pred - z) / (1.0 - t)
        prev = pred
    assert np.array_equal(a, z)


def _per_step_trajectory(den, z, group, cfg, mask):
    """The oracle: the sampler's loop, conditioning each step's forward on
    that step's time only."""
    dt = 1.0 / cfg.steps
    b = z.shape[0]
    guided = cfg.condition and cfg.cfg_scale != 1.0
    labels = [group - 1 if cfg.condition else fm.NULL_CONDITION] * b
    if guided:
        labels += [fm.NULL_CONDITION] * b
        mask = np.concatenate([mask, mask])
    prev = np.zeros_like(z)
    for k in range(cfg.steps):
        t = k * dt
        z_in, prev_in = ((np.concatenate([z, z]), np.concatenate([prev, prev]))
                         if guided else (z, prev))
        with no_grad():
            cond = den.condition(np.full(len(labels), t), labels)
            pred = den.forward(Tensor(z_in), cond, mask, Tensor(prev_in)).data
        combined = ((1.0 - cfg.cfg_scale) * pred[b:] + cfg.cfg_scale * pred[:b]
                    if guided else pred)
        z = z + dt * (combined - z) / (1.0 - t)
        prev = combined
    return z


SAMPLING_MODES = {
    "guided": dict(cfg_scale=2.0),
    "unguided": dict(cfg_scale=1.0),
    "unconditional": dict(condition=False),
}


def _padded_batch(rng, b, n=5):
    z0 = rng.normal(size=(b, n, 4))
    mask = np.ones((b, n), dtype=bool)
    if b == 2:
        mask[1, 3:] = False
        z0[1, 3:] = 0.0
    return z0, mask


@pytest.mark.parametrize("steps", [1, 9])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("mode", sorted(SAMPLING_MODES))
def test_trajectory_is_bitwise_the_per_step_conditioning_loop(rng, mode, b,
                                                              steps):
    den = _desk_denoiser(seed=6)
    z0, mask = _padded_batch(rng, b)
    cfg = SamplerConfig(steps=steps, **SAMPLING_MODES[mode])
    got = euler_trajectory(den, z0.copy(), 14, cfg, mask)
    want = _per_step_trajectory(den, z0.copy(), 14, cfg, mask)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("steps_per_block,blocks", [(4, [4, 4, 1]),
                                                    (1, [1] * 9)])
@pytest.mark.parametrize("mode", sorted(SAMPLING_MODES))
def test_trajectory_conditions_in_blocks_under_the_byte_budget(
        rng, monkeypatch, mode, steps_per_block, blocks):
    den = _desk_denoiser(seed=7)
    z0, mask = _padded_batch(rng, 2)
    cfg = SamplerConfig(steps=9, **SAMPLING_MODES[mode])
    r = 4 if mode == "guided" else 2
    step_bytes = r * den.config.n_layers * 4 * den.config.d_model * 8
    # a budget just under the next whole step still holds steps_per_block
    monkeypatch.setattr(fm, "CONDITION_BLOCK_BYTES",
                        (steps_per_block + 1) * step_bytes - 1)
    counting = CountingDenoiser(den)
    got = euler_trajectory(counting, z0.copy(), 14, cfg, mask)
    assert counting.forwards == [r] * 9
    assert [len(t) for t, _ in counting.conditions] == [r * s for s in blocks]
    times = np.concatenate([t for t, _ in counting.conditions])
    assert times.tolist() == [k * (1.0 / 9) for k in range(9)
                              for _ in range(r)]
    want = _per_step_trajectory(den, z0.copy(), 14, cfg, mask)
    assert np.array_equal(got, want)


def test_forward_refuses_conditioning_for_other_rows(rng):
    den = _desk_denoiser()
    cond = den.condition(np.array([0.5]), [13])
    with pytest.raises(ValueError, match="conditioning for 1 rows"):
        den.forward(Tensor(rng.normal(size=(2, 3, 4))), cond,
                    np.ones((2, 3), dtype=bool))


def test_cfg_algebra(rng):
    # combined = uncond + gamma (cond - uncond)
    cond = rng.normal(size=(2, 3))
    uncond = rng.normal(size=(2, 3))
    gamma = 2.0
    combined = (1 - gamma) * uncond + gamma * cond
    assert np.allclose(combined, uncond + gamma * (cond - uncond), atol=1e-14)
    assert np.array_equal((1 - 0.0) * uncond + 0.0 * cond, uncond)


def test_sampler_determinism(catalog, rng):
    ae = Autoencoder(AEConfig.desk(d_latent=4, n_layers=1, d_model=32,
                                   n_heads=2, seed=1), catalog)
    den = Denoiser(DenoiserConfig.desk(d_latent=4, n_layers=1, d_model=32,
                                       n_heads=2, seed=2))
    priors = EmpiricalPriors(
        p_group={1: 0.6, 2: 0.4},
        p_orbits_given_group={1: {1: 0.5, 2: 0.5}, 2: {1: 1.0}},
    )
    cfg = SamplerConfig(steps=5, cfg_scale=2.0, seed=77)
    a, stats_a = sample(priors, cfg, den, ae, count=6)
    tally = {}
    b, stats_b = sample(priors, cfg, den, ae, count=6, counters=tally)
    assert set(tally) <= {"lattice_clamps", "closing_cell_pulls"}
    assert len(a) == len(b) == 6
    for x, y in zip(a, b):
        assert x.spacegroup == y.spacegroup
        assert np.array_equal(x.lattice, y.lattice)
        assert [s.wyckoff for s in x.sites] == [s.wyckoff for s in y.sites]
        assert [s.element for s in x.sites] == [s.element for s in y.sites]


def test_sampled_units_satisfy_invariants(catalog, rng):
    ae = Autoencoder(AEConfig.desk(d_latent=4, n_layers=1, d_model=32,
                                   n_heads=2, seed=1), catalog)
    den = Denoiser(DenoiserConfig.desk(d_latent=4, n_layers=1, d_model=32,
                                       n_heads=2, seed=2))
    priors = EmpiricalPriors(
        p_group={14: 0.5, 225: 0.5},
        p_orbits_given_group={14: {2: 1.0}, 225: {1: 0.5, 2: 0.5}},
    )
    asus, stats = sample(priors, SamplerConfig(steps=4, seed=3), den, ae,
                         count=10)
    assert len(asus) == stats.requested == 10
    assert stats.decode_rejections == stats.failures == 0
    for asu in asus:
        asu.validate(catalog)


def test_checkpoint_hash_guard(catalog, tmp_path):
    ae = Autoencoder(AEConfig.desk(d_latent=4, n_layers=1, d_model=32,
                                   n_heads=2, seed=1), catalog)
    ae_digest = ae.save(tmp_path / "ae.ckpt")
    den = Denoiser(DenoiserConfig.desk(d_latent=4, n_layers=1, d_model=32,
                                       n_heads=2), ae_checkpoint_hash=ae_digest)
    den.save(tmp_path / "fm.ckpt")
    loaded = Denoiser.load(tmp_path / "fm.ckpt")
    assert loaded.ae_checkpoint_hash == ae_digest


def test_check_pair_refuses_other_stage_one(catalog, tmp_path):
    small = dict(n_layers=1, d_model=32, n_heads=2)
    ae = Autoencoder(AEConfig.desk(d_latent=4, seed=1, **small), catalog)
    ae.save(tmp_path / "ae.ckpt")
    paired = Autoencoder.load(tmp_path / "ae.ckpt", catalog)
    den = Denoiser(DenoiserConfig.desk(d_latent=4, **small),
                   ae_checkpoint_hash=paired.store.checkpoint_hash)
    den.check_pair(paired)
    fresh = Autoencoder(AEConfig.desk(d_latent=4, seed=1, **small), catalog)
    with pytest.raises(CheckpointError, match="another stage-1"):
        den.check_pair(fresh)
    wide = Denoiser(DenoiserConfig.desk(d_latent=8, **small),
                    ae_checkpoint_hash=paired.store.checkpoint_hash)
    with pytest.raises(CheckpointError, match="latent dimension"):
        wide.check_pair(paired)
