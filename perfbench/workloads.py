"""The four workloads, each driven through the package's public API the way
the matching CLI command drives it.

A workload prepares its inputs from the seed (untimed), then `op(i)` runs
one operation and checks its outputs. Operations run one after another in a
single process: a closed loop with one client, so no layer has a queue and
no wait-time metric applies.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from symadit import autoencoder, cif, crystal, evalx, flowmatch
from symadit.autoencoder import AEConfig
from symadit.flowmatch import DenoiserConfig, SamplerConfig

import inputs
from setup_probe import load_generate_artifacts

DESK_BATCH = 32


@dataclass
class OpResult:
    items: int              # work units completed (steps, crystals, structures)
    attempted: int
    failed: int
    errors: list[str]       # correctness violations
    digest: str             # hash of the operation's outputs


def digest(payload) -> str:
    """Short hash of JSON-able or raw output, compared across runs."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def in_child(fn, *args):
    """fn(*args) computed in a fresh interpreter, which has ended when this
    returns. Inputs are built there, so that the memory their construction
    takes does not count in this process's peak, which is left to the
    program under test."""
    import symadit

    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
         str(Path(symadit.__file__).resolve().parents[1])],
        input=pickle.dumps((fn, args)), capture_output=True, timeout=600)
    if proc.returncode:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{fn.__name__} failed in a child process")
    return pickle.loads(proc.stdout)


def _ae_config(asus, seed: int) -> AEConfig:
    """`train-ae --profile desk`: batch 32, lattice statistics of the data."""
    lengths = np.log(np.concatenate([a.lattice[:3] for a in asus]))
    return AEConfig.desk(seed=seed, batch_size=DESK_BATCH,
                         length_log_mean=float(lengths.mean()),
                         length_log_std=max(float(lengths.std()), 1e-2))


def _encode_dataset(model, asus):
    """Frozen-encoder latents, one crystal at a time as `train-fm` does."""
    latents = []
    for asu in asus:
        lb = model.encode([asu])
        latents.append(lb.z[0][lb.mask[0]])
    groups = np.array([a.spacegroup for a in asus], dtype=np.int64)
    return latents, groups


class Workload:
    """Operations form a cycle of `cycle` distinct elements; `op(i)` runs
    element i % cycle, and every repetition of an element repeats its work
    and its output exactly."""

    name = ""
    unit = ""               # what one item is
    cycle = 1

    def __init__(self, catalog, seed: int, workdir: Path):
        self.catalog, self.seed, self.workdir = catalog, seed, workdir
        self.mark = lambda ident: None   # tags spans in a traced run

    def setup_args(self) -> list[str]:
        """Artifacts the set-up probe loads besides the catalog."""
        return []

    def named_metrics(self, times: list[float]) -> dict:
        """{metric: (value, unit)} of one cycle from its element times."""
        return {}


class Train(Workload):
    """`train-ae` then `train-fm`, each for STEPS desk steps at batch 32,
    from freshly initialised models, on the criterion-6 group mix. Each
    element is one optimizer step, run through the resume path of
    `train_autoencoder` / `train_denoiser`; the first denoiser step also
    encodes the data set, as `train-fm` does before training."""

    name = "train"
    unit = "optimizer steps"
    STEPS = 10
    cycle = 2 * STEPS

    def __init__(self, catalog, seed, workdir):
        super().__init__(catalog, seed, workdir)
        self.asus = in_child(inputs.with_default_catalog,
                             inputs.desk_dataset, seed)
        self.ae_config = _ae_config(self.asus, seed)
        self.fm_config = DenoiserConfig.desk(
            seed=seed, batch_size=DESK_BATCH,
            d_latent=self.ae_config.d_latent)

    def op(self, i: int) -> OpResult:
        k = i % self.cycle
        self.mark(f"round-{i // self.cycle}")
        if k < self.STEPS:
            self.model, log = autoencoder.train_autoencoder(
                self.asus, self.ae_config, self.catalog, max_steps=k + 1,
                log_every=1, model=self.model if k else None)
            loss, store = log[-1]["total"], self.model.store
        else:
            j = k - self.STEPS
            if j == 0:
                self.latents, self.groups = _encode_dataset(self.model,
                                                            self.asus)
            self.denoiser, log = flowmatch.train_denoiser(
                self.latents, self.groups, self.fm_config, max_steps=j + 1,
                log_every=1, denoiser=self.denoiser if j else None)
            loss, store = log[-1]["loss"], self.denoiser.store
        errors = []
        if not np.isfinite(loss):
            errors.append(f"step {k}: non-finite loss {loss}")
        if len(log) != 1 or store.step_count != k % self.STEPS + 1:
            errors.append(f"step {k}: reached step {store.step_count} "
                          f"with {len(log)} losses")
        return OpResult(items=1, attempted=1, failed=int(not np.isfinite(loss)),
                        errors=errors, digest=float(loss).hex())

    def named_metrics(self, times):
        ae, fm = times[:self.STEPS], times[self.STEPS:]
        return {"ae_train_steps_per_s": (len(ae) / sum(ae), "1/s"),
                "fm_train_steps_per_s": (len(fm) / sum(fm), "1/s")}


def train_generate_models(workdir: str) -> None:
    """Short fixed-seed training of both stages, written as `train-ae` and
    `train-fm` write it. Runs in a child process, so the parent's peak
    memory is that of generation alone; loads its own catalog there."""
    from symadit import default_catalog
    from symadit.nncore import checkpoint_hash

    catalog = default_catalog()
    out = Path(workdir)
    seed = Generate.MODEL_SEED
    asus = inputs.desk_dataset(catalog, seed)
    config = _ae_config(asus, seed)
    model, _ = autoencoder.train_autoencoder(
        asus, config, catalog, max_steps=Generate.PREP_STEPS)
    model.save(out / "ae.ckpt", seed=seed)
    latents, groups = _encode_dataset(model, asus)
    fm_config = DenoiserConfig.desk(seed=seed, batch_size=DESK_BATCH,
                                    d_latent=config.d_latent)
    denoiser, _ = flowmatch.train_denoiser(
        latents, groups, fm_config,
        ae_checkpoint_hash=checkpoint_hash(out / "ae.ckpt"),
        max_steps=Generate.PREP_STEPS)
    denoiser.save(out / "fm.ckpt", seed=seed)
    (out / "priors.json").write_text(
        flowmatch.fit_priors(asus).to_json() + "\n")


def _source_digest() -> str:
    """Hash of the package and benchmark sources and the numpy version."""
    import symadit

    h = hashlib.sha256(np.__version__.encode())
    for root in (Path(symadit.__file__).parent, Path(__file__).parent):
        for path in sorted(root.rglob("*")):
            if path.suffix in (".py", ".txt"):
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Generate(Workload):
    """`generate`: one crystal per element at T=50 and guidance scale 2,
    then `expand_asu` and `write_cif`. The models come from a fixed-seed
    training; sampler seeds follow the workload seed and the element, so
    the CRYSTALS elements draw different crystals."""

    name = "generate"
    unit = "crystals"
    CRYSTALS = 12
    cycle = CRYSTALS
    MODEL_SEED = 0
    PREP_STEPS = 40
    SAMPLER_STEPS = 50
    CFG_SCALE = 2.0

    def __init__(self, catalog, seed, workdir):
        super().__init__(catalog, seed, workdir)
        # the models depend only on the sources, so runs of one checkout
        # share them
        self.models = workdir.parent / f"generate-models-{_source_digest()}"
        if not self.models.is_dir():
            staging = workdir / "models"
            staging.mkdir()
            in_child(train_generate_models, str(staging))
            staging.rename(self.models)
        self.model, self.denoiser, self.priors = load_generate_artifacts(
            catalog, *self.setup_args())

    def setup_args(self):
        return [str(self.models / n) for n in ("ae.ckpt", "fm.ckpt",
                                               "priors.json")]

    def op(self, i: int) -> OpResult:
        k = i % self.cycle
        self.mark(f"crystal-{i}")
        cfg = SamplerConfig(steps=self.SAMPLER_STEPS, cfg_scale=self.CFG_SCALE,
                            seed=self.seed * 1_000_003 + k)
        asus, stats = flowmatch.sample(self.priors, cfg, self.denoiser,
                                       self.model, 1)
        errors, outputs = [], []
        for asu in asus:
            try:
                asu.validate(self.catalog)
            except ValueError as exc:
                errors.append(f"crystal {k}: {exc}")
            full = inputs.expanded(asu, self.catalog)
            text = cif.write_cif(full, name=f"gen-{k:05d}")
            outputs.append([crystal.asu_to_record(asu), text])
        if stats.failures:
            errors.append(f"crystal {k}: not produced in "
                          f"{cfg.max_attempts} attempts")
        return OpResult(
            items=len(asus), attempted=len(asus) + stats.decode_rejections,
            failed=stats.decode_rejections, errors=errors,
            digest=digest(outputs))

    def named_metrics(self, times):
        return {"generate_crystals_per_s": (len(times) / sum(times), "1/s")}


class Evaluate(Workload):
    """`evaluate`: the full pipeline on N_GEN generated against N_REF
    reference crystals, the 2:5 ratio of the 400 vs 1000 baseline at a
    size whose pipeline runs in about 3 s. N_DUP generated crystals repeat
    others and N_COPY copy reference crystals, so uniqueness and novelty
    are known. Matcher calls grow with N_GEN * N_REF but expansions with
    N_GEN + N_REF, so the matcher's share of the time is smaller here than
    at the baseline size."""

    name = "evaluate"
    unit = "generated crystals scored"
    N_GEN, N_REF, N_DUP, N_COPY = 60, 150, 10, 10

    def __init__(self, catalog, seed, workdir):
        super().__init__(catalog, seed, workdir)
        self.gen, self.ref, self.uniqueness, self.novelty = in_child(
            inputs.with_default_catalog, inputs.evaluation_sets, seed,
            self.N_GEN, self.N_REF, self.N_DUP, self.N_COPY)

    def op(self, i: int) -> OpResult:
        self.mark(f"evaluate-{i}")
        report = evalx.evaluate_pipeline(self.gen, self.ref, self.catalog)
        errors = []
        for what, got, want in (
                ("n_generated", report.n_generated, self.N_GEN),
                ("validity", report.structural_validity_rate, 100.0),
                ("uniqueness", report.uniqueness, self.uniqueness),
                ("novelty", report.novelty, self.novelty)):
            if got != want:
                errors.append(f"{what} {got}, expected {want}")
        return OpResult(items=self.N_GEN, attempted=self.N_GEN, failed=0,
                        errors=errors, digest=digest(report.to_json().encode()))

    def named_metrics(self, times):
        return {"evaluate_s": (times[0], "s")}


class Ingest(Workload):
    """`ingest` over a directory of CIF files: `read_cif` and
    `assign_wyckoff` per file, one file per element; the last element
    writes the pass's records with `write_dataset_jsonl`."""

    name = "ingest"
    unit = "structures"
    TOL = 1e-3          # the CLI default
    LATTICE_TOL = 1e-4  # CIF cells carry six decimals

    def __init__(self, catalog, seed, workdir):
        super().__init__(catalog, seed, workdir)
        self.asus, texts = in_child(inputs.with_default_catalog,
                                    inputs.desk_cifs, seed)
        self.cycle = len(self.asus)
        self.cif_dir = workdir / "cif"
        self.cif_dir.mkdir()
        for k, text in enumerate(texts):
            (self.cif_dir / f"s{k:03d}.cif").write_text(text)

    def op(self, i: int) -> OpResult:
        k = i % self.cycle
        if k == 0:
            self.files = sorted(self.cif_dir.glob("*.cif"))
            self.ingested, self.ids = [], []
        path = self.files[k]
        self.mark(f"{i}/{path.stem}")
        try:
            structure = cif.read_cif(path.read_text())
            asu = crystal.assign_wyckoff(
                structure, structure.spacegroup, self.catalog, tol=self.TOL)
        except (cif.CifError, crystal.IngestError) as exc:
            return OpResult(items=0, attempted=1, failed=1,
                            errors=[f"{path.name}: {exc}"], digest="")
        self.ingested.append(asu)
        self.ids.append(path.stem)
        output = crystal.asu_to_record(asu)
        if k == self.cycle - 1:
            out = self.workdir / "ingested.jsonl"
            crystal.write_dataset_jsonl(out, self.ingested, self.ids)
            output = [output, digest(out.read_bytes())]
        return OpResult(items=1, attempted=1, failed=0,
                        errors=self._round_trip_errors(k, asu),
                        digest=digest(output))

    def _round_trip_errors(self, k: int, got) -> list[str]:
        want = self.asus[k]
        errors = []
        if got.spacegroup != want.spacegroup:
            errors.append(f"s{k:03d}: group {got.spacegroup} != "
                          f"{want.spacegroup}")
        sites = sorted((s.element, s.wyckoff) for s in got.sites)
        if sites != sorted((s.element, s.wyckoff) for s in want.sites):
            errors.append(f"s{k:03d}: sites {sites} differ")
        if not np.allclose(got.lattice, want.lattice, rtol=0.0,
                           atol=self.LATTICE_TOL):
            errors.append(f"s{k:03d}: lattice {got.lattice} != {want.lattice}")
        return errors

    def named_metrics(self, times):
        return {"ingest_structures_per_s": (len(times) / sum(times), "1/s")}


WORKLOADS = {w.name: w for w in (Train, Generate, Evaluate, Ingest)}
