"""Command-line surface: catalog validation, dataset ingestion, two-stage
training, generation, evaluation, and latent export.

Every command writes a manifest (resolved config, seed, toolkit version,
input hashes) next to its outputs. Exit codes: 0 ok, 1 usage, 2 validation
failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import cif as cifio
from . import crystal as cr
from . import evalx, symcat
from .autoencoder import (
    AEConfig,
    Autoencoder,
    reconstruction_metrics,
    train_autoencoder,
)
from .crystal import CrystalASU, MatchParams
from .flowmatch import (
    Denoiser,
    DenoiserConfig,
    EmpiricalPriors,
    SamplerConfig,
    fit_priors,
    sample,
    train_denoiser,
)
from .nncore import checkpoint_hash
from .symcat import CatalogError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bounded(kind, low, what: str):
    """argparse type: a finite number of `kind` above `low`, else `what`
    is the usage error's complaint."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = low
        if not low < value < np.inf:   # false for nan too
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_positive_int = _bounded(int, 0, "a positive integer")       # counts
_seed = _bounded(int, -1, "a non-negative integer")          # --seed
_positive_float = _bounded(float, 0.0, "positive and finite")  # rates, tols
_finite_float = _bounded(float, -np.inf, "finite")           # --cfg-scale


def _write_manifest(out_dir: Path, command: str, config: dict,
                    seed: int | None, **extra) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        **extra,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_catalog(args) -> symcat.SymmetryCatalog:
    if getattr(args, "catalog", None):
        return symcat.load_catalog(args.catalog)
    return symcat.default_catalog()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    t0 = time.time()
    catalog = _load_catalog(args)
    rng = np.random.default_rng(args.seed)

    # group closure on sampled groups
    for g in rng.choice(230, size=20, replace=False) + 1:
        entry = catalog.group(int(g))
        ops = set(entry.operations)
        for a in entry.operations:
            for b in entry.operations:
                if a.compose(b) not in ops:
                    raise CatalogError(
                        f"group {g}: operations not closed under composition")

    # multiplicity oracle across every position
    for entry in catalog.groups:
        for w in entry.wyckoff:
            u = rng.uniform(0.05, 0.95, size=3)
            f = symcat.symmetrize_site(w, u)
            pts = symcat.orbit_expand(entry, w, f)
            if len(pts) != w.multiplicity:
                raise CatalogError(
                    f"{w.key}: orbit size {len(pts)} != {w.multiplicity}")

    n_pos = len(catalog.positions)
    print(f"{len(catalog)} groups, {n_pos} positions, OK "
          f"({time.time() - t0:.1f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    t0 = time.perf_counter()
    catalog = _load_catalog(args)
    out_path = Path(args.out)
    in_path = Path(args.input)
    sg_table = json.loads(Path(args.sg_table).read_text()) if args.sg_table else {}
    if not isinstance(sg_table, dict):
        raise ValueError(f"--sg-table {args.sg_table} is not a JSON object")
    for name, sg in sg_table.items():
        if type(sg) is not int or not 1 <= sg <= 230:   # bool is not int
            raise ValueError(f"--sg-table: {name!r} maps to {sg!r}, not a "
                             "space group number")

    asus, ids = [], []
    skipped = dict.fromkeys(("cif_parse", "missing_space_group",
                             "wyckoff_assignment", "invalid_record"), 0)
    if in_path.is_dir():
        files = sorted(in_path.glob("*.cif"))
        if not files:
            raise UsageError(f"no .cif files under {in_path}")
        structures = []
        for f in files:
            try:
                structure = cifio.read_cif(f.read_text())
            except (cifio.CifError, UnicodeDecodeError):
                skipped["cif_parse"] += 1
                continue
            sg = structure.spacegroup or sg_table.get(f.name)
            if sg is None:
                skipped["missing_space_group"] += 1
                continue
            structures.append((f.stem, structure, sg))
        t1 = time.perf_counter()
        for stem, structure, sg in structures:
            try:
                asu = cr.assign_wyckoff(structure, sg, catalog, tol=args.tol)
            except cr.IngestError:
                skipped["wyckoff_assignment"] += 1
                continue
            asus.append(asu)
            ids.append(stem)
    else:
        for rec_idx, (_, line) in enumerate(cr.dataset_lines(in_path)):
            try:
                asu = cr.parse_record(line)
                asu.validate(catalog)
            except ValueError:
                skipped["invalid_record"] += 1
                continue
            asus.append(asu)
            ids.append(str(rec_idx))
        t1 = time.perf_counter()  # records carry their Wyckoff letters
    t2 = time.perf_counter()

    if not asus:
        print("ingest: no structure survived", file=sys.stderr)
        return EXIT_VALIDATION
    out_path.parent.mkdir(parents=True, exist_ok=True)
    cr.write_dataset_jsonl(out_path, asus, ids)
    t3 = time.perf_counter()
    mean_tokens = float(np.mean([len(a.sites) for a in asus]))
    stats = {
        "ingested": len(asus),
        "skipped": skipped,
        "mean_tokens_per_sample": mean_tokens,
    }
    _write_manifest(out_path.parent, "ingest",
                    {"input": str(in_path), "tol": args.tol},
                    None, stats=stats, output_hash=checkpoint_hash(out_path),
                    timings={"read_s": t1 - t0, "assign_s": t2 - t1,
                             "write_s": t3 - t2})
    print(f"ingested {len(asus)} structures "
          f"(mean tokens/sample {mean_tokens:.2f}, "
          f"skipped {sum(skipped.values())})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-ae / train-fm
# ---------------------------------------------------------------------------


def _training_kwargs(args) -> dict:
    """The training flags the user gave; the profile supplies the rest."""
    given = dict(seed=args.seed, lr=args.lr, batch_size=args.batch_size,
                 epochs=args.epochs)
    return {key: value for key, value in given.items() if value is not None}


def _lattice_stats(asus: list[CrystalASU]) -> tuple[float, float]:
    lengths = np.log(np.concatenate([a.lattice[:3] for a in asus]))
    std = float(lengths.std())
    return float(lengths.mean()), max(std, 1e-2)


@contextmanager
def _loss_log(path: Path, resume: bool, columns: list[str]):
    """Yield a training callback that writes one CSV row per logged step;
    a resumed run appends to the log it continues."""
    mode = "a" if resume and path.exists() else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(["step", *columns])
        yield lambda step, row: writer.writerow(
            [step] + [row[c] for c in columns])


def cmd_train_ae(args) -> int:
    catalog = _load_catalog(args)
    asus = cr.read_dataset_jsonl(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    kwargs = _training_kwargs(args)
    config = (AEConfig.desk(**kwargs) if args.profile == "desk"
              else AEConfig(**kwargs))
    if args.resume:
        model = Autoencoder.load(args.resume, catalog, resume=True)
        config = model.config
    else:
        mu, sd = _lattice_stats(asus)
        config.length_log_mean, config.length_log_std = mu, sd
        model = None

    with _loss_log(out_dir / "loss_ae.csv", args.resume,
                   ["total", "atom", "wyckoff", "frac", "lattice"]) as log:
        model, _ = train_autoencoder(
            asus, config, catalog, max_steps=args.steps,
            log_every=args.log_every, callback=log, model=model)

    ckpt = out_dir / "ae.ckpt"
    digest = model.save(ckpt, seed=config.seed)
    metrics = reconstruction_metrics(model, asus)
    _write_manifest(out_dir, "train-ae", asdict(config), config.seed,
                    checkpoint_hash=digest, metrics=metrics,
                    data_hash=checkpoint_hash(args.data))
    print(f"trained {model.store.step_count} steps; "
          f"atom acc {metrics['atom_accuracy']:.3f}, "
          f"wyckoff acc {metrics['wyckoff_accuracy']:.3f}, "
          f"circ err {metrics['circular_error']:.4f}")
    return EXIT_OK


def cmd_train_fm(args) -> int:
    catalog = _load_catalog(args)
    asus = cr.read_dataset_jsonl(args.data)
    model = Autoencoder.load(args.ae, catalog)
    ae_hash = model.store.checkpoint_hash
    kwargs = dict(_training_kwargs(args), d_latent=model.config.d_latent)
    config = (DenoiserConfig.desk(**kwargs) if args.profile == "desk"
              else DenoiserConfig(**kwargs))
    denoiser = None
    if args.resume:
        denoiser = Denoiser.load(args.resume, resume=True)
        denoiser.check_pair(model)
        config = denoiser.config
    latents = model.encode_dataset(asus)
    groups = np.array([a.spacegroup for a in asus], dtype=np.int64)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _loss_log(out_dir / "loss_fm.csv", args.resume, ["loss"]) as log:
        denoiser, history = train_denoiser(
            latents, groups, config, ae_checkpoint_hash=ae_hash,
            max_steps=args.steps, log_every=args.log_every, callback=log,
            denoiser=denoiser)

    priors = fit_priors(asus)
    (out_dir / "priors.json").write_text(priors.to_json() + "\n")
    digest = denoiser.save(out_dir / "fm.ckpt", seed=config.seed)
    _write_manifest(out_dir, "train-fm", asdict(config), config.seed,
                    checkpoint_hash=digest, ae_checkpoint_hash=ae_hash,
                    data_hash=checkpoint_hash(args.data))
    print(f"trained {denoiser.store.step_count} steps; "
          f"final loss {history[-1]['loss']:.4f}" if history else "no steps")
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate / evaluate / export-latents
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    priors_path = Path(args.priors or Path(args.fm).parent / "priors.json")
    priors = EmpiricalPriors.from_json(priors_path.read_text())
    catalog = _load_catalog(args)
    model = Autoencoder.load(args.ae, catalog)
    denoiser = Denoiser.load(args.fm)
    denoiser.check_pair(model)

    cfg = SamplerConfig(steps=args.steps, cfg_scale=args.cfg_scale,
                        seed=args.seed, condition=not args.no_condition)
    t1 = time.perf_counter()
    counters = dict.fromkeys(("lattice_clamps", "closing_cell_pulls",
                              "degenerate_orbits"), 0)
    asus, _ = sample(priors, cfg, denoiser, model, args.count, counters)
    t2 = time.perf_counter()

    out_dir = Path(args.out)
    cif_dir = out_dir / "cif"
    cif_dir.mkdir(parents=True, exist_ok=True)
    cr.write_dataset_jsonl(out_dir / "generated.jsonl", asus,
                           [f"gen-{i:05d}" for i in range(len(asus))])
    for i, orbits in enumerate(cr.expand_orbits(asus, catalog)):
        counters["degenerate_orbits"] += orbits.degenerate
        (cif_dir / f"gen-{i:05d}.cif").write_text(
            cifio.write_cif(orbits.cell(), name=f"gen-{i:05d}"))
    t3 = time.perf_counter()
    _write_manifest(
        out_dir, "generate",
        {"steps": cfg.steps, "cfg_scale": cfg.cfg_scale,
         "condition": cfg.condition, "count": args.count},
        cfg.seed,
        timings={"load_s": t1 - t0, "sample_s": t2 - t1, "write_s": t3 - t2},
        counters=counters,
        ae_checkpoint_hash=denoiser.ae_checkpoint_hash)
    print(f"generated {len(asus)} crystals")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    catalog = _load_catalog(args)
    gen = cr.read_dataset_jsonl(args.gen)
    train = cr.read_dataset_jsonl(args.train)
    params = MatchParams(ltol=args.ltol, stol=args.stol,
                         angle_tol=args.angle_tol)
    t1 = time.perf_counter()
    counters: dict = {}
    report = evalx.evaluate_pipeline(
        gen, train, catalog, params=params,
        n_novelty=args.n_novelty, seed=args.seed, counters=counters)
    t2 = time.perf_counter()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json() + "\n")
    t3 = time.perf_counter()
    _write_manifest(out.parent, "evaluate",
                    {"ltol": args.ltol, "stol": args.stol,
                     "angle_tol": args.angle_tol,
                     "n_novelty": args.n_novelty},
                    args.seed,
                    timings={"load_s": t1 - t0, "evaluate_s": t2 - t1,
                             "write_s": t3 - t2},
                    counters=counters,
                    gen_hash=checkpoint_hash(args.gen),
                    train_hash=checkpoint_hash(args.train))
    print(report.to_table())
    return EXIT_OK


def cmd_export_latents(args) -> int:
    catalog = _load_catalog(args)
    model = Autoencoder.load(args.ae, catalog)
    asus = cr.read_dataset_jsonl(args.data)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["spacegroup"] + [f"z{i}" for i in range(model.config.d_latent)])
        for asu, z in zip(asus, model.encode_dataset(asus)):
            writer.writerow([asu.spacegroup]
                            + [f"{v:.8f}" for v in z.mean(axis=0)])
    print(f"wrote {len(asus)} latent rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="symadit",
                description="symmetry-constrained crystal generation toolkit")
    p.add_argument("--catalog", help="override the built-in symmetry catalog "
                   "(or set $SYMADIT_CATALOG)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="validate the symmetry catalog")
    c.add_argument("--seed", type=_seed, default=0)
    c.set_defaults(fn=cmd_catalog)

    c = sub.add_parser("ingest", help="build a dataset from CIFs or JSONL")
    c.add_argument("--input", required=True,
                   help="CIF directory or dataset JSONL")
    c.add_argument("--out", required=True)
    c.add_argument("--sg-table",
                   help="JSON {filename: spacegroup} for CIFs without tags")
    c.add_argument("--tol", type=_positive_float, default=1e-3)
    c.set_defaults(fn=cmd_ingest)

    for name in ("train-ae", "train-fm"):
        c = sub.add_parser(name, help=f"stage {'1' if name.endswith('ae') else '2'} training")
        c.add_argument("--data", required=True)
        c.add_argument("--out", required=True)
        c.add_argument("--profile", choices=("desk", "paper"), default="desk")
        c.add_argument("--steps", type=_positive_int, default=None,
                       help="hard step budget (overrides epochs)")
        c.add_argument("--epochs", type=_positive_int, default=None,
                       help="default 200 (desk) / 7000 (paper)")
        c.add_argument("--batch-size", type=_positive_int, default=None,
                       help="default 32 (desk) / 512 (paper)")
        c.add_argument("--lr", type=_positive_float, help="default 3e-4")
        c.add_argument("--seed", type=_seed, default=0)
        c.add_argument("--resume", help="checkpoint to continue from")
        c.add_argument("--log-every", type=_positive_int, default=50)
        if name == "train-fm":
            c.add_argument("--ae", required=True,
                           help="frozen stage-1 checkpoint")
            c.set_defaults(fn=cmd_train_fm)
        else:
            c.set_defaults(fn=cmd_train_ae)

    c = sub.add_parser("generate", help="sample crystals")
    c.add_argument("--fm", required=True)
    c.add_argument("--ae", required=True)
    c.add_argument("--priors", help="priors JSON (default: next to fm)")
    c.add_argument("--out", required=True)
    c.add_argument("--count", type=_positive_int, default=100)
    c.add_argument("--steps", type=_positive_int, default=1000)
    c.add_argument("--cfg-scale", type=_finite_float, default=2.0)
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--no-condition", action="store_true",
                   help="disable space-group conditioning")
    c.set_defaults(fn=cmd_generate)

    c = sub.add_parser("evaluate", help="score generated crystals")
    c.add_argument("--gen", required=True)
    c.add_argument("--train", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--ltol", type=_positive_float, default=0.2)
    c.add_argument("--stol", type=_positive_float, default=0.3)
    c.add_argument("--angle-tol", type=_positive_float, default=10.0)
    c.add_argument("--n-novelty", type=_positive_int, default=1000)
    c.add_argument("--seed", type=_seed, default=0)
    c.set_defaults(fn=cmd_evaluate)

    c = sub.add_parser("export-latents", help="per-crystal pooled latents")
    c.add_argument("--ae", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_export_latents)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CatalogError, cr.IngestError, cifio.CifError, ValueError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
