#!/usr/bin/env python3
"""Seed sweep of the criterion-6 autoencoder recipe.

Trains the desk autoencoder of acceptance criterion 6 (the same 32
synthetic crystals, lr 2e-3, batch 32, all sigmas zero, 2000 steps) once
for each of the seeds 0-7, two seeds at a time, each in its own process with one BLAS
thread. For every seed it records the final 6a metrics and whether they
pass; for every step the loss terms and the global gradient norm; and
every 50 steps the rms of the bounded latent over the data set. Nothing in the
training path changes: the norm is read from the gradients the step leaves
behind, and the latent comes from a no-grad encode, which draws no random
numbers.

The recipe, the data set and the 6a thresholds come from
tests/test_acceptance.py, so the sweep follows criterion 6 if it changes.

Usage:
  python tools/seed_sweep.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2
RMS_EVERY = 50
SEEDS = range(8)
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_seed(seed: int) -> dict:
    """One criterion-6 autoencoder run; the record of `seed`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np

    from symadit import default_catalog
    from symadit.autoencoder import (
        Autoencoder, batchify, reconstruction_metrics, train_autoencoder)
    from symadit.nncore import no_grad
    from test_acceptance import (
        CRITERION_6_STEPS, _criterion_6_config, _meets_6a,
        _synthetic_dataset)

    catalog = default_catalog()
    asus = _synthetic_dataset(catalog)
    batch = batchify(asus, catalog)
    config = _criterion_6_config(seed)
    model = Autoencoder(config, catalog)
    log: list[dict] = []

    def record(step: int, row: dict) -> None:
        grads = [p.grad for p in model.store.params.values()
                 if p.grad is not None]
        row["grad_norm"] = float(np.sqrt(sum(float(np.vdot(g, g))
                                             for g in grads)))
        if step % RMS_EVERY == 0:
            with no_grad():
                z = model.encode_batch(batch).data[batch.mask]
            row["latent_rms"] = float(np.sqrt(np.mean(z * z)))
        log.append(row)

    t0 = time.time()
    train_autoencoder(asus, config, catalog, max_steps=CRITERION_6_STEPS,
                      log_every=1, callback=record, model=model)
    metrics = reconstruction_metrics(model, asus)
    return {"seed": seed, "steps": CRITERION_6_STEPS,
            "seconds": time.time() - t0,
            "passed_6a": bool(_meets_6a(metrics)),
            "metrics": {k: float(v) for k, v in metrics.items()},
            "log": log}


def _spawn(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(seed)],
        env={**os.environ, **ONE_THREAD}, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path,
                        help="write every seed's record here")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(run_seed(args.worker)))
        return 0
    with ThreadPoolExecutor(WORKERS) as pool:
        records = list(pool.map(_spawn, SEEDS))
    print("seed  6a    atom   wyckoff  circ     max loss  max |g|   "
          "rms@500  s")
    for r in records:
        m, log = r["metrics"], r["log"]
        rms500 = next((row["latent_rms"] for row in log
                       if row["step"] == 500), float("nan"))
        print(f"{r['seed']:<5} {'pass' if r['passed_6a'] else 'fail':<5} "
              f"{m['atom_accuracy']:.3f}  {m['wyckoff_accuracy']:.3f}    "
              f"{m['circular_error']:.4f}   "
              f"{max(row['total'] for row in log):<9.3g} "
              f"{max(row['grad_norm'] for row in log):<9.3g} "
              f"{rms500:.3f}    {r['seconds']:.0f}")
    passed = sum(r["passed_6a"] for r in records)
    print(f"{passed} of {len(records)} seeds meet 6a")
    if args.json is not None:
        args.json.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
