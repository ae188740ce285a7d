"""Set-up time of one CLI start, measured in a fresh interpreter.

Times `import symadit` and `default_catalog()`, plus, when checkpoint and
priors paths are given, loading them as `symadit generate` does. Prints the
seconds taken.

Usage: python3 setup_probe.py SRC_DIR [AE_CKPT FM_CKPT PRIORS_JSON]
"""

import sys
import time


def load_generate_artifacts(catalog, ae_path, fm_path, priors_path):
    """Both stages and the priors, with the checkpoint-pair hash check."""
    from pathlib import Path

    from symadit.autoencoder import Autoencoder
    from symadit.flowmatch import Denoiser, EmpiricalPriors
    from symadit.nncore import checkpoint_hash

    model = Autoencoder.load(ae_path, catalog)
    denoiser = Denoiser.load(fm_path)
    if denoiser.ae_checkpoint_hash != checkpoint_hash(ae_path):
        raise RuntimeError("denoiser was trained against another autoencoder")
    priors = EmpiricalPriors.from_json(Path(priors_path).read_text())
    return model, denoiser, priors


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[1])
    from symadit import default_catalog

    catalog = default_catalog()
    if len(argv) > 2:
        load_generate_artifacts(catalog, *argv[2:5])
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv)
