"""Where the traced run records spans, and the per-layer metrics it reports.

Each function is wrapped at every name its callers look it up by: `evalx`
imports `min_image_distance_matrix` by name, `autoencoder` and `flowmatch`
import the `nncore` layers by name, and `attention_block` reaches `mhsa`
and `adaln` through `nncore.layers`.

Span metrics are normalised so that runs of different length and speed
compare: `calls` per workload item, and busy and self time as a share
of the traced wall time. A layer's self time is the sum over its traced
functions. A function the workload never reaches reads 0, except those that
only `train` and `ingest` reach: the other workloads leave them out.
"""

from __future__ import annotations

from symadit import autoencoder, cif, crystal, evalx, flowmatch, kernels, symcat
from symadit.nncore import layers as nn_layers
from symadit.nncore.tensor import Tensor

IMAGES = 27  # lattice images in the kernels' 3x3x3 sweep


def _add(key, amount):
    def count(counts, args, out):
        counts[key] += amount(args, out)
    return count


def _orbit_points(args, out):
    return len(out)


def _pairwise_distances(args, out):
    m = len(args[0])
    return m * (m - 1) // 2 * IMAGES


def _matrix_distances(args, out):
    return len(args[0]) * len(args[1]) * IMAGES


def _sample_counts(counts, args, out):
    asus, stats = out
    counts["flowmatch.sample.attempts"] += len(asus) + stats.decode_rejections
    counts["flowmatch.sample.produced"] += len(asus)


# (owner, attribute, span name, counter[, step id])
SPAN_POINTS = (
    (symcat, "load_catalog", "symcat.load_catalog", None),
    (symcat, "parse_triplet", "triplet.parse_triplet", None),
    (symcat, "orbit_expand", "symcat.orbit_expand",
     _add("symcat.orbit_expand.points", _orbit_points)),
    (symcat, "symmetrize_site", "symcat.symmetrize_site", None),
    (symcat, "symmetrize_lattice", "symcat.symmetrize_lattice", None),
    (crystal, "expand_asu", "crystal.expand_asu", None),
    (crystal, "structural_validity", "crystal.structural_validity",
     _add("crystal.structural_validity.failed", lambda a, out: int(not out))),
    (crystal, "niggli_reduce", "crystal.niggli_reduce", None),
    (crystal, "assign_wyckoff", "crystal.assign_wyckoff", None),
    (cif, "read_cif", "cif.read_cif", None),
    (cif, "write_cif", "cif.write_cif", None),
    (kernels, "min_pairwise_distance", "kernels.min_pairwise_distance",
     _add("kernels.min_pairwise_distance.distances", _pairwise_distances)),
    (kernels, "min_image_distance_matrix", "kernels.min_image_distance_matrix",
     _add("kernels.min_image_distance_matrix.distances", _matrix_distances)),
    (evalx, "min_image_distance_matrix", "kernels.min_image_distance_matrix",
     _add("kernels.min_image_distance_matrix.distances", _matrix_distances)),
    (Tensor, "backward", "nncore.backward", None),
    (autoencoder, "adam_step", "nncore.adam_step",
     _add("nncore.adam_step.params", lambda a, out: a[0].n_parameters())),
    (flowmatch, "adam_step", "nncore.adam_step",
     _add("nncore.adam_step.params", lambda a, out: a[0].n_parameters())),
    (autoencoder, "attention_block", "nncore.attention_block", None),
    (nn_layers, "mhsa", "nncore.mhsa", None),
    (flowmatch, "mhsa", "nncore.mhsa", None),
    (nn_layers, "adaln", "nncore.adaln", None),
    (flowmatch, "adaln", "nncore.adaln", None),
    (autoencoder, "ae_train_step", "autoencoder.ae_train_step", None,
     lambda a: f"ae-step-{a[2]}"),
    (autoencoder, "augment", "autoencoder.augment", None),
    (autoencoder, "batchify", "autoencoder.batchify", None),
    (autoencoder.Autoencoder, "encode_batch", "autoencoder.encode_batch", None),
    (autoencoder.Autoencoder, "decode_heads", "autoencoder.decode_heads", None),
    (autoencoder.Autoencoder, "reconstruction_loss",
     "autoencoder.reconstruction_loss", None),
    (autoencoder.Autoencoder, "decode", "autoencoder.decode", None),
    (flowmatch, "train_step", "flowmatch.train_step", None,
     lambda a: f"fm-step-{a[0].store.step_count + 1}"),
    (flowmatch.Denoiser, "forward", "flowmatch.Denoiser.forward",
     _add("flowmatch.Denoiser.forward.rows", lambda a, out: a[1].shape[0])),
    (flowmatch, "euler_trajectory", "flowmatch.euler_trajectory", None),
    (flowmatch, "sample", "flowmatch.sample", _sample_counts),
    (evalx, "structure_match", "evalx.structure_match",
     _add("evalx.structure_match.matches", lambda a, out: int(bool(out)))),
    (evalx, "uniqueness_and_novelty", "evalx.uniqueness_and_novelty", None),
)

# span names reported with calls, busy share and self share
REPORTED_SPANS = tuple(dict.fromkeys(
    point[2] for point in SPAN_POINTS
    if point[2] not in ("symcat.load_catalog", "triplet.parse_triplet")))

# spans that only the train and ingest workloads reach
TRAIN_INGEST_ONLY = frozenset((
    "nncore.backward", "nncore.adam_step", "autoencoder.ae_train_step",
    "autoencoder.augment", "autoencoder.batchify", "autoencoder.encode_batch",
    "autoencoder.reconstruction_loss", "flowmatch.train_step",
    "crystal.assign_wyckoff", "cif.read_cif"))

# (metric, counter it reads, unit); per workload item
REPORTED_COUNTS = (
    ("symcat.orbit_expand.points", "symcat.orbit_expand.points", "points/item"),
    ("crystal.structural_validity.failed",
     "crystal.structural_validity.failed", "count/item"),
    ("crystal.assign_wyckoff.failed", "crystal.assign_wyckoff.raised",
     "count/item"),
    ("kernels.min_pairwise_distance.distances",
     "kernels.min_pairwise_distance.distances", "distances/item"),
    ("kernels.min_image_distance_matrix.distances",
     "kernels.min_image_distance_matrix.distances", "distances/item"),
    ("nncore.adam_step.params", "nncore.adam_step.params", "params/item"),
    ("autoencoder.decode.rejected", "autoencoder.decode.raised", "count/item"),
    ("flowmatch.sample.attempts", "flowmatch.sample.attempts", "count/item"),
    ("flowmatch.sample.produced", "flowmatch.sample.produced", "count/item"),
    ("evalx.structure_match.matches", "evalx.structure_match.matches",
     "count/item"),
)


def install(tracer) -> None:
    for point in SPAN_POINTS:
        tracer.patch(*point)


def span_metrics(tracer, n_items: int, wall_s: float) -> dict:
    """Per-layer metrics of a traced window that completed n_items."""
    summary = tracer.summary()
    counts = tracer.counts
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    omitted = TRAIN_INGEST_ONLY - summary.keys()
    out = {}
    for name in REPORTED_SPANS:
        if name in omitted:
            continue
        agg = summary.get(name, empty)
        out[f"{name}.calls"] = (agg["calls"] / n_items, "calls/item")
        out[f"{name}.busy_share"] = (100.0 * agg["busy_s"] / wall_s, "%")
        out[f"{name}.self_share"] = (100.0 * agg["self_s"] / wall_s, "%")
    for module in dict.fromkeys(name.split(".")[0] for name in REPORTED_SPANS):
        own = sum(agg["self_s"] for name, agg in summary.items()
                  if name.startswith(module + "."))
        out[f"{module}.self_share"] = (100.0 * own / wall_s, "%")
    for metric, key, unit in REPORTED_COUNTS:
        if metric.rsplit(".", 1)[0] in omitted:
            continue
        out[metric] = (counts[key] / n_items, unit)

    def ratio(num, den):
        return 100.0 * num / den if den else 0.0

    fwd = summary.get("flowmatch.Denoiser.forward", empty)["calls"]
    out["flowmatch.Denoiser.forward.rows_per_call"] = (
        counts["flowmatch.Denoiser.forward.rows"] / fwd if fwd else 0.0,
        "rows/call")
    out["flowmatch.sample.useful_share"] = (ratio(
        counts["flowmatch.sample.produced"],
        counts["flowmatch.sample.attempts"]), "%")
    matcher = summary.get("evalx.structure_match", empty)["calls"]
    out["evalx.structure_match.match_share"] = (ratio(
        counts["evalx.structure_match.matches"], matcher), "%")
    return out
