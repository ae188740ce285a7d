"""Evaluation harness: validity rate, a simplified tolerance-based structure
matcher for uniqueness/novelty, distribution distances (base-2 JSD over
space groups, sample-weighted JSD over Wyckoff occupancies, exact W1 over
atom counts), the trivial-symmetry rate, and composition statistics.
Uniqueness and novelty match only pairs with an equal atom count and reduced
composition; the matcher refuses all others, so no decision changes. The
generated and the reference set are each expanded in one pass per Wyckoff
position over a batch of structures (`crystal.expand_orbits`). A
reference's key comes from its orbit sizes, and only the references whose
key a valid generated structure shares get full cells, built from the same
points."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import crystal as cr
from .crystal import CrystalASU, FullCrystal, MatchParams
from .kernels import min_image_distance_matrix
from .symcat import SymmetryCatalog

__all__ = [
    "GenerationReport",
    "composition_stats",
    "evaluate_pipeline",
    "jsd",
    "jsd_wyckoff",
    "p1_rate",
    "structure_match",
    "uniqueness_and_novelty",
    "wasserstein_atoms",
]

# lanthanides plus Sc and Y
RARE_EARTH = frozenset(range(57, 72)) | {21, 39}


# ---------------------------------------------------------------------------
# Distribution distances
# ---------------------------------------------------------------------------


def jsd(p: Counter | dict, q: Counter | dict) -> float:
    """Jensen-Shannon divergence, log base 2, over the union support.

    Accumulation runs over the sorted support with a per-key term that is
    symmetric in (p, q), so jsd(p, q) == jsd(q, p) bitwise.
    """
    tp, tq = sum(p.values()), sum(q.values())
    if tp <= 0 or tq <= 0:
        raise ValueError("histograms must have positive totals")
    support = sorted(set(p) | set(q), key=repr)
    val = 0.0
    for key in support:
        a = p.get(key, 0) / tp
        b = q.get(key, 0) / tq
        m = 0.5 * (a + b)
        ta = 0.5 * a * np.log2(a / m) if a > 0 else 0.0
        tb = 0.5 * b * np.log2(b / m) if b > 0 else 0.0
        val += min(ta, tb) + max(ta, tb)
    return float(min(max(val, 0.0), 1.0))


def _wyckoff_histogram(asus: list[CrystalASU]) -> Counter:
    """Occupied Wyckoff labels, one increment per occupied orbit."""
    hist: Counter = Counter()
    for asu in asus:
        for site in asu.sites:
            hist[site.wyckoff] += 1
    return hist


def jsd_wyckoff(gen: list[CrystalASU], ref: list[CrystalASU]) -> float:
    """Per-group Wyckoff-label JSD, weighted by generated counts per group.

    Groups generated but absent from the reference contribute the maximal
    divergence of 1.
    """
    if not gen or not ref:
        raise ValueError("both crystal lists must be non-empty")
    by_group_gen: dict[int, list[CrystalASU]] = {}
    by_group_ref: dict[int, list[CrystalASU]] = {}
    for asu in gen:
        by_group_gen.setdefault(asu.spacegroup, []).append(asu)
    for asu in ref:
        by_group_ref.setdefault(asu.spacegroup, []).append(asu)
    total = 0.0
    weight = 0.0
    for g, members in by_group_gen.items():
        w = len(members)
        if g in by_group_ref:
            val = jsd(_wyckoff_histogram(members),
                      _wyckoff_histogram(by_group_ref[g]))
        else:
            val = 1.0
        total += w * val
        weight += w
    return total / weight


def wasserstein_atoms(gen_counts, ref_counts) -> float:
    """Exact W1 between integer distributions: sum of |CDF differences|."""
    gen_counts = list(gen_counts)
    ref_counts = list(ref_counts)
    if not gen_counts or not ref_counts:
        raise ValueError("atom-count lists must be non-empty")
    lo = min(min(gen_counts), min(ref_counts))
    hi = max(max(gen_counts), max(ref_counts))
    pg = Counter(gen_counts)
    pr = Counter(ref_counts)
    ng, nr = len(gen_counts), len(ref_counts)
    cdf_g = cdf_r = 0.0
    dist = 0.0
    for k in range(lo, hi):
        cdf_g += pg.get(k, 0) / ng
        cdf_r += pr.get(k, 0) / nr
        dist += abs(cdf_g - cdf_r)
    return float(dist)


# ---------------------------------------------------------------------------
# Structure matcher (documented simplification of tolerance-based matching)
# ---------------------------------------------------------------------------


def _one_way_match(a: FullCrystal, b: FullCrystal, params: MatchParams) -> bool:
    # stage 3: greedy bijective site assignment, one distance matrix per shift
    # of a's anchor atom onto a same-element atom of b; the kernel measures
    # only the pairs its plane-spacing bound admits, the rest read inf
    scale = ((a.volume / a.n_atoms) * (b.volume / b.n_atoms)) ** 0.5
    cutoff = params.stol * scale ** (1.0 / 3.0)
    lattice, basis = b.reduced        # exact image search in b's Niggli cell
    target = b.frac @ basis
    same = a.elements[:, None] == b.elements[None, :]
    shifts = b.frac[same[0]] - a.frac[0]
    if a.n_atoms > 1:
        # the greedy fails on shifts leaving a's scarcest non-anchor atom out of reach
        k = 1 + np.argmin(same[1:].sum(axis=1))
        reach = min_image_distance_matrix(
            ((a.frac[k] + shifts) % 1.0) @ basis, target[same[k]], lattice,
            cutoff)
        shifts = shifts[reach.min(axis=1, initial=np.inf) <= cutoff]
    for shift in shifts:
        dist = min_image_distance_matrix(
            ((a.frac + shift) % 1.0) @ basis, target, lattice, cutoff)
        dist[~same] = np.inf      # other elements, then used atoms of b
        for row in dist:          # argmin takes the lowest tied column
            best = np.argmin(row)
            if row[best] > cutoff:
                break
            dist[:, best] = np.inf
        else:
            return True
    return False


def structure_match(a: FullCrystal, b: FullCrystal,
                    params: MatchParams = MatchParams()) -> bool:
    """Three-stage tolerance match; symmetric by construction.

    1. identical reduced compositions;
    2. Niggli-reduced cell lengths within relative ltol after sorting,
       angles within angle_tol degrees;
    3. greedy site assignment under a global fractional translation chosen
       from anchor-atom candidates, every pair within stol * (V/M)^(1/3).
    """
    if a.n_atoms == 0 or b.n_atoms == 0:
        return False
    if a.match_key != b.match_key:   # equal formula-unit counts only
        return False
    (la, aa), (lb, ab) = a.reduced_shape, b.reduced_shape
    if np.any(np.abs(la - lb) > params.ltol * np.maximum(la, lb)):
        return False
    if np.any(np.abs(aa - ab) > params.angle_tol):
        return False
    return _one_way_match(a, b, params) or _one_way_match(b, a, params)


def uniqueness_and_novelty(
    gen: list[FullCrystal],
    train: list[FullCrystal],
    params: MatchParams = MatchParams(),
    n_novelty: int = 1000,
    seed: int = 0,
    counters: dict | None = None,
    n_train: int | None = None,
) -> tuple[float, float, dict]:
    """Percent unique among the (pre-filtered valid) generations, then
    percent of a subsample of the unique set absent from training. Only
    pairs with equal `match_key` reach `structure_match`, in all-pairs
    order; the pairs compared and pruned are tallied into `counters`.
    n_train: the size of the reference set when `train` holds only the
    references that share a key with some generation (default len(train));
    the pruned pairs count against all of them."""
    tally = counters if counters is not None else {}
    for name in ("match_pairs_compared", "match_pairs_pruned"):
        tally.setdefault(name, 0)

    def seen(s, key, buckets, pool_size):
        tally["match_pairs_pruned"] += pool_size - len(buckets.get(key, ()))
        for other in buckets.get(key, ()):
            tally["match_pairs_compared"] += 1
            if structure_match(s, other, params):
                return True
        return False

    flags = {}
    unique: list[tuple[tuple, FullCrystal]] = []
    unique_buckets: dict[tuple, list[FullCrystal]] = {}
    for s in gen:
        key = s.match_key
        if not seen(s, key, unique_buckets, len(unique)):
            unique.append((key, s))
            unique_buckets.setdefault(key, []).append(s)
    uniqueness = 100.0 * len(unique) / len(gen) if gen else 0.0

    rng = np.random.default_rng(seed)
    if n_novelty < len(unique):
        idx = rng.choice(len(unique), size=n_novelty, replace=False)
        subsample = [unique[i] for i in idx]
    else:
        subsample = list(unique)
        if n_novelty > len(unique):
            flags["novelty_subsample_truncated"] = len(unique)
    train_buckets: dict[tuple, list[FullCrystal]] = {}
    for t in train:
        train_buckets.setdefault(t.match_key, []).append(t)
    pool = len(train) if n_train is None else n_train
    novel = sum(not seen(s, key, train_buckets, pool) for key, s in subsample)
    novelty = 100.0 * novel / len(subsample) if subsample else 0.0
    return uniqueness, novelty, flags


# ---------------------------------------------------------------------------
# Composition statistics and report
# ---------------------------------------------------------------------------


def composition_stats(asus: list[CrystalASU]) -> dict:
    """Unique-element, rare-earth and orbit-count statistics."""
    if not asus:
        raise ValueError("empty structure list")
    uniq_counts = np.array([
        len({s.element for s in a.sites}) for a in asus], dtype=float)
    orbit_counts = np.array([len(a.sites) for a in asus], dtype=float)
    re_flags = []
    re_counts = []
    for a in asus:
        res = {s.element for s in a.sites} & RARE_EARTH
        re_flags.append(bool(res))
        re_counts.append(len(res))

    def describe(v):
        return {"mean": float(v.mean()), "std": float(v.std()),
                "min": float(v.min()), "max": float(v.max())}

    return {
        "unique_elements": describe(uniq_counts),
        "orbit_count": describe(orbit_counts),
        "rare_earth": {
            "count": int(sum(re_flags)),
            "percent": 100.0 * sum(re_flags) / len(asus),
            "mean_distinct": float(np.mean(re_counts)),
        },
    }


def p1_rate(asus: list[CrystalASU]) -> float:
    """Percent of structures in the trivial space group."""
    if not asus:
        return 0.0
    return 100.0 * sum(1 for a in asus if a.spacegroup == 1) / len(asus)


@dataclass
class GenerationReport:
    n_generated: int
    structural_validity_rate: float
    uniqueness: float
    novelty: float
    jsd_group: float
    jsd_wyckoff: float
    wasserstein_atoms: float
    p1_rate: float
    composition: dict
    flags: dict = field(default_factory=dict)
    compositional_validity_rate: float | None = None

    def to_json(self) -> str:
        payload = dict(self.__dict__)
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self) -> str:
        """Plain-text single-row table in the standard column order."""
        headers = ["Struct.", "Comp.", "JSD_G", "JSD_Wy", "W_A", "%P1",
                   "%U", "%N"]
        comp = ("-" if self.compositional_validity_rate is None
                else f"{self.compositional_validity_rate:.2f}")
        row = [
            f"{self.structural_validity_rate:.2f}", comp,
            f"{self.jsd_group:.4f}", f"{self.jsd_wyckoff:.4f}",
            f"{self.wasserstein_atoms:.4f}", f"{self.p1_rate:.2f}",
            f"{self.uniqueness:.2f}", f"{self.novelty:.2f}",
        ]
        widths = [max(len(h), len(r)) + 2 for h, r in zip(headers, row)]
        line1 = "".join(h.rjust(w) for h, w in zip(headers, widths))
        line2 = "".join(r.rjust(w) for r, w in zip(row, widths))
        return line1 + "\n" + line2


def evaluate_pipeline(
    gen: list[CrystalASU],
    train: list[CrystalASU],
    catalog: SymmetryCatalog,
    params: MatchParams = MatchParams(),
    n_novelty: int = 1000,
    seed: int = 0,
    validity_hook=None,
    counters: dict | None = None,
) -> GenerationReport:
    """Full pipeline: validity filter, uniqueness, novelty subsample, then
    the distribution metrics and composition statistics.

    validity_hook: optional predicate on CrystalASU implementing an external
    compositional-validity check; when given, its pass rate is reported but
    not used for filtering. counters: `degenerate_orbits` (collapsed
    generated orbits), `off_form_structures` (generated structures whose
    lattice or sites are off their forms, so validity measures all atom
    pairs), `invalid_volume`, `invalid_distance`, `references_expanded`,
    and the matcher tallies of `uniqueness_and_novelty`.

    Each set goes through `crystal.expand_orbits`: one pass per Wyckoff
    position over a batch of structures. A reference's match key and atom
    count come from its orbit sizes (`Orbits.match_key`). Only the
    references whose key a valid generated structure shares can match, so
    only those get full cells (`references_expanded`), in their original
    order: every matcher bucket, and so every decision, is that of
    expanding all of them. The others keep only their key, so a batch's
    points are freed once the next is expanded.
    """
    if not gen:
        raise ValueError("empty generation set")
    tally = counters if counters is not None else {}
    for name in ("degenerate_orbits", "off_form_structures",
                 "invalid_volume", "invalid_distance", "references_expanded"):
        tally.setdefault(name, 0)
    expanded = []
    for orbits in cr.expand_orbits(gen, catalog):
        tally["degenerate_orbits"] += orbits.degenerate
        expanded.append(orbits.cell())
    tally["off_form_structures"] += sum(s.orbit_starts is None
                                        for s in expanded)
    valid_mask = [cr.structural_validity(s) for s in expanded]
    n_volume = sum(s.volume < cr.MIN_VOLUME for s in expanded)
    tally["invalid_volume"] += n_volume
    tally["invalid_distance"] += valid_mask.count(False) - n_volume
    valid_asus = [a for a, ok in zip(gen, valid_mask) if ok]
    valid_structs = [s for s, ok in zip(expanded, valid_mask) if ok]
    if not valid_asus:
        raise ValueError("no generated structure passes structural validity")
    gen_keys = {s.match_key for s in valid_structs}
    train_keys, train_structs = [], []
    for orbits in cr.expand_orbits(train, catalog):
        train_keys.append(orbits.match_key)
        if orbits.match_key in gen_keys:
            train_structs.append(orbits.cell())
    tally["references_expanded"] += len(train_structs)

    validity_rate = 100.0 * len(valid_asus) / len(gen)
    uniq, novel, flags = uniqueness_and_novelty(
        valid_structs, train_structs, params, n_novelty, seed, tally,
        n_train=len(train))

    gen_groups = Counter(a.spacegroup for a in valid_asus)
    ref_groups = Counter(a.spacegroup for a in train)
    report = GenerationReport(
        n_generated=len(gen),
        structural_validity_rate=validity_rate,
        uniqueness=uniq,
        novelty=novel,
        jsd_group=jsd(gen_groups, ref_groups),
        jsd_wyckoff=jsd_wyckoff(valid_asus, train),
        wasserstein_atoms=wasserstein_atoms(
            [s.n_atoms for s in valid_structs],
            [n_atoms for n_atoms, _ in train_keys],
        ),
        p1_rate=p1_rate(gen),
        composition=composition_stats(valid_asus),
        flags=flags,
    )
    if validity_hook is not None:
        passed = sum(1 for a in valid_asus if validity_hook(a))
        report.compositional_validity_rate = 100.0 * passed / len(valid_asus)
    return report
