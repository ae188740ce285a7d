"""Seeded input generators for the benchmark workloads.

Every structure the program sees comes from here, built from the workload
seed. The seed moves coordinates, lattices, elements and the choice among
Wyckoff positions of equal multiplicity; the recipes below fix each
structure's group and orbit sizes, so the cost of a workload does not swing
from seed to seed.

Validity is decided by a brute-force image sweep written here rather than by
the program's own distance kernel, which is not exact for oblique cells; the
expected evaluation results therefore hold for the kernel as it is and for a
corrected one.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from symadit import cif, default_catalog, symcat
from symadit import crystal as cr
from symadit.crystal import CrystalASU, Site

MIN_DISTANCE = 0.5  # Angstrom, the program's own validity threshold

# The 14-group mix of acceptance criterion 6, with the orbit multiplicities of
# up to three sites per group. Crystal k uses group k % 14 and its first
# 1 + k % 3 sites.
DESK_RECIPES = {
    1: (1, 1, 1),
    2: (2, 2, 1),
    12: (8, 4, 2),
    14: (4, 4, 2),
    62: (8, 4, 4),
    74: (16, 8, 4),
    123: (16, 8, 1),
    139: (32, 16, 2),
    166: (36, 18, 3),
    191: (24, 12, 1),
    194: (24, 12, 2),
    221: (48, 24, 1),
    225: (96, 48, 4),
    229: (48, 24, 2),
}
DESK_GROUPS = tuple(DESK_RECIPES)

# Evaluation mix: weighted to high-symmetry groups with 48- to 96-point
# orbits, plus low-symmetry groups whose free angles span 40-140 degrees.
EVAL_RECIPES = (
    (229, (96, 2)),
    (229, (48, 12)),
    (225, (96, 4)),
    (225, (48, 8)),
    (221, (48, 1)),
    (221, (48, 3)),
    (191, (24, 12)),
    (194, (24, 12)),
    (1, (1, 1, 1)),
    (2, (2, 2)),
    (14, (4, 4)),
    (62, (8, 4)),
)
OBLIQUE_ANGLES = (40.0, 140.0)
DESK_ANGLES = (70.0, 110.0)


def expanded(asu: CrystalASU, catalog) -> cr.FullCrystal:
    """`expand_asu` without the degenerate-orbit warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", symcat.DegenerateOrbitWarning)
        return cr.expand_asu(asu, catalog)


def true_min_distance(full: cr.FullCrystal) -> float:
    """Shortest interatomic or self-image distance by a wide image sweep.

    Differences are wrapped to [-0.5, 0.5) and swept over +-1 images for
    right-angled cells and +-4 images otherwise.
    """
    lattice = full.lattice
    ell = cr.lattice_params(lattice)
    reach = 1 if np.allclose(ell[3:], 90.0) else 4
    rng = range(-reach, reach + 1)
    shifts = np.array(list(itertools.product(rng, rng, rng)), dtype=float)
    shift_cart = shifts @ lattice
    norms = np.linalg.norm(shift_cart, axis=1)
    best = float(norms[norms > 1e-12].min())
    m = full.n_atoms
    if m >= 2:
        i, j = np.triu_indices(m, k=1)
        diff = full.frac[i] - full.frac[j]
        diff -= np.round(diff)
        cart = diff @ lattice
        for chunk in range(0, len(cart), 4096):
            part = cart[chunk:chunk + 4096, None, :] + shift_cart[None]
            best = min(best, float(np.sqrt((part * part).sum(-1)).min()))
    return best


def _lattice(entry, n_atoms: int, angles: tuple[float, float],
             rng: np.random.Generator) -> np.ndarray:
    """Free lattice slots drawn at random, scaled to about 14-22 A^3/atom."""
    lc = entry.lattice_class
    while True:
        ell = np.empty(6)
        ell[:3] = rng.uniform(0.85, 1.2, size=3)
        ell[3:] = rng.uniform(angles[0], angles[1], size=3)
        ell = symcat.symmetrize_lattice(lc, ell)
        try:
            _, vol = cr.lattice_matrix(ell)
        except ValueError:
            continue
        # keep very flat cells out: they need more than the +-4 sweep
        if vol < 0.35 * float(np.prod(ell[:3])):
            continue
        target = n_atoms * rng.uniform(14.0, 22.0) + rng.uniform(40.0, 120.0)
        ell[:3] *= (target / vol) ** (1.0 / 3.0)
        return symcat.symmetrize_lattice(lc, ell)


def make_asu(catalog, group: int, mults, elements, angles,
             rng: np.random.Generator, max_tries: int = 200) -> CrystalASU:
    """A valid asymmetric unit with one site per requested multiplicity.

    Positions are drawn among those of the requested multiplicity (zero-DOF
    positions at most once); free coordinates and the lattice are redrawn
    until the expanded cell has every orbit at full size and no two atoms
    closer than the validity threshold.
    """
    entry = catalog.group(group)
    n_atoms = sum(mults)
    for _ in range(max_tries):
        used: set[str] = set()
        sites = []
        for mult, el in zip(mults, elements):
            options = [w for w in entry.wyckoff
                       if w.multiplicity == mult and w.letter not in used]
            w = options[int(rng.integers(len(options)))]
            if w.dof == 0:
                used.add(w.letter)
            frac = symcat.symmetrize_site(w, rng.uniform(0.0, 1.0, size=3))
            sites.append(Site(element=int(el), wyckoff=w.letter, frac=frac))
        ell = _lattice(entry, n_atoms, angles, rng)
        asu = CrystalASU(spacegroup=group, sites=sites, lattice=ell)
        full = expanded(asu, catalog)
        if full.n_atoms == n_atoms and true_min_distance(full) >= MIN_DISTANCE:
            return asu
    raise RuntimeError(f"no valid crystal for group {group} sites {mults}")


def desk_dataset(catalog, seed: int, count: int = 32) -> list[CrystalASU]:
    """Training set in the criterion-6 mix: 14 groups, 1-3 orbits each."""
    rng = np.random.default_rng((seed, 1))
    out = []
    for k in range(count):
        group = DESK_GROUPS[k % len(DESK_GROUPS)]
        mults = DESK_RECIPES[group][: 1 + k % 3]
        elements = rng.integers(1, 101, size=len(mults))
        out.append(make_asu(catalog, group, mults, elements, DESK_ANGLES, rng))
    return out


def desk_cifs(catalog, seed: int) -> tuple[list[CrystalASU], list[str]]:
    """The desk data set and the CIF text of each structure, named
    s000, s001, ... as the ingest workload files them."""
    asus = desk_dataset(catalog, seed)
    texts = [cif.write_cif(expanded(asu, catalog), name=f"s{k:03d}")
             for k, asu in enumerate(asus)]
    return asus, texts


def with_default_catalog(fn, *args):
    """fn(catalog, *args) with the package's default catalog, for building
    inputs in a child process."""
    return fn(default_catalog(), *args)


def permuted(asu: CrystalASU, rng: np.random.Generator) -> CrystalASU:
    """The same crystal with its sites listed in another order."""
    order = rng.permutation(len(asu.sites))
    if len(order) > 1 and np.all(order == np.arange(len(order))):
        order = np.roll(order, 1)
    return CrystalASU(spacegroup=asu.spacegroup,
                      sites=[asu.sites[i] for i in order],
                      lattice=asu.lattice.copy())


def evaluation_sets(catalog, seed: int, n_gen: int, n_ref: int,
                    n_dup: int, n_copy: int):
    """Generated and reference sets whose uniqueness and novelty are known.

    Every base crystal gets its own element set, so any two bases differ in
    composition and never match. The generated set holds
    n_gen - n_dup - n_copy new bases, n_dup site-permuted repeats of some of
    them, and n_copy site-permuted copies of distinct reference crystals.
    Returns (gen, ref, expected uniqueness %, expected novelty %).
    """
    rng = np.random.default_rng((seed, 2))
    n_new = n_gen - n_dup - n_copy
    if n_new < n_dup or n_ref < n_copy:
        raise ValueError("not enough base crystals for the requested repeats")

    element_sets: set[tuple[int, ...]] = set()

    def base(k: int) -> CrystalASU:
        group, mults = EVAL_RECIPES[k % len(EVAL_RECIPES)]
        while True:
            els = tuple(sorted(rng.choice(np.arange(1, 101), size=len(mults),
                                          replace=False).tolist()))
            if els not in element_sets:
                element_sets.add(els)
                break
        els = rng.permutation(els)
        angles = OBLIQUE_ANGLES if group < 16 else DESK_ANGLES
        return make_asu(catalog, group, mults, els, angles, rng)

    ref = [base(k) for k in range(n_ref)]
    new = [base(n_ref + k) for k in range(n_new)]
    dups = [permuted(new[i], rng) for i in range(n_dup)]
    copies = [permuted(ref[i], rng)
              for i in rng.choice(n_ref, size=n_copy, replace=False)]
    gen = new + dups + copies
    gen = [gen[i] for i in rng.permutation(len(gen))]
    n_unique = n_new + n_copy
    uniqueness = 100.0 * n_unique / n_gen
    novelty = 100.0 * n_new / n_unique
    return gen, ref, uniqueness, novelty
