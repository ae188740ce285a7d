import json
from collections import Counter

import numpy as np
import pytest

from conftest import random_asu
from symadit import crystal as cr
from symadit import evalx, kernels, symcat
from symadit.crystal import CrystalASU, FullCrystal, MatchParams, Site
from symadit.evalx import (
    composition_stats,
    jsd,
    jsd_wyckoff,
    p1_rate,
    structure_match,
    uniqueness_and_novelty,
    wasserstein_atoms,
)


def lp_transport_cost(gen_counts, ref_counts):
    """Optimal-transport LP oracle for the 1d integer W1 distance."""
    from scipy.optimize import linprog

    support = sorted(set(gen_counts) | set(ref_counts))
    k = len(support)
    ng, nr = len(gen_counts), len(ref_counts)
    p = np.array([gen_counts.count(s) / ng for s in support])
    q = np.array([ref_counts.count(s) / nr for s in support])
    cost = np.abs(np.subtract.outer(support, support)).reshape(-1)
    a_eq = []
    b_eq = []
    for i in range(k):          # row marginals
        row = np.zeros((k, k))
        row[i, :] = 1
        a_eq.append(row.reshape(-1))
        b_eq.append(p[i])
    for j in range(k):          # column marginals
        col = np.zeros((k, k))
        col[:, j] = 1
        a_eq.append(col.reshape(-1))
        b_eq.append(q[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


# ---------------------------------------------------------------------------
# JSD
# ---------------------------------------------------------------------------


def test_jsd_identical_zero():
    p = Counter({"a": 3, "b": 1})
    assert jsd(p, p) == 0.0


def test_jsd_disjoint_is_one():
    assert jsd(Counter({"a": 5}), Counter({"b": 7})) == pytest.approx(1.0)


def test_jsd_hand_case():
    # p = (1, 0), q = (0.5, 0.5) -> 0.31128
    p = Counter({0: 10})
    q = Counter({0: 5, 1: 5})
    assert jsd(p, q) == pytest.approx(0.31128, abs=1e-4)


def test_jsd_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = Counter({i: int(c) for i, c in
                     enumerate(rng.integers(0, 20, size=6)) if c})
        q = Counter({i: int(c) for i, c in
                     enumerate(rng.integers(0, 20, size=6)) if c})
        if not p or not q:
            continue
        a, b = jsd(p, q), jsd(q, p)
        assert a == b
        assert 0.0 <= a <= 1.0


def test_jsd_empty_rejected():
    with pytest.raises(ValueError):
        jsd(Counter(), Counter({"a": 1}))


# ---------------------------------------------------------------------------
# Wyckoff JSD
# ---------------------------------------------------------------------------


def _asu(group, letters, catalog, lattice=None, salt=0):
    from symadit import symcat

    entry = catalog.group(group)
    ell = lattice if lattice is not None else symcat.symmetrize_lattice(
        entry.lattice_class, np.array([5.0, 5.5, 6.0, 90.0, 90.0, 90.0]))
    sites = []
    rng = np.random.default_rng(abs(hash((group, tuple(letters), salt))) % 2**32)
    for letter in letters:
        w = entry.position(letter)
        f = symcat.symmetrize_site(w, rng.uniform(0.1, 0.9, 3))
        sites.append(Site(element=6, wyckoff=letter, frac=f))
    return CrystalASU(spacegroup=group, sites=sites, lattice=ell)


def test_jsd_wyckoff_identical_sets(catalog):
    gen = [_asu(225, ["a", "b"], catalog), _asu(14, ["e"], catalog)]
    assert jsd_wyckoff(gen, list(gen)) == 0.0


def test_jsd_wyckoff_sees_labels_only(catalog):
    a = _asu(14, ["e", "e"], catalog, salt=1)
    b = _asu(14, ["e", "e"], catalog, salt=2)
    for sa, sb in zip(a.sites, b.sites):
        assert not np.allclose(sa.frac, sb.frac)
    assert jsd_wyckoff([a], [b]) == 0.0


def test_jsd_wyckoff_absent_group_is_maximal(catalog):
    gen = [_asu(225, ["a"], catalog)]
    ref = [_asu(14, ["e"], catalog)]
    assert jsd_wyckoff(gen, ref) == pytest.approx(1.0)


def test_jsd_wyckoff_weighted_mean_oracle(catalog):
    # two groups with hand-built histograms; weights = generated counts
    gen = [
        _asu(225, ["a"], catalog), _asu(225, ["a"], catalog),
        _asu(225, ["b"], catalog),
        _asu(14, ["e"], catalog),
    ]
    ref = [_asu(225, ["a"], catalog), _asu(14, ["e"], catalog)]
    per_225 = jsd(Counter({"a": 2, "b": 1}), Counter({"a": 1}))
    per_14 = 0.0
    expected = (3 * per_225 + 1 * per_14) / 4
    assert jsd_wyckoff(gen, ref) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Wasserstein
# ---------------------------------------------------------------------------


def test_w1_identical_zero():
    assert wasserstein_atoms([8, 8, 12], [8, 8, 12]) == 0.0


def test_w1_shifted_point_mass():
    assert wasserstein_atoms([8, 8], [12, 12]) == pytest.approx(4.0)


def test_w1_matches_lp_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        gen = rng.integers(1, 11, size=rng.integers(2, 12)).tolist()
        ref = rng.integers(1, 11, size=rng.integers(2, 12)).tolist()
        assert wasserstein_atoms(gen, ref) == pytest.approx(
            lp_transport_cost(gen, ref), abs=1e-9)


def test_w1_triangle_inequality_sampled():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.integers(1, 9, size=6).tolist()
        b = rng.integers(1, 9, size=6).tolist()
        c = rng.integers(1, 9, size=6).tolist()
        assert wasserstein_atoms(a, c) <= (
            wasserstein_atoms(a, b) + wasserstein_atoms(b, c) + 1e-12)


# ---------------------------------------------------------------------------
# structure matcher
# ---------------------------------------------------------------------------


def test_match_reflexive(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    assert structure_match(full, full)


def test_match_translation_invariance(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    shifted = FullCrystal(
        lattice=full.lattice, elements=full.elements,
        frac=(full.frac + np.array([0.25, 0.1, 0.6])) % 1.0)
    assert structure_match(full, shifted)


def test_match_rejects_different_lengths(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    bigger = CrystalASU(spacegroup=225, sites=nacl.sites,
                        lattice=[7.50, 7.50, 7.50, 90, 90, 90])
    other = cr.expand_asu(bigger, catalog)
    # relative difference 32.7% > 20%
    assert not structure_match(full, other)


def test_match_rejects_different_composition(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    swapped = CrystalASU(
        spacegroup=225,
        sites=[Site(element=11, wyckoff="a", frac=np.zeros(3)),
               Site(element=35, wyckoff="b", frac=[0.5, 0.5, 0.5])],
        lattice=nacl.lattice)
    assert not structure_match(full, cr.expand_asu(swapped, catalog))


def _random_corpus(catalog, n=20, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        g = int(rng.integers(1, 231))
        asu = random_asu(catalog, g, rng, max_sites=2)
        full = cr.expand_asu(asu, catalog)
        if full.n_atoms <= 24 and cr.structural_validity(full):
            out.append(full)
    return out


def test_match_symmetric_on_corpus(catalog):
    corpus = _random_corpus(catalog, n=12)
    params = MatchParams()
    for i, a in enumerate(corpus):
        for b in corpus[i:]:
            assert structure_match(a, b, params) == structure_match(b, a, params)


def test_match_invariant_under_atom_reordering(catalog):
    corpus = _random_corpus(catalog, n=6, seed=3)
    rng = np.random.default_rng(0)
    for s in corpus:
        perm = rng.permutation(s.n_atoms)
        shuffled = FullCrystal(lattice=s.lattice, elements=s.elements[perm],
                               frac=s.frac[perm])
        assert structure_match(s, shuffled)


def _greedy_one_way_match(a, b, params):
    """Per-row greedy oracle: for each atom of a in order, one single-row
    distance call over b's unused same-element atoms, the lowest index
    winning a tie; a shift fails when no candidate is left or the nearest
    is beyond the cutoff."""
    scale = ((a.volume / a.n_atoms) * (b.volume / b.n_atoms)) ** 0.5
    cutoff = params.stol * scale ** (1.0 / 3.0)
    lattice, basis = b.reduced
    target = b.frac @ basis
    for j in np.where(b.elements == a.elements[0])[0]:
        shifted = ((a.frac + (b.frac[j] - a.frac[0])) % 1.0) @ basis
        used = np.zeros(b.n_atoms, dtype=bool)
        for i in range(a.n_atoms):
            cand = np.where((b.elements == a.elements[i]) & ~used)[0]
            if len(cand) == 0:
                break
            d = kernels.min_image_distance_matrix(
                shifted[i][None, :], target[cand], lattice)[0]
            best = int(np.argmin(d))
            if d[best] > cutoff:
                break
            used[cand[best]] = True
        else:
            return True
    return False


def _oblique_cell(rng, n_atoms, n_elements):
    """P1 cell with angles drawn from 10-170 degrees, ~12 A^3 per atom."""
    while True:
        ell = np.concatenate([rng.uniform(0.6, 1.4, 3),
                              rng.uniform(10.0, 170.0, 3)])
        try:
            lattice, volume = cr.lattice_matrix(ell)
        except ValueError:
            continue
        lattice *= (12.0 * n_atoms / volume) ** (1.0 / 3.0)
        elements = np.sort(rng.integers(1, n_elements + 1, n_atoms))
        return FullCrystal(lattice, elements, rng.uniform(size=(n_atoms, 3)))


def _jittered(s, rng, ratio, params):
    """s with every atom but the anchor moved by ratio * the match cutoff in
    a random Cartesian direction, then its atoms permuted."""
    cutoff = params.stol * (s.volume / s.n_atoms) ** (1.0 / 3.0)
    step = rng.standard_normal((s.n_atoms, 3))
    step *= ratio * cutoff / np.linalg.norm(step, axis=1, keepdims=True)
    step[0] = 0.0
    frac = s.frac + step @ np.linalg.inv(s.lattice)
    perm = rng.permutation(s.n_atoms)
    return FullCrystal(s.lattice, s.elements[perm], frac[perm])


def _matcher_oracle_pairs(catalog):
    rng = np.random.default_rng(29)
    params = MatchParams()
    bases = []
    for g in (221, 225, 229, 191, 194, 62, 14, 2):
        # multi-element cells whose anchor element has several candidates
        while True:
            full = cr.expand_asu(random_asu(catalog, g, rng, max_sites=3),
                                 catalog)
            anchor = np.count_nonzero(full.elements == full.elements[0])
            if (len(set(full.elements.tolist())) > 1 and anchor > 1
                    and full.n_atoms <= 64):
                bases.append(full)
                break
    bases += [_oblique_cell(rng, n, k) for n, k in
              ((4, 1), (6, 2), (9, 2), (12, 3), (16, 2), (20, 4))]
    pairs = []
    for s in bases:
        perm = rng.permutation(s.n_atoms)
        pairs.append((s, s))
        pairs.append((s, FullCrystal(s.lattice, s.elements[perm],
                                     s.frac[perm])))
        for ratio in (0.9, 0.99, 1.01, 1.1):
            pairs.append((s, _jittered(s, rng, ratio, params)))
    return pairs + _colliding_pairs()


def _colliding_pairs():
    """Pairs in which two atoms of a have the same nearest atom of b, so
    the first takes it from the second. In a 10 A cube of 3 atoms the cutoff
    is about 2.08 A. a's atom at x = 0.5 lies midway between b's atoms at
    0.4 and 0.6 (a tie, which the lower index takes), as does its atom at
    0.45; then b's atoms at 0.4 and 0.75 leave the second atom of a 2.5 A
    from what is left."""
    lattice = 10.0 * np.eye(3)

    def cell(*xs):
        return FullCrystal(lattice, [1] + [2] * len(xs),
                           [[0, 0, 0]] + [[x, 0, 0] for x in xs])

    pairs = []
    for a, b in ((cell(0.45, 0.5), cell(0.4, 0.6)),
                 (cell(0.5, 0.45), cell(0.6, 0.4)),
                 (cell(0.45, 0.5), cell(0.4, 0.75)),
                 (cell(0.5, 0.45), cell(0.75, 0.4)),
                 (cell(0.5, 0.5), cell(0.4, 0.6))):
        pairs += [(a, b), (b, a)]
    return pairs


def test_matcher_decisions_equal_per_row_greedy_oracle(catalog, monkeypatch):
    """One distance matrix per shift decides every pair as the per-row
    greedy does: copies, permuted copies, jitter just inside and outside
    stol, several anchor candidates, cells at 10-170 degrees, and rows
    whose nearest columns collide or tie, of which some match and some do
    not. The two sides of a pair share lattice and composition, so the
    site assignment decides each one."""
    params = MatchParams()
    pairs = _matcher_oracle_pairs(catalog)
    got = [structure_match(a, b, params) for a, b in pairs]
    one_way = [(evalx._one_way_match(a, b, params),
                evalx._one_way_match(b, a, params)) for a, b in pairs]
    colliding = {m for pair in one_way[-len(_colliding_pairs()):]
                 for m in pair}
    assert colliding == {True, False}
    monkeypatch.setattr(evalx, "_one_way_match", _greedy_one_way_match)
    assert got == [structure_match(a, b, params) for a, b in pairs]
    assert one_way == [(_greedy_one_way_match(a, b, params),
                        _greedy_one_way_match(b, a, params))
                       for a, b in pairs]
    assert True in got and False in got


def test_matcher_runs_out_of_same_element_candidates():
    """a has three Na where b has two: the greedy finds no Na left for a's
    third one, under every shift."""
    params = MatchParams()
    lattice = 4.0 * np.eye(3)
    frac = [[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]]
    a = FullCrystal(lattice, [11, 11, 11, 17], frac)
    b = FullCrystal(lattice, [11, 11, 17, 17], frac)
    assert not _greedy_one_way_match(a, b, params)
    assert not evalx._one_way_match(a, b, params)
    assert _greedy_one_way_match(b, a, params) == \
        evalx._one_way_match(b, a, params)
    assert not structure_match(a, b, params)


def test_matcher_breaks_distance_ties_by_lowest_index():
    """a's atom at x = 0.5 lies exactly midway between b's two Y atoms; the
    greedy takes the lower index, which succeeds only when that atom is
    the one at 0.375, leaving 0.625 for a's atom at 0.75."""
    params = MatchParams()
    lattice = 10.0 * np.eye(3)

    def cell(*xs):
        return FullCrystal(lattice, [1] + [2] * len(xs),
                           [[0, 0, 0]] + [[x, 0, 0] for x in xs])

    a = cell(0.5, 0.75)
    for b, want in ((cell(0.375, 0.625), True), (cell(0.625, 0.375), False)):
        assert structure_match(a, b, params) is want
        assert evalx._one_way_match(a, b, params) == \
            _greedy_one_way_match(a, b, params)
        assert evalx._one_way_match(b, a, params) == \
            _greedy_one_way_match(b, a, params)


def test_distance_matrix_rows_equal_single_row_calls():
    """Each row of min_image_distance_matrix(A, B, L), and each column
    subset of it, is bitwise the single-row call, with and without a
    cutoff, and so is each row of A @ L: the matcher's one matrix per shift
    and its one call over all shifts rely on this."""
    rng = np.random.default_rng(31)
    cut = Counter()
    for n, m in ((1, 1), (3, 7), (17, 40), (40, 98), (98, 98)):
        lattice = _oblique_cell(rng, 1, 1).lattice
        a = rng.uniform(-0.5, 1.5, (n, 3))
        b = rng.uniform(0.0, 1.0, (m, 3))
        for cutoff in (np.inf, 0.6, 1.5):
            full = kernels.min_image_distance_matrix(a, b, lattice, cutoff)
            for i in range(n):
                row = kernels.min_image_distance_matrix(a[i:i + 1], b,
                                                        lattice, cutoff)
                assert full[i].tobytes() == row[0].tobytes()
                assert (a @ lattice)[i].tobytes() == \
                    (a[i:i + 1] @ lattice)[0].tobytes()
                cols = np.flatnonzero(rng.random(m) < 0.5)
                part = kernels.min_image_distance_matrix(
                    a[i:i + 1], b[cols], lattice, cutoff)
                assert full[i, cols].tobytes() == part[0].tobytes()
            if cutoff < np.inf:
                cut.update(np.isinf(full).ravel().tolist())
    assert cut[True] > 1000 and cut[False] > 1000


def _moved_to_cutoff(s, k, ratio, direction, params):
    """s with atom k moved by ratio * the match cutoff along a unit
    Cartesian direction."""
    cutoff = params.stol * (s.volume / s.n_atoms) ** (1.0 / 3.0)
    frac = s.frac.copy()
    frac[k] += ratio * cutoff * direction @ np.linalg.inv(s.lattice)
    return FullCrystal(s.lattice, s.elements, frac)


def _boundary_bases(catalog):
    rng = np.random.default_rng(37)
    bases = []
    for g in (221, 225, 229, 191, 194, 2):
        while True:
            full = cr.expand_asu(random_asu(catalog, g, rng, max_sites=2),
                                 catalog)
            if 1 < full.n_atoms <= 64:
                bases.append(full)
                break
    return bases + [_oblique_cell(rng, n, k) for n, k in
                    ((4, 1), (8, 2), (12, 3))]


def test_matcher_at_the_cutoff_equals_the_uncut_greedy(catalog, monkeypatch):
    """One atom moved so that its partner lies at cutoff * (1 +- 1e-12),
    along a lattice-plane normal of the Niggli cell (where the kernel's
    plane-spacing bound is attained) and along a random direction: the
    cut matrices decide each pair as the uncut single-row greedy does, in
    both directions, in cubic, hexagonal, P-1 and oblique P1 cells."""
    params = MatchParams()
    rng = np.random.default_rng(41)
    pairs = []
    for s in _boundary_bases(catalog):
        R, M = s.reduced
        inv = np.linalg.inv(R)
        # the atom farthest from the other atoms of its element, never the
        # anchor
        dist = kernels.min_image_distance_matrix(s.frac @ M, s.frac @ M, R)
        dist[s.elements[:, None] != s.elements[None, :]] = np.inf
        np.fill_diagonal(dist, np.inf)
        k = 1 + int(np.argmax(dist[1:].min(axis=1)))
        axis = int(rng.integers(3))
        normal = inv[:, axis] / np.linalg.norm(inv[:, axis])
        random = rng.standard_normal(3)
        for direction in (normal, random / np.linalg.norm(random)):
            for ratio in (1 - 1e-12, 1 + 1e-12):
                pairs.append((s, _moved_to_cutoff(s, k, ratio, direction,
                                                  params)))
    got = [structure_match(a, b, params) for a, b in pairs]
    one_way = [(evalx._one_way_match(a, b, params),
                evalx._one_way_match(b, a, params)) for a, b in pairs]
    monkeypatch.setattr(evalx, "_one_way_match", _greedy_one_way_match)
    assert got == [structure_match(a, b, params) for a, b in pairs]
    assert one_way == [(_greedy_one_way_match(a, b, params),
                        _greedy_one_way_match(b, a, params))
                       for a, b in pairs]
    assert got[0::2].count(True) > 10 and got[1::2].count(False) > 10


def test_g229_pair_of_98_atoms_matches_its_site_permuted_copy(catalog):
    """The benchmark's matcher timing pair: Im-3m with 96 O on the general
    position and 2 Fe on 2a, against the copy with its sites listed in
    the other order."""
    rng = np.random.default_rng(43)
    entry = catalog.group(229)
    general = symcat.symmetrize_site(entry.wyckoff[-1],
                                     rng.uniform(0.0, 1.0, 3))
    sites = [Site(element=8, wyckoff=entry.wyckoff[-1].letter,
                  frac=general),
             Site(element=26, wyckoff="a", frac=np.zeros(3))]
    ell = [10.6, 10.6, 10.6, 90.0, 90.0, 90.0]
    a = cr.expand_asu(CrystalASU(229, sites, ell), catalog)
    b = cr.expand_asu(CrystalASU(229, sites[::-1], ell), catalog)
    assert a.n_atoms == b.n_atoms == 98
    assert not np.array_equal(a.elements, b.elements)
    assert structure_match(a, b)
    params = MatchParams()
    assert evalx._one_way_match(a, b, params) == \
        _greedy_one_way_match(a, b, params)
    assert evalx._one_way_match(b, a, params) == \
        _greedy_one_way_match(b, a, params)


# ---------------------------------------------------------------------------
# uniqueness / novelty
# ---------------------------------------------------------------------------


def test_uniqueness_of_identical_copies(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    copies = [full] * 5
    uniq, novel, _ = uniqueness_and_novelty(copies, [], n_novelty=10)
    assert uniq == pytest.approx(100.0 / 5)
    assert novel == 100.0


def test_novelty_zero_when_copied_from_train(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    uniq, novel, _ = uniqueness_and_novelty([full], [full], n_novelty=10)
    assert novel == 0.0


def test_novelty_hundred_for_disjoint(catalog):
    corpus = _random_corpus(catalog, n=6, seed=8)
    uniq, novel, flags = uniqueness_and_novelty(
        corpus[:3], corpus[3:], n_novelty=100)
    assert "novelty_subsample_truncated" in flags
    assert novel > 0.0


def test_unique_count_permutation_invariant(catalog):
    corpus = _random_corpus(catalog, n=8, seed=12)
    corpus = corpus + corpus[:3]
    rng = np.random.default_rng(4)

    def count_unique(items):
        uniq, _, _ = uniqueness_and_novelty(items, [], n_novelty=1)
        return round(uniq * len(items) / 100.0)

    base = count_unique(corpus)
    for _ in range(3):
        perm = rng.permutation(len(corpus))
        assert count_unique([corpus[i] for i in perm]) == base


def all_pairs_uniqueness_and_novelty(gen, train, params=MatchParams(),
                                     n_novelty=1000, seed=0):
    """Oracle: `structure_match` on every generated x unique and subsample
    x reference pair, with no bucketing."""
    flags = {}
    unique = []
    for s in gen:
        if any(structure_match(s, u, params) for u in unique):
            continue
        unique.append(s)
    uniqueness = 100.0 * len(unique) / len(gen) if gen else 0.0
    rng = np.random.default_rng(seed)
    if n_novelty < len(unique):
        idx = rng.choice(len(unique), size=n_novelty, replace=False)
        subsample = [unique[i] for i in idx]
    else:
        subsample = list(unique)
        if n_novelty > len(unique):
            flags["novelty_subsample_truncated"] = len(unique)
    novel = sum(0 if any(structure_match(s, t, params) for t in train) else 1
                for s in subsample)
    novelty = 100.0 * novel / len(subsample) if subsample else 0.0
    return uniqueness, novelty, flags


def _rock_salt(catalog, anion=17, length=5.65, shift=(0.0, 0.0, 0.0)):
    full = cr.expand_asu(CrystalASU(
        spacegroup=225,
        sites=[Site(element=11, wyckoff="a", frac=np.zeros(3)),
               Site(element=anion, wyckoff="b", frac=np.full(3, 0.5))],
        lattice=[length] * 3 + [90.0] * 3), catalog)
    return FullCrystal(lattice=full.lattice, elements=full.elements,
                       frac=(full.frac + np.array(shift)) % 1.0)


def _mixed_key_corpus(catalog):
    """Exact and shifted duplicates, one reduced composition at 2 and 8
    atoms, and 8-atom cells of other compositions."""
    nacl = _rock_salt(catalog)
    shifted = _rock_salt(catalog, shift=(0.25, 0.1, 0.6))
    wide = _rock_salt(catalog, length=7.5)            # same key, no match
    nabr = _rock_salt(catalog, anion=35)              # same count, other key
    pair = FullCrystal(lattice=4.0 * np.eye(3), elements=[11, 17],
                       frac=[[0, 0, 0], [0.5, 0.5, 0.5]])  # same composition
    rest = _random_corpus(catalog, n=8, seed=5)
    gen = [nacl, pair, rest[0], nabr, shifted, rest[1], nacl, wide, pair,
           rest[2], rest[0], rest[3], nabr]
    train = [wide, rest[3], pair, rest[4], nabr, rest[5], rest[6], rest[7]]
    return gen, train


def test_bucketed_matcher_agrees_with_all_pairs_oracle(catalog):
    gen, train = _mixed_key_corpus(catalog)
    for n_novelty, seed in ((1000, 0), (len(gen), 0), (3, 1), (5, 7)):
        assert uniqueness_and_novelty(gen, train, n_novelty=n_novelty,
                                      seed=seed) == \
            all_pairs_uniqueness_and_novelty(gen, train, n_novelty=n_novelty,
                                             seed=seed)
    for items in (gen[::-1], train + gen):
        assert uniqueness_and_novelty(items, gen) == \
            all_pairs_uniqueness_and_novelty(items, gen)


def _counting_matcher(monkeypatch):
    calls = []

    def counted(a, b, params=MatchParams()):
        calls.append((a, b))
        return structure_match(a, b, params)

    monkeypatch.setattr(evalx, "structure_match", counted)
    return calls


def test_matcher_runs_only_on_equal_key_pairs(catalog, monkeypatch):
    gen, train = _mixed_key_corpus(catalog)
    calls = _counting_matcher(monkeypatch)
    counters = {}
    uniqueness_and_novelty(gen, train, counters=counters)
    assert calls
    assert all(a.match_key == b.match_key for a, b in calls)
    assert counters["match_pairs_compared"] == len(calls)
    assert counters["match_pairs_pruned"] > 0


def test_matcher_never_runs_on_distinct_compositions(catalog, monkeypatch):
    distinct = [_rock_salt(catalog, anion=anion) for anion in (9, 17, 35, 53)]
    calls = _counting_matcher(monkeypatch)
    counters = {}
    uniq, novel, _ = uniqueness_and_novelty(distinct[:3], distinct[3:],
                                            counters=counters)
    assert calls == []
    assert (uniq, novel) == (100.0, 100.0)
    # 3 generated against each other, then 3 unique against 1 reference
    assert counters == {"match_pairs_compared": 0, "match_pairs_pruned": 6}


def test_unequal_atom_counts_are_refused_before_niggli(catalog, monkeypatch):
    reductions = []
    real = cr.niggli_reduce

    def counted(lattice, *args, **kwargs):
        reductions.append(lattice)
        return real(lattice, *args, **kwargs)

    monkeypatch.setattr(cr, "niggli_reduce", counted)
    nacl = _rock_salt(catalog)                          # 8 atoms
    pair = FullCrystal(lattice=4.0 * np.eye(3), elements=[11, 17],
                       frac=[[0, 0, 0], [0.5, 0.5, 0.5]])
    assert not structure_match(nacl, pair)
    assert not structure_match(pair, nacl)
    assert reductions == []
    twin = _rock_salt(catalog)                          # equal, distinct
    assert structure_match(nacl, twin)                  # the double is live
    assert len(reductions) == 2
    assert structure_match(twin, nacl) and structure_match(nacl, twin)
    assert len(reductions) == 2                         # each reduced once


def test_pipeline_reduces_each_structure_at_most_once(catalog, monkeypatch):
    reductions = []
    real = cr.niggli_reduce

    def counted(lattice, *args, **kwargs):
        reductions.append(lattice)
        return real(lattice, *args, **kwargs)

    monkeypatch.setattr(cr, "niggli_reduce", counted)
    rng = np.random.default_rng(4)
    train = [random_asu(catalog, g, rng, max_sites=2)
             for g in (14, 62, 139, 225, 225)]
    gen = train + train[:3]                             # duplicates match
    counters = {}
    evalx.evaluate_pipeline(gen, train, catalog, counters=counters)
    assert counters["match_pairs_compared"] > 0
    assert 0 < len(reductions) <= len(gen) + len(train)
    assert len({id(lattice) for lattice in reductions}) == len(reductions)


# ---------------------------------------------------------------------------
# reference expansion
# ---------------------------------------------------------------------------


def eager_evaluate_pipeline(gen, train, catalog, params=MatchParams(),
                            n_novelty=1000, seed=0, counters=None):
    """Oracle: the pipeline that expands every reference to its full cell
    and takes each reference's key and atom count from that cell.
    `references_expanded` counts the references whose key a valid
    generated structure shares."""
    tally = counters if counters is not None else {}
    for name in ("degenerate_orbits", "off_form_structures",
                 "invalid_volume", "invalid_distance"):
        tally.setdefault(name, 0)
    expanded = []
    for a in gen:
        orbits, = cr.expand_orbits([a], catalog)
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
    train_structs = [cr.expand_asu(a, catalog) for a in train]
    gen_keys = {s.match_key for s in valid_structs}
    tally["references_expanded"] = sum(t.match_key in gen_keys
                                       for t in train_structs)
    uniq, novel, flags = uniqueness_and_novelty(
        valid_structs, train_structs, params, n_novelty, seed, tally)
    return evalx.GenerationReport(
        n_generated=len(gen),
        structural_validity_rate=100.0 * len(valid_asus) / len(gen),
        uniqueness=uniq,
        novelty=novel,
        jsd_group=jsd(Counter(a.spacegroup for a in valid_asus),
                      Counter(a.spacegroup for a in train)),
        jsd_wyckoff=jsd_wyckoff(valid_asus, train),
        wasserstein_atoms=wasserstein_atoms(
            [s.n_atoms for s in valid_structs],
            [t.n_atoms for t in train_structs]),
        p1_rate=p1_rate(gen),
        composition=composition_stats(valid_asus),
        flags=flags,
    )


def _valid_asus(catalog, groups, seed):
    rng = np.random.default_rng(seed)
    out = []
    for g in groups:
        while True:
            asu = random_asu(catalog, g, rng, max_sites=3)
            if cr.structural_validity(cr.expand_asu(asu, catalog)):
                break
        out.append(asu)
    return out


def _reference_sets(catalog, nacl):
    """(generated, references) pairs named by what the references hold."""
    gen = [nacl, *_valid_asus(catalog, (1, 1, 2, 14, 62, 139, 191, 229), 11)]
    gen.append(gen[3])                                   # a duplicate
    others = _valid_asus(catalog, (1, 2, 14, 62, 139, 191, 225, 229), 12)

    def sites(*pairs):
        return [Site(element=el, wyckoff=w, frac=np.asarray(f, dtype=float))
                for el, w, f in pairs]

    # 225 e is (x,0,0); at x = 0 it collapses onto 4a: rock salt again
    collapsed_nacl = CrystalASU(spacegroup=225, lattice=nacl.lattice,
                                sites=sites((11, "e", [0, 0, 0]),
                                            (17, "b", [0.5] * 3)))
    collapsed_more = CrystalASU(spacegroup=225, lattice=nacl.lattice,
                                sites=[*nacl.sites, *sites((8, "e", [0.5, 0, 0]),
                                                           (6, "e", [0.2, 0, 0]))])
    stretched = CrystalASU(spacegroup=225, sites=nacl.sites,
                           lattice=nacl.lattice + [0, 0, 1e-7, 0, 0, 0])
    nudged = CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=sites(
        (11, "a", [0, 0, 0]), (17, "b", [0.5, 0.5, 0.5 + 1e-7])))
    origin_shifted = CrystalASU(spacegroup=225, lattice=nacl.lattice,
                                sites=sites((11, "b", [0.5] * 3),
                                            (17, "a", [0, 0, 0])))
    p1 = gen[1]
    p1_shifted = CrystalASU(spacegroup=1, lattice=p1.lattice, sites=sites(
        *((s.element, "a", s.frac + [0.3, 0.1, 0.7]) for s in p1.sites)))
    return {
        "collapsed": (gen, [others[0], collapsed_nacl, collapsed_more,
                            others[1]]),
        "off_form": (gen, [stretched, others[2], nudged]),
        "unshared": (gen, others),
        "copies": (gen, [others[3], gen[4], origin_shifted, others[4],
                         p1_shifted, gen[8], gen[4]]),
        "mixed": (gen, [*others[:4], collapsed_nacl, stretched, p1_shifted,
                        gen[6], *others[4:], nudged]),
        "disjoint": ([nacl, gen[5]], others),
    }


def _recorded_matches(monkeypatch):
    """The pairs `structure_match` is called on, by their atoms."""
    calls = []

    def recorded(a, b, params=MatchParams()):
        calls.append(tuple(x.tobytes() for x in (a.elements, a.frac,
                                                 b.elements, b.frac)))
        return structure_match(a, b, params)

    monkeypatch.setattr(evalx, "structure_match", recorded)
    return calls


@pytest.mark.parametrize("case", ["collapsed", "off_form", "unshared",
                                  "copies", "mixed", "disjoint"])
def test_lazy_reference_expansion_agrees_with_eager_oracle(
        catalog, nacl, monkeypatch, case):
    """Expanding only the references whose key a valid generated structure
    shares gives the eager pipeline's report and counters, and runs the
    matcher on the same pairs in the same order."""
    gen, train = _reference_sets(catalog, nacl)[case]
    calls = _recorded_matches(monkeypatch)
    for n_novelty, seed in ((1000, 0), (3, 1)):
        want_counters, got_counters = {}, {}
        want = eager_evaluate_pipeline(gen, train, catalog,
                                       n_novelty=n_novelty, seed=seed,
                                       counters=want_counters)
        want_calls = calls[:]
        calls.clear()
        got = evalx.evaluate_pipeline(gen, train, catalog,
                                      n_novelty=n_novelty, seed=seed,
                                      counters=got_counters)
        assert got.to_json() == want.to_json()
        assert got_counters == want_counters
        assert calls == want_calls
        calls.clear()
    expected = {"collapsed": 1, "off_form": 2, "unshared": 0, "copies": 5,
                "mixed": 5, "disjoint": 0}[case]
    assert got_counters["references_expanded"] == expected


def test_pipeline_expands_only_the_references_it_can_match(catalog, nacl,
                                                           monkeypatch):
    gen, train = _reference_sets(catalog, nacl)["mixed"]
    expanded = []
    real = cr.Orbits.cell

    def counted(orbits):
        expanded.append(orbits.asu)
        return real(orbits)

    monkeypatch.setattr(cr.Orbits, "cell", counted)
    counters = {}
    evalx.evaluate_pipeline(gen, train, catalog, counters=counters)
    assert [id(a) for a in expanded[:len(gen)]] == [id(a) for a in gen]
    references = [id(a) for a in expanded[len(gen):]]
    shared = [id(a) for i, a in enumerate(train) if i in (4, 5, 6, 7, 12)]
    assert references == shared                 # in their original order
    assert counters["references_expanded"] == 5


@pytest.mark.parametrize("case", ["mixed", "collapsed", "off_form"])
def test_pipeline_report_does_not_depend_on_the_expansion_batch(
        catalog, nacl, monkeypatch, case):
    """Expanding the sets two structures at a time gives the report and
    counters of one pass over each set."""
    gen, train = _reference_sets(catalog, nacl)[case]
    want_counters, got_counters = {}, {}
    want = evalx.evaluate_pipeline(gen, train, catalog, n_novelty=2,
                                   counters=want_counters)
    monkeypatch.setattr(cr, "EXPAND_BATCH", 2)
    got = evalx.evaluate_pipeline(gen, train, catalog, n_novelty=2,
                                  counters=got_counters)
    assert got.to_json() == want.to_json()
    assert got_counters == want_counters
    assert len(gen) > 2 and len(train) > 2


@pytest.mark.parametrize("case", ["mixed", "collapsed"])
def test_pipeline_dedups_only_where_the_pass_cannot_decide(
        catalog, nacl, monkeypatch, case):
    """The pipeline expands orbits one Wyckoff position at a time; a site's
    points reach the full dedup only when it is off its form or has an
    orbit point within the screen's reach of point 0. Each such site of the
    generated and the reference set goes there exactly once."""
    gen, train = _reference_sets(catalog, nacl)[case]
    want = Counter()
    for asu in gen + train:
        entry = catalog.group(asu.spacegroup)
        for site in asu.sites:
            w = entry.position(site.wyckoff)
            rot, trans = w.generator_arrays
            pts = symcat.wrap_unit(rot @ symcat.wrap_unit(site.frac) + trans)
            d = np.abs(pts[1:] - pts[0])
            near = np.any(np.minimum(d, 1.0 - d).max(axis=1)
                          < 2 * symcat.MAX_ROW_SUM * symcat.ORBIT_TOL)
            if near or not symcat.on_form(w, site.frac):
                want[pts.tobytes()] += 1
    calls = Counter()
    real = symcat._dedup

    def recorded(pts):
        calls[pts.tobytes()] += 1
        return real(pts)

    monkeypatch.setattr(symcat, "_dedup", recorded)
    evalx.evaluate_pipeline(gen, train, catalog)
    assert calls == want
    assert sum(want.values()) >= 2


# ---------------------------------------------------------------------------
# composition stats and P1 rate
# ---------------------------------------------------------------------------


def test_composition_stats_nacl(catalog, nacl):
    stats = composition_stats([nacl, nacl, nacl])
    assert stats["unique_elements"]["mean"] == 2.0
    assert stats["unique_elements"]["std"] == 0.0
    assert stats["rare_earth"]["count"] == 0
    assert stats["orbit_count"]["mean"] == 2.0


def test_rare_earth_detection(catalog):
    asu = _asu(225, ["a"], catalog)
    asu.sites[0].element = 57  # La
    stats = composition_stats([asu])
    assert stats["rare_earth"]["count"] == 1
    assert stats["rare_earth"]["percent"] == 100.0
    # Sc and Y count as rare earth
    asu.sites[0].element = 21
    assert composition_stats([asu])["rare_earth"]["count"] == 1
    asu.sites[0].element = 39
    assert composition_stats([asu])["rare_earth"]["count"] == 1
    asu.sites[0].element = 26
    assert composition_stats([asu])["rare_earth"]["count"] == 0


def test_p1_rate(catalog):
    none = [_asu(225, ["a"], catalog)]
    assert p1_rate(none) == 0.0
    alla = [_asu(1, ["a"], catalog), _asu(1, ["a"], catalog)]
    assert p1_rate(alla) == 100.0
    assert p1_rate(none + alla) == pytest.approx(100.0 * 2 / 3)


# ---------------------------------------------------------------------------
# report pipeline
# ---------------------------------------------------------------------------


def test_pipeline_on_synthetic_corpus(catalog):
    rng = np.random.default_rng(2)
    train = []
    for g in (1, 2, 14, 14, 225):
        while True:
            asu = random_asu(catalog, g, rng, max_sites=2)
            if cr.structural_validity(cr.expand_asu(asu, catalog)):
                break
        train.append(asu)
    gen = list(train)
    report = evalx.evaluate_pipeline(gen, train, catalog, n_novelty=3,
                                     seed=0)
    assert report.n_generated == 5
    assert report.novelty == 0.0
    assert report.jsd_wyckoff == pytest.approx(0.0, abs=1e-12)
    assert report.jsd_group == pytest.approx(0.0, abs=1e-12)
    assert report.wasserstein_atoms == pytest.approx(0.0, abs=1e-12)
    assert 0 <= report.p1_rate <= 100
    assert set(json.loads(report.to_json())) == {
        "n_generated", "structural_validity_rate", "uniqueness", "novelty",
        "jsd_group", "jsd_wyckoff", "wasserstein_atoms", "p1_rate",
        "composition", "flags", "compositional_validity_rate"}
    table = report.to_table()
    assert "JSD_Wy" in table


def test_pipeline_counts_structures_off_their_forms(catalog, nacl):
    """A generated cell whose lattice or site is off its form takes the
    all-pairs validity path and is counted; the report does not change."""
    stretched = CrystalASU(spacegroup=225, sites=nacl.sites,
                           lattice=nacl.lattice + [0, 0, 1e-7, 0, 0, 0])
    nudged = CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=[
        nacl.sites[0], Site(element=17, wyckoff="b",
                            frac=np.array([0.5, 0.5, 0.5 + 1e-7]))])
    counters = {}
    report = evalx.evaluate_pipeline([nacl, stretched, nudged, nacl], [nacl],
                                     catalog, n_novelty=1, counters=counters)
    assert counters["off_form_structures"] == 2
    assert report.structural_validity_rate == 100.0
    assert "off_form_structures" not in json.loads(report.to_json())
    counters = {}
    evalx.evaluate_pipeline([nacl], [stretched], catalog, n_novelty=1,
                            counters=counters)
    assert counters["off_form_structures"] == 0    # references do not count


def test_pipeline_counters_are_the_per_structure_sums(catalog, nacl):
    """Generated structures with collapsed orbits and with lattices or
    sites off their forms, their sites at shared positions: the counters
    of the one pass over the set are the sums over the structures, each
    site taken alone by `orbit_expand` and `on_form`."""
    sets = _reference_sets(catalog, nacl)
    gen = [*sets["collapsed"][1], *sets["off_form"][1], *sets["mixed"][0]]
    degenerate = off_form = 0
    for asu in gen:
        entry = catalog.group(asu.spacegroup)
        on_form = cr._on_lattice_class(entry.lattice_class, asu.lattice)
        for site in asu.sites:
            w = entry.position(site.wyckoff)
            pts = symcat.orbit_expand(entry, w, site.frac)
            degenerate += len(pts) != w.multiplicity
            on_form = on_form and symcat.on_form(w, site.frac)
        off_form += not on_form
    counters = {}
    evalx.evaluate_pipeline(gen, [nacl], catalog, counters=counters)
    assert counters["degenerate_orbits"] == degenerate >= 2
    assert counters["off_form_structures"] == off_form >= 2


def test_pipeline_rejects_empty(catalog):
    with pytest.raises(ValueError):
        evalx.evaluate_pipeline([], [], catalog)


def test_pipeline_validity_hook(catalog, nacl):
    report = evalx.evaluate_pipeline(
        [nacl], [nacl], catalog, n_novelty=1,
        validity_hook=lambda asu: len(asu.sites) == 2)
    assert report.compositional_validity_rate == 100.0
