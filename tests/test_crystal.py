import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import random_asu
from symadit import crystal as cr
from symadit import _kernels_py, kernels, symcat
from symadit.crystal import (
    CrystalASU,
    FullCrystal,
    IngestError,
    Site,
    assign_wyckoff,
    expand_asu,
    lattice_matrix,
    min_pairwise_distance,
    niggli_reduce,
    structural_validity,
)


def exhaustive_min_image(diff, lattice, bound, skip_zero=False):
    """Independent oracle: the least |(d + n) @ lattice| over every integer
    n that can reach `bound`, for a fractional difference d.

    (d + n) @ lattice has component d_k + n_k along the reciprocal row b*_k
    (the columns of inv(lattice)), so an image no longer than `bound` has
    |d_k + n_k| <= bound |b*_k| on every axis; the search covers that box.
    Any attained image length is a valid bound. skip_zero drops n = 0, for
    the self-images of one atom (d = 0)."""
    lattice = np.asarray(lattice, float)
    diff = np.asarray(diff, float)
    reach = bound * np.linalg.norm(np.linalg.inv(lattice), axis=0)
    axes = [np.arange(np.floor(-d - r), np.ceil(-d + r) + 1)
            for d, r in zip(diff, reach)]
    n = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    if skip_zero:
        n = n[np.any(n != 0, axis=1)]
    return float(np.min(np.linalg.norm((diff + n) @ lattice, axis=1)))


def exhaustive_min_distance(frac, lattice, bound):
    """The oracle over every atom pair and every self-image."""
    frac = np.asarray(frac, float)
    best = exhaustive_min_image(np.zeros(3), lattice, bound, skip_zero=True)
    for i, j in itertools.combinations(range(len(frac)), 2):
        best = min(best, exhaustive_min_image(frac[i] - frac[j], lattice,
                                              bound))
    return best


def oblique_cells(rng, count):
    """Cells the decoder can emit: lengths log-uniform over 0.5-50 Angstrom,
    angles uniform over 10-170 degrees."""
    cells = []
    while len(cells) < count:
        ell = np.concatenate([np.exp(rng.uniform(np.log(0.5), np.log(50), 3)),
                              rng.uniform(10, 170, 3)])
        try:
            cells.append(lattice_matrix(ell)[0])
        except ValueError:
            continue
    return cells


# ---------------------------------------------------------------------------
# lattice geometry
# ---------------------------------------------------------------------------


def test_lattice_matrix_cubic():
    L, vol = lattice_matrix([5.65, 5.65, 5.65, 90, 90, 90])
    assert np.allclose(L, np.diag([5.65, 5.65, 5.65]), atol=1e-12)
    assert vol == pytest.approx(180.36, abs=0.01)


def test_lattice_matrix_identity():
    L, vol = lattice_matrix([1, 1, 1, 90, 90, 90])
    assert np.allclose(L, np.eye(3), atol=1e-14)
    assert vol == pytest.approx(1.0)


def test_lattice_matrix_orthorhombic():
    L, vol = lattice_matrix([2, 3, 4, 90, 90, 90])
    assert np.allclose(L, np.diag([2.0, 3.0, 4.0]), atol=1e-12)
    assert vol == pytest.approx(24.0)


def test_lattice_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        lattice_matrix([0, 1, 1, 90, 90, 90])
    with pytest.raises(ValueError):
        lattice_matrix([1, 1, 1, 190, 90, 90])
    with pytest.raises(ValueError):
        # alpha + beta + gamma geometry that closes no cell
        lattice_matrix([1, 1, 1, 170, 10, 40])


def test_lattice_params_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(30):
        ell = np.empty(6)
        ell[:3] = rng.uniform(2, 10, 3)
        ell[3:] = rng.uniform(60, 120, 3)
        try:
            L, _ = lattice_matrix(ell)
        except ValueError:
            continue
        assert np.allclose(cr.lattice_params(L), ell, atol=1e-9)


# ---------------------------------------------------------------------------
# expansion / golden NaCl
# ---------------------------------------------------------------------------


def test_nacl_expansion(catalog, nacl):
    full = expand_asu(nacl, catalog)
    assert full.n_atoms == 8
    assert np.allclose(full.lattice, np.diag([5.65] * 3))
    assert sorted(full.elements.tolist()) == [11] * 4 + [17] * 4
    assert full.volume == pytest.approx(5.65**3)


def test_nacl_min_distance(catalog, nacl):
    full = expand_asu(nacl, catalog)
    d = min_pairwise_distance(full)
    assert d == pytest.approx(2.825, abs=1e-9)
    assert d == pytest.approx(
        exhaustive_min_distance(full.frac, full.lattice, d), rel=1e-12)


def test_nacl_validity(catalog, nacl):
    assert structural_validity(expand_asu(nacl, catalog))


def test_p1_with_three_sites(catalog):
    asu = CrystalASU(
        spacegroup=1,
        sites=[
            Site(element=6, wyckoff="a", frac=[0.1, 0.2, 0.3]),
            Site(element=7, wyckoff="a", frac=[0.4, 0.5, 0.6]),
            Site(element=8, wyckoff="a", frac=[0.7, 0.8, 0.9]),
        ],
        lattice=[4, 5, 6, 80, 95, 105],
    )
    full = expand_asu(asu, catalog)
    assert full.n_atoms == 3


def test_expansion_counts_match_multiplicities(catalog):
    rng = np.random.default_rng(2)
    for g in (2, 14, 47, 88, 141, 160, 186, 216, 227):
        asu = random_asu(catalog, g, rng)
        entry = catalog.group(g)
        full = expand_asu(asu, catalog)
        expected = sum(entry.position(s.wyckoff).multiplicity for s in asu.sites)
        assert full.n_atoms == expected


def collapsed_rock_salt(nacl):
    """Rock salt plus three 24-point 225 e sites, (x,0,0): at x = 0 and
    x = 1/2 the orbit collapses onto 4a and 4b, at x = 0.2 it does not."""
    return CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=[
        *nacl.sites,
        Site(element=8, wyckoff="e", frac=np.zeros(3)),
        Site(element=9, wyckoff="e", frac=[0.5, 0, 0]),
        Site(element=6, wyckoff="e", frac=[0.2, 0, 0])])


def test_expand_orbits_counts_each_collapsed_orbit(catalog, nacl):
    collapsed = collapsed_rock_salt(nacl)
    orbits, plain = cr.expand_orbits([collapsed, nacl], catalog)
    assert orbits.degenerate == 2 and plain.degenerate == 0
    full = expand_asu(collapsed, catalog)
    assert full.n_atoms == 4 + 4 + 4 + 4 + 24
    assert np.array_equal(orbits.cell().frac, full.frac)


def multiplicity_key(asu, catalog):
    """The match key from Wyckoff multiplicities alone, which is wrong when
    an orbit collapses."""
    entry = catalog.group(asu.spacegroup)
    counts = Counter()
    for site in asu.sites:
        counts[site.element] += entry.position(site.wyckoff).multiplicity
    return cr._match_key(counts)


def test_asu_match_key_counts_collapsed_orbits(catalog, nacl):
    collapsed = collapsed_rock_salt(nacl)
    key = (40, ((6, 6), (8, 1), (9, 1), (11, 1), (17, 1)))
    orbits = list(cr.expand_orbits([collapsed, nacl], catalog))
    assert orbits[0].match_key == key
    assert expand_asu(collapsed, catalog).match_key == key
    assert multiplicity_key(collapsed, catalog) == \
        (80, ((6, 6), (8, 6), (9, 6), (11, 1), (17, 1)))
    assert orbits[1].match_key == (8, ((11, 1), (17, 1)))


def test_asu_match_key_is_the_expanded_key_in_every_group(catalog):
    """Oracle: in all 230 groups the key from orbit sizes, taken from one
    pass over every structure, equals the key of the cell each structure
    expands to alone, for generic and collapsed sites on their forms and
    with the last site nudged by 1e-7, off its form when it is special; a
    key from multiplicities equals it exactly when no orbit collapses."""
    rng = np.random.default_rng(47)
    asus = []
    for group in range(1, 231):
        cells = symmetric_cells(catalog, group, rng, 4)
        for ell, grid in zip(cells, (0, 2, 4, 0)):
            asu = symmetric_asu(catalog, group, rng, ell, grid)
            if grid == 0 and len(asu.sites) > 1:
                asu.sites[-1].frac = asu.sites[-1].frac + 1e-7
            asus.append(asu)
    collapsed = 0
    for asu, orbits in zip(asus, cr.expand_orbits(asus, catalog)):
        alone, = cr.expand_orbits([asu], catalog)
        key = alone.cell().match_key
        assert orbits.match_key == key, asu.spacegroup
        assert (multiplicity_key(asu, catalog) == key) == \
            (alone.degenerate == 0)
        collapsed += alone.degenerate > 0
    assert collapsed > 100


@pytest.mark.parametrize("batch", [cr.EXPAND_BATCH, 7])
def test_expand_orbits_equals_orbit_expand_at_every_position(
        catalog, monkeypatch, batch):
    """Oracle for the pass over each Wyckoff position: at every catalog
    position, sites drawn uniformly, on a quarter grid and a third grid
    (which collapse some orbits) and off their forms by 1e-7, are dealt
    out over several structures of the group in shuffled order. Each
    site's points are bitwise `orbit_expand`'s, and each structure's
    form flag, collapse count, key and cell are those that the sites give
    one at a time, whether all 690 structures share one pass or they are
    taken 7 at a time."""
    monkeypatch.setattr(cr, "EXPAND_BATCH", batch)
    rng = np.random.default_rng(53)
    asus = []
    for entry in catalog.groups:
        sites = []
        for w in entry.wyckoff:
            for draw in (rng.uniform(0.0, 1.0, 3), rng.integers(0, 4, 3) / 4,
                         rng.integers(0, 3, 3) / 3):
                sites.append(Site(element=int(rng.integers(1, 101)),
                                  wyckoff=w.letter,
                                  frac=symcat.symmetrize_site(w, draw)))
            f = symcat.symmetrize_site(w, rng.integers(0, 4, 3) / 4)
            sites.append(Site(element=int(rng.integers(1, 101)),
                              wyckoff=w.letter,
                              frac=f + np.array([1.0, -2.0, 3.0]) * 1e-7))
        order = rng.permutation(len(sites))
        ell = symmetric_cells(catalog, entry.number, rng, 1)[0]
        for part in np.array_split(order, 3):
            asus.append(CrystalASU(spacegroup=entry.number, lattice=ell,
                                   sites=[sites[k] for k in part]))
    orbits = list(cr.expand_orbits(asus, catalog))
    assert len(orbits) == len(asus) == 690
    checked = collapsed = off_form = 0
    for asu, got in zip(asus, orbits):
        entry = catalog.group(asu.spacegroup)
        counts, degenerate, on_form = Counter(), 0, True
        for site, pts in zip(asu.sites, got.points):
            w = entry.position(site.wyckoff)
            want = symcat.orbit_expand(entry, w, site.frac)
            assert pts.shape == want.shape, w.key
            assert pts.tobytes() == want.tobytes(), w.key
            counts[site.element] += len(want)
            degenerate += len(want) != w.multiplicity
            on_form = on_form and symcat.on_form(w, site.frac)
            checked += 1
            off_form += not symcat.on_form(w, site.frac)
        assert got.degenerate == degenerate
        assert got.sites_on_form == on_form
        assert got.match_key == cr._match_key(counts)
        cell, alone = got.cell(), expand_asu(asu, catalog)
        for field in ("lattice", "elements", "frac"):
            assert getattr(cell, field).tobytes() == \
                getattr(alone, field).tobytes()
        assert (cell.orbit_starts is None) == (not on_form)
        collapsed += degenerate
    assert checked == 4 * 1731
    assert collapsed > 500
    assert off_form == sum(w.dof < 3 for w in catalog.positions)


def test_expansion_takes_the_determinant_once(catalog, nacl, monkeypatch):
    """Expansion builds the row cell without its volume, so the only
    determinant is `FullCrystal.volume`'s; `lattice_matrix` still returns
    the volume."""
    calls = []
    real = np.linalg.det

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    p1 = CrystalASU(spacegroup=1, lattice=[4, 5, 6, 80, 95, 105],
                    sites=[Site(element=6, wyckoff="a", frac=[0.1, 0.2, 0.3])])
    for asu in (nacl, collapsed_rock_salt(nacl), p1):
        calls.clear()
        full = expand_asu(asu, catalog)
        assert full.volume > 0
        assert len(calls) == 1
    L, volume = lattice_matrix(p1.lattice)
    assert L.tobytes() == full.lattice.tobytes() and volume == full.volume


# ---------------------------------------------------------------------------
# distances and validity
# ---------------------------------------------------------------------------


def test_periodic_wrap_distance():
    full = FullCrystal(lattice=np.eye(3), elements=[1, 1],
                       frac=[[0, 0, 0], [0.99, 0, 0]])
    assert min_pairwise_distance(full) == pytest.approx(0.01, abs=1e-12)


def test_single_atom_shortest_lattice_vector():
    full = FullCrystal(lattice=np.eye(3), elements=[1], frac=[[0.3, 0.4, 0.5]])
    assert min_pairwise_distance(full) == pytest.approx(1.0)


def test_min_distance_matches_oracle_random():
    rng = np.random.default_rng(7)
    for L in oblique_cells(rng, 800):
        m = int(rng.integers(1, 9))
        frac = rng.uniform(0, 1, size=(m, 3))
        got = min_pairwise_distance(
            FullCrystal(lattice=L, elements=[1] * m, frac=frac))
        bound = got * (1 + 1e-9)    # got is an attained image length
        assert got == pytest.approx(
            exhaustive_min_distance(frac, L, bound), rel=1e-12)


def test_min_image_distance_matrix_matches_oracle():
    rng = np.random.default_rng(11)
    for L in oblique_cells(rng, 400):
        frac_a = rng.uniform(0, 1, size=(int(rng.integers(1, 5)), 3))
        frac_b = rng.uniform(0, 1, size=(int(rng.integers(1, 5)), 3))
        R, M = FullCrystal(lattice=L, elements=[1], frac=[[0, 0, 0]]).reduced
        got = kernels.min_image_distance_matrix(frac_a @ M, frac_b @ M, R)
        want = [[exhaustive_min_image(fa - fb, L, d * (1 + 1e-9))
                 for fb, d in zip(frac_b, row)]
                for fa, row in zip(frac_a, got)]
        np.testing.assert_allclose(got, want, rtol=1e-12)


def _cut_cases(rng, count):
    """(R, frac_a, frac_b, normal) on reduced oblique cells. normal holds
    the entries (i, j, t) whose b atom sits t Angstrom from a's atom i along
    a lattice-plane normal, where the plane-spacing bound is attained."""
    for L in oblique_cells(rng, count):
        R, _ = FullCrystal(lattice=L, elements=[1], frac=[[0, 0, 0]]).reduced
        inv = np.linalg.inv(R)
        frac_a = rng.uniform(0, 1, size=(int(rng.integers(1, 41)), 3))
        frac_b = rng.uniform(0, 1, size=(int(rng.integers(1, 41)), 3))
        normal = []
        for j in range(0, len(frac_b), 2):
            i, axis = int(rng.integers(len(frac_a))), int(rng.integers(3))
            spacing = 1.0 / np.linalg.norm(inv[:, axis])
            t = rng.uniform(0.05, 0.45) * spacing
            frac_b[j] = frac_a[i] + t * spacing * inv[:, axis] @ inv
            normal.append((i, j, t))
        yield R, frac_a, frac_b, normal


def test_cut_distance_matrix_keeps_the_uncut_entries_within_reach():
    """Every entry a cutoff keeps is bitwise the uncut one, and every entry
    it skips (inf) is beyond the cutoff: on oblique cells, at cutoffs of
    0.2-4 Angstrom and at every attained distance, one ulp either side.
    Uncut is one sweep over every difference row."""
    rng = np.random.default_rng(17)
    tight = skipped = 0
    for R, frac_a, frac_b, normal in _cut_cases(rng, 400):
        uncut = kernels.min_image_distance_matrix(frac_a, frac_b, R)
        diff = (frac_a[:, None, :] - frac_b[None, :, :]).reshape(-1, 3)
        assert uncut.tobytes() == \
            np.sqrt(_kernels_py._min_image_sq(diff, R)).tobytes()
        for i, j, t in normal:
            assert uncut[i, j] == pytest.approx(t, rel=1e-12)
            tight += 1
        cutoffs = list(rng.uniform(0.2, 4.0, 3))
        for d in [uncut[i, j] for i, j, _ in normal] + [uncut.min()]:
            cutoffs += [d, np.nextafter(d, np.inf), np.nextafter(d, -np.inf)]
        for cutoff in cutoffs:
            cut = kernels.min_image_distance_matrix(frac_a, frac_b, R, cutoff)
            kept = np.isfinite(cut)
            assert cut[kept].tobytes() == uncut[kept].tobytes()
            assert np.all(uncut[~kept] > cutoff)
            skipped += np.count_nonzero(~kept)
    assert tight > 1000 and skipped > 100000


def test_cut_distance_matrix_measures_nan_differences():
    """A NaN difference bounds nothing on its axis: a pair the other axes
    admit is measured, as without a cutoff, and reads NaN, not inf."""
    frac_a = np.array([[np.nan, 0.5, 0.5], [0.1, 0.2, 0.3]])
    frac_b = np.array([[0.5, 0.5, 0.5], [0.1, 0.2, 0.3]])
    cut = kernels.min_image_distance_matrix(frac_a, frac_b, 5.0 * np.eye(3),
                                            0.5)
    assert np.isnan(cut[0, 0]) and np.isinf(cut[0, 1])
    assert cut[1].tolist() == [np.inf, 0.0]


def unreduced_sweep_min_distance(frac, lattice):
    """The 3x3x3 sweep of the unwrapped differences on the given cell: exact
    on near-orthogonal cells, not on oblique ones."""
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=3)), float)
    shift_cart = shifts @ lattice
    norms = np.linalg.norm(shift_cart, axis=1)
    best = float(np.min(norms[norms > 1e-12]))
    m = len(frac)
    if m >= 2:
        cart = (frac[:, None, :] - frac[None, :, :]) @ lattice
        d = cart[:, :, None, :] + shift_cart[None, None, :, :]
        dist = np.sqrt(np.sum(d * d, axis=-1))
        best = min(best, float(np.min(dist[np.triu_indices(m, k=1)])))
    return best


def test_kernel_agrees_with_unreduced_sweep_on_near_orthogonal_cells():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 100:
        ell = np.concatenate([rng.uniform(2, 8, 3), rng.uniform(70, 110, 3)])
        try:
            L, _ = lattice_matrix(ell)
        except ValueError:
            continue
        frac = rng.uniform(0, 1, (int(rng.integers(1, 61)), 3))
        full = FullCrystal(lattice=L, elements=[1] * len(frac), frac=frac)
        assert min_pairwise_distance(full) == pytest.approx(
            unreduced_sweep_min_distance(frac, L), rel=1e-12)
        checked += 1


def test_oblique_overlap_is_invalid():
    # a cell the decoder can emit; the unreduced sweep saw 0.615 Angstrom
    L, volume = lattice_matrix([1.09, 2.26, 3.01, 163.3, 167.9, 23.3])
    full = FullCrystal(lattice=L, elements=[6, 6],
                       frac=[[0.4, 0.7, 0.9], [0.75, 0.45, 0.04]])
    assert volume == pytest.approx(0.426, abs=1e-3)
    d = min_pairwise_distance(full)
    assert d == pytest.approx(0.464, abs=1e-3)
    assert d == pytest.approx(
        exhaustive_min_distance(full.frac, L, 0.615), rel=1e-12)
    assert not structural_validity(full)


def test_distance_invariant_under_translation_and_relabeling():
    rng = np.random.default_rng(9)
    L, _ = lattice_matrix([4, 6, 5, 85, 95, 75])
    frac = rng.uniform(0, 1, (5, 3))
    base = min_pairwise_distance(
        FullCrystal(lattice=L, elements=[1] * 5, frac=frac))
    shifted = (frac + np.array([0.25, 0.1, 0.6])) % 1.0
    assert min_pairwise_distance(
        FullCrystal(lattice=L, elements=[1] * 5, frac=shifted)
    ) == pytest.approx(base, rel=1e-10)
    perm = rng.permutation(5)
    assert min_pairwise_distance(
        FullCrystal(lattice=L, elements=[1] * 5, frac=frac[perm])
    ) == pytest.approx(base, rel=1e-12)


def test_validity_thresholds():
    overlapping = FullCrystal(lattice=5 * np.eye(3), elements=[1, 1],
                              frac=[[0, 0, 0], [0.002, 0, 0]])
    assert not structural_validity(overlapping)
    tiny = FullCrystal(lattice=0.4 * np.eye(3), elements=[1], frac=[[0, 0, 0]])
    assert tiny.volume < 0.1
    assert not structural_validity(tiny)
    lone = FullCrystal(lattice=5 * np.eye(3), elements=[6],
                       frac=[[0.1, 0.1, 0.1]])
    assert structural_validity(lone)


def test_validity_invariant_under_site_permutation(catalog, nacl):
    flipped = CrystalASU(spacegroup=225, sites=list(reversed(nacl.sites)),
                         lattice=nacl.lattice)
    assert structural_validity(expand_asu(flipped, catalog)) == \
        structural_validity(expand_asu(nacl, catalog))


def triu_min_pairwise_distance(frac, lattice):
    """The all-pairs kernel as it was before orbit representatives: every
    pair i < j in `triu_indices` order, through the same image sweep."""
    from symadit import _kernels_py
    frac = np.asarray(frac, float)
    self_images = _kernels_py._SHIFTS[1:] @ lattice
    best = float(np.min(np.einsum("sk,sk->s", self_images, self_images)))
    i, j = np.triu_indices(len(frac), k=1)
    best = np.min(_kernels_py._min_image_sq(frac[i] - frac[j], lattice),
                  initial=best)
    return float(np.sqrt(best))


def test_kernel_without_representatives_is_the_upper_triangle():
    rng = np.random.default_rng(31)
    for L in oblique_cells(rng, 60):
        frac = rng.uniform(0, 1, (int(rng.integers(1, 80)), 3))
        assert kernels.min_pairwise_distance(frac, L) == \
            triu_min_pairwise_distance(frac, L)
        reps = np.arange(len(frac))
        assert kernels.min_pairwise_distance(frac, L, reps=reps) == \
            triu_min_pairwise_distance(frac, L)


def symmetric_cells(catalog, group, rng, count):
    """Lattice parameters on the group's class: lengths 3-9 Angstrom and
    free angles uniform over 10-170 degrees, drawn until the cell closes."""
    lc = catalog.group(group).lattice_class
    cells = []
    while len(cells) < count:
        ell = np.concatenate([rng.uniform(3, 9, 3), rng.uniform(10, 170, 3)])
        ell = symcat.symmetrize_lattice(lc, ell)
        try:
            lattice_matrix(ell)
        except ValueError:
            continue
        cells.append(ell)
    return cells


def symmetric_asu(catalog, group, rng, ell, grid):
    """One to three sites on their forms: uniform free parameters, or with
    grid > 0 parameters on the 1/grid grid, which collapses orbits."""
    entry = catalog.group(group)
    sites, used = [], set()
    for _ in range(int(rng.integers(1, 4))):
        w = entry.wyckoff[int(rng.integers(len(entry.wyckoff)))]
        if w.dof == 0 and w.letter in used:
            continue
        used.add(w.letter)
        draw = (rng.integers(0, grid, 3) / grid if grid
                else rng.uniform(0, 1, 3))
        sites.append(Site(element=int(rng.integers(1, 101)), wyckoff=w.letter,
                          frac=symcat.symmetrize_site(w, draw)))
    return CrystalASU(spacegroup=group, sites=sites, lattice=ell)


def all_pairs_distance(full):
    R, M = full.reduced
    return kernels.min_pairwise_distance(full.frac @ M, R)


def test_validity_from_representatives_matches_all_pairs_in_every_group(
        catalog):
    """Oracle: on cells whose lattice and sites sit on their forms, the
    minimum over pairs that start at an orbit's first atom equals the
    all-pairs minimum within 1e-12 relative, and no decision differs. All
    230 groups, 10-170 degree cells, uniform and grid parameters."""
    rng = np.random.default_rng(41)
    checked = collapsed = 0
    for group in range(1, 231):
        cells = symmetric_cells(catalog, group, rng, 6)
        for ell, grid in zip(cells, (0, 0, 2, 3, 4, 6)):
            asu = symmetric_asu(catalog, group, rng, ell, grid)
            orbits, = cr.expand_orbits([asu], catalog)
            full = orbits.cell()
            assert full.orbit_starts is not None
            assert len(full.orbit_starts) == len(asu.sites)
            got, want = min_pairwise_distance(full), all_pairs_distance(full)
            # coinciding atoms measure about 1e-16 either way
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), group
            assert (got >= cr.MIN_DISTANCE) == (want >= cr.MIN_DISTANCE)
            checked += 1
            collapsed += orbits.degenerate > 0
    assert checked == 1380
    assert collapsed > 100


def test_distances_fall_back_to_all_pairs_off_the_forms(catalog):
    """A lattice off its class by 2e-9 to 1e-6, a site off its form, or a
    crystal read from a CIF has no representatives; its distance is the
    all-pairs kernel's, bitwise."""
    from symadit import cif
    rng = np.random.default_rng(43)
    cases = []
    for group in (75, 160, 191, 221, 229):
        entry = catalog.group(group)
        base = random_asu(catalog, group, rng)
        for k, eps in enumerate(np.geomspace(2e-9, 1e-6, 4)):
            ell = base.lattice.copy()
            ell[(1, 5)[k % 2]] += eps      # b and gamma are tied here
            cases.append(CrystalASU(spacegroup=group, sites=base.sites,
                                    lattice=ell))
        w = entry.wyckoff[-2]          # a special position, dof < 3
        off = symcat.symmetrize_site(w, rng.uniform(0, 1, 3)) + 1e-7
        cases.append(CrystalASU(
            spacegroup=group, lattice=base.lattice,
            sites=[*base.sites, Site(element=8, wyckoff=w.letter, frac=off)]))
    for asu in cases:
        with pytest.raises(ValueError):
            asu.validate(catalog)
        full = expand_asu(asu, catalog)
        assert full.orbit_starts is None
        assert min_pairwise_distance(full) == all_pairs_distance(full)
        read = cif.read_cif(cif.write_cif(full, name="x"))
        assert read.orbit_starts is None
        assert min_pairwise_distance(read) == all_pairs_distance(read)


def test_validate_holds_the_lattice_to_its_class_within_1e9_absolute(
        catalog):
    """Oracle for the relative tolerance numpy's allclose adds by default:
    at 5 Angstrom it let lattices 4e-5 off their class through."""
    base = [5.0, 5.0, 5.0, 90.0, 90.0, 90.0]
    site = [Site(element=11, wyckoff="a", frac=np.zeros(3))]

    def unit(slot, delta):
        ell = np.array(base)
        ell[slot] += delta
        return CrystalASU(spacegroup=225, sites=site, lattice=ell)

    for slot, delta in ((2, 4e-5), (2, 1e-4), (5, 8e-4), (1, 2e-9)):
        with pytest.raises(ValueError, match="violates cubic"):
            unit(slot, delta).validate(catalog)
        assert expand_asu(unit(slot, delta), catalog).orbit_starts is None
    for slot, delta in ((2, 5e-10), (5, -5e-10)):
        unit(slot, delta).validate(catalog)
        assert expand_asu(unit(slot, delta), catalog).orbit_starts is not None


def test_validate_holds_sites_to_their_forms(catalog, nacl):
    nacl.validate(catalog)
    for shift in ((5e-10, 0, 0), (0, -5e-10, 0)):
        CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=[
            Site(element=11, wyckoff="a", frac=np.array(shift))]
        ).validate(catalog)
    for shift in ((2e-9, 0, 0), (0, 0, 1 - 2e-9)):
        with pytest.raises(ValueError, match="off its 225_4a"):
            CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=[
                Site(element=11, wyckoff="a", frac=np.array(shift))]
            ).validate(catalog)


# ---------------------------------------------------------------------------
# Niggli reduction
# ---------------------------------------------------------------------------


def test_niggli_cubic_fixed_point():
    L = np.diag([4.0, 4.0, 4.0])
    out = niggli_reduce(L)
    assert np.allclose(np.sort(np.linalg.norm(out, axis=1)), [4, 4, 4])
    assert np.linalg.det(out) == pytest.approx(64.0)


def test_niggli_undoes_shear():
    L, _ = lattice_matrix([3, 4, 5, 90, 90, 90])
    sheared = L.copy()
    sheared[1] = L[1] + L[0]          # b -> b + a
    out = niggli_reduce(sheared)
    assert np.allclose(np.sort(np.linalg.norm(out, axis=1)), [3, 4, 5],
                       atol=1e-9)
    assert abs(np.linalg.det(out)) == pytest.approx(60.0)


def test_niggli_volume_preserved_random():
    rng = np.random.default_rng(21)
    count = 0
    while count < 100:
        ell = np.empty(6)
        ell[:3] = rng.uniform(2, 9, 3)
        ell[3:] = rng.uniform(60, 120, 3)
        try:
            L, vol = lattice_matrix(ell)
        except ValueError:
            continue
        shear = np.eye(3, dtype=int)
        row = int(rng.integers(3))
        col = int((row + 1 + rng.integers(2)) % 3)
        shear[row, col] = rng.integers(-2, 3)
        sheared = shear @ L
        if np.linalg.det(sheared) <= 0:
            continue
        out = niggli_reduce(sheared)
        assert abs(np.linalg.det(out)) == pytest.approx(vol, rel=1e-9)
        # reduced-cell conditions: a <= b <= c within tolerance
        lengths = np.linalg.norm(out, axis=1)
        assert lengths[0] <= lengths[1] + 1e-5
        assert lengths[1] <= lengths[2] + 1e-5
        count += 1


def _assert_same_lattice_and_reduced(L, out):
    """`out` spans the lattice of `L` and meets the Niggli main conditions."""
    T = out @ np.linalg.inv(L)
    assert np.allclose(T, np.rint(T), atol=1e-6)
    assert abs(round(np.linalg.det(np.rint(T)))) == 1
    G = out @ out.T
    A, B, C = np.diag(G)
    xi, eta, zeta = 2 * G[1, 2], 2 * G[0, 2], 2 * G[0, 1]
    e = 1e-5 * np.cbrt(np.linalg.det(L)) ** 2
    assert A <= B + e and B <= C + e
    assert abs(xi) <= B + e and abs(eta) <= A + e and abs(zeta) <= A + e
    # all cosines acute or all obtuse-or-right
    signs = np.sign([xi, eta, zeta]) * (np.abs([xi, eta, zeta]) > e)
    assert np.all(signs > 0) or np.all(signs <= 0)


def test_niggli_sign_test_cell_converges():
    # cosine signs (+, -, -) with |eta| at A: the old step-3/4 test cycled
    L, _ = lattice_matrix([5.875, 19.635, 15.781, 94.885, 63.452, 98.604])
    _assert_same_lattice_and_reduced(L, niggli_reduce(L))


def test_niggli_reduces_random_cells_over_decoder_angle_range():
    rng = np.random.default_rng(5)
    count = 0
    while count < 1320:
        ell = np.concatenate([rng.uniform(1, 20, 3), rng.uniform(10, 170, 3)])
        try:
            L, _ = lattice_matrix(ell)
        except ValueError:
            continue
        _assert_same_lattice_and_reduced(L, niggli_reduce(L))
        count += 1


def test_niggli_elongated_cell_within_default_budget():
    # unit steps 5-7 took over 100 iterations on this cell
    L, _ = lattice_matrix([48.7, 33.6, 1.01, 116.6, 110.0, 132.6])
    _assert_same_lattice_and_reduced(L, niggli_reduce(L))


def test_niggli_reduces_elongated_cells_within_default_budget():
    # lengths log-uniform over 0.5-50 A, angles over 10-170 deg
    rng = np.random.default_rng(17)
    count = 0
    while count < 1300:
        ell = np.concatenate([np.exp(rng.uniform(np.log(0.5), np.log(50), 3)),
                              rng.uniform(10, 170, 3)])
        try:
            L, _ = lattice_matrix(ell)
        except ValueError:
            continue
        _assert_same_lattice_and_reduced(L, niggli_reduce(L))
        count += 1


# ---------------------------------------------------------------------------
# assign_wyckoff
# ---------------------------------------------------------------------------


def test_nacl_roundtrip(catalog, nacl):
    full = expand_asu(nacl, catalog)
    back = assign_wyckoff(full, 225, catalog)
    assert back.spacegroup == 225
    got = {(s.element, s.wyckoff) for s in back.sites}
    assert got == {(11, "a"), (17, "b")}
    assert np.allclose(back.lattice, nacl.lattice)


def test_single_atom_p1(catalog):
    full = FullCrystal(lattice=4 * np.eye(3), elements=[6],
                       frac=[[0.2, 0.3, 0.4]])
    asu = assign_wyckoff(full, 1, catalog)
    assert len(asu.sites) == 1
    assert asu.sites[0].wyckoff == "a"
    assert np.allclose(asu.sites[0].frac, [0.2, 0.3, 0.4])


def test_roundtrip_random_groups(catalog):
    rng = np.random.default_rng(31)
    groups = rng.choice(230, size=20, replace=False) + 1
    for g in groups:
        asu = random_asu(catalog, int(g), rng)
        full = expand_asu(asu, catalog)
        back = assign_wyckoff(full, int(g), catalog)
        want = sorted((s.element, s.wyckoff) for s in asu.sites)
        got = sorted((s.element, s.wyckoff) for s in back.sites)
        assert got == want, f"group {g}"
        rebuilt = expand_asu(back, catalog)
        assert rebuilt.n_atoms == full.n_atoms


def _union_find_orbits(entry, frac, tol):
    """Oracle: the partition assign_wyckoff made before its partner
    matrices, union-find over each atom and its first partner under each
    operation."""
    m = len(frac)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for rot, trans in zip(*entry.operation_arrays):
        mapped = symcat.wrap_unit(frac @ rot.T + trans)
        for i in range(m):
            d = cr._wrap_delta(mapped[i][None, :], frac)
            hits = np.where(np.all(d < tol, axis=1))[0]
            if len(hits) == 0:
                raise IngestError(
                    f"atom {i} has no symmetry partner under {entry.label}; "
                    "structure is not in the conventional setting")
            ri, rj = find(i), find(int(hits[0]))
            if ri != rj:
                parent[rj] = ri
    orbits: dict[int, list[int]] = {}
    for i in range(m):
        orbits.setdefault(find(i), []).append(i)
    return list(orbits.values())


def _assignment(structure, group, catalog):
    try:
        return cr.asu_to_record(assign_wyckoff(structure, group, catalog))
    except IngestError as exc:
        return str(exc)


def test_partner_matrices_partition_as_union_find_did(catalog, monkeypatch):
    """Every group, with the atoms permuted and jittered by 1e-5; every
    fourth group also with a near-duplicate atom, with noise up to 6e-4 and
    with an atom dropped. The records and error messages must be those of
    the union-find partition."""
    rng = np.random.default_rng(8)
    cases = []
    for g in range(1, 231):
        full = expand_asu(random_asu(catalog, g, rng, max_sites=2,
                                     min_length=6.0), catalog)
        m = full.n_atoms
        perm = rng.permutation(m)
        variants = [("jitter", full.elements[perm],
                     full.frac[perm] + rng.normal(0, 1e-5, (m, 3)))]
        if g % 4 == 0 and m > 1:
            twin = full.frac[:1] + rng.choice([-2e-4, 2e-4], (1, 3))
            variants += [
                ("twin", np.append(full.elements, full.elements[0]),
                 np.vstack([full.frac, twin])),
                ("noise", full.elements,
                 full.frac + rng.uniform(-6e-4, 6e-4, (m, 3))),
                ("drop", full.elements[1:], full.frac[1:])]
        cases += [(kind, g, FullCrystal(lattice=full.lattice,
                                        elements=elements, frac=frac))
                  for kind, elements, frac in variants]
    got = [_assignment(structure, g, catalog) for _, g, structure in cases]
    monkeypatch.setattr(cr, "_orbits", _union_find_orbits)
    want = [_assignment(structure, g, catalog) for _, g, structure in cases]
    assert got == want
    outcomes = {}
    for (kind, _, _), outcome in zip(cases, want):
        outcomes.setdefault(kind, set()).add(isinstance(outcome, str))
    assert outcomes == {"jitter": {False}, "twin": {True},
                        "noise": {False, True}, "drop": {True}}


def test_a_placed_atom_joins_no_later_orbit(catalog):
    # P-1 along x: 8e-4 is within tol of 0 and of 16e-4, whose inversion
    # image is 1 - 16e-4; so 0's orbit takes 8e-4, and 16e-4's does not
    frac = np.array([[0.0, 0, 0], [8e-4, 0, 0], [16e-4, 0, 0],
                     [1 - 16e-4, 0, 0]])
    orbits = cr._orbits(catalog.group(2), frac, 1e-3)
    assert [list(orbit) for orbit in orbits] == [[0, 1], [2, 3]]


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["ltol", "stol", "angle_tol"])
def test_match_tolerances_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match="finite and positive"):
        cr.MatchParams(**{name: value})


def test_mixed_elements_rejected(catalog):
    # two atoms relating by symmetry but labelled differently
    full = FullCrystal(lattice=4 * np.eye(3), elements=[6, 7],
                       frac=[[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])
    with pytest.raises(IngestError):
        assign_wyckoff(full, 2, catalog)


def test_wrong_setting_rejected(catalog):
    # three atoms cannot tile group 2 (multiplicities are 1 and 2)
    full = FullCrystal(
        lattice=4 * np.eye(3), elements=[6, 6, 6],
        frac=[[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.5, 0.1, 0.9]])
    with pytest.raises(IngestError):
        assign_wyckoff(full, 2, catalog)


# ---------------------------------------------------------------------------
# dataset JSONL
# ---------------------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path, catalog, nacl):
    path = tmp_path / "data.jsonl"
    cr.write_dataset_jsonl(path, [nacl], ids=["nacl"])
    text = path.read_text()
    assert text.startswith('{"sg": 225, "sites"')  # key order contract
    back = cr.read_dataset_jsonl(path)
    assert len(back) == 1
    assert back[0].spacegroup == 225
    assert len(back[0].sites) == 2


def test_jsonl_bad_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"sg": 225}\n')
    with pytest.raises(ValueError):
        cr.read_dataset_jsonl(path)
