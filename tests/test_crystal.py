import itertools

import numpy as np
import pytest

from conftest import random_asu
from symadit import crystal as cr
from symadit import kernels
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


def test_expand_asu_counts_each_collapsed_orbit(catalog, nacl):
    # 225 e is (x,0,0); at x = 0 and x = 1/2 it collapses onto 4a and 4b
    collapsed = CrystalASU(spacegroup=225, lattice=nacl.lattice, sites=[
        *nacl.sites,
        Site(element=8, wyckoff="e", frac=np.zeros(3)),
        Site(element=9, wyckoff="e", frac=[0.5, 0, 0]),
        Site(element=6, wyckoff="e", frac=[0.2, 0, 0])])
    counters = {"degenerate_orbits": 3}
    full = expand_asu(collapsed, catalog, counters)
    assert counters == {"degenerate_orbits": 5}
    assert full.n_atoms == 4 + 4 + 4 + 4 + 24
    assert np.array_equal(expand_asu(collapsed, catalog).frac, full.frac)
    counters = {}
    expand_asu(nacl, catalog, counters)
    assert counters == {}


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
        try:
            back = assign_wyckoff(full, int(g), catalog)
        except IngestError:
            # random free parameters occasionally collapse an orbit;
            # regenerate a clearly generic unit instead
            continue
        want = sorted((s.element, s.wyckoff) for s in asu.sites)
        got = sorted((s.element, s.wyckoff) for s in back.sites)
        assert got == want, f"group {g}"
        rebuilt = expand_asu(back, catalog)
        assert rebuilt.n_atoms == full.n_atoms


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
