import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symadit import symcat, triplet
from symadit.symcat import (
    CatalogError,
    orbit_expand,
    symmetrize_lattice,
    symmetrize_site,
    wyckoff_mask,
)


def test_counts(catalog):
    assert len(catalog) == 230
    assert len(catalog.positions) == 1731


def test_group_outside_the_catalog_is_a_value_error(catalog):
    for number in (0, 231, -1):
        with pytest.raises(ValueError, match="outside 1..230"):
            catalog.group(number)


def test_group_1_general_position(catalog):
    entry = catalog.group(1)
    assert len(entry.wyckoff) == 1
    w = entry.wyckoff[0]
    assert w.dof == 3
    assert w.multiplicity == 1


def test_group_225_has_4a_and_4b(catalog):
    entry = catalog.group(225)
    a = entry.position("a")
    b = entry.position("b")
    assert a.multiplicity == 4 and b.multiplicity == 4
    assert a.dof == 0 and b.dof == 0
    assert np.allclose(symmetrize_site(a, np.random.rand(3)), [0, 0, 0])
    assert np.allclose(symmetrize_site(b, np.random.rand(3)), [0.5, 0.5, 0.5])


def test_global_indices_contiguous(catalog):
    idx = [w.global_index for w in catalog.positions]
    assert idx == list(range(1731))


def test_dof_examples(catalog):
    # 225 a: point site, no free parameters
    w = catalog.group(225).position("a")
    assert w.dof == 0 and w.dof_mask == (False, False, False)
    # group 1 general position: x, y, z bind slots 0, 1, 2
    w = catalog.group(1).wyckoff[0]
    assert w.dof == 3 and w.dof_mask == (True, True, True)
    assert list(w.binding_slots) == [0, 1, 2]


def test_dof_mask_tied_coordinates(catalog):
    # find a site of the form "x,x,z": rank 2, mask marks slots 0 and 2
    for entry in catalog.groups:
        for w in entry.wyckoff:
            m = w.site_form.matrix
            if (m[0][0] == 1 and m[1][0] == 1 and m[2][2] == 1
                    and m[0][2] == 0 and w.dof == 2):
                assert w.dof_mask == (True, False, True)
                assert w.binding_slots[0] == 0 and w.binding_slots[2] == 2
                return
    pytest.skip("no x,x,z style site in catalog")


def test_symmetrize_site_general_is_identity_mod_1(catalog):
    w = catalog.group(1).wyckoff[0]
    f = np.array([0.31, 1.77, -0.25])
    assert np.allclose(symmetrize_site(w, f), [0.31, 0.77, 0.75])


def test_symmetrize_site_one_dof_form(catalog):
    # group 225 position e is the (x,0,0) axis family
    w = catalog.group(225).position("e")
    assert w.dof == 1
    out = symmetrize_site(w, np.array([0.3, 0.9, 0.1]))
    snapped = symmetrize_site(w, out)
    assert np.allclose(out, snapped)
    assert out[0] == pytest.approx(0.3)


def test_symmetrize_site_rejects_nonfinite(catalog):
    w = catalog.group(1).wyckoff[0]
    with pytest.raises(ValueError):
        symmetrize_site(w, np.array([np.nan, 0, 0]))


def test_symmetrize_lattice_cubic(catalog):
    lc = catalog.group(225).lattice_class
    out = symmetrize_lattice(lc, [5.65, 4.0, 3.0, 80.0, 90.0, 100.0])
    assert np.allclose(out, [5.65, 5.65, 5.65, 90, 90, 90])


def test_symmetrize_lattice_triclinic_unchanged(catalog):
    lc = catalog.group(1).lattice_class
    ell = np.array([3.0, 4.0, 5.0, 80.0, 95.0, 100.0])
    assert np.allclose(symmetrize_lattice(lc, ell), ell)


def test_symmetrize_lattice_hexagonal(catalog):
    lc = catalog.group(194).lattice_class
    out = symmetrize_lattice(lc, [3.1, 9.9, 5.0, 90.0, 90.0, 7.0])
    assert np.allclose(out, [3.1, 3.1, 5.0, 90, 90, 120])


def test_symmetrize_lattice_clamps_tiny_lengths(catalog):
    lc = catalog.group(225).lattice_class
    out = symmetrize_lattice(lc, [-2.0, 0, 0, 90, 90, 90])
    assert out[0] == pytest.approx(symcat.MIN_LENGTH)
    assert np.allclose(out[:3], out[0])


@settings(max_examples=60, deadline=None)
@given(
    gidx=st.integers(0, 229),
    widx=st.integers(0, 40),
    f=st.lists(st.floats(-2.0, 3.0, allow_nan=False), min_size=3, max_size=3),
)
def test_symmetrize_site_idempotent_property(catalog, gidx, widx, f):
    entry = catalog.groups[gidx]
    w = entry.wyckoff[widx % len(entry.wyckoff)]
    once = symmetrize_site(w, np.array(f))
    twice = symmetrize_site(w, once)
    assert np.max(np.abs(once - twice)) <= 1e-12


def test_symmetrize_idempotent_all_families(catalog):
    rng = np.random.default_rng(3)
    for g in (1, 5, 14, 62, 88, 139, 152, 166, 194, 221, 225, 230):
        lc = catalog.group(g).lattice_class
        ell = np.empty(6)
        ell[:3] = rng.uniform(2, 9, 3)
        ell[3:] = rng.uniform(60, 120, 3)
        once = symmetrize_lattice(lc, ell)
        assert np.allclose(symmetrize_lattice(lc, once), once, atol=1e-12)


def test_orbit_expand_nacl_counts(catalog):
    entry = catalog.group(225)
    a = entry.position("a")
    pts = orbit_expand(entry, a, np.zeros(3))
    assert len(pts) == 4


def test_orbit_expand_p1_single_point(catalog):
    entry = catalog.group(1)
    pts = orbit_expand(entry, entry.wyckoff[0], np.array([0.2, 0.3, 0.4]))
    assert pts.shape == (1, 3)
    assert np.allclose(pts[0], [0.2, 0.3, 0.4])


def test_orbit_expand_collapse_is_data_not_a_warning(catalog):
    # a general-position point placed on a mirror collapses the orbit; the
    # deduplicated points are the whole answer, and nothing is issued
    entry = catalog.group(225)
    general = entry.wyckoff[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = orbit_expand(entry, general, np.zeros(3))
    assert len(pts) < general.multiplicity == 192


def test_wyckoff_mask_partition(catalog):
    total = np.zeros(1731, dtype=int)
    for g in range(1, 231):
        mask = wyckoff_mask(catalog, g)
        total += mask.astype(int)
        for i in np.where(mask)[0]:
            assert catalog.positions[i].group_number == g
    assert total.sum() == 1731
    assert np.all(total == 1)


def test_wyckoff_mask_group1(catalog):
    assert wyckoff_mask(catalog, 1).sum() == 1


def test_dof_equals_mask_popcount_everywhere(catalog):
    # no catalog form ties its variables together, so the number of
    # variables a form uses is the rank of its linear part
    for w in catalog.positions:
        assert sum(w.dof_mask) == w.dof == np.linalg.matrix_rank(w.site_matrix)


def test_known_position_anchors(catalog):
    """Well-known sites must exist with their textbook multiplicity and
    parametric form (letters may differ inside equal-multiplicity ties)."""
    from symadit.triplet import format_triplet

    anchors = [
        (62, 4, "x,1/4,z"),      # Pnma mirror site
        (136, 2, "0,0,0"),       # rutile Ti
        (136, 4, "x,x,0"),       # rutile O
        (139, 2, "0,0,1/2"),
        (166, 6, "0,0,z"),
        (186, 2, "1/3,2/3,z"),   # wurtzite
        (194, 2, "1/3,2/3,1/4"),
        (216, 4, "1/4,1/4,1/4"),  # zincblende
        (221, 1, "1/2,1/2,1/2"),
        (221, 3, "0,0,1/2"),
        (225, 8, "1/4,1/4,1/4"),
        (225, 24, "0,1/4,1/4"),
        (227, 8, "1/8,1/8,1/8"),  # diamond
        (229, 6, "0,0,1/2"),
        (230, 16, "0,0,0"),      # garnet
        (230, 24, "0,1/4,1/8"),
    ]
    for group, mult, form in anchors:
        entries = {
            (w.multiplicity, format_triplet(w.site_form))
            for w in catalog.group(group).wyckoff
        }
        assert (mult, form) in entries, (group, mult, form)


def test_site_forms_have_integer_coefficients(catalog):
    # integer coefficients guarantee the unit parameter interval charts the
    # entire torus component (symmetrizer totality)
    for w in catalog.positions:
        for row in w.site_form.matrix:
            for e in row:
                assert e.denominator == 1, w.key


def test_group_closure_sampled(catalog):
    rng = np.random.default_rng(11)
    for g in rng.choice(230, size=20, replace=False) + 1:
        entry = catalog.group(int(g))
        ops = set(entry.operations)
        oplist = list(entry.operations)
        take = rng.choice(len(oplist), size=min(8, len(oplist)), replace=False)
        for i in take:
            for j in take:
                assert oplist[i].compose(oplist[j]) in ops


def test_orbit_invariance_under_group_action(catalog):
    rng = np.random.default_rng(5)
    for g in (14, 62, 139, 166, 225):
        entry = catalog.group(g)
        w = entry.wyckoff[-1]
        f = symcat.symmetrize_site(w, rng.uniform(0.03, 0.97, 3))
        pts = orbit_expand(entry, w, f)
        op = entry.operations[int(rng.integers(len(entry.operations)))]
        mapped = np.array(
            [[float(x) % 1.0 for x in op.apply(tuple(p))] for p in pts])
        for q in mapped:
            d = np.abs(pts - q)
            d = np.minimum(d, 1 - d)
            assert np.any(np.all(d < 1e-6, axis=1))


def test_multiplicity_oracle_all_positions(catalog):
    """Brute-force orbit size equals the stored multiplicity, everywhere."""
    rng = np.random.default_rng(17)
    for entry in catalog.groups:
        for w in entry.wyckoff:
            f = symcat.symmetrize_site(w, rng.uniform(0.02, 0.98, 3))
            pts = orbit_expand(entry, w, f)
            assert len(pts) == w.multiplicity, w.key


def _orbit_expand_reference(w, f_free):
    """Exact-form expansion: each generator applied by AffineForm.apply,
    then a sequential periodic dedup in which the first kept point wins."""
    f = symcat.wrap_unit(f_free)
    pts = [symcat.wrap_unit([float(x) for x in g.apply(tuple(f))])
           for g in w.orbit_generators]
    uniq = []
    for p in pts:
        dup = False
        for q in uniq:
            d = np.abs(p - q)
            d = np.minimum(d, 1.0 - d)
            if np.all(d < symcat.ORBIT_TOL):
                dup = True
                break
        if not dup:
            uniq.append(p)
    return np.array(uniq)


def test_orbit_expand_matches_exact_reference_everywhere(catalog):
    """Float-view expansion equals the exact-form oracle bitwise, collapsed
    orbits included and without a warning, for a uniform and a quarter-grid
    draw at every position (the quarter grid lands on special values and
    collapses)."""
    rng = np.random.default_rng(23)
    collapsed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in catalog.groups:
            for w in entry.wyckoff:
                for draw in (rng.uniform(0.0, 1.0, 3),
                             rng.integers(0, 4, 3) / 4):
                    f = symmetrize_site(w, draw)
                    want = _orbit_expand_reference(w, f)
                    got = orbit_expand(entry, w, f)
                    assert got.shape == want.shape, w.key
                    assert got.tobytes() == want.tobytes(), w.key
                    collapsed += len(want) != w.multiplicity
    assert collapsed > 0


def _orbit_expand_full_sweep(entry, w, f_free):
    """The (m, m, 3) coincidence sweep: all three coordinates compared at
    once for every orbit, then the same first-kept-point dedup."""
    rot, trans = w.generator_arrays
    pts = symcat.wrap_unit(rot @ symcat.wrap_unit(f_free) + trans)
    d = np.abs(pts[:, None, :] - pts[None, :, :])
    close = np.triu(np.all(np.minimum(d, 1.0 - d) < symcat.ORBIT_TOL,
                           axis=-1), 1)
    keep = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        if keep[i]:
            keep[close[i]] = False
    return pts[keep]


def test_orbit_expand_matches_full_sweep_everywhere(catalog):
    """The point-0 screen and the per-coordinate coincidence test give the
    (m, m, 3) sweep's points bitwise at every position, for a seeded
    uniform draw, a quarter-grid and a third-grid draw (which collapse some
    orbits), and an off-form draw (which skips the screen)."""
    rng = np.random.default_rng(23)
    checked = collapsed = off_form = 0
    for entry in catalog.groups:
        for w in entry.wyckoff:
            for draw in (rng.uniform(0.0, 1.0, 3),
                         rng.integers(0, 4, 3) / 4,
                         rng.integers(0, 3, 3) / 3):
                f = symmetrize_site(w, draw)
                want = _orbit_expand_full_sweep(entry, w, f)
                got = orbit_expand(entry, w, f)
                assert got.shape == want.shape, w.key
                assert got.tobytes() == want.tobytes(), w.key
                checked += 1
                collapsed += len(want) != w.multiplicity
            f = symmetrize_site(w, rng.integers(0, 4, 3) / 4)
            f = symcat.wrap_unit(f + np.array([1.0, -2.0, 3.0]) * 1e-7)
            off_form += not symcat.on_form(w, f)
            want = _orbit_expand_full_sweep(entry, w, f)
            assert orbit_expand(entry, w, f).tobytes() == want.tobytes(), w.key
    assert checked == 3 * 1731
    assert collapsed > 500
    assert off_form == sum(w.dof < 3 for w in catalog.positions)


def test_orbit_expand_sites_flags_each_site_as_on_form_does(catalog):
    """At every position, a batch of random, special-value, off-form and
    just-on-form sites in shuffled order: each row's points are bitwise
    those of the (m, m, 3) sweep and of `orbit_expand` (the site alone),
    and its flag is `on_form`'s. A quarter-grid site taken off its form
    can collapse with no point near point 0, which only the dedup finds.
    A non-finite site is off its form."""
    rng = np.random.default_rng(59)
    off_form_collapsed = 0
    for entry in catalog.groups:
        for w in entry.wyckoff:
            F = [symcat.symmetrize_site(w, draw) for draw in (
                rng.uniform(0.0, 1.0, 3), rng.integers(0, 4, 3) / 4,
                rng.integers(0, 3, 3) / 3, rng.uniform(0.0, 1.0, 3))]
            F += [symcat.wrap_unit(F[1] + np.array([1.0, -2.0, 3.0]) * 1e-7),
                  symcat.wrap_unit(F[0] + [4e-10, 0.0, 0.0]),
                  symcat.wrap_unit(F[3] + np.array([2.0, -3.0, 4.0]) * 1e-9),
                  rng.integers(0, 4, 3) / 4]
            F = np.array(F)[rng.permutation(len(F))]
            pts, flags = symcat.orbit_expand_sites(w, F)
            assert flags.tolist() == [symcat.on_form(w, f) for f in F], w.key
            for f, got, on in zip(F, pts, flags):
                want = _orbit_expand_full_sweep(entry, w, f)
                assert got.shape == want.shape, w.key
                assert got.tobytes() == want.tobytes(), w.key
                alone = symcat.orbit_expand(entry, w, f)
                assert alone.tobytes() == want.tobytes(), w.key
                off_form_collapsed += not on and len(got) < w.multiplicity
            nan = np.array([[np.nan, 0.0, 0.0]])
            assert not symcat._on_forms(w, nan)[0]
    assert off_form_collapsed > 100


def test_orbit_screen_looks_past_the_coincidence_tolerance(catalog):
    """P6's general position near the 6-fold axis: the coinciding pair is
    points 1 and 5, while point 0's nearest neighbour is 1.2 tolerances
    away. The screen must reach past 1 tolerance to send this to the full
    dedup; and a neighbour at 1.8 tolerances without a coinciding pair
    must come back whole."""
    entry = catalog.group(168)
    w = entry.wyckoff[-1]
    tol = symcat.ORBIT_TOL
    for (a, b), collapses in (((0.6, -0.6), True), ((1.2, -0.6), False)):
        f = symcat.wrap_unit([a * tol, b * tol, 0.3])
        assert symcat.on_form(w, f)
        want = _orbit_expand_full_sweep(entry, w, f)
        got = orbit_expand(entry, w, f)
        assert got.tobytes() == want.tobytes()
        assert (len(got) < w.multiplicity) == collapses
        rot, trans = w.generator_arrays
        full = symcat.wrap_unit(rot @ f + trans)
        d = np.abs(full[1:] - full[0])
        gap = np.minimum(d, 1.0 - d).max(axis=1).min()
        assert tol <= gap < 2 * tol


def test_every_rotation_stretches_a_gap_at_most_twofold(catalog):
    """The point-0 screen's bound: every catalog operation's rotation has
    absolute row sums of at most MAX_ROW_SUM = 2, and every position's first
    orbit generator is the identity, so point 0 is the site itself."""
    sums = []
    for entry in catalog.groups:
        rot, _ = entry.operation_arrays
        sums.append(np.abs(rot).sum(axis=2).max())
        for w in entry.wyckoff:
            rot, trans = w.generator_arrays
            assert np.array_equal(rot[0], np.eye(3)) and not trans[0].any()
    assert max(sums) == symcat.MAX_ROW_SUM == 2


def test_on_form_agrees_with_symmetrize_site(catalog):
    rng = np.random.default_rng(29)
    for w in catalog.positions:
        f = symmetrize_site(w, rng.uniform(0.0, 1.0, 3))
        assert symcat.on_form(w, f), w.key
        # within the tolerance for site-form coefficients up to 2
        assert symcat.on_form(w, symcat.wrap_unit(f + [4e-10, 0, 0])), w.key
        if w.dof < 3:
            off = symcat.wrap_unit(f + np.array([2.0, -3.0, 4.0]) * 1e-9)
            assert not symcat.on_form(w, off), w.key
        assert not symcat.on_form(w, np.array([np.nan, 0.0, 0.0]))


def test_float_views_are_read_only(catalog):
    entry = catalog.group(229)
    w = entry.wyckoff[-1]
    arrays = (w.site_matrix, w.site_translation, w.binding_slots,
              *w.generator_arrays, *entry.operation_arrays)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    rot, trans = w.generator_arrays
    assert rot.shape == (w.multiplicity, 3, 3)
    assert trans.shape == (w.multiplicity, 3)


def test_per_call_paths_use_no_exact_arithmetic(catalog, monkeypatch):
    """After the float views exist, expansion, symmetrization and ingestion
    neither apply an exact form nor convert a Fraction."""
    from fractions import Fraction

    from symadit import crystal
    from symadit.triplet import AffineForm

    entry = catalog.group(225)
    asu = crystal.CrystalASU(
        spacegroup=225,
        sites=[crystal.Site(element=8, wyckoff="e", frac=[0.2, 0.0, 0.0]),
               crystal.Site(element=11, wyckoff="a", frac=np.zeros(3))],
        lattice=np.array([5.0, 5.0, 5.0, 90.0, 90.0, 90.0]))
    w = entry.wyckoff[-1]
    draw = np.array([0.11, 0.23, 0.37])
    # the first use of each position and group builds its float view
    f = symmetrize_site(w, draw)
    pts = orbit_expand(entry, w, f)
    warm = crystal.assign_wyckoff(crystal.expand_asu(asu, catalog), 225,
                                  catalog)

    def forbidden(*args, **kwargs):
        raise AssertionError("exact arithmetic on a per-call path")

    monkeypatch.setattr(AffineForm, "apply", forbidden)
    monkeypatch.setattr(Fraction, "__float__", forbidden)
    assert symmetrize_site(w, draw).tobytes() == f.tobytes()
    assert orbit_expand(entry, w, f).tobytes() == pts.tobytes()
    back = crystal.assign_wyckoff(crystal.expand_asu(asu, catalog), 225,
                                  catalog)
    assert [(s.wyckoff, s.element) for s in back.sites] == [
        (s.wyckoff, s.element) for s in warm.sites]


def test_load_failures(tmp_path, catalog):
    path = tmp_path / "bad.txt"
    path.write_text("SGCATALOG v1 groups=230 wyckoff=1731\nG 1 P1 triclinic\n")
    with pytest.raises(CatalogError):
        symcat.load_catalog(path)
    path.write_text("not a catalog\n")
    with pytest.raises(CatalogError):
        symcat.load_catalog(path)


def _edited_catalog(tmp_path, old: str, new: str) -> tuple:
    """Copy of the vendored catalog with group 3's `old` line replaced;
    returns the copy's path and the 1-based number of the edited line."""
    vendored = Path(symcat.__file__).parent / "data" / "sg_catalog.txt"
    lines = vendored.read_text().splitlines()
    index = lines.index(old, lines.index("G 3 P2 monoclinic"))
    lines[index] = new
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n")
    return path, index + 1


def test_orbit_generator_outside_its_group_is_rejected(tmp_path):
    path, lineno = _edited_catalog(
        tmp_path, "WY e 2 x,y,z | x,y,z;-x,y,-z",
        "WY e 2 x,y,z | x,y,z;-x,y+1/2,-z")
    with pytest.raises(CatalogError, match=f"line {lineno}: .*-x,y\\+1/2,-z"):
        symcat.load_catalog(path)


def test_duplicate_operation_is_rejected(tmp_path):
    path, lineno = _edited_catalog(tmp_path, "OP -x,y,-z", "OP x,y,z")
    with pytest.raises(CatalogError, match=f"line {lineno}: duplicate"):
        symcat.load_catalog(path)


def test_each_distinct_triplet_is_parsed_once_per_load(monkeypatch):
    """786 distinct OP strings and 127 distinct site forms; an OP and a
    site form with the same text are parsed separately."""
    calls = []
    parse = symcat.parse_triplet

    def counting(text, validate_rotation=True):
        calls.append((text, validate_rotation))
        return parse(text, validate_rotation)

    monkeypatch.setattr(symcat, "parse_triplet", counting)
    symcat.load_catalog(Path(symcat.__file__).parent / "data" / "sg_catalog.txt")
    assert len(calls) == len(set(calls)) == 913
    assert sum(validate for _, validate in calls) == 786


VENDORED = Path(symcat.__file__).parent / "data" / "sg_catalog.txt"


def test_loaded_forms_equal_an_uncached_parse(catalog):
    """Oracle for the component memo: outside a load no memo is active, so
    each triplet of the vendored file parses fresh, and every operation,
    site form and orbit generator equals the loaded one."""
    assert triplet._MEMO.get() is None
    groups = iter(catalog.groups)
    for line in VENDORED.read_text().splitlines()[1:]:
        tag, _, rest = line.partition(" ")
        if tag == "G":
            entry = next(groups)
            ops, positions = iter(entry.operations), iter(entry.wyckoff)
        elif tag == "OP":
            assert next(ops) == triplet.parse_triplet(rest)
        elif tag == "WY":
            head, _, gens = rest.partition("|")
            w = next(positions)
            assert w.site_form == triplet.parse_triplet(
                head.split()[2], validate_rotation=False)
            assert w.orbit_generators == tuple(
                triplet.parse_triplet(g) for g in gens.strip().split(";"))
    assert next(groups, None) is None


def test_site_form_component_does_not_pass_an_operation(tmp_path):
    """"2x" is a valid site-form component but no operation's: seen first
    in a site form, it still fails the operation that uses it, at its line."""
    lines = VENDORED.read_text().splitlines()
    site = next(i for i, line in enumerate(lines) if line.startswith("WY")
                and "2x" in line.partition("|")[0].split()[3].split(","))
    group = next(i for i in range(site, len(lines))
                 if lines[i].startswith("G "))
    op = group + 2
    assert lines[op].startswith("OP ")
    lines[op] = "OP 2x,y,z"
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogError, match=f"^line {op + 1}: non-crystallo"):
        symcat.load_catalog(path)


def test_each_load_parses_every_distinct_component(monkeypatch):
    """The component memo lasts one load: a second load in the same process
    parses each distinct (component, kind) again, once."""
    calls = []
    component = triplet._component

    def counting(text, offset, rotation_limit):
        calls.append((text, rotation_limit))
        return component(text, offset, rotation_limit)

    monkeypatch.setattr(triplet, "_component", counting)
    per_load = []
    for _ in range(2):
        calls.clear()
        symcat.load_catalog(VENDORED)
        assert len(calls) == len(set(calls))
        per_load.append(set(calls))
    assert per_load[0] == per_load[1]
    assert len(per_load[0]) == 67
    assert triplet._MEMO.get() is None


@pytest.mark.parametrize("text, error", [
    ("x,y,z+1", None), ("x,y,-z+1/2", "group 2: identity operation missing")])
def test_each_group_needs_the_identity(tmp_path, text, error):
    """After group 1 the loader finds the parsed identity the groups share
    by `is`. Group 2 with its identity written another way is still found
    by value; group 2 without one is refused when group 3 begins."""
    lines = VENDORED.read_text().splitlines()
    start, end = (lines.index("G 2 P-1 triclinic"),
                  lines.index("G 3 P2 monoclinic"))
    for i in range(start, end):
        head, bar, gens = lines[i].partition("|")
        if head == "OP x,y,z":
            lines[i] = f"OP {text}"
        elif bar:
            lines[i] = head + bar + " " + ";".join(
                text if g == "x,y,z" else g for g in gens.strip().split(";"))
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n")
    if error is None:
        assert len(symcat.load_catalog(path).group(2).operations) == 2
    else:
        with pytest.raises(CatalogError, match=f"^line {end + 1}: {error}"):
            symcat.load_catalog(path)


def test_bad_triplet_names_its_line(tmp_path):
    path, lineno = _edited_catalog(tmp_path, "OP -x,y,-z", "OP -x,y,-(z)")
    with pytest.raises(CatalogError, match=f"line {lineno}: "):
        symcat.load_catalog(path)


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(symcat.ENV_CATALOG, str(tmp_path / "missing.txt"))
    symcat.default_catalog.cache_clear()
    with pytest.raises(FileNotFoundError):
        symcat.default_catalog()
    monkeypatch.delenv(symcat.ENV_CATALOG)
    symcat.default_catalog.cache_clear()
