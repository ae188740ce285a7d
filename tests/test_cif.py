from pathlib import Path

import numpy as np
import pytest

from conftest import random_asu
from symadit import cif as cifio
from symadit import crystal as cr
from symadit import symcat
from symadit.cif import CifError, read_cif, write_cif
from symadit.crystal import FullCrystal


def test_nacl_cif_golden(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    text = write_cif(full, name="nacl")
    assert text.count("\n  Na") + text.count("\n  Cl") == 8
    assert "_cell_length_a   5.650000" in text
    assert "_symmetry_Int_Tables_number      225" in text
    assert "_symmetry_space_group_name_H-M   'Fm-3m'" in text
    assert "'x, y, z'" in text


def test_label_comes_from_the_expanding_catalog(tmp_path, nacl, monkeypatch):
    vendored = Path(symcat.__file__).parent / "data" / "sg_catalog.txt"
    text = vendored.read_text()
    assert text.count("\nG 225 Fm-3m cubic\n") == 1
    edited = tmp_path / "edited.txt"
    edited.write_text(text.replace("\nG 225 Fm-3m cubic\n",
                                   "\nG 225 Xm-3m cubic\n"))
    copy = symcat.load_catalog(edited)

    def no_load(*args):
        raise AssertionError("write_cif loaded a catalog")

    monkeypatch.setattr(symcat, "load_catalog", no_load)
    monkeypatch.setattr(symcat, "default_catalog", no_load)
    written = write_cif(cr.expand_asu(nacl, copy))
    assert "_symmetry_space_group_name_H-M   'Xm-3m'" in written
    back = write_cif(read_cif(written))
    assert "_symmetry_space_group_name_H-M" not in back
    assert "_symmetry_Int_Tables_number      225" in back


def test_empty_structure_rejected():
    empty = FullCrystal(lattice=np.eye(3), elements=[], frac=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        write_cif(empty)


def test_roundtrip_preserves_geometry(catalog, nacl):
    full = cr.expand_asu(nacl, catalog)
    back = read_cif(write_cif(full))
    assert back.n_atoms == 8
    assert np.allclose(cr.lattice_params(back.lattice),
                       cr.lattice_params(full.lattice), atol=1e-4)
    assert back.spacegroup == 225


def test_roundtrip_random_structures(catalog):
    rng = np.random.default_rng(13)
    done = 0
    while done < 50:
        g = int(rng.integers(1, 231))
        asu = random_asu(catalog, g, rng, max_sites=3)
        full = cr.expand_asu(asu, catalog)
        if full.n_atoms > 60:
            continue
        back = read_cif(write_cif(full))
        assert back.n_atoms == full.n_atoms
        assert np.allclose(cr.lattice_params(back.lattice),
                           cr.lattice_params(full.lattice), atol=1e-4)
        d = np.abs(back.frac - full.frac)
        d = np.minimum(d, 1 - d)
        assert np.max(d) < 1e-4
        done += 1


def test_reader_missing_tags():
    with pytest.raises(CifError) as err:
        read_cif("data_x\n_cell_length_a 4.0\n")
    assert "missing required tags" in str(err.value)


def test_reader_malformed_row_reports_line():
    text = "\n".join([
        "data_x",
        "_cell_length_a 4.0",
        "_cell_length_b 4.0",
        "_cell_length_c 4.0",
        "_cell_angle_alpha 90",
        "_cell_angle_beta 90",
        "_cell_angle_gamma 90",
        "loop_",
        "_atom_site_label",
        "_atom_site_type_symbol",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
        "Na1 Na 0.0 0.0",
    ])
    with pytest.raises(CifError) as err:
        read_cif(text)
    assert err.value.line is not None


def test_reader_ignores_unknown_tags():
    text = "\n".join([
        "data_x",
        "_cell_length_a 4.0",
        "_cell_length_b 4.0",
        "_cell_length_c 4.0",
        "_cell_angle_alpha 90",
        "_cell_angle_beta 90",
        "_cell_angle_gamma 90",
        "_chemical_name_common 'salt'",
        "loop_",
        "_symmetry_equiv_pos_as_xyz",
        "  'x, y, z'",
        "loop_",
        "_atom_site_label",
        "_atom_site_type_symbol",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
        "Na1 Na 0.25(2) 0.0 0.0",
    ])
    full = read_cif(text)
    assert full.n_atoms == 1
    assert full.frac[0][0] == pytest.approx(0.25)


def test_reader_space_group_tag(catalog, nacl):
    text = write_cif(cr.expand_asu(nacl, catalog))
    tag = "_symmetry_Int_Tables_number      225"
    line = text.splitlines().index(tag) + 1

    def read(value, name="_symmetry_Int_Tables_number"):
        return read_cif(text.replace(tag, f"{name} {value}"))

    assert read("225").spacegroup == 225
    assert read("12", "_space_group_IT_number").spacegroup == 12
    for unknown in ("?", ".", ""):
        assert read(unknown).spacegroup is None
    for bad in ("225(1)", "231", "0", "-5", "+5", "2_25", "2.0", "P1"):
        with pytest.raises(CifError, match="1..230") as err:
            read(bad)
        assert err.value.line == line, bad


def test_element_symbols_roundtrip():
    for z in (1, 6, 11, 17, 57, 92, 100):
        assert cifio.element_number(cifio.element_symbol(z)) == z
    assert cifio.element_number("Fe2+") == 26
