"""Minimal CIF reader/writer for expanded structures.

The writer emits the small tag set common toolchains accept: cell
parameters, a P1 symmetry loop (atoms are written fully expanded), and the
fractional atom_site loop. Space-group tags are added when the structure
carries provenance: the number, and the H-M symbol of the catalog it was
expanded with. The reader ignores unknown tags.
"""

from __future__ import annotations

import numpy as np

from .crystal import FullCrystal, _row_cell, lattice_params

__all__ = ["CifError", "read_cif", "write_cif", "ELEMENT_SYMBOLS"]

ELEMENT_SYMBOLS = [
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
]

_SYMBOL_TO_Z = {s: i + 1 for i, s in enumerate(ELEMENT_SYMBOLS)}


class CifError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def element_symbol(z: int) -> str:
    if not 1 <= z <= len(ELEMENT_SYMBOLS):
        raise ValueError(f"atomic number {z} out of range")
    return ELEMENT_SYMBOLS[z - 1]


def element_number(symbol: str) -> int:
    s = symbol.strip().rstrip("0123456789+-")
    if s not in _SYMBOL_TO_Z:
        raise ValueError(f"unknown element symbol {symbol!r}")
    return _SYMBOL_TO_Z[s]


def write_cif(structure: FullCrystal, name: str = "generated") -> str:
    """Serialize an expanded structure; rejects empty atom lists."""
    if structure.n_atoms == 0:
        raise ValueError("refusing to write a CIF without atoms")
    ell = lattice_params(structure.lattice)
    lines = [f"data_{name}"]
    if structure.label is not None:
        lines.append(f"_symmetry_space_group_name_H-M   '{structure.label}'")
    if structure.spacegroup is not None:
        lines.append(
            f"_symmetry_Int_Tables_number      {structure.spacegroup}")
    for tag, val in zip(
        ("a", "b", "c"), ell[:3]):
        lines.append(f"_cell_length_{tag}   {val:.6f}")
    for tag, val in zip(("alpha", "beta", "gamma"), ell[3:]):
        lines.append(f"_cell_angle_{tag}   {val:.6f}")
    lines += [
        "loop_",
        "_symmetry_equiv_pos_as_xyz",
        "  'x, y, z'",
        "loop_",
        "_atom_site_label",
        "_atom_site_type_symbol",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
    ]
    for i, (z, f) in enumerate(zip(structure.elements, structure.frac)):
        sym = element_symbol(int(z))
        lines.append(
            f"  {sym}{i + 1} {sym} {f[0]:.6f} {f[1]:.6f} {f[2]:.6f}")
    return "\n".join(lines) + "\n"


def _strip_esd(token: str) -> float:
    """Parse a finite CIF number, dropping a parenthesised standard
    deviation."""
    if "(" in token:
        token = token[: token.index("(")]
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


def read_cif(text: str) -> FullCrystal:
    """Parse a minimal CIF: cell parameters plus a fractional site loop.

    A space-group tag of `?` or `.` (CIF's unknown and inapplicable) counts
    as absent; any other value must be an integer in 1..230."""
    cell: dict[str, float] = {}
    spacegroup: int | None = None
    elements: list[int] = []
    frac: list[list[float]] = []

    lines = text.splitlines()
    i = 0
    n = len(lines)
    while i < n:
        raw = lines[i].strip()
        i += 1
        if not raw or raw.startswith("#") or raw.startswith("data_"):
            continue
        if raw.startswith("_cell_length_") or raw.startswith("_cell_angle_"):
            parts = raw.split()
            if len(parts) < 2:
                raise CifError(f"missing value for {parts[0]}", i)
            try:
                cell[parts[0]] = _strip_esd(parts[1])
            except ValueError as exc:
                raise CifError(f"bad number {parts[1]!r}", i) from exc
        elif raw.startswith("_symmetry_Int_Tables_number") or raw.startswith(
                "_space_group_IT_number"):
            parts = raw.split()
            token = parts[1] if len(parts) >= 2 else "?"
            if token not in ("?", "."):
                if not (token.isascii() and token.isdigit()
                        and 1 <= int(token) <= 230):
                    raise CifError(f"space-group number {token!r} is not "
                                   "an integer in 1..230", i)
                spacegroup = int(token)
        elif raw == "loop_":
            headers = []
            while i < n and lines[i].strip().startswith("_"):
                headers.append(lines[i].strip().split()[0])
                i += 1
            if not any(h.startswith("_atom_site") for h in headers):
                # skip non-atom loop body
                while i < n:
                    body = lines[i].strip()
                    if not body or body.startswith(("_", "loop_", "data_")):
                        break
                    i += 1
                continue
            try:
                col_sym = next(
                    k for k, h in enumerate(headers)
                    if h in ("_atom_site_type_symbol", "_atom_site_label"))
                col_x = headers.index("_atom_site_fract_x")
                col_y = headers.index("_atom_site_fract_y")
                col_z = headers.index("_atom_site_fract_z")
            except (StopIteration, ValueError) as exc:
                raise CifError(
                    "atom_site loop lacks symbol or fractional columns", i
                ) from exc
            while i < n:
                body = lines[i].strip()
                if not body or body.startswith(("_", "loop_", "data_")):
                    break
                fields = body.split()
                if len(fields) < len(headers):
                    raise CifError(
                        f"atom row has {len(fields)} fields, "
                        f"expected {len(headers)}", i + 1)
                try:
                    elements.append(element_number(fields[col_sym]))
                    frac.append([
                        _strip_esd(fields[col_x]),
                        _strip_esd(fields[col_y]),
                        _strip_esd(fields[col_z]),
                    ])
                except ValueError as exc:
                    raise CifError(str(exc), i + 1) from exc
                i += 1

    required = [
        "_cell_length_a", "_cell_length_b", "_cell_length_c",
        "_cell_angle_alpha", "_cell_angle_beta", "_cell_angle_gamma",
    ]
    missing = [t for t in required if t not in cell]
    if missing:
        raise CifError(f"missing required tags: {', '.join(missing)}")
    if not elements:
        raise CifError("no atom_site loop found")
    try:
        L = _row_cell([cell[t] for t in required])
    except ValueError as exc:
        raise CifError(str(exc)) from exc
    return FullCrystal(
        lattice=L,
        elements=np.array(elements),
        frac=np.array(frac),
        spacegroup=spacegroup,
    )
