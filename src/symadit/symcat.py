"""Machine-readable symmetry catalog: 230 space groups, 1731 Wyckoff
positions, lattice constraint classes, and the symmetrizing projections.

The catalog ships as a plain-text file (data/sg_catalog.txt, format below)
and is validated aggressively at load so a corrupted file fails fast:

    SGCATALOG v1 groups=230 wyckoff=1731
    G <number> <label> <family>
    OP <triplet>                          (full operation list, identity first)
    WY <letter> <mult> <site-triplet> | <gen>;<gen>;...

All arithmetic on operations is exact-rational; floats appear only when
orbits are expanded to coordinates.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .triplet import AffineForm, TripletError, parse_triplet

__all__ = [
    "CatalogError",
    "DegenerateOrbitWarning",
    "LatticeClass",
    "SpaceGroupEntry",
    "SymmetryCatalog",
    "WyckoffPos",
    "default_catalog",
    "dof_info",
    "load_catalog",
    "orbit_expand",
    "site_from_parameters",
    "symmetrize_lattice",
    "symmetrize_site",
    "wyckoff_mask",
]

N_GROUPS = 230
N_WYCKOFF = 1731

MIN_LENGTH = 0.1  # Angstrom floor for projected lattice lengths
ORBIT_TOL = 1e-6

ENV_CATALOG = "SYMADIT_CATALOG"


class CatalogError(ValueError):
    """Catalog file violates the format or an invariant."""


def wrap_unit(values) -> np.ndarray:
    """Reduce into [0, 1); float modulo of a tiny negative rounds to 1.0,
    which must map back to 0.0."""
    out = np.asarray(values, dtype=np.float64) % 1.0
    if out.ndim == 0:
        return out if out < 1.0 else np.float64(0.0)
    out[out >= 1.0] = 0.0
    return out


class DegenerateOrbitWarning(UserWarning):
    """Free parameters landed on a higher-symmetry point; orbit collapsed."""


# ---------------------------------------------------------------------------
# Lattice constraint classes
# ---------------------------------------------------------------------------

# tie rule: (target slot, source slot or None, constant or None); slots are
# (a, b, c, alpha, beta, gamma). Constants are Angstrom or degrees.
_FAMILY_RULES = {
    "triclinic": ((True,) * 6, ()),
    "monoclinic": (
        (True, True, True, False, True, False),
        ((3, None, 90.0), (5, None, 90.0)),
    ),
    "orthorhombic": (
        (True, True, True, False, False, False),
        ((3, None, 90.0), (4, None, 90.0), (5, None, 90.0)),
    ),
    "tetragonal": (
        (True, False, True, False, False, False),
        ((1, 0, None), (3, None, 90.0), (4, None, 90.0), (5, None, 90.0)),
    ),
    "trigonal-hexagonal": (
        (True, False, True, False, False, False),
        ((1, 0, None), (3, None, 90.0), (4, None, 90.0), (5, None, 120.0)),
    ),
    "rhombohedral": (  # hexagonal-axes setting
        (True, False, True, False, False, False),
        ((1, 0, None), (3, None, 90.0), (4, None, 90.0), (5, None, 120.0)),
    ),
    "cubic": (
        (True, False, False, False, False, False),
        (
            (1, 0, None),
            (2, 0, None),
            (3, None, 90.0),
            (4, None, 90.0),
            (5, None, 90.0),
        ),
    ),
}


@dataclass(frozen=True)
class LatticeClass:
    family: str
    free_mask: tuple[bool, ...]
    tie_rules: tuple[tuple[int, int | None, float | None], ...]

    @staticmethod
    def for_family(family: str) -> "LatticeClass":
        if family not in _FAMILY_RULES:
            raise CatalogError(f"unknown lattice family {family!r}")
        mask, rules = _FAMILY_RULES[family]
        return LatticeClass(family, mask, rules)


@dataclass(frozen=True)
class WyckoffPos:
    group_number: int
    letter: str
    multiplicity: int
    site_form: AffineForm
    dof: int
    dof_mask: tuple[bool, bool, bool]
    orbit_generators: tuple[AffineForm, ...]
    global_index: int

    @property
    def key(self) -> str:
        """Compound identifier; letters are not unique across groups."""
        return f"{self.group_number}_{self.multiplicity}{self.letter}"


@dataclass(frozen=True)
class SpaceGroupEntry:
    number: int
    label: str
    operations: tuple[AffineForm, ...]
    wyckoff: tuple[WyckoffPos, ...]
    lattice_class: LatticeClass

    def position(self, letter: str) -> WyckoffPos:
        for w in self.wyckoff:
            if w.letter == letter:
                return w
        raise KeyError(f"group {self.number} has no Wyckoff letter {letter!r}")


class SymmetryCatalog:
    """Immutable container over the 230 groups; safe to share across threads."""

    def __init__(self, groups: tuple[SpaceGroupEntry, ...]):
        self.groups = groups
        self._by_number = {g.number: g for g in groups}
        self.positions: tuple[WyckoffPos, ...] = tuple(
            w for g in groups for w in g.wyckoff
        )
        self._mask_start = {}
        idx = 0
        for g in groups:
            self._mask_start[g.number] = idx
            idx += len(g.wyckoff)

    def group(self, number: int) -> SpaceGroupEntry:
        try:
            return self._by_number[number]
        except KeyError:
            raise KeyError(f"space group number {number} outside 1..230") from None

    def position(self, group_number: int, letter: str) -> WyckoffPos:
        return self.group(group_number).position(letter)

    def mask_range(self, group_number: int) -> tuple[int, int]:
        start = self._mask_start[group_number]
        return start, start + len(self.group(group_number).wyckoff)

    def __len__(self) -> int:
        return len(self.groups)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _parse_header(line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "SGCATALOG" or parts[1] != "v1":
        raise CatalogError(f"bad header: {line!r}")
    try:
        groups = int(parts[2].split("=")[1])
        wyckoff = int(parts[3].split("=")[1])
    except (IndexError, ValueError) as exc:
        raise CatalogError(f"bad header counts: {line!r}") from exc
    return groups, wyckoff


def load_catalog(path: str | os.PathLike) -> SymmetryCatalog:
    """Load and fully validate a catalog file; any violation raises."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CatalogError("empty catalog file")
    want_groups, want_wyckoff = _parse_header(lines[0])

    groups: list[SpaceGroupEntry] = []
    current: dict | None = None
    global_index = 0
    seen_keys: set[tuple[int, str]] = set()

    def finish(cur):
        nonlocal global_index
        if not cur["ops"]:
            raise CatalogError(f"group {cur['number']} has no operations")
        wyckoff = []
        for letter, mult, form, gens in cur["wy"]:
            dof = form.rotation_rank()
            mask = _pivot_mask(form)
            wyckoff.append(
                WyckoffPos(
                    group_number=cur["number"],
                    letter=letter,
                    multiplicity=mult,
                    site_form=form,
                    dof=dof,
                    dof_mask=mask,
                    orbit_generators=tuple(gens),
                    global_index=global_index,
                )
            )
            global_index += 1
        entry = SpaceGroupEntry(
            number=cur["number"],
            label=cur["label"],
            operations=tuple(cur["ops"]),
            wyckoff=tuple(wyckoff),
            lattice_class=LatticeClass.for_family(cur["family"]),
        )
        _validate_group(entry)
        groups.append(entry)

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tag, _, rest = line.partition(" ")
        try:
            if tag == "G":
                if current is not None:
                    finish(current)
                num_s, label, family = rest.split()
                current = {
                    "number": int(num_s),
                    "label": label,
                    "family": family,
                    "ops": [],
                    "wy": [],
                }
            elif tag == "OP":
                current["ops"].append(parse_triplet(rest))
            elif tag == "WY":
                head, _, gen_part = rest.partition("|")
                letter, mult_s, site = head.split()
                key = (current["number"], letter)
                if key in seen_keys:
                    raise CatalogError(f"duplicate Wyckoff key {key}")
                seen_keys.add(key)
                gens = [
                    parse_triplet(t, validate_rotation=True)
                    for t in gen_part.strip().split(";")
                ]
                form = parse_triplet(site, validate_rotation=False)
                current["wy"].append((letter, int(mult_s), form, gens))
            else:
                raise CatalogError(f"unknown record tag {tag!r}")
        except (TripletError, ValueError, TypeError, AttributeError) as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
    if current is not None:
        finish(current)

    if len(groups) != want_groups or len(groups) != N_GROUPS:
        raise CatalogError(
            f"group count mismatch: file has {len(groups)}, "
            f"header says {want_groups}, expected {N_GROUPS}"
        )
    total_wy = sum(len(g.wyckoff) for g in groups)
    if total_wy != want_wyckoff or total_wy != N_WYCKOFF:
        raise CatalogError(
            f"Wyckoff count mismatch: file has {total_wy}, "
            f"header says {want_wyckoff}, expected {N_WYCKOFF}"
        )
    numbers = [g.number for g in groups]
    if numbers != list(range(1, N_GROUPS + 1)):
        raise CatalogError("group numbers are not 1..230 in order")

    p1 = groups[0]
    if len(p1.wyckoff) != 1 or p1.wyckoff[0].dof != 3 or p1.wyckoff[0].multiplicity != 1:
        raise CatalogError("group 1 must have a single general position")

    return SymmetryCatalog(tuple(groups))


def _pivot_mask(form: AffineForm) -> tuple[bool, bool, bool]:
    """Slots whose stored coordinate is a free parameter (first occurrence)."""
    mask = [False, False, False]
    for col in range(3):
        col_vals = [form.matrix[i][col] for i in range(3)]
        if any(v != 0 for v in col_vals):
            mask[col] = True
    return tuple(mask)


def _validate_group(entry: SpaceGroupEntry) -> None:
    ident = AffineForm.identity()
    if entry.operations[0] != ident and ident not in entry.operations:
        raise CatalogError(f"group {entry.number}: identity operation missing")
    for w in entry.wyckoff:
        if len(w.orbit_generators) != w.multiplicity:
            raise CatalogError(
                f"group {entry.number} position {w.letter}: "
                f"{len(w.orbit_generators)} generators != multiplicity "
                f"{w.multiplicity}"
            )
        if w.dof != w.site_form.rotation_rank():
            raise CatalogError(
                f"group {entry.number} position {w.letter}: dof/rank mismatch"
            )
    mults = [w.multiplicity for w in entry.wyckoff]
    if max(mults) != len(entry.operations):
        raise CatalogError(
            f"group {entry.number}: general multiplicity {max(mults)} != "
            f"operation count {len(entry.operations)}"
        )


@lru_cache(maxsize=1)
def default_catalog() -> SymmetryCatalog:
    """The vendored catalog (override path with $SYMADIT_CATALOG)."""
    override = os.environ.get(ENV_CATALOG)
    if override:
        return load_catalog(override)
    ref = resources.files("symadit").joinpath("data/sg_catalog.txt")
    with resources.as_file(ref) as path:
        return load_catalog(path)


# ---------------------------------------------------------------------------
# Symmetrizers and masks
# ---------------------------------------------------------------------------


def dof_info(w: WyckoffPos):
    """(dof, dof_mask, bindings): free variable -> first-occurrence slot."""
    bindings = {
        name: next(i for i in range(3) if w.site_form.matrix[i][col] != 0)
        for col, name in enumerate("xyz")
        if any(w.site_form.matrix[i][col] != 0 for i in range(3))
    }
    return w.dof, w.dof_mask, bindings


def free_parameters(w: WyckoffPos, frac) -> np.ndarray:
    """Read the free-variable vector from stored coordinates (binding slots)."""
    frac = np.asarray(frac, dtype=np.float64)
    u = np.zeros(3)
    for col in range(3):
        rows = [i for i in range(3) if w.site_form.matrix[i][col] != 0]
        if rows:
            u[col] = frac[rows[0]]
    return u


def symmetrize_site(w: WyckoffPos, f_pred) -> np.ndarray:
    """Project a predicted fractional triple onto the position's form.

    Free variables are read from the slot of their first occurrence, the
    parametric form is re-evaluated, and the result is wrapped into [0, 1).
    """
    f_pred = np.asarray(f_pred, dtype=np.float64)
    if not np.all(np.isfinite(f_pred)):
        raise ValueError("fractional prediction contains non-finite values")
    return site_from_parameters(w, free_parameters(w, f_pred))


def site_from_parameters(w: WyckoffPos, u) -> np.ndarray:
    """Evaluate the position's site form at free parameters u (one per
    variable x, y, z), wrapped into [0, 1)."""
    mat = np.array([[float(e) for e in row] for row in w.site_form.matrix])
    trans = np.array([float(t) for t in w.site_form.translation])
    return wrap_unit(mat @ np.asarray(u, dtype=np.float64) + trans)


def symmetrize_lattice(lattice_class: LatticeClass, ell) -> np.ndarray:
    """Overwrite tied/fixed slots from the free ones; clamps lengths to
    MIN_LENGTH so downstream geometry stays finite. Idempotent."""
    out = np.array(ell, dtype=np.float64).copy()
    if out.shape != (6,):
        raise ValueError(f"lattice parameter vector must have 6 slots, got {out.shape}")
    for i in range(3):
        if lattice_class.free_mask[i]:
            out[i] = max(out[i], MIN_LENGTH)
    for target, source, const in lattice_class.tie_rules:
        out[target] = out[source] if source is not None else const
    return out


def lattice_was_clamped(lattice_class: LatticeClass, ell) -> bool:
    ell = np.asarray(ell, dtype=np.float64)
    return any(
        lattice_class.free_mask[i] and ell[i] < MIN_LENGTH for i in range(3)
    )


def orbit_expand(entry: SpaceGroupEntry, w: WyckoffPos, f_free) -> np.ndarray:
    """Expand a symmetrized representative to its orbit in [0, 1)^3.

    Returns `multiplicity` points for generic parameters; if the free
    parameters hit a special value the orbit collapses and a
    DegenerateOrbitWarning is issued (deduped points are returned).
    """
    f = wrap_unit(f_free)
    pts = []
    for g in w.orbit_generators:
        img = wrap_unit([float(x) for x in g.apply(tuple(f))])
        pts.append(img)
    pts = np.array(pts)
    uniq: list[np.ndarray] = []
    for p in pts:
        dup = False
        for q in uniq:
            d = np.abs(p - q)
            d = np.minimum(d, 1.0 - d)
            if np.all(d < ORBIT_TOL):
                dup = True
                break
        if not dup:
            uniq.append(p)
    if len(uniq) != w.multiplicity:
        warnings.warn(
            f"orbit of {w.key} collapsed to {len(uniq)} of "
            f"{w.multiplicity} points (special parameter value)",
            DegenerateOrbitWarning,
            stacklevel=2,
        )
    return np.array(uniq)


def wyckoff_mask(catalog: SymmetryCatalog, group_number: int) -> np.ndarray:
    """Boolean vector over all 1731 positions, true inside the group."""
    mask = np.zeros(len(catalog.positions), dtype=bool)
    start, stop = catalog.mask_range(group_number)
    mask[start:stop] = True
    return mask
