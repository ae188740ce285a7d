"""Machine-readable symmetry catalog: 230 space groups, 1731 Wyckoff
positions, lattice constraint classes, and the symmetrizing projections.

The catalog ships as a plain-text file (data/sg_catalog.txt, format below)
and is validated aggressively at load so a corrupted file fails fast:

    SGCATALOG v1 groups=230 wyckoff=1731
    G <number> <label> <family>
    OP <triplet>                          (full operation list, identity first)
    WY <letter> <mult> <site-triplet> | <gen>;<gen>;...
                                          (each gen repeats an OP triplet
                                           of its group above it verbatim)

The loader parses each distinct triplet once and validates every form in
exact rational arithmetic.
Per-call code reads read-only float copies of those forms, built once per
position or group on first use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .triplet import AffineForm, TripletError, parse_triplet

__all__ = [
    "CatalogError",
    "LatticeClass",
    "SpaceGroupEntry",
    "SymmetryCatalog",
    "WyckoffPos",
    "default_catalog",
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
    """Free parameters landed on a higher-symmetry point; orbit collapsed.

    Nothing in the package issues it: `orbit_expand` returns a collapsed
    orbit as data and `crystal.expand_asu` counts it. The name stays only
    for callers outside the package that still filter it.
    """


def _readonly(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _stack(forms) -> tuple[np.ndarray, np.ndarray]:
    """Float rotations (m, 3, 3) and translations (m, 3) of exact forms."""
    return (_readonly([f.matrix for f in forms]),
            _readonly([f.translation for f in forms]))


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
    orbit_generators: tuple[AffineForm, ...]
    global_index: int

    @property
    def key(self) -> str:
        """Compound identifier; letters are not unique across groups."""
        return f"{self.group_number}_{self.multiplicity}{self.letter}"

    @cached_property
    def site_matrix(self) -> np.ndarray:
        """Linear part (3, 3) of the site form."""
        return _readonly(self.site_form.matrix)

    @cached_property
    def site_translation(self) -> np.ndarray:
        """Translation (3,) of the site form."""
        return _readonly(self.site_form.translation)

    @cached_property
    def dof_mask(self) -> tuple[bool, bool, bool]:
        """Which of the variables x, y, z the site form uses."""
        return tuple(bool(v) for v in self.site_matrix.any(axis=0))

    @cached_property
    def binding_slots(self) -> np.ndarray:
        """Slot where each variable first occurs (0 where dof_mask is false);
        the stored coordinate in that slot is the variable's value."""
        return _readonly(np.argmax(self.site_matrix != 0, axis=0), np.intp)

    @cached_property
    def generator_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Orbit generators as rotations (m, 3, 3) and translations (m, 3)."""
        return _stack(self.orbit_generators)


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
        raise ValueError(f"group {self.number} has no Wyckoff letter {letter!r}")

    @cached_property
    def operation_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Operations as rotations (n, 3, 3) and translations (n, 3)."""
        return _stack(self.operations)


class SymmetryCatalog:
    """Immutable container over the 230 groups; safe to share across threads."""

    def __init__(self, groups: tuple[SpaceGroupEntry, ...]):
        self.groups = groups
        self._by_number = {g.number: g for g in groups}
        self.positions: tuple[WyckoffPos, ...] = tuple(
            w for g in groups for w in g.wyckoff
        )

    def group(self, number: int) -> SpaceGroupEntry:
        try:
            return self._by_number[number]
        except KeyError:
            raise ValueError(
                f"space group number {number} outside 1..230") from None

    def position(self, group_number: int, letter: str) -> WyckoffPos:
        return self.group(group_number).position(letter)

    def mask_range(self, group_number: int) -> tuple[int, int]:
        wyckoff = self.group(group_number).wyckoff
        return wyckoff[0].global_index, wyckoff[-1].global_index + 1

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
    # One parse per distinct (text, kind): an OP is held to the rotation
    # limit and a site form is not, so the two never share an entry.
    forms: dict[tuple[str, str], AffineForm] = {}

    def parsed(text: str, kind: str) -> AffineForm:
        if (text, kind) not in forms:
            forms[text, kind] = parse_triplet(
                text, validate_rotation=kind == "OP")
        return forms[text, kind]

    def finish(cur):
        nonlocal global_index
        if not cur["ops"]:
            raise CatalogError(f"group {cur['number']} has no operations")
        wyckoff = []
        for letter, mult, form, gens in cur["wy"]:
            wyckoff.append(
                WyckoffPos(
                    group_number=cur["number"],
                    letter=letter,
                    multiplicity=mult,
                    site_form=form,
                    dof=form.rotation_rank(),
                    orbit_generators=tuple(gens),
                    global_index=global_index,
                )
            )
            global_index += 1
        entry = SpaceGroupEntry(
            number=cur["number"],
            label=cur["label"],
            operations=tuple(cur["ops"].values()),
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
                    "ops": {},
                    "wy": [],
                }
            elif tag == "OP":
                if rest in current["ops"]:
                    raise CatalogError(f"duplicate operation {rest!r}")
                current["ops"][rest] = parsed(rest, "OP")
            elif tag == "WY":
                head, _, gen_part = rest.partition("|")
                letter, mult_s, site = head.split()
                key = (current["number"], letter)
                if key in seen_keys:
                    raise CatalogError(f"duplicate Wyckoff key {key}")
                seen_keys.add(key)
                gens = []
                for t in gen_part.strip().split(";"):
                    if t not in current["ops"]:
                        raise CatalogError(
                            f"orbit generator {t!r} is not an operation of "
                            f"group {current['number']}")
                    gens.append(current["ops"][t])
                form = parsed(site, "WY")
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


def free_parameters(w: WyckoffPos, frac) -> np.ndarray:
    """Read the free-variable vector from stored coordinates (binding slots)."""
    frac = np.asarray(frac, dtype=np.float64)
    return np.where(w.dof_mask, frac[w.binding_slots], 0.0)


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
    return wrap_unit(
        w.site_matrix @ np.asarray(u, dtype=np.float64) + w.site_translation)


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

    Returns `w.multiplicity` points for generic parameters. If the free
    parameters hit a special value the orbit collapses: the deduplicated
    points are returned, fewer than `w.multiplicity` of them.
    """
    rot, trans = w.generator_arrays
    pts = wrap_unit(rot @ wrap_unit(f_free) + trans)
    close = np.ones((len(pts), len(pts)), dtype=bool)  # one axis at a time
    for col in pts.T:
        d = np.abs(col[:, None] - col[None, :])
        close &= np.minimum(d, 1.0 - d) < ORBIT_TOL
        if np.count_nonzero(close) == len(pts):  # each meets only itself
            return pts
    close = np.triu(close, 1)  # a later point j coincides with point i
    keep = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        if keep[i]:  # the first kept point of a cluster drops the rest
            keep[close[i]] = False
    return pts[keep]


def wyckoff_mask(catalog: SymmetryCatalog, group_number: int) -> np.ndarray:
    """Boolean vector over all 1731 positions, true inside the group."""
    mask = np.zeros(len(catalog.positions), dtype=bool)
    start, stop = catalog.mask_range(group_number)
    mask[start:stop] = True
    return mask
