"""Crystal data model: asymmetric-unit tuples, expansion to the full
conventional cell, lattice geometry, Niggli reduction, periodic distance
checks, and dataset JSONL I/O."""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, symcat
from .symcat import SymmetryCatalog, WyckoffPos

__all__ = [
    "CrystalASU",
    "FullCrystal",
    "IngestError",
    "MatchParams",
    "Site",
    "assign_wyckoff",
    "dataset_lines",
    "expand_asu",
    "lattice_matrix",
    "lattice_params",
    "min_pairwise_distance",
    "niggli_reduce",
    "parse_record",
    "read_dataset_jsonl",
    "structural_validity",
    "write_dataset_jsonl",
]

MAX_ELEMENT = 100
MIN_DISTANCE = 0.5  # Angstrom
MIN_VOLUME = 0.1    # Angstrom^3


class IngestError(ValueError):
    """A structure could not be decomposed into Wyckoff orbits."""


@dataclass(frozen=True)
class MatchParams:
    ltol: float = 0.2
    stol: float = 0.3
    angle_tol: float = 10.0

    def __post_init__(self):
        if min(self.ltol, self.stol, self.angle_tol) <= 0:
            raise ValueError("match tolerances must be positive")


@dataclass
class Site:
    element: int
    wyckoff: str
    frac: np.ndarray

    def __post_init__(self):
        self.frac = symcat.wrap_unit(self.frac)
        if self.frac.shape != (3,) or not np.all(np.isfinite(self.frac)):
            raise ValueError(f"fractional site {self.frac} is not 3 finite numbers")
        if not 1 <= self.element <= MAX_ELEMENT:
            raise ValueError(f"element code {self.element} outside 1..{MAX_ELEMENT}")


@dataclass
class CrystalASU:
    """Asymmetric unit: space group, one site per symmetry orbit, lattice."""

    spacegroup: int
    sites: list[Site]
    lattice: np.ndarray  # (a, b, c, alpha, beta, gamma)

    def __post_init__(self):
        self.lattice = np.asarray(self.lattice, dtype=np.float64)
        if self.lattice.shape != (6,) or not np.all(np.isfinite(self.lattice)):
            raise ValueError(f"lattice {self.lattice} is not 6 finite numbers")
        if not 1 <= self.spacegroup <= 230:
            raise ValueError(f"space group {self.spacegroup} outside 1..230")
        if not self.sites:
            raise ValueError("an asymmetric unit needs at least one site")

    def validate(self, catalog: SymmetryCatalog) -> None:
        """Check all structural invariants; raises ValueError on violation."""
        entry = catalog.group(self.spacegroup)
        lc = entry.lattice_class
        projected = symcat.symmetrize_lattice(lc, self.lattice)
        if not np.allclose(projected, self.lattice, atol=1e-9):
            raise ValueError(
                f"lattice {self.lattice} violates {lc.family} constraints")
        zero_dof_used: set[str] = set()
        for site in self.sites:
            w = entry.position(site.wyckoff)
            snapped = symcat.symmetrize_site(w, site.frac)
            d = np.abs(snapped - site.frac)
            d = np.minimum(d, 1.0 - d)
            if np.any(d > 1e-9):
                raise ValueError(
                    f"site {site.frac} off its {w.key} parametric form")
            if w.dof == 0:
                if site.wyckoff in zero_dof_used:
                    raise ValueError(
                        f"zero-DOF position {w.key} occupied twice")
                zero_dof_used.add(site.wyckoff)


@dataclass
class FullCrystal:
    """Expanded conventional cell. Periodic distances are measured on its
    Niggli cell (`reduced`), where the kernels' image sweep is exact."""

    lattice: np.ndarray            # (3, 3) row basis vectors, Angstrom
    elements: np.ndarray           # (M,) atomic numbers
    frac: np.ndarray               # (M, 3) fractional coordinates in [0, 1)
    spacegroup: int | None = None
    label: str | None = None       # H-M symbol from the expanding catalog

    def __post_init__(self):
        self.lattice = np.asarray(self.lattice, dtype=np.float64)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        self.frac = symcat.wrap_unit(np.asarray(self.frac, dtype=np.float64))
        if self.lattice.shape != (3, 3):
            raise ValueError("lattice must be a 3x3 matrix")
        if len(self.elements) != len(self.frac):
            raise ValueError("elements and coordinates disagree in length")
        if self.volume <= 0:
            raise ValueError("lattice matrix must be right-handed (det > 0)")

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def volume(self) -> float:
        return float(np.linalg.det(self.lattice))

    @functools.cached_property
    def match_key(self) -> tuple:
        """(atom count, reduced composition), which a match must equal."""
        els, counts = np.unique(self.elements, return_counts=True)
        counts //= np.gcd.reduce(counts)
        return self.n_atoms, tuple(zip(els.tolist(), counts.tolist()))

    @functools.cached_property
    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, M): the Niggli cell R of `lattice`, reduced once, and the
        integer basis change M with lattice = M @ R, so `frac @ M` are the
        coordinates in R."""
        R = niggli_reduce(self.lattice)
        return R, np.round(self.lattice @ np.linalg.inv(R))


# ---------------------------------------------------------------------------
# Lattice geometry
# ---------------------------------------------------------------------------


def lattice_matrix(ell) -> tuple[np.ndarray, float]:
    """Row-vector cell from (a, b, c, alpha, beta, gamma); also the volume.

    Convention: a along x, b in the xy plane.
    """
    a, b, c, alpha, beta, gamma = np.asarray(ell, dtype=np.float64)
    if min(a, b, c) <= 0:
        raise ValueError(f"cell lengths must be positive, got {(a, b, c)}")
    for ang in (alpha, beta, gamma):
        if not 0.0 < ang < 180.0:
            raise ValueError(f"cell angle {ang} outside (0, 180)")
    ca, cb, cg = (math.cos(math.radians(x)) for x in (alpha, beta, gamma))
    sg = math.sin(math.radians(gamma))
    arg = 1.0 - ca * ca - cb * cb - cg * cg + 2.0 * ca * cb * cg
    if arg <= 0.0:
        raise ValueError(f"angle combination {(alpha, beta, gamma)} closes no cell")
    L = np.array([
        [a, 0.0, 0.0],
        [b * cg, b * sg, 0.0],
        [c * cb, c * (ca - cb * cg) / sg, c * math.sqrt(arg) / sg],
    ])
    return L, float(np.linalg.det(L))


def lattice_params(L) -> np.ndarray:
    """Inverse of lattice_matrix: six scalars from a row-vector cell."""
    L = np.asarray(L, dtype=np.float64)
    a, b, c = (float(np.linalg.norm(L[i])) for i in range(3))

    def angle(u, v):
        cosv = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        return math.degrees(math.acos(max(-1.0, min(1.0, cosv))))

    return np.array([a, b, c, angle(L[1], L[2]), angle(L[0], L[2]),
                     angle(L[0], L[1])])


# ---------------------------------------------------------------------------
# Expansion and ingestion
# ---------------------------------------------------------------------------


def expand_asu(asu: CrystalASU, catalog: SymmetryCatalog,
               counters: dict | None = None) -> FullCrystal:
    """Expand every orbit to the conventional cell.

    An orbit whose free parameters sit on a special value collapses to
    fewer than its multiplicity of points; each such orbit adds 1 to
    `counters["degenerate_orbits"]` when `counters` is given.
    """
    entry = catalog.group(asu.spacegroup)
    L, _ = lattice_matrix(asu.lattice)
    elements: list[int] = []
    coords: list[np.ndarray] = []
    for site in asu.sites:
        w = entry.position(site.wyckoff)
        pts = symcat.orbit_expand(entry, w, site.frac)
        if counters is not None and len(pts) != w.multiplicity:
            counters["degenerate_orbits"] = counters.get(
                "degenerate_orbits", 0) + 1
        coords.append(pts)
        elements.extend([site.element] * len(pts))
    return FullCrystal(
        lattice=L,
        elements=np.array(elements),
        frac=np.concatenate(coords, axis=0),
        spacegroup=asu.spacegroup,
        label=entry.label,
    )


def _wrap_delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


def assign_wyckoff(
    structure: FullCrystal,
    spacegroup: int,
    catalog: SymmetryCatalog,
    tol: float = 1e-3,
) -> CrystalASU:
    """Inverse of expand_asu for structures given in the conventional setting.

    Atoms are partitioned into orbits under the group operations; each orbit
    is matched against the catalog's parametric forms (representative: the
    lexicographically smallest member that fits). Fails with IngestError when
    no consistent decomposition exists.
    """
    entry = catalog.group(spacegroup)
    frac = symcat.wrap_unit(structure.frac)
    m = structure.n_atoms

    # union-find over atoms related by a symmetry operation
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for rot, trans in zip(*entry.operation_arrays):
        mapped = symcat.wrap_unit(frac @ rot.T + trans)
        for i in range(m):
            d = _wrap_delta(mapped[i][None, :], frac)
            hits = np.where(np.all(d < tol, axis=1))[0]
            if len(hits) == 0:
                raise IngestError(
                    f"atom {i} has no symmetry partner under {entry.label}; "
                    "structure is not in the conventional setting"
                )
            union(i, int(hits[0]))

    orbits: dict[int, list[int]] = {}
    for i in range(m):
        orbits.setdefault(find(i), []).append(i)

    sites: list[Site] = []
    for members in orbits.values():
        elems = {int(structure.elements[i]) for i in members}
        if len(elems) > 1:
            raise IngestError(f"mixed elements {sorted(elems)} within one orbit")
        size = len(members)
        candidates = [w for w in entry.wyckoff if w.multiplicity == size]
        if not candidates:
            raise IngestError(
                f"orbit size {size} matches no Wyckoff multiplicity in "
                f"group {spacegroup}"
            )
        chosen: tuple[WyckoffPos, np.ndarray] | None = None
        for w in candidates:
            fitting = []
            for i in members:
                snapped = symcat.symmetrize_site(w, frac[i])
                if np.all(_wrap_delta(snapped, frac[i]) < tol):
                    fitting.append(snapped)
            if fitting:
                rep = min(fitting, key=lambda p: tuple(np.round(p / tol).astype(int)))
                chosen = (w, rep)
                break
        if chosen is None:
            raise IngestError(
                f"no parametric form fits orbit of size {size} in group "
                f"{spacegroup}"
            )
        w, rep = chosen
        sites.append(Site(element=elems.pop(), wyckoff=w.letter, frac=rep))

    ell = lattice_params(structure.lattice)
    ell = symcat.symmetrize_lattice(entry.lattice_class, ell)
    sites.sort(key=lambda s: (s.wyckoff, s.element, tuple(s.frac)))
    asu = CrystalASU(spacegroup=spacegroup, sites=sites, lattice=ell)

    # round trip must reproduce the input atom set
    rebuilt = expand_asu(asu, catalog)
    if rebuilt.n_atoms != m:
        raise IngestError(
            f"round trip produced {rebuilt.n_atoms} atoms, expected {m}")
    matched = np.zeros(m, dtype=bool)
    for el, f in zip(rebuilt.elements, rebuilt.frac):
        d = _wrap_delta(f[None, :], frac)
        hits = np.where(
            np.all(d < 10 * tol, axis=1) & (structure.elements == el) & ~matched
        )[0]
        if len(hits) == 0:
            raise IngestError("round trip atom has no counterpart in input")
        matched[hits[0]] = True
    return asu


# ---------------------------------------------------------------------------
# Distances and validity
# ---------------------------------------------------------------------------


def min_pairwise_distance(structure: FullCrystal) -> float:
    """Shortest interatomic distance including periodic self-images,
    measured on the Niggli cell."""
    R, M = structure.reduced
    return float(kernels.min_pairwise_distance(structure.frac @ M, R))


def structural_validity(structure: FullCrystal) -> bool:
    """Distance >= 0.5 Angstrom and volume >= 0.1 Angstrom^3."""
    if structure.volume < MIN_VOLUME:
        return False
    return min_pairwise_distance(structure) >= MIN_DISTANCE


# ---------------------------------------------------------------------------
# Niggli reduction (Krivy & Gruber iteration on basis vectors)
# ---------------------------------------------------------------------------


def niggli_reduce(L, eps: float = 1e-5, max_iter: int = 100) -> np.ndarray:
    """Niggli-reduce a row-vector cell; the output spans the same lattice."""
    L = np.asarray(L, dtype=np.float64)
    if np.linalg.det(L) <= 0:
        raise ValueError("lattice matrix must have positive determinant")
    scale = float(np.cbrt(abs(np.linalg.det(L))))
    e = eps * scale**2
    a, b, c = _size_reduce(L, e)   # else steps 5-7 crawl on long cells

    def params():
        return (
            float(a @ a), float(b @ b), float(c @ c),
            2.0 * float(b @ c), 2.0 * float(a @ c), 2.0 * float(a @ b),
        )

    for _ in range(max_iter):
        A, B, C, xi, eta, zeta = params()
        # 1
        if A > B + e or (abs(A - B) <= e and abs(xi) > abs(eta) + e):
            a, b = b.copy(), a.copy()
            c = -c
            continue
        # 2
        if B > C + e or (abs(B - C) <= e and abs(eta) > abs(zeta) + e):
            b, c = c.copy(), b.copy()
            a = -a
            continue
        signs = [1.0 if v > e else -1.0 if v < -e else 0.0
                 for v in (xi, eta, zeta)]
        lp, ln = signs.count(1.0), signs.count(-1.0)
        if lp == 3 or (lp == 1 and ln == 2):
            # 3: cosine-sign product +1, make all angles acute
            flips = _sign_fix(*signs, target=1.0)
        else:
            # 4: make all angles obtuse or right
            flips = _sign_fix(*signs, target=-1.0)
        if flips is not None:
            fa, fb, fc = flips
            a, b, c = fa * a, fb * b, fc * c
        A, B, C, xi, eta, zeta = params()
        # 5
        if abs(xi) > B + e or (abs(xi - B) <= e and 2 * eta < zeta - e) or (
                abs(xi + B) <= e and zeta < -e):
            c = c - math.copysign(1.0, xi) * b
            continue
        # 6
        if abs(eta) > A + e or (abs(eta - A) <= e and 2 * xi < zeta - e) or (
                abs(eta + A) <= e and zeta < -e):
            c = c - math.copysign(1.0, eta) * a
            continue
        # 7
        if abs(zeta) > A + e or (abs(zeta - A) <= e and 2 * xi < eta - e) or (
                abs(zeta + A) <= e and eta < -e):
            b = b - math.copysign(1.0, zeta) * a
            continue
        # 8
        if xi + eta + zeta + A + B < -e or (
                abs(xi + eta + zeta + A + B) <= e and 2 * (A + eta) + zeta > e):
            c = a + b + c
            continue
        out = np.array([a, b, c])
        if np.linalg.det(out) < 0:
            out = -out
        return out
    raise RuntimeError(f"Niggli reduction did not converge in {max_iter} steps")


def _size_reduce(L: np.ndarray, e: float) -> list:
    """Subtract from a row the nearest multiple of another while it shortens."""
    rows = [row.copy() for row in L]
    while True:   # each subtraction cuts the sum of squared lengths by > e
        for i, j in itertools.permutations(range(3), 2):
            dot, norm2 = float(rows[i] @ rows[j]), float(rows[j] @ rows[j])
            k = round(dot / norm2)
            if k * (2.0 * dot - k * norm2) > e:
                rows[i] = rows[i] - k * rows[j]
                break
        else:
            return rows


def _sign_fix(sx, sy, sz, target):
    """Diagonal +-1 flips (fa, fb, fc) sending angle-cosine signs to target.

    Flipping a negates both eta and zeta, flipping b negates xi and zeta,
    flipping c negates xi and eta. Zero signs are free.
    """
    best = None
    for fa, fb, fc in itertools.product((1.0, -1.0), repeat=3):
        nx = sx * fb * fc
        ny = sy * fa * fc
        nz = sz * fa * fb
        if all(v == target or v == 0.0 for v in (nx, ny, nz)):
            if fa == fb == fc == 1.0:
                return None  # already satisfied, no flip
            cand = (fa, fb, fc)
            if best is None:
                best = cand
    return best


# ---------------------------------------------------------------------------
# Dataset JSONL
# ---------------------------------------------------------------------------


def asu_to_record(asu: CrystalASU, ident: str | None = None) -> dict:
    rec = {
        "sg": int(asu.spacegroup),
        "sites": [
            {"el": int(s.element), "wy": s.wyckoff,
             "f": [float(x) for x in s.frac]}
            for s in asu.sites
        ],
        "lat": [float(x) for x in asu.lattice],
    }
    if ident is not None:
        rec["id"] = ident
    return rec


def parse_record(line: str) -> CrystalASU:
    """Build the asymmetric unit of one dataset JSONL line. This is the one
    place that decides what a bad record is: it raises ValueError for
    anything malformed, whatever the JSON holds."""
    try:
        rec = json.loads(line)
        sites = [
            Site(element=int(s["el"]), wyckoff=str(s["wy"]),
                 frac=np.array(s["f"], dtype=np.float64))
            for s in rec["sites"]
        ]
        return CrystalASU(
            spacegroup=int(rec["sg"]),
            sites=sites,
            lattice=np.array(rec["lat"], dtype=np.float64),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc


def write_dataset_jsonl(path, asus, ids=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, asu in enumerate(asus):
            ident = ids[i] if ids is not None else None
            fh.write(json.dumps(asu_to_record(asu, ident)) + "\n")


def dataset_lines(path):
    """(line number, text) of each non-empty line of a dataset JSONL."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def read_dataset_jsonl(path) -> list[CrystalASU]:
    out = []
    for lineno, line in dataset_lines(path):
        try:
            out.append(parse_record(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad record ({exc})") from exc
    return out
