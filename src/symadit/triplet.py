"""Exact-arithmetic coordinate triplets ("x,y+1/2,-z") and affine forms.

Symmetry operations and Wyckoff site expressions are stored as affine maps
with rational coefficients so that composition, idempotence and closure
checks are exact; `symcat` converts each form to floating point once, on
first use.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "AffineForm",
    "TripletError",
    "component_memo",
    "format_triplet",
    "parse_triplet",
]

_VARS = "xyz"

# Denominators occurring in conventional-setting translations (1/2, 1/3,
# 2/3, 1/4, 3/4, 1/6, 5/6, 1/12-combinations).
_MAX_DENOM = 12


class TripletError(ValueError):
    """Raised for malformed or non-crystallographic triplet strings."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class AffineForm:
    """Affine map f(v) = matrix @ v + translation over exact rationals.

    matrix rows/entries are Fractions; translation components are reduced
    into [0, 1).
    """

    matrix: tuple[tuple[Fraction, Fraction, Fraction], ...]
    translation: tuple[Fraction, Fraction, Fraction]

    @staticmethod
    def identity() -> "AffineForm":
        one, zero = Fraction(1), Fraction(0)
        rows = tuple(
            tuple(one if i == j else zero for j in range(3)) for i in range(3)
        )
        return AffineForm(rows, (zero, zero, zero))

    @staticmethod
    def from_parts(matrix: Iterable[Iterable], translation: Iterable) -> "AffineForm":
        rows = tuple(tuple(Fraction(e) for e in row) for row in matrix)
        trans = tuple(Fraction(t) % 1 for t in translation)
        return AffineForm(rows, trans)

    def apply(self, v) -> tuple:
        """Apply to a 3-vector (Fractions stay exact, floats stay float)."""
        return tuple(
            sum(self.matrix[i][j] * v[j] for j in range(3)) + self.translation[i]
            for i in range(3)
        )

    def compose(self, other: "AffineForm") -> "AffineForm":
        """self after other: (self*other)(v) = self(other(v)), mod 1."""
        rows = tuple(
            tuple(
                sum(self.matrix[i][k] * other.matrix[k][j] for k in range(3))
                for j in range(3)
            )
            for i in range(3)
        )
        trans = tuple(
            (
                sum(self.matrix[i][k] * other.translation[k] for k in range(3))
                + self.translation[i]
            )
            % 1
            for i in range(3)
        )
        return AffineForm(rows, trans)


# One signed term of a component: [+-]? (p(/q)?)? [xyz]?, blanks ignored.
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)(?:/(\d+))?)?\s*([xyz]?)\s*")
_SLOT = {"x": 0, "y": 1, "z": 2, "": 3}  # a term without a variable is slot 3


def _parse_component(text: str, offset: int) -> list[Fraction]:
    """Read a sum of signed terms into its x, y, z coefficients and constant;
    only the first term may omit its sign. `offset` places `text` within
    the triplet."""
    if not text.strip():
        raise TripletError("missing component", offset)
    slots = [Fraction(0)] * 4
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, num, den, var = m.groups()
        if not (num or var) or (pos and not sign):
            raise TripletError(
                f"unexpected text {text[m.start(1):].strip()!r}",
                offset + m.start(1))
        if den is not None and int(den) == 0:
            raise TripletError("zero denominator", offset + m.start(3))
        value = Fraction(int(num), int(den or 1)) if num else Fraction(1)
        slots[_SLOT[var]] += -value if sign == "-" else value
        pos = m.end()
    return slots


def _coefficient_error(row, rotation_limit: int | None) -> str | None:
    """Why a row of a linear part is not crystallographic, or None."""
    for e in row:
        if e.denominator > _MAX_DENOM:
            return f"coefficient {e} has denominator > {_MAX_DENOM}"
        if rotation_limit is not None and abs(e) > rotation_limit:
            return f"non-crystallographic coefficient {e} in rotation part"
    return None


def _translation_error(t: Fraction) -> str | None:
    """Why a reduced translation component is not crystallographic, or None."""
    if not 0 <= t < 1:
        return f"translation component {t} outside [0, 1)"
    if t.denominator > _MAX_DENOM:
        return f"translation {t} has denominator > {_MAX_DENOM}"
    return None


def _component(text: str, offset: int, rotation_limit: int | None) -> tuple:
    """One parsed component: its row of the linear part, its translation
    reduced into [0, 1), and what is wrong with each (None when valid).
    Grammar errors raise at once; validity errors wait so that
    `parse_triplet` reports them in the order of the whole form."""
    slots = _parse_component(text, offset)
    row, t = tuple(slots[:3]), slots[3] % 1
    return row, t, _coefficient_error(row, rotation_limit), _translation_error(t)


# Parsed components by (text, validate_rotation) while a `component_memo`
# block runs; None outside one.
_MEMO: ContextVar[dict | None] = ContextVar("triplet_component_memo",
                                            default=None)


@contextmanager
def component_memo():
    """Within the block, `parse_triplet` parses and validates each distinct
    (component text, validate_rotation) once; the memo ends with the block."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def parse_triplet(text: str, validate_rotation: bool = True) -> AffineForm:
    """Parse "x,y,z"-style coordinate triplets into an AffineForm.

    Each of the three comma-separated components is a sum of signed terms
    `p/q`, `x`, `p/q x` (the grammar `format_triplet` emits, blanks
    allowed). Site expressions with tied coordinates ("x,2x,1/4") need
    validate_rotation=False since their coefficients may exceed 1.
    The form is validated as a whole: the first grammar error in reading
    order, else the first bad coefficient row by row, else the first bad
    translation, raises a TripletError.
    """
    parts = text.split(",")
    if len(parts) != 3:
        raise TripletError(f"expected 3 components, got {len(parts)}")
    memo = _MEMO.get()
    if memo is None:
        memo = {}
    comps, offset = [], 0
    for part in parts:
        key = part, validate_rotation
        if key not in memo:
            memo[key] = _component(part, offset,
                                   1 if validate_rotation else None)
        comps.append(memo[key])
        offset += len(part) + 1
    (r0, t0, e0, f0), (r1, t1, e1, f1), (r2, t2, e2, f2) = comps
    message = e0 or e1 or e2 or f0 or f1 or f2
    if message:
        raise TripletError(message)
    return AffineForm((r0, r1, r2), (t0, t1, t2))


def _format_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_triplet(form: AffineForm) -> str:
    """Canonical string for an AffineForm; fixed point of parse/format."""
    comps = []
    for i in range(3):
        terms = []
        for j, var in enumerate(_VARS):
            c = form.matrix[i][j]
            if c == 0:
                continue
            if c == 1:
                terms.append(f"+{var}")
            elif c == -1:
                terms.append(f"-{var}")
            else:
                sign = "+" if c > 0 else "-"
                terms.append(f"{sign}{_format_frac(abs(c))}{var}")
        t = form.translation[i]
        if t != 0:
            terms.append(f"+{_format_frac(t)}")
        if not terms:
            comps.append("0")
        else:
            joined = "".join(terms)
            comps.append(joined[1:] if joined.startswith("+") else joined)
    return ",".join(comps)
