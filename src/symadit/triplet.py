"""Exact-arithmetic coordinate triplets ("x,y+1/2,-z") and affine forms.

Symmetry operations and Wyckoff site expressions are stored as affine maps
with rational coefficients so that composition, idempotence and closure
checks are exact; `symcat` converts each form to floating point once, on
first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = ["AffineForm", "TripletError", "parse_triplet", "format_triplet"]

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

    def is_identity(self) -> bool:
        return self == AffineForm.identity()

    def rotation_rank(self) -> int:
        """Rank of the linear part (exact Gaussian elimination)."""
        rows = [list(r) for r in self.matrix]
        rank = 0
        for col in range(3):
            pivot = next(
                (r for r in range(rank, 3) if rows[r][col] != 0), None
            )
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = 1 / rows[rank][col]
            rows[rank] = [e * inv for e in rows[rank]]
            for r in range(3):
                if r != rank and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    def validate(self, rotation_limit: int | None = 1) -> None:
        """Check crystallographic plausibility; raises TripletError."""
        for row in self.matrix:
            for e in row:
                if e.denominator > _MAX_DENOM:
                    raise TripletError(f"coefficient {e} has denominator > {_MAX_DENOM}")
                if rotation_limit is not None and abs(e) > rotation_limit:
                    raise TripletError(
                        f"non-crystallographic coefficient {e} in rotation part"
                    )
        for t in self.translation:
            if not 0 <= t < 1:
                raise TripletError(f"translation component {t} outside [0, 1)")
            if t.denominator > _MAX_DENOM:
                raise TripletError(f"translation {t} has denominator > {_MAX_DENOM}")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-,()":
            tokens.append((c, c, i))
            i += 1
        elif c in "xyzXYZ":
            tokens.append(("var", c.lower(), i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in "./"):
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        else:
            raise TripletError(f"unknown token {c!r}", i)
    return tokens


def _parse_number(literal: str, pos: int) -> Fraction:
    try:
        if "/" in literal:
            num, den = literal.split("/")
            return Fraction(int(num), int(den))
        if "." in literal:
            frac = Fraction(literal).limit_denominator(_MAX_DENOM)
            if abs(frac - Fraction(literal)) > Fraction(1, 10**6):
                raise TripletError(f"decimal {literal} is not a small rational", pos)
            return frac
        return Fraction(int(literal))
    except (ValueError, ZeroDivisionError) as exc:
        raise TripletError(f"bad numeric literal {literal!r}", pos) from exc


def _parse_component(tokens: list, pos_offset: int, depth: int = 0):
    """Parse a sum of signed terms into (coeffs[3], constant)."""
    coeffs = [Fraction(0)] * 3
    const = Fraction(0)
    sign = Fraction(1)
    expect_term = True
    i = 0
    while i < len(tokens):
        kind, value, pos = tokens[i]
        if kind == "+":
            sign = sign if expect_term else Fraction(1)
            expect_term = True
            i += 1
        elif kind == "-":
            sign = -sign if expect_term else Fraction(-1)
            expect_term = True
            i += 1
        elif kind == "(":
            if depth >= 1:
                raise TripletError("nested parentheses beyond one level", pos)
            close = _matching_paren(tokens, i)
            sub_c, sub_k = _parse_component(tokens[i + 1 : close], pos_offset, depth + 1)
            coeffs = [a + sign * b for a, b in zip(coeffs, sub_c)]
            const += sign * sub_k
            sign = Fraction(1)
            expect_term = False
            i = close + 1
        elif kind == "var":
            coeffs[_VARS.index(value)] += sign
            sign = Fraction(1)
            expect_term = False
            i = i + 1
        elif kind == "num":
            factor = _parse_number(value, pos)
            # "2x" or "1/2 x" style products
            if i + 1 < len(tokens) and tokens[i + 1][0] == "var":
                coeffs[_VARS.index(tokens[i + 1][1])] += sign * factor
                i += 2
            else:
                const += sign * factor
                i += 1
            sign = Fraction(1)
            expect_term = False
        else:
            raise TripletError(f"unexpected token {value!r}", pos)
    if expect_term and (coeffs != [0, 0, 0] or const != 0):
        raise TripletError("dangling sign", pos_offset)
    return coeffs, const


def _matching_paren(tokens: list, start: int) -> int:
    depth = 0
    for i in range(start, len(tokens)):
        if tokens[i][0] == "(":
            depth += 1
        elif tokens[i][0] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise TripletError("unbalanced parentheses", tokens[start][2])


def parse_triplet(text: str, validate_rotation: bool = True) -> AffineForm:
    """Parse "x,y,z"-style coordinate triplets into an AffineForm.

    Components are comma-separated expressions over x, y, z with rational
    constants, unary minus and binary +/-. Site expressions with tied
    coordinates ("x,2x,1/4") need validate_rotation=False since their
    coefficients may exceed 1.
    """
    tokens = _tokenize(text)
    parts: list[list] = [[]]
    depth = 0
    for tok in tokens:
        if tok[0] == "(":
            depth += 1
        elif tok[0] == ")":
            depth -= 1
            if depth < 0:
                raise TripletError("unbalanced parentheses", tok[2])
        if tok[0] == "," and depth == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    if depth != 0:
        raise TripletError("unbalanced parentheses", len(text))
    if len(parts) != 3:
        raise TripletError(f"expected 3 components, got {len(parts)}")
    rows = []
    trans = []
    for part in parts:
        if not part:
            raise TripletError("missing component")
        coeffs, const = _parse_component(part, part[0][2])
        rows.append(tuple(coeffs))
        trans.append(const % 1)
    form = AffineForm(tuple(rows), tuple(trans))
    form.validate(rotation_limit=1 if validate_rotation else None)
    return form


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
