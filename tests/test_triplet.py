import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symadit import symcat
from symadit.triplet import (
    AffineForm,
    TripletError,
    component_memo,
    format_triplet,
    parse_triplet,
)

F = Fraction


def test_identity():
    form = parse_triplet("x, y, z")
    assert form == AffineForm.identity()


def test_threefold_rotation():
    # matrix rows (0,-1,0),(1,-1,0),(0,0,1), no translation
    form = parse_triplet("-y, x-y, z")
    assert form.matrix == (
        (F(0), F(-1), F(0)),
        (F(1), F(-1), F(0)),
        (F(0), F(0), F(1)),
    )
    assert form.translation == (F(0), F(0), F(0))


def test_constant_expression():
    form = parse_triplet("1/2, 1/2, 1/2")
    assert all(all(e == 0 for e in row) for row in form.matrix)
    assert form.translation == (F(1, 2), F(1, 2), F(1, 2))


def test_translation_reduced_mod_one():
    form = parse_triplet("x+3/2, y-1/4, z")
    assert form.translation == (F(1, 2), F(3, 4), F(0))


# (text, validate_rotation): none of these is in the grammar of signed
# terms `p/q`, `x`, `p/q x`, or, for "2x", an operation at all.
REJECTED = [
    ("-(x), y, z", False),
    ("x, (y+1/2), z", False),
    ("0.5, y, z", False),
    ("--x, y, z", False),
    ("x+, y, z", False),
    ("x1, y, z", False),
    ("x, 1/0, z", False),
    ("X, y, z", False),
    ("2x, y, z", True),
]


def test_rejected_outside_the_grammar():
    for text, validate in REJECTED:
        with pytest.raises(TripletError) as err:
            parse_triplet(text, validate_rotation=validate)
        if validate:
            continue
        assert err.value.position is not None, text
        # a grammar error points inside the offending component
        assert 0 <= err.value.position < len(text), text


# (text, validate_rotation, message, position): the first error of the
# whole form. Grammar errors come in reading order, then the rows of the
# linear part, then the translations.
FIRST_ERRORS = [
    ("x+1/13,y,2z", True,
     "non-crystallographic coefficient 2 in rotation part", None),
    ("x+1/13,y,2z", False, "translation 1/13 has denominator > 12", None),
    ("1/13x,y,z+1/13", False, "coefficient 1/13 has denominator > 12", None),
    ("2x,y,q", True, "unexpected text 'q' (at position 5)", 5),
    ("x,2x,y+", False, "unexpected text '+' (at position 6)", 6),
    (" x, 2y ,1/0", False, "zero denominator (at position 10)", 10),
]


def test_first_error_is_the_same_with_the_component_memo():
    """Inside a memo that already holds the components of every case, in
    both kinds, each case raises the same first error as a fresh parse."""
    def first_error(text, validate):
        with pytest.raises(TripletError) as err:
            parse_triplet(text, validate_rotation=validate)
        return str(err.value), err.value.position

    for text, validate, message, position in FIRST_ERRORS:
        assert first_error(text, validate) == (message, position), text
    with component_memo():
        for text, _, _, _ in FIRST_ERRORS:
            for validate in (False, True):
                try:
                    parse_triplet(text, validate_rotation=validate)
                except TripletError:
                    pass
        for text, validate, message, position in FIRST_ERRORS:
            assert first_error(text, validate) == (message, position), text


def test_nested_parentheses_rejected():
    with pytest.raises(TripletError):
        parse_triplet("-((x)), y, z")


def test_unknown_token_reports_position():
    with pytest.raises(TripletError) as err:
        parse_triplet("x, y, q")
    assert err.value.position is not None


def test_missing_component():
    with pytest.raises(TripletError):
        parse_triplet("x, y")
    with pytest.raises(TripletError):
        parse_triplet("x, , z")


def test_non_crystallographic_coefficient_rejected():
    with pytest.raises(TripletError):
        parse_triplet("2x, y, z")
    # site expressions legitimately use tied coefficients
    form = parse_triplet("2x, y, z", validate_rotation=False)
    assert form.matrix[0][0] == 2


def test_compose_matches_sequential_application():
    a = parse_triplet("-y, x, z+1/2")
    b = parse_triplet("x+1/2, -y, -z")
    combined = a.compose(b)
    point = (F(1, 3), F(1, 7), F(1, 11))
    direct = tuple(v % 1 for v in a.apply(b.apply(point)))
    assert combined.apply(point) == direct


def test_apply_floats():
    a = parse_triplet("-y, x, z+1/2")
    out = a.apply((0.25, 0.5, 0.0))
    assert out == (-0.5, 0.25, 0.5)


def test_format_canonical():
    assert format_triplet(parse_triplet("x, y, z")) == "x,y,z"
    assert format_triplet(parse_triplet("-y, x-y, z")) == "-y,x-y,z"
    assert format_triplet(parse_triplet("1/2, 1/2, 1/2")) == "1/2,1/2,1/2"
    assert format_triplet(parse_triplet("y+x, z, x")) == "x+y,z,x"


@given(st.sampled_from([
    "x,y,z", "-x,-y,-z", "-y,x-y,z", "x-y,x,z+1/6", "y+1/4,-x+3/4,-z+1/4",
    "x+1/2,-y+1/2,-z", "-x+2/3,y+1/3,z+1/3", "x,0,1/2", "x,2x,1/4",
]))
def test_roundtrip_fixed_point(text):
    form = parse_triplet(text, validate_rotation=False)
    once = format_triplet(form)
    again = format_triplet(parse_triplet(once, validate_rotation=False))
    assert once == again


@given(
    st.lists(st.integers(-1, 1), min_size=9, max_size=9),
    st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9]), min_size=3, max_size=3),
)
def test_roundtrip_random_forms(entries, twelfths):
    matrix = [entries[0:3], entries[3:6], entries[6:9]]
    trans = [F(t, 12) for t in twelfths]
    form = AffineForm.from_parts(matrix, trans)
    text = format_triplet(form)
    assert parse_triplet(text) == form


CATALOG = Path(symcat.__file__).parent / "data" / "sg_catalog.txt"
MAKE_CATALOG = Path(__file__).resolve().parents[1] / "tools" / "make_catalog.py"


def _catalog_triplets() -> set[tuple[str, bool]]:
    """Every distinct (triplet, is_operation) of the vendored catalog."""
    out = set()
    for line in CATALOG.read_text().splitlines()[1:]:
        tag, _, rest = line.partition(" ")
        if tag == "OP":
            out.add((rest, True))
        elif tag == "WY":
            head, _, gens = rest.partition("|")
            out.add((head.split()[2], False))
            out.update((g, True) for g in gens.strip().split(";"))
    return out


def _generator_triplets() -> list[str]:
    """The generator strings of the catalog tool's GROUPS table, read
    without running the tool."""
    tree = ast.parse(MAKE_CATALOG.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "GROUPS" for t in node.targets):
            return [g for row in ast.literal_eval(node.value) for g in row[3]]
    raise AssertionError("no GROUPS table in the catalog tool")


def test_catalog_triplets_are_fixed_points():
    triplets = _catalog_triplets()
    assert len(triplets) == 913
    for text, is_op in triplets:
        form = parse_triplet(text, validate_rotation=is_op)
        assert format_triplet(form) == text


def test_catalog_tool_generators_are_fixed_points():
    generators = _generator_triplets()
    assert len(generators) == 414
    for text in generators:
        assert format_triplet(parse_triplet(text)) == text
