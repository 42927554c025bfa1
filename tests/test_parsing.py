"""Text-format round trips and rejection cases for the parsing layer."""

from fractions import Fraction

import pytest

from ffdecomp.errors import ValidationError
from ffdecomp.gf_core import build_field
from ffdecomp.parsing import (
    MAX_NESTING,
    parse_bipoly,
    parse_element,
    parse_field,
    parse_fraction,
    parse_mpoly,
    parse_mratfun,
    parse_point,
    parse_poly,
    parse_ratfun,
    point_str,
)
from ffdecomp.upoly import INFINITY

F7 = build_field(7)
F9 = build_field(3, 2)


def test_parse_field_prime():
    spec = parse_field("7")
    assert (spec.p, spec.k, spec.order) == (7, 1, 7)


def test_parse_field_extension():
    spec = parse_field("2^4")
    assert (spec.p, spec.k, spec.order) == (2, 4, 16)
    assert spec.descriptor == "2^4"


def test_parse_field_explicit_modulus():
    spec = parse_field("3^2/2,2,1")
    assert spec.modulus == (2, 2, 1)
    other = parse_field("3^2")
    assert other.modulus != spec.modulus


def test_parse_field_rejects_junk():
    for text in ("", "abc", "4", "2^", "2^0", "7^2/1,2", "7/1"):
        with pytest.raises(ValidationError):
            parse_field(text)


def test_parse_element_int_and_bracket():
    assert parse_element(F7, "12") == F7.element(5)
    assert parse_element(F9, "[1,2]") == F9.element([1, 2])
    assert parse_element(F9, "[1]") == F9.element([1, 0])


def test_parse_element_too_many_coords():
    with pytest.raises(ValidationError):
        parse_element(F9, "[1,2,0]")


def test_poly_round_trip():
    for text in ("X^2+1", "3*X^5+2*X+6", "X", "0", "5"):
        p = parse_poly(F7, text)
        assert str(p) == text
        assert parse_poly(F7, str(p)) == p


def test_poly_parens_and_minus():
    assert parse_poly(F7, "(X+1)^2") == parse_poly(F7, "X^2+2*X+1")
    assert parse_poly(F7, "-X+1") == parse_poly(F7, "6*X+1")
    assert parse_poly(F7, "X^2-3") == parse_poly(F7, "X^2+4")
    assert parse_poly(F7, "2*(X+1)") == parse_poly(F7, "2*X+2")


def test_poly_bracket_coefficients():
    p = parse_poly(F9, "[1,1]*X^2+[0,1]")
    assert p.coeffs[2] == F9.element([1, 1])
    assert p.coeffs[0] == F9.element([0, 1])


def test_poly_rejects_trailing_input():
    for text in ("X^2+", "X 3", "(X+1", "X^2+1)", "X^^2", "Y"):
        with pytest.raises(ValidationError):
            parse_poly(F7, text)


def test_poly_nesting_at_the_cap_parses():
    assert parse_poly(F7, "(" * MAX_NESTING + "X+1" + ")" * MAX_NESTING) == parse_poly(F7, "X+1")
    assert parse_poly(F7, "-" * MAX_NESTING + "X") == parse_poly(F7, "X")
    assert parse_poly(F7, "-(" * (MAX_NESTING // 2) + "X" + ")" * (MAX_NESTING // 2)) == parse_poly(F7, "X")


@pytest.mark.parametrize(
    "text",
    [
        "(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1),
        "-" * (MAX_NESTING + 1) + "X",
        "(" * 3000 + "X" + ")" * 3000,
        "-" * 3000 + "X",
        "-(" * 1500 + "X" + ")" * 1500,
    ],
    ids=["parentheses-cap", "minus-cap", "parentheses-3000", "minus-3000", "mixed-3000"],
)
def test_poly_rejects_deep_nesting(text):
    with pytest.raises(ValidationError, match="nested deeper"):
        parse_poly(F7, text)
    with pytest.raises(ValidationError, match="nested deeper"):
        parse_ratfun(F7, text + " / X")


def test_ratfun_split_and_reduce():
    f = parse_ratfun(F7, "X^2-1 / X+1")
    assert str(f) == "X+6"
    g = parse_ratfun(F7, "(X^2+1) / (X)")
    assert g.num.degree == 2 and g.den.degree == 1


def test_ratfun_zero_denominator():
    with pytest.raises(ValidationError):
        parse_ratfun(F7, "X / 0")
    with pytest.raises(ValidationError):
        parse_ratfun(F7, "X / X / X")


def test_ratfun_slash_inside_brackets_not_split():
    # the top-level split must ignore separators nested in () and []
    f = parse_ratfun(F7, "(X^2+1) / (X^2-1)")
    assert f.den == parse_poly(F7, "X^2+6")


def test_bipoly_term_list():
    F = parse_bipoly(F7, "1:(2,0); 6:(0,1)")
    assert str(F) == "X^2+6*Y"
    assert parse_bipoly(F7, "3:(1,1); 4:(1,1)") == parse_bipoly(F7, "0:(0,0)")


def test_bipoly_rejects_bad_terms():
    for text in ("", "1:(2,)", "1:(2,0,0)", "1:2,0", "x:(1,1)"):
        with pytest.raises(ValidationError):
            parse_bipoly(F7, text)


def test_mpoly_width_inference_and_override():
    f = parse_mpoly(F7, "1:(2,0,0); 1:(0,1,1)")
    assert f.n == 3
    g = parse_mpoly(F7, "5:(1)", n=1)
    assert g.n == 1
    with pytest.raises(ValidationError):
        parse_mpoly(F7, "1:(1,0); 1:(1,0,0)")
    with pytest.raises(ValidationError):
        parse_mpoly(F7, "1:(1,0)", n=3)


def test_mratfun_parse():
    f = parse_mratfun(F7, "1:(1,1) / 1:(1,0); 1:(0,0)")
    assert f.n == 2
    assert str(f.num) == "X1*X2"
    assert str(f.den) == "X1+1"
    # common factors cancel on construction
    g = parse_mratfun(F7, "1:(1,1) / 1:(0,1)")
    assert str(g.num) == "X1" and str(g.den) == "1"
    h = parse_mratfun(F7, "2:(1,0); 1:(0,0)")
    assert h.den.total_degree() == 0


def test_point_parsing():
    assert parse_point(F7, "inf") is INFINITY
    assert parse_point(F7, "oo") is INFINITY
    assert parse_point(F7, "Infinity") is INFINITY
    assert parse_point(F7, "3") == F7.element(3)
    assert point_str(INFINITY) == "inf"
    assert point_str(F7.element(3)) == "3"


def test_parse_fraction():
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert parse_fraction("1") == Fraction(1)
    with pytest.raises(ValidationError):
        parse_fraction("half")
    with pytest.raises(ValidationError):
        parse_fraction("1/0")
