"""Text-format round trips and rejection cases for the parsing layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ffdecomp import bounds, parsing
from ffdecomp.bipoly import curve_str
from ffdecomp.errors import SizeLimitError, ValidationError
from ffdecomp.gf_core import FieldSpec, build_field
from ffdecomp.parsing import (
    MAX_DEGREE,
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
from ffdecomp.upoly import INFINITY, Poly, RatFun

from oracles import (
    charwise_parse_bipoly,
    charwise_parse_mpoly,
    charwise_parse_mratfun,
    charwise_parse_poly,
    charwise_parse_ratfun,
)

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
    # superscript digits pass str.isdigit, but int() refuses them
    for text in ("X^2+", "X 3", "(X+1", "X^2+1)", "X^^2", "Y", "X^\u00b2", "\u00b3*X"):
        with pytest.raises(ValidationError):
            parse_poly(F7, text)


def test_poly_nesting_at_the_cap_parses():
    assert parse_poly(F7, "(" * MAX_NESTING + "X+1" + ")" * MAX_NESTING) == parse_poly(F7, "X+1")
    assert parse_poly(F7, "-" * MAX_NESTING + "X") == parse_poly(F7, "X")
    assert parse_poly(F7, "-(" * (MAX_NESTING // 2) + "X" + ")" * (MAX_NESTING // 2)) == parse_poly(F7, "X")


def test_degree_at_the_cap_parses():
    assert parse_poly(F7, f"X^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_poly(F7, f"(X^2)^{MAX_DEGREE // 2}").degree == MAX_DEGREE
    assert parse_poly(F7, f"X^{MAX_DEGREE - 1}*X").degree == MAX_DEGREE
    assert parse_ratfun(F7, f"1 / X^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_bipoly(F7, f"1:({MAX_DEGREE},0); 1:(0,{MAX_DEGREE})").total_degree() == MAX_DEGREE
    assert parse_mpoly(F7, f"1:(0,0,{MAX_DEGREE})").total_degree() == MAX_DEGREE


@pytest.mark.parametrize(
    "text",
    [
        f"X^{MAX_DEGREE + 1}",
        f"3^{MAX_DEGREE + 1}",
        f"(X^2)^{MAX_DEGREE // 2 + 1}",
        f"X^{MAX_DEGREE}*X",
        "((X+1)^1000)^1000",
        "X^" + "9" * 5000,
    ],
    ids=["exponent", "constant-exponent", "power-degree", "product-degree", "nested-power", "digits"],
)
def test_degree_above_the_cap_refused(text):
    with pytest.raises(SizeLimitError):
        parse_poly(F7, text)
    with pytest.raises(SizeLimitError):
        parse_ratfun(F7, "X / " + text)


def test_term_list_exponent_above_the_cap_refused():
    for text in (f"1:({MAX_DEGREE + 1},0)", "1:(100000000,0); 1:(0,1)", f"1:(0,{MAX_DEGREE + 1})"):
        with pytest.raises(SizeLimitError):
            parse_bipoly(F7, text)
    with pytest.raises(SizeLimitError):
        parse_mratfun(F7, f"1:(1,0,0) / 1:(0,0,{MAX_DEGREE + 1})")


def test_term_list_numerals_with_too_many_digits_refused():
    digits = "9" * 5000
    for text in (f"1:({digits},0)", f"1:(0,{digits})", f"{digits}:(1,0)", f"[1,{digits}]:(1,0)"):
        with pytest.raises(SizeLimitError) as exc:
            parse_bipoly(F9, text)
        assert len(str(exc.value)) < 120
    with pytest.raises(ValidationError, match="malformed exponent") as exc:
        parse_bipoly(F7, "1:(x" + "9" * 5000 + ",0)")
    assert len(str(exc.value)) < 120


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
    assert F.n == 2
    assert curve_str(F) == "X^2+6*Y"
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
    with pytest.raises(ValidationError):  # an exponent int() cannot read
        parse_fraction("1e-" + "0" * 5000 + "1")


@pytest.mark.parametrize(
    "text",
    ["1.5e-3", " -47E+2 ", "1_0e1_0", ".5e1", "1.e2", "1e4299", "7e-4299", "1e-0",
     "e5", "1e 5", "1/2e3", "1e5_", "abce99999", "1.5e-3x"],
)
def test_parse_fraction_reads_decimals_as_fraction_does(text):
    # reading the exponent first changes no value and no refusal below the
    # digit limit of int()
    try:
        want = Fraction(text.strip())
    except ValueError:
        with pytest.raises(ValidationError, match="malformed rational"):
            parse_fraction(text)
    else:
        assert parse_fraction(text) == want


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "3.25E+9999999", "0e5000"])
def test_parse_fraction_refuses_an_exponent_past_the_digit_limit(text):
    with pytest.raises(SizeLimitError, match="epsilon has too many digits"):
        parse_fraction(text)


# --------------------------------------------------------------------------
# the parser against the one that reads a character at a time and adds
# FieldElements (oracles.charwise_parse_*): the same polynomial, or the same
# exception with the same message

DIFF_FIELDS = [F7, F9, build_field(2, 5), build_field(101)]

# what a mutation writes: the syntax, and a tab, a superscript two (not
# decimal), an Arabic-Indic three (decimal), a stray variable and a no-break
# space (a space to str.isspace)
MUTATION_ALPHABET = "Xx0123456789+-*^()[],/\t\u00b2\u0663Y\u00a0"
DIGITS_5000 = "9" * 5000


def mostly(valid, rare):
    """valid eight times in nine, else rare."""
    return st.one_of(*[valid] * 8, rare)


@st.composite
def mutated(draw, texts, alphabet):
    """A text from texts with a few characters inserted, deleted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 4]))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + (c if op == "replace" else "") + text[i + 1 :]
    return text


def texts_to_parse(texts, alphabet):
    """Mostly mutated texts from texts, now and then any short text over alphabet."""
    return mostly(mutated(texts, alphabet), st.text(alphabet, max_size=30))


def spaced(parts):
    """The parts joined, with a space, tab or no-break space before some."""
    gap = st.sampled_from(["", "", " ", "\t", "\u00a0"])
    return st.lists(gap, min_size=len(parts), max_size=len(parts)).map(
        lambda gaps: "".join(g + p for g, p in zip(gaps, parts))
    )


_COORDINATE_LISTS = st.lists(st.integers(0, 200).map(str), min_size=1, max_size=3).map(
    lambda cs: "[" + ",".join(cs) + "]"
)
_ATOMS = mostly(
    st.sampled_from(["X", "x", "0", "1", "\u0663"]) | st.integers(0, 10**6).map(str), _COORDINATE_LISTS
)
_EXPONENT_TEXTS = mostly(st.sampled_from(["0", "1", "2", "3", "7"]), st.sampled_from(["1025", DIGITS_5000]))


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).flatmap(spaced),
        inner.map("({})".format),
        inner.map("-{}".format),
        st.tuples(inner, st.just("^"), _EXPONENT_TEXTS).flatmap(spaced),
    )


EXPRESSIONS = mostly(
    st.recursive(_ATOMS, _compound, max_leaves=10),
    st.sampled_from(
        [
            "(" * (MAX_NESTING + 1) + "X" + ")" * (MAX_NESTING + 1),
            "(" * MAX_NESTING + "X" + ")" * MAX_NESTING,
            "-" * (MAX_NESTING + 1) + "X",
            "- -(" * 60 + "X" + ")" * 60,
            f"X^{MAX_DEGREE}*X",
            "X^" + DIGITS_5000,
            DIGITS_5000 + "*X",
            "[1,2,3,4,5,6]",
        ]
    ),
)
RATIONAL_TEXTS = EXPRESSIONS | st.tuples(EXPRESSIONS, st.just("/"), EXPRESSIONS).flatmap(spaced)


def outcome(parse, spec, text):
    """What parse makes of text: its coefficient indices, in order, or the
    type and message of the exception it raises."""
    try:
        out = parse(spec, text)
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)
    parts = (out.num, out.den) if hasattr(out, "den") else (out,)
    return [p.idx if isinstance(p, Poly) else (p.n, list(p.idx.items())) for p in parts]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(DIFF_FIELDS), texts_to_parse(RATIONAL_TEXTS, MUTATION_ALPHABET + " "))
def test_expression_parser_matches_the_charwise_parser(spec, text):
    assert outcome(parse_poly, spec, text) == outcome(charwise_parse_poly, spec, text)
    assert outcome(parse_ratfun, spec, text) == outcome(charwise_parse_ratfun, spec, text)


# Texts as the tool prints them (upoly.terms_str), which parse_poly and
# parse_ratfun read by one scan, _read_printed, leaving any other text, and
# any it declines, to the recursive-descent parser: the same outcome either way

PRINTED_FIELDS = DIFF_FIELDS + [build_field(2, 9)]
_PRINTED_DEGREES = mostly(st.integers(0, 12), st.sampled_from([MAX_DEGREE - 1, MAX_DEGREE, MAX_DEGREE + 1]))


def _polys(spec, degrees):
    """Polys of up to six terms at exponents drawn from degrees, each with
    any coefficient index, zero included."""
    terms = st.dictionaries(degrees, st.integers(0, spec.order - 1), max_size=6)
    return terms.map(lambda d: Poly(spec, [d.get(e, 0) for e in range(max(d, default=-1) + 1)]))


@st.composite
def _printed(draw, spec):
    """str() of a Poly or a RatFun over spec, with x for X now and then."""
    num = draw(_polys(spec, _PRINTED_DEGREES))
    den = draw(_polys(spec, st.integers(0, 6)))
    text = str(RatFun.make(num, den) if draw(st.booleans()) and den.idx else num)
    return text.replace("X", "x") if draw(st.integers(0, 3)) == 0 else text


PRINTED_TEXTS = st.sampled_from(PRINTED_FIELDS).flatmap(
    lambda spec: st.tuples(st.just(spec), mutated(_printed(spec), MUTATION_ALPHABET + " "))
)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(PRINTED_TEXTS)
def test_printed_texts_parse_as_the_charwise_parser_reads_them(case):
    spec, text = case
    assert outcome(parse_poly, spec, text) == outcome(charwise_parse_poly, spec, text)
    assert outcome(parse_ratfun, spec, text) == outcome(charwise_parse_ratfun, spec, text)


class _Tokenized(Exception):
    pass


def _refuse_tokens(text):
    raise _Tokenized(text)


# whether the scan reads the text: it declines what the parser refuses,
# a zero term's exponent and coordinates included
@pytest.mark.parametrize(
    "spec,text,scanned",
    [
        (F7, f"X^{MAX_DEGREE}", True),
        (F7, f"X^{MAX_DEGREE + 1}", False),
        (F7, f"0*X^{MAX_DEGREE + 1}", False),
        (F7, "X^0", True),
        (F7, "0", True),
        (F7, "3*X^2+3*X^2", True),
        (F7, "0*X^3+X", True),
        (F7, "1234567890123456789*X^2+1", True),
        (F7, DIGITS_5000 + "*X", False),
        (F7, "X^" + DIGITS_5000, False),
        (F9, "[1,2,3]", False),
        (F9, "[0,0,0]*X", False),
        (F9, "[1,2]*X^2+[2]", True),
        (F7, "\u0663*X^\u0662+\u0661", True),
        (F7, " X+1\t", True),
        (F7, "X+1 / 0", True),
    ],
)
def test_printed_form_edge_cases(monkeypatch, spec, text, scanned):
    assert outcome(parse_poly, spec, text) == outcome(charwise_parse_poly, spec, text)
    assert outcome(parse_ratfun, spec, text) == outcome(charwise_parse_ratfun, spec, text)
    monkeypatch.setattr(parsing, "_Tokens", _refuse_tokens)
    assert (outcome(parse_ratfun, spec, text)[0] is not _Tokenized) == scanned


def _random_poly(rng, spec):
    top = rng.choice([0, 1, 2, 5, 12, MAX_DEGREE])
    exponents = {top, *rng.sample(range(top + 1), min(top + 1, 4))}
    return Poly(spec, [rng.randrange(1, spec.order) if e in exponents else 0 for e in range(top + 1)])


@pytest.mark.parametrize("spec", PRINTED_FIELDS, ids=lambda spec: spec.descriptor)
def test_printed_texts_never_reach_the_tokenizer(monkeypatch, spec):
    # the form every workload sends must stay on the scan
    monkeypatch.setattr(parsing, "_Tokens", _refuse_tokens)
    rng = random.Random(spec.order)
    for _ in range(40):
        num, den = _random_poly(rng, spec), _random_poly(rng, spec)
        f = RatFun.make(num, den)
        assert parse_poly(spec, str(num)) == num
        assert parse_ratfun(spec, str(num).replace("X", "x")) == RatFun.from_poly(num)
        assert parse_ratfun(spec, str(f)) == f


@pytest.mark.parametrize("text", ["(X+1)", "X-1", "-X", "X +1", "2*X*X", "X*3", "2*3", "3X", "X^2^2", "+X"])
def test_other_texts_reach_the_tokenizer(monkeypatch, text):
    monkeypatch.setattr(parsing, "_Tokens", _refuse_tokens)
    for parse, arg in ((parse_poly, text), (parse_ratfun, text), (parse_ratfun, f"X+1 / {text}")):
        with pytest.raises(_Tokenized):
            parse(F7, arg)


_COEFFS = mostly(
    st.integers(-10**6, 10**6).map(str) | st.sampled_from(["[1,2]", "[ -1 , 1_0 ]", "+3", "1_0", " 7 "]),
    st.sampled_from(["", "x", DIGITS_5000, "[1,2,3]", "[]", "[" + DIGITS_5000 + "]"]),
)
_EXPONENTS = mostly(
    st.integers(0, 4).map(str) | st.sampled_from(["+2", "1_0", " 3", str(MAX_DEGREE)]),
    st.sampled_from(["-1", "", "1025", DIGITS_5000]),
)


def _terms(widths):
    exponents = widths.flatmap(lambda w: st.lists(_EXPONENTS, min_size=w, max_size=w))
    return st.tuples(_COEFFS, exponents).map(lambda t: f"{t[0]}:({','.join(t[1])})")


def _term_list(width):
    """Terms of one width, and now and then one of another."""
    terms = mostly(_terms(st.just(width)), _terms(st.integers(1, 3)))
    return st.lists(terms, min_size=1, max_size=5).map("; ".join)


def _repeated_keys(width):
    keys = st.lists(st.tuples(_COEFFS, st.integers(0, 2)), min_size=1, max_size=6)
    return keys.map(lambda ks: ";".join(f"{c}:({','.join([str(e)] * width)})" for c, e in ks))


TERM_LISTS = mostly(
    st.integers(1, 3).flatmap(_term_list) | st.integers(1, 3).flatmap(_repeated_keys),
    st.sampled_from(
        ["+2:(-1)", "1:(1,0); 6:(1,0); 1:(0,1)", "3:(1,1); 4:(1,1)", "1:(1,0); 1:(1,0,0)", "0:(0,0)", "1:2,0", ""]
    ),
)
MRAT_TEXTS = TERM_LISTS | st.tuples(TERM_LISTS, st.just(" / "), TERM_LISTS).map("".join)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(DIFF_FIELDS), texts_to_parse(MRAT_TEXTS, MUTATION_ALPHABET + ":; "))
def test_term_list_parser_matches_the_charwise_parser(spec, text):
    assert outcome(parse_mpoly, spec, text) == outcome(charwise_parse_mpoly, spec, text)
    assert outcome(parse_bipoly, spec, text) == outcome(charwise_parse_bipoly, spec, text)
    assert outcome(parse_mratfun, spec, text) == outcome(charwise_parse_mratfun, spec, text)


def test_parsers_and_samplers_build_no_field_element(monkeypatch):
    # coefficients become indices as they are read, and the curve samplers
    # draw indices: neither edge goes through a FieldElement
    def refuse(self, value):
        raise AssertionError("a FieldElement was built")

    monkeypatch.setattr(FieldSpec, "element", refuse)
    monkeypatch.setattr(FieldSpec, "from_index", refuse)
    f = parse_ratfun(build_field(2, 5), "([1,0,1]*X^3 + [0,1]*X + 1) / ([1,1,0,0,1]*X^2 + X)")
    assert f.degree == 3
    for spec in (F7, F9):
        assert parse_mratfun(spec, "1:(2,0,1); [2]:(0,1,0) / 1:(1,1,0); 2:(0,0,0)").n == 3
        assert parse_bipoly(spec, "1:(2,0); 2:(0,1); 1:(1,1); 1:(2,0)").total_degree() == 2
    rng = random.Random(9)
    for kind, sampler in bounds._SAMPLERS.items():
        F = sampler(rng, F9, 4)
        assert F.total_degree() >= 1, kind
