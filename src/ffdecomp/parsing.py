"""Text formats used at the tool boundary.

Field descriptors look like "7", "2^11", or "2^11/1,1,0,0,0,0,0,0,0,0,0,1"
with the modulus coefficients constant-first.  Univariate polynomials are
ordinary expressions in X with integer coefficients (prime fields) or
bracketed coordinate lists (extensions), e.g. "(X^2+1)^2" or
"[1,1]*X^2+[0,1]".  Rational functions split numerator and denominator at a
top-level slash.  Bivariate and multivariate polynomials use a term list
"c:(i,j); c:(i,j); ..." keyed by exponent vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bipoly import BiPoly
from .errors import ValidationError
from .gf_core import FieldElement, FieldSpec, build_field
from .mvar import MPoly, MRatFun
from .upoly import INFINITY, Poly, PointOrInf, RatFun


def parse_field(text: str) -> FieldSpec:
    """Build a field from "p", "p^k", or "p^k/c0,c1,...,ck"."""
    text = text.strip()
    head, _, mod = text.partition("/")
    base, caret, exp = head.partition("^")
    try:
        p = int(base)
        k = int(exp) if caret else 1
    except ValueError:
        raise ValidationError(f"malformed field descriptor {text!r}") from None
    modulus: Optional[tuple[int, ...]] = None
    if mod:
        try:
            modulus = tuple(int(c) for c in mod.split(","))
        except ValueError:
            raise ValidationError(f"malformed modulus in {text!r}") from None
    return build_field(p, k, modulus)


def parse_fraction(text: str) -> Fraction:
    """An exact rational "a/b" (or a bare integer)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed rational {text!r}") from None


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on a separator that sits outside every bracket and paren."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ValidationError(f"unbalanced brackets in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValidationError(f"unbalanced brackets in {text!r}")
    parts.append(text[start:])
    return parts


def _element_from_coords(spec: FieldSpec, coords: list[int]) -> FieldElement:
    """Coordinates constant-first, padded with zeros up to the field degree."""
    if len(coords) > spec.k:
        raise ValidationError(
            f"{len(coords)} coordinates is too many for {spec!r}"
        )
    return spec.element(coords + [0] * (spec.k - len(coords)))


# --------------------------------------------------------------------------
# univariate expressions

# Deepest nesting of parentheses and unary minus signs accepted; a level costs
# up to four stack frames, so the cap stays well inside the recursion limit.
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        got = self.take()
        if got != ch:
            raise ValidationError(
                f"expected {ch!r} at position {self.pos} of {self.text!r}"
            )

    def integer(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ValidationError(
                f"expected a number at position {start} of {self.text!r}"
            )
        return int(self.text[start : self.pos])


def _parse_expr(tok: _Tokens, spec: FieldSpec, depth: int = 0) -> Poly:
    acc = _parse_term(tok, spec, depth)
    while tok.peek() in ("+", "-"):
        op = tok.take()
        rhs = _parse_term(tok, spec, depth)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_term(tok: _Tokens, spec: FieldSpec, depth: int) -> Poly:
    acc = _parse_factor(tok, spec, depth)
    while tok.peek() == "*":
        tok.take()
        acc = acc * _parse_factor(tok, spec, depth)
    return acc


def _parse_factor(tok: _Tokens, spec: FieldSpec, depth: int) -> Poly:
    if depth > MAX_NESTING:
        raise ValidationError(f"nested deeper than {MAX_NESTING} levels at position {tok.pos}")
    if tok.peek() == "-":
        tok.take()
        return -_parse_factor(tok, spec, depth + 1)
    atom = _parse_atom(tok, spec, depth)
    if tok.peek() == "^":
        tok.take()
        return atom ** tok.integer()
    return atom


def _parse_atom(tok: _Tokens, spec: FieldSpec, depth: int) -> Poly:
    ch = tok.peek()
    if ch == "(":
        tok.take()
        inner = _parse_expr(tok, spec, depth + 1)
        tok.expect(")")
        return inner
    if ch == "[":
        tok.take()
        coords = [tok.integer()]
        while tok.peek() == ",":
            tok.take()
            coords.append(tok.integer())
        tok.expect("]")
        return Poly.constant(_element_from_coords(spec, coords))
    if ch in ("X", "x"):
        tok.take()
        return Poly.x(spec)
    if ch.isdigit():
        return Poly.constant(spec.element(tok.integer()))
    raise ValidationError(
        f"unexpected {ch!r} at position {tok.pos} of {tok.text!r}"
    )


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """A univariate polynomial from expression syntax."""
    tok = _Tokens(text)
    out = _parse_expr(tok, spec)
    if tok.peek():
        raise ValidationError(
            f"trailing input at position {tok.pos} of {text!r}"
        )
    return out


def parse_ratfun(spec: FieldSpec, text: str) -> RatFun:
    """A rational function "num / den" (or a bare polynomial)."""
    parts = _split_top_level(text, "/")
    if len(parts) == 1:
        return RatFun.from_poly(parse_poly(spec, parts[0]))
    if len(parts) != 2:
        raise ValidationError(f"more than one top-level '/' in {text!r}")
    num = parse_poly(spec, parts[0])
    den = parse_poly(spec, parts[1])
    if den.is_zero():
        raise ValidationError("zero denominator")
    return RatFun.make(num, den)


# --------------------------------------------------------------------------
# term lists for several variables


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        try:
            coords = [int(c) for c in text[1:-1].split(",")]
        except ValueError:
            raise ValidationError(f"malformed coefficient {text!r}") from None
        return _element_from_coords(spec, coords)
    try:
        return spec.element(int(text))
    except ValueError:
        raise ValidationError(f"malformed coefficient {text!r}") from None


def _parse_term_list(spec: FieldSpec, text: str) -> dict[tuple, FieldElement]:
    terms: dict[tuple, FieldElement] = {}
    width = None
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff_text, sep, exp_text = chunk.partition(":")
        exp_text = exp_text.strip()
        if not sep or not exp_text.startswith("(") or not exp_text.endswith(")"):
            raise ValidationError(f"malformed term {chunk!r}; expected 'c:(i,j)'")
        try:
            key = tuple(int(e) for e in exp_text[1:-1].split(","))
        except ValueError:
            raise ValidationError(f"malformed exponents in {chunk!r}") from None
        if width is None:
            width = len(key)
        elif len(key) != width:
            raise ValidationError(
                f"term {chunk!r} has {len(key)} exponents, earlier terms had {width}"
            )
        c = parse_element(spec, coeff_text)
        if key in terms:
            c = terms[key] + c
        terms[key] = c
    if width is None:
        raise ValidationError("empty term list")
    return terms


def parse_bipoly(spec: FieldSpec, text: str) -> BiPoly:
    terms = _parse_term_list(spec, text)
    if any(len(k) != 2 for k in terms):
        raise ValidationError("bivariate terms need exponent pairs (i,j)")
    return BiPoly.from_terms(spec, terms)


def parse_mpoly(spec: FieldSpec, text: str, n: Optional[int] = None) -> MPoly:
    terms = _parse_term_list(spec, text)
    width = len(next(iter(terms)))
    if n is None:
        n = width
    return MPoly.from_terms(spec, n, terms)


def parse_mratfun(spec: FieldSpec, text: str) -> MRatFun:
    parts = _split_top_level(text, "/")
    if len(parts) == 1:
        return MRatFun.from_poly(parse_mpoly(spec, parts[0]))
    if len(parts) != 2:
        raise ValidationError(f"more than one top-level '/' in {text!r}")
    num = parse_mpoly(spec, parts[0])
    den = parse_mpoly(spec, parts[1], n=num.n)
    if den.is_zero():
        raise ValidationError("zero denominator")
    return MRatFun.make(num, den)


# --------------------------------------------------------------------------
# points on the projective line


def parse_point(spec: FieldSpec, text: str) -> PointOrInf:
    text = text.strip()
    if text.lower() in ("inf", "infinity", "oo"):
        return INFINITY
    return parse_element(spec, text)


def point_str(v) -> str:
    return "inf" if v is INFINITY else str(v)
