"""Text formats used at the tool boundary.

Field descriptors look like "7", "2^11", or "2^11/1,1,0,0,0,0,0,0,0,0,0,1"
with the modulus coefficients constant-first.  Univariate polynomials are
ordinary expressions in X with integer coefficients (prime fields) or
bracketed coordinate lists (extensions), e.g. "(X^2+1)^2" or
"[1,1]*X^2+[0,1]".  The printed form, as upoly.terms_str writes it, is read
by one regex scan; any other text, or one the scan declines, is cut into
tokens and parsed by recursive descent, to the same result.  Rational
functions split numerator and denominator at a top-level slash.  Bivariate
and multivariate polynomials use a term list "c:(i,j); c:(i,j); ..." keyed
by exponent vectors.

Coefficients are read straight into field indices, the format of Poly and
MPoly; FieldElements come only from parse_element and parse_point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import SizeLimitError, ValidationError
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


_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def parse_fraction(text: str) -> Fraction:
    """An exact rational: "a/b", a bare integer or a decimal such as 1.5e-3.

    The decimal exponent is read before Fraction() builds its power of ten,
    and a power that alone has more digits than int() prints is refused with
    mvar._check_epsilon's message, the only reader of this value (no check
    when that limit is 0)."""
    body = text.strip()
    try:
        m = _DECIMAL_EXPONENT.search(body)
        if m:
            Fraction(body[: m.start()] + "e0")  # the rest is a decimal literal
            limit = getattr(sys, "get_int_max_str_digits", int)()
            if 0 < limit <= abs(int(m[1])):
                raise SizeLimitError("epsilon has too many digits to print its report")
        return Fraction(body)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed rational {text!r}") from None


def _num_den(text: str) -> list[str]:
    """text split at a slash outside every bracket and paren: [num] or [num, den]."""
    depth, cuts = 0, [-1]
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                break
        elif ch == "/" and depth == 0:
            cuts.append(i)
    if depth != 0:
        raise ValidationError(f"unbalanced brackets in {text!r}")
    if len(cuts) > 2:
        raise ValidationError(f"more than one top-level '/' in {text!r}")
    return [text[a + 1 : b] for a, b in zip(cuts, cuts[1:] + [len(text)])]


def _clip(text: str, width: int = 40) -> str:
    """repr(text) for an error message, cut short when text is long."""
    if len(text) <= width:
        return repr(text)
    return f"{text[:width]!r}... ({len(text)} characters)"


def _read_int(text: str, what: str, context: str) -> int:
    """int(text); a numeral with more digits than int() converts is a size error."""
    try:
        return int(text)
    except ValueError:
        if text.strip().lstrip("+-").isdecimal():
            raise SizeLimitError(f"{what} in {_clip(context)} has too many digits") from None
        raise ValidationError(f"malformed {what} in {_clip(context)}") from None


def _coords_index(spec: FieldSpec, coords: list[int]) -> int:
    """The index of the element of these coordinates, constant-first, zeros implied."""
    if len(coords) > spec.k:
        raise ValidationError(f"{len(coords)} coordinates is too many for {spec!r}")
    return spec._index([c % spec.p for c in coords])


# --------------------------------------------------------------------------
# univariate expressions

# Deepest nesting of parentheses and unary minus signs accepted; a level costs
# up to four stack frames, so the cap stays well inside the recursion limit.
MAX_NESTING = 100

# Largest exponent accepted, and the largest degree a product or power may
# reach while parsing; checked before the product or power is computed.
MAX_DEGREE = 1024

_TOKEN = re.compile(r"\d+|\S")  # \d is str.isdecimal and \s str.isspace, on every code point


def _check_degree(d: int, what: str) -> None:
    if d > MAX_DEGREE:
        raise SizeLimitError(f"{what} {d} exceeds the parser cap {MAX_DEGREE}")


class _Tokens:
    """A text's tokens, cut once and ended by ""; positions are found for errors only."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]
        self.i = 0

    def last(self) -> int:
        """Where the token taken last starts in the text; its length for the end."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return starts[self.i - 1] if self.i <= len(starts) else len(self.text)

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self) -> str:
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok: str) -> None:
        if self.take() != tok:
            raise ValidationError(f"expected {tok!r} at position {self.last() + 1} of {self.text!r}")

    def integer(self) -> int:
        tok = self.take()
        if not tok.isdecimal():
            raise ValidationError(f"expected a number at position {self.last()} of {self.text!r}")
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise SizeLimitError(f"number at position {self.last()} has too many digits") from None


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
        rhs = _parse_factor(tok, spec, depth)
        _check_degree(acc.degree + rhs.degree, "degree")
        acc = acc * rhs
    return acc


def _parse_factor(tok: _Tokens, spec: FieldSpec, depth: int) -> Poly:
    if depth > MAX_NESTING:  # reached just after taking a "(" or a "-"
        pos = tok.last() + 1
        raise ValidationError(f"nested deeper than {MAX_NESTING} levels at position {pos}")
    if tok.peek() == "-":
        tok.take()
        return -_parse_factor(tok, spec, depth + 1)
    atom = _parse_atom(tok, spec, depth)
    if tok.peek() == "^":
        tok.take()
        e = tok.integer()
        _check_degree(e, "exponent")
        _check_degree(atom.degree * e, "degree")
        if atom.idx == (0, 1):  # X^e: the coefficient 1 at index e
            return Poly(spec, (0,) * e + (1,))
        return atom**e
    return atom


def _parse_atom(tok: _Tokens, spec: FieldSpec, depth: int) -> Poly:
    if tok.peek().isdecimal():
        return Poly(spec, (tok.integer() % spec.p,))
    ch = tok.take()
    if ch == "(":
        inner = _parse_expr(tok, spec, depth + 1)
        tok.expect(")")
        return inner
    if ch == "[":
        coords = [tok.integer()]
        while tok.peek() == ",":
            tok.take()
            coords.append(tok.integer())
        tok.expect("]")
        return Poly(spec, (_coords_index(spec, coords),))
    if ch in ("X", "x"):
        return Poly.x(spec)
    raise ValidationError(f"unexpected {ch!r} at position {tok.last()} of {tok.text!r}")


# The printed form of a Poly (upoly.terms_str): terms n, n*X, n*X^e, X or X^e
# joined by "+", n a numeral or a bracket list, x for X allowed, whitespace
# only around the whole text; int() converts any numeral of up to 640 digits.
_PRINTED = re.compile(r"\s*{t}(?:\+{t})*\s*".format(
    t=r"(?:(?:{n}|\[{n}(?:,{n})*\])(?:\*[Xx](?:\^{n})?)?|[Xx](?:\^{n})?)".format(n=r"\d{1,640}")))
# one term of a text that _PRINTED matches: its numeral, coordinates, X, exponent
_PRINTED_TERM = re.compile(r"(?=[\dXx\[])(\d*)(?:\[([\d,]*)\])?\*?([Xx]?)\^?(\d*)")


def _read_printed(spec: FieldSpec, text: str) -> Optional[Poly]:
    """The Poly of a text in the printed form, or None, also for a text the
    parser refuses (an exponent above MAX_DEGREE, a bracket list longer than
    k), so that the parser words the error; repeated exponents add up."""
    if not _PRINTED.fullmatch(text):
        return None
    p, add, idx = spec.p, spec._add, []
    for num, coords, var, exp in _PRINTED_TERM.findall(text):
        if coords:
            cs = coords.split(",")
            if len(cs) > spec.k:
                return None
            c = spec._index([int(x) % p for x in cs])
        else:
            c = int(num) % p if num else 1
        e = int(exp) if exp else 1 if var else 0
        if e > MAX_DEGREE:
            return None
        idx += [0] * (e + 1 - len(idx))
        idx[e] = add(idx[e], c)
    return Poly(spec, idx)


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """A univariate polynomial from expression syntax (the printed form by one scan)."""
    out = _read_printed(spec, text)
    if out is not None:
        return out
    tok = _Tokens(text)
    out = _parse_expr(tok, spec)
    if tok.take():
        raise ValidationError(f"trailing input at position {tok.last()} of {text!r}")
    return out


def parse_ratfun(spec: FieldSpec, text: str) -> RatFun:
    """A rational function "num / den" (or a bare polynomial)."""
    whole = _read_printed(spec, text)
    if whole is not None:
        return RatFun.from_poly(whole)
    num_text, *den_text = _num_den(text)
    num = parse_poly(spec, num_text)
    if not den_text:
        return RatFun.from_poly(num)
    den = parse_poly(spec, den_text[0])
    if den.is_zero():
        raise ValidationError("zero denominator")
    return RatFun.make(num, den)


# --------------------------------------------------------------------------
# term lists for several variables


def _element_index(spec: FieldSpec, text: str) -> int:
    """The index of an element written as an integer or a coordinate list."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        coords = [_read_int(c, "coefficient", text) for c in text[1:-1].split(",")]
        return _coords_index(spec, coords)
    return _read_int(text, "coefficient", text) % spec.p


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    return spec._elems[_element_index(spec, text)]


def _parse_term_list(spec: FieldSpec, text: str, n: Optional[int], pairs: bool) -> MPoly:
    """The MPoly in n variables (by default, one per exponent of a term) of a
    term list; with pairs, every term must have two exponents."""
    add = spec._add
    idx: dict[tuple, int] = {}  # zeros kept, each vector where it first appears
    width = None
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff_text, sep, exp_text = chunk.partition(":")
        exp_text = exp_text.strip()
        if not sep or not exp_text.startswith("(") or not exp_text.endswith(")"):
            raise ValidationError(f"malformed term {_clip(chunk)}; expected 'c:(i,j)'")
        key = tuple([_read_int(e, "exponent", chunk) for e in exp_text[1:-1].split(",")])
        for e in key:
            _check_degree(e, "exponent")
        if width is None:
            width = len(key)
        elif len(key) != width:
            raise ValidationError(
                f"term {_clip(chunk)} has {len(key)} exponents, earlier terms had {width}"
            )
        c = _element_index(spec, coeff_text)
        idx[key] = add(idx[key], c) if key in idx else c
    if width is None:
        raise ValidationError("empty term list")
    if pairs and width != 2:
        raise ValidationError("bivariate terms need exponent pairs (i,j)")
    n = width if n is None else n
    if n < 1:
        raise ValidationError("need at least one variable")
    if width != n:
        raise ValidationError(f"exponent vector {next(iter(idx))} does not have {n} entries")
    if any(e < 0 for key in idx for e in key):
        raise ValidationError("exponents must be nonnegative")
    return MPoly(spec, n, {key: c for key, c in idx.items() if c})


def parse_mpoly(spec: FieldSpec, text: str, n: Optional[int] = None) -> MPoly:
    return _parse_term_list(spec, text, n, pairs=False)


def parse_bipoly(spec: FieldSpec, text: str) -> MPoly:
    """A plane curve: an MPoly in X = X1 and Y = X2."""
    return _parse_term_list(spec, text, 2, pairs=True)


def parse_mratfun(spec: FieldSpec, text: str) -> MRatFun:
    num_text, *den_text = _num_den(text)
    num = parse_mpoly(spec, num_text)
    if not den_text:
        return MRatFun.from_poly(num)
    den = parse_mpoly(spec, den_text[0], n=num.n)
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
