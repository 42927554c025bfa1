"""Finite fields F_{p^k}, with each element coded as an integer.

A field is realized as F_p[X]/(m(X)) for a deterministically chosen monic
irreducible m (the lexicographically smallest one, reading the coefficient
tuple from the constant term up).  An element is its index
c_0 + c_1 p + ... + c_{k-1} p^{k-1}, the integer whose base-p digits are its
coordinates over the power basis; `.coeffs` reads the coordinates back.
Equal inputs always produce equal outputs, and nothing here depends on
process state.  The module has no polynomial arithmetic of its own: moduli
are searched and checked, and large extension fields invert, with `upoly`
over F_p.

FieldSpec's index primitives `_add`, `_neg`, `_mul` and `_inv`, and the
line evaluator `_values(cs)`, the values at x = 0..q-1 of the polynomial
with coefficient indices cs, are the one place that chooses how to compute.
The polynomials of `upoly` and `mvar` store their coefficients as indices
and call these primitives directly, so FieldElement arithmetic serves only
callers at the API boundary.  Each kind of field has one kernel:

- a prime field F_p, where an index is its value, computes on integers
  mod p at every order, inverting by a^(p-2) and evaluating a line by
  integer Horner;
- an extension field with q <= 2^16 (TABLE_MAX_ORDER) uses log/antilog
  tables over the primitive element of smallest index.  Products,
  inverses and negatives are table lookups, sums are XOR when p = 2 and
  go through Zech's logarithms otherwise, and `_values` reads each
  product a x from the tables inline;
- a larger extension field computes on coordinates over the power basis
  (`_mul_coeffs`, `_inv_coeffs`), with sums by XOR when p = 2, and
  `_values` loops over `_add` and `_mul`.  It is also the tests' oracle
  for the tables.

A field holds no list of its elements: a FieldElement is made when the API
boundary asks for one, so building F_q costs only what its kernel needs.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, Union

from . import limits
from .errors import SpecMismatchError, ValidationError

# --------------------------------------------------------------------------
# integer helpers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far past any enumerable field size."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --------------------------------------------------------------------------
# moduli: searched and checked with upoly over the prime field


def _is_irreducible(p: int, f: tuple[int, ...]) -> bool:
    """f, its coefficients constant term first, is irreducible over F_p."""
    from . import upoly  # deferred: upoly builds on this module

    return upoly.is_irreducible(upoly.Poly.from_ints(_field(p, 1, (0, 1)), f))


@lru_cache(maxsize=None)
def _lex_smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The smallest monic irreducible (c_0, ..., c_{k-1}, 1) over F_p in
    lexicographic order, c_0 most significant; c_0 = 0 is skipped (X divides)."""
    if k == 1:
        return (0, 1)  # X, with no search: the search runs in F_p itself
    for head in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        if _is_irreducible(p, head + (1,)):
            return head + (1,)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


# --------------------------------------------------------------------------

# Extension fields up to this order get log/antilog tables; it chooses the
# kernel and nothing else.
TABLE_MAX_ORDER = 1 << 16


def _xor_span(rows: list[int]) -> list[int]:
    """t[s] = XOR of rows[j] over the set bits j of s."""
    t = [0]
    for r in rows:
        t += [x ^ r for x in t]
    return t


class FieldSpec:
    """Description of F_{p^k}: characteristic, degree, and modulus.

    `_add`, `_neg`, `_mul`, `_inv` and `_values` act on element indices;
    they are set once, here, to the one kernel of the field's kind: integers
    mod p for a prime field, tables for an extension field up to
    TABLE_MAX_ORDER, coordinates above it.  `_elems[i]` is a new element
    of index i.
    """

    __slots__ = ("p", "k", "order", "modulus", "_red", "_elems",
                 "_add", "_neg", "_mul", "_inv", "_values")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus
        self._red = modulus[:k]  # X^k = -sum(red[i] X^i) mod m
        if k == 1:
            ops = self._prime_ops()
        elif self.order <= TABLE_MAX_ORDER:
            ops = self._table_ops()
        else:
            ops = self._coord_ops()
        self._add, self._neg, self._mul, self._inv, self._values = ops
        self._elems = _Fresh(self)

    @property
    def descriptor(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    def __repr__(self) -> str:
        return f"GF({self.descriptor})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    def __reduce__(self):
        # the index primitives are closures, so a copy is rebuilt from its parameters
        return build_field, (self.p, self.k, self.modulus)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        return self._elems[0]

    def one(self) -> "FieldElement":
        return self._elems[1]

    def element(self, value: Union[int, Iterable[int], "FieldElement"]) -> "FieldElement":
        if isinstance(value, FieldElement):
            if not _same_spec(value.spec, self):
                raise SpecMismatchError(f"element of {value.spec!r} used in {self!r}")
            return value
        if isinstance(value, int):
            return self._elems[value % self.p]
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) != self.k:
            raise ValidationError(
                f"expected {self.k} coordinates for {self!r}, got {len(coeffs)}"
            )
        return self._elems[self._index(coeffs)]

    def from_index(self, i: int) -> "FieldElement":
        if not 0 <= i < self.order:
            raise ValidationError(f"index {i} out of range for {self!r}")
        return self._elems[i]

    def elements(self) -> list["FieldElement"]:
        """All field elements in coordinate order (constant coordinate fastest)."""
        limits.check_enumerable(self.order, f"enumerating {self!r}")
        return [FieldElement(self, i) for i in range(self.order)]

    # -- indices and coordinates ---------------------------------------------

    def _pow(self, a: int, e: int) -> int:
        """The index of a^e, for e >= 0."""
        return power(a, e, 1, self._mul)

    def _coords(self, i: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.k):
            i, c = divmod(i, p)
            out.append(c)
        return tuple(out)

    def _index(self, coeffs) -> int:
        i = 0
        for c in reversed(coeffs):
            i = i * self.p + c
        return i

    # -- coordinate arithmetic -----------------------------------------------

    def _mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        red = self._red
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i] % p
            if c:
                base = i - k
                for j, rj in enumerate(red):
                    if rj:
                        conv[base + j] -= c * rj
        return tuple([c % p for c in conv[:k]])

    def _inv_coeffs(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if not any(a):
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        from . import upoly  # deferred: upoly builds on this module

        fp = _field(self.p, 1, (0, 1))  # poly_invmod checks that the gcd with m is 1
        u = upoly.poly_invmod(upoly.Poly.from_ints(fp, a), upoly.Poly.from_ints(fp, self.modulus))
        return u.idx + (0,) * (self.k - len(u.idx))

    def _prime_ops(self):
        """Index primitives of F_p, where an index is its value: integers mod p."""
        p = self.p
        xs = range(p)

        def add(a: int, b: int) -> int:
            return (a + b) % p

        def neg(a: int) -> int:
            return -a % p

        def mul(a: int, b: int) -> int:
            return a * b % p

        def inv(a: int) -> int:
            if not a:
                raise ZeroDivisionError(f"inversion of zero in {self!r}")
            return pow(a, p - 2, p)

        def values(cs) -> list[int]:  # Horner's rule at every x at once
            line = [cs[-1]] * p
            for c in reversed(cs[:-1]):
                line = [(a * x + c) % p for a, x in zip(line, xs)]
            return line

        return add, neg, mul, inv, values

    def _coord_ops(self):
        """Index primitives of an extension field above TABLE_MAX_ORDER, on coordinates."""
        p, coords, index = self.p, self._coords, self._index

        def add(a: int, b: int) -> int:
            return index([(x + y) % p for x, y in zip(coords(a), coords(b))])

        def neg(a: int) -> int:
            return index([(-x) % p for x in coords(a)])

        def mul(a: int, b: int) -> int:
            return index(self._mul_coeffs(coords(a), coords(b)))

        def inv(a: int) -> int:
            return index(self._inv_coeffs(coords(a)))

        if p == 2:  # coordinate-wise addition mod 2 is XOR of the indices
            add, neg = operator.xor, _identity
        xs = range(self.order)

        def values(cs) -> list[int]:
            line = [cs[-1]] * len(xs)
            for c in reversed(cs[:-1]):
                if c:
                    line = [add(mul(a, x), c) for a, x in zip(line, xs)]
                else:
                    line = [mul(a, x) for a, x in zip(line, xs)]
            return line

        return add, neg, mul, inv, values

    # -- log/antilog tables --------------------------------------------------

    def _is_primitive(self, g: int, cofactors: list[int]) -> bool:
        """g has order q - 1: no g^c is 1 for c among the cofactors (q-1)/r,
        r a prime divisor of q - 1."""
        one, x = self._coords(1), self._coords(g)
        return all(power(x, c, one, self._mul_coeffs) != one for c in cofactors)

    def _powers(self, g: int) -> list[int]:
        """Indices of g^0, ..., g^(q-2) for a primitive element g.

        The powers are stepped with the F_p-linear map "multiply by g",
        built from the images of X^j * g, so no step runs a field product.
        """
        p, k = self.p, self.k
        powers = [1]
        x, images = self._coords(p), [self._coords(g)]
        for _ in range(k - 1):
            images.append(self._mul_coeffs(x, images[-1]))
        if p == 2:
            lo = _xor_span([self._index(c) for c in images[:8]])
            hi = _xor_span([self._index(c) for c in images[8:]])
            a = g
            while a != 1:
                powers.append(a)
                a = lo[a & 255] ^ hi[a >> 8]
            return powers
        # rows[j][c] = coordinates of c * X^j * g, before reduction mod p
        rows = [[[c * v for v in image] for c in range(p)] for image in images]
        place = [p**j for j in range(k)]
        coords, a = images[0], g
        while a != 1:
            powers.append(a)
            coords = [sum(col) % p for col in zip(*map(operator.getitem, rows, coords))]
            a = sum(map(operator.mul, coords, place))
        return powers

    def _exp_cycle(self) -> list[int]:
        """Indices of g^0, ..., g^(q-2) for the primitive element g of smallest index."""
        # the p constants lie in F_p, where orders divide p - 1
        m = self.order - 1
        cofactors = [m // r for r in prime_factors(m)]
        for g in range(self.p, self.order):
            if self._is_primitive(g, cofactors):
                return self._powers(g)
        raise AssertionError("no primitive element found")  # pragma: no cover

    def _table_ops(self):
        """Index primitives of an extension field up to TABLE_MAX_ORDER, by log tables."""
        p, m = self.p, self.order - 1
        exp = self._exp_cycle()
        log = [0] * (m + 1)
        for n, a in enumerate(exp):
            log[a] = n
        exp = exp + exp  # exponents up to 2(q-2) need no reduction mod q-1

        def mul(a: int, b: int) -> int:
            return exp[log[a] + log[b]] if a and b else 0

        def inv(a: int) -> int:
            if not a:
                raise ZeroDivisionError(f"inversion of zero in {self!r}")
            return exp[m - log[a]]

        # The line evaluators run Horner's rule at every x at once, with
        # log[x] beside x; log[0] = 0 is no logarithm, so the value at x = 0
        # is set to the constant term at the end.
        if p == 2:
            def values(cs) -> list[int]:
                line = [cs[-1]] * (m + 1)
                for c in reversed(cs[:-1]):
                    line = [exp[log[a] + lx] ^ c if a else c for a, lx in zip(line, log)]
                line[0] = cs[0]
                return line

            return operator.xor, _identity, mul, inv, values

        half = m // 2  # g^half = -1

        def neg(a: int) -> int:
            return exp[log[a] + half] if a else 0

        # zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0; 1 + a bumps a's
        # constant coordinate, the lowest base-p digit of its index
        zech = [0] * m
        for n in range(m):
            a = exp[n]
            c = a % p
            s = a - c + (c + 1) % p
            zech[n] = log[s] if s else -1

        def add(a: int, b: int) -> int:
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]  # a negative position wraps: mod q-1 for free
            return exp[la + z] if z >= 0 else 0

        def values(cs) -> list[int]:
            line = [cs[-1]] * (m + 1)
            for c in reversed(cs[:-1]):
                if not c:
                    line = [exp[log[a] + lx] if a else 0 for a, lx in zip(line, log)]
                    continue
                # a x + c = g^lc (1 + g^(log a + log x - lc))
                lc = log[c]
                line = [
                    (exp[lc + z] if (z := zech[(log[a] + lx - lc) % m]) >= 0 else 0) if a else c
                    for a, lx in zip(line, log)
                ]
            line[0] = cs[0]
            return line

        return add, neg, mul, inv, values


def _identity(a: int) -> int:
    return a


def power(x, e: int, one, mul=operator.mul):
    """x^e for e >= 0 by square and multiply, in the monoid of one and mul."""
    while e:
        if e & 1:
            one = mul(one, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one


class _Fresh:
    """The element "list" of a field: a new element per index."""

    __slots__ = ("spec",)

    def __init__(self, spec: FieldSpec):
        self.spec = spec

    def __getitem__(self, i: int) -> "FieldElement":
        return FieldElement(self.spec, i)


def _same_spec(a: FieldSpec, b: FieldSpec) -> bool:
    return a is b or (a.p == b.p and a.modulus == b.modulus)


class FieldElement:
    """An element of F_{p^k}, held as its index in the field's coordinate order."""

    __slots__ = ("spec", "index", "_hash")

    def __init__(self, spec: FieldSpec, index: int):
        # private: elements come from FieldSpec (element, from_index, ...)
        self.spec = spec
        self.index = index

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec._coords(self.index)

    def is_zero(self) -> bool:
        return not self.index

    def __bool__(self) -> bool:
        return self.index != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.index == other.index and _same_spec(self.spec, other.spec)
        if isinstance(other, int):
            return self.index == other % self.spec.p
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.spec.p, self.coeffs))
            return h

    def __repr__(self) -> str:
        if self.spec.k == 1:
            return str(self.index)
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        """The index of other in this element's field."""
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and not _same_spec(self.spec, other.spec):
                raise SpecMismatchError(
                    f"mixing elements of {self.spec!r} and {other.spec!r}"
                )
            return other.index
        if isinstance(other, int):
            return other % self.spec.p
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        spec = self.spec
        return FieldElement(spec, spec._add(self.index, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        spec = self.spec
        return FieldElement(spec, spec._add(self.index, spec._neg(b)))

    def __rsub__(self, other):
        return self.spec.element(other) - self

    def __neg__(self):
        spec = self.spec
        return FieldElement(spec, spec._neg(self.index))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        spec = self.spec
        return FieldElement(spec, spec._mul(self.index, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        spec = self.spec
        return FieldElement(spec, spec._mul(self.index, spec._inv(b)))

    def __rtruediv__(self, other):
        return self.spec.element(other) / self

    def inverse(self) -> "FieldElement":
        spec = self.spec
        return FieldElement(spec, spec._inv(self.index))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        spec = self.spec
        return FieldElement(spec, spec._pow(self.index, e))

    def frobenius(self) -> "FieldElement":
        return self ** self.spec.p


# --------------------------------------------------------------------------


def build_field(p: int, k: int = 1, modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """Construct F_{p^k}.

    Without an explicit modulus the lexicographically smallest monic
    irreducible of degree k is used, so repeated calls agree.  The size
    guard runs on every call; the field itself, tables included, is built
    once per (p, k, modulus) and then shared.
    """
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"extension degree {k!r} must be a positive integer")
    if isinstance(p, int) and p >= 2:  # before is_prime(p) and p**k, which grow with p and k
        limits.check_enumerable(p, "field", k)
    if not isinstance(p, int) or not is_prime(p):
        raise ValidationError(f"characteristic {p!r} is not prime")
    if modulus is None:
        modulus = _lex_smallest_irreducible(p, k)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValidationError("modulus must be monic of degree k")
        if not _is_irreducible(p, modulus):
            raise ValidationError("modulus is reducible")
    return _field(p, k, modulus)


# Bounded, because an extension field holds up to a few MB of tables (q = 2^16).
_field = lru_cache(maxsize=64)(FieldSpec)


class FieldEmbedding:
    """Ring homomorphism F_{p^k} -> F_{p^{k r}} fixing the prime field."""

    __slots__ = ("source", "target", "powers")

    def __init__(self, source: FieldSpec, target: FieldSpec, powers: tuple[FieldElement, ...]):
        self.source = source
        self.target = target
        self.powers = powers  # images of 1, x, ..., x^{k-1}

    def __call__(self, a: FieldElement) -> FieldElement:
        if not _same_spec(a.spec, self.source):
            raise SpecMismatchError(f"element of {a.spec!r} fed to embedding of {self.source!r}")
        return self.target._elems[self.map_index(a.index)]

    def map_index(self, i: int) -> int:
        """The index of the image of the source element of index i."""
        add, mul = self.target._add, self.target._mul
        acc = 0
        for c, w in zip(self.source._coords(i), self.powers):
            if c:  # the coordinate c lies in F_p, where index and value agree
                acc = add(acc, mul(w.index, c))
        return acc


def extend_field(spec: FieldSpec, r: int) -> tuple[FieldSpec, FieldEmbedding]:
    """Build F_{q^r} together with the embedding F_q -> F_{q^r}.

    The embedding sends the generator of F_q to the smallest root (in
    coordinate order) of the source modulus inside the extension, which makes
    it reproducible.  Like the field, it is found once and then shared.
    """
    if not isinstance(r, int) or r < 1:
        raise ValidationError(f"extension exponent {r!r} must be a positive integer")
    if r == 1:
        powers = tuple(spec.from_index(spec.p**i) for i in range(spec.k))
        return spec, FieldEmbedding(spec, spec, powers)
    target = build_field(spec.p, spec.k * r)  # the size guard runs on every call
    return target, _embedding(spec, target)


@lru_cache(maxsize=64)
def _embedding(spec: FieldSpec, target: FieldSpec) -> FieldEmbedding:
    from . import upoly  # deferred: upoly builds on this module

    f = upoly.Poly.from_ints(target, spec.modulus)
    rs = upoly.roots(f)
    assert rs, "source modulus must split in the extension"
    beta = min(rs, key=lambda e: e.index)
    powers = [target.one()]
    for _ in range(spec.k - 1):
        powers.append(powers[-1] * beta)
    return FieldEmbedding(spec, target, tuple(powers))
