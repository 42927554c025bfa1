"""Reference arithmetic for generating inputs and checking answers.

The benchmark must judge ffdecomp's output without running the code it
measures, so this module re-implements the little it needs: F_{p^k}
arithmetic, dense univariate and sparse bivariate polynomials, evaluation
on the projective line, and the text formats of the command line.

A field element is an int 0..q-1 under the same coordinate index as
ffdecomp (constant coordinate least significant).  The modulus is the
lexicographically smallest monic irreducible of degree k, constant term
most significant, found here by trial division.  Univariate polynomials
are lists of ints, constant term first, with no trailing zeros; bivariate
polynomials are dicts from exponent pairs to nonzero ints.
"""

from __future__ import annotations

import itertools

INF = "inf"  # the point at infinity of the projective line
UNDEF = "undefined"  # numerator and denominator vanish together


# --------------------------------------------------------------------------
# F_p[X] helpers used only to find the modulus and a primitive element


def _prem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by the monic polynomial b over F_p."""
    a = a[:]
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    a = [c % p for c in a[:db]]
    while a and a[-1] == 0:
        a.pop()
    return a


def _irreducible_mod_p(f: list[int], p: int) -> bool:
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _prem(f, list(low) + [1], p):
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """(c_0, ..., c_{k-1}, 1), first in lexicographic order of (c_0, ...)."""
    for low in itertools.product(range(p), repeat=k):
        if k > 1 and low[0] == 0:
            continue  # divisible by X
        f = list(low) + [1]
        if _irreducible_mod_p(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
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


class Field:
    """F_{p^k} with log/antilog tables for multiplication."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = smallest_irreducible(p, k)
        self.descriptor = str(p) if k == 1 else f"{p}^{k}"
        q = self.q
        gen = next(
            g for g in range(2 if q > 2 else 1, q)
            if all(self._slow_pow(g, (q - 1) // r) != 1 for r in _prime_factors(q - 1))
        )
        self._exp = [1] * (2 * (q - 1))
        self._log = [0] * q
        x = 1
        for i in range(q - 1):
            self._exp[i] = self._exp[i + q - 1] = x
            self._log[x] = i
            x = self._slow_mul(x, gen)

    # -- coordinates ---------------------------------------------------------

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            a, c = divmod(a, self.p)
            out.append(c)
        return out

    def from_digits(self, ds) -> int:
        a = 0
        for c in reversed(ds):
            a = a * self.p + c % self.p
        return a

    def _slow_mul(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                conv[i + j] += x * y
        return self.from_digits(_prem(conv, list(self.modulus), self.p))

    def _slow_pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._slow_mul(out, a)
            a = self._slow_mul(a, a)
            e >>= 1
        return out

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return self.from_digits([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return -a % self.p
        return self.from_digits([-x for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def power(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- text ----------------------------------------------------------------

    def fmt(self, a: int) -> str:
        if self.k == 1:
            return str(a)
        return "[" + ",".join(str(c) for c in self.digits(a)) + "]"

    def parse(self, text: str) -> int:
        text = text.strip()
        if text.startswith("["):
            coords = [int(c) for c in text[1:-1].split(",")]
            if len(coords) > self.k:
                raise ValueError(f"too many coordinates in {text!r}")
            return self.from_digits(coords)
        return int(text) % self.p


# --------------------------------------------------------------------------
# univariate polynomials and rational functions


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(F: Field, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return trim(out)


def pmul(F: Field, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(out)


def peval(F: Field, a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def compose(F: Field, g: list[int], h: list[int]) -> list[int]:
    """g(h(X)) for polynomials g and h."""
    out: list[int] = []
    for c in reversed(g):
        out = padd(F, pmul(F, out, h), [c] if c else [])
    return out


def rat_eval(F: Field, num: list[int], den: list[int], x):
    """Value of num/den at a point of F_q or at INF (a reduced fraction)."""
    if x == INF:
        dn, dd = len(num) - 1, len(den) - 1
        if dn > dd:
            return INF
        if dn < dd:
            return 0
        return F.mul(num[-1], F.inv(den[-1]))
    b = peval(F, den, x)
    a = peval(F, num, x)
    if b == 0:
        return UNDEF if a == 0 else INF
    return F.mul(a, F.inv(b))


def projective_line(F: Field) -> list:
    return list(range(F.q)) + [INF]


def fmt_poly(F: Field, a: list[int], var: str = "X") -> str:
    """The same text ffdecomp prints: highest degree first, '+'-joined."""
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(F.fmt(c))
        else:
            xs = var if e == 1 else f"{var}^{e}"
            parts.append(xs if c == 1 else f"{F.fmt(c)}*{xs}")
    return "+".join(parts)


def parse_poly(F: Field, text: str) -> list[int]:
    """Inverse of fmt_poly (the expanded form ffdecomp prints)."""
    out: dict[int, int] = {}
    for term in text.strip().split("+"):
        coeff, _, mono = term.partition("*")
        if not mono:
            coeff, mono = ("1", coeff) if coeff.strip().startswith("X") else (coeff, "")
        e = 0
        mono = mono.strip()
        if mono:
            if not mono.startswith("X"):
                raise ValueError(f"malformed term {term!r}")
            e = int(mono[2:]) if mono.startswith("X^") else 1
        out[e] = F.add(out.get(e, 0), F.parse(coeff))
    poly = [0] * (max(out) + 1)
    for e, c in out.items():
        poly[e] = c
    return trim(poly)


def parse_ratfun(F: Field, text: str) -> tuple[list[int], list[int]]:
    num, _, den = text.partition(" / ")
    return parse_poly(F, num), parse_poly(F, den) if den else [1]


# --------------------------------------------------------------------------
# bivariate polynomials (two variables, prime fields and extensions alike)


def mpmul(F: Field, a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in b.items():
            key = (i + k, j + m)
            out[key] = F.add(out.get(key, 0), F.mul(x, y))
    return {k: c for k, c in out.items() if c}


def mpadd(F: Field, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = F.add(out.get(k, 0), c)
    return {k: c for k, c in out.items() if c}


def mcompose(F: Field, g: list[int], h: dict) -> dict:
    """g(h(X1, X2)) for a univariate polynomial g."""
    out: dict = {}
    for c in reversed(g):
        out = mpadd(F, mpmul(F, out, h), {(0, 0): c} if c else {})
    return out


def mdegree(a: dict) -> int:
    return max((i + j for i, j in a), default=-1)


def meval(F: Field, a: dict, x: int, y: int) -> int:
    acc = 0
    for (i, j), c in a.items():
        acc = F.add(acc, F.mul(c, F.mul(F.power(x, i), F.power(y, j))))
    return acc


def mrat_eval(F: Field, num: dict, den: dict, x: int, y: int):
    b = meval(F, den, x, y)
    a = meval(F, num, x, y)
    if b == 0:
        return UNDEF if a == 0 else INF
    return F.mul(a, F.inv(b))


def fmt_term_list(F: Field, a: dict) -> str:
    """The command line's term-list syntax 'c:(i,j); ...'."""
    return "; ".join(f"{F.fmt(c)}:({i},{j})" for (i, j), c in sorted(a.items(), reverse=True))


def parse_mpoly(F: Field, text: str) -> dict:
    """Inverse of ffdecomp's MPoly printing, e.g. '2*X1^2*X2+X2+1'."""
    out: dict = {}
    for term in text.strip().split("+"):
        i = j = 0
        c = 1
        for factor in term.strip().split("*"):
            name, _, exp = factor.partition("^")
            if name == "X1":
                i = int(exp) if exp else 1
            elif name == "X2":
                j = int(exp) if exp else 1
            else:
                c = F.parse(factor)
        out[(i, j)] = F.add(out.get((i, j), 0), c)
    return {k: c for k, c in out.items() if c}


def parse_mratfun(F: Field, text: str) -> tuple[dict, dict]:
    num, _, den = text.partition(" / ")
    return parse_mpoly(F, num), parse_mpoly(F, den) if den else {(0, 0): 1}
