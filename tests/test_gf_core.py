import itertools
import pickle
import random

import pytest

from ffdecomp import gf_core, limits, upoly
from ffdecomp.errors import SizeLimitError, SpecMismatchError, ValidationError
from ffdecomp.gf_core import (
    TABLE_MAX_ORDER,
    FieldSpec,
    _lex_smallest_irreducible,
    build_field,
    extend_field,
    is_prime,
    prime_factors,
)
from oracles import horner

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]


def brute_force_irreducible(coeffs, p):
    """Degree-k poly (constant first) has no monic factor of degree 1..k-1."""
    k = len(coeffs) - 1

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    def all_monic(d):
        for tail in itertools.product(range(p), repeat=d):
            yield list(tail) + [1]

    for d in range(1, k):
        if d > k - d:
            break
        for f in all_monic(d):
            for g in all_monic(k - d):
                prod = poly_mul(f, g)
                if prod == list(coeffs):
                    return False
    return True


def test_prime_checks():
    assert is_prime(2) and is_prime(3) and is_prime(2047) is False
    assert is_prime(2053)
    assert prime_factors(12) == [2, 3]
    assert prime_factors(11) == [11]


def test_invalid_field_parameters():
    with pytest.raises(ValidationError):
        build_field(4)
    with pytest.raises(ValidationError):
        build_field(2, 0)
    with pytest.raises(ValidationError):
        build_field(2, 2, modulus=(1, 0, 1))  # (X+1)^2
    with pytest.raises(SizeLimitError):
        build_field(2, 40)


def test_modulus_is_smallest_irreducible():
    # oracle: brute-force irreducibility over every candidate below the pick
    F4 = build_field(2, 2)
    assert F4.modulus == (1, 1, 1)
    F8 = build_field(2, 3)
    assert brute_force_irreducible(F8.modulus, 2)
    F9 = build_field(3, 2)
    assert brute_force_irreducible(F9.modulus, 3)
    # the chosen modulus is minimal in constant-first lexicographic order
    for cand in itertools.product(range(3), repeat=2):
        if cand < F9.modulus[:2]:
            assert not brute_force_irreducible(tuple(cand) + (1,), 3)


def test_degree_eleven_modulus():
    F = build_field(2, 11)
    assert F.order == 2048
    assert len(F.modulus) == 12 and F.modulus[-1] == 1
    assert brute_force_irreducible(F.modulus, 2)


def test_prime_field_modulus_is_x():
    assert build_field(7).modulus == (0, 1)


def test_build_field_deterministic():
    a = build_field(3, 2)
    b = build_field(3, 2)
    assert a == b and a.modulus == b.modulus


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = build_field(p, k)
    elems = F.elements()
    assert len(elems) == F.order
    zero, one = F.zero(), F.one()
    for a in elems:
        assert a + zero == a and a * one == a
        assert a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a and a * b == b * a
    # associativity/distributivity on all triples
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4)])
def test_frobenius(p, k):
    F = build_field(p, k)
    for a in F.elements():
        b = a
        for _ in range(k):
            b = b.frobenius()
        assert b == a  # k-fold Frobenius is the identity
    for a in F.elements():
        for b in F.elements():
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_enumeration_order_f4():
    F4 = build_field(2, 2)
    elems = F4.elements()
    assert elems[0] == F4.zero()
    assert elems[1] == F4.one()
    assert elems[2].coeffs == (0, 1)
    assert elems[3].coeffs == (1, 1)
    assert [e.index for e in elems] == [0, 1, 2, 3]


def test_element_coercion_and_mismatch():
    F5 = build_field(5)
    F7 = build_field(7)
    a = F5.element(3)
    assert a + 4 == F5.element(2)
    assert 2 * a == F5.element(6)
    assert 1 / F5.element(2) == F5.element(3)
    with pytest.raises(SpecMismatchError):
        a + F7.element(1)
    with pytest.raises(ZeroDivisionError):
        F5.zero().inverse()


def test_negative_powers():
    F7 = build_field(7)
    a = F7.element(3)
    assert a ** -1 == a.inverse()
    assert a ** -2 == (a * a).inverse()
    assert a**0 == F7.one()


def test_extend_field_embedding_is_homomorphism():
    for (p, k), r in [((3, 1), 2), ((2, 2), 2), ((5, 1), 2), ((2, 3), 2)]:
        F, = [build_field(p, k)]
        E, emb = extend_field(F, r)
        assert E.order == F.order**r
        assert emb(F.one()) == E.one()
        for a in F.elements():
            for b in F.elements():
                assert emb(a * b) == emb(a) * emb(b)
                assert emb(a + b) == emb(a) + emb(b)
        # injectivity
        images = {emb(a).coeffs for a in F.elements()}
        assert len(images) == F.order


def test_extend_field_r1_identity():
    F9 = build_field(3, 2)
    E, emb = extend_field(F9, 1)
    assert E == F9
    for a in F9.elements():
        assert emb(a) == a


def test_extend_field_deterministic():
    F4 = build_field(2, 2)
    _, e1 = extend_field(F4, 2)
    _, e2 = extend_field(F4, 2)
    x = F4.from_index(2)
    assert e1(x) == e2(x)


def test_extend_field_is_memoized_and_still_guarded(monkeypatch):
    F4 = build_field(2, 2)
    E1, e1 = extend_field(F4, 3)
    E2, e2 = extend_field(F4, 3)
    assert E2 is E1
    assert e2 is e1 and e2.powers == e1.powers
    # powers are the indices of the images of 1, x, ..., x^(k-1)
    for emb in (e1, extend_field(F4, 1)[1]):
        assert isinstance(emb.powers, tuple) and all(type(w) is int for w in emb.powers)
        assert emb.powers == tuple(emb(F4.from_index(2**i)).index for i in range(F4.k))
    monkeypatch.setattr(limits, "MAX_ORDER", 63)
    with pytest.raises(SizeLimitError):
        extend_field(F4, 3)


def test_explicit_modulus_override():
    # X^2 + X + 2 is irreducible over F_3 alongside the default X^2 + 1
    F = build_field(3, 2, modulus=(2, 1, 1))
    assert F.modulus == (2, 1, 1)
    x = F.from_index(3)  # the class of X
    assert (x * x + x + 2).is_zero()
    for a in F.elements():
        if not a.is_zero():
            assert (a * a.inverse()) == F.one()


# -- the index kernel against coordinate arithmetic ------------------------

# (p, k) with every pair checked, and (p, k) checked on seeded samples
EXHAUSTIVE_FIELDS = [(13, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 5), (7, 2)]
SAMPLED_FIELDS = [(101, 1), (3, 4), (2, 8), (2, 11), (3, 7), (2, 16)]


def _coordinate_oracle(F, a, b):
    """a + b, a - b, a * b, -a, 1/b and a/b from coordinates alone."""
    p, ca, cb = F.p, a.coeffs, b.coeffs
    out = {
        "add": tuple((x + y) % p for x, y in zip(ca, cb)),
        "sub": tuple((x - y) % p for x, y in zip(ca, cb)),
        "mul": F._mul_coeffs(ca, cb),
        "neg": tuple((-x) % p for x in ca),
    }
    if any(cb):
        out["inv"] = F._inv_coeffs(cb)
        # checked by its definition too, not only against the kernel that computes it
        assert F._mul_coeffs(cb, out["inv"]) == (1,) + (0,) * (F.k - 1), (F, b)
        out["div"] = F._mul_coeffs(ca, out["inv"])
    return out


def _kernel_results(a, b):
    out = {"add": a + b, "sub": a - b, "mul": a * b, "neg": -a}
    if b:
        out["inv"] = b.inverse()
        out["div"] = a / b
    return {name: e.coeffs for name, e in out.items()}


def _check_pair(F, a, b):
    assert _kernel_results(a, b) == _coordinate_oracle(F, a, b), (F, a, b)


@pytest.mark.parametrize("p,k", EXHAUSTIVE_FIELDS, ids=lambda v: str(v))
def test_tables_match_coordinates_on_every_pair(p, k):
    F = build_field(p, k)
    assert F.order <= TABLE_MAX_ORDER
    for a, b in itertools.product(F.elements(), repeat=2):
        _check_pair(F, a, b)
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        F.one() / F.zero()


@pytest.mark.parametrize("p,k", SAMPLED_FIELDS, ids=lambda v: str(v))
def test_tables_match_coordinates_on_samples(p, k):
    F = build_field(p, k)
    rng = random.Random(f"tables/{p}^{k}")
    elems = [F.from_index(rng.randrange(F.order)) for _ in range(400)]
    elems += [F.zero(), F.one(), F.from_index(F.order - 1)]
    for a, b in zip(elems, elems[1:] + elems[:1]):
        _check_pair(F, a, b)
        assert a ** 5 == a * a * a * a * a
        assert a ** F.order == a


def test_arithmetic_returns_elements_of_the_field():
    F = build_field(3, 4)
    a, b = F.from_index(40), F.from_index(77)
    for result in (a + b, a - b, a * b, -a, a / b, b.inverse(), a**3, F.element([1, 2, 0, 1])):
        assert result.spec is F and result == F.from_index(result.index)
    F.elements().reverse()  # a new list per call
    assert F.elements() == [F.from_index(i) for i in range(F.order)] and F.one().index == 1


@pytest.mark.parametrize("p,k", [(13, 1), (65521, 1), (3, 2), (2, 9), (2, 16)], ids=lambda v: str(v))
def test_building_a_field_makes_no_element(monkeypatch, p, k):
    # a field holds no list of its elements: each is made when asked for
    made = []
    init = gf_core.FieldElement.__init__

    def counting_init(self, spec, index):
        made.append(index)
        init(self, spec, index)

    monkeypatch.setattr(gf_core.FieldElement, "__init__", counting_init)
    F = gf_core.FieldSpec(p, k, _lex_smallest_irreducible(p, k))
    assert made == []
    elements = F.elements()
    assert [e.index for e in elements] == list(range(F.order))
    assert all(e.spec is F for e in elements) and len(made) == F.order


@pytest.mark.parametrize("p,k", [(2, 17), (3, 11), (65537, 1)], ids=lambda v: str(v))
def test_coordinate_path_field_axioms(p, k):
    # these fields are above the table cutoff: F_2^17 and F_3^11 compute on
    # coordinates, and F_65537, like every prime field, on integers mod p
    F = build_field(p, k)
    assert F.order > TABLE_MAX_ORDER
    rng = random.Random(f"axioms/{p}^{k}")
    elems = [F.from_index(rng.randrange(F.order)) for _ in range(200)]
    elems += [F.one(), F.from_index(2), F.from_index(3), F.from_index(F.order - 1)]
    zero, one = F.zero(), F.one()
    for a, b, c in zip(elems, elems[1:], elems[2:]):
        assert a + zero == a and a * one == a and a - a == zero and a + (-a) == zero
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == one and (b / a) * a == b
        _check_pair(F, a, b)
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


@pytest.mark.parametrize(
    "p,k",
    [(2, 1), (2, 2), (3, 2), (13, 1), (3, 4), (101, 1), (2, 9), (2, 16), (65537, 1)],
    ids=lambda v: str(v),
)
def test_line_evaluator_matches_horner_at_every_point(p, k):
    # prime fields run integer Horner at every order, extension fields up to
    # TABLE_MAX_ORDER read the log tables inline, with x = 0 apart; a full
    # line over F_2^17, whose evaluator loops over _add and _mul, would take
    # seconds
    F = build_field(p, k)
    rng = random.Random(f"values/{p}^{k}")
    cases = [[0], [F.order - 1], [0, 0, 1], [rng.randrange(F.order), 0]]  # a zero top coefficient too
    for degree in (1, 3) if F.order > 1000 else range(1, 7):
        cases.append([rng.randrange(F.order) if rng.random() < 0.8 else 0 for _ in range(degree + 1)])
    for cs in cases:
        f = upoly.Poly(F, cs)
        want = [horner(f, x).index for x in F.elements()]
        assert F._values(cs) == F._values(tuple(cs)) == want, (F, cs)


class _TablesBuilt(Exception):
    pass


def _no_tables(self):
    raise _TablesBuilt(repr(self))


@pytest.mark.parametrize("p", [2, 3, 13, 101, 65521, 65537])
def test_prime_fields_compute_on_integers_mod_p_at_every_order(monkeypatch, p):
    # a prime field never builds log tables, on either side of TABLE_MAX_ORDER;
    # the field is built directly, so the build_field cache plays no part
    monkeypatch.setattr(FieldSpec, "_table_ops", _no_tables)
    F = gf_core.FieldSpec(p, 1, (0, 1))
    rng = random.Random(f"prime/{p}")
    xs = [0, 1, p - 1] + [rng.randrange(p) for _ in range(300)]
    for a, b in zip(xs, xs[1:] + xs[:1]):
        assert (F._add(a, b), F._neg(a), F._mul(a, b)) == ((a + b) % p, -a % p, a * b % p), (a, b)
        assert not b or F._inv(b) == pow(b, -1, p), b
    with pytest.raises(ZeroDivisionError):
        F._inv(0)
    cases = [[0], [p - 1], [0, 0, 1], [rng.randrange(p), 0]]  # a zero top coefficient too
    for degree in (1, 3) if p > 1000 else range(1, 7):
        cases.append([rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(degree + 1)])
    for cs in cases:
        want = [horner(upoly.Poly(F, cs), x).index for x in F.elements()]
        assert F._values(cs) == F._values(tuple(cs)) == want, (F, cs)


def test_extension_fields_up_to_the_cutoff_build_tables(monkeypatch):
    monkeypatch.setattr(FieldSpec, "_table_ops", _no_tables)
    for p, k in [(3, 2), (2, 9)]:
        with pytest.raises(_TablesBuilt):
            gf_core.FieldSpec(p, k, build_field(p, k).modulus)


@pytest.mark.parametrize("p,k", [(2, 5), (3, 3), (5, 2), (7, 2), (2, 9)], ids=lambda v: str(v))
def test_coordinate_path_matches_the_tables(monkeypatch, p, k):
    # a field above TABLE_MAX_ORDER, such as F_2^17, computes on coordinates
    # (`_coord_ops`); small fields are built on that path here, with their
    # moduli, and checked against their tables and against Horner's rule
    T = build_field(p, k)
    q = T.order
    monkeypatch.setattr(gf_core, "TABLE_MAX_ORDER", q - 1)
    C = gf_core.FieldSpec(p, k, T.modulus)
    rng = random.Random(f"coords/{p}^{k}")
    pairs = [(0, 0), (0, 1), (q - 1, q - 1)] + [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    for a, b in pairs:
        assert (C._add(a, b), C._mul(a, b)) == (T._add(a, b), T._mul(a, b)), (a, b)
    for a in range(q):
        assert C._neg(a) == T._neg(a) and (not a or C._inv(a) == T._inv(a)), a
    cases = [[0], [q - 1], [0, 0, 1], [rng.randrange(q), 0]]  # a zero top coefficient too
    for degree in range(1, 7):
        cases.append([rng.randrange(q) if rng.random() < 0.8 else 0 for _ in range(degree + 1)])
    for cs in cases:
        want = [horner(upoly.Poly(T, cs), x).index for x in T.elements()]
        assert C._values(cs) == C._values(tuple(cs)) == want, (C, cs)


def test_equal_elements_hash_alike():
    # equal elements hash alike: an element, its from_index twin, the same
    # index in a pickled copy and in a fresh build of its field, and the
    # int 0..p-1 that it equals are one key in a set or a dict
    for p, k in [(7, 1), (3, 2), (2, 5), (2, 17)]:
        F = build_field(p, k)
        copies = [pickle.loads(pickle.dumps(F)), gf_core.FieldSpec(p, k, F.modulus)]
        for i in (0, 1, F.order // 3, F.order - 1):
            a = F.from_index(i)
            twins = [F.from_index(i)] + [G.from_index(i) for G in copies]
            assert all(b == a and hash(b) == hash(a) for b in twins), (F, i)
            assert len({a, *twins}) == 1 and {a: i}[twins[-1]] == i
            if i < p:
                assert a == i and hash(a) == hash(i) and i in {a} and {a: 1}.get(i) == 1
            assert a.coeffs == tuple(i // p**j % p for j in range(k))


# -- fields are built once -----------------------------------------------


def test_build_field_returns_the_same_object():
    assert build_field(2, 5) is build_field(2, 5)
    assert build_field(101) is build_field(101, 1)
    assert build_field(3, 2, modulus=(2, 1, 1)) is build_field(3, 2, modulus=(2, 1, 1))


def test_fields_and_elements_survive_pickling():
    for p, k in [(3, 2), (2, 17)]:
        F = build_field(p, k)
        a = F.from_index(F.order - 2)
        b = pickle.loads(pickle.dumps(a))
        assert b == a and b.spec is F
        assert b * b.inverse() == F.one()
    assert pickle.loads(pickle.dumps(build_field(3, 2, modulus=(2, 1, 1)))) == build_field(3, 2, modulus=(2, 1, 1))


def test_two_moduli_give_two_fields():
    a = build_field(3, 2)  # X^2 + 1
    b = build_field(3, 2, modulus=(2, 1, 1))
    assert a is not b and a != b
    with pytest.raises(SpecMismatchError):
        a.one() + b.one()
    with pytest.raises(SpecMismatchError):
        a.from_index(4) * b.from_index(4)
    with pytest.raises(SpecMismatchError):
        a.element(b.one())


def test_memoized_field_still_checks_the_size_limit(monkeypatch):
    build_field(2, 5)
    monkeypatch.setattr("ffdecomp.limits.MAX_ORDER", 16)
    with pytest.raises(SizeLimitError):
        build_field(2, 5)


# -- the modulus search --------------------------------------------------


def _upoly_irreducible(coeffs, p):
    # degree 1 needs no field, which spares building the tables of F_p for
    # each of the ~1900 primes the full scan meets at k = 1
    return len(coeffs) == 2 or upoly.is_irreducible(upoly.Poly.from_ints(build_field(p), coeffs))


def test_brute_force_oracle_matches_upoly_irreducibility():
    # every monic polynomial of degree 1..6 over F_2, 1..4 over F_3, 1..3 over F_5
    checked = 0
    for p, top in ((2, 6), (3, 4), (5, 3)):
        for k in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=k):
                f = tail + (1,)
                assert _upoly_irreducible(f, p) == brute_force_irreducible(f, p), (p, f)
                checked += 1
    assert checked == 126 + 120 + 155


def _modulus_by_full_scan(p, k):
    """The search before it skipped the candidates with constant term 0."""
    for j in range(p**k):
        digits = []
        t = j
        for pos in range(k - 1, -1, -1):
            digits.append(t // p**pos)
            t %= p**pos
        if digits[0] == 0 and k > 1:
            continue
        f = digits + [1]
        if _upoly_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def test_modulus_search_matches_the_full_scan():
    checked = 0
    for p in (q for q in range(2, 1 << 14) if is_prime(q)):
        k = 1
        while p**k <= 1 << 14:
            assert _lex_smallest_irreducible(p, k) == _modulus_by_full_scan(p, k), (p, k)
            checked += 1
            k += 1
    assert checked > 1900


# (p, k) -> the default modulus, constant term first, for fields beyond the full scan
PINNED_MODULI = {
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (2, 20): tuple(int(i in (0, 17, 20)) for i in range(21)),
    (2, 24): tuple(int(i in (0, 20, 21, 23, 24)) for i in range(25)),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
    (5, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (7, 7): (1, 0, 0, 0, 0, 0, 6, 1),
    (13, 6): (1, 0, 0, 0, 0, 1, 1),
    (101, 3): (1, 0, 1, 1),
    (8191, 2): (1, 0, 1),
}


@pytest.mark.parametrize("p,k", list(PINNED_MODULI), ids=lambda v: str(v))
def test_modulus_search_is_pinned_above_the_full_scan(p, k):
    assert _lex_smallest_irreducible(p, k) == PINNED_MODULI[(p, k)]


def test_reducible_explicit_modulus_of_degree_twenty():
    # m(X)^2 = m(X^2) over F_2 for the default degree-10 modulus m: no roots, not irreducible
    m = build_field(2, 10).modulus
    square = [0] * 21
    for i, c in enumerate(m):
        square[2 * i] = c
    with pytest.raises(ValidationError, match="reducible"):
        build_field(2, 20, modulus=tuple(square))


def test_size_guard_runs_before_the_primality_test(monkeypatch):
    calls = []
    monkeypatch.setattr(gf_core, "is_prime", lambda n: calls.append(n) or True)
    with pytest.raises(SizeLimitError):
        build_field(2**4423 - 1)
    with pytest.raises(SizeLimitError):
        build_field(2, 10**100)  # refused without forming 2^(10^100)
    assert calls == []
    monkeypatch.setattr(limits, "MAX_ORDER", 16)
    with pytest.raises(SizeLimitError):
        build_field(17)
    with pytest.raises(SizeLimitError):
        build_field(2, 5)
    assert calls == []
    assert build_field(2, 4).order == 16 and calls == [2]
