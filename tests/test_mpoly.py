"""Sparse exact multivariate polynomial arithmetic."""

import random
from fractions import Fraction
from operator import add

import pytest

from covforge import mpoly
from covforge.mpoly import (MAX_EXPONENT, VAR_NAMES, MPoly, exponents,
                            pack_exponents, pack_powers, var_slot)
from covforge.scalar import CycScalar


def test_one_fixed_variable_order_with_slot_lookup():
    for name in ("x1", "x9", "s0", "s5", "eps", "r1", "y12",
                 "alpha3", "mu8", "a", "t", "z1", "z2"):
        assert VAR_NAMES.count(name) == 1
    assert len(set(VAR_NAMES)) == len(VAR_NAMES)
    for k, name in enumerate(VAR_NAMES):
        assert var_slot(name) == k
        assert MPoly.var(name).coeff({name: 1}) == 1
    with pytest.raises(KeyError, match="unknown variable 'u'"):
        MPoly.var("u")


def test_ring_operations_satisfy_distributivity():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    left = (x + y) * (x - y)
    right = x * x - y * y
    assert left == right
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1


def test_constant_and_zero_predicates():
    x = MPoly.var("x1")
    assert MPoly.zero().is_zero()
    assert MPoly.const(Fraction(5, 3)).variables() == set()
    assert MPoly.const(Fraction(5, 3)).evaluate({}) == Fraction(5, 3)
    assert x.variables() == {"x1"}
    assert (x - x).is_zero()


def test_degree_bookkeeping():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    p = x ** 3 * y + y ** 2
    assert p.variables() == {"x1", "x2"}


def test_coefficient_extraction():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    p = 7 * x ** 2 * y - Fraction(1, 2) * y
    assert p.coeff({"x1": 2, "x2": 1}) == 7
    assert p.coeff({"x2": 1}) == Fraction(-1, 2)
    assert p.coeff({"x1": 1}) == 0


def test_differentiation_is_a_derivation():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    f = x ** 2 * y
    g = x + y ** 3
    product_rule = (f * g).diff("x1")
    assert product_rule == f.diff("x1") * g + f * g.diff("x1")
    assert MPoly.const(4).diff("x1").is_zero()


def test_substitution_composes_polynomials():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    p = x ** 2 + y
    q = p.substitute({"x1": y + 1})
    assert q == y ** 2 + 3 * y + 1
    # numeric bindings collapse to constants
    assert p.substitute({"x1": 2, "x2": Fraction(1, 2)}).evaluate({}) \
        == Fraction(9, 2)


def test_quadratic_reduction_rewrites_even_powers():
    a, t = MPoly.var("a"), MPoly.var("t")
    # reduce a^2 -> t everywhere: a^5 = a * (a^2)^2 -> a * t^2
    p = a ** 5 + a ** 2
    reduced = p.reduce_quadratic("a", t)
    assert reduced == a * t ** 2 + t


def test_exact_evaluation_over_the_cyclotomic_field():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    i = CycScalar.i()
    p = x ** 2 + i * y
    exact = p.evaluate({"x1": Fraction(3), "x2": Fraction(2)})
    assert exact == CycScalar(9) + i * 2


def test_sorted_terms_are_canonical_and_stable():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    p = y + x + x * y
    terms = p.sorted_terms()
    assert terms == sorted(terms, key=lambda item: terms.index(item))
    assert len(terms) == 3
    # graded order: the quadratic term precedes the linear ones
    assert sum(terms[0][0]) == 2



# ---------------------------------------------------------------------------
# Oracles: exponent-tuple monomials, multiplied slot by slot, and
# evaluation as a substitution of every variable.

def tuple_terms(p):
    """p's terms in their order, each monomial as an exponent tuple."""
    return {exponents(m): c for m, c in p.terms.items()}


def add_oracle(a, b):
    acc = dict(a)
    for mono, c in b.items():
        cur = acc.get(mono)
        nc = c if cur is None else cur + c
        if not nc:
            acc.pop(mono, None)
        else:
            acc[mono] = nc
    return acc


def mul_oracle(a, b):
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(map(add, m1, m2))
            c = c1 * c2
            cur = acc.get(mono)
            nc = c if cur is None else cur + c
            if not nc:
                acc.pop(mono, None)
            else:
                acc[mono] = nc
    return acc


def pow_oracle(a, exponent):
    out, base, e = {(0,) * len(VAR_NAMES): Fraction(1)}, a, exponent
    while e:
        if e & 1:
            out = mul_oracle(out, base)
        base = mul_oracle(base, base) if e > 1 else base
        e >>= 1
    return out


def diff_oracle(a, name):
    idx = var_slot(name)
    acc = {}
    for mono, c in a.items():
        if mono[idx]:
            m = list(mono)
            m[idx] -= 1
            acc[tuple(m)] = c * mono[idx]
    return acc


def substitute_oracle(a, bindings):
    polys = {var_slot(n): tuple_terms(p) for n, p in bindings.items()}
    total = {}
    for mono, c in a.items():
        rest = list(mono)
        piece = None
        for idx, poly in polys.items():
            if mono[idx]:
                rest[idx] = 0
                p = pow_oracle(poly, mono[idx])
                piece = p if piece is None else mul_oracle(piece, p)
        term = {tuple(rest): c}
        total = add_oracle(total,
                           term if piece is None else mul_oracle(term, piece))
    return total


def evaluate_oracle(p, assignment):
    return p.substitute({n: assignment[n]
                         for n in p.variables()}).evaluate({})


NAMES = ("x1", "x2", "s0", "eps", "alpha2", "z2")


def random_scalar(rng):
    r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return r * rng.choice([1, CycScalar.i(), CycScalar.zeta()])


def random_poly(rng, names=NAMES, max_terms=5):
    p = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = MPoly.const(random_scalar(rng))
        for name in rng.sample(names, rng.randint(0, 3)):
            term = term * MPoly.var(name) ** rng.randint(1, 3)
        p = p + term
    return p


def rational_poly(rng, names=("x1", "x2", "s0"), max_terms=5):
    """Rational coefficients on few variables of low degree, so that
    products often put several terms on one monomial and sometimes
    cancel one."""
    p = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        p = p + MPoly({pack_powers({n: rng.randint(0, 2) for n in names}): c})
    return p


def test_packed_monomials_match_the_tuple_oracle_in_value_and_order():
    rng = random.Random("packed-monomials")
    for _ in range(150):
        f, g = random_poly(rng), random_poly(rng)
        tf, tg = tuple_terms(f), tuple_terms(g)
        assert list(tuple_terms(f * g).items()) == \
            list(mul_oracle(tf, tg).items())
        assert list(tuple_terms(f + g).items()) == \
            list(add_oracle(tf, tg).items())
        name = rng.choice(NAMES)
        assert list(tuple_terms(f.diff(name)).items()) == \
            list(diff_oracle(tf, name).items())
        bindings = {n: random_poly(rng, max_terms=2)
                    for n in rng.sample(NAMES, 2)}
        assert list(tuple_terms(f.substitute(bindings)).items()) == \
            list(substitute_oracle(tf, bindings).items())
        assert f.sorted_terms() == sorted(
            tf.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
        assert all(pack_exponents(exponents(m)) == m for m in f.terms)


def test_evaluation_matches_the_substitution_oracle():
    rng = random.Random("evaluation")
    for _ in range(150):
        p = random_poly(rng)
        point = {n: random_scalar(rng) for n in NAMES}
        got = p.evaluate(point)
        want = evaluate_oracle(p, point)
        assert got == want
        if not want:
            assert type(got) is Fraction
    # rational terms at a rational point: the int path
    for _ in range(100):
        p = rational_poly(rng)
        point = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for n in NAMES}
        got = p.evaluate(point)
        assert got == evaluate_oracle(p, point) and type(got) is Fraction
    x1, x2 = MPoly.var("x1"), MPoly.var("x2")
    i = CycScalar.i()
    zero = (x1 - i * x2).evaluate({"x1": i, "x2": 1})
    assert zero == evaluate_oracle(x1 - i * x2, {"x1": i, "x2": 1})
    assert type(zero) is Fraction and zero == 0
    assert MPoly.zero().evaluate({}) == Fraction(0)
    with pytest.raises(KeyError):
        (x1 + x2).evaluate({"x1": 1})


def counting_int_products(monkeypatch):
    """Count the products that take the int numerator path: each puts
    both factors over their least common denominators."""
    calls = []
    real = mpoly._over_lcm

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mpoly, "_over_lcm", counted)
    return calls


def test_the_rational_product_matches_the_scalar_loop(monkeypatch):
    calls = counting_int_products(monkeypatch)
    rng = random.Random("rational-product")
    x1, x2 = MPoly.var("x1"), MPoly.var("x2")
    cancelled = 0
    for _ in range(300):
        f, g = rational_poly(rng), rational_poly(rng)
        for a, b in ((f, g), (f - g, f + g), (f, -f), (f, MPoly.const(3)),
                     (f, MPoly.zero()), (MPoly.const(Fraction(1, 2)), g)):
            want = mul_oracle(tuple_terms(a), tuple_terms(b))
            got = a * b
            assert list(tuple_terms(got).items()) == list(want.items())
            assert all(got.terms.values())
            assert all(type(c) is Fraction for c in got.terms.values())
            monos = {m1 + m2 for m1 in a.terms for m2 in b.terms}
            cancelled += len(got.terms) < len(monos)
    # (x1 - x2)(x1 + x2): the two mixed terms cancel, and none is stored
    diff = (x1 - x2) * (x1 + x2)
    assert list(tuple_terms(diff).items()) == list(mul_oracle(
        tuple_terms(x1 - x2), tuple_terms(x1 + x2)).items())
    assert diff == x1 ** 2 - x2 ** 2 and len(diff.terms) == 2
    assert cancelled > 100 and len(calls) > 2 * 600


def test_a_product_with_a_cyclotomic_coefficient_keeps_its_types(monkeypatch):
    calls = counting_int_products(monkeypatch)
    rng = random.Random("mixed-product")
    i = CycScalar.i()
    for _ in range(200):
        f, g = rational_poly(rng), rational_poly(rng)
        h = g + i * MPoly.var("x2")
        for a, b in ((f, h), (h, f), (h, h), (f * i, g)):
            want = mul_oracle(tuple_terms(a), tuple_terms(b))
            got = a * b
            assert list(tuple_terms(got).items()) == list(want.items())
            assert [type(c) for c in got.terms.values()] == \
                [type(c) for c in want.values()]
    # a rational-valued CycScalar coefficient keeps its type too
    half = MPoly.const(CycScalar(Fraction(1, 2)))
    prod = (half + MPoly.var("x1")) * (MPoly.var("x1") + 1)
    assert type(prod.coeff({})) is CycScalar
    assert type(prod.coeff({"x1": 2})) is Fraction
    assert not calls


def test_an_exponent_past_the_slot_width_raises(monkeypatch):
    x1, x2 = MPoly.var("x1"), MPoly.var("x2")
    top = x1 ** MAX_EXPONENT
    assert top.coeff({"x1": MAX_EXPONENT}) == 1
    assert (top * x2).coeff({"x1": MAX_EXPONENT, "x2": 1}) == 1
    with pytest.raises(OverflowError, match="x1"):
        top * x1
    # the same overflow in a product of rational many-term factors, which
    # accumulates on int numerators
    calls = counting_int_products(monkeypatch)
    with pytest.raises(OverflowError, match="x1"):
        (top + x2) * (x1 + x2)
    assert len(calls) == 2
    assert ((top + x2) * (x2 + 1)).coeff({"x1": MAX_EXPONENT, "x2": 1}) == 1
    with pytest.raises(OverflowError, match="x2"):
        x2 ** (MAX_EXPONENT + 1)
    exps = [0] * len(VAR_NAMES)
    exps[var_slot("z2")] = MAX_EXPONENT + 1
    with pytest.raises(OverflowError, match="z2"):
        pack_exponents(exps)
