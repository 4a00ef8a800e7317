"""Sparse exact multivariate polynomial arithmetic."""

from fractions import Fraction

import pytest

from covforge.mpoly import VAR_NAMES, MPoly, poly_vars, var_slot
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
    x, y = poly_vars("x1", "x2")
    left = (x + y) * (x - y)
    right = x * x - y * y
    assert left == right
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1


def test_constant_and_zero_predicates():
    x = MPoly.var("x1")
    assert MPoly.zero().is_zero()
    assert MPoly.const(Fraction(5, 3)).is_constant()
    assert MPoly.const(Fraction(5, 3)).constant_value() == Fraction(5, 3)
    assert not x.is_constant()
    assert (x - x).is_zero()


def test_degree_bookkeeping():
    x, y = poly_vars("x1", "x2")
    p = x ** 3 * y + y ** 2
    assert p.variables() == {"x1", "x2"}


def test_coefficient_extraction():
    x, y = poly_vars("x1", "x2")
    p = 7 * x ** 2 * y - Fraction(1, 2) * y
    assert p.coeff({"x1": 2, "x2": 1}) == 7
    assert p.coeff({"x2": 1}) == Fraction(-1, 2)
    assert p.coeff({"x1": 1}) == 0


def test_differentiation_is_a_derivation():
    x, y = poly_vars("x1", "x2")
    f = x ** 2 * y
    g = x + y ** 3
    product_rule = (f * g).diff("x1")
    assert product_rule == f.diff("x1") * g + f * g.diff("x1")
    assert MPoly.const(4).diff("x1").is_zero()


def test_substitution_composes_polynomials():
    x, y = poly_vars("x1", "x2")
    p = x ** 2 + y
    q = p.substitute({"x1": y + 1})
    assert q == y ** 2 + 3 * y + 1
    # numeric bindings collapse to constants
    assert p.substitute({"x1": 2, "x2": Fraction(1, 2)}).constant_value() \
        == Fraction(9, 2)


def test_quadratic_reduction_rewrites_even_powers():
    a, t = poly_vars("a", "t")
    # reduce a^2 -> t everywhere: a^5 = a * (a^2)^2 -> a * t^2
    p = a ** 5 + a ** 2
    reduced = p.reduce_quadratic("a", t)
    assert reduced == a * t ** 2 + t


def test_exact_evaluation_over_the_cyclotomic_field():
    x, y = poly_vars("x1", "x2")
    i = CycScalar.i()
    p = x ** 2 + i * y
    exact = p.evaluate({"x1": Fraction(3), "x2": Fraction(2)})
    assert exact == CycScalar.from_rat(9) + i * 2


def test_sorted_terms_are_canonical_and_stable():
    x, y = poly_vars("x1", "x2")
    p = y + x + x * y
    terms = p.sorted_terms()
    assert terms == sorted(terms, key=lambda item: terms.index(item))
    assert len(terms) == 3
    # graded order: the quadratic term precedes the linear ones
    assert sum(terms[0][0]) == 2

