"""Arithmetic of the degree-four cyclotomic scalar field."""

from fractions import Fraction

import pytest

from covforge.scalar import (CycScalar, as_cyc, as_exact, embed_complex,
                             scalar_inverse, scalar_is_zero)

ZETA = CycScalar.zeta()
I = CycScalar.i()
SQRT2 = CycScalar.sqrt2()
ONE = CycScalar.one()


def test_zeta_is_a_primitive_eighth_root():
    assert ZETA ** 8 == ONE
    assert ZETA ** 4 == -ONE
    assert ZETA ** 2 == I
    for k in range(1, 8):
        assert ZETA ** k != ONE


def test_imaginary_unit_squares_to_minus_one():
    assert I * I == -ONE


def test_square_root_of_two():
    assert SQRT2 * SQRT2 == CycScalar.from_rat(2)
    # zeta + zeta^7 is the real embedding of sqrt(2)
    assert ZETA + ZETA ** 7 == SQRT2


def test_coords_round_trip():
    v = CycScalar(Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(7, 5))
    assert CycScalar(*v.coords) == v


def test_rational_detection():
    assert CycScalar.from_rat(Fraction(22, 7)).is_rational()
    assert CycScalar.from_rat(Fraction(22, 7)).coords[0] == Fraction(22, 7)
    assert not I.is_rational()


def test_inverse_of_a_mixed_element():
    v = CycScalar(Fraction(2), Fraction(1), Fraction(0), Fraction(-3))
    assert v * v.inverse() == ONE
    assert ZETA.inverse() == -ZETA ** 3
    assert I.inverse() == -I
    assert SQRT2.inverse() == SQRT2 * Fraction(1, 2)
    assert (ONE + I).inverse() == (ONE - I) * Fraction(1, 2)
    assert (ONE + ZETA) * (ONE + ZETA).inverse() == ONE
    assert CycScalar.from_rat(3).inverse() == CycScalar.from_rat(Fraction(1, 3))
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero().inverse()


def test_conjugation_is_multiplicative_and_fixes_rationals():
    a = CycScalar(Fraction(1), Fraction(2), Fraction(-1), Fraction(0))
    b = CycScalar(Fraction(0), Fraction(-1), Fraction(3), Fraction(5))
    assert (a * b).conj() == a.conj() * b.conj()
    assert CycScalar.from_rat(9).conj() == CycScalar.from_rat(9)
    assert I.conj() == -I


def test_embedding_matches_algebra():
    a = CycScalar(Fraction(1), Fraction(2), Fraction(-1), Fraction(0))
    b = CycScalar(Fraction(0), Fraction(-1), Fraction(3), Fraction(5))
    lhs = (a * b).embed()
    rhs = a.embed() * b.embed()
    assert abs(lhs - rhs) < 1e-12
    assert abs(I.embed() - 1j) < 1e-15
    assert abs(SQRT2.embed() - 2 ** 0.5) < 1e-15


def test_helper_wrappers_accept_plain_rationals():
    assert scalar_is_zero(Fraction(0))
    assert not scalar_is_zero(Fraction(1, 3))
    assert scalar_inverse(Fraction(2)) == Fraction(1, 2)
    assert as_cyc(Fraction(4)) == CycScalar.from_rat(4)
    assert as_exact(4) == Fraction(4) and isinstance(as_exact(4), Fraction)
    assert as_exact(I) is I
    with pytest.raises(TypeError):
        as_exact(0.5)
    assert embed_complex(Fraction(1, 4)) == 0.25
