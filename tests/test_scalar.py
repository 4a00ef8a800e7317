"""Arithmetic of the degree-four cyclotomic scalar field."""

import cmath
import random
from fractions import Fraction

import pytest

from covforge.mpoly import MPoly
from covforge.scalar import (CycScalar, as_cyc, as_exact, fraction_parts,
                             from_numerators, numerator_columns, numerators,
                             over_common_denominator)

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
    assert SQRT2 * SQRT2 == CycScalar(2)
    # zeta + zeta^7 is the real embedding of sqrt(2)
    assert ZETA + ZETA ** 7 == SQRT2


def test_coords_round_trip():
    v = CycScalar(Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(7, 5))
    assert CycScalar(*v.coords) == v


def test_rational_detection():
    assert CycScalar(Fraction(22, 7)).is_rational()
    assert CycScalar(Fraction(22, 7)).coords[0] == Fraction(22, 7)
    assert not I.is_rational()


def test_inverse_of_a_mixed_element():
    v = CycScalar(Fraction(2), Fraction(1), Fraction(0), Fraction(-3))
    assert v * v.inverse() == ONE
    assert ZETA.inverse() == -ZETA ** 3
    assert I.inverse() == -I
    assert SQRT2.inverse() == SQRT2 * Fraction(1, 2)
    assert (ONE + I).inverse() == (ONE - I) * Fraction(1, 2)
    assert (ONE + ZETA) * (ONE + ZETA).inverse() == ONE
    assert CycScalar(3).inverse() == CycScalar(Fraction(1, 3))
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero().inverse()


def test_conjugation_is_multiplicative_and_fixes_rationals():
    a = CycScalar(Fraction(1), Fraction(2), Fraction(-1), Fraction(0))
    b = CycScalar(Fraction(0), Fraction(-1), Fraction(3), Fraction(5))
    assert (a * b).conj() == a.conj() * b.conj()
    assert CycScalar(9).conj() == CycScalar(9)
    assert I.conj() == -I


def test_embedding_matches_algebra():
    a = CycScalar(Fraction(1), Fraction(2), Fraction(-1), Fraction(0))
    b = CycScalar(Fraction(0), Fraction(-1), Fraction(3), Fraction(5))
    lhs = complex(a * b)
    rhs = complex(a) * complex(b)
    assert abs(lhs - rhs) < 1e-12
    assert abs(complex(I) - 1j) < 1e-15
    assert abs(complex(SQRT2) - 2 ** 0.5) < 1e-15


def test_helper_wrappers_accept_plain_rationals():
    assert not Fraction(0)
    assert Fraction(1, 3)
    assert Fraction(2) ** -1 == Fraction(1, 2)
    assert as_cyc(Fraction(4)) == CycScalar(4)
    assert as_exact(4) == Fraction(4) and isinstance(as_exact(4), Fraction)
    assert as_exact(I) is I
    with pytest.raises(TypeError):
        as_exact(0.5)
    assert complex(Fraction(1, 4)) == 0.25


# Each case: the scalar and the float.hex parts of its complex embedding.
_PROTOCOL_CASES = {
    "0": (Fraction(0), "0x0.0p+0", "0x0.0p+0"),
    "1/3": (Fraction(1, 3), "0x1.5555555555555p-2", "0x0.0p+0"),
    "-5/4": (Fraction(-5, 4), "-0x1.4000000000000p+0", "0x0.0p+0"),
    "cyc 0": (CycScalar.zero(), "0x0.0p+0", "0x0.0p+0"),
    "cyc 7/2": (CycScalar(Fraction(7, 2)), "0x1.c000000000000p+1",
                "0x0.0p+0"),
    "zeta": (ZETA, "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bccp-1"),
    "i": (I, "0x0.0p+0", "0x1.0000000000000p+0"),
    "sqrt2": (SQRT2, "0x1.6a09e667f3bccp+0", "-0x1.0000000000000p-53"),
    "1+i": (ONE + I, "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "3-zeta^3": (3 - ZETA ** 3, "0x1.da827999fcef3p+1",
                 "-0x1.6a09e667f3bcdp-1"),
}


@pytest.mark.parametrize("case", list(_PROTOCOL_CASES))
def test_exact_scalars_answer_zero_inverse_and_embedding_by_protocol(case):
    x, re_hex, im_hex = _PROTOCOL_CASES[case]
    # zero test: `not x`
    assert bool(x) == (x != 0)
    # inverse: `x ** -1`, in the scalar's own domain
    if x:
        inv = x ** -1
        assert type(inv) is type(x)
        assert x * inv == 1
    else:
        with pytest.raises(ZeroDivisionError):
            x ** -1
    # complex value: `complex(x)`, pinned bit for bit
    z = complex(x)
    assert (z.real.hex(), z.imag.hex()) == (re_hex, im_hex)


# -- the integer form against a four-Fraction reference model -------------

def _ref_mul(a, b):
    """Product of coordinate tuples by the plain convolution, z^4 = -1."""
    acc = [Fraction(0)] * 4
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j < 4:
                acc[i + j] += ca * cb
            else:
                acc[i + j - 4] -= ca * cb
    return tuple(acc)


def _ref_inverse(a):
    s = (a[0], -a[1], a[2], -a[3])
    b0, _, b2, _ = _ref_mul(a, s)
    norm = b0 * b0 + b2 * b2
    return _ref_mul(s, (b0 / norm, 0, -b2 / norm, 0))


def _ref_str(c):
    out = ""
    for v, name in zip(c, ("", "w", "i", "w^3")):
        if not v:
            continue
        body = (str(abs(v)) if not name else
                name if abs(v) == 1 else f"{abs(v)}*{name}")
        if not out:
            out = "-" + body if v < 0 else body
        else:
            out += (" - " if v < 0 else " + ") + body
    return out or "0"


def _check_against_reference(x, c):
    """x is a CycScalar whose exact value has coordinates c."""
    c = tuple(map(Fraction, c))
    coords = x.coords
    assert coords == c and all(type(v) is Fraction for v in coords)
    assert x == CycScalar(*c)
    assert bool(x) == any(c)
    assert hash(x) == (hash(c[0]) if not any(c[1:])
                       else hash(CycScalar(*c)))
    assert str(x) == _ref_str(c)
    assert repr(x) == f"CycScalar({c[0]}, {c[1]}, {c[2]}, {c[3]})"
    z = complex(x)
    ref = 0j
    zeta = cmath.exp(1j * cmath.pi / 4)
    for v, zp in zip(c, (1.0 + 0j, zeta, 1j, zeta * 1j)):
        if v:
            ref += float(v) * zp
    assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())


# Denominators are drawn from products of small primes, so that two of them
# usually share a factor, and now and then times 3^45 > 2^64.
def _random_coords(rng):
    out = []
    for _ in range(4):
        kind = rng.random()
        if kind < 0.25:
            out.append(Fraction(0))
            continue
        span = 2 ** 70 if kind > 0.85 else 20
        den = (2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 2)
               * rng.choice((1, 1, 5, 7, 3 ** 45)))
        out.append(Fraction(rng.randint(-span, span), den))
    return tuple(out)


def test_integer_form_matches_the_fraction_reference_model():
    rng = random.Random(2024)
    coords = [_random_coords(rng) for _ in range(2000)]
    assert any(abs(v.numerator) > 2 ** 64 for c in coords for v in c)
    elems = [CycScalar(*c) for c in coords]
    for i in range(0, len(elems), 2):
        x, y, cx, cy = elems[i], elems[i + 1], coords[i], coords[i + 1]
        _check_against_reference(x, cx)
        _check_against_reference(x + y, tuple(a + b for a, b in zip(cx, cy)))
        _check_against_reference(x - y, tuple(a - b for a, b in zip(cx, cy)))
        _check_against_reference(-x, tuple(-a for a in cx))
        _check_against_reference(x * y, _ref_mul(cx, cy))
        _check_against_reference(x.conj(), (cx[0], -cx[3], -cx[2], -cx[1]))
        assert (x == y) == (cx == cy)
        square = _ref_mul(cx, cx)
        _check_against_reference(x ** 0, (1, 0, 0, 0))
        _check_against_reference(x ** 2, square)
        _check_against_reference(x ** 3, _ref_mul(square, cx))
        if x:
            inverse = _ref_inverse(cx)
            _check_against_reference(x ** -1, inverse)
            _check_against_reference(x.inverse(), inverse)
        else:
            with pytest.raises(ZeroDivisionError):
                x ** -1
        # one value reached two ways is one canonical form
        assert x + y - y == x and hash(x + y - y) == hash(x)
        if y:
            assert (x * y) * y ** -1 == x
            assert hash((x * y) * y ** -1) == hash(x)
        if i % 20:
            continue
        # int and Fraction operands on either side
        for q in (0, 3, -2, Fraction(-7, 12), Fraction(2 ** 65, 9)):
            cq = (Fraction(q), 0, 0, 0)
            _check_against_reference(x + q, tuple(a + b for a, b in zip(cx, cq)))
            _check_against_reference(q + x, tuple(a + b for a, b in zip(cq, cx)))
            _check_against_reference(x - q, tuple(a - b for a, b in zip(cx, cq)))
            _check_against_reference(q - x, tuple(a - b for a, b in zip(cq, cx)))
            _check_against_reference(x * q, _ref_mul(cx, cq))
            _check_against_reference(q * x, _ref_mul(cq, cx))
            assert (x == q) == (q == x) == (cx == cq)


def test_rational_elements_hash_and_compare_as_their_fractions():
    for q in (Fraction(3, 4), Fraction(-5, 6), Fraction(0), Fraction(2 ** 70, 3)):
        x = CycScalar(q)
        assert x == q and q == x and hash(x) == hash(q)
        assert x.is_rational()
    assert hash(CycScalar(7)) == hash(7) and CycScalar(7) == 7
    assert CycScalar(Fraction(1, 2)) + Fraction(1, 2) == 1
    assert hash(CycScalar(Fraction(1, 2)) + Fraction(1, 2)) == hash(1)


def test_constructor_rejects_inexact_coordinates():
    with pytest.raises(TypeError):
        CycScalar(0.5)
    with pytest.raises(TypeError):
        CycScalar(1, 2, 3, 1j)
    with pytest.raises(TypeError):
        as_cyc(0.25)


def test_numerators_over_one_denominator_round_trip():
    half, third = Fraction(1, 2), Fraction(-2, 3)
    # rational values, rational-valued CycScalars among them: one column
    values = [half, CycScalar(third), Fraction(0), 5]
    cols, d = numerator_columns(values)
    assert d == 6 and cols == [[3, -4, 0, 30]]
    assert over_common_denominator(values) == ([3, -4, 0, 30], 6)
    assert [from_numerators([n], d) for n in cols[0]] == values
    # one irrational value: four columns, over the same denominator
    values = [half, CycScalar(0, third, 0, 1), I]
    cols, d = numerator_columns(values)
    assert d == 6 and cols == [[3, 0, 0], [0, -4, 0], [0, 0, 6], [0, 6, 0]]
    assert [from_numerators([c[k] for c in cols], d)
            for k in range(3)] == values
    assert over_common_denominator(values) == (values, 1)
    # not exact scalars: the kernels fall back
    poly = [half, MPoly.var("x1")]
    assert numerator_columns(poly) is None
    assert over_common_denominator(poly) == (poly, 1)
    # one scalar, and the canonical form of what comes back
    assert numerators(CycScalar(third)) == ([-2], 3)
    assert numerators(half * ZETA) == ([0, 1, 0, 0], 2)
    assert numerators(7) == ([7], 1)
    back = from_numerators([2, 4, 0, -6], 4)
    assert type(back) is CycScalar
    assert back == CycScalar(half, 1, 0, Fraction(-3, 2))
    zero = from_numerators([0], 5)
    assert type(zero) is CycScalar and zero == 0 and not zero
    # Fraction pairs for ints and Fractions only: a rational-valued
    # CycScalar keeps its own arithmetic
    assert fraction_parts([half, 3]) == [(1, 2), (3, 1)]
    assert fraction_parts([half, CycScalar(half)]) is None


def test_equal_values_hash_equal():
    # a rational element, however it is reached, hashes as its Fraction
    half = Fraction(1, 2)
    assert hash(CycScalar(half)) == hash(half)
    assert SQRT2 * SQRT2 * Fraction(1, 4) == half
    assert hash(SQRT2 * SQRT2 * Fraction(1, 4)) == hash(half)
    # sqrt(2)/3 from its coordinates and as (zeta + zeta^7) * 2/6
    direct = CycScalar(0, Fraction(1, 3), 0, Fraction(-1, 3))
    product = (ZETA + ZETA ** 7) * Fraction(2, 6)
    assert direct == product and hash(direct) == hash(product)
    assert len({direct, product, SQRT2 * Fraction(1, 3)}) == 1
