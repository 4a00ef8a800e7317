"""Exact scalar arithmetic: rationals and the degree-4 cyclotomic field Q(zeta_8).

Every coefficient that enters a symbolic check lives in one of two exact
domains: `Rat` (arbitrary-precision reduced rationals, provided by the
standard library) or `CycScalar`, an element of Q(zeta_8) stored on the
power basis {1, z, z^2, z^3} with z^4 = -1.  The square root of 2 and the
imaginary unit both live in this field: i = z^2 and sqrt(2) = z - z^3.

A `CycScalar` holds four int numerators over one positive int common
denominator, (n0 + n1 z + n2 z^2 + n3 z^3) / d, in canonical form:
gcd(n0, n1, n2, n3, d) == 1, and zero is (0, 0, 0, 0) / 1.  Every
operation reduces its result once, so `==` compares the ints directly.
`coords` gives the four coordinates as reduced Fractions, built on demand.

Both domains answer the three questions the other layers ask of a
scalar through Python's own protocols: `not x` tests for zero, `x ** -1`
inverts (raising ZeroDivisionError at zero), and `complex(x)` is the
complex embedding sending z to exp(i*pi/4).  This module alone decides
what counts as an exact scalar, through `as_exact` and `as_cyc`, and it
alone reads their int numerators, which the int kernels of the other
layers get from `numerators`, `numerator_columns`, `fraction_parts` and
`over_common_denominator` and hand back through `from_numerators`.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

# Arbitrary-precision rational scalars.  Always reduced, denominator > 0.
Rat = Fraction

RatLike = Union[int, Fraction]

# Primitive 8th root of unity used by the complex embedding.
_ZETA_C = cmath.exp(1j * cmath.pi / 4)
_ZETA_POWERS = (1.0 + 0j, _ZETA_C, 1j, _ZETA_C * 1j)


def _rat_parts(value: RatLike) -> tuple[int, int]:
    """Numerator and positive denominator of an int or a reduced Fraction."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"not an exact rational: {value!r}")


_new = object.__new__


class CycScalar:
    """Element of Q(zeta_8) on the power basis {1, z, z^2, z^3}, z^4 = -1.

    Stored as four int numerators over one positive int denominator,
    (n0 + n1 z + n2 z^2 + n3 z^3) / d, in canonical form:
    gcd(n0, n1, n2, n3, d) == 1, and zero is (0, 0, 0, 0) / 1.  So two
    elements are equal exactly when their fields are.  `coords` gives the
    four coordinates as reduced Fractions.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, c0: RatLike = 0, c1: RatLike = 0, c2: RatLike = 0,
                 c3: RatLike = 0) -> None:
        (p0, q0), (p1, q1), (p2, q2), (p3, q3) = map(_rat_parts,
                                                     (c0, c1, c2, c3))
        # Reduced coordinates over their least common denominator are
        # already canonical: a prime power dividing d exactly divides some
        # q_k, whose numerator p_k the prime does not divide.
        d = lcm(q0, q1, q2, q3)
        self._n = (p0 * (d // q0), p1 * (d // q1), p2 * (d // q2),
                   p3 * (d // q3))
        self._d = d

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> CycScalar:
        return _ZERO

    @classmethod
    def one(cls) -> CycScalar:
        return _ONE

    @classmethod
    def zeta(cls) -> CycScalar:
        return _GEN

    @classmethod
    def i(cls) -> CycScalar:
        """The imaginary unit, z^2."""
        return _I

    @classmethod
    def sqrt2(cls) -> CycScalar:
        """The positive square root of 2, namely z - z^3."""
        return _SQRT2

    # -- predicates / coordinates ----------------------------------------

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    def __bool__(self) -> bool:
        return any(self._n)

    def is_rational(self) -> bool:
        _, n1, n2, n3 = self._n
        return not (n1 or n2 or n3)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        (a0, a1, a2, a3), da = self._n, self._d
        (b0, b1, b2, b3), db = o._n, o._d
        if da == db:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _make(a0 * db + b0 * da, a1 * db + b1 * da,
                     a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        (a0, a1, a2, a3), da = self._n, self._d
        (b0, b1, b2, b3), db = o._n, o._d
        if da == db:
            return _make(a0 - b0, a1 - b1, a2 - b2, a3 - b3, da)
        return _make(a0 * db - b0 * da, a1 * db - b1 * da,
                     a2 * db - b2 * da, a3 * db - b3 * da, da * db)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self) -> CycScalar:
        a0, a1, a2, a3 = self._n
        return _raw((-a0, -a1, -a2, -a3), self._d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = o._n
        # Convolution with the reduction z^(k+4) = -z^k.
        return _make(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                     a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                     a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                     self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        """Multiplicative inverse in closed form.

        With s the image of x under z -> -z, the product x*s is fixed by
        that automorphism, so it is (b0 + b2*i) / e in Q(i); then
        x^-1 = s * (b0 - b2*i) * e / (b0^2 + b2^2).
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        a0, a1, a2, a3 = self._n
        s = _raw((a0, -a1, a2, -a3), self._d)
        xs = self * s
        b0, _, b2, _ = xs._n
        e = xs._d
        return s * _make(b0 * e, 0, -b2 * e, 0, b0 * b0 + b2 * b2)

    def __pow__(self, exponent: int) -> CycScalar:
        base = self if exponent >= 0 else self.inverse()
        out, e = None, abs(exponent)
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return _ONE if out is None else out

    def conj(self) -> CycScalar:
        """Complex conjugation, the field automorphism z -> -z^3."""
        a0, a1, a2, a3 = self._n
        return _raw((a0, -a3, -a2, -a1), self._d)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self) -> int:
        # a rational element hashes as the Fraction it equals, and any
        # other as its canonical ints
        if self.is_rational():
            return hash(Fraction(self._n[0], self._d))
        return hash((self._n, self._d))

    # -- embedding and display -------------------------------------------

    def __complex__(self) -> complex:
        """Image under the embedding sending z to exp(i*pi/4).

        Each n/d is the correctly rounded float of its reduced coordinate,
        so this is float(c) summed over `coords`."""
        out = 0j
        d = self._d
        for n, zp in zip(self._n, _ZETA_POWERS):
            if n:
                out += n / d * zp
        return out

    def __repr__(self) -> str:
        c = self.coords
        return f"CycScalar({c[0]}, {c[1]}, {c[2]}, {c[3]})"

    def __str__(self) -> str:
        if not self:
            return "0"
        names = ("", "w", "i", "w^3")  # w = primitive 8th root, i = w^2
        parts: list[str] = []
        for c, name in zip(self.coords, names):
            if not c:
                continue
            if not name:
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _raw(n: tuple[int, int, int, int], d: int) -> CycScalar:
    """A CycScalar from numerators and a denominator already canonical."""
    x = _new(CycScalar)
    x._n = n
    x._d = d
    return x


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> CycScalar:
    """The canonical form of (n0 + n1 z + n2 z^2 + n3 z^3) / d, for d > 0."""
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    x = _new(CycScalar)
    x._n = (n0, n1, n2, n3)
    x._d = d
    return x


def _coerce(value) -> CycScalar | None:
    """A CycScalar, an int or a Fraction as a CycScalar; else None."""
    if isinstance(value, CycScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return _raw((value.numerator, 0, 0, 0), value.denominator)
    return None


_ZERO = CycScalar(0)
_ONE = CycScalar(1)
_GEN = CycScalar(0, 1)
_I = CycScalar(0, 0, 1)
_SQRT2 = CycScalar(0, 1, 0, -1)

Scalar = Union[int, Fraction, CycScalar]


def as_exact(value) -> Scalar:
    """An exact scalar with ints promoted to Fractions; Fractions and
    CycScalars pass through and anything else raises TypeError."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, CycScalar)):
        return value
    raise TypeError(f"not an exact scalar: {value!r}")


def as_cyc(value: Scalar) -> CycScalar:
    """Promote an exact scalar into Q(zeta_8)."""
    if isinstance(value, CycScalar):
        return value
    return CycScalar(value)


def over_common_denominator(values: Sequence) -> tuple[Sequence, int]:
    """Rationals, rational-valued CycScalars included, as int numerators
    over their least common denominator, so that an integer-weighted
    bilinear map of them runs on ints and divides once; values that are
    not all rational come back as they are, over 1."""
    split = numerator_columns(values)
    if split is None or len(split[0]) > 1:
        return values, 1
    return split[0][0], split[1]


def numerator_columns(values: Sequence) -> tuple[list[list[int]], int] | None:
    """Exact scalars as int numerators over their least common denominator
    d, in columns on the power basis: column k holds the numerators of
    coordinate k.  Rational values give one column and others four.
    None when some value is not an exact scalar (an `MPoly`, say)."""
    nums, dens = [], []
    for v in values:
        if isinstance(v, CycScalar):
            nums.append(v._n)
            dens.append(v._d)
        elif isinstance(v, (int, Fraction)):
            nums.append((v.numerator, 0, 0, 0))
            dens.append(v.denominator)
        else:
            return None
    d = lcm(*dens)
    width = 4 if any(n1 or n2 or n3 for _, n1, n2, n3 in nums) else 1
    scale = [d // q for q in dens]
    return [[n[k] * s for n, s in zip(nums, scale)] for k in range(width)], d


def numerators(value: Scalar) -> tuple[list[int], int]:
    """An exact scalar as int numerators over its denominator d: [n0] when
    it is rational, else [n0, n1, n2, n3] on the power basis."""
    if isinstance(value, CycScalar):
        n = value._n
        return [n[0]] if not (n[1] or n[2] or n[3]) else list(n), value._d
    return [value.numerator], value.denominator


def from_numerators(n: Sequence[int], d: int) -> CycScalar:
    """The CycScalar (n0 + n1 z + n2 z^2 + n3 z^3) / d from n = [n0, n1,
    n2, n3], or the rational n0 / d from n = [n0]; d > 0."""
    if len(n) == 1:
        return _make(n[0], 0, 0, 0, d)
    return _make(*n, d)


def fraction_parts(values: Sequence) -> list[tuple[int, int]] | None:
    """(numerator, denominator) of each value when all are ints or
    Fractions; None otherwise.  A rational-valued CycScalar gives None,
    so that arithmetic on it keeps its type."""
    parts = []
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return None
        parts.append((v.numerator, v.denominator))
    return parts
