"""Exact scalar arithmetic: rationals and the degree-4 cyclotomic field Q(zeta_8).

Every coefficient that enters a symbolic check lives in one of two exact
domains: `Rat` (arbitrary-precision reduced rationals, provided by the
standard library) or `CycScalar`, an element of Q(zeta_8) stored on the
power basis {1, z, z^2, z^3} with z^4 = -1.  The square root of 2 and the
imaginary unit both live in this field: i = z^2 and sqrt(2) = z - z^3.

Both domains answer the three questions the other layers ask of a
scalar through Python's own protocols: `not x` tests for zero, `x ** -1`
inverts (raising ZeroDivisionError at zero), and `complex(x)` is the
complex embedding sending z to exp(i*pi/4).  This module alone decides
what counts as an exact scalar, through `as_exact` and `as_cyc`.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Union

# Arbitrary-precision rational scalars.  Always reduced, denominator > 0.
Rat = Fraction

RatLike = Union[int, Fraction]

# Primitive 8th root of unity used by the complex embedding.
_ZETA_C = cmath.exp(1j * cmath.pi / 4)
_ZETA_POWERS = (1.0 + 0j, _ZETA_C, 1j, _ZETA_C * 1j)


def _as_rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class CycScalar:
    """Element of Q(zeta_8) on the power basis {1, z, z^2, z^3}, z^4 = -1."""

    __slots__ = ("_c",)

    def __init__(self, c0: RatLike = 0, c1: RatLike = 0, c2: RatLike = 0,
                 c3: RatLike = 0) -> None:
        self._c = (_as_rat(c0), _as_rat(c1), _as_rat(c2), _as_rat(c3))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rat(cls, value: RatLike) -> CycScalar:
        return cls(_as_rat(value))

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
        return self._c

    def __bool__(self) -> bool:
        return any(self._c)

    def is_rational(self) -> bool:
        return not any(self._c[1:])

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> CycScalar | None:
        if isinstance(other, CycScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        return CycScalar(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        return CycScalar(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self) -> CycScalar:
        a = self._c
        return CycScalar(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        # Convolution with the reduction z^(k+4) = -z^k.
        acc = [Fraction(0)] * 4
        for ia in range(4):
            ca = a[ia]
            if not ca:
                continue
            for ib in range(4):
                cb = b[ib]
                if not cb:
                    continue
                k = ia + ib
                if k < 4:
                    acc[k] += ca * cb
                else:
                    acc[k - 4] -= ca * cb
        return CycScalar(*acc)

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        """Multiplicative inverse in closed form.

        With s the image of x under z -> -z, the product x*s is fixed by
        that automorphism, so it is b0 + b2*i in Q(i); then
        x^-1 = s * (b0 - b2*i) / (b0^2 + b2^2).
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        a = self._c
        s = CycScalar(a[0], -a[1], a[2], -a[3])
        b0, _, b2, _ = (self * s)._c
        norm = b0 * b0 + b2 * b2
        return s * CycScalar(b0 / norm, 0, -b2 / norm)

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
        a = self._c
        return CycScalar(a[0], -a[3], -a[2], -a[1])

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self._c[0])
        return hash(self._c)

    # -- embedding and display -------------------------------------------

    def __complex__(self) -> complex:
        """Image under the embedding sending z to exp(i*pi/4)."""
        out = 0j
        for c, zp in zip(self._c, _ZETA_POWERS):
            if c:
                out += float(c) * zp
        return out

    def __repr__(self) -> str:
        return f"CycScalar({self._c[0]}, {self._c[1]}, {self._c[2]}, {self._c[3]})"

    def __str__(self) -> str:
        if not self:
            return "0"
        names = ("", "w", "i", "w^3")  # w = primitive 8th root, i = w^2
        parts: list[str] = []
        for c, name in zip(self._c, names):
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
    return CycScalar(_as_rat(value))


def scalar_complexity(value: Scalar) -> int:
    """Bit-size proxy used to pick the least messy pivot in elimination."""
    if isinstance(value, CycScalar):
        return sum(c.numerator.bit_length() + c.denominator.bit_length()
                   for c in value.coords)
    v = _as_rat(value)
    return v.numerator.bit_length() + v.denominator.bit_length()
