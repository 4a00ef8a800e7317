"""Sparse multivariate polynomials over the exact scalar domains.

Terms are stored as a dict from packed monomials to nonzero exact
coefficients, over one fixed variable order, `VAR_NAMES`.  A packed
monomial is one int with an 8-bit field per variable, the exponent of
`VAR_NAMES[k]` in bits 8k to 8k + 7, so the product of two monomials is
one integer addition.  The top bit of each field is a guard: an exponent
is at most `MAX_EXPONENT` (127), and a product that would pass it raises
instead of carrying into the next variable.  `pack_exponents` and
`exponents` convert to and from exponent tuples, whose slot k is the
exponent of `VAR_NAMES[k]`.  The order is fixed so that printed
polynomials are canonical (graded-lex, then reverse-lex inside a degree
block).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence, Union

from .scalar import CycScalar, as_exact, fraction_parts

Coeff = Union[Fraction, CycScalar]
CoeffLike = Union[int, Fraction, CycScalar]

# The variable order every polynomial in the package is written in.
VAR_NAMES: tuple[str, ...] = (
    "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9",
    "s0", "s1", "s2", "s3", "s4", "s5",
    "eps",
    "r1", "r2", "r3",
    "y1", "y2", "y3", "y7", "y8", "y9", "y10", "y11", "y12",
    "alpha1", "alpha2", "alpha3",
    "mu0", "mu4", "mu8",
    "a", "t",
    "z1", "z2",
)

_SLOTS = {n: k for k, n in enumerate(VAR_NAMES)}
_CONST_MONO = 0

# Bits per exponent field; the top bit of each field is the guard.
_BITS = 8
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1
_GUARDS = sum((MAX_EXPONENT + 1) << (k * _BITS) for k in range(len(VAR_NAMES)))


def var_slot(name: str) -> int:
    """Position of a variable in every exponent tuple."""
    try:
        return _SLOTS[name]
    except KeyError:
        raise KeyError(f"unknown variable {name!r}") from None


def _overflow(slot: int) -> OverflowError:
    return OverflowError(f"exponent of {VAR_NAMES[slot]} outside "
                         f"0..{MAX_EXPONENT}")


def pack_exponents(exps: Sequence[int]) -> int:
    """The packed monomial of an exponent tuple (slot k: `VAR_NAMES[k]`)."""
    mono = 0
    for k, e in enumerate(exps):
        if not 0 <= e <= MAX_EXPONENT:
            raise _overflow(k)
        mono |= e << (k * _BITS)
    return mono


def pack_powers(powers: Mapping[str, int]) -> int:
    """The packed monomial of {variable name: exponent}."""
    mono = 0
    for name, e in powers.items():
        slot = var_slot(name)
        if not 0 <= e <= MAX_EXPONENT:
            raise _overflow(slot)
        mono += e << (slot * _BITS)
    return mono


def exponents(mono: int) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial (slot k: `VAR_NAMES[k]`)."""
    return tuple((mono >> (k * _BITS)) & _FIELD for k in range(len(VAR_NAMES)))


def monomial_str(mono: tuple[int, ...]) -> str:
    """An exponent tuple as `x1^2*s0`; the constant monomial is `1`."""
    parts = [f"{VAR_NAMES[k]}^{e}" if e > 1 else VAR_NAMES[k]
             for k, e in enumerate(mono) if e]
    return "*".join(parts) if parts else "1"


class MPoly:
    """Sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, CoeffLike] | None = None) -> None:
        clean: dict[int, Coeff] = {}
        if terms:
            for mono, c in terms.items():
                c = as_exact(c)
                if c:
                    clean[mono] = c
        self.terms = clean

    @staticmethod
    def _of(terms: dict[int, Coeff]) -> MPoly:
        """Wrap an already clean terms dict."""
        out = MPoly.__new__(MPoly)
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def const(cls, value: CoeffLike) -> MPoly:
        return cls({_CONST_MONO: value})

    @classmethod
    def var(cls, name: str) -> MPoly:
        return cls({1 << (var_slot(name) * _BITS): 1})

    # -- basic queries ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _slots(self) -> list[int]:
        """The slots of the variables that occur, in `VAR_NAMES` order."""
        used = 0
        for mono in self.terms:
            used |= mono
        return [k for k, e in enumerate(exponents(used)) if e]

    def variables(self) -> set[str]:
        return {VAR_NAMES[k] for k in self._slots()}

    def coeff(self, monomial: Mapping[str, int]) -> Coeff:
        """Coefficient of the monomial given as {var name: exponent}."""
        return self.terms.get(pack_powers(monomial), Fraction(0))

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(other) -> MPoly | None:
        if isinstance(other, MPoly):
            return other
        try:
            return MPoly.const(other)
        except TypeError:  # not an exact scalar
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for mono, c in o.terms.items():
            cur = acc.get(mono)
            nc = c if cur is None else cur + c
            if not nc:
                acc.pop(mono, None)
            else:
                acc[mono] = nc
        return MPoly._of(acc)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return MPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t1, t2, den = self.terms.items(), o.terms.items(), None
        # A one-term factor puts no two products on one monomial, so only
        # a product of longer rational factors gains from running on int
        # numerators, each factor's over its least common denominator, and
        # dividing once per term at the end.
        if len(t1) > 1 < len(t2):
            a = fraction_parts(self.terms.values())
            b = fraction_parts(o.terms.values()) if a is not None else None
            if b is not None:
                (t1, d1), (t2, d2) = (_over_lcm(self.terms, a),
                                      _over_lcm(o.terms, b))
                den = d1 * d2
        acc: dict[int, Coeff] = {}
        for m1, c1 in t1:
            for m2, c2 in t2:
                mono = m1 + m2
                c = c1 * c2
                cur = acc.get(mono)
                if cur is None:
                    if mono & _GUARDS:
                        raise _overflow(exponents(mono & _GUARDS)
                                        .index(MAX_EXPONENT + 1))
                    acc[mono] = c
                    continue
                nc = cur + c
                if not nc:
                    del acc[mono]
                else:
                    acc[mono] = nc
        if den is not None:
            acc = {m: Fraction(c, den) for m, c in acc.items()}
        return MPoly._of(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MPoly:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        out = None
        base, e = self, exponent
        while e:
            if e & 1:
                out = MPoly._of(dict(base.terms)) if out is None \
                    else out * base
            base = base * base if e > 1 else base
            e >>= 1
        return MPoly.const(1) if out is None else out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None  # type: ignore[assignment]

    # -- calculus and substitution ---------------------------------------

    def diff(self, name: str) -> MPoly:
        shift = var_slot(name) * _BITS
        one = 1 << shift
        acc: dict[int, Coeff] = {}
        for mono, c in self.terms.items():
            e = (mono >> shift) & _FIELD
            if e:
                acc[mono - one] = c * e
        return MPoly._of(acc)

    def substitute(self, bindings: Mapping[str, MPoly | CoeffLike]) -> MPoly:
        """Ring-homomorphic substitution; unbound variables stay in place."""
        if not bindings:
            return self
        polys: dict[int, MPoly] = {}
        for name, value in bindings.items():
            polys[var_slot(name) * _BITS] = value if isinstance(value, MPoly) \
                else MPoly.const(value)
        power_memo: dict[tuple[int, int], MPoly] = {}

        def power(shift: int, e: int) -> MPoly:
            key = (shift, e)
            got = power_memo.get(key)
            if got is None:
                got = polys[shift] ** e
                power_memo[key] = got
            return got

        total = MPoly.zero()
        for mono, c in self.terms.items():
            rest = mono
            piece = None
            for shift in polys:
                e = (mono >> shift) & _FIELD
                if e:
                    rest -= e << shift
                    p = power(shift, e)
                    piece = p if piece is None else piece * p
            term = MPoly._of({rest: c})
            total = total + (term if piece is None else term * piece)
        return total

    def reduce_quadratic(self, name: str, replacement: MPoly | CoeffLike) -> MPoly:
        """Rewrite name^2 -> replacement until the variable appears at most
        linearly.  The replacement must not contain the variable."""
        repl = replacement if isinstance(replacement, MPoly) \
            else MPoly.const(replacement)
        if name in repl.variables():
            raise ValueError("replacement contains the reduced variable")
        shift = var_slot(name) * _BITS
        total = MPoly.zero()
        for mono, c in self.terms.items():
            q, rem = divmod((mono >> shift) & _FIELD, 2)
            term = MPoly._of({mono - ((2 * q) << shift): c})
            if q:
                term = term * repl ** q
            total = total + term
        return total

    def evaluate(self, assignment: Mapping[str, CoeffLike]) -> Coeff:
        """Exact evaluation, the sum of c * prod(v^e) over the terms; every
        variable that occurs must be assigned."""
        values = [(k * _BITS, as_exact(assignment[VAR_NAMES[k]]))
                  for k in self._slots()]
        cs = fraction_parts(self.terms.values())
        vs = fraction_parts([v for _, v in values]) if cs is not None else None
        if vs is not None:
            # Rational terms and values: one int fraction, summed term by
            # term, and one Fraction at the end.
            num, den = 0, 1
            for mono, (n, d) in zip(self.terms, cs):
                for (shift, _), (p, q) in zip(values, vs):
                    e = (mono >> shift) & _FIELD
                    if e:
                        n *= p ** e
                        d *= q ** e
                if d == den:
                    num += n
                else:
                    num = num * d + n * den
                    den *= d
            return Fraction(num, den)
        total = None
        for mono, term in self.terms.items():
            for shift, v in values:
                e = (mono >> shift) & _FIELD
                if e:
                    term = term * (v if e == 1 else v ** e)
            total = term if total is None else total + term
        return total if total else Fraction(0)

    # -- rendering --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """(exponent tuple, coefficient) pairs in graded-lex order, highest
        degree first."""
        return sorted(((exponents(m), c) for m, c in self.terms.items()),
                      key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for mono, c in self.sorted_terms():
            cs = str(c)
            coeff_part = cs if ("+" not in cs and " - " not in cs) else f"({cs})"
            if not any(mono):
                chunks.append(coeff_part)
                continue
            vars_part = monomial_str(mono)
            if coeff_part == "1":
                chunks.append(vars_part)
            elif coeff_part == "-1":
                chunks.append(f"-{vars_part}")
            else:
                chunks.append(f"{coeff_part}*{vars_part}")
        out = chunks[0]
        for ch in chunks[1:]:
            out += f" - {ch[1:]}" if ch.startswith("-") else f" + {ch}"
        return out

    def __repr__(self) -> str:
        return f"MPoly({self})"


def _over_lcm(terms: Mapping[int, Fraction], parts: list[tuple[int, int]]
              ) -> tuple[list[tuple[int, int]], int]:
    """Rational terms, given with their coefficients' (numerator,
    denominator) pairs, as (monomial, int numerator) pairs over the
    least common denominator d of the coefficients, and d."""
    d = lcm(*[q for _p, q in parts])
    return [(m, p * (d // q)) for m, (p, q) in zip(terms, parts)], d
