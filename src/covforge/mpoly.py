"""Sparse multivariate polynomials over the exact scalar domains.

Terms are stored as a dict from dense exponent tuples (one slot per
variable of the shared `VarTable`) to nonzero exact coefficients.  The
variable order is global and fixed so that printed polynomials are
canonical (graded-lex, then reverse-lex inside a degree block).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .scalar import CycScalar, as_exact

Coeff = Union[Fraction, CycScalar]
CoeffLike = Union[int, Fraction, CycScalar]

# Global variable order shared by every polynomial in the package.
DEFAULT_VAR_NAMES: tuple[str, ...] = (
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


class VarTable:
    """Immutable ordered list of variable names with index lookup."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]) -> None:
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._index = {n: k for k, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"VarTable({len(self.names)} vars)"


_DEFAULT_TABLE = VarTable(DEFAULT_VAR_NAMES)


def default_table() -> VarTable:
    return _DEFAULT_TABLE


class MPoly:
    """Sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable,
                 terms: Mapping[tuple[int, ...], CoeffLike] | None = None) -> None:
        self.table = table
        clean: dict[tuple[int, ...], Coeff] = {}
        if terms:
            for mono, c in terms.items():
                c = as_exact(c)
                if c:
                    clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable | None = None) -> MPoly:
        return cls(table or _DEFAULT_TABLE)

    @classmethod
    def const(cls, value: CoeffLike, table: VarTable | None = None) -> MPoly:
        table = table or _DEFAULT_TABLE
        return cls(table, {(0,) * len(table): value})

    @classmethod
    def var(cls, name: str, table: VarTable | None = None) -> MPoly:
        table = table or _DEFAULT_TABLE
        mono = [0] * len(table)
        mono[table.index(name)] = 1
        return cls(table, {tuple(mono): 1})

    # -- basic queries ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def variables(self) -> set[str]:
        used: set[str] = set()
        for mono in self.terms:
            for k, e in enumerate(mono):
                if e:
                    used.add(self.table.names[k])
        return used

    def coeff(self, monomial: Mapping[str, int]) -> Coeff:
        """Coefficient of the monomial given as {var name: exponent}."""
        mono = [0] * len(self.table)
        for name, e in monomial.items():
            mono[self.table.index(name)] = e
        return self.terms.get(tuple(mono), Fraction(0))

    # -- ring operations --------------------------------------------------

    def _check_table(self, other: MPoly) -> None:
        if self.table is not other.table and self.table.names != other.table.names:
            raise ValueError("variable table mismatch")

    def _coerce(self, other) -> MPoly | None:
        if isinstance(other, MPoly):
            self._check_table(other)
            return other
        try:
            return MPoly.const(other, self.table)
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
        out = MPoly.__new__(MPoly)
        out.table, out.terms = self.table, acc
        return out

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        out = MPoly.__new__(MPoly)
        out.table = self.table
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

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
        acc: dict[tuple[int, ...], Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                cur = acc.get(mono)
                nc = c if cur is None else cur + c
                if not nc:
                    acc.pop(mono, None)
                else:
                    acc[mono] = nc
        out = MPoly.__new__(MPoly)
        out.table, out.terms = self.table, acc
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> MPoly:
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        out = MPoly.const(1, self.table)
        base, e = self, exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    __hash__ = None  # type: ignore[assignment]

    # -- calculus and substitution ---------------------------------------

    def diff(self, name: str) -> MPoly:
        idx = self.table.index(name)
        acc: dict[tuple[int, ...], Coeff] = {}
        for mono, c in self.terms.items():
            e = mono[idx]
            if e == 0:
                continue
            m = list(mono)
            m[idx] = e - 1
            acc[tuple(m)] = c * e
        out = MPoly.__new__(MPoly)
        out.table, out.terms = self.table, acc
        return out

    def substitute(self, bindings: Mapping[str, MPoly | CoeffLike]) -> MPoly:
        """Ring-homomorphic substitution; unbound variables stay in place."""
        if not bindings:
            return self
        polys: dict[int, MPoly] = {}
        for name, value in bindings.items():
            idx = self.table.index(name)
            polys[idx] = value if isinstance(value, MPoly) \
                else MPoly.const(value, self.table)
        power_memo: dict[tuple[int, int], MPoly] = {}

        def power(idx: int, e: int) -> MPoly:
            key = (idx, e)
            got = power_memo.get(key)
            if got is None:
                got = polys[idx] ** e
                power_memo[key] = got
            return got

        total = MPoly.zero(self.table)
        for mono, c in self.terms.items():
            rest = list(mono)
            piece = None
            for idx in polys:
                e = mono[idx]
                if e:
                    rest[idx] = 0
                    p = power(idx, e)
                    piece = p if piece is None else piece * p
            term = MPoly(self.table, {tuple(rest): c})
            total = total + (term if piece is None else term * piece)
        return total

    def reduce_quadratic(self, name: str, replacement: MPoly | CoeffLike) -> MPoly:
        """Rewrite name^2 -> replacement until the variable appears at most
        linearly.  The replacement must not contain the variable."""
        repl = replacement if isinstance(replacement, MPoly) \
            else MPoly.const(replacement, self.table)
        if name in repl.variables():
            raise ValueError("replacement contains the reduced variable")
        idx = self.table.index(name)
        total = MPoly.zero(self.table)
        for mono, c in self.terms.items():
            e = mono[idx]
            q, rem = divmod(e, 2)
            m = list(mono)
            m[idx] = rem
            term = MPoly(self.table, {tuple(m): c})
            if q:
                term = term * repl ** q
            total = total + term
        return total

    def evaluate(self, assignment: Mapping[str, CoeffLike]) -> Coeff:
        """Exact evaluation; every variable that occurs must be assigned."""
        out = self.substitute({n: assignment[n] for n in self.variables()})
        return out.constant_value()

    # -- rendering --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Graded-lex order, highest degree first."""
        return sorted(self.terms.items(),
                      key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.names
        chunks: list[str] = []
        for mono, c in self.sorted_terms():
            vars_part = "*".join(
                f"{names[k]}^{e}" if e > 1 else names[k]
                for k, e in enumerate(mono) if e)
            cs = str(c)
            coeff_part = cs if ("+" not in cs and " - " not in cs) else f"({cs})"
            if not vars_part:
                chunks.append(coeff_part)
            elif coeff_part == "1":
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


def poly_vars(*names: str, table: VarTable | None = None) -> list[MPoly]:
    """Convenience constructor for a batch of variables."""
    return [MPoly.var(n, table) for n in names]
