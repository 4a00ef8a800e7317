"""Binary forms, classical transvectants, and the projective matrix action.

A `BinaryForm` of degree d stores d+1 coefficients; slot k holds the
coefficient of z1^(d-k) z2^k.  Coefficients may be exact scalars or
`MPoly` values, so the same code runs both concrete and symbolic checks.

The bilinear bracket implemented here is the classical transvectant

    psi_i(f, g) = (m-i)! (n-i)! / (m! n!) *
        sum_k (-1)^k C(i,k) d^i f/dz1^(i-k) dz2^k * d^i g/dz1^k dz2^(i-k)

for f of degree m and g of degree n.  It is evaluated in closed form, as
a fixed integer bilinear map on the coefficient vectors a and b:

    psi_i(f, g)[p + q - i] = pref * sum W[p][q] * a_p * b_q,
    W[p][q] = sum_k (-1)^k C(i,k) (m-p)_(i-k) p_(k) (n-q)_(k) q_(i-k),

with x_(j) the falling factorial and pref the factorial quotient above.
The weights are built once per (m, n, i), on first use; the derivative
definition itself is kept as the test oracle.  A group element acts on
a form with exact scalar coefficients through elementary moves: two
Taylor shifts of the coefficient vector and one diagonal scaling, O(d^2)
operations at degree d, all on int numerators over one denominator.

The reference tables this package verifies were produced with a possibly
different transvectant scaling and an unstated matrix-action convention;
`calibrate_conventions` recovers both mechanically and caches the result.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import Sequence, Union

from .mpoly import MPoly, monomial_str
from .scalar import (CycScalar, as_cyc, as_exact, from_numerators,
                     numerator_columns, numerators, over_common_denominator)

FormCoeff = Union[Fraction, CycScalar, MPoly]


def _norm(c) -> FormCoeff:
    return c if isinstance(c, MPoly) else as_exact(c)


def _zero_filled(acc: list) -> list:
    """An accumulator list whose slots start at their first term, not at
    Fraction(0) (same value and type, one mixed-type addition fewer), with
    its untouched (None) slots set to 0."""
    return [Fraction(0) if c is None else c for c in acc]


class BinaryForm:
    """Homogeneous binary form of a fixed degree; the zero form is degree-tagged."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence) -> None:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        self.degree = degree
        self.coeffs = tuple(_norm(c) for c in coeffs)

    @staticmethod
    def _of(degree: int, coeffs) -> BinaryForm:
        """Wrap d+1 coefficients that are already exact scalars or MPolys."""
        out = BinaryForm.__new__(BinaryForm)
        out.degree = degree
        out.coeffs = tuple(coeffs)
        return out

    @classmethod
    def zero(cls, degree: int) -> BinaryForm:
        return cls._of(degree, [Fraction(0)] * (degree + 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: BinaryForm) -> BinaryForm:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        return BinaryForm._of(self.degree,
                              [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: BinaryForm) -> BinaryForm:
        return self.__add__(-other)

    def __neg__(self) -> BinaryForm:
        return BinaryForm._of(self.degree, [-c for c in self.coeffs])

    def scale(self, scalar) -> BinaryForm:
        s = _norm(scalar)
        return BinaryForm._of(self.degree, [s * c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            d = self.degree + other.degree
            acc: list = [None] * (d + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if not b:
                        continue
                    cur = acc[i + j]
                    acc[i + j] = a * b if cur is None else cur + a * b
            return BinaryForm._of(d, _zero_filled(acc))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        d = self.degree
        chunks = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = []
            if d - k:
                mono.append(f"z1^{d - k}" if d - k > 1 else "z1")
            if k:
                mono.append(f"z2^{k}" if k > 1 else "z2")
            mstr = "*".join(mono) or "1"
            chunks.append(f"({c})*{mstr}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"BinaryForm(deg={self.degree}, {self})"


@lru_cache(maxsize=None)
def _transvectant_weights(m: int, n: int, i: int) -> tuple[Fraction, tuple]:
    """pref and the integer weights W of psi_i on degrees (m, n): W[p] is
    the tuple of (q, W[p][q]) with W[p][q] nonzero (module docstring)."""
    pref = Fraction(factorial(m - i) * factorial(n - i),
                    factorial(m) * factorial(n))
    rows = []
    for p in range(m + 1):
        row = []
        for q in range(n + 1):
            w = sum((-1) ** k * comb(i, k) * perm(m - p, i - k) * perm(p, k)
                    * perm(n - q, k) * perm(q, i - k) for k in range(i + 1))
            if w:
                row.append((q, w))
        rows.append(tuple(row))
    return pref, tuple(rows)


def transvectant(f: BinaryForm, g: BinaryForm, i: int) -> BinaryForm:
    """Classical i-th transvectant of f and g, by its closed-form integer
    weights (see module docstring)."""
    m, n = f.degree, g.degree
    if i < 0 or i > min(m, n):
        raise ValueError(f"transvectant index {i} out of range for degrees {m},{n}")
    pref, weights = _transvectant_weights(m, n, i)
    # A rational-valued coefficient vector, such as group_act's image of
    # a rational form, runs on int numerators; `scale` divides by the
    # denominators once.
    a, a_den = over_common_denominator(f.coeffs)
    b, b_den = over_common_denominator(g.coeffs)
    acc: list = [None] * (m + n - 2 * i + 1)
    for p, x in enumerate(a):
        if not x:
            continue
        for q, w in weights[p]:
            y = b[q]
            if y:
                r = p + q - i
                cur = acc[r]
                acc[r] = w * (x * y) if cur is None else cur + w * (x * y)
    scale = pref / (a_den * b_den)
    return BinaryForm._of(m + n - 2 * i, [scale * c for c in _zero_filled(acc)])


# ---------------------------------------------------------------------------
# Projective 2x2 matrices over Q(zeta_8)


class GroupElt:
    """2x2 matrix over Q(zeta_8) with nonzero determinant, taken modulo scalars."""

    __slots__ = ("m",)

    def __init__(self, a, b, c, d) -> None:
        self.m = (as_cyc(a), as_cyc(b), as_cyc(c), as_cyc(d))
        if not self.det():
            raise ValueError("singular matrix")

    @staticmethod
    def _of(a, b, c, d) -> GroupElt:
        """Wrap four CycScalar entries of a matrix known to be nonsingular."""
        out = GroupElt.__new__(GroupElt)
        out.m = (a, b, c, d)
        return out

    @classmethod
    def identity(cls) -> GroupElt:
        return cls(1, 0, 0, 1)

    def det(self) -> CycScalar:
        a, b, c, d = self.m
        return a * d - b * c

    def __mul__(self, other: GroupElt) -> GroupElt:
        if not isinstance(other, GroupElt):
            return NotImplemented
        a, b, c, d = self.m
        e, f, g, h = other.m
        return GroupElt._of(a * e + b * g, a * f + b * h,
                            c * e + d * g, c * f + d * h)

    def inverse(self) -> GroupElt:
        a, b, c, d = self.m
        # Adjugate works projectively; the determinant factor is a scalar.
        return GroupElt._of(d, -b, -c, a)

    def transpose(self) -> GroupElt:
        a, b, c, d = self.m
        return GroupElt._of(a, c, b, d)

    def canonical(self) -> tuple[CycScalar, CycScalar, CycScalar, CycScalar]:
        """Representative scaled so the first nonzero entry equals 1."""
        lead = next(e for e in self.m if e)
        inv = lead ** -1
        return tuple(inv * e for e in self.m)  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElt):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def order(self) -> int:
        """Order modulo scalars, at most 64."""
        ident = GroupElt.identity()
        acc = self
        for n in range(1, 65):
            if acc == ident:
                return n
            acc = acc * self
        raise RuntimeError("order exceeds 64")

    def __repr__(self) -> str:
        a, b, c, d = self.m
        return f"GroupElt([{a}, {b}; {c}, {d}])"


def mul_closure(generators: Sequence[GroupElt]) -> list[GroupElt]:
    """All products of the generators modulo scalars (breadth-first), at
    most 512 of them."""
    seen: dict[tuple, GroupElt] = {}
    frontier = [GroupElt.identity(), *generators]
    for g in frontier:
        seen.setdefault(g.canonical(), g)
    frontier = list(seen.values())
    while frontier:
        new: list[GroupElt] = []
        for g in frontier:
            for h in generators:
                prod = g * h
                key = prod.canonical()
                if key not in seen:
                    seen[key] = prod
                    new.append(prod)
        frontier = new
        if len(seen) > 512:
            raise RuntimeError("group closure exceeded 512 elements")
    return list(seen.values())


# ---------------------------------------------------------------------------
# Matrix action on forms

ACTION_CONVENTIONS = ("substitute_inverse", "substitute_direct", "substitute_transpose")


def _product(x: list[int], y: list[int]) -> list[int]:
    """The product of two numerator lists in Z[zeta_8], one int for a
    rational value and four otherwise."""
    if len(x) == 1:
        return [x[0] * v for v in y]
    if len(y) == 1:
        return [y[0] * v for v in x]
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    # the convolution with the reduction z^4 = -1
    return [x0 * y0 - x1 * y3 - x2 * y2 - x3 * y1,
            x0 * y1 + x1 * y0 - x2 * y3 - x3 * y2,
            x0 * y2 + x1 * y1 + x2 * y0 - x3 * y3,
            x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0]


def _taylor_shift(cols: list[list[int]], t: CycScalar, r: int,
                  touched: list[bool]) -> int:
    """The shift w -> w + t of a polynomial whose w^j coefficient is
    entry j of the numerator columns, in place, on ints (von zur Gathen &
    Gerhard, ISSAC 1997).

    Entry j holds cols[.][j] / (D r^j) for one D.  With t = T/q, the
    numerators e_j = col_j (r q)^(n-j) shifted by T leave entry j as
    e'_j / (D r^n q^(n-j)); q is returned.  A rational T shifts each
    power-basis coordinate alone; otherwise the columns are padded to
    four in place and T multiplies in Z[zeta_8].  Every entry a step
    adds to is marked in `touched`.
    """
    shift, q = numerators(t)
    n = len(cols[0]) - 1
    if r * q != 1:
        scale = [1]
        for _ in range(n):
            scale.append(scale[-1] * r * q)
        for col in cols:
            for j in range(n + 1):
                col[j] *= scale[n - j]
    if len(shift) == 1:
        s = shift[0]
        for e in cols:
            if not any(e):
                continue
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    x = e[j + 1]
                    if x:
                        e[j] += s * x
                        touched[j] = True
        return q
    cols += [[0] * (n + 1) for _ in range(4 - len(cols))]
    e0, e1, e2, e3 = cols
    t0, t1, t2, t3 = shift
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            k = j + 1
            x0, x1, x2, x3 = e0[k], e1[k], e2[k], e3[k]
            if x0 or x1 or x2 or x3:
                e0[j] += t0 * x0 - t1 * x3 - t2 * x2 - t3 * x1
                e1[j] += t0 * x1 + t1 * x0 - t2 * x3 - t3 * x2
                e2[j] += t0 * x2 + t1 * x1 + t2 * x0 - t3 * x3
                e3[j] += t0 * x3 + t1 * x2 + t2 * x1 + t3 * x0
                touched[j] = True
    return q


def group_act(g: GroupElt, f: BinaryForm, convention: str | None = None) -> BinaryForm:
    """Action of a projective matrix on a form with exact scalar
    coefficients.

    With M = [[a, b], [c, d]] the matrix that the convention (the
    calibrated one when None) substitutes, the image is
    f(a z1 + b z2, c z1 + d z2) times det^-(degree // 2), so that the
    action only depends on g modulo scalars; an odd degree needs det 1.
    It is computed by elementary moves, M = [[1, 0], [c/a, 1]] *
    diag(a, e) * [[1, b/a], [0, 1]] with e = (ad - bc)/a: each unipotent
    factor is a Taylor shift of the coefficient vector and the diagonal a
    scaling.  When a = 0, z1 and z2 are swapped first (the vector
    reversed), which swaps M's rows.  The moves run on int numerators
    over one denominator: the scaling, coefficient k times
    a^(degree-k) e^k, commutes past the second shift, which becomes a
    shift by b/e, and is applied with the one division per coefficient
    at the end.  A zero coefficient that no shift step adds to stays the
    object it was, and the others are CycScalars, as the scalar moves
    make them.
    """
    if convention is None:
        convention = calibrate_conventions().convention
    if convention == "substitute_inverse":
        sub = g.inverse()
    elif convention == "substitute_direct":
        sub = g
    elif convention == "substitute_transpose":
        sub = g.transpose()
    else:
        raise ValueError(f"unknown action convention {convention!r}")
    n, det = f.degree, sub.det()
    if n % 2 and det != CycScalar.one():
        raise ValueError("odd-degree action needs a determinant-1 representative")
    a, b, c, d = sub.m
    coeffs = f.coeffs
    if not a:
        coeffs = coeffs[::-1]
        a, b, c, d = c, d, a, b
    split = numerator_columns(coeffs)
    if split is None:
        raise TypeError("group_act needs exact scalar coefficients")
    cols, den = split
    inv = a ** -1
    e = (a * d - b * c) * inv
    touched = [False] * (n + 1)
    # f(z1, (c/a) z1 + z2): a shift in z2/z1; entry k is then over
    # den * u^(n-k) * v^k with (u, v) = (q, 1)
    u = v = 1
    if c:
        u = _taylor_shift(cols, c * inv, 1, touched)
    # diag(a, e), with e the determinant of the (possibly swapped)
    # matrix over a, changes every nonzero entry; it is applied last
    touched = [hit or any(x) for hit, x in zip(touched, zip(*cols))]
    # f(z1 + (b/e) z2, z2): a shift in z1/z2, on the reversed vector
    if b:
        for col in cols:
            col.reverse()
        touched.reverse()
        v = _taylor_shift(cols, b * e ** -1, u, touched)
        den *= u ** n
        u = 1
        for col in cols:
            col.reverse()
        touched.reverse()
    # the scaling: entry k times a^(n-k) e^k det^-(n // 2), that is
    # factor * ratio^k
    factor, f_den = numerators(a ** n * det ** -(n // 2))
    ratio, r_den = numerators(e * inv)
    out = list(coeffs)
    for k, hit in enumerate(touched):
        if hit:
            out[k] = from_numerators(
                _product([col[k] for col in cols], factor),
                den * f_den * u ** (n - k) * (v * r_den) ** k)
        factor = _product(factor, ratio)
    return BinaryForm._of(n, out)


# ---------------------------------------------------------------------------
# The quadratic map assembled from transvectants


@dataclass(frozen=True)
class Lambda:
    """Weights (l0, l2, l4, l6) of the four bilinear pieces of the map."""

    l0: object
    l2: object
    l4: object
    l6: object

    @classmethod
    def standard(cls, eps) -> Lambda:
        """The normalised weight vector (1, 6*eps, 1, 6)."""
        return cls(Fraction(1), 6 * eps, Fraction(1), Fraction(6))


def delta_forms(lam: Lambda, f8: BinaryForm, f0, f4: BinaryForm) -> BinaryForm:
    """The degree-4 image of (f8, f0, f4); f0 is a plain scalar.  The
    brackets carry the calibrated rescalings (s2, s4, s6)."""
    s2, s4, s6 = calibrate_conventions().scalars
    out = transvectant(f8, f8, 6).scale(s6).scale(lam.l6)
    out = out + transvectant(f8, f4, 4).scale(s4).scale(lam.l4)
    out = out + transvectant(f4, f4, 2).scale(s2).scale(lam.l2)
    out = out + f4.scale(f0).scale(lam.l0)
    return out


def delta(lam: Lambda, v: Sequence) -> BinaryForm:
    """The quadratic map on a 15-component coordinate vector."""
    from . import construction

    f8, f0, f4 = construction.assemble(v)
    return delta_forms(lam, f8, f0, f4)


@dataclass(frozen=True)
class Calibration:
    """Mechanically recovered conventions: action style and bracket scalings."""

    convention: str
    scalars: tuple[Fraction, Fraction, Fraction]  # (s2, s4, s6)
    matched_conventions: tuple[str, ...]
    expansion_residuals: tuple[str, ...]
    # convention -> [(generator, row, column, induced entry)] for every
    # entry of its induced matrices that differs from the stored table
    table_mismatches: dict
    # How the stored coordinate tables list the two same-argument bracket
    # expansions: each unordered pair of basis indices appears once, so an
    # off-diagonal table entry is the bilinear value on (e_i, e_j) rather
    # than the doubled coefficient of the associated quadratic form.
    expansion_listing: str = "unordered-pairs"


@lru_cache(maxsize=1)
def bracket_tables() -> tuple[dict, dict, dict]:
    """Slot coordinates of every basis-pair bracket, as three pair maps.

    Returns (p6, p4, p2): p6[(i, j)] (i <= j, octic indices) and
    p2[(i, j)] (i <= j, quartic indices) hold the quartic-coordinate
    5-tuples of the degree-6 and degree-2 brackets on basis pairs;
    p4[(i, j)] covers all octic-by-quartic pairs of the mixed bracket.
    Everything downstream of the stored expansion assembles from these.
    """
    from . import construction

    octics = construction.octic_basis()
    quartics = construction.quartic_basis()
    p6 = {}
    for i in range(9):
        for j in range(i, 9):
            p6[(i, j)] = tuple(construction.quartic_coordinates(
                transvectant(octics[i], octics[j], 6)))
    p2 = {}
    for i in range(5):
        for j in range(i, 5):
            p2[(i, j)] = tuple(construction.quartic_coordinates(
                transvectant(quartics[i], quartics[j], 2)))
    p4 = {}
    for i in range(9):
        for j in range(5):
            p4[(i, j)] = tuple(construction.quartic_coordinates(
                transvectant(octics[i], quartics[j], 4)))
    return p6, p4, p2


def _pair_series(scalars: tuple, cross: int) -> tuple[MPoly, ...]:
    """The quadratic map's five coordinate polynomials, assembled pairwise
    from the bracket tables with the rescalings (s2, s4, s6).

    A product of two distinct same-degree basis vectors is weighted by
    `cross`: 1 lists each unordered pair once, as the stored tables do,
    and 2 counts both orderings, as the literal map does.  The mixed
    bracket has arguments of different degrees, so its pairs are always
    distinct and listed once.
    """
    s2, s4, s6 = scalars
    xs = [MPoly.var(f"x{i}") for i in range(1, 10)]
    ss = [MPoly.var(f"s{i}") for i in range(6)]
    eps = MPoly.var("eps")
    p6, p4, p2 = bracket_tables()

    out = [MPoly.zero() for _ in range(5)]
    for (i, j), vals in p6.items():
        mono = xs[i] * xs[j]
        w = (6 * s6) if i == j else (6 * cross * s6)
        out = [acc + (w * c) * mono for acc, c in zip(out, vals)]
    for (i, j), vals in p4.items():
        mono = xs[i] * ss[j + 1]
        out = [acc + (s4 * c) * mono for acc, c in zip(out, vals)]
    for (i, j), vals in p2.items():
        mono = eps * ss[i + 1] * ss[j + 1]
        w = (6 * s2) if i == j else (6 * cross * s2)
        out = [acc + (w * c) * mono for acc, c in zip(out, vals)]
    for k in range(5):
        out[k] = out[k] + ss[0] * ss[k + 1]
    return tuple(out)


def expanded_coordinate_system() -> tuple[MPoly, ...]:
    """The quadratic map's five coordinate polynomials, crosses doubled.

    Unlike the stored tables (which list each unordered basis pair once),
    these are the literal polynomial coordinates of the quadratic map: a
    mixed product of two distinct same-degree basis vectors picks up both
    orderings.  This is the version that is equivariant under the full
    generator set and whose zero set contains the multiple-root locus.
    """
    return _pair_series(calibrate_conventions().scalars, cross=2)


@lru_cache(maxsize=1)
def calibrate_conventions() -> Calibration:
    """Recover the transvectant scalings and the matrix-action convention.

    The stored coordinate tables expand the two same-argument brackets
    over unordered pairs of basis indices: the entry printed on a mixed
    product x_i*x_j (i < j) is the bilinear value on (e_i, e_j), listed
    once, while a diagonal entry x_i^2 carries the value on (e_i, e_i).
    The comparison series here is assembled the same way, pairwise over
    the basis, rather than by expanding the bracket of a fully symbolic
    argument (which would double every mixed product).

    The scalings are pinned by three probe coefficients of the stored
    expansion (each appears linearly, so each is unique); the whole
    expansion is then recomputed and compared coefficient by
    coefficient.  The action convention is the unique candidate whose
    induced 15x15 generator matrices reproduce the stored action table.
    """
    from . import construction

    # Probe coefficients: x7*x8 in slot 1 must land on 6, x7*s1 in slot 1
    # on 1, and eps*s1^2 in slot 2 on 2 (weights 6, 1 and 6*eps); each
    # is one bracket-table entry.
    p6, p4, p2 = bracket_tables()
    c6 = p6[(6, 7)][0]
    c4 = p4[(6, 0)][0]
    c2 = p2[(0, 0)][1]
    if c6 == 0 or c4 == 0 or c2 == 0:
        raise RuntimeError("degenerate probe coefficient during calibration")
    s6 = Fraction(6) / (6 * c6)
    s4 = Fraction(1) / c4
    s2 = Fraction(2) / (6 * c2)

    stored = construction.delta_coordinate_system()
    computed = _pair_series((s2, s4, s6), cross=1)
    residuals: list[str] = []
    for slot in range(5):
        diff = computed[slot] - stored[slot]
        for mono, c in diff.sorted_terms():
            residuals.append(
                f"slot {slot + 1}: {monomial_str(mono)}: off by {c}")

    # Action convention: compare induced generator matrices to the table.
    mismatches: dict[str, list] = {}
    matched: list[str] = []
    for cand in ACTION_CONVENTIONS:
        bad = mismatches[cand] = []
        for name, g in construction.generators().items():
            induced = construction.induced_vec15_matrix(g, convention=cand)
            stored_mat = construction.action_table()[name]
            for i, (row_i, row_s) in enumerate(zip(induced, stored_mat)):
                for j, (a, b) in enumerate(zip(row_i, row_s)):
                    if a != b:
                        bad.append((name, i, j, a))
        if not bad:
            matched.append(cand)

    return Calibration(
        convention=matched[0] if len(matched) == 1 else "",
        scalars=(s2, s4, s6),
        matched_conventions=tuple(matched),
        expansion_residuals=tuple(residuals),
        table_mismatches=mismatches,
    )


# ---------------------------------------------------------------------------
# Exact root structure of forms with scalar coefficients
#
# A form's coefficient list, read as f(1, w), is a dense univariate
# polynomial with its constant term first.


def _poly_degree(coeffs: list) -> int:
    d = -1
    for k, c in enumerate(coeffs):
        if c:
            d = k
    return d


def _poly_mod(num: list, den: list) -> list:
    """Remainder of dense univariate division over an exact field."""
    num = list(num)
    dd = _poly_degree(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = den[dd] ** -1
    while True:
        nd = _poly_degree(num)
        if nd < dd:
            break
        factor = num[nd] * lead_inv
        shift = nd - dd
        for k in range(dd + 1):
            num[k + shift] = num[k + shift] - factor * den[k]
        num[nd] = Fraction(0)  # clear any residue exactly
    return num


def _poly_diff(p: list) -> list:
    return [k * p[k] for k in range(1, len(p))] or [Fraction(0)]


def _max_mult_univar(p: list) -> int:
    """Largest root multiplicity of a nonzero dense univariate polynomial.

    Roots of gcd(p, p') are exactly the repeated roots of p, each with
    multiplicity dropped by one, so recursing on the gcd counts the depth.
    """
    if _poly_degree(p) <= 0:
        return 0
    g = _gcd_poly(p, _poly_diff(p))
    if _poly_degree(g) <= 0:
        return 1
    return 1 + _max_mult_univar(g)


def max_root_multiplicity_exact(f: BinaryForm) -> int:
    """Largest projective root multiplicity of a form with field coefficients."""
    if f.is_zero():
        raise ValueError("zero form has no root multiplicities")
    p = list(f.coeffs)
    # The root (0:1) has the multiplicity of the vanishing top z2-powers.
    return max(f.degree - _poly_degree(p), _max_mult_univar(p))


def _gcd_poly(p: list, q: list) -> list:
    a, b = list(p), list(q)
    while _poly_degree(b) >= 0:
        a, b = b, _poly_mod(a, b)
    d = _poly_degree(a)
    if d < 0:
        return [Fraction(1)]
    lead_inv = a[d] ** -1
    return [c * lead_inv for c in a[:d + 1]]
