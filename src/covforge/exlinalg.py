"""Exact dense linear algebra over Q and Q(zeta_8).

Everything here is fraction-free in spirit but implemented with exact
field division (the scalars' own `x ** -1`), which is fast enough at
the 15x15 scale this package needs.  The reduced row echelon form of a
matrix over a field is unique, so `rref` takes the first nonzero entry
of each column as its pivot: another choice would change the cost, not
the result.  Equality compares canonical data directly: a matrix its
rows, a `Subspace` its RREF basis.  `ExactMatrix.apply` is
the package's one exact linear combination: the matrix product is
built from it, and so is every sum of coefficients times vectors
(`from_columns(vectors).apply(coeffs)`) or of exact rows times
polynomials.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .mpoly import MPoly
from .scalar import as_exact

class ExactMatrix:
    """Immutable-ish dense matrix with exact entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence]) -> None:
        self.rows = [[as_exact(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> ExactMatrix:
        if not cols:
            return cls([])
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int) -> list:
        return [self.rows[i][j] for i in range(self.nrows)]

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            return ExactMatrix.from_columns(
                [self.apply(other.column(j)) for j in range(other.ncols)])
        return NotImplemented

    def apply(self, vec: Sequence) -> list:
        """The sum of vec[k] times column k, skipping zero matrix entries;
        vec may hold exact scalars or `MPoly`s."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        out = []
        for row in self.rows:
            # Starting at the first term rather than at Fraction(0)
            # spares a mixed-type addition and gives the same value and type.
            acc = None
            for a, v in zip(row, vec):
                if not a:
                    continue
                acc = a * v if acc is None else acc + a * v
            out.append(Fraction(0) if acc is None else acc)
        return out

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, s) -> ExactMatrix:
        s = as_exact(s)
        return ExactMatrix([[s * v for v in row] for row in self.rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(v) for v in row) for row in self.rows)
        return f"ExactMatrix[{body}]"

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple[ExactMatrix, list[int]]:
        """Reduced row echelon form and the pivot column list."""
        rows = [list(r) for r in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            if r >= self.nrows:
                break
            pivot = next((i for i in range(r, self.nrows) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = rows[r][c] ** -1
            rows[r] = [inv * v for v in rows[r]]
            for i in range(self.nrows):
                if i == r:
                    continue
                f = rows[i][c]
                if not f:
                    continue
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return ExactMatrix(rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list]:
        """Basis of the right null space."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec: list = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -red.rows[r][fc]
            basis.append(vec)
        return basis

    def inverse(self) -> ExactMatrix:
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        n = self.nrows
        aug = ExactMatrix([list(row) + [Fraction(int(i == j)) for j in range(n)]
                           for i, row in enumerate(self.rows)])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return ExactMatrix([row[n:] for row in red.rows])


# ---------------------------------------------------------------------------
# Subspaces of an ambient exact vector space


class Subspace:
    """Subspace of an n-dimensional column space, held as an rref basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Sequence[Sequence]) -> None:
        self.ambient_dim = ambient_dim
        if vectors:
            mat = ExactMatrix(vectors)
            if mat.ncols != ambient_dim:
                raise ValueError("vector length differs from ambient dimension")
            red, pivots = mat.rref()
            self.basis = [red.rows[r] for r in range(len(pivots))]
        else:
            self.basis = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence) -> bool:
        """Whether vec lies in the span: the basis is in RREF, so
        subtracting vec's entry at each row's pivot times that row leaves
        zero exactly when it does."""
        rest = [as_exact(v) for v in vec]
        if len(rest) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        for row in self.basis:
            p = next(j for j, v in enumerate(row) if v)
            f = rest[p]
            if f:
                rest = [a - f * b for a, b in zip(rest, row)]
        return not any(rest)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    __hash__ = None  # type: ignore[assignment]

    def sum(self, other: Subspace) -> Subspace:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def intersection(self, other: Subspace) -> Subspace:
        """Zassenhaus block elimination."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        block: list[list] = []
        for v in self.basis:
            block.append(list(v) + list(v))
        for w in other.basis:
            block.append(list(w) + [Fraction(0)] * n)
        if not block:
            return Subspace(n, [])
        red, pivots = ExactMatrix(block).rref()
        vectors = []
        for r in range(len(pivots)):
            if pivots[r] >= n:
                vectors.append(red.rows[r][n:])
        return Subspace(n, vectors)


def eigenspace(mat: ExactMatrix, eigenvalue) -> Subspace:
    shifted = mat - ExactMatrix.identity(mat.nrows).scale(eigenvalue)
    return Subspace(mat.nrows, shifted.kernel_basis())


def joint_fixed_space(mats: Sequence[ExactMatrix]) -> Subspace:
    """Common fixed space: the intersection of the eigenvalue-1 spaces."""
    if not mats:
        raise ValueError("need at least one matrix")
    space = eigenspace(mats[0], Fraction(1))
    for m in mats[1:]:
        space = space.intersection(eigenspace(m, Fraction(1)))
    return space


# ---------------------------------------------------------------------------
# Jacobians of polynomial maps


def jacobian_at(polys: Sequence[MPoly], var_names: Sequence[str],
                point: dict) -> ExactMatrix:
    """Evaluate the Jacobian at a point given as {var_name: exact value}.

    Every variable appearing in any derivative must be bound.
    """
    rows = []
    for p in polys:
        row = []
        for v in var_names:
            val = p.diff(v).evaluate(point)
            row.append(val)
        rows.append(row)
    return ExactMatrix(rows)
