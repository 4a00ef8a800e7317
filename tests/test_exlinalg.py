"""Exact linear algebra over the rational and cyclotomic scalars."""

import random
from fractions import Fraction

import pytest

from covforge.binform import BinaryForm
from covforge.exlinalg import (ExactMatrix, Subspace, jacobian_at,
                               joint_fixed_space)
from covforge.mpoly import MPoly
from covforge.scalar import CycScalar


def test_row_reduction_finds_pivots():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = m.rref()
    assert pivots == [0, 1]
    assert m.rank() == 2
    # leading entries of the reduced form are 1
    for i, j in enumerate(pivots):
        assert reduced.rows[i][j] == 1


def test_kernel_vectors_annihilate_the_matrix():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    kernel = m.kernel_basis()
    assert len(kernel) == 1
    assert all(v == 0 for v in m.apply(kernel[0]))


def test_solve_and_inverse_agree():
    m = ExactMatrix([[2, 1], [1, 1]])
    rhs = [Fraction(3), Fraction(2)]
    inv = m.inverse()
    x = inv.apply(rhs)
    assert m.apply(x) == rhs
    assert inv * m == ExactMatrix.identity(2)
    singular = ExactMatrix([[1, 2], [2, 4]])
    assert singular.rank() == 1
    with pytest.raises(ValueError):
        singular.inverse()


def test_column_assembly_round_trips():
    cols = [[1, 0, 2], [3, 1, 1]]
    m = ExactMatrix.from_columns(cols)
    assert m.nrows == 3 and m.ncols == 2
    assert m.column(0) == [1, 0, 2]
    assert m.column(1) == [3, 1, 1]


def test_a_rectangular_product_takes_its_shape_from_both_factors():
    a = ExactMatrix([[1, 2, 0], [0, -1, 3]])
    b = ExactMatrix([[1, 0], [2, 1], [-1, Fraction(1, 2)]])
    assert a * b == ExactMatrix([[5, 2], [-5, Fraction(1, 2)]])
    assert b * a == ExactMatrix([[1, 2, 0], [2, 3, 3],
                                 [-1, Fraction(-5, 2), Fraction(3, 2)]])
    with pytest.raises(ValueError, match="shape mismatch"):
        a * a


def test_matrix_arithmetic_over_cyclotomic_entries():
    i = CycScalar.i()
    m = ExactMatrix([[i, 0], [0, i]])
    assert m * m == ExactMatrix([[-1, 0], [0, -1]])
    assert m.inverse() == ExactMatrix([[-i, 0], [0, -i]])


def test_subspace_dimension_and_membership():
    s = Subspace(3, [[1, 0, 0], [1, 1, 0], [2, 1, 0]])
    assert s.dim == 2
    assert s.contains([5, -3, 0])
    assert not s.contains([0, 0, 1])


def _seeded_scalar(rng: random.Random, cyclotomic: bool):
    if not cyclotomic:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return CycScalar(*(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(4)))


@pytest.mark.parametrize("cyclotomic", [False, True])
def test_membership_agrees_with_the_rank_of_the_extended_basis(cyclotomic):
    rng = random.Random(f"contains:{cyclotomic}")
    n = 6
    verdicts = set()
    for _trial in range(12):
        gens = [[_seeded_scalar(rng, cyclotomic) for _ in range(n)]
                for _ in range(rng.randint(1, 4))]
        # a zero entry gives bases whose pivots skip a column
        gens[0][rng.randrange(n)] = Fraction(0)
        space = Subspace(n, gens)
        inside = ExactMatrix.from_columns(gens).apply(
            [_seeded_scalar(rng, cyclotomic) for _ in gens])
        outside = [_seeded_scalar(rng, cyclotomic) for _ in range(n)]
        for vec in (inside, outside):
            oracle = Subspace(n, space.basis + [vec]).dim == space.dim
            assert space.contains(vec) == oracle
            verdicts.add(oracle)
        assert space.contains(inside)
    assert verdicts == {True, False}


def _eigenspace(mat: ExactMatrix, value) -> Subspace:
    """Oracle: the kernel of mat - value * I."""
    n = mat.nrows
    shift = ExactMatrix([[value if i == j else 0 for j in range(n)]
                         for i in range(n)])
    return Subspace(n, (mat - shift).kernel_basis())


def _zassenhaus(a: Subspace, b: Subspace) -> Subspace:
    """Oracle: the meet of two subspaces by Zassenhaus block elimination.
    Reduce the rows [u | u] over a's basis and [w | 0] over b's; the
    right halves of the rows that pivot in the right half span the
    meet."""
    n = a.ambient_dim
    block = ([list(u) + list(u) for u in a.basis]
             + [list(w) + [0] * n for w in b.basis])
    if not block:
        return Subspace(n, [])
    red, pivots = ExactMatrix(block).rref()
    return Subspace(n, [red.rows[r][n:] for r, p in enumerate(pivots)
                        if p >= n])


def _fixed_space_oracle(mats: list) -> Subspace:
    """The common fixed space as the meet of the eigenvalue-1 spaces."""
    space = _eigenspace(mats[0], 1)
    for m in mats[1:]:
        space = _zassenhaus(space, _eigenspace(m, 1))
    return space


def test_subspace_sum_and_intersection_dimension_from_one_rank():
    a = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    total = a.sum(b)
    assert total.dim == 3
    # dim (a meet b) = dim a + dim b - rank [a | b], the modular identity
    rank = ExactMatrix.from_columns(a.basis + b.basis).rank()
    meet = _zassenhaus(a, b)
    assert rank == total.dim
    assert a.dim + b.dim - rank == meet.dim == 1
    assert meet.contains([0, 7, 0])


def test_fixed_space_of_one_matrix():
    m = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]])
    fixed = joint_fixed_space([m])
    assert fixed.dim == 2 and fixed == _eigenspace(m, 1)
    assert fixed.contains([3, -1, 0]) and not fixed.contains([0, 0, 1])
    assert joint_fixed_space([ExactMatrix([[2, 0], [0, 5]])]).dim == 0
    with pytest.raises(ValueError):
        joint_fixed_space([])


@pytest.mark.parametrize("cyclotomic", [False, True])
def test_fixed_space_is_the_meet_of_the_eigenvalue_1_spaces(cyclotomic):
    rng = random.Random(f"fixed:{cyclotomic}")
    n = 5
    dims = set()
    for _trial in range(8):
        change = ExactMatrix([[_seeded_scalar(rng, cyclotomic)
                               for _ in range(n)] for _ in range(n)])
        if change.rank() != n:
            continue
        back = change.inverse()
        # columns 0..d-1 of the change of basis are fixed by every
        # matrix of the family, column d + j by matrix j alone
        d = rng.randint(0, 2)
        mats = []
        for j in range(rng.randint(1, 3)):
            fixed_cols = set(range(d)) | {d + j}
            block = ExactMatrix([
                [int(r == c) if c in fixed_cols
                 else _seeded_scalar(rng, cyclotomic) for c in range(n)]
                for r in range(n)])
            mats.append(change * block * back)
        fixed = joint_fixed_space(mats)
        assert fixed == _fixed_space_oracle(mats)
        assert all(fixed.contains(change.column(c)) for c in range(d))
        dims.add(fixed.dim)
    assert len(dims) >= 2


def test_joint_fixed_space_of_a_sign_pair():
    flip = ExactMatrix([[-1, 0], [0, 1]])
    ident = ExactMatrix.identity(2)
    fixed = joint_fixed_space([flip, ident])
    assert fixed.dim == 1
    assert fixed.contains([0, 4])


def test_jacobian_evaluation_at_a_point():
    x, y = MPoly.var("x1"), MPoly.var("x2")
    polys = [x ** 2 + y, x * y]
    mat = jacobian_at(polys, ["x1", "x2"], {"x1": Fraction(3), "x2": Fraction(2)})
    assert mat == ExactMatrix([[6, 1], [2, 3]])


def _cyc(rows):
    """The same rows with every entry a rational CycScalar."""
    return [[CycScalar(v) for v in row] for row in rows]


def test_a_subspace_compares_equal_whatever_spans_it():
    a = Subspace(3, [[1, 2, 0], [0, 1, 1]])
    # (1, 3, 1) = a0 + a1 and (2, 3, -1) = 2 a0 - a1, plus a redundant row
    b = Subspace(3, [[CycScalar(1), CycScalar(3), CycScalar(1)],
                     [Fraction(2), Fraction(3), Fraction(-1)],
                     [CycScalar(3), Fraction(6), 0]])
    assert a == b and b == a
    i = CycScalar.i()
    assert Subspace(2, [[i, 1]]) == Subspace(2, [[1, -i]])


def test_subspaces_of_one_dimension_or_another_ambient_differ():
    a = Subspace(3, [[1, 2, 0], [0, 1, 1]])
    assert a != Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert a != Subspace(4, [[1, 2, 0, 0], [0, 1, 1, 0]])
    assert Subspace(3, []) != Subspace(4, [])


def test_rational_and_cyclotomic_copies_reduce_alike():
    rows = [[0, 3, Fraction(3, 4), 1],
            [2, Fraction(-5, 6), 0, 7],
            [4, Fraction(1, 3), Fraction(3, 2), 15]]
    red, pivots = ExactMatrix(rows).rref()
    red_cyc, pivots_cyc = ExactMatrix(_cyc(rows)).rref()
    assert pivots == pivots_cyc == [0, 1, 2]
    assert red.rows == red_cyc.rows


def _copies(kind):
    """A value built from Fractions, the same value built from rational
    CycScalars, and a different value."""
    if kind == "mpoly":
        x, y = MPoly.var("x1"), MPoly.var("x2")
        return (Fraction(1, 2) * x ** 2 + 3 * x * y - y,
                CycScalar(Fraction(1, 2)) * x ** 2 + CycScalar(3) * x * y
                - CycScalar(1) * y,
                Fraction(1, 2) * x ** 2 + 3 * x * y + y)
    if kind == "binform":
        coeffs = [Fraction(1, 2), 0, -3]
        return (BinaryForm(2, coeffs), BinaryForm(2, _cyc([coeffs])[0]),
                BinaryForm(2, [Fraction(1, 2), 0, 3]))
    rows = [[1, Fraction(-2, 3)], [0, 5]]
    return (ExactMatrix(rows), ExactMatrix(_cyc(rows)),
            ExactMatrix([[1, Fraction(-2, 3)], [5, 0]]))


@pytest.mark.parametrize("kind", ["mpoly", "binform", "exact_matrix"])
def test_rational_and_cyclotomic_copies_compare_equal(kind):
    frac, cyc, other = _copies(kind)
    assert frac == cyc and cyc == frac
    assert frac != other and cyc != other


def test_matrices_of_another_shape_differ():
    assert ExactMatrix([[1, 2]]) != ExactMatrix([[1], [2]])
