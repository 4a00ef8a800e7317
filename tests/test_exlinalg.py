"""Exact linear algebra over the rational and cyclotomic scalars."""

from fractions import Fraction

import pytest

from covforge.exlinalg import (ExactMatrix, Subspace, eigenspace,
                               jacobian_at, joint_fixed_space)
from covforge.mpoly import poly_vars
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
    assert m * m == ExactMatrix.identity(2).scale(-1)
    assert m.inverse() == m.scale(-1)


def test_subspace_dimension_and_membership():
    s = Subspace(3, [[1, 0, 0], [1, 1, 0], [2, 1, 0]])
    assert s.dim == 2
    assert s.contains([5, -3, 0])
    assert not s.contains([0, 0, 1])


def test_subspace_sum_and_intersection_dimensions():
    a = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    total = a.sum(b)
    meet = a.intersection(b)
    assert total.dim == 3
    assert meet.dim == 1
    assert meet.contains([0, 7, 0])
    # modular dimension identity
    assert a.dim + b.dim == total.dim + meet.dim


def test_eigenspace_extraction():
    m = ExactMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    e2 = eigenspace(m, 2)
    e5 = eigenspace(m, 5)
    assert e2.dim == 2 and e5.dim == 1
    assert e5.contains([0, 0, 3])
    assert eigenspace(m, 7).dim == 0


def test_joint_fixed_space_of_a_sign_pair():
    flip = ExactMatrix([[-1, 0], [0, 1]])
    ident = ExactMatrix.identity(2)
    fixed = joint_fixed_space([flip, ident])
    assert fixed.dim == 1
    assert fixed.contains([0, 4])


def test_jacobian_evaluation_at_a_point():
    x, y = poly_vars("x1", "x2")
    polys = [x ** 2 + y, x * y]
    mat = jacobian_at(polys, ["x1", "x2"], {"x1": Fraction(3), "x2": Fraction(2)})
    assert mat == ExactMatrix([[6, 1], [2, 3]])
