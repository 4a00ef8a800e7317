"""Stored bases, coordinate systems, charts, and distinguished points."""

from fractions import Fraction

import pytest

from covforge import construction as con
from covforge.binform import max_root_multiplicity_exact
from covforge.construction import (literal_pure_quadrics,
                                   literal_restricted_quadrics)
from covforge.exlinalg import ExactMatrix
from covforge.mpoly import MPoly


def test_stored_basis_forms_are_linearly_independent():
    octic_rows = [f.coeffs for f in con.octic_basis()]
    quartic_rows = [f.coeffs for f in con.quartic_basis()]
    assert ExactMatrix(octic_rows).rank() == 9
    assert ExactMatrix(quartic_rows).rank() == 5


def test_coordinate_round_trip_through_the_basis():
    def coords(f8, f0, f4):
        return con.octic_coordinates(f8) + [f0] + con.quartic_coordinates(f4)

    v = [Fraction(k + 1, 3) for k in range(15)]
    f8, f0, f4 = con.assemble(v)
    assert coords(f8, f0, f4) == v
    # each basis form maps back to its own unit vector
    for k in (0, 6, 8, 9, 10, 14):
        f8, f0, f4 = con.assemble(con.unit15(k))
        assert coords(f8, f0, f4) == con.unit15(k)


def test_projective_points_compare_up_to_scale():
    a = con.ProjPoint([2, 4, 0])
    b = con.ProjPoint([1, 2, 0])
    c = con.ProjPoint([1, 2, 1])
    assert a == b and a != c
    assert a.canonical()[0] == 1
    with pytest.raises(ValueError):
        con.ProjPoint([0, 0, 0])


def test_chart_map_sends_the_crossing_point_to_the_stored_image():
    points = con.special_points()
    params, image = con.pi_chart(tuple(points["crossing_point"]))
    assert all(p == 0 for p in params)
    assert image == points["u_dprime_0"]


def test_chart_map_rejects_points_outside_its_domain():
    points = con.special_points()
    with pytest.raises(ValueError):
        con.pi_chart(tuple(points["base_point"]))  # x1 x2 x3 = 0


def test_stored_and_literal_quadrics_differ_on_the_multiple_root_locus():
    # Witness vector on the slice r = (28, 1, 1) whose octic has a root of
    # multiplicity six: the literal quadrics all vanish there, while the
    # first stored quadric does not.  This pins which system each kind of
    # computation must use.
    w = (Fraction(-1, 56), Fraction(-1, 64), Fraction(1, 64),
         Fraction(-1, 2), Fraction(-1, 64), Fraction(1, 64),
         Fraction(1, 2), Fraction(1, 56), Fraction(0))
    bind = {f"x{i + 1}": w[i] for i in range(9)}

    stored_vals = [q.evaluate(bind) for q in con.pure_quadric_parts()]
    assert stored_vals[0] == Fraction(3, 64)
    assert stored_vals[1:] == [0, 0, 0, 0]

    literal_vals = [q.evaluate(bind) for q in literal_pure_quadrics()]
    assert literal_vals == [0, 0, 0, 0, 0]

    f8, _f0, _f4 = con.assemble(list(w) + [Fraction(0)] * 6)
    assert max_root_multiplicity_exact(f8) == 6


def test_restricting_the_parameters_recovers_the_reduced_system():
    full = con.delta_coordinate_system()
    reduced = con.restricted_system_3_2()
    substituted = [p.substitute({"s3": 0, "s4": 0, "s5": 0}) for p in full]
    assert list(reduced) == substituted


def test_sparse_solutions_satisfy_all_stored_quadrics():
    quads = con.pure_quadric_parts()
    for p in con.special_points()["sparse_solutions"]:
        v9 = con.sparse_solution_vec9(p)
        bind = {f"x{i + 1}": v9[i] for i in range(9)}
        assert all(q.evaluate(bind) == 0 for q in quads)


def test_solution_families_vanish_modulo_the_square_root_relation():
    fams, rel = con.stratum1_solution_families()
    assert len(fams) == 4
    assert rel == 25 * MPoly.var("r1") ** 2 - 900
    replacement = 25 * MPoly.var("r1") ** 2 - 900
    quads = con.pure_quadric_parts()
    for fam in fams:
        bind = {f"x{i + 1}": fam[i] for i in range(9)}
        residues = [q.substitute(bind).reduce_quadratic("a", replacement)
                    for q in quads]
        assert all(r.is_zero() for r in residues)


def test_action_table_holds_four_15_by_15_blocks():
    table = con.action_table()
    assert sorted(table) == ["omega", "rho", "sigma", "tau"]
    for rows in table.values():
        assert len(rows) == 15
        assert all(len(r) == 15 for r in rows)


def test_slice_lift_inverts_the_free_coordinates():
    r = (Fraction(10), Fraction(1, 2), Fraction(1, 3))
    free = [Fraction(1), Fraction(2), Fraction(3),
            Fraction(4), Fraction(5), Fraction(6)]
    v9 = con.octic_vector_on_slice(r, free)
    assert v9[3] == r[0] * free[0]
    assert v9[4] == r[1] * free[1]
    assert v9[5] == r[2] * free[2]
    assert [v9[i] for i in (0, 1, 2, 6, 7, 8)] == free


def test_restricted_quadrics_use_only_the_free_coordinates():
    r = (Fraction(10), Fraction(1, 2), Fraction(1, 3))
    free_names = {"x1", "x2", "x3", "x7", "x8", "x9"}
    for q in literal_restricted_quadrics(r):
        assert q.variables() <= free_names
