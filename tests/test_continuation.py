"""Homotopy tracking, the stratum census, and the projection data."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from covforge import construction as con
from covforge.continuation import (CHART_VARS, WORKING_DPS, CompiledSystem,
                                   NumericRun, TrackConfig, _chordal,
                                   _poly_terms, _rng, count_stratum_points,
                                   embed_mp, literal_pure_quadrics, mp_polish,
                                   octic_root_clusters, projection_data,
                                   solve_projective, track)
from covforge.mpoly import MPoly
from covforge.scalar import CycScalar

SAMPLE_R = (Fraction(10), Fraction(1, 2), Fraction(1, 3))


def test_seeded_streams_are_reproducible_and_independent():
    assert _rng(42, "track").random() == _rng(42, "track").random()
    assert _rng(42, "track").random() != _rng(42, "other").random()
    assert _rng(42, "a", 0).random() != _rng(42, "a", 1).random()


def test_chordal_distance_ignores_scale_and_phase():
    v = np.array([1.0 + 0j, 2.0, -1.0])
    assert _chordal(v, 3.7j * v) < 1e-12
    e1 = np.array([1.0 + 0j, 0.0])
    e2 = np.array([0.0j, 1.0])
    assert abs(_chordal(e1, e2) - 1.0) < 1e-12


def test_tracking_a_univariate_quadratic_finds_both_roots():
    p = MPoly.var("x1") ** 2 - 1
    system = CompiledSystem([_poly_terms(p, ("x1",))], 1)
    results, path_count = track(system, seed=42)
    assert path_count == 2
    assert all(r.status == "accepted" for r in results)
    values = sorted(complex(r.x[0]).real for r in results)
    assert abs(values[0] + 1) < 1e-8 and abs(values[1] - 1) < 1e-8


def _sparse_rows():
    # restrict the literal quadrics to the locus where the six leading
    # coordinates vanish; two survive as nonzero forms in (x7, x8, x9)
    zeros = {f"x{i}": 0 for i in range(1, 7)}
    rows = [q.substitute(zeros) for q in literal_pure_quadrics()]
    return [q for q in rows if not q.is_zero()]


def test_projective_solver_recovers_the_four_sparse_solutions():
    rows = _sparse_rows()
    assert len(rows) == 2

    run = solve_projective(rows, ("x7", "x8", "x9"), 42, "sparse-test",
                           TrackConfig())
    assert run["path_count"] == 4
    assert run["failed"] == []
    assert len(run["distinct"]) == 4

    targets = [np.array([complex(t) for t in
                         (Fraction(p[0]), Fraction(p[1]), Fraction(p[2]))])
               for p in con.special_points()["sparse_solutions"]]
    for t in targets:
        best = min(_chordal(t, e.x) for e in run["distinct"])
        assert best < 1e-6  # the endpoint-identification tolerance


def test_mp_embedding_and_polish_reach_the_working_precision():
    with mp.workdps(WORKING_DPS):
        # zeta_8, i and sqrt(2) of the exact field
        assert abs(embed_mp(CycScalar.zeta())
                   - mp.exp(mp.mpc(0, 1) * mp.pi / 4)) < 1e-38
        assert abs(embed_mp(CycScalar.i()) - 1j) < 1e-38
        assert abs(embed_mp(CycScalar.sqrt2()) - mp.sqrt(2)) < 1e-38

        # each double endpoint of the sparse system polishes onto its
        # exact sparse anchor
        run = solve_projective(_sparse_rows(), ("x7", "x8", "x9"), 42,
                               "sparse-test", TrackConfig())
        polished = [mp_polish(run["system"], e.x) for e in run["distinct"]]
        for p in con.special_points()["sparse_solutions"]:
            anchor = [embed_mp(Fraction(v)) for v in p]
            assert min(_chordal(x, anchor) for x in polished) < 1e-30


def test_census_at_the_sample_parameters_is_complete_and_cached(numeric_run):
    census = numeric_run.census(SAMPLE_R, 42)
    assert census.path_count == 32
    assert census.accepted_count == 32
    assert census.distinct_count == 32
    assert census.failed == []
    assert census.min_sv > 1e-6
    assert sum(census.partition.values()) == 32
    # shared within a run: the identical query returns the same object,
    # also when the triple is given as ints
    assert numeric_run.census(SAMPLE_R, 42) is census
    assert numeric_run.census((10, SAMPLE_R[1], SAMPLE_R[2]), 42) is census


def test_a_numeric_run_shares_probes_and_a_new_run_recomputes(numeric_run):
    first = numeric_run.probe((0, 0, 0), 42, 1)
    assert numeric_run.probe((0, 0, 0), 42, 1) is first
    fresh = NumericRun().probe((0, 0, 0), 42, 1)
    assert fresh is not first
    assert fresh["slice_counts"] == first["slice_counts"] == [4]


def test_census_rejects_degenerate_parameter_triples():
    # r2 = 0, r3 = 13/7 zeroes the first leading-coefficient inequation
    bad = (Fraction(10), Fraction(0), Fraction(13, 7))
    with pytest.raises(ValueError):
        count_stratum_points(bad, 42)


def test_root_clusters_separate_sixfold_from_simple_roots():
    # a solution-family instance carries a sixfold root cluster
    family_instance = [1, 0, 0, 10, 0, 0, 10, 1, 0]
    sizes = octic_root_clusters(family_instance, cluster_radius=1e-4)
    assert sizes == [6, 1, 1]
    # the distinguished invariant octic has eight simple roots
    invariant = [0] * 6 + [5, 0, 1]
    sizes = octic_root_clusters(invariant, cluster_radius=1e-4)
    assert sizes == [1] * 8


def test_projection_data_is_exact_and_invertible():
    data = projection_data()
    assert data["center_rank"] == 5
    assert data["target_rank"] == 4
    assert data["intersection_dim"] == 0
    m = data["matrix"]
    assert m.nrows == 9 and m.ncols == 9
    assert m.rank() == 9
    assert len(data["extract_rows"]) == 4
    # extraction rows annihilate the center columns and pick out the targets
    for j in range(5):
        col = m.column(j)
        for row in data["extract_rows"]:
            assert sum(a * b for a, b in zip(row, col)) == 0
    for jt in range(4):
        col = m.column(5 + jt)
        picked = [sum(a * b for a, b in zip(row, col))
                  for row in data["extract_rows"]]
        expected = [Fraction(1) if k == jt else Fraction(0) for k in range(4)]
        assert picked == expected


def test_chart_variables_match_the_slice_coordinates():
    assert CHART_VARS == ("x1", "x2", "x3", "x7", "x8", "x9")
