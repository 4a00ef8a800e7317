"""Homotopy tracking, the stratum census, and the projection data."""

import ast
import cmath
import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from covforge import construction as con
from covforge import continuation
from covforge.construction import (CHART_VARS, PLANE_VARS, SAMPLE_R,
                                   census_anchors, conic_pair,
                                   exact_preimage, fiber_equations,
                                   literal_pure_quadrics,
                                   literal_restricted_quadrics,
                                   projection_data, quadric_matrix)
from covforge.continuation import (CLUSTER_RADIUS, SMALL_R, TOL_MATCH,
                                   TOL_TRACK, WORKING_DPS,
                                   CompiledSystem, NumericRun,
                                   UndecidedOctic, _census_problem,
                                   _preimage_problem, _slice_problem,
                                   _chordal_groups, _chordal_matrix,
                                   _classify_point, _counted_clusters,
                                   _fiber_point_ranks, _linear_form,
                                   _predict, _rng, _slice_rows,
                                   _solve_stack, _start_system,
                                   check_fiber_geometry,
                                   check_seed_stability,
                                   check_stratum_counts, conic_points,
                                   exact_slice,
                                   fiber_probe, mp_polish,
                                   octic_root_clusters, PathResult,
                                   solve_projective, solve_stacked, track)
from covforge.binform import max_root_multiplicity_exact
from covforge.exlinalg import ExactMatrix, Subspace
from covforge.mpoly import MPoly, exponents
from covforge.scalar import CycScalar, as_cyc


def test_seeded_streams_are_reproducible_and_independent():
    assert _rng(42, "track").random() == _rng(42, "track").random()
    assert _rng(42, "track").random() != _rng(42, "other").random()
    assert _rng(42, "a", 0).random() != _rng(42, "a", 1).random()


def test_chordal_distance_ignores_scale_and_phase():
    v = np.array([[1.0 + 0j, 2.0, -1.0]])
    assert _chordal_matrix(v, 3.7j * v)[0, 0] < 1e-12
    e1 = np.array([[1.0 + 0j, 0.0]])
    e2 = np.array([[0.0j, 1.0]])
    assert abs(_chordal_matrix(e1, e2)[0, 0] - 1.0) < 1e-12


def _chordal_each(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The oracle of `_chordal_matrix`: the chordal distance of the
    projective point a to each row of a stack (or of each row of a stack
    a to the same row of `points`), from the 2x2 minors, one point or
    one pair at a time, as the package once computed it."""
    minors = (a[..., :, None] * points[..., None, :]
              - a[..., None, :] * points[..., :, None])
    cross = 0.5 * np.sum(np.abs(minors) ** 2, axis=(-2, -1))
    norms = (np.sum(np.abs(a) ** 2, axis=-1)
             * np.sum(np.abs(points) ** 2, axis=-1))
    return np.sqrt(cross / norms)


def test_the_chordal_matrix_is_each_row_s_distances_bit_for_bit():
    rng = np.random.default_rng(46)

    def stack(k):
        return rng.normal(size=(k, 6)) + 1j * rng.normal(size=(k, 6))

    # more rows than one broadcast block of eight
    a, b = stack(11), stack(7)
    # near pairs too, whose minors are all small
    b[2] = (0.3 - 2j) * a[1] + 1e-9 * stack(1)[0]
    b[4] = -a[3]
    b[5] = 1j * a[9]
    matrix = _chordal_matrix(a, b)
    assert matrix.shape == (11, 7)
    for i, row in enumerate(matrix):
        assert row.tobytes() == _chordal_each(a[i], b).tobytes()
    # with the roles of the two sets swapped, the distances agree to
    # rounding only: a complex product taken with a fused multiply-add
    # need not commute bit for bit
    assert np.abs(matrix.T - _chordal_matrix(b, a)).max() < 1e-14
    assert np.argwhere(matrix < TOL_MATCH).tolist() == [[1, 2], [3, 4],
                                                        [9, 5]]
    # an empty set gives an empty near matrix of the right shape
    assert _chordal_matrix(a[:0], b).shape == (0, 7)
    assert _chordal_matrix(a, b[:0]).shape == (11, 0)
    assert _chordal_matrix(a[:0], b[:0]).shape == (0, 0)
    # every ordered pair (i, j), i != j, of a set's matrix against
    # itself is the pair's own distance, row i against row j, as the
    # dedup, the root groups and the Pellet discs read it
    for n in (2, 6, 9):
        p = rng.normal(size=(19, n)) + 1j * rng.normal(size=(19, n))
        p[3] = (0.3 - 2j) * p[2] + 1e-9 * p[7]
        p[11] = -1j * p[10]
        first, second = np.nonzero(~np.eye(len(p), dtype=bool))
        assert (_chordal_matrix(p, p)[first, second].tobytes()
                == _chordal_each(p[first], p[second]).tobytes()), n


def _hits(points, target) -> list[int]:
    """Indices of the points within TOL_MATCH of the target: its row of
    the near matrix."""
    target = np.asarray(target, dtype=complex)
    stack = np.asarray(points, dtype=complex).reshape(-1, len(target))
    return np.flatnonzero(_chordal_matrix(target[None], stack)[0]
                          < TOL_MATCH).tolist()


def _gaussian(re, im):
    return CycScalar(Fraction(re)) + CycScalar.i() * Fraction(im)


def _two_census_systems():
    """Two census systems of one shape, as exact polynomials: the sample
    census with an exact chart row, and the census at SMALL_R with a chart
    row of complex doubles, each a dyadic Gaussian rational."""
    exact_chart = [Fraction(1), Fraction(-2, 3), CycScalar.i(), Fraction(0),
                   CycScalar.zeta() * 3, Fraction(5, 7)]
    double_chart = [0.5 - 0.25j, 1.5j, -0.75 + 0j, 0j, 2.0 + 0.125j, -1.0j]
    polys = []
    for r, chart, constant in ((SAMPLE_R, exact_chart, Fraction(-1)),
                               (SMALL_R, double_chart, -1.0)):
        chart_poly = MPoly.const(Fraction(constant))
        for c, name in zip(chart, CHART_VARS):
            if isinstance(c, complex):
                c = con.gaussian(c)
            chart_poly = chart_poly + MPoly.var(name) * c
        polys.append(list(literal_restricted_quadrics(r)) + [chart_poly])
    # the double chart row is the form `_linear_form` builds of it
    assert _linear_form(double_chart, CHART_VARS, -1.0) == polys[1][-1]
    return polys


# dyadic Gaussian rationals, so a double point is the exact point
_DYADIC_POINTS = (
    [_gaussian("3/4", "-1/8"), _gaussian("-5/2", "1/2"),
     _gaussian("1/16", "7/4"), _gaussian("2", "0"),
     _gaussian("-3/8", "-9/8"), _gaussian("1/2", "5/4")],
    [_gaussian("-1/4", "3/2"), _gaussian("7/8", "0"),
     _gaussian("0", "-5/4"), _gaussian("9/16", "1/32"),
     _gaussian("-2", "3/4"), _gaussian("1", "-1")])


def test_one_pass_gives_the_exact_values_and_jacobian():
    polys = _two_census_systems()
    # the derivative of a squared coordinate carries the exponent factor 2
    assert any(2 in exponents(e) for p in polys[0] for e in p.terms)
    system = CompiledSystem(polys, CHART_VARS)
    assert len(system.exact) == 2 and system.path_counts == [32, 32]
    # each point under each system, in one stack, with `which`
    pairs = list(itertools.product(range(2), range(2)))
    stack = np.array([[complex(v) for v in _DYADIC_POINTS[i]]
                      for i, _k in pairs])
    values, jac = system.evaluate(stack, np.array([k for _i, k in pairs]))
    assert values.shape == (4, 6) and jac.shape == (4, 6, 6)
    for (i, k), v, j in zip(pairs, values, jac):
        env = dict(zip(CHART_VARS, _DYADIC_POINTS[i]))
        for row, p in enumerate(polys[k]):
            exact = complex(p.evaluate(env))
            assert abs(v[row] - exact) < 1e-12 * max(1.0, abs(exact))
            for col, name in enumerate(CHART_VARS):
                exact = complex(p.diff(name).evaluate(env))
                assert abs(j[row, col] - exact) < 1e-12 * max(1.0,
                                                              abs(exact))
    # a point alone is under system 0
    lone = system.evaluate(stack[0])
    assert lone[0].shape == (6,) and lone[1].shape == (6, 6)
    assert np.array_equal(lone[0], values[0])
    assert np.array_equal(lone[1], jac[0])


def test_the_polish_reads_each_row_exactly_from_its_matrix():
    # the exact residual of `mp_polish` is each row's exact value, from
    # the same matrices the tracker reads as doubles
    polys = _two_census_systems()
    system = CompiledSystem(polys, CHART_VARS)
    for k in range(2):
        exact = system.member(k).exact[0]
        for row, entries in enumerate(exact):
            twice = np.zeros((7, 7), dtype=complex)
            for (i, j), a in entries.items():
                assert a and entries[j, i] == a
                twice[i, j] = 2 * complex(a)
            assert np.array_equal(twice,
                                  system._twice[k, 7 * row:7 * row + 7])
        for point in _DYADIC_POINTS:
            env = dict(zip(CHART_VARS, point))
            assert continuation._exact_residual(exact, point) == [
                p.evaluate(env) for p in polys[k]]


def test_a_quadric_matrix_is_of_degree_two_in_its_own_variables():
    x1, x2, x3 = MPoly.var("x1"), MPoly.var("x2"), MPoly.var("x3")
    names = ("x1", "x2")
    assert quadric_matrix(x1 * x2 - 3 * x2 + 1, names) == {
        (0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2),
        (1, 2): Fraction(-3, 2), (2, 1): Fraction(-3, 2),
        (2, 2): Fraction(1)}
    with pytest.raises(ValueError, match="stray variable x3"):
        quadric_matrix(x1 * x2 + x3, names)
    with pytest.raises(ValueError, match="stray variable x3"):
        CompiledSystem([[x1 * x2 - 1, x1 + x3]], names)
    with pytest.raises(ValueError, match="degree at most 2"):
        CompiledSystem([[x1 * x2 - 1, x1 ** 2 * x2 - 2]], names)


def test_a_compiled_row_does_not_follow_its_term_order():
    # each matrix entry comes from one term, so the order of a row's
    # terms, which the order of its additions fixes, reaches neither the
    # exact matrices nor their double copy
    quadrics = literal_restricted_quadrics(SAMPLE_R)
    reversed_terms = [MPoly(dict(reversed(q.terms.items()))) for q in quadrics]
    assert [list(q.terms) for q in reversed_terms] != [
        list(q.terms) for q in quadrics]
    for q, p in zip(quadrics, reversed_terms):
        assert quadric_matrix(q, CHART_VARS) == quadric_matrix(p, CHART_VARS)
    forward = CompiledSystem([list(quadrics)], CHART_VARS)
    backward = CompiledSystem([reversed_terms], CHART_VARS)
    assert forward.exact == backward.exact
    assert forward._twice.tobytes() == backward._twice.tobytes()


def test_only_a_homogeneous_quadric_restricts_to_a_plane():
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    assert con._on_basis(z1 * t - z2 * z2, PLANE, PLANE_VARS) == {
        (0, 0): 0, (0, 1): 0, (0, 2): 1, (1, 1): -1, (1, 2): 0, (2, 2): 0}
    for q in (z1 * t - 1, z1 * t + z2):
        with pytest.raises(ValueError, match="homogeneous"):
            con._on_basis(q, PLANE, PLANE_VARS)


def test_the_closed_form_start_system_and_its_jacobian():
    degrees = np.array([2, 1, 3])
    consts = np.array([1j, complex(0.6, -0.8), -1.0 + 0j])
    x = np.array([0.5 - 1.25j, -2.0 + 0.75j, 1.5 + 0.5j])
    values, diagonal = _start_system(x, (degrees, consts))
    assert values.shape == diagonal.shape == (3,)
    with mp.workdps(WORKING_DPS):
        for i, (d, b, xi) in enumerate(zip([2, 1, 3], consts, x)):
            xm = mp.mpc(xi)
            assert abs(values[i] - (xm ** d - mp.mpc(b))) < 1e-12
            assert abs(diagonal[i] - d * xm ** (d - 1)) < 1e-12


def test_a_stack_evaluates_bitwise_as_its_rows():
    rng = np.random.default_rng(7)
    chart = list(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    system = CompiledSystem(
        [list(literal_restricted_quadrics(SAMPLE_R))
         + [_linear_form(chart, CHART_VARS, constant=-1.0)]], CHART_VARS)
    stack = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    stack[2, 1] = 0.0
    values, jac = system.evaluate(stack)
    assert values.shape == (5, 6) and jac.shape == (5, 6, 6)
    for row, v, j in zip(stack, values, jac):
        v1, j1 = system.evaluate(row)
        assert np.array_equal(v, v1) and np.array_equal(j, j1)


def test_a_singular_member_fails_alone_in_a_stacked_solve():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    a[1, 2] = 0.0                       # a zero row: singular
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    y, ok = _solve_stack(a, b)
    assert ok.tolist() == [True, False, True]
    for k in (0, 2):
        assert np.array_equal(y[k], np.linalg.solve(a[k], b[k]))


def test_a_path_that_runs_to_infinity_keeps_its_last_point():
    x1, x2 = MPoly.var("x1"), MPoly.var("x2")
    names = ("x1", "x2")
    # two parallel lines: the one path has no finite endpoint
    system = CompiledSystem([[x1 + x2 - 1, x1 + x2 - 2]], names)
    (path,), _count = track(system, [_rng(42, "track")])
    assert path.status == "diverged"
    assert np.all(np.isfinite(path.x)) and np.linalg.norm(path.x) > 1e10


def test_the_predictor_is_fourth_order():
    # H = (1 + t^2) x - 1, linear in x, has the path x(t) = 1 / (1 + t^2);
    # one predictor step of length h from the path errs by O(h^5), so
    # halving h cuts the error by about 32 (an Euler step: by about 4).
    # A homotopy linear in t as well has a Moebius path, which this
    # predictor follows to rounding, so it could not show the order.
    def path(t):
        return 1.0 / (1.0 + t * t)

    def homotopy(x, t):
        tt = t[:, None]
        return ((1.0 + tt * tt) * x - 1.0, (1.0 + tt * tt)[:, :, None],
                2.0 * tt * x)

    t0 = np.array([0.3])
    x0 = np.array([[path(0.3) + 0j]])
    errors = []
    for h in (0.1, 0.05):
        x1, ok = _predict(homotopy, x0, t0, np.array([h]))
        assert ok.tolist() == [True]
        errors.append(abs(x1[0, 0] - path(0.3 + h)))
    assert errors[0] / errors[1] >= 20


# (status, steps) of the 32 paths of the sample census's first chart at
# seed 42, as tracked one path at a time
SAMPLE_CHART_STEPS = [
    167, 139, 102, 138, 119, 238, 125, 242, 120, 134, 116, 83, 136, 131,
    126, 84, 134, 119, 85, 129, 109, 156, 125, 78, 84, 157, 81, 173, 147,
    175, 113, 94]


class _FirstChart(Exception):
    pass


def test_stacked_paths_take_the_steps_of_lone_paths(monkeypatch):
    def first_chart(*args):
        results, _count = track(*args)
        raise _FirstChart([(r.status, r.steps) for r in results])

    monkeypatch.setattr(continuation, "track", first_chart)
    with pytest.raises(_FirstChart) as chart:
        NumericRun().census(SAMPLE_R, 42)
    assert chart.value.args[0] == [("accepted", s)
                                   for s in SAMPLE_CHART_STEPS]

    # the first charts of the sample and origin censuses as one stack of
    # two systems with different terms: each path as in its lone chart
    charts = []

    def recorded(*args):
        out = track(*args)
        charts.append([(r.index, r.status, r.steps, r.x.tobytes())
                       for r in out[0]])
        return out

    monkeypatch.setattr(continuation, "track", recorded)
    problems = [_census_problem(con.admissible_triple(r), 42)
                for r in (SAMPLE_R, (0, 0, 0))]
    solve_stacked(problems, CHART_VARS)
    stacked = charts[0]
    assert len(stacked) == 64
    for k, (rows, seed, tag, _want) in enumerate(problems):
        charts.clear()
        solve_projective(rows, CHART_VARS, seed, tag)
        assert stacked[32 * k:32 * (k + 1)] == charts[0]

    # the run's fiber stack, slice 0 and preimage trial 0 over Y_NAMES:
    # each path, endpoint and count as in the lone solve
    def solved(run):
        return ([(x.tobytes(), sv) for x, sv
                 in zip(run["distinct"], run["sv_min"].tolist(),
                        strict=True)],
                run["path_count"], run["accepted_count"], run["failed"],
                run["rescue_added"], run["chart"].tobytes(),
                [[(r.index, r.status, r.steps, r.x.tobytes()) for r in f]
                 for f in run["failures"]])

    origin = (Fraction(0),) * 3
    for seed in (1, 7, 42):
        problems = [_slice_problem(origin, seed),
                    _preimage_problem(origin, seed,
                                      projection_data()["extract_rows"])]
        charts.clear()
        runs = solve_stacked(problems, con.Y_NAMES)
        stacked = charts[0]
        assert len(stacked) == 8
        for k, (rows, _seed, tag, want) in enumerate(problems):
            charts.clear()
            alone = solve_projective(rows, con.Y_NAMES, seed, tag, want)
            assert stacked[4 * k:4 * (k + 1)] == charts[0], (seed, tag)
            assert solved(runs[k]) == solved(alone), (seed, tag)


def test_the_plan_is_the_censuses_each_numeric_check_asks_for(
        monkeypatch, numeric_run):
    # every census a check has tracked, in the order it first asks
    asked = []
    solve = numeric_run.solve

    def recorded(kind, r, seed):
        key = (kind, tuple(map(Fraction, r)), seed)
        if key not in asked:
            asked.append(key)
        return solve(kind, r, seed)

    monkeypatch.setattr(numeric_run, "solve", recorded)
    checks = {
        "numeric/lemma6_2": lambda: check_stratum_counts(42, SAMPLE_R,
                                                         numeric_run),
        "numeric/fiber_5": lambda: check_fiber_geometry(42, numeric_run),
        "numeric/seed_stability": lambda: check_seed_stability(
            42, SAMPLE_R, numeric_run),
    }
    def plan(check_ids):
        return NumericRun(check_ids, 42, SAMPLE_R).plan

    for cid, run_check in checks.items():
        asked.clear()
        assert run_check().ok
        assert asked == [(kind, tuple(map(Fraction, r)), seed) for
                         kind, r, seed in plan([cid])], cid
    assert plan(list(checks)) == [
        solve for cid in checks for solve in plan([cid])]
    # numeric/fiber_5 tracks fiber slice 0 and preimage trial 0 too
    assert [kind for kind, _r, _seed in plan(["numeric/fiber_5"])] == [
        "slice", "census", "census", "preimage"]


def test_tracking_a_univariate_quadratic_finds_both_roots():
    p = MPoly.var("x1") ** 2 - 1
    system = CompiledSystem([[p]], ("x1",))
    results, path_count = track(system, [_rng(42, "track")])
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

    run = solve_projective(rows, ("x7", "x8", "x9"), 42, "sparse-test")
    assert run["path_count"] == 4
    assert run["failed"] == []
    assert run["failures"] == [[]]      # no rescue chart ran
    assert len(run["distinct"]) == 4

    targets = [np.array([complex(t) for t in
                         (Fraction(p[0]), Fraction(p[1]), Fraction(p[2]))])
               for p in con.special_points()["sparse_solutions"]]
    for t in targets:
        best = _chordal_matrix(t[None], run["distinct"]).min()
        assert best < 1e-6  # the endpoint-identification tolerance


def test_a_nan_endpoint_is_never_accepted(monkeypatch):
    # the projective gate is `not (residual < TOL_TRACK)`, so a NaN
    # residual fails it and never reaches the singular values
    def nan_track(system, rng):
        x = np.array([1.0, np.nan, 1.0], dtype=complex)
        return [PathResult(0, "accepted", x=x)], 1

    monkeypatch.setattr(continuation, "track", nan_track)
    with np.errstate(invalid="ignore"):
        run = solve_projective(_sparse_rows(), ("x7", "x8", "x9"), 42, "nan")
    assert run["distinct"].shape == (0, 3) and run["sv_min"].shape == (0,)
    assert run["accepted_count"] == 0
    assert [(r.index, r.status) for r in run["failures"][0]] == [(0, "polish")]
    assert run["failed"] == [(0, "polish")]


def test_a_rescue_chart_that_adds_no_endpoint_keeps_chart_0_s(monkeypatch):
    # chart 0 of the sparse system loses its first path, so a rescue
    # chart runs; every path of that chart diverges, so it adds nothing
    charts = []

    def losing(system, streams):
        results, count = track(system, streams)
        for r in results if charts else results[:1]:
            r.status = "diverged"
        charts.append(results)
        return results, count

    monkeypatch.setattr(continuation, "track", losing)
    run = solve_projective(_sparse_rows(), ("x7", "x8", "x9"), 42,
                           "sparse-test")
    assert len(charts) == len(run["failures"]) == 2
    assert [len(f) for f in run["failures"]] == [1, 4]
    assert run["failed"] == [(0, "diverged")]
    assert run["rescue_added"] == 0 and run["accepted_count"] == 3
    assert run["distinct"].shape == (3, 3) and run["sv_min"].shape == (3,)
    assert run["distinct"].tobytes() == np.array(
        [r.x for r in charts[0][1:]]).tobytes()


def test_the_stacked_gate_decides_as_one_endpoint_at_a_time(monkeypatch):
    # the run's fiber stack at seed 42, slice 0 and preimage trial 0:
    # the preimage's chart 0 ends a path `polish` at a singular point of
    # the center line; the per-endpoint gate below, each endpoint in its
    # own system, is the oracle for the stacked one
    charts = []

    def recorded(system, streams):
        results, count = track(system, streams)
        charts.append((system, [(r.status, r.x.copy()) for r in results],
                       results))
        return results, count

    monkeypatch.setattr(continuation, "track", recorded)
    origin = (Fraction(0),) * 3
    runs = solve_stacked([_slice_problem(origin, 42),
                          _preimage_problem(origin, 42,
                                            projection_data()["extract_rows"])],
                         con.Y_NAMES)
    system, tracked, results = charts[0]
    owner = np.repeat(np.arange(2), system.path_counts)
    statuses, sv_min = [], {}
    for p, (status, x) in enumerate(tracked):
        if status == "accepted":
            vals, jac = system.member(owner[p]).evaluate(x / np.linalg.norm(x))
            if np.max(np.abs(vals[:-1]), initial=0.0) < TOL_TRACK:
                sv = np.linalg.svd(jac, compute_uv=False)[-1]
                sv_min[p] = float(sv).hex()
            else:
                status = "polish"
        statuses.append(status)
    assert [r.status for r in results] == statuses
    assert statuses[4:].count("polish") == 1 and len(sv_min) == 5
    got = {p: sv.hex() for k, run in enumerate(runs)
           for x, sv in zip(run["distinct"], run["sv_min"].tolist())
           for p, r in enumerate(results)
           if owner[p] == k and x.tobytes() == r.x.tobytes()}
    assert got == sv_min


def test_a_stacked_solve_gates_each_chart_with_one_evaluation_and_svd(
        monkeypatch):
    # two censuses, the first of which loses a path of chart 0 and so
    # tracks a rescue chart: two stacked charts, each gated by one
    # evaluation and one SVD outside the tracker
    calls = {"track": 0, "evaluate": 0, "svd": 0}
    tracking = []
    real_track, real_evaluate = track, CompiledSystem.evaluate
    real_svd = np.linalg.svd

    def losing_track(*args):
        calls["track"] += 1
        tracking.append(True)
        try:
            results, count = real_track(*args)
        finally:
            tracking.pop()
        if calls["track"] == 1:
            results[0].status = "diverged"
        return results, count

    def counted_evaluate(self, *args):
        calls["evaluate"] += not tracking
        return real_evaluate(self, *args)

    def counted_svd(*args, **kwargs):
        calls["svd"] += not tracking
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(continuation, "track", losing_track)
    monkeypatch.setattr(CompiledSystem, "evaluate", counted_evaluate)
    monkeypatch.setattr(continuation.np.linalg, "svd", counted_svd)
    runs = solve_stacked([_census_problem(SAMPLE_R, seed)
                          for seed in (1, 42)], CHART_VARS)
    assert [len(run["failures"]) for run in runs] == [2, 1]
    assert runs[0]["failed"] == [(0, "diverged")]
    assert calls == {"track": 2, "evaluate": 2, "svd": 2}


def test_the_polish_reaches_the_working_precision():
    # each double endpoint of the sparse system polishes, in exact
    # Gaussian rationals, onto its exact sparse anchor
    run = solve_projective(_sparse_rows(), ("x7", "x8", "x9"), 42,
                           "sparse-test")
    polished = [mp_polish(run["system"], x) for x in run["distinct"]]
    assert all(v.coords[1] == v.coords[3] == 0
               for x in polished for v in x)
    for p in con.special_points()["sparse_solutions"]:
        anchor = [Fraction(v) for v in p]
        assert min(_exact_chordal_squared(anchor, x)
                   for x in polished) < Fraction(1, 10 ** 60)


def _exact_chordal_squared(a, b) -> Fraction:
    """The squared chordal distance of two exact vectors, from the 2x2
    minors, as `_chordal_matrix` takes it, computed exactly."""
    def norm2(z):
        z = as_cyc(z)
        return (z * z.conj()).coords[0]

    cross = sum(norm2(a[i] * b[j] - a[j] * b[i])
                for i, j in itertools.combinations(range(len(a)), 2))
    return cross / (sum(map(norm2, a)) * sum(map(norm2, b)))


def _mp_value(v):
    """An exact scalar as an mpmath complex at the current precision."""
    zeta = mp.exp(mp.mpc(0, 1) * mp.pi / 4)
    return mp.fsum(mp.mpf(c.numerator) / c.denominator * zeta ** k
                   for k, c in enumerate(as_cyc(v).coords))


def test_polished_census_points_match_the_golden_file(numeric_run):
    """Each distinct endpoint of the sample census's solve at seed 42,
    polished at WORKING_DPS, against its point stored as 45-digit strings,
    and the census's labels against the stored ones.  The polish
    converges to the same 40-digit point from any nearby double, so the
    file does not depend on the last bits of the double tracker."""
    golden = json.loads((Path(__file__).parent / "data"
                         / "census_polish_seed42.json").read_text("utf-8"))
    census = numeric_run.census(SAMPLE_R, 42)
    assert [Fraction(v) for v in golden["r"]] == list(SAMPLE_R)
    rows, seed, tag, _want = _census_problem(
        con.admissible_triple(SAMPLE_R), 42)
    run = solve_projective(rows, CHART_VARS, seed, tag)
    # the census's points are the endpoints of this solve
    assert np.array_equal(census.endpoints, run["distinct"])
    assert len(census.points) == len(golden["points"])
    with mp.workdps(45):
        for end, point, want in zip(run["distinct"], census.points,
                                    golden["points"]):
            assert point.stratum == want["stratum"]
            assert point.multiple_root == want["multiple_root"]
            for x, (re, im) in zip(mp_polish(run["system"], end),
                                   want["coords"], strict=True):
                w = mp.mpc(re, im)
                assert abs(_mp_value(x) - w) <= 1e-36 * (1 + abs(w))


def _counting(calls, name):
    """The module function `name`, counting its calls in calls[name]."""
    real = getattr(continuation, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    return counted


@pytest.fixture(scope="module")
def orbit_censuses():
    """Fresh sample censuses at seed 42, with the diagonal subgroup H as
    it is ("orbits") and cut to its identity ("own", where every endpoint
    but the eight stored points is polished and classified on its own),
    each with its counts of `mp_polish` and `octic_root_clusters`
    calls."""
    out = {}
    for name, signs in (("orbits", con.h_orbit_signs()),
                        ("own", con.h_orbit_signs()[:1])):
        calls = dict.fromkeys(("mp_polish", "octic_root_clusters"), 0)
        with pytest.MonkeyPatch.context() as patch:
            for fn in calls:
                patch.setattr(continuation, fn, _counting(calls, fn))
            patch.setattr(con, "h_orbit_signs", lambda: signs)
            out[name] = NumericRun().census(SAMPLE_R, 42), calls
    return out


def test_the_census_polishes_and_classifies_one_point_per_h_orbit(
        orbit_censuses):
    # 8 H-orbits of 24 endpoints: the four L0 and four L1 points are
    # stored exactly
    census, calls = orbit_censuses["orbits"]
    assert len(census.points) == 32
    assert calls == {"mp_polish": 8, "octic_root_clusters": 8}


def test_an_inherited_point_has_its_own_labels(orbit_censuses):
    census, _calls = orbit_censuses["orbits"]
    own, _own_calls = orbit_censuses["own"]
    assert np.array_equal(census.endpoints, own.endpoints)
    for point, alone in zip(census.points, own.points, strict=True):
        assert point.stratum == alone.stratum
        assert point.multiple_root == alone.multiple_root


def test_without_the_symmetry_every_endpoint_is_polished_on_its_own(
        orbit_censuses):
    census, _calls = orbit_censuses["orbits"]
    own, calls = orbit_censuses["own"]
    assert calls == {"mp_polish": 24, "octic_root_clusters": 24}
    assert own.partition == census.partition


def _rational_triples(count: int) -> list[tuple]:
    """Seeded admissible triples with small rational entries."""
    rng = random.Random(20261019)
    triples = []
    while len(triples) < count:
        r = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                  for _ in range(3))
        try:
            triples.append(con.admissible_triple(r))
        except ValueError:
            continue
    return triples


def test_the_stored_census_points_are_exact_with_exact_labels():
    # the four sparse L0 points at every triple; the four L1 instances of
    # the single-pair families where a^2 = 25 r1^2 - 900 has a root in
    # Q(i): a = 40 at the sample, a = 30i at the origin
    origin = (Fraction(0),) * 3
    counts = {SAMPLE_R: 8, origin: 8, SMALL_R: 4}
    counts.update(dict.fromkeys(_rational_triples(4), 4))
    for r, count in counts.items():
        stored = census_anchors(r)
        assert len(stored) == count, r
        quadrics = literal_restricted_quadrics(r)
        for k, point in enumerate(stored):
            env = dict(zip(CHART_VARS, point))
            assert all(q.evaluate(env) == 0 for q in quadrics), (r, point)
            assert point[1] == point[2] == 0
            assert (point[0] == 0) == (k < 4)
            # x1 = 1 or -1 carries a sixfold root, x1 = a and the L0
            # points simple roots only
            octic = con.octic_form(con.octic_vector_on_slice(r, point))
            assert max_root_multiplicity_exact(octic) == \
                (6 if k in (4, 5) else 1), (r, point)
    # the classifier of polished points, given the exact points, agrees
    for r in (SAMPLE_R, origin):
        for k, point in enumerate(census_anchors(r)):
            label = _classify_point(point, r)
            assert (label.stratum, label.multiple_root) == \
                ("L0" if k < 4 else "L1", k in (4, 5)), (r, point)


def test_an_l0_endpoint_no_anchor_matches_is_polished_and_classified(
        monkeypatch, orbit_censuses):
    census, _calls = orbit_censuses["orbits"]
    real = con.special_points()
    dropped, *kept = real["sparse_solutions"]
    monkeypatch.setattr(con, "special_points",
                        lambda: {**real, "sparse_solutions": tuple(kept)})
    calls = dict.fromkeys(("mp_polish", "octic_root_clusters"), 0)
    for fn in calls:
        monkeypatch.setattr(continuation, fn, _counting(calls, fn))
    alone = NumericRun().census(SAMPLE_R, 42)
    assert calls == {"mp_polish": 9, "octic_root_clusters": 9}
    assert alone.partition == census.partition == SAMPLE_PARTITION
    # the classified endpoint is the dropped anchor's, with its labels
    exact = [0j] * 3 + [complex(v) for v in dropped]
    hits = _hits(alone.endpoints, exact)
    assert len(hits) == 1
    assert hits == _hits(census.endpoints, exact)
    point, anchored = alone.points[hits[0]], census.points[hits[0]]
    assert (point.stratum, point.multiple_root) == ("L0", False)
    assert (anchored.stratum, anchored.multiple_root) == ("L0", False)


SAMPLE_PARTITION = {"L0": 4, "L1_X1": 2, "L1_X2": 2, "L2_X1": 2,
                    "L2_X2": 2, "L3_X1": 2, "L3_X2": 2, "Lopen_X1": 12,
                    "Lopen_X2": 4}


def test_a_stored_point_off_the_census_is_named_and_its_endpoint_classified(
        monkeypatch):
    stored = census_anchors(SAMPLE_R)
    off = stored[4][:4] + [stored[4][4] + 1] + stored[4][5:]

    def moved(r):
        points = census_anchors(r)
        if r == SAMPLE_R:
            points[4] = off
        return points

    calls = {"mp_polish": 0}
    monkeypatch.setattr(con, "census_anchors", moved)
    monkeypatch.setattr(continuation, "mp_polish",
                        _counting(calls, "mp_polish"))
    fresh = NumericRun(["numeric/lemma6_2"], 42, SAMPLE_R)
    result = check_stratum_counts(42, SAMPLE_R, fresh)
    assert list(result.residuals) == [
        f"census (10, 1/2, 1/3) at seed 42: stored point "
        f"{[str(v) for v in off]} matches no endpoint"]
    # the endpoint the point took is polished and classified on its own,
    # one more polish than the 8 per census, with the stored labels
    assert calls["mp_polish"] == 17
    census = fresh.census(SAMPLE_R, 42)
    assert census.partition == SAMPLE_PARTITION
    hits = _hits(census.endpoints, [complex(v) for v in stored[4]])
    assert len(hits) == 1
    point = census.points[hits[0]]
    assert (point.stratum, point.multiple_root) == ("L1", True)


def test_seed_stability_labels_census_s_alone(monkeypatch):
    calls = {"mp_polish": 0, "count_stratum_points": 0}
    for fn in calls:
        monkeypatch.setattr(continuation, fn, _counting(calls, fn))
    result = check_seed_stability(42, SAMPLE_R, NumericRun())
    assert result.ok, result.residuals
    assert result.details["partition"] == SAMPLE_PARTITION
    # census 42 polishes one endpoint per H-orbit off its stored points;
    # the censuses at 43 and 44 are matched to it, not labelled
    assert calls == {"mp_polish": 8, "count_stratum_points": 1}


def _moved(x: np.ndarray, distance: float) -> np.ndarray:
    """The projective point moved by the given chordal distance."""
    w = np.zeros_like(x)
    w[np.argmin(np.abs(x))] = 1
    u = w - (np.vdot(x, w) / np.vdot(x, x)) * x
    return x + distance * np.linalg.norm(x) * u / np.linalg.norm(u)


def test_an_endpoint_off_census_s_is_named_both_ways_and_not_polished(
        monkeypatch, numeric_run):
    census = numeric_run.census(SAMPLE_R, 42)
    j = next(i for i, p in enumerate(census.points)
             if p.stratum == "Lopen" and p.multiple_root)
    target = census.endpoints[j]
    endpoints = census.endpoints.copy()
    endpoints[j] = _moved(target, 1e-6)
    moved = dataclasses.replace(census, endpoints=endpoints)
    assert TOL_MATCH < _chordal_matrix(endpoints[j:j + 1],
                                       target[None])[0, 0] < 1.1e-6

    real = continuation.count_stratum_points

    def labelled(r, seed, solved):
        return moved if seed == 42 else real(r, seed, solved)

    calls = {"mp_polish": 0}
    monkeypatch.setattr(continuation, "count_stratum_points", labelled)
    monkeypatch.setattr(continuation, "mp_polish",
                        _counting(calls, "mp_polish"))
    result = check_seed_stability(42, SAMPLE_R, NumericRun())
    named = []
    for seed in (43, 44):
        # the endpoint at the unmoved point matches no point of census
        # 42, and the moved point of census 42 matches no endpoint
        run = numeric_run.solve("census", SAMPLE_R, seed)
        hits = _hits(run["distinct"], target)
        assert len(hits) == 1
        named += [
            f"seed {seed}: endpoint {hits[0]} matches no point of seed 42",
            f"seed {seed}: point {j} of seed 42 matches no endpoint"]
    assert list(result.residuals) == named
    assert calls["mp_polish"] == 0


def test_a_point_of_census_s_missing_at_s_plus_1_is_named(
        monkeypatch, numeric_run):
    census = numeric_run.census(SAMPLE_R, 42)
    j = next(i for i, p in enumerate(census.points) if p.stratum == "Lopen")
    solve = numeric_run.solve

    def dropped(kind, r, seed):
        run = solve(kind, r, seed)
        if seed != 43:
            return run
        keep = np.array([not _hits([x], census.endpoints[j])
                         for x in run["distinct"]])
        assert keep.sum() == len(run["distinct"]) - 1
        return {**run, "distinct": run["distinct"][keep],
                "sv_min": run["sv_min"][keep]}

    monkeypatch.setattr(numeric_run, "solve", dropped)
    result = check_seed_stability(42, SAMPLE_R, numeric_run)
    assert list(result.residuals) == [
        f"seed 43: point {j} of seed 42 matches no endpoint"]


def test_a_stored_point_off_the_censuses_at_s_plus_1_and_s_plus_2_is_named(
        monkeypatch, numeric_run):
    numeric_run.census(SAMPLE_R, 42)    # labelled with the stored points
    stored = census_anchors(SAMPLE_R)
    off = stored[4][:4] + [stored[4][4] + 1] + stored[4][5:]

    def moved(r):
        points = list(census_anchors(r))
        if r == SAMPLE_R:
            points[4] = off
        return points

    monkeypatch.setattr(con, "census_anchors", moved)
    result = check_seed_stability(42, SAMPLE_R, numeric_run)
    assert list(result.residuals) == [
        f"census (10, 1/2, 1/3) at seed {seed}: stored point "
        f"{[str(v) for v in off]} matches no endpoint" for seed in (43, 44)]


class _Tracked(Exception):
    pass


# The four paths of the sample census's chart 0 at seed 1 that ended
# `polish` before the endpoint polish stopped at its noise floor.
LOST_AT_SEED_1 = (14, 20, 24, 28)


@pytest.fixture(scope="module")
def sample_solve_seed1():
    """The arguments and the result of the sample census's solve at seed
    1, an unplanned census solved alone as a stack of one, with the paths
    LOST_AT_SEED_1 of chart 0 turned `polish`; the results of each chart
    it tracked; and each chart's statuses as tracked."""
    calls, charts, statuses = [], [], []
    track_paths = continuation.track

    def tracked(*args):
        calls.append((args, solve_stacked(*args)))
        raise _Tracked

    def losing(*args):
        results, count = track_paths(*args)
        statuses.append([r.status for r in results])
        if not charts:
            for i in LOST_AT_SEED_1:
                results[i].status = "polish"
        charts.append(results)
        return results, count

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuation, "solve_stacked", tracked)
        patch.setattr(continuation, "track", losing)
        with pytest.raises(_Tracked):
            NumericRun().census(SAMPLE_R, 1)
    (args, (run,)), = calls
    return args, run, charts, statuses


def test_a_census_solve_wants_every_path_and_keeps_its_rescue_chart(
        sample_solve_seed1):
    # the census passes no `want`, so it wants all 32 paths regular; its
    # first chart, tracked, accepts every path, each polish stopping at
    # its noise floor at the latest; with four of them lost, the rescue
    # chart finds them
    args, run, charts, statuses = sample_solve_seed1
    (problem,), var_order = args
    assert var_order == CHART_VARS
    assert problem[1:] == (1, "stratum:10,1/2,1/3", None)
    assert statuses[0] == ["accepted"] * 32
    assert len(charts) == len(run["failures"]) == 2
    assert run["failed"] == [(i, "polish") for i in LOST_AT_SEED_1]
    assert run["rescue_added"] == 4


def test_the_relative_stop_ends_a_large_point_after_its_noise_floor(
        monkeypatch, sample_solve_seed1):
    # the sample census at seed 1, with four paths of chart 0 lost,
    # rescues four endpoints in a second chart; polished on the census
    # chart three of them have a coordinate near 80, and the stop,
    # relative to each coordinate, still ends every polish within five
    # steps.  A refinement step is one exact residual evaluation, so the
    # steps are counted as `_exact_residual` calls
    _args, run, charts, _statuses = sample_solve_seed1
    calls = {"_exact_residual": 0}
    monkeypatch.setattr(continuation, "_exact_residual",
                        _counting(calls, "_exact_residual"))
    steps, sizes = [], []
    for end in run["distinct"]:
        calls["_exact_residual"] = 0
        x = mp_polish(run["system"], end)
        steps.append(calls["_exact_residual"])
        sizes.append(max(abs(complex(v)) for v in x))
    assert run["rescue_added"] == 4
    assert run["accepted_count"] == 32
    # one merge: the first chart's 28 endpoints, in path order, then the
    # four rescued ones
    assert len(charts) == 2
    first = [r.x for r in charts[0] if r.status == "accepted"]
    assert len(first) == 28
    assert run["distinct"][:28].tobytes() == np.array(first).tobytes()
    assert not any(end.tobytes() == x.tobytes()
                   for end in run["distinct"][28:] for x in first)
    # every endpoint, rescued ones too, lies on the census chart
    for end in run["distinct"]:
        assert abs(run["chart"] @ end - 1) < 1e-8
    assert sum(size > 50 for size in sizes) == 3
    assert max(steps) <= 5


def test_a_regular_endpoint_above_the_polish_stop_is_accepted_at_its_floor():
    # at (23/5, -30, -21/11) and seed 3, chart 0 of the sample census
    # ends two regular L2 points whose polish steps, relative, stay
    # between 3e-13 and 1e-12, above the 1e-13 stop; each stops where its
    # step no longer halves, as its Jacobian is regular, so every path
    # is accepted and the census counts all 32 points
    r = (Fraction(23, 5), Fraction(-30), Fraction(-21, 11))
    result = check_stratum_counts(3, r, NumericRun(["numeric/lemma6_2"],
                                                   3, r))
    assert result.ok, result.residuals
    assert result.details["failed_paths"] == []
    assert result.details["rescued"] == 0


def test_an_orbit_image_that_matches_no_point_is_named(monkeypatch,
                                                      numeric_run):
    # the censuses are labelled with the whole group H first; the orbit
    # test then reads the identity twice and a flip of x1 alone, which
    # is not in H, so only point 0 is matched
    for r in (SAMPLE_R, (0, 0, 0)):
        numeric_run.census(r, 42)
    identity = con.h_orbit_signs()[0]
    monkeypatch.setattr(con, "h_orbit_signs", lambda: [
        identity, identity, (-identity[0],) + identity[1:]])
    result = check_stratum_counts(42, SAMPLE_R, numeric_run)
    assert list(result.residuals) == [
        "diagonal-subgroup image of an open-stratum point matched 0 "
        "endpoints",
        "the four open-stratum points are not a single diagonal-subgroup "
        "orbit"]


def test_census_at_the_sample_parameters_is_complete_and_cached(numeric_run):
    run = numeric_run.solve("census", SAMPLE_R, 42)
    census = numeric_run.census(SAMPLE_R, 42)
    assert run["path_count"] == 32
    assert run["accepted_count"] == 32
    assert len(census.points) == 32
    assert run["failed"] == []
    assert run["sv_min"].min() > 1e-6
    assert sum(census.partition.values()) == 32
    # shared within a run: the identical query returns the same object,
    # also when the triple is given as ints
    assert numeric_run.census(SAMPLE_R, 42) is census
    assert numeric_run.census((10, SAMPLE_R[1], SAMPLE_R[2]), 42) is census


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_tracked_fiber_slices_match_the_exact_plane_points(seed):
    # the oracle for the exact slice count: each slice that
    # `fiber_probe` counts exactly, tracked on its seeded rows, ends at
    # four endpoints, one on each exact-plane point
    origin = (Fraction(0),) * 3
    base = fiber_equations(origin)
    for s in range(5):
        exact = exact_slice(origin, seed, s)
        assert exact["count"] == 4 and exact["reason"] is None
        rows = [_linear_form(row, con.Y_NAMES)
                for row in _slice_rows(origin, seed, s)]
        run = solve_projective(base + rows, con.Y_NAMES, seed,
                               f"fiber:{origin}:{s}")
        assert len(run["distinct"]) == 4
        points = np.array(conic_points(exact))
        nearest = []
        for dist in _chordal_matrix(run["distinct"], points):
            assert dist.min() < TOL_MATCH, (s, dist.min())
            nearest.append(int(dist.argmin()))
        assert sorted(nearest) == [0, 1, 2, 3]


def test_a_fiber_probe_counts_every_slice_and_tracks_slice_0(monkeypatch):
    stacks = []

    def logged(problems, var_order):
        stacks.append([(tag, want) for _rows, _seed, tag, want in problems])
        return solve_stacked(problems, var_order)

    monkeypatch.setattr(continuation, "solve_stacked", logged)
    probe = fiber_probe((0, 0, 0), 1, slice_count=5, numeric=NumericRun())
    # an unplanned slice 0 is tracked alone, with no `want`
    assert stacks == [[(f"fiber:{(Fraction(0),) * 3}:0", None)]]
    assert probe["slice_counts"] == [4] * 5
    assert probe["slice_reasons"] == [None] * 5
    assert probe["cross_check"]["path_count"] == 4
    assert max(probe["cross_check"]["chordal"]) < TOL_MATCH
    assert set(probe) == {"slice_counts", "slice_reasons", "projections",
                          "cross_check"}


def test_a_planned_run_tracks_slice_0_and_preimage_0_as_one_stack(
        monkeypatch):
    stacks = []

    def logged(problems, var_order):
        stacks.append(([tag for _rows, _seed, tag, _want in problems],
                       var_order))
        return solve_stacked(problems, var_order)

    monkeypatch.setattr(continuation, "solve_stacked", logged)
    origin = (Fraction(0),) * 3
    run = NumericRun(["numeric/fiber_5"], 1, SAMPLE_R)
    first = run.solve("slice", (0, 0, 0), 1)
    # the planned censuses are over other variables: not in this stack
    assert stacks == [([f"fiber:{origin}:0", "preimage:0"], con.Y_NAMES)]
    assert run.solve("preimage", origin, 1)["path_count"] == 4
    assert run.solve("slice", origin, 1) is first
    assert len(stacks) == 1


def _are_the_points(out, expected) -> bool:
    """Whether the kernel's points are the expected ones, one each."""
    dist = [_chordal_matrix(p[None], np.array(expected, dtype=complex))[0]
            for p in conic_points(out)]
    nearest = [int(d.argmin()) for d in dist]
    return (sorted(nearest) == list(range(len(expected)))
            and all(d[k] < 1e-12 for d, k in zip(dist, nearest)))


PLANE = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_the_eliminant_vanishes_where_the_conics_meet():
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    out = conic_pair(PLANE, (z1 * z1 - t * t,
                             (t - z1 - z2) * (t - 2 * z1 + z2)), PLANE_VARS)
    assert out["count"] == 4 and out["reason"] is None
    assert out["projection"] == (0, 0, 1)
    meets = [(1, 0, 1), (1, 1, 1), (1, -2, -1), (1, 3, -1)]
    for u1, u2, _t in meets:
        assert sum(c * u1 ** (4 - k) * u2 ** k
                   for k, c in enumerate(out["eliminant"])) == 0
    assert _are_the_points(out, meets)


def test_a_projection_that_merges_points_gives_way_to_the_next():
    # from the center (0 : 0 : 1) the four meets (+-1 : +-1 : 1) project
    # in pairs onto (1 : 1) and (1 : -1): the eliminant is a square
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    out = conic_pair(PLANE, (z1 * z1 - t * t, z2 * z2 - t * t), PLANE_VARS)
    assert out["count"] == 4 and out["reason"] is None
    assert out["projection"] == con.PROJECTIONS[1]
    meets = [(a, b, 1) for a in (1, -1) for b in (1, -1)]
    assert _are_the_points(out, meets)


def test_a_tangent_pair_is_not_counted_and_the_failed_test_is_named():
    # the line z1 = t touches the circle z1^2 + z2^2 = t^2 at (1 : 0 : 1)
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    out = conic_pair(PLANE, (z1 * z1 + z2 * z2 - t * t,
                             (z1 - t) * (2 * z1 + t)), PLANE_VARS)
    assert out["count"] < 4 and conic_points(out) == []
    for center in con.PROJECTIONS:
        assert f"from {center}: the discriminant 4 I^3 - J^2" in out["reason"]


def test_a_center_on_both_conics_gives_way_to_the_next(monkeypatch):
    # both line pairs pass through (0 : 0 : 1), so from there neither
    # conic has a t^2 term
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    quadrics = (z1 * (z1 - z2 + t), z2 * (z1 - z2 - t))
    out = conic_pair(PLANE, quadrics, PLANE_VARS)
    assert out["count"] == 4 and out["reason"] is None
    assert out["projection"] == con.PROJECTIONS[1]
    assert _are_the_points(out, [(0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, 0)])
    monkeypatch.setattr(con, "PROJECTIONS", ((0, 0, 1),))
    out = conic_pair(PLANE, quadrics, PLANE_VARS)
    assert out["count"] == 0 and conic_points(out) == []
    assert out["reason"] == "from (0, 0, 1): the center lies on both conics"


def test_conics_with_a_common_line_are_not_counted_from_any_center():
    # the common line z1 - z2 + t = 0 misses every center, so each
    # center reaches the eliminant, and R vanishes identically at each
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    common = z1 - z2 + t
    out = conic_pair(PLANE, (common * (z1 + 2 * t), common * (z2 - t)),
                     PLANE_VARS)
    assert out["count"] == 0 and conic_points(out) == []
    assert out["projection"] is None
    assert out["reason"] == "; ".join(
        f"from {center}: the eliminant R vanishes identically"
        for center in con.PROJECTIONS)


def _polarised(q, basis, names):
    """The quadric q on span(basis) by polarisation, an oracle for
    `_on_basis`: Q(v_k) on the diagonal and
    Q(v_j + v_k) - Q(v_j) - Q(v_k) off it."""
    def value(vec):
        return q.evaluate(dict(zip(names, vec)))

    out = {(k, k): value(v) for k, v in enumerate(basis)}
    for j, k in itertools.combinations(range(len(basis)), 2):
        out[j, k] = (value([x + y for x, y in zip(basis[j], basis[k])])
                     - out[j, j] - out[k, k])
    return out


def _checked_on_basis(monkeypatch) -> list:
    """Compare every `_on_basis` call with the polarisation oracle; the
    returned list gets one verdict per call."""
    on_basis = con._on_basis
    verdicts = []

    def checked(q, basis, names):
        co = on_basis(q, basis, names)
        verdicts.append(co == _polarised(q, basis, names))
        return co

    monkeypatch.setattr(con, "_on_basis", checked)
    return verdicts


@pytest.mark.parametrize("seed", [0, 42])
def test_the_slice_planes_restrict_each_quadric_by_polarisation(
        seed, monkeypatch):
    verdicts = _checked_on_basis(monkeypatch)
    for s in range(5):
        assert exact_slice((Fraction(0),) * 3, seed, s)["count"] == 4
    assert len(verdicts) >= 10 and all(verdicts)


def test_the_preimage_plane_restricts_each_quadric_by_polarisation(
        monkeypatch):
    verdicts = _checked_on_basis(monkeypatch)
    assert exact_preimage(_seeded_target(42, 0))["count"] == 1
    assert verdicts == [True, True]


def test_single_pair_anchors_are_the_instances_of_the_stored_families(
        symbolic_report):
    # at r1 = 10 the relation a^2 = 25 r1^2 - 900 has the root 40: the
    # anchors are the chart coordinates of the four pinned instances
    strata = next(r for r in symbolic_report.results
                  if r.check_id == "symbolic/strata_6")
    chart = [con.X_NAMES.index(n) for n in CHART_VARS]
    pinned = {tuple(Fraction(vec[i]) for i in chart)
              for vec in map(ast.literal_eval,
                             strata.details["instances_at_10"])}
    anchors = census_anchors(SAMPLE_R)[4:]
    assert len(anchors) == len(pinned) == 4
    assert {tuple(a) for a in anchors} == pinned
    # at r1 = 1/2 the relation has no root in Q(i), so only the four L0
    # points are stored
    half = (Fraction(1, 2),) + SAMPLE_R[1:]
    assert census_anchors(half) == census_anchors(SAMPLE_R)[:4]


def test_census_rejects_degenerate_parameter_triples():
    # r2 = 0, r3 = 13/7 zeroes the first leading-coefficient inequation
    bad = (Fraction(10), Fraction(0), Fraction(13, 7))
    with pytest.raises(ValueError):
        NumericRun().census(bad, 42)


def test_root_clusters_separate_sixfold_from_simple_roots():
    # a solution-family instance carries a sixfold root cluster
    family_instance = [1, 0, 0, 10, 0, 0, 10, 1, 0]
    sizes = octic_root_clusters(family_instance)
    assert sizes == [6, 1, 1]
    # the distinguished invariant octic has eight simple roots
    invariant = [0] * 6 + [5, 0, 1]
    sizes = octic_root_clusters(invariant)
    assert sizes == [1] * 8


def _octic(roots, infinite=0, perturb=0):
    """Exact highest-first coefficients of prod (z - root), times
    z2^infinite, with `perturb` added to the constant term; each root is
    a complex double, taken as the exact dyadic it is."""
    coeffs = [Fraction(1)]
    for root in map(con.gaussian, map(complex, roots)):
        coeffs = [a - root * b for a, b in zip(coeffs + [Fraction(0)],
                                                [Fraction(0)] + coeffs)]
    coeffs[-1] += perturb
    return [Fraction(0)] * infinite + coeffs


def _cold_roots(coeffs):
    """The cold-start reference: plain polyroots at WORKING_DPS on the
    same normalized polynomial, with the same roots at infinity."""
    with mp.workdps(WORKING_DPS):
        coeffs = list(map(_mp_value, coeffs))
        scale = max(abs(c) for c in coeffs)
        normalized = [c / scale for c in coeffs]
        infinite = 0
        while abs(normalized[0]) < mp.mpf("1e-30"):
            normalized.pop(0)
            infinite += 1
        finite = mp.polyroots(normalized, maxsteps=300, extraprec=120)
        one, zero = mp.mpc(1), mp.mpc(0)
        return [(z, one) for z in finite] + [(one, zero)] * infinite


def _sizes(points, radius=1e-4):
    return sorted(map(len, _chordal_groups(points, radius)), reverse=True)


@pytest.mark.parametrize("coeffs, expected", [
    # a sixfold root perturbed at 1e-36, beside two simple roots
    (_octic([0.3 + 0.2j] * 6 + [-1.5, 2j], perturb=Fraction(1, 10 ** 36)),
     [6, 1, 1]),
    (_octic([0.3 + 0.2j] * 6 + [-1.5] * 2), [6, 2]),
    (_octic([0] * 8), [8]),
    (_octic([cmath.exp(2j * cmath.pi * (k + 0.1) / 8) * (1 + k / 10)
             for k in range(8)]), [1] * 8),
    # a simple pair 2e-3 apart, one coarse group that splits
    (_octic([0.3 + 0.2j] * 6 + [-1.5, -1.502]), [6, 1, 1]),
    # a far pair: in z its centroid is 0, far from both roots, so it is
    # counted in 1/z; beside a cluster near 0 a disc about 0 fails
    (_octic([529j, -529j], infinite=6), [6, 1, 1]),
    (_octic([529j, -529j] + [0.3 + 0.2j] * 6), [6, 1, 1]),
])
def test_seeded_octic_roots_match_the_cold_start(coeffs, expected):
    # the Pellet count of the cluster sizes, on exact Taylor coefficients,
    # against the clusters of cold-start 40-digit polyroots roots
    counted = _counted_clusters(coeffs)
    if expected == [8]:
        # cold polyroots needs ~600 steps for z^8; its roots are exact
        reference = [(mp.mpc(0), mp.mpc(1))] * 8
    else:
        reference = _cold_roots(coeffs)
    assert counted == _sizes(reference) == expected


def test_a_pair_at_the_cluster_radius_is_undecided():
    # two roots one cluster radius apart in chordal distance: each is
    # proved alone in a disc of radius CLUSTER_RADIUS / 4, and then the
    # discs cannot tell whether the pair is one cluster or two
    d = CLUSTER_RADIUS
    pair = [0, d / math.sqrt(1 - d * d)]
    coeffs = _octic(pair + [0.7, -0.9j, 1.5 + 1j, -2, 3j, -0.4 - 0.6j])
    with pytest.raises(UndecidedOctic, match="within their radii"):
        _counted_clusters(coeffs)
    # the same pair twice as far apart is two clusters
    coeffs = _octic([0, 2 * pair[1], 0.7, -0.9j, 1.5 + 1j, -2, 3j,
                     -0.4 - 0.6j])
    assert _counted_clusters(coeffs) == [1] * 8


# The representative the polish gave on L2 of the origin census at seed
# 45, at 45 digits: the exact point is (0, i/2, 0, 7, -1, -1) up to scale
# (x1 and x3 are about 1e-81), and its octic has a sixfold root at -i and
# a double root at i.  The 40-digit polyroots of the earlier classifier
# did not converge on this octic from any start.
SEED_45_L2_POINT = [
    ("-1.22836110285671437867944897363899850827771618e-81",
     "-1.58145838042431518437523958149483964338070942e-81"),
    ("0.0896754448236539957298673598294263609489249425",
     "0.0917441192347871381155491880518123501390163219"),
    ("-2.25430850183765491433747736746975778768993223e-82",
     "1.28204325340357875434114168062054563372114058e-80"),
    ("1.28441766928701993361768863272537290194623712",
     "-1.25545622753115594021814303761196905328494345"),
    ("-0.183488238469574276231098376103624700278032644",
     "0.179350889647307991459734719658852721897849885"),
    ("-0.183488238469574276231098376103624700278032644",
     "0.179350889647307991459734719658852721897849885"),
]


def test_the_seed_45_origin_point_is_l2_with_a_sixfold_root():
    origin = (Fraction(0),) * 3
    point = [CycScalar(Fraction(re), 0, Fraction(im))
             for re, im in SEED_45_L2_POINT]
    label = _classify_point(point, origin)
    assert (label.stratum, label.multiple_root) == ("L2", True)
    assert label.undecided is None
    vec9 = con.octic_vector_on_slice(origin, point)
    assert octic_root_clusters(vec9) == [6, 2]
    # the exact point it approximates has the same octic clusters
    exact = [0, CycScalar.i() * Fraction(1, 2), 0, 7, -1, -1]
    assert octic_root_clusters(con.octic_vector_on_slice(
        origin, exact)) == [6, 2]


def _nearest_root_pair(vec9) -> float:
    """The least chordal distance between two double roots of the
    octic."""
    coeffs = [complex(c) for c in con.octic_coefficients(vec9)]
    points = np.array([[z, 1] for z in np.roots(coeffs)])
    first, second = np.triu_indices(len(points), 1)
    return float(_chordal_matrix(points, points)[first, second].min())


def test_an_undecided_octic_is_a_residual_that_names_its_endpoint(
        monkeypatch):
    # the first point of eight simple roots that the sample census
    # classifies gets a cluster radius equal to the distance of its
    # closest root pair, which Pellet counts cannot decide
    real = continuation.octic_root_clusters
    calls = []

    def at_the_edge(vec9):
        sizes = real(vec9)
        if calls or sizes != [1] * 8:
            return sizes
        calls.append(vec9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(continuation, "CLUSTER_RADIUS",
                          _nearest_root_pair(vec9))
            return real(vec9)

    monkeypatch.setattr(continuation, "octic_root_clusters", at_the_edge)
    run = NumericRun(["numeric/lemma6_2"], 42, SAMPLE_R)
    result = check_stratum_counts(42, SAMPLE_R, run)
    census = run.census(SAMPLE_R, 42)
    undecided = [k for k, p in enumerate(census.points)
                 if p.multiple_root is None]
    assert undecided and not result.ok
    name = f"census (10, {SAMPLE_R[1]}, {SAMPLE_R[2]}) at seed 42"
    for k in undecided:
        assert census.points[k].undecided
        note = (f"{name}: endpoint {k}: root clusters undecided: "
                f"{census.points[k].undecided}")
        assert note in result.residuals
    # the rest of the census is labelled as before
    assert sum(census.partition.values()) == 32 - len(undecided)


def test_an_endpoint_of_no_stratum_is_a_note_that_names_it(monkeypatch):
    # with H cut to its identity every endpoint off the stored points is
    # classified on its own; the first open-stratum one is given two
    # nonzero coordinates among x1, x2, x3, which no stratum has
    real, calls = continuation._stratum, []

    def one_off(nonzero):
        stratum = real(nonzero)
        if stratum == "Lopen" and not calls:
            calls.append(nonzero)
            return "?"
        return stratum

    identity = con.h_orbit_signs()[:1]
    monkeypatch.setattr(con, "h_orbit_signs", lambda: identity)
    monkeypatch.setattr(continuation, "_stratum", one_off)
    census = NumericRun().census(SAMPLE_R, 42)
    odd = [k for k, p in enumerate(census.points) if p.stratum == "?"]
    assert len(calls) == 1 and len(odd) == 1
    name = f"census (10, {SAMPLE_R[1]}, {SAMPLE_R[2]}) at seed 42"
    assert census.notes == [f"{name}: endpoint {odd[0]}: exactly one "
                            "vanishing leading coordinate (unclassifiable)"]
    # the endpoint is left out of the partition, the rest as before
    left_out = census.points[odd[0]]
    partition = dict(SAMPLE_PARTITION)
    partition[f"Lopen_X{1 if left_out.multiple_root else 2}"] -= 1
    assert census.partition == partition


def test_projection_data_is_exact_and_invertible(monkeypatch):
    rref = ExactMatrix.rref
    calls = []

    def counted(self):
        calls.append((self.nrows, self.ncols))
        return rref(self)

    monkeypatch.setattr(ExactMatrix, "rref", counted)
    data = projection_data()
    # the center rank, the target rank, and one elimination of [C | T | I]
    # that both inverts [C | T] and shows its rank
    assert calls == [(5, 9), (4, 9), (9, 18)]
    monkeypatch.undo()
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


def test_a_singular_projection_is_a_residual_not_an_error(monkeypatch):
    centers = con.center_space_vectors()
    targets = [centers[0], *con.target_space_basis()[1:]]
    monkeypatch.setattr(con, "target_space_basis", lambda: targets)
    data = projection_data()
    assert (data["center_rank"], data["target_rank"]) == (5, 4)
    assert data["matrix"].rank() == 8
    assert data["intersection_dim"] == 1 and data["extract_rows"] is None
    # with no extraction rows the run plans no preimage solve
    run = NumericRun(["numeric/fiber_5"], 42, SAMPLE_R)
    plan = run.plan
    assert [kind for kind, _r, _seed in plan] == ["slice", "census", "census"]
    result = check_fiber_geometry(42, run)
    assert not result.ok
    assert "center/target intersection dimension 1 != 0" in result.residuals
    assert "center plus target do not span the chart space" in result.residuals
    assert result.details["intersection_dim"] == 1
    assert result.details["image_span_rank"] is None
    assert result.details["preimage_cross_check"] is None


def _off_the_fiber(sol):
    return [sol["point"][0] + 1, *sol["point"][1:]]


@pytest.mark.parametrize("moved, ranks, residual", [
    # the center line lies in the fiber and is smooth there, but the
    # projection collapses it: the differential has rank 2, not 4
    (lambda sol: sol["line"][0], (5, 2), "projection differential spans "
     "rank 2 != 4 (projective rank 3 expected)"),
    (_off_the_fiber, (5, 4), "the trial 0 preimage is not on the fiber: "
     "equations [0, 1, 2] do not vanish there"),
    (lambda sol: None, (None, None), "preimage trial 0 has no point: the "
     "fiber Jacobian and projection differential ranks are not read"),
], ids=["center_line", "off_the_fiber", "no_point"])
def test_a_wrong_trial_0_point_fails_the_exact_ranks(moved, ranks, residual,
                                                     monkeypatch, numeric_run):
    real = con.exact_preimage
    calls = []

    def patched(n):
        calls.append(n)
        sol = real(n)
        return {**sol, "point": moved(sol)} if len(calls) == 1 else sol

    monkeypatch.setattr(con, "exact_preimage", patched)
    result = check_fiber_geometry(42, numeric_run)
    assert not result.ok
    assert (result.details["fiber_jacobian_rank"],
            result.details["differential_span_rank"]) == ranks
    assert residual in result.residuals, result.residuals
    # the other nine preimages still span the target
    assert result.details["image_span_rank"] == 4


def test_the_exact_ranks_hold_at_trial_0_of_ten_seeds():
    # the claims of `numeric/fiber_5` at trial 0's exact preimage, with
    # nothing tracked: seeds whose ranks fall short would fail `verify`
    rows = projection_data()["extract_rows"]
    points = []
    for seed in range(10):
        points.append(exact_preimage(_seeded_target(seed, 0))["point"])
        residuals = []
        assert _fiber_point_ranks(points[-1], rows, residuals) == (5, 4)
        assert residuals == []
    # each preimage projects to lambda times its target: ten generic
    # targets span the four target coordinates
    project = ExactMatrix(rows).apply
    assert ExactMatrix([project(p) for p in points]).rank() == 4


def test_a_run_counts_each_fiber_slice_once(monkeypatch):
    calls = []
    real = continuation.exact_slice

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(continuation, "exact_slice", counted)
    run = NumericRun()
    probe = fiber_probe((0, 0, 0), 1, slice_count=2, numeric=run)
    again = run.exact_slice((Fraction(0),) * 3, 1, 0)
    assert again["count"] == probe["slice_counts"][0] == 4
    assert [args[2] for args in calls] == [0, 1]


def test_chart_variables_match_the_slice_coordinates():
    assert CHART_VARS == ("x1", "x2", "x3", "x7", "x8", "x9")


def _seeded_target(seed, trial):
    """The exact Gaussian target of a `numeric/fiber_5` preimage trial."""
    rng = _rng(seed, "preimage", trial)
    return [CycScalar(Fraction(z.real), 0, Fraction(z.imag), 0)
            for z in (complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      for _ in range(4))]


def _on(poly, vectors, names):
    """The polynomial on the span of the 9-vectors, in the named
    coordinates."""
    coords = [MPoly.var(n) for n in names]
    return poly.substitute({
        y: sum((c * v[i] for c, v in zip(coords, vectors)), MPoly.zero())
        for i, y in enumerate(con.Y_NAMES)})


def test_the_center_line_lies_in_the_fiber_and_factors_each_quadric():
    n = _seeded_target(42, 0)
    sol = exact_preimage(n)
    line, lift = sol["line"], sol["lift"]
    center = Subspace(9, [list(v) for v in con.center_space_vectors()])
    assert len(line) == 2 and all(center.contains(v) for v in line)
    origin = (Fraction(0),) * 3
    equations = fiber_equations(origin)
    # all five fiber equations vanish identically on the center line
    assert all(_on(e, line, ("z1", "z2")).is_zero() for e in equations)
    # the lift lies on the linear rows and maps to n itself (lambda = 1)
    env = dict(zip(con.Y_NAMES, lift))
    assert all(e.evaluate(env) == 0 for e in equations[2:])
    assert projection_data()["matrix"].inverse().apply(lift)[5:] == n
    # on the plane each quadric is t times its line L_i
    assert sol["factored"]
    t = MPoly.var("t")
    for q, coeffs in zip(equations[:2], sol["lines"]):
        line_poly = sum((c * MPoly.var(v) for c, v in
                         zip(coeffs, PLANE_VARS)), MPoly.zero())
        assert _on(q, line + [lift], PLANE_VARS) == t * line_poly


def test_the_exact_preimage_is_a_transversal_fiber_point_over_the_target():
    n = _seeded_target(42, 3)
    sol = exact_preimage(n)
    assert sol["count"] == 1 and sol["reason"] is None and sol["rank"] == 2
    y = sol["point"]
    env = dict(zip(con.Y_NAMES, y))
    assert all(e.evaluate(env) == 0
               for e in fiber_equations((Fraction(0),) * 3))
    image = [sum((a * b for a, b in zip(row, y)), Fraction(0))
             for row in projection_data()["extract_rows"]]
    lam = image[0] * n[0].inverse()
    assert lam != 0
    assert image == [lam * v for v in n]


def test_a_preimage_solve_tracks_its_rescue_chart_only_below_want(
        monkeypatch):
    # the cross-check wants the one regular preimage the lemma claims;
    # its first chart finds it, so no rescue chart is tracked unless a
    # solve is given a `want` it cannot meet
    rng = _rng(42, "preimage", 0)
    target = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(4)])
    sol = exact_preimage([con.gaussian(z) for z in target])
    real = continuation.solve_stacked
    for want, charts in ((1, 1), (2, 2)):
        runs = []

        def solve(problems, var_order):
            (rows, seed, tag, given), = problems
            assert (seed, tag, given) == (42, "preimage:0", 1)
            runs.extend(real([(rows, seed, tag, want)], var_order))
            return runs[-1:]

        monkeypatch.setattr(continuation, "solve_stacked", solve)
        residuals = []
        out = continuation._preimage_cross_check(42, NumericRun(), sol,
                                                 residuals)
        (run,) = runs
        assert residuals == []
        assert out["chordal"] < TOL_MATCH
        assert len(run["failures"]) == len(out["failed_paths"]) == charts
        assert run["failed"] and run["rescue_added"] == 0
