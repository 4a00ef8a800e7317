"""Homotopy tracking, the stratum census, and the projection data."""

import ast
import dataclasses
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from covforge import construction as con
from covforge import continuation
from covforge.continuation import (CHART_VARS, PLANE_VARS, TOL_MATCH,
                                   WORKING_DPS, CompiledSystem, NumericRun,
                                   _chordal_each, _chordal_groups,
                                   _fiber_equations, _fiber_rows,
                                   _linear_row_terms, _matching,
                                   _mp_solve, _octic_roots, _poly_terms,
                                   _predict, _rng, _slice_rows, _solve_stack,
                                   _start_system,
                                   _stratum_anchor_vectors,
                                   check_seed_stability, conic_pair,
                                   count_stratum_points,
                                   embed_mp, exact_preimage, exact_slice,
                                   fiber_probe,
                                   literal_pure_quadrics,
                                   literal_restricted_quadrics, mp_polish,
                                   octic_root_clusters, PathResult,
                                   projection_data,
                                   solve_projective, track)
from covforge.exlinalg import Subspace
from covforge.mpoly import MPoly
from covforge.scalar import CycScalar

SAMPLE_R = (Fraction(10), Fraction(1, 2), Fraction(1, 3))


def test_seeded_streams_are_reproducible_and_independent():
    assert _rng(42, "track").random() == _rng(42, "track").random()
    assert _rng(42, "track").random() != _rng(42, "other").random()
    assert _rng(42, "a", 0).random() != _rng(42, "a", 1).random()


def test_chordal_distance_ignores_scale_and_phase():
    v = np.array([1.0 + 0j, 2.0, -1.0])
    assert _chordal_each(v, np.array([3.7j * v]))[0] < 1e-12
    e1 = np.array([1.0 + 0j, 0.0])
    e2 = np.array([0.0j, 1.0])
    assert abs(_chordal_each(e1, np.array([e2]))[0] - 1.0) < 1e-12


def _gaussian(re, im):
    return CycScalar.from_rat(Fraction(re)) + CycScalar.i() * Fraction(im)


def test_one_pass_gives_the_exact_values_and_jacobian():
    quadrics = list(literal_restricted_quadrics(SAMPLE_R))
    # the derivative of a squared coordinate carries the exponent factor 2
    assert any(2 in e for p in quadrics for e in p.terms)
    chart = [Fraction(1), Fraction(-2, 3), CycScalar.i(), Fraction(0),
             CycScalar.zeta() * 3, Fraction(5, 7)]
    constant = Fraction(-1)
    chart_poly = MPoly.const(constant)
    for c, name in zip(chart, CHART_VARS):
        chart_poly = chart_poly + MPoly.var(name) * c
    system = CompiledSystem(
        [_poly_terms(p, CHART_VARS) for p in quadrics]
        + [_linear_row_terms(chart, constant=constant)], 6)
    # dyadic Gaussian rationals, so the double point is the exact point
    point = [_gaussian("3/4", "-1/8"), _gaussian("-5/2", "1/2"),
             _gaussian("1/16", "7/4"), _gaussian("2", "0"),
             _gaussian("-3/8", "-9/8"), _gaussian("1/2", "5/4")]
    values, jac = system.evaluate(np.array([complex(v) for v in point]))
    assert values.shape == (6,) and jac.shape == (6, 6)
    env = dict(zip(CHART_VARS, point))
    for i, p in enumerate(quadrics + [chart_poly]):
        exact = complex(p.evaluate(env))
        assert abs(values[i] - exact) < 1e-12 * max(1.0, abs(exact))
        for j, name in enumerate(CHART_VARS):
            exact = complex(p.diff(name).evaluate(env))
            assert abs(jac[i, j] - exact) < 1e-12 * max(1.0, abs(exact))


def test_the_closed_form_start_system_and_its_jacobian():
    degrees = np.array([2, 1, 3])
    consts = np.array([1j, complex(0.6, -0.8), -1.0 + 0j])
    x = np.array([0.5 - 1.25j, -2.0 + 0.75j, 1.5 + 0.5j])
    values, jac = _start_system(x, (degrees, consts))
    with mp.workdps(WORKING_DPS):
        for i, (d, b, xi) in enumerate(zip([2, 1, 3], consts, x)):
            xm = mp.mpc(xi)
            assert abs(values[i] - (xm ** d - mp.mpc(b))) < 1e-12
            assert abs(jac[i, i] - d * xm ** (d - 1)) < 1e-12
    assert np.count_nonzero(jac - np.diag(np.diag(jac))) == 0


def test_a_stack_evaluates_bitwise_as_its_rows():
    rng = np.random.default_rng(7)
    chart = list(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    system = CompiledSystem(
        [_poly_terms(p, CHART_VARS)
         for p in literal_restricted_quadrics(SAMPLE_R)]
        + [_linear_row_terms(chart, constant=-1.0)], 6)
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
    system = CompiledSystem([_poly_terms(x1 + x2 - 1, names),
                             _poly_terms(x1 + x2 - 2, names)], 2)
    (path,), _count = track(system, _rng(42, "track"))
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
        count_stratum_points(SAMPLE_R, 42)
    assert chart.value.args[0] == [("accepted", s)
                                   for s in SAMPLE_CHART_STEPS]


def test_tracking_a_univariate_quadratic_finds_both_roots():
    p = MPoly.var("x1") ** 2 - 1
    system = CompiledSystem([_poly_terms(p, ("x1",))], 1)
    results, path_count = track(system, _rng(42, "track"))
    assert path_count == 2
    assert all(r.status == "accepted" for r in results)
    values = sorted(complex(r.x[0]).real for r in results)
    assert abs(values[0] + 1) < 1e-8 and abs(values[1] - 1) < 1e-8


def _sparse_rows():
    # restrict the literal quadrics to the locus where the six leading
    # coordinates vanish; two survive as nonzero forms in (x7, x8, x9)
    zeros = {f"x{i}": 0 for i in range(1, 7)}
    rows = [q.substitute(zeros) for q in literal_pure_quadrics()]
    return [_poly_terms(q, ("x7", "x8", "x9")) for q in rows
            if not q.is_zero()]


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
        best = _chordal_each(t, np.array([e.x for e in run["distinct"]])).min()
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
    assert run["distinct"] == []
    assert run["accepted_count"] == 0
    assert [(r.index, r.status) for r in run["failures"][0]] == [(0, "polish")]
    assert run["failed"] == [(0, "polish")]


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
                               "sparse-test")
        polished = [mp_polish(run["system"], e.x) for e in run["distinct"]]
        for p in con.special_points()["sparse_solutions"]:
            anchor = [embed_mp(Fraction(v)) for v in p]
            assert _chordal_each(np.array(anchor, dtype=object),
                                 np.array(polished, dtype=object)
                                 ).min() < 1e-30


def _random_system(rng: random.Random, n: int = 6) -> tuple[list, list]:
    """A seeded complex n x n matrix, as rows of mpc, and a right side."""
    draws = [mp.mpc(rng.gauss(0, 1), rng.gauss(0, 1))
             for _ in range(n * n + n)]
    return [draws[i * n:(i + 1) * n] for i in range(n)], draws[n * n:]


def test_the_polish_elimination_agrees_with_mpmath_lu_solve():
    rng = random.Random(20260418)
    with mp.workdps(WORKING_DPS):
        for _ in range(20):
            rows, rhs = _random_system(rng)
            want = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
            got = _mp_solve(rows, rhs)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-35 * (1 + abs(w))


def test_the_polish_elimination_fails_where_mpmath_lu_solve_does():
    rng = random.Random(7)
    with mp.workdps(WORKING_DPS):
        rows, rhs = _random_system(rng)
        # exactly singular: a zero column (the last one, since mpmath's
        # pivot search needs a nonzero entry in each earlier column)
        zero_column = [row[:-1] + [mp.mpc(0)] for row in rows]
        # numerically singular: rank 5, then one entry moved by 1e-60
        left, _ = _random_system(rng)
        right, _ = _random_system(rng)
        rank5 = [[mp.fsum(left[i][k] * right[k][j] for k in range(5))
                  for j in range(6)] for i in range(6)]
        rank5[2][3] += mp.mpf("1e-60")
        for singular in (zero_column, rank5):
            with pytest.raises(ZeroDivisionError):
                mp.lu_solve(mp.matrix(singular), mp.matrix(rhs))
            with pytest.raises(ZeroDivisionError):
                _mp_solve(singular, rhs)


def test_polished_census_points_match_the_golden_file(numeric_run):
    """The sample census at seed 42, polished at WORKING_DPS, against its
    points stored as 45-digit strings with their labels.  The polish
    converges to the same 40-digit point from any nearby double, so the
    file does not depend on the last bits of the double tracker."""
    golden = json.loads((Path(__file__).parent / "data"
                         / "census_polish_seed42.json").read_text("utf-8"))
    census = numeric_run.census(SAMPLE_R, 42)
    assert [Fraction(v) for v in golden["r"]] == list(SAMPLE_R)
    assert len(census.points) == len(golden["points"])
    with mp.workdps(45):
        for point, want in zip(census.points, golden["points"]):
            assert point.stratum == want["stratum"]
            assert point.multiple_root == want["multiple_root"]
            for x, (re, im) in zip(point.coords, want["coords"],
                                   strict=True):
                w = mp.mpc(re, im)
                assert abs(x - w) <= 1e-36 * (1 + abs(w))


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
    is polished and classified on its own), each with its counts of
    `mp_polish` and `octic_root_clusters` calls."""
    out = {}
    for name, signs in (("orbits", continuation.h_orbit_signs()),
                        ("own", continuation.h_orbit_signs()[:1])):
        calls = dict.fromkeys(("mp_polish", "octic_root_clusters"), 0)
        with pytest.MonkeyPatch.context() as patch:
            for fn in calls:
                patch.setattr(continuation, fn, _counting(calls, fn))
            patch.setattr(continuation, "h_orbit_signs", lambda: signs)
            out[name] = count_stratum_points(SAMPLE_R, 42), calls
    return out


def test_the_census_polishes_and_classifies_one_point_per_h_orbit(
        orbit_censuses):
    census, calls = orbit_censuses["orbits"]
    assert census.distinct_count == 32
    assert calls == {"mp_polish": 14, "octic_root_clusters": 14}


def test_an_inherited_point_is_its_own_polish_with_its_own_labels(
        orbit_censuses):
    census, _calls = orbit_censuses["orbits"]
    own, _own_calls = orbit_censuses["own"]
    with mp.workdps(WORKING_DPS):
        for point, alone in zip(census.points, own.points, strict=True):
            assert point.stratum == alone.stratum
            assert point.multiple_root == alone.multiple_root
            for x, w in zip(point.coords, alone.coords, strict=True):
                assert abs(x - w) <= 1e-36 * (1 + abs(w))


def test_without_the_symmetry_every_endpoint_is_polished_on_its_own(
        orbit_censuses):
    census, _calls = orbit_censuses["orbits"]
    own, calls = orbit_censuses["own"]
    assert calls == {"mp_polish": 32, "octic_root_clusters": 32}
    assert own.partition == census.partition


SAMPLE_PARTITION = {"L0": 4, "L1_X1": 2, "L1_X2": 2, "L2_X1": 2,
                    "L2_X2": 2, "L3_X1": 2, "L3_X2": 2, "Lopen_X1": 12,
                    "Lopen_X2": 4}


def test_seeds_s_plus_1_and_s_plus_2_take_census_s_labels(monkeypatch):
    calls = {"mp_polish": 0}
    monkeypatch.setattr(continuation, "mp_polish",
                        _counting(calls, "mp_polish"))
    result = check_seed_stability(42, SAMPLE_R, NumericRun())
    assert result.ok, result.residuals
    assert result.details["partition"] == SAMPLE_PARTITION
    # census 42 polishes one endpoint per H-orbit; every endpoint of
    # censuses 43 and 44 matches one of its points
    assert calls["mp_polish"] == 14


def _moved(coords: list, distance: float) -> list:
    """The projective point moved by the given chordal distance."""
    x = np.array([complex(c) for c in coords])
    w = np.zeros_like(x)
    w[np.argmin(np.abs(x))] = 1
    u = w - (np.vdot(x, w) / np.vdot(x, x)) * x
    y = x + distance * np.linalg.norm(x) * u / np.linalg.norm(u)
    with mp.workdps(WORKING_DPS):
        return [mp.mpc(v) for v in y]


def test_an_endpoint_off_the_reference_is_classified_alone_and_named(
        monkeypatch, numeric_run):
    reference = numeric_run.census(SAMPLE_R, 42)
    j = next(i for i, p in enumerate(reference.points)
             if p.stratum == "Lopen" and p.multiple_root)
    target = reference.points[j]
    points = list(reference.points)
    points[j] = dataclasses.replace(target,
                                    coords=_moved(target.coords, 1e-6))
    moved = dataclasses.replace(reference, points=points)
    assert TOL_MATCH < _chordal_each(
        np.array([complex(c) for c in points[j].coords]),
        np.array([[complex(c) for c in target.coords]]))[0] < 1.1e-6

    real = continuation.count_stratum_points
    censuses = {}

    def census(r, seed, ref=None):
        if seed == 42:
            return moved
        censuses[seed] = real(r, seed, ref)
        return censuses[seed]

    calls = {"mp_polish": 0}
    monkeypatch.setattr(continuation, "count_stratum_points", census)
    monkeypatch.setattr(continuation, "mp_polish",
                        _counting(calls, "mp_polish"))
    result = check_seed_stability(42, SAMPLE_R, NumericRun())
    named = []
    for seed in (43, 44):
        got = censuses[seed]
        # the endpoint at the unmoved point is polished there on its own
        # and takes its own labels, the ones census 42 gave that point
        hits = [k for k, p in enumerate(got.points)
                if _matching([[complex(c) for c in p.coords]],
                             [complex(c) for c in target.coords], TOL_MATCH)]
        assert len(hits) == 1 and got.unmatched == hits
        alone = got.points[hits[0]]
        assert (alone.stratum, alone.multiple_root) == ("Lopen", True)
        assert got.partition == SAMPLE_PARTITION
        named.append(f"seed {seed}: endpoint {hits[0]} matches no point of "
                     "seed 42")
    assert list(result.residuals) == named
    assert calls["mp_polish"] == 2


class _Tracked(Exception):
    pass


def test_the_relative_stop_ends_a_large_point_after_its_noise_floor(
        monkeypatch):
    # the sample census at seed 1 rescues three endpoints in a second
    # chart; polished on the census chart all three have a coordinate
    # near 80, where an absolute 1e-36 stop is below the rounding noise
    # of a step
    runs, charts = [], []
    track_paths = continuation.track

    def tracked(*args):
        runs.append(solve_projective(*args))
        raise _Tracked

    def recorded(*args):
        out = track_paths(*args)
        charts.append(out[0])
        return out

    monkeypatch.setattr(continuation, "solve_projective", tracked)
    monkeypatch.setattr(continuation, "track", recorded)
    with pytest.raises(_Tracked):
        count_stratum_points(SAMPLE_R, 1)
    monkeypatch.undo()
    calls = {"_mp_solve": 0}
    monkeypatch.setattr(continuation, "_mp_solve",
                        _counting(calls, "_mp_solve"))
    run = runs[0]
    steps, sizes = [], []
    for e in run["distinct"]:
        calls["_mp_solve"] = 0
        x = mp_polish(run["system"], e.x)
        steps.append(calls["_mp_solve"])
        sizes.append(max(abs(v) for v in x))
    assert run["rescue_added"] == 3
    assert run["accepted_count"] == 32
    # one merge: the first chart's 29 endpoints, in path order, then the
    # three rescued ones
    assert len(charts) == 2
    first = [r.x for r in charts[0] if r.status == "accepted"]
    assert len(first) == 29
    assert [id(e.x) for e in run["distinct"][:29]] == list(map(id, first))
    assert not any(e.x is x for e in run["distinct"][29:] for x in first)
    # every endpoint, rescued ones too, lies on the census chart
    for e in run["distinct"]:
        assert abs(run["chart"] @ e.x - 1) < 1e-8
    assert sum(size > 50 for size in sizes) == 3
    assert max(steps) <= 5


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


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_tracked_fiber_slices_match_the_exact_plane_points(seed):
    # the oracle for the exact slice count: each slice that
    # `fiber_probe` counts exactly, tracked on its seeded rows, ends at
    # four endpoints, one on each exact-plane point
    origin = (Fraction(0),) * 3
    base = _fiber_rows(origin)
    for s in range(5):
        exact = exact_slice(origin, seed, s)
        assert exact["count"] == 4 and exact["reason"] is None
        rows = [_linear_row_terms(list(row))
                for row in _slice_rows(origin, seed, s)]
        run = solve_projective(base + rows, con.Y_NAMES, seed,
                               f"fiber:{origin}:{s}")
        assert len(run["distinct"]) == 4
        points = np.array(exact["points"])
        nearest = []
        for e in run["distinct"]:
            dist = _chordal_each(e.x, points)
            assert dist.min() < TOL_MATCH, (s, dist.min())
            nearest.append(int(dist.argmin()))
        assert sorted(nearest) == [0, 1, 2, 3]


def test_a_fiber_probe_counts_every_slice_and_tracks_slice_0(monkeypatch):
    tags = []

    def logged(rows, var_order, seed, tag):
        tags.append(tag)
        return solve_projective(rows, var_order, seed, tag)

    monkeypatch.setattr(continuation, "solve_projective", logged)
    probe = fiber_probe((0, 0, 0), 1, slice_count=5)
    assert tags == [f"fiber:{(Fraction(0),) * 3}:0"]
    assert probe["slice_counts"] == [4] * 5
    assert probe["slice_reasons"] == [None] * 5
    assert probe["cross_check"]["path_count"] == 4
    assert max(probe["cross_check"]["chordal"]) < TOL_MATCH
    # slice 0's four tracked endpoints, then four exact points per slice
    assert len(probe["sampled_points"]) == 20
    assert probe["fiber_jacobian_rank"] == 5


def _are_the_points(out, expected) -> bool:
    """Whether the kernel's points are the expected ones, one each."""
    dist = [_chordal_each(p, np.array(expected, dtype=complex))
            for p in out["points"]]
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
    assert out["projection"] == continuation.PROJECTIONS[1]
    meets = [(a, b, 1) for a in (1, -1) for b in (1, -1)]
    assert _are_the_points(out, meets)


def test_a_tangent_pair_is_not_counted_and_the_failed_test_is_named():
    # the line z1 = t touches the circle z1^2 + z2^2 = t^2 at (1 : 0 : 1)
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    out = conic_pair(PLANE, (z1 * z1 + z2 * z2 - t * t,
                             (z1 - t) * (2 * z1 + t)), PLANE_VARS)
    assert out["count"] < 4 and out["points"] == []
    for center in continuation.PROJECTIONS:
        assert f"from {center}: the discriminant 4 I^3 - J^2" in out["reason"]


def test_a_center_on_both_conics_gives_way_to_the_next(monkeypatch):
    # both line pairs pass through (0 : 0 : 1), so from there neither
    # conic has a t^2 term
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    quadrics = (z1 * (z1 - z2 + t), z2 * (z1 - z2 - t))
    out = conic_pair(PLANE, quadrics, PLANE_VARS)
    assert out["count"] == 4 and out["reason"] is None
    assert out["projection"] == continuation.PROJECTIONS[1]
    assert _are_the_points(out, [(0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, 0)])
    monkeypatch.setattr(continuation, "PROJECTIONS", ((0, 0, 1),))
    out = conic_pair(PLANE, quadrics, PLANE_VARS)
    assert out["count"] == 0 and out["points"] == []
    assert out["reason"] == "from (0, 0, 1): the center lies on both conics"


def test_conics_with_a_common_line_are_not_counted_from_any_center():
    # the common line z1 - z2 + t = 0 misses every center, so each
    # center reaches the eliminant, and R vanishes identically at each
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    common = z1 - z2 + t
    out = conic_pair(PLANE, (common * (z1 + 2 * t), common * (z2 - t)),
                     PLANE_VARS)
    assert out["count"] == 0 and out["points"] == []
    assert out["projection"] is None
    assert out["reason"] == "; ".join(
        f"from {center}: the eliminant R vanishes identically"
        for center in continuation.PROJECTIONS)


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
    on_basis = continuation._on_basis
    verdicts = []

    def checked(q, basis, names):
        co = on_basis(q, basis, names)
        verdicts.append(co == _polarised(q, basis, names))
        return co

    monkeypatch.setattr(continuation, "_on_basis", checked)
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
    anchors = _stratum_anchor_vectors(Fraction(10))
    assert len(anchors) == len(pinned) == 4
    assert {tuple(a) for a in anchors} == pinned
    # at r1 = 1/2 the relation has no real root, so there is no anchor
    assert _stratum_anchor_vectors(Fraction(1, 2)) == []


def test_census_rejects_degenerate_parameter_triples():
    # r2 = 0, r3 = 13/7 zeroes the first leading-coefficient inequation
    bad = (Fraction(10), Fraction(0), Fraction(13, 7))
    with pytest.raises(ValueError):
        count_stratum_points(bad, 42)


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
    """Highest-first coefficients of prod (z - root), times z2^infinite,
    at the working precision, with `perturb` added to the constant term."""
    with mp.workdps(WORKING_DPS):
        coeffs = [mp.mpc(1)]
        for root in roots:
            coeffs = [a - root * b
                      for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[-1] += perturb
        return [mp.mpc(0)] * infinite + coeffs


def _cold_roots(coeffs):
    """The cold-start reference: plain polyroots on the same normalized
    polynomial, with the same roots at infinity."""
    with mp.workdps(WORKING_DPS):
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


def test_a_pair_near_the_radius_is_decided_at_working_precision():
    # two real points at chordal distance radius * (1 + offset), where
    # rounding them to complex doubles moves the distance across the
    # radius
    radius = 1e-4
    with mp.workdps(WORKING_DPS):
        one = mp.mpc(1)
        for z, offset, grouped in (("1", "1e-14", False),
                                   ("3.0000000000000001", "-1e-14", True)):
            z = mp.mpf(z)
            k = (radius * (1 + mp.mpf(offset))) ** 2 * (1 + z * z)
            w = (z + mp.sqrt(z * z - (1 - k) * (z * z - k))) / (1 - k)
            points = [(mp.mpc(z), one), (mp.mpc(w), one)]
            rounded = [[complex(v) for v in p] for p in points]
            exact = _chordal_each(np.array(points[0], dtype=object),
                                  np.array(points[1:], dtype=object))[0]
            double = _chordal_each(np.array(rounded[0]),
                                   np.array(rounded[1:]))[0]
            assert (exact < radius) == grouped
            assert (double < radius) != grouped
            assert _sizes(points, radius) == ([2] if grouped else [1, 1])


@pytest.mark.parametrize("coeffs, expected", [
    # a sixfold root perturbed at 1e-36, beside two simple roots
    (_octic([0.3 + 0.2j] * 6 + [-1.5, 2j], perturb=1e-36), [6, 1, 1]),
    (_octic([0.3 + 0.2j] * 6 + [-1.5] * 2), [6, 2]),
    (_octic([0] * 8), [8]),
    (_octic([mp.exp(2j * mp.pi * (k + 0.1) / 8) * (1 + k / 10)
             for k in range(8)]), [1] * 8),
    # a simple pair 2e-3 apart, one coarse group for the seeds
    (_octic([0.3 + 0.2j] * 6 + [-1.5, -1.502]), [6, 1, 1]),
    # a far pair: in z its centroid is 0, far from both roots, so it is
    # expanded in 1/z; beside a cluster near 0 an expansion at 0 fails
    (_octic([529j, -529j], infinite=6), [6, 1, 1]),
    (_octic([529j, -529j] + [0.3 + 0.2j] * 6), [6, 1, 1]),
])
def test_seeded_octic_roots_match_the_cold_start(coeffs, expected,
                                                 monkeypatch):
    calls = []
    polyroots = mp.polyroots

    def counted(*args, **kwargs):
        calls.append(kwargs["roots_init"])
        return polyroots(*args, **kwargs)

    monkeypatch.setattr(mp, "polyroots", counted)
    seeded = _octic_roots(coeffs)
    assert len(calls) == 1              # the first rung of the ladder
    monkeypatch.undo()
    if expected == [8]:
        # cold polyroots needs ~600 steps for z^8; its roots are exact
        reference = [(mp.mpc(0), mp.mpc(1))] * 8
    else:
        reference = _cold_roots(coeffs)
    assert _sizes(seeded) == _sizes(reference) == expected
    with mp.workdps(WORKING_DPS):
        for z, w in seeded:
            assert min(abs(z - z2) + abs(w - w2)
                       for z2, w2 in reference) < 1e-35
        # the seeds resolve every cluster, up to the truncation error of
        # its local polynomial; double roots of a sixfold root are ~1e-3 off
        one = mp.mpc(1)
        for z in calls[0]:
            finite = np.array([p for p in reference if p[1]], dtype=object)
            assert _chordal_each(np.array((z, one), dtype=object),
                                 finite).min() < 1e-5


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
    equations = _fiber_equations(origin)
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
               for e in _fiber_equations((Fraction(0),) * 3))
    image = [sum((a * b for a, b in zip(row, y)), Fraction(0))
             for row in projection_data()["extract_rows"]]
    lam = image[0] * n[0].inverse()
    assert lam != 0
    assert image == [lam * v for v in n]
