"""The exact verification blocks: every symbolic and property check passes."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from covforge import binform, checks, construction, harness
from covforge.construction import VEC15_NAMES
from covforge.mpoly import MPoly
from covforge.scalar import CycScalar, from_numerators

EXPECTED_SYMBOLIC_IDS = [
    "symbolic/expansion_1_2",
    "symbolic/action_table_3_1",
    "symbolic/group_structure",
    "symbolic/equivariance_invariants",
    "symbolic/jacobians",
    "symbolic/lemma_4_2",
    "symbolic/derivation_4_5",
    "symbolic/strata_6",
]

EXPECTED_PROPERTY_IDS = [
    "property/field_axioms",
    "property/mpoly_ring",
    "property/transvectants",
    "property/scaling_1_1",
]


@pytest.fixture(scope="module")
def symbolic_results(symbolic_report):
    return symbolic_report.results


@pytest.fixture(scope="module")
def property_results(property_report):
    return property_report.results


def test_every_symbolic_check_passes(symbolic_results):
    assert [r.check_id for r in symbolic_results] == EXPECTED_SYMBOLIC_IDS
    for r in symbolic_results:
        assert r.ok, f"{r.check_id}: {r.residuals}"
        assert r.residuals == ()


def test_every_property_check_passes(property_results):
    assert [r.check_id for r in property_results] == EXPECTED_PROPERTY_IDS
    for r in property_results:
        assert r.ok, f"{r.check_id}: {r.residuals}"


def _by_id(results, check_id):
    return next(r for r in results if r.check_id == check_id)


def test_expansion_check_reports_the_calibrated_convention(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/expansion_1_2")
    assert r.details["convention"] == "substitute_inverse"
    assert r.details["scalars"] == ["1", "1", "1"]
    assert r.details["expansion_listing"] == "unordered-pairs"
    assert r.details["residual_sources"] == 0
    assert len(r.erratum_notes) == 2


def test_action_table_check_singles_out_one_convention(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/action_table_3_1")
    assert r.ok
    counts = r.details["mismatch_counts"]
    assert counts["substitute_inverse"] == 0
    assert counts["substitute_direct"] > 0
    assert counts["substitute_transpose"] > 0


def test_action_table_check_lists_the_calibration_mismatches(monkeypatch):
    # With the direct convention's mismatches in place of the matched
    # convention's, the check names each entry the direct induced
    # matrices get wrong, as a recomputation of those matrices finds.
    cal = checks.calibrate_conventions()
    mismatches = dict(cal.table_mismatches)
    mismatches["substitute_inverse"] = mismatches["substitute_direct"]
    patched = dataclasses.replace(cal, table_mismatches=mismatches)
    monkeypatch.setattr(checks, "calibrate_conventions", lambda: patched)
    monkeypatch.setattr(checks, "MAX_WITNESSES", 100)
    want = []
    table = construction.action_table()
    for name, g in construction.generators().items():
        induced = construction.induced_vec15_matrix(
            g, convention="substitute_direct")
        for i in range(15):
            for j in range(15):
                if induced[i][j] != table[name][i][j]:
                    want.append(
                        f"{name}: entry ({VEC15_NAMES[i]}, {VEC15_NAMES[j]}) "
                        f"stored {table[name][i][j]} vs. recomputed "
                        f"{induced[i][j]}")
    result = checks.check_action_table_3_1()
    assert not result.ok and len(want) == 30
    assert result.residuals == tuple(want)


def test_group_check_details(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/group_structure")
    assert r.details["group_order"] == 24
    assert r.details["order_histogram"] == {"1": 1, "2": 9, "3": 8, "4": 6}
    assert r.details["quotient_order"] == 6
    assert r.details["orbit_count_times_group"] == "8*7*6 = 336 = 14 * 24"


def test_invariant_dimension_details(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/equivariance_invariants")
    dims = r.details["fixed_dims"]
    assert dims["diagonal_subgroup"] == 6
    assert dims["full_group"] == 2
    assert dims["full_group_on_target"] == 0
    assert r.details["summand_dims"] == [3, 3, 2, 1, 1, 2, 3]
    assert sum(r.details["summand_dims"]) == 15


def test_jacobian_rank_details(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/jacobians")
    assert r.details["full_rank"] == 5
    assert r.details["full_kernel_dim"] == 10
    assert r.details["restricted_rank"] == 5
    assert r.details["restricted_tangent_dim"] == 7


def test_orbit_quadratic_details(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/lemma_4_2")
    assert r.details["octic_fixed_dim"] == 3
    assert r.details["target_fixed_dim"] == 1
    assert r.details["quadratic"] == \
        "120*alpha1*alpha3 + 24*i*alpha2^2 - 312*i*alpha3^2"
    assert r.details["literal_route_factor"] == 2


def test_derivation_check_multipliers_and_notes(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/derivation_4_5")
    assert r.details["multipliers"] == [
        "x1^2*x2^2*x3^2", "x1^2*x2^2*x3^2", "x2*x3", "x1*x3", "x1*x2"]
    assert len(r.erratum_notes) == 2


def test_strata_check_counts_and_note(symbolic_results):
    r = _by_id(symbolic_results, "symbolic/strata_6")
    assert r.details["sparse_count"] == 4
    assert r.details["family_count"] == 4
    assert r.details["count_bookkeeping"] == "18 + 14 = 32 = 2^5"
    assert len(r.erratum_notes) == 1


def test_a_nonzero_residual_names_its_leading_terms():
    x1, s0 = MPoly.var("x1"), MPoly.var("s0")
    residuals = []
    assert checks._require_zero_poly(residuals, x1 * x1 * s0 * 3 - 2,
                                     "row 1") is False
    assert residuals == ["row 1: nonzero (2 terms; 3*x1^2*s0, -2*1)"]
    assert checks._require_zero_poly(residuals, x1 - x1, "row 2") is True
    assert len(residuals) == 1


def test_property_checks_are_reproducible_across_calls():
    first = checks.check_field_axioms(seed=7)
    second = checks.check_field_axioms(seed=7)
    assert first.ok and second.ok
    assert first.residuals == second.residuals == ()


def test_property_trial_counts_are_recorded(property_results):
    assert _by_id(property_results, "property/field_axioms").details["trials"] >= 1000
    assert _by_id(property_results,
                  "property/transvectants").details["trials"] >= 100


def test_exact_reports_match_the_golden_rows(symbolic_report,
                                             property_report):
    """The JSON rows of both exact phases at seed 42, timings aside,
    equal the recorded ones, so every `details` value of the exact
    layers is pinned.  The numeric rows are not recorded, since their
    floats depend on the BLAS."""
    golden = json.loads((Path(__file__).parent / "data"
                         / "exact_report_seed42.json").read_text("utf-8"))
    for filt, report in (("symbolic/*", symbolic_report),
                         ("property/*", property_report)):
        assert report.config.filter == filt and report.config.seed == 42
        rows = json.loads(harness.render_json(report))
        for row in rows:
            del row["millis"]
        assert rows == golden[filt]


def random_poly_by_arithmetic(rng, names, max_terms=5, max_exp=3):
    """The random polynomial built by MPoly arithmetic, one variable
    power at a time: the construction that `checks._random_poly` draws
    for, kept as its oracle."""
    acc = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = MPoly.const(checks._random_rational(rng))
        for n in names:
            e = rng.randint(0, max_exp)
            if e:
                mono = mono * MPoly.var(n) ** e
        acc = acc + mono
    return acc


def test_random_polynomials_are_drawn_as_by_arithmetic():
    for seed in range(100):
        rngs = [random.Random(seed) for _ in range(2)]
        for names, kw in ((("x1", "x2", "s1"), {}),
                          (("x2", "s1"), {"max_terms": 2})):
            got = checks._random_poly(rngs[0], names, **kw)
            want = random_poly_by_arithmetic(rngs[1], names, **kw)
            assert list(got.terms.items()) == list(want.terms.items())
        assert rngs[0].random() == rngs[1].random()


def test_random_cyclotomic_scalars_are_drawn_as_four_rationals():
    # the oracle builds each coordinate as a Fraction; the canonical form
    # is unique, so the int-built element is equal field by field
    for seed in range(100):
        rngs = [random.Random(seed) for _ in range(2)]
        for _ in range(10):
            got = checks._random_cyc(rngs[0])
            want = CycScalar(*(checks._random_rational(rngs[1])
                               for _ in range(4)))
            assert got == want and got.coords == want.coords
        assert rngs[0].random() == rngs[1].random()


# Each property suite, at its default size and the default seed, finds
# one planted defect of the layer it tests that fires on part of its
# inputs only, and names the law it breaks.


def test_the_field_axiom_suite_finds_a_wrong_product_on_one_class_of_pairs(
        monkeypatch):
    real = CycScalar.__mul__

    def wrong(a, b):
        # the w^3 * w term of the product gains the wrong sign when a's
        # w^3 numerator equals b's w numerator
        out = real(a, b)
        if isinstance(b, CycScalar) and a._n[3] == b._n[1] != 0:
            out = out + from_numerators([2 * a._n[3] * b._n[1], 0, 0, 0],
                                        a._d * b._d)
        return out

    monkeypatch.setattr(CycScalar, "__mul__", wrong)
    result = checks.check_field_axioms(seed=42)
    assert result.status == "fail"
    assert result.residuals == (
        "trial 3: inverse fails for 3/5 + 2*w + i - 2*w^3",)


def test_the_polynomial_ring_suite_finds_a_wrong_product_of_long_factors(
        monkeypatch):
    real = MPoly.__mul__

    def wrong(f, g):
        # a product of two factors of four or more terms gains 1
        out = real(f, g)
        if isinstance(g, MPoly) and min(len(f.terms), len(g.terms)) >= 4:
            out = out + 1
        return out

    monkeypatch.setattr(MPoly, "__mul__", wrong)
    result = checks.check_mpoly_ring(seed=42)
    assert result.status == "fail"
    assert result.residuals == ("trial 3: distributivity fails",)


def test_the_transvectant_suite_finds_a_weight_off_by_one(monkeypatch):
    real = binform._transvectant_weights

    def wrong(m, n, i):
        # the first weight of row 0 of every third transvectant is off
        # by one; the suite's frozen values take indices 2, 4 and 6 only
        pref, rows = real(m, n, i)
        if i == 3:
            (q, w), *rest = rows[0]
            rows = (((q, w + 1), *rest), *rows[1:])
        return pref, rows

    monkeypatch.setattr(binform, "_transvectant_weights", wrong)
    result = checks.check_transvectant_properties(seed=42)
    assert result.status == "fail"
    assert result.residuals == ("trial 5: symmetry sign fails at index 3",
                                "trial 5: covariance fails")


def test_the_scaling_suite_finds_a_bracket_weight_off_by_one(monkeypatch):
    real = checks.delta_forms

    def wrong(lam, f8, f0, f4):
        # the quadratic map the suite reads weighs its fourth bracket by
        # l4 + 1 when the constant input is a negative integer
        out = real(lam, f8, f0, f4)
        if f0 < 0 and Fraction(f0).denominator == 1:
            s4 = binform.calibrate_conventions().scalars[1]
            out = out + binform.transvectant(f8, f4, 4).scale(s4)
        return out

    monkeypatch.setattr(checks, "delta_forms", wrong)
    result = checks.check_scaling_1_1(seed=42)
    assert result.status == "fail"
    assert result.residuals == ("trial 0: rescaling law fails",)


# Each symbolic check, fed one falsified stored input of `construction`,
# fails and names the defect.  FALSIFIED maps each getter so falsified to
# its check and to the falsified value, built from the true one; no cache
# derives anything from such a getter, so a falsification leaves nothing
# behind once it is undone.


def _with_term(k: int, term: MPoly):
    """The polynomial tuple with `term` added to its entry k."""
    def falsify(parts):
        parts = list(parts)
        parts[k] = parts[k] + term
        return tuple(parts)
    return falsify


def _swap_tau_blocks(permutations):
    perm = {g: dict(m) for g, m in permutations.items()}
    perm["tau"][1], perm["tau"][2] = perm["tau"][2], perm["tau"][1]
    return perm


def _move_a_sparse_solution(points):
    points = dict(points)
    (a, b, c), *rest = points["sparse_solutions"]
    points["sparse_solutions"] = ((a, b, c + 1), *rest)
    return points


FALSIFIED = {
    "pure_quadric_parts": (
        "check_expansion_1_2",
        _with_term(2, MPoly.var("x2") * MPoly.var("x3"))),
    "block_permutation": ("check_group_structure", _swap_tau_blocks),
    # unit vector 5 in place of 6 in the diagonal subgroup's fixed basis
    "expected_h_fixed": (
        "check_equivariance_and_invariant_spaces",
        lambda _basis: tuple(construction.unit15(i)
                             for i in (5, 7, 8, 9, 10, 11))),
    "restricted_system_3_2": (
        "check_jacobians",
        _with_term(2, MPoly.var("x1") * MPoly.var("x7"))),
    "expected_orbit_quadratic": (
        "check_lemma_4_2",
        lambda q: q + MPoly.var("alpha1") * MPoly.var("alpha3")),
    "chart_numerators_symbolic": (
        "check_derivation_4_5", _with_term(0, MPoly.var("x1"))),
    "special_points": ("check_strata_6", _move_a_sparse_solution),
}


def _falsified_check(monkeypatch, getter: str):
    """The check of FALSIFIED[getter] run on the falsified getter."""
    check, falsify = FALSIFIED[getter]
    value = falsify(getattr(construction, getter)())
    monkeypatch.setattr(construction, getter, lambda: value)
    return getattr(checks, check)()


def test_the_expansion_check_finds_a_wrong_quadric_coefficient(monkeypatch):
    result = _falsified_check(monkeypatch, "pure_quadric_parts")
    assert result.status == "fail"
    assert result.residuals == (
        "expansion: slot 3: x2*x3: off by -1",
        "spot coefficient x2*x3 in the third pure quadric is not 624")
    assert result.details["residual_sources"] == 1


def test_the_group_check_finds_a_swapped_block_permutation(monkeypatch):
    result = _falsified_check(monkeypatch, "block_permutation")
    assert result.status == "fail"
    assert result.residuals[0] == ("stored 3-set permutations do not "
                                   "generate all six permutations")
    assert "coset-to-permutation map is not injective" in result.residuals
    assert result.residuals[-1] == "... and 11 more"


def test_the_invariant_check_finds_a_wrong_fixed_basis_vector(monkeypatch):
    result = _falsified_check(monkeypatch, "expected_h_fixed")
    assert result.status == "fail"
    assert result.residuals == (
        "diagonal-subgroup fixed space differs from the stored basis",)


def test_the_jacobian_check_finds_a_wrong_restricted_row(monkeypatch):
    result = _falsified_check(monkeypatch, "restricted_system_3_2")
    assert result.status == "fail"
    assert result.residuals == tuple(
        f"restricted Jacobian at the invariant octic (eps={eps}) differs "
        "from the frozen row pattern" for eps in ("1", "7/3"))


def test_the_orbit_check_finds_a_wrong_quadratic(monkeypatch):
    result = _falsified_check(monkeypatch, "expected_orbit_quadratic")
    assert result.status == "fail"
    assert result.residuals == (
        "stored image row 3 vs. quadratic times invariant target: nonzero "
        "(1 terms; -2*alpha1*alpha3)",
        "literal image row 3 vs. twice the product: nonzero (1 terms; "
        "-4*alpha1*alpha3)",
        "stored image row 4 vs. quadratic times invariant target: nonzero "
        "(1 terms; -i*alpha1*alpha3)",
        "literal image row 4 vs. twice the product: nonzero (1 terms; "
        "-2*i*alpha1*alpha3)",
        "stored image row 5 vs. quadratic times invariant target: nonzero "
        "(1 terms; -1*alpha1*alpha3)",
        "literal image row 5 vs. twice the product: nonzero (1 terms; "
        "-2*alpha1*alpha3)",
        "quadratic does not vanish on the crossing direction")


def test_the_derivation_check_finds_a_wrong_chart_numerator(monkeypatch):
    result = _falsified_check(monkeypatch, "chart_numerators_symbolic")
    assert result.status == "fail"
    assert result.residuals[0] == (
        "cleared chart equation 1 vs. multiplier times sliced row: nonzero "
        "(6 terms; -192*x1^3*x2^2*r2^2, -192*x1^3*x3^2*r3^2, "
        "-96*x1^3*x2^2*r2)")
    assert ("omega: chart minor (y1, y2): nonzero (1 terms; -2*x1^3*x3^2)"
            in result.residuals)


def test_the_strata_check_finds_a_moved_sparse_solution(monkeypatch):
    result = _falsified_check(monkeypatch, "special_points")
    assert result.status == "fail"
    assert result.residuals == (
        "stored sparse solutions differ from the branch roots",
        "sparse solution (5, 0, 2) fails quadric 2")


# In a fresh process, so that no earlier run has filled a cache: the
# falsified check fails, and once the getter is restored it passes.
FRESH_FALSIFICATION = """
import sys
from covforge import checks, construction
from test_checks import FALSIFIED
getter = sys.argv[1]
check, falsify = FALSIFIED[getter]
check = getattr(checks, check)
true = getattr(construction, getter)
value = falsify(true())
setattr(construction, getter, lambda: value)
falsified = check()
setattr(construction, getter, true)
print(falsified.status, check().status)
"""


@pytest.mark.parametrize("getter", FALSIFIED)
def test_a_falsification_undone_in_a_fresh_process_leaves_no_trace(getter):
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    out = subprocess.run([sys.executable, "-c", FRESH_FALSIFICATION, getter],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["fail", "pass"]


# The committed failing case of every check the harness can select.
FAILING_CASES = {
    "symbolic/expansion_1_2": (
        "test_checks.py",
        "test_the_expansion_check_finds_a_wrong_quadric_coefficient"),
    "symbolic/action_table_3_1": (
        "test_checks.py",
        "test_action_table_check_lists_the_calibration_mismatches"),
    "symbolic/group_structure": (
        "test_checks.py",
        "test_the_group_check_finds_a_swapped_block_permutation"),
    "symbolic/equivariance_invariants": (
        "test_checks.py",
        "test_the_invariant_check_finds_a_wrong_fixed_basis_vector"),
    "symbolic/jacobians": (
        "test_checks.py",
        "test_the_jacobian_check_finds_a_wrong_restricted_row"),
    "symbolic/lemma_4_2": (
        "test_checks.py", "test_the_orbit_check_finds_a_wrong_quadratic"),
    "symbolic/derivation_4_5": (
        "test_checks.py",
        "test_the_derivation_check_finds_a_wrong_chart_numerator"),
    "symbolic/strata_6": (
        "test_checks.py",
        "test_the_strata_check_finds_a_moved_sparse_solution"),
    "property/field_axioms": (
        "test_checks.py",
        "test_the_field_axiom_suite_finds_a_wrong_product_on_one_class_of_"
        "pairs"),
    "property/mpoly_ring": (
        "test_checks.py",
        "test_the_polynomial_ring_suite_finds_a_wrong_product_of_long_"
        "factors"),
    "property/transvectants": (
        "test_checks.py",
        "test_the_transvectant_suite_finds_a_weight_off_by_one"),
    "property/scaling_1_1": (
        "test_checks.py",
        "test_the_scaling_suite_finds_a_bracket_weight_off_by_one"),
    "numeric/lemma6_2": (
        "test_continuation.py",
        "test_an_orbit_image_that_matches_no_point_is_named"),
    "numeric/fiber_5": (
        "test_continuation.py",
        "test_a_singular_projection_is_a_residual_not_an_error"),
    "numeric/seed_stability": (
        "test_continuation.py",
        "test_a_point_of_census_s_missing_at_s_plus_1_is_named"),
}


def test_every_check_has_a_committed_failing_case():
    assert sorted(FAILING_CASES) == sorted(harness.check_ids())
    sources = {module: (Path(__file__).parent / module).read_text("utf-8")
               for module, _name in FAILING_CASES.values()}
    for check_id, (module, name) in FAILING_CASES.items():
        assert f"\ndef {name}(" in sources[module], (check_id, module, name)
