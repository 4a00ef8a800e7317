"""Acceptance gate: one test per promised capability, each printing a
single PASS/FAIL line.  Tolerances are pinned literally where they apply:
path residual 1e-10, endpoint identification 1e-6, rank threshold 1e-8,
root-cluster radius 1e-4, regularity floor on singular values 1e-6,
orbit and preimage matching 1e-8, image recovery 1e-6.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from covforge import checks, construction, harness
from covforge.binform import calibrate_conventions
from covforge.construction import SAMPLE_R
from covforge.continuation import (check_fiber_geometry, check_seed_stability,
                                   check_stratum_counts)
from covforge.scalar import CycScalar

EXPECTED_PARTITION = {
    "L0": 4,
    "L1_X1": 2, "L1_X2": 2,
    "L2_X1": 2, "L2_X2": 2,
    "L3_X1": 2, "L3_X2": 2,
    "Lopen_X1": 12, "Lopen_X2": 4,
}


@contextmanager
def criterion(label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"{'PASS' if ok else 'FAIL'}: {label}")


def test_calibration_settles_one_convention_with_exact_scalars():
    with criterion("calibration: unique convention, unit scalars, "
                   "zero residual, under 30 s"):
        started = time.perf_counter()
        cal = calibrate_conventions()
        result = checks.check_expansion_1_2()
        elapsed = time.perf_counter() - started
        assert cal.matched_conventions == ("substitute_inverse",)
        assert cal.scalars == (Fraction(1), Fraction(1), Fraction(1))
        assert result.ok
        assert result.details["residual_sources"] == 0
        assert elapsed < 30.0


def test_action_table_reproduces_all_sixty_basis_images():
    with criterion("action table: 4 generators x 15 images exact, "
                   "with the recorded basis correction"):
        result = checks.check_action_table_3_1()
        assert result.ok and result.residuals == ()
        assert result.details["mismatch_counts"]["substitute_inverse"] == 0
        ledger_ids = {e["id"] for e in harness.errata_ledger()}
        assert "basis-e5-degree" in ledger_ids


def test_invariant_dimensions_and_module_decomposition():
    with criterion("invariant spaces: dims 6 / 2 / 0 and a 15-dimensional "
                   "direct sum"):
        result = checks.check_equivariance_and_invariant_spaces()
        assert result.ok
        dims = result.details["fixed_dims"]
        assert dims["diagonal_subgroup"] == 6
        assert dims["full_group"] == 2
        assert dims["full_group_on_target"] == 0
        assert result.details["summand_dims"] == [3, 3, 2, 1, 1, 2, 3]
        assert sum(result.details["summand_dims"]) == 15


def _s4_order_histogram():
    hist: dict = {}
    for perm in itertools.permutations(range(4)):
        order = 1
        seen = [False] * 4
        for start in range(4):
            if seen[start]:
                continue
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            order = order * length // math.gcd(order, length)
        hist[order] = hist.get(order, 0) + 1
    return hist


def test_group_structure_matches_a_brute_force_permutation_oracle():
    with criterion("group: order 24, permutation-group order histogram, "
                   "normal four-group, nonabelian order-6 quotient"):
        result = checks.check_group_structure()
        assert result.ok
        assert result.details["group_order"] == 24
        oracle = {str(k): v for k, v in _s4_order_histogram().items()}
        assert result.details["order_histogram"] == oracle
        assert result.details["order_histogram"] == {"1": 1, "2": 9,
                                                     "3": 8, "4": 6}
        assert result.details["quotient_order"] == 6
        assert result.details["orbit_count_times_group"] == \
            "8*7*6 = 336 = 14 * 24"


def test_jacobian_ranks_at_the_two_distinguished_points():
    with criterion("Jacobians: rank 5 / kernel 10 at the constant form, "
                   "rank 5 / tangent 7 at the invariant octic"):
        result = checks.check_jacobians()
        assert result.ok
        assert result.details["full_rank"] == 5
        assert result.details["full_kernel_dim"] == 10
        assert result.details["restricted_rank"] == 5
        assert result.details["restricted_tangent_dim"] == 7


def test_orbit_quadric_chain_and_the_chart_image():
    with criterion("orbit quadric: pinned quadratic, root at (13i, 0, 5), "
                   "chart image of the crossing point"):
        result = checks.check_lemma_4_2()
        assert result.ok
        assert result.details["quadratic"] == \
            "120*alpha1*alpha3 + 24*i*alpha2^2 - 312*i*alpha3^2"
        q = construction.expected_orbit_quadratic()
        value = q.evaluate({"alpha1": CycScalar.i() * 13,
                            "alpha2": CycScalar.zero(),
                            "alpha3": CycScalar(5)})
        assert not value
        points = construction.special_points()
        _params, image = construction.pi_chart(tuple(points["crossing_point"]))
        assert image == points["u_dprime_0"]


def test_chart_system_derivation_is_residue_free():
    with criterion("chart system: clearing multipliers pinned, zero "
                   "derivation residuals, symbolic center line"):
        result = checks.check_derivation_4_5()
        assert result.ok and result.residuals == ()
        assert result.details["multipliers"] == [
            "x1^2*x2^2*x3^2", "x1^2*x2^2*x3^2", "x2*x3", "x1*x3", "x1*x2"]


def test_exact_stratum_points_families_and_bookkeeping():
    with criterion("exact strata: 4 sparse points, 4 family branches, "
                   "instances at r1=10, 18+14=32"):
        result = checks.check_strata_6()
        assert result.ok
        assert result.details["sparse_count"] == 4
        assert result.details["family_count"] == 4
        assert result.details["count_bookkeeping"] == "18 + 14 = 32 = 2^5"
        instances = set(result.details["instances_at_10"])
        assert "['1', '0', '0', '10', '0', '0', '10', '1', '0']" in instances
        assert "['40', '0', '0', '400', '0', '0', '-410', '-50', '6']" \
            in instances
        assert len(instances) == 4
        assert 8 * 7 * 6 // 24 == 14 and 18 + 14 == 32 == 2 ** 5


def test_numeric_census_partition_regularity_and_orbit(numeric_run):
    with criterion("numeric census: 32/32 paths, partition 4+12+16, "
                   "regular endpoints, one orbit of special points, "
                   "under 60 s"):
        started = time.perf_counter()
        result = check_stratum_counts(seed=42, sample_r=SAMPLE_R,
                                      numeric=numeric_run)
        elapsed = time.perf_counter() - started
        assert result.ok, result.residuals
        assert result.details["partition"] == EXPECTED_PARTITION
        assert result.details["partition_display"] == "4+12+16=32"
        assert result.details["min_singular_value"] > 1e-6
        assert result.details["failed_paths"] == []
        origin = result.details["origin_partition"]
        assert origin["Lopen_X1"] + origin["Lopen_X2"] == 16
        assert result.details["tolerances"] == {
            "track": 1e-10, "dedup": 1e-6, "match": 1e-8,
            "cluster_radius": 1e-4}
        assert elapsed < 60.0


def test_numeric_fiber_degree_rank_image_and_preimages(numeric_run):
    with criterion("numeric fiber: slice degree 4, Jacobian rank 5, exact "
                   "image within 1e-6, disjoint center, one preimage "
                   "per target"):
        result = check_fiber_geometry(seed=42, numeric=numeric_run)
        assert result.ok, result.residuals
        assert result.details["slice_counts"] == [4, 4, 4, 4, 4]
        assert result.details["fiber_jacobian_rank"] == 5
        assert result.details["center_rank"] == 5
        assert result.details["target_rank"] == 4
        assert result.details["intersection_dim"] == 0
        assert result.details["image_span_rank"] == 4
        assert result.details["differential_span_rank"] == 4
        assert result.details["preimage_counts"] == [1] * 10
        assert result.details["tolerances"] == {
            "track": 1e-10, "dedup": 1e-6}
        line = result.details["center_line"]
        assert line["dim"] == 2 and line["quadrics_vanish"]
        assert line["factored_trials"] == 10
        cross = result.details["preimage_cross_check"]
        assert cross["chordal"] < 1e-8
        polish = [p for chart in cross["failed_paths"] for p in chart
                  if p[1] == "polish"]
        assert cross["on_center_line"] == len(polish)


def test_property_suites_and_cross_seed_stability(numeric_run,
                                                  property_report):
    with criterion("properties: 1000 field triples, 100 transvectant "
                   "instances, symbolic scaling, three stable seeds"):
        # the harness runs each property suite with the run seed, 42
        assert property_report.config.seed == 42
        by_id = {r.check_id: r for r in property_report.results}
        field = by_id["property/field_axioms"]
        assert field.ok and field.details["trials"] >= 1000
        trans = by_id["property/transvectants"]
        assert trans.ok and trans.details["trials"] >= 100
        scaling = by_id["property/scaling_1_1"]
        assert scaling.ok
        stability = check_seed_stability(seed=42, sample_r=SAMPLE_R,
                                         numeric=numeric_run)
        assert stability.ok, stability.residuals
        assert stability.details["seeds"] == [42, 43, 44]
        assert stability.details["partition"] == EXPECTED_PARTITION
        assert stability.details["slice_counts"] == [4, 4, 4]
