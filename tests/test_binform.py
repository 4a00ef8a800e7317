"""Binary forms, transvectants, the 24-element matrix group, and calibration."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from covforge.binform import (ACTION_CONVENTIONS, BinaryForm, GroupElt,
                              Lambda, _taylor_shift, calibrate_conventions,
                              delta, expanded_coordinate_system, group_act,
                              max_root_multiplicity_exact, mul_closure,
                              transvectant)
from covforge.construction import (assemble, delta_coordinate_system,
                                   generators, induced_vec15_matrix,
                                   octic_basis, octic_coordinates,
                                   quartic_basis, quartic_coordinates,
                                   special_points, unit15)
from covforge.mpoly import MPoly, exponents, var_slot
from covforge.scalar import (CycScalar, from_numerators, numerator_columns,
                             over_common_denominator)


def form(*coeffs):
    return BinaryForm(len(coeffs) - 1, list(coeffs))


# ---------------------------------------------------------------------------
# Oracles: the defining formulas, evaluated the slow way.

def diff_z1(f):
    d = f.degree
    return BinaryForm(d - 1, [(d - k) * f.coeffs[k] for k in range(d)])


def diff_z2(f):
    d = f.degree
    return BinaryForm(d - 1, [(k + 1) * f.coeffs[k + 1] for k in range(d)])


def diff(f, n1, n2):
    for _ in range(n1):
        f = diff_z1(f)
    for _ in range(n2):
        f = diff_z2(f)
    return f


def transvectant_oracle(f, g, i):
    """psi_i by its derivative definition (binform's module docstring)."""
    m, n = f.degree, g.degree
    pref = Fraction(factorial(m - i) * factorial(n - i),
                    factorial(m) * factorial(n))
    total = BinaryForm.zero(m + n - 2 * i)
    for k in range(i + 1):
        piece = diff(f, i - k, k) * diff(g, k, i - k)
        total = total + piece.scale((-1) ** k * comb(i, k))
    return total.scale(pref)


def compose_oracle(f, g):
    """f(a z1 + b z2, c z1 + d z2) for g = [[a, b], [c, d]], as a sum of
    products of powers of the two linear forms."""
    a, b, c, d = g.m
    pow1, pow2 = [form(1)], [form(1)]
    for _ in range(f.degree):
        pow1.append(pow1[-1] * form(a, b))
        pow2.append(pow2[-1] * form(c, d))
    total = BinaryForm.zero(f.degree)
    for k, coeff in enumerate(f.coeffs):
        total = total + (pow1[f.degree - k] * pow2[k]).scale(coeff)
    return total


def group_act_oracle(g, f, convention):
    sub = {"substitute_inverse": g.inverse(), "substitute_direct": g,
           "substitute_transpose": g.transpose()}[convention]
    out = compose_oracle(f, sub)
    if f.degree % 2:
        assert sub.det() == CycScalar.one()
        return out
    return out.scale(sub.det() ** -(f.degree // 2))


def induced_oracle(g, convention):
    """The 15x15 induced matrix, every basis form acted on by the oracle."""
    columns = []
    for j in range(15):
        f8, _f0, f4 = assemble(unit15(j))
        if j < 9:
            col = octic_coordinates(group_act_oracle(g, f8, convention))
            columns.append(col + [0] * 6)
        elif j == 9:
            columns.append(unit15(9))
        else:
            col = quartic_coordinates(group_act_oracle(g, f4, convention))
            columns.append([0] * 10 + col)
    return [[columns[j][i] for j in range(15)] for i in range(15)]


def random_coeff(rng, kind):
    if rng.random() < 0.3:
        return 0
    r = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if kind == "rational":
        return r
    if kind == "cyclotomic":
        return r * rng.choice([CycScalar.zeta(), CycScalar.i(),
                               CycScalar.sqrt2(), CycScalar.one(),
                               CycScalar.zeta() + CycScalar.i()])
    return r * rng.choice([MPoly.var("x1"), MPoly.var("s2") + 1,
                           MPoly.var("x1") * CycScalar.i(), MPoly.const(3)])


def random_form(rng, degree, kind):
    return BinaryForm(degree, [random_coeff(rng, kind)
                               for _ in range(degree + 1)])


@pytest.mark.parametrize("kind", ["rational", "cyclotomic", "polynomial"])
def test_transvectant_matches_its_derivative_definition(kind):
    rng = random.Random(f"transvectant-{kind}")
    degrees = (0, 1, 2, 4, 5, 8)
    cases = 0
    for m in degrees:
        for n in degrees:
            f = random_form(rng, m, kind)
            g = random_form(rng, n, kind)
            for i in range(min(m, n) + 1):
                assert transvectant(f, g, i) == transvectant_oracle(f, g, i), \
                    (m, n, i)
                cases += 1
    assert cases == 102


def unimodular_products(rng, count):
    """Seeded products of elementary moves, all of determinant 1."""
    out = []
    for _ in range(count):
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out.append(GroupElt(1, b, 0, 1) * GroupElt(1, 0, c, 1)
                   * GroupElt(1, CycScalar.i() * c, 0, 1))
    return out


@pytest.mark.parametrize("convention", ACTION_CONVENTIONS)
def test_group_act_matches_the_power_product_composition(convention):
    rng = random.Random(f"action-{convention}")
    elements = mul_closure(list(generators().values()))
    assert len(elements) == 24
    elements += unimodular_products(rng, 6)
    for g in elements:
        # every element here has a determinant-1 representative, so the
        # odd degrees are covered too
        for degree in range(9):
            f = random_form(rng, degree, "cyclotomic")
            assert group_act(g, f, convention) == \
                group_act_oracle(g, f, convention), (g, degree)


def substituting(m, convention):
    """The element whose matrix substituted under the convention is m."""
    return {"substitute_inverse": m.inverse(), "substitute_direct": m,
            "substitute_transpose": m.transpose()}[convention]


def random_unit_entry(rng):
    r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    return r * rng.choice([CycScalar.one(), CycScalar.i(), CycScalar.zeta(),
                           CycScalar.sqrt2()])


@pytest.mark.parametrize("convention", ACTION_CONVENTIONS)
def test_group_act_matches_the_oracle_with_a_swap_and_any_determinant(
        convention):
    # Degrees 9 to 8 + 8 - 2 = 14, past the power-product test and up to
    # the largest that property/transvectants acts on.  A substituted
    # matrix with top-left entry 0 needs z1 and z2 swapped, and one of
    # determinant other than 1 the factor det^-(degree // 2), which only
    # even degrees allow.
    rng = random.Random(f"action-moves-{convention}")
    cases = 0
    for _ in range(2):
        b, c, d = (random_unit_entry(rng) for _ in range(3))
        unimodular = [GroupElt(0, b, -b ** -1, d), GroupElt(1, b, c, 1 + b * c),
                      GroupElt(d, b, c, (1 + b * c) * d ** -1)]
        general = [GroupElt(0, b, -3 * b ** -1, d), GroupElt(1, b, c, b * c + 2)]
        assert [m.det() for m in general] == [3, 2]
        for m in unimodular + general:
            g = substituting(m, convention)
            for degree in range(9, 15) if m.det() == 1 else range(0, 15, 2):
                f = random_form(rng, degree, "cyclotomic")
                assert group_act(g, f, convention) == \
                    group_act_oracle(g, f, convention), (m, degree)
                cases += 1
    assert cases == 2 * (3 * 6 + 2 * 8)


# ---------------------------------------------------------------------------
# The integer moves against the scalar ones: the Taylor shift and the
# action exactly as they run on CycScalars, kept as the reference path.

def reference_shift(coeffs, t):
    """p(w) -> p(w + t) by scalar arithmetic, with the set of entries a
    step adds to."""
    coeffs, added = list(coeffs), set()
    n = len(coeffs) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            x = coeffs[j + 1]
            if x:
                coeffs[j] = coeffs[j] + t * x
                added.add(j)
    return coeffs, added


def reference_act(g, f, convention):
    """group_act by scalar moves: shift by c/a, scale, shift by b/a."""
    sub = {"substitute_inverse": g.inverse(), "substitute_direct": g,
           "substitute_transpose": g.transpose()}[convention]
    degree, det = f.degree, sub.det()
    a, b, c, d = sub.m
    coeffs = list(f.coeffs)
    if not a:
        coeffs.reverse()
        a, b, c, d = c, d, a, b
    inv = a ** -1
    if c:
        coeffs, _ = reference_shift(coeffs, c * inv)
    ratio = (a * d - b * c) * inv * inv
    factor = a ** degree * det ** -(degree // 2)
    for k, x in enumerate(coeffs):
        if x:
            coeffs[k] = factor * x
        factor = factor * ratio
    if b:
        coeffs, _ = reference_shift(coeffs[::-1], b * inv)
        coeffs.reverse()
    return BinaryForm(degree, coeffs)


def random_cyc_vector(rng, degree):
    """Q(zeta_8) entries, a third of them zero and some coordinates zero."""
    out = []
    for _ in range(degree + 1):
        if rng.random() < 0.3:
            out.append(Fraction(0))
            continue
        parts = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                 if rng.random() < 0.7 else 0 for _ in range(4)]
        out.append(CycScalar(*parts))
    return out


def random_shift(rng, rational):
    """A shift over a denominator up to 10^6; unless rational, its zeta
    part is nonzero."""
    q = rng.randint(1, 10 ** 6)
    parts = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)]
    if rational:
        parts[1:] = [0, 0, 0]
    elif not parts[1] and not parts[3]:
        parts[1] = 1
    return CycScalar(*(Fraction(x, q) for x in parts))


def shift_on_numerators(coeffs, t, p):
    """_taylor_shift on coeffs given over den * p^j at entry j, read back."""
    n = len(coeffs) - 1
    cols, den = numerator_columns(coeffs)
    for col in cols:
        for j in range(n + 1):
            col[j] *= p ** j
    touched = [False] * (n + 1)
    q = _taylor_shift(cols, t, p, touched)
    out = [from_numerators([col[k] for col in cols],
                           den * p ** n * q ** (n - k)) for k in range(n + 1)]
    return out, {k for k, hit in enumerate(touched) if hit}


@pytest.mark.parametrize("kind", ["rational", "cyclotomic"])
def test_the_integer_shift_matches_the_scalar_shift(kind):
    rng = random.Random(f"integer-shift-{kind}")
    cases = 0
    for degree in range(9):
        for _ in range(6):
            coeffs = random_cyc_vector(rng, degree)
            if kind == "rational":
                coeffs = [c if isinstance(c, Fraction) else c.coords[0]
                          for c in coeffs]
            for rational_t in (True, False):
                t = random_shift(rng, rational_t)
                want, added = reference_shift(coeffs, t)
                for p in (1, rng.randint(2, 10 ** 6)):
                    got, touched = shift_on_numerators(coeffs, t, p)
                    assert got == want and touched == added, (coeffs, t, p)
                    cases += 1
    assert cases == 9 * 6 * 2 * 2


def acting_elements(rng):
    """Group elements whose substituted matrices take every branch: the
    24 generated elements (zeta entries, a = 0), rational unimodular
    products, and entries over large denominators of any determinant."""
    out = mul_closure(list(generators().values()))
    for _ in range(4):
        b, c = (Fraction(rng.randint(-5, 5), rng.randint(1, 10 ** 6))
                for _ in range(2))
        out.append(GroupElt(1, b, 0, 1) * GroupElt(1, 0, c, 1))
        x, y, z = (random_shift(rng, False) for _ in range(3))
        out += [GroupElt(x, y, z, x * y + 2), GroupElt(0, y, z, x)]
    return out


@pytest.mark.parametrize("convention", ACTION_CONVENTIONS)
def test_group_act_keeps_the_values_types_and_text_of_the_scalar_moves(
        convention):
    rng = random.Random(f"integer-action-{convention}")
    cases = 0
    for g in acting_elements(rng):
        degrees = range(0, 15, 2) if g.det() != 1 else range(15)
        for degree in rng.sample(degrees, 4):
            coeffs = random_cyc_vector(rng, degree)
            if rng.random() < 0.5:
                coeffs = [c if isinstance(c, Fraction) else c.coords[0]
                          for c in coeffs]
            f = BinaryForm(degree, coeffs)
            got, want = group_act(g, f, convention), reference_act(
                g, f, convention)
            assert got == want, (g, f)
            assert [type(c) for c in got.coeffs] == \
                [type(c) for c in want.coeffs], (g, f)
            assert str(got) == str(want)
            cases += 1
    assert cases == 4 * (24 + 4 * 3)


def test_transvectants_of_rational_images_run_on_int_numerators():
    # group_act's images of rational forms under a rational element hold
    # rational-valued CycScalars; the transvectant puts them over one
    # denominator as it does Fractions, and agrees with its definition
    rng = random.Random("rational-images")
    for _ in range(20):
        b, c = (Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(2))
        elt = GroupElt(1, b, 0, 1) * GroupElt(1, 0, c, 1)
        # a z1^d term of 1/7, which no random coefficient cancels
        f, g = (random_form(rng, d, "rational")
                + BinaryForm(d, [Fraction(1, 7)] + [0] * d)
                for d in (rng.randint(2, 8), rng.randint(2, 8)))
        fa, ga = group_act(elt, f), group_act(elt, g)
        assert any(isinstance(x, CycScalar) for x in fa.coeffs)
        nums, den = over_common_denominator(fa.coeffs)
        assert all(isinstance(x, int) for x in nums)
        for i in range(min(f.degree, g.degree) + 1):
            got = transvectant(fa, ga, i)
            assert got == transvectant_oracle(fa, ga, i)
            assert got == group_act(elt, transvectant(f, g, i))
            assert all(isinstance(x, Fraction) for x in got.coeffs)


def test_group_act_takes_exact_scalar_coefficients_only():
    f = BinaryForm(2, [MPoly.var("x1"), 0, 1])
    with pytest.raises(TypeError, match="exact scalar"):
        group_act(GroupElt(1, 1, 0, 1), f, "substitute_direct")


def test_odd_degree_action_needs_a_determinant_one_representative():
    g = GroupElt(2, 0, 0, 1)
    with pytest.raises(ValueError, match="determinant-1"):
        group_act(g, form(1, 2, 3, 4), "substitute_direct")
    assert group_act(g, form(1, 2, 3), "substitute_direct") == \
        group_act_oracle(g, form(1, 2, 3), "substitute_direct")


@pytest.mark.parametrize("convention", ACTION_CONVENTIONS)
def test_induced_matrices_match_the_oracle(convention):
    for g in generators().values():
        assert induced_vec15_matrix(g, convention) == \
            induced_oracle(g, convention)


# ---------------------------------------------------------------------------
# Frozen transvectant oracles, computed once by hand from the defining sum
# binom-weighted over mixed partials and never changed since.

def test_transvectant_of_pure_powers():
    z1_4 = BinaryForm(4, [1, 0, 0, 0, 0])      # z1^4
    z2_4 = BinaryForm(4, [0, 0, 0, 0, 1])      # z2^4
    assert transvectant(z2_4, z1_4, 2) == form(0, 0, 1, 0, 0)


def test_full_contraction_of_the_symmetric_octics():
    octics = octic_basis()
    e7 = octics[6]   # z1^4 z2^4 up to the stored normalization
    e4 = octics[3]
    two_mid = form(0, 0, 2, 0, 0)
    assert transvectant(e7, e7, 6) == two_mid
    assert transvectant(e4, e4, 6) == -two_mid


def test_mixed_sixth_transvectant_lands_on_a_quartic_basis_vector():
    octics = octic_basis()
    quartics = quartic_basis()
    assert transvectant(octics[6], octics[7], 6) == quartics[0]


def test_second_transvectants_on_the_quartic_basis():
    quartics = quartic_basis()
    a1, a2 = quartics[0], quartics[1]
    assert a1 == form(1, 0, 0, 0, 1)
    assert a2 == form(0, 0, 6, 0, 0)
    assert transvectant(a1, a1, 2) == form(0, 0, 2, 0, 0)
    assert transvectant(a1, a1, 2) == a2.scale(Fraction(1, 3))
    assert transvectant(a1, a2, 2) == a1


def test_fourth_transvectant_octic_with_quartic():
    octics = octic_basis()
    quartics = quartic_basis()
    assert quartics[3] == form(0, 4, 0, -4, 0)
    assert transvectant(octics[1], quartics[3], 4) == form(24, 0, 48, 0, 24)


def test_transvectant_zero_order_is_the_product():
    f = form(1, 2)
    g = form(3, 0, 1)
    assert transvectant(f, g, 0) == f * g


def test_transvectant_symmetry_sign():
    f = form(1, 0, 2, 1, 0)
    g = form(0, 1, 1, 0, 3)
    for i in (1, 2, 3):
        lhs = transvectant(f, g, i)
        rhs = transvectant(g, f, i)
        assert lhs == (rhs if i % 2 == 0 else -rhs)


def test_forms_of_two_degrees_do_not_add():
    f8 = octic_basis()[0]
    with pytest.raises(ValueError, match="degree mismatch"):
        BinaryForm.zero(4) + f8
    with pytest.raises(ValueError, match="degree mismatch"):
        f8 + BinaryForm.zero(4)


# ---------------------------------------------------------------------------
# Group elements and the action on forms.

def test_group_element_inverse_and_order():
    i = CycScalar.i()
    g = GroupElt(i, 0, 0, 1)
    assert (g * g.inverse()).canonical() == GroupElt.identity().canonical()
    assert g.order() == 4
    assert GroupElt.identity().order() == 1


def test_a_singular_matrix_is_rejected():
    with pytest.raises(ValueError, match="singular matrix"):
        GroupElt(1, 2, 2, 4)


def test_products_inverses_and_transposes_keep_promoted_entries():
    # built without the singular check, as the constructor would build them
    i = CycScalar.i()
    g, h = GroupElt(i, 1, 0, 2), GroupElt(1, 0, i, 3)
    for built in (g * h, g.inverse(), h.transpose()):
        assert all(isinstance(e, CycScalar) for e in built.m)
        assert GroupElt(*built.m).m == built.m and built.det()


def test_closure_of_the_standard_generators_has_24_elements():
    from covforge.construction import generators
    gens = generators()
    elems = mul_closure(list(gens.values()))
    assert len(elems) == 24


def test_action_is_a_right_to_left_composition():
    i = CycScalar.i()
    g = GroupElt(i, 0, 0, 1)
    h = GroupElt(0, 1, 1, 0)
    f = form(1, 2, 0, 1, 5)
    composed = group_act(g * h, f)
    stepwise = group_act(g, group_act(h, f))
    assert composed == stepwise


def test_action_preserves_transvectants_up_to_nothing_for_unimodular():
    # both generators have determinant of modulus one in the embedding;
    # the sixth transvectant of an octic with itself transforms as a quartic
    f = octic_basis()[6]
    g = GroupElt(0, 1, -1, 0)  # det 1
    lhs = group_act(g, transvectant(f, f, 6))
    rhs = transvectant(group_act(g, f), group_act(g, f), 6)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Calibration: the convention and bracket scalings recovered mechanically.

def test_calibration_is_unique_and_residual_free():
    cal = calibrate_conventions()
    assert cal.convention == "substitute_inverse"
    assert cal.matched_conventions == ("substitute_inverse",)
    assert cal.scalars == (Fraction(1), Fraction(1), Fraction(1))
    assert cal.expansion_residuals == ()
    assert cal.expansion_listing == "unordered-pairs"


def test_the_literal_map_counts_each_mixed_pair_twice():
    # The stored tables list a product of two distinct same-degree basis
    # vectors once; the literal map has both orderings, so the two differ
    # by exactly the stored rows' mixed terms x_i*x_j (i != j) and
    # eps*s_i*s_j (1 <= i < j).
    x_slots = [var_slot(f"x{i}") for i in range(1, 10)]
    s_slots = [var_slot(f"s{i}") for i in range(1, 6)]
    eps = var_slot("eps")

    def mixed(mono):
        xs = [mono[i] for i in x_slots if mono[i]]
        ss = [mono[i] for i in s_slots if mono[i]]
        return ((xs == [1, 1] and sum(mono) == 2)
                or (mono[eps] == 1 and ss == [1, 1] and sum(mono) == 3))

    counts = []
    for literal, stored in zip(expanded_coordinate_system(),
                               delta_coordinate_system()):
        crosses = MPoly({m: c for m, c in stored.terms.items()
                         if mixed(exponents(m))})
        assert literal - stored == crosses
        counts.append(len(crosses.terms))
    assert counts == [6, 2, 9, 13, 13]


def test_lambda_standard_weights():
    eps = CycScalar.i()
    lam = Lambda.standard(eps)
    assert (lam.l0, lam.l2, lam.l4, lam.l6) == (CycScalar.one(), 6 * eps,
                                                CycScalar.one(), 6)


def test_delta_vanishes_exactly_on_stored_zeros():
    lam = Lambda.standard(CycScalar.i())
    points = special_points()
    for key in ("base_point", "invariant_octic"):
        assert delta(lam, points[key]).is_zero()
    # a generic unit vector does not lie on the zero locus
    e1 = [1] + [0] * 14
    assert not delta(lam, e1).is_zero()


# ---------------------------------------------------------------------------
# Root multiplicity on exact forms.

def test_root_multiplicity_counts_linear_factors():
    cubic = form(1, -3, 3, -1)  # (z1 - z2)^3
    f = cubic * form(1, 0)      # one extra simple root at z1 = 0
    assert max_root_multiplicity_exact(f) == 3
    # z1^2 (z1 - z2): a double root at (0:1)
    assert max_root_multiplicity_exact(form(1, 0) * form(1, 0)
                                       * form(1, -1)) == 2
    assert max_root_multiplicity_exact(form(1, 0, -1)) == 1


def test_multiplicity_at_a_vanishing_leading_coefficient():
    # z1 z2^2 + z2^3 = z2^2 (z1 + z2): double root at (1, 0)
    f = form(0, 0, 1, 1)
    assert max_root_multiplicity_exact(f) == 2
