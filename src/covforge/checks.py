"""Exactly decidable verification blocks over the stored construction data.

Each public ``check_*`` function replays one cluster of claims about the
stored tables — expansion coefficients, group actions, fixed spaces,
Jacobians, image identities, explicit solution sets — entirely in exact
arithmetic and returns a :class:`CheckResult`.  A check passes iff every
residual it accumulates is identically zero and every asserted count,
rank, or dimension matches.  Failures never raise; they are reported as
residual strings so a single run surfaces everything at once.

The ``property/*`` checks, ``check_field_axioms`` through
``check_scaling_1_1`` at the bottom, are randomized algebraic property
suites (field axioms, ring axioms, bracket covariance, the rescaling
law).  They draw every instance from an explicitly seeded generator, so
a given seed reproduces the identical run.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import binform, construction
from .binform import (BinaryForm, GroupElt, Lambda, calibrate_conventions,
                      delta, delta_forms, expanded_coordinate_system,
                      listed_coordinate_system, max_root_multiplicity_exact,
                      mul_closure, transvectant)
from .construction import (R_NAMES, VEC15_NAMES, X_NAMES, Y_NAMES,
                           ProjPoint)
from .exlinalg import ExactMatrix, Subspace, jacobian_at, joint_fixed_space
from .mpoly import (VAR_NAMES, MPoly, exponents, monomial_str, pack_powers,
                    var_slot)
from .scalar import CycScalar, from_numerators

_F = Fraction
_I = CycScalar.i()

MAX_WITNESSES = 10


# ---------------------------------------------------------------------------
# Result plumbing


@dataclass(frozen=True)
class CheckResult:
    """Findings of one verification block.  A check returns its
    residuals (human-readable failure witnesses), erratum notes and
    details; the harness stamps the registry's id and paper anchor and
    the milliseconds of the call on the result."""

    residuals: tuple[str, ...] = ()
    erratum_notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)
    check_id: str = ""
    paper_anchor: str = ""
    millis: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.residuals

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


def _finish(residuals: list[str], details: dict | None = None,
            erratum_notes: tuple[str, ...] = ()) -> CheckResult:
    clipped = residuals[:MAX_WITNESSES]
    if len(residuals) > MAX_WITNESSES:
        clipped.append(f"... and {len(residuals) - MAX_WITNESSES} more")
    return CheckResult(residuals=tuple(clipped), erratum_notes=erratum_notes,
                       details=details or {})


_ZERO = MPoly.zero()


def _require(residuals: list[str], ok: bool, message: str) -> bool:
    if not ok:
        residuals.append(message)
    return ok


def _require_zero_poly(residuals: list[str], poly: MPoly, label: str) -> bool:
    if poly.is_zero():
        return True
    terms = poly.sorted_terms()[:3]
    shown = ", ".join(f"{c}*{monomial_str(m)}" for m, c in terms)
    residuals.append(f"{label}: nonzero ({len(poly.terms)} terms; {shown})")
    return False


def _linear_bindings(mat, names) -> dict[str, MPoly]:
    """Substitution dict sending names[i] to the row-i linear combination."""
    return dict(zip(names, ExactMatrix(mat).apply(
        [MPoly.var(n) for n in names])))


def _zeros15() -> dict[str, Fraction]:
    return {n: _F(0) for n in VEC15_NAMES}


# ---------------------------------------------------------------------------
# symbolic/expansion_1_2


def check_expansion_1_2() -> CheckResult:
    """Recompute every stored expansion coefficient from the bracket tables.

    The stored tables list each unordered basis pair once, so the
    comparison assembles the pairwise form of the bracket expansion
    (`listed_coordinate_system`), with the calibrated bracket rescalings;
    the calibration object records the recovered listing convention and
    the three rescalings.  Also verifies the published restriction
    is the literal substitution of the full tables, spot checks two
    representative coefficients, and evaluates the system at the two
    distinguished zero points by both the stored and the bracket route.
    """
    residuals: list[str] = []
    cal = calibrate_conventions()
    stored = construction.delta_coordinate_system()

    expansion = [f"expansion: slot {slot}: {monomial_str(mono)}: off by {c}"
                 for slot, (listed, q) in enumerate(
                     zip(listed_coordinate_system(), stored), start=1)
                 for mono, c in (listed - q).sorted_terms()]
    residuals.extend(expansion)
    _require(residuals, cal.matched_conventions == ("substitute_inverse",),
             f"action convention not unique: {cal.matched_conventions}")

    quads = construction.pure_quadric_parts()
    _require(residuals, stored[0].coeff({"x8": 1, "s2": 1}) == 6,
             "spot coefficient x8*s2 in the first coordinate is not 6")
    _require(residuals, quads[2].coeff({"x2": 1, "x3": 1}) == 624,
             "spot coefficient x2*x3 in the third pure quadric is not 624")

    restricted = construction.restricted_system_3_2()
    cut = {"s3": _F(0), "s4": _F(0), "s5": _F(0)}
    for k, (r, q) in enumerate(zip(restricted, stored), start=1):
        _require_zero_poly(residuals, r - q.substitute(cut),
                           f"restriction row {k} vs. substituted full row")

    # Two distinguished zeros.  The stored route stays symbolic in eps;
    # the bracket route runs at two sample weights (neither point has a
    # nonzero quartic part, so the eps sector cannot contribute).
    points = construction.special_points()
    for pname in ("base_point", "invariant_octic"):
        vec = points[pname]
        env = dict(zip(VEC15_NAMES, vec))
        for k, q in enumerate(stored, start=1):
            _require_zero_poly(residuals, q.substitute(env),
                               f"stored row {k} at {pname}")
        for ev in (_F(1), _F(7, 3)):
            image = delta(Lambda.standard(ev), vec)
            _require(residuals, image.is_zero(),
                     f"bracket-route image at {pname}, eps={ev}: nonzero")

    details = {
        "convention": cal.convention,
        "scalars": [str(s) for s in cal.scalars],
        "expansion_listing": cal.expansion_listing,
        "residual_sources": len(expansion),
    }
    notes = (
        "coordinate table: the x2*s4 coupling in the second row reads +8 "
        "(a printed -8 breaks the diagonal-swap invariance of the row and "
        "contradicts the recomputed octic/quartic bracket)",
        "coordinate table: the x2*s2 coupling in the fifth row belongs on "
        "x6*s2 (the printed form double-books the pair and breaks the "
        "recomputed expansion)",
    )
    return _finish(residuals, details, notes)


# ---------------------------------------------------------------------------
# symbolic/action_table_3_1


def check_action_table_3_1() -> CheckResult:
    """Compare every stored generator matrix against the recomputed action.

    The action of a fractional-linear substitution on the fifteen basis
    coordinates is recomputed from scratch for each of the three
    plausible composition conventions, once, by the calibration, whose
    list of mismatched entries this check reads; exactly one reproduces
    all four stored matrices entry by entry.  Adds matrix-level sanity
    facts: the recomputed involutions square to the identity, the
    order-3 generator cubes to it, and the stored distinguished vectors
    behave as recorded.
    """
    residuals: list[str] = []
    cal = calibrate_conventions()
    table = construction.action_table()

    for name, i, j, induced in cal.table_mismatches["substitute_inverse"]:
        residuals.append(
            f"{name}: entry ({VEC15_NAMES[i]}, {VEC15_NAMES[j]}) "
            f"stored {table[name][i][j]} vs. recomputed {induced}")

    _require(residuals, cal.matched_conventions == ("substitute_inverse",),
             f"matching conventions: {cal.matched_conventions}")

    m = {name: ExactMatrix(table[name]) for name in table}
    ident = ExactMatrix.identity(15)
    _require(residuals, m["omega"] * m["omega"] == ident,
             "first diagonal involution squared is not the identity")
    _require(residuals, m["rho"] * m["rho"] == ident,
             "second diagonal involution squared is not the identity")
    _require(residuals, m["tau"] * m["tau"] == m["rho"],
             "square of the order-4 generator is not the stored involution")
    _require(residuals, m["sigma"] * m["sigma"] * m["sigma"] == ident,
             "cube of the order-3 generator is not the identity")

    points = construction.special_points()
    vfix = points["invariant_octic"]
    _require(residuals,
             all(a == b for a, b in zip(m["sigma"].apply(list(vfix)), vfix)),
             "order-3 generator does not fix the distinguished octic vector")
    u13 = construction.unit15(13)
    flipped = m["rho"].apply(u13)
    _require(residuals,
             all(a == -b for a, b in zip(flipped, u13)),
             "second involution does not negate the 14th basis vector")

    details = {"mismatch_counts": {k: len(v)
                                   for k, v in cal.table_mismatches.items()}}
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# symbolic/group_structure


def _perm_compose(p: tuple, q: tuple) -> tuple:
    """(p after q): apply q first, then p."""
    return tuple(p[q[j]] for j in range(len(q)))


def _perm_order(p: tuple) -> int:
    acc, n = p, 1
    ident = tuple(range(len(p)))
    while acc != ident:
        acc = _perm_compose(p, acc)
        n += 1
    return n


def check_group_structure() -> CheckResult:
    """Enumerate the symmetry group modulo scalars and audit its shape.

    Closes the four generators into a finite group of projectivized
    matrices, compares its order histogram against a brute-force
    order-24 permutation-group oracle, verifies the distinguished
    order-4 normal subgroup and the structure of the quotient, and
    checks that the stored 3-element-set permutations assigned to the
    two non-diagonal generators extend to a well-defined homomorphism
    of the quotient onto the full permutation group of three objects.
    """
    residuals: list[str] = []
    gens = construction.generators()
    omega, rho = gens["omega"], gens["rho"]
    tau, sigma = gens["tau"], gens["sigma"]
    ident = GroupElt(1, 0, 0, 1)

    group = mul_closure([omega, rho, tau, sigma])
    _require(residuals, len(group) == 24, f"group order {len(group)} != 24")

    hist = Counter(g.order() for g in group)
    # Independent oracle: the order histogram of the full permutation
    # group on four letters, enumerated by brute force.
    s4_hist: Counter = Counter()
    for perm in itertools.permutations(range(4)):
        s4_hist[_perm_order(perm)] += 1
    _require(residuals, hist == s4_hist,
             f"order histogram {dict(hist)} != permutation oracle {dict(s4_hist)}")
    _require(residuals, hist == Counter({1: 1, 2: 9, 3: 8, 4: 6}),
             f"order histogram {dict(hist)} != expected {{1:1, 2:9, 3:8, 4:6}}")

    _require(residuals, tau * tau == rho,
             "square of the order-4 generator is not the second involution")

    h_elts = [ident, omega, rho, omega * rho]
    h_set = set(h_elts)
    _require(residuals, len(h_set) == 4, "diagonal subgroup has fewer than 4 elements")
    group_set = set(group)
    _require(residuals, h_set <= group_set,
             "diagonal subgroup not inside the generated group")
    for g in group:
        gi = g.inverse()
        for h in h_elts:
            if g * h * gi not in h_set:
                residuals.append("diagonal subgroup is not normal")
                break
        else:
            continue
        break

    def coset_key(g: GroupElt) -> frozenset:
        return frozenset((g * h).canonical() for h in h_elts)

    cosets: dict[frozenset, GroupElt] = {}
    for g in group:
        cosets.setdefault(coset_key(g), g)
    _require(residuals, len(cosets) == 6, f"quotient order {len(cosets)} != 6")

    # The stored 3-set permutations for the two non-diagonal generators,
    # one-based in the stored dict, zero-based here.
    stored_perm = construction.block_permutation()
    kappa = {}
    for name in ("tau", "sigma"):
        d = stored_perm[name]
        kappa[name] = tuple(d[j + 1] - 1 for j in range(3))
    kappa["omega"] = (0, 1, 2)
    kappa["rho"] = (0, 1, 2)
    perm_closure = {(0, 1, 2)}
    frontier = [kappa["tau"], kappa["sigma"]]
    while frontier:
        p = frontier.pop()
        if p in perm_closure:
            continue
        perm_closure.add(p)
        for q in list(perm_closure):
            for r in (_perm_compose(p, q), _perm_compose(q, p)):
                if r not in perm_closure:
                    frontier.append(r)
    _require(residuals, len(perm_closure) == 6,
             "stored 3-set permutations do not generate all six permutations")

    # Breadth-first assignment of a permutation to every coset, then a
    # full well-definedness and multiplicativity audit.
    phi: dict[frozenset, tuple] = {coset_key(ident): (0, 1, 2)}
    reps: dict[frozenset, GroupElt] = {coset_key(ident): ident}
    queue = [ident]
    while queue:
        g = queue.pop()
        base = phi[coset_key(g)]
        for name in ("omega", "rho", "tau", "sigma"):
            ng = g * gens[name]
            key = coset_key(ng)
            want = _perm_compose(base, kappa[name])
            if key not in phi:
                phi[key] = want
                reps[key] = ng
                queue.append(ng)
            elif phi[key] != want:
                residuals.append(
                    f"coset permutation conflict via generator {name}: "
                    f"{phi[key]} vs. {want}")
    _require(residuals, len(phi) == 6,
             f"coset graph reached {len(phi)} cosets, expected 6")
    _require(residuals, len(set(phi.values())) == 6,
             "coset-to-permutation map is not injective")

    for k1, g1 in reps.items():
        for k2, g2 in reps.items():
            prod_key = coset_key(g1 * g2)
            if phi[prod_key] != _perm_compose(phi[k1], phi[k2]):
                residuals.append(
                    "coset permutation map is not multiplicative on "
                    f"{phi[k1]} * {phi[k2]}")

    nonabelian = any(
        _perm_compose(p, q) != _perm_compose(q, p)
        for p in phi.values() for q in phi.values())
    _require(residuals, nonabelian, "quotient is abelian, expected nonabelian")

    details = {
        "group_order": len(group),
        "order_histogram": {str(k): v for k, v in sorted(hist.items())},
        "quotient_order": len(cosets),
        "orbit_count_times_group": f"8*7*6 = {8 * 7 * 6} = {8 * 7 * 6 // 24} * 24",
    }
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# symbolic/equivariance_invariants


def check_equivariance_and_invariant_spaces() -> CheckResult:
    """Equivariance of the quadratic map and the stored fixed-space data.

    The literal (cross-doubled) coordinate polynomials of the quadratic
    map commute with all four stored generator matrices.  The pairwise
    stored tables commute with the three monomial generators but not
    with the order-3 one; the nonzero defect is asserted as the
    machine-checkable witness of their unordered-pair listing.  Then
    the stored fixed spaces are recomputed: the 6-dimensional fixed
    space of the diagonal subgroup, the 2-dimensional fixed space of
    the full group, the vanishing of invariant target vectors, the
    7-block invariant decomposition, and the distinguished plane of
    zeros spanned by the two full-group-invariant vectors.
    """
    residuals: list[str] = []
    table = construction.action_table()
    expanded = expanded_coordinate_system()
    stored = construction.delta_coordinate_system()

    bindings = {name: _linear_bindings(mat, VEC15_NAMES)
                for name, mat in table.items()}
    blocks = {name: construction.quartic_block(mat)
              for name, mat in table.items()}

    def defects(name: str, system) -> list[MPoly]:
        """Each row of the system at the moved point minus the moved
        combination of the rows."""
        rhs = ExactMatrix(blocks[name]).apply(system)
        return [p.substitute(bindings[name]) - q
                for p, q in zip(system, rhs)]

    for name in ("omega", "rho", "tau", "sigma"):
        for k, defect in enumerate(defects(name, expanded), start=1):
            _require_zero_poly(residuals, defect,
                               f"literal map, generator {name}, row {k}")

    for name in ("omega", "rho", "tau"):
        for k, defect in enumerate(defects(name, stored), start=1):
            _require_zero_poly(residuals, defect,
                               f"stored table, generator {name}, row {k}")

    # The pair-listed tables must NOT commute with the order-3 generator;
    # a vanishing defect would contradict the recovered listing convention.
    defect_rows = sum(1 for d in defects("sigma", stored) if not d.is_zero())
    _require(residuals, defect_rows > 0,
             "stored tables unexpectedly commute with the order-3 generator "
             "(inconsistent with their unordered-pair listing)")

    m = {name: ExactMatrix(mat) for name, mat in table.items()}
    fix_h = joint_fixed_space([m["omega"], m["rho"], m["omega"] * m["rho"]])
    want_h = Subspace(15, [list(v) for v in construction.expected_h_fixed()])
    _require(residuals, fix_h.dim == 6,
             f"diagonal-subgroup fixed space has dimension {fix_h.dim} != 6")
    _require(residuals, fix_h == want_h,
             "diagonal-subgroup fixed space differs from the stored basis")

    fix_all = joint_fixed_space([m["omega"], m["rho"], m["tau"], m["sigma"]])
    want_all = Subspace(15, [list(v)
                             for v in construction.expected_full_group_fixed()])
    _require(residuals, fix_all.dim == 2,
             f"full-group fixed space has dimension {fix_all.dim} != 2")
    _require(residuals, fix_all == want_all,
             "full-group fixed space differs from the stored pair of vectors")

    fix_quartic = joint_fixed_space(
        [ExactMatrix(blocks[n]) for n in ("omega", "rho", "tau", "sigma")])
    _require(residuals, fix_quartic.dim == 0,
             f"full group fixes a nonzero target vector (dim {fix_quartic.dim})")

    summands = construction.module_decomposition()
    accumulated = Subspace(15, [])
    total = 0
    for idx, vectors in enumerate(summands, start=1):
        sub = Subspace(15, [list(v) for v in vectors])
        _require(residuals, sub.dim == len(vectors),
                 f"summand {idx}: stored vectors are dependent")
        for name in ("omega", "rho", "tau", "sigma"):
            for v in vectors:
                if not sub.contains(m[name].apply(list(v))):
                    residuals.append(
                        f"summand {idx} is not invariant under {name}")
                    break
        merged = accumulated.sum(sub)
        _require(residuals, merged.dim == accumulated.dim + sub.dim,
                 f"summand {idx} overlaps the span of the earlier summands")
        accumulated = merged
        total += sub.dim
    _require(residuals, total == 15 and accumulated.dim == 15,
             f"decomposition dimensions sum to {total}, span {accumulated.dim}")

    # The plane spanned by the two full-group-invariant vectors consists
    # of zeros of the map: symbolic in the two plane coordinates and in
    # eps through the stored route, sampled through the bracket route.
    a1, a2 = MPoly.var("alpha1"), MPoly.var("alpha2")
    plane = {n: _ZERO for n in VEC15_NAMES}
    plane["x7"] = 5 * a2
    plane["x9"] = a2
    plane["s0"] = a1
    for k, poly in enumerate(expanded, start=1):
        _require_zero_poly(residuals, poly.substitute(plane),
                           f"literal map row {k} on the invariant plane")
    for k, poly in enumerate(stored, start=1):
        _require_zero_poly(residuals, poly.substitute(plane),
                           f"stored row {k} on the invariant plane")
    for a1v, a2v in ((_F(3), _F(2)), (_F(1), _F(-1))):
        vec = [_F(0)] * 15
        vec[6], vec[8], vec[9] = 5 * a2v, a2v, a1v
        for ev in (_F(1), _F(7, 3)):
            _require(residuals, delta(Lambda.standard(ev), vec).is_zero(),
                     f"bracket route nonzero on plane sample ({a1v}, {a2v})")

    details = {
        "fixed_dims": {"diagonal_subgroup": fix_h.dim, "full_group": fix_all.dim,
                       "full_group_on_target": fix_quartic.dim},
        "summand_dims": [len(v) for v in summands],
        "stored_sigma_defect_rows": defect_rows,
    }
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# symbolic/jacobians


def check_jacobians() -> CheckResult:
    """Exact Jacobians of the full and restricted systems at anchor points.

    At the distinguished base point the full 15-variable system has the
    block Jacobian [0 | I5], hence rank 5 and a 10-dimensional kernel
    spanned by the nine octic directions and the scalar direction.  At
    the distinguished invariant octic the restricted 12-variable system
    has rank 5 with an explicitly frozen row pattern and a
    7-dimensional tangent space.  Both computations are run at two
    sample weights to confirm the weight plays no role at these points.
    """
    residuals: list[str] = []
    stored = construction.delta_coordinate_system()

    expected_full = ExactMatrix(
        [[_F(1) if j == 10 + k else _F(0) for j in range(15)]
         for k in range(5)])
    kernel_want = Subspace(15, [construction.unit15(i) for i in range(10)])
    for ev in (_F(1), _F(7, 3)):
        point = _zeros15()
        point["s0"] = _F(1)
        point["eps"] = ev
        jac = jacobian_at(stored, VEC15_NAMES, point)
        _require(residuals, jac == expected_full,
                 f"full-system Jacobian at the base point (eps={ev}) is not "
                 "[0 | I5]")
        kernel_basis = jac.kernel_basis()
        rank = jac.ncols - len(kernel_basis)
        _require(residuals, rank == 5,
                 f"full-system Jacobian rank {rank} != 5 (eps={ev})")
        kernel = Subspace(15, kernel_basis)
        _require(residuals, kernel.dim == 10 and kernel == kernel_want,
                 f"full-system kernel (eps={ev}) is not the 10-dimensional "
                 "octic-plus-scalar space")

    restricted = construction.restricted_system_3_2()
    vars12 = X_NAMES + ("s0", "s1", "s2")
    frozen_rows = {
        0: {"x8": _F(120), "s1": _F(6)},
        1: {"x7": _F(20), "x9": _F(-100), "s2": _F(6)},
        2: {"x1": _F(60)},
        3: {"x2": _F(-120)},
        4: {"x3": _F(120)},
    }
    expected_rows = []
    for k in range(5):
        row = [frozen_rows[k].get(n, _F(0)) for n in vars12]
        expected_rows.append(row)
    expected_restricted = ExactMatrix(expected_rows)
    for ev in (_F(1), _F(7, 3)):
        point = {n: _F(0) for n in vars12}
        point["x7"], point["x9"] = _F(5), _F(1)
        point["eps"] = ev
        jac = jacobian_at(restricted, vars12, point)
        _require(residuals, jac == expected_restricted,
                 f"restricted Jacobian at the invariant octic (eps={ev}) "
                 "differs from the frozen row pattern")
        tangent_basis = jac.kernel_basis()
        rank = jac.ncols - len(tangent_basis)
        _require(residuals, rank == 5,
                 f"restricted Jacobian rank {rank} != 5 (eps={ev})")
        tangent = Subspace(12, tangent_basis)
        _require(residuals, tangent.dim == 7,
                 f"restricted tangent dimension {tangent.dim} != 7 (eps={ev})")

    details = {
        "full_rank": 5, "full_kernel_dim": 10,
        "restricted_rank": 5, "restricted_tangent_dim": 7,
    }
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# symbolic/lemma_4_2


def check_lemma_4_2() -> CheckResult:
    """The rotation-invariant 3-plane maps onto a single quartic line.

    Recomputes the fixed spaces of the order-3 generator on the octic
    and target blocks (dimensions 3 and 1), then evaluates the stored
    tables on the symbolic combination of the three invariant octic
    vectors: the image is exactly the stored binary quadratic times the
    invariant target vector.  The literal (cross-doubled) map gives the
    same product with an overall factor 2.  The quadratic vanishes on
    the two distinguished directions, and the chart image of the
    crossing point is the stored fiber point.
    """
    residuals: list[str] = []
    table = construction.action_table()
    msig = table["sigma"]

    oct_fixed = joint_fixed_space(
        [ExactMatrix(construction.octic_block(msig))])
    oct_want = Subspace(9, [list(v)
                            for v in construction.rotation_invariant_octics()])
    _require(residuals, oct_fixed.dim == 3 and oct_fixed == oct_want,
             "order-3 fixed space on the octic block is not the stored 3-plane")

    target_fixed = joint_fixed_space(
        [ExactMatrix(construction.quartic_block(msig))])
    target_want = Subspace(5, [list(construction.rotation_invariant_quartic())])
    _require(residuals, target_fixed.dim == 1 and target_fixed == target_want,
             "order-3 fixed space on the target block is not the stored line")

    alphas = [MPoly.var("alpha1"), MPoly.var("alpha2"), MPoly.var("alpha3")]
    basis = construction.rotation_invariant_octics()
    bindings = {n: _ZERO for n in VEC15_NAMES}
    bindings.update(zip(X_NAMES,
                        ExactMatrix.from_columns(basis).apply(alphas)))

    q = construction.expected_orbit_quadratic()
    w = construction.rotation_invariant_quartic()
    stored = construction.delta_coordinate_system()
    expanded = expanded_coordinate_system()
    for k in range(5):
        image = stored[k].substitute(bindings)
        _require_zero_poly(residuals, image - w[k] * q,
                           f"stored image row {k + 1} vs. quadratic times "
                           "invariant target")
        image2 = expanded[k].substitute(bindings)
        _require_zero_poly(residuals, image2 - 2 * (w[k] * q),
                           f"literal image row {k + 1} vs. twice the product")

    _require(residuals,
             q.evaluate({"alpha1": 13 * _I, "alpha2": _F(0),
                         "alpha3": _F(5)}) == 0,
             "quadratic does not vanish on the crossing direction")
    _require(residuals,
             q.evaluate({"alpha1": _F(1), "alpha2": _F(0),
                         "alpha3": _F(0)}) == 0,
             "quadratic does not vanish on the invariant-octic direction")

    points = construction.special_points()
    r, y = construction.pi_chart(points["crossing_point"])
    _require(residuals, not any(r),
             f"crossing point does not sit over the slice origin: {r}")
    _require(residuals, y == points["u_dprime_0"],
             "chart image of the crossing point is not the stored fiber point")

    details = {
        "octic_fixed_dim": oct_fixed.dim,
        "target_fixed_dim": target_fixed.dim,
        "quadratic": str(q),
        "literal_route_factor": 2,
    }
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# symbolic/derivation_4_5


def check_derivation_4_5() -> CheckResult:
    """The chart-space equations are the cleared form of the sliced system.

    Substituting the cleared-denominator chart numerators into each of
    the five stored chart-space equations reproduces, exactly, the
    corresponding sliced restricted polynomial times its stated
    monomial multiplier.  The constant section solves the chart-space
    system identically in the slice parameters, and the line through
    the two distinguished fiber points lies in the parameter-origin
    fiber.  Finally the chart map itself intertwines the stored actions:
    the slice-parameter action on the source side and the stored
    9-by-9 chart-space action on the cleared numerators.
    """
    residuals: list[str] = []
    eqs = construction.y_equations_4_5()
    numerators = construction.chart_numerators_symbolic()
    yhat = dict(zip(Y_NAMES, numerators))

    x1, x2, x3 = MPoly.var("x1"), MPoly.var("x2"), MPoly.var("x3")
    r1, r2, r3 = MPoly.var("r1"), MPoly.var("r2"), MPoly.var("r3")
    p = x1 * x2 * x3
    slice_cut = {"x4": r1 * x1, "x5": r2 * x2, "x6": r3 * x3}
    sliced = [base.substitute(slice_cut)
              for base in construction.restricted_system_3_2()]
    multipliers = [p * p, p * p, x2 * x3, x1 * x3, x1 * x2]
    for k, (eq, mult, target) in enumerate(zip(eqs, multipliers, sliced),
                                           start=1):
        lhs = eq.substitute(yhat)
        _require_zero_poly(residuals, lhs - mult * target,
                           f"cleared chart equation {k} vs. multiplier times "
                           "sliced row")

    # The stored leading-coefficient inequations are literally the
    # y-coefficients of the three linear chart-space equations.
    ineqs = construction.domain_inequations()
    for k, (eq, yname, ineq) in enumerate(
            zip(eqs[2:], ("y1", "y2", "y3"), ineqs), start=3):
        got = eq.diff(yname)
        _require_zero_poly(residuals, got - ineq,
                           f"chart equation {k}: coefficient of {yname} vs. "
                           "stored leading-coefficient inequation")

    section = {n: (MPoly.const(1) if n == "y10" else _ZERO) for n in Y_NAMES}
    for k, eq in enumerate(eqs, start=1):
        _require_zero_poly(residuals, eq.substitute(section),
                           f"constant section violates chart equation {k}")

    points = construction.special_points()
    u2 = points["u_dprime_0"].coords
    t = MPoly.var("t")
    line = {n: u2[i] + (t if n == "y10" else _ZERO)
            for i, n in enumerate(Y_NAMES)}
    origin = {"r1": _F(0), "r2": _F(0), "r3": _F(0)}
    for k, eq in enumerate(eqs, start=1):
        moved = eq.substitute(line).substitute(origin)
        _require_zero_poly(residuals, moved,
                           f"line through the two fiber points violates chart "
                           f"equation {k} at the parameter origin")

    # Chart equivariance, cross-multiplied.  The generator matrices must
    # preserve the chart coordinates (no leakage into the cut trailing
    # directions), send the slice ratios to the stored parameter action,
    # and act on the cleared numerators by the stored chart-space matrix
    # up to the common scalar a projective map allows.
    table = construction.action_table()
    chart_vars = X_NAMES + ("s0", "s1", "s2")
    param = construction.parameter_action()
    chart_act = construction.chart_space_action()
    for name in ("omega", "rho", "tau", "sigma"):
        mat = table[name]
        leak = [(i, j) for i in range(12) for j in (12, 13, 14)
                if mat[i][j]]
        if not _require(residuals, not leak,
                        f"{name}: chart rows leak into the cut directions"):
            continue
        # chart_vars are the first twelve coordinates
        bind = _linear_bindings([row[:12] for row in mat[:12]], chart_vars)

        pmat = param.get(name) or ExactMatrix.identity(3).rows
        xs = [x1, x2, x3]
        for i in range(3):
            row = pmat[i]
            nz = [(j, row[j]) for j in range(3) if row[j]]
            if len(nz) != 1:
                residuals.append(f"{name}: parameter action row {i + 1} is "
                                 "not a monomial row")
                continue
            j, entry = nz[0]
            lhs = bind[X_NAMES[3 + i]] * xs[j]
            rhs = entry * MPoly.var(X_NAMES[3 + j]) * bind[X_NAMES[i]]
            _require_zero_poly(residuals, lhs - rhs,
                               f"{name}: slice ratio {i + 1} does not follow "
                               "the stored parameter action")

        cmat = chart_act.get(name) or ExactMatrix.identity(9).rows
        moved = [n.substitute(bind) for n in numerators]
        pushed = ExactMatrix(cmat).apply(numerators)
        for i in range(9):
            for j in range(i + 1, 9):
                _require_zero_poly(
                    residuals, moved[i] * pushed[j] - moved[j] * pushed[i],
                    f"{name}: chart minor ({Y_NAMES[i]}, {Y_NAMES[j]})")

    details = {"multipliers": [str(m2) for m2 in multipliers]}
    notes = (
        "chart-space system: the quadratic coupling in the first equation "
        "pairs the 4th and 8th chart coordinates (a printed pairing with "
        "the 7th breaks the cleared-denominator identity)",
        "chart-space system: the coefficient 3r+21 in the fifth equation "
        "carries the third slice parameter, not the first (the printed "
        "index breaks the cleared-denominator identity)",
    )
    return _finish(residuals, details, notes)


# ---------------------------------------------------------------------------
# symbolic/strata_6


def check_strata_6() -> CheckResult:
    """Explicit solutions on the coordinate strata of the zero locus.

    On the stratum where the first three chart coordinates vanish the
    five restricted quadrics reduce to two binary quadrics whose exact
    factorization yields precisely the four stored sparse points.  On
    the first single-pair stratum the stored square-root families solve
    the system modulo the defining quadratic relation; their octics
    carry a root of multiplicity exactly 6, witnessed by explicit
    coefficient patterns, and specializing the slice parameter to 10
    produces the four stored instance vectors.  The slice lift
    intertwines the stored parameter action and permutes the coordinate
    pairs exactly as the stored 3-set permutations predict.
    """
    residuals: list[str] = []
    quads = construction.pure_quadric_parts()
    x7, x8, x9 = MPoly.var("x7"), MPoly.var("x8"), MPoly.var("x9")

    # (a) The fully degenerate stratum: exact branch decomposition.
    cut0 = {n: _F(0) for n in X_NAMES[:6]}
    on_l0 = [q.substitute(cut0) for q in quads]
    for k in (2, 3, 4):
        _require_zero_poly(residuals, on_l0[k],
                           f"restricted quadric {k + 1} does not vanish on the "
                           "fully degenerate stratum")
    _require_zero_poly(residuals, on_l0[0] - 6 * x8 * (x7 + 15 * x9),
                       "first quadric on the stratum vs. its factorization")
    branch1 = on_l0[1].substitute({"x8": _F(0)})
    _require_zero_poly(residuals, branch1 - 2 * (x7 - 5 * x9) * (x7 + 5 * x9),
                       "first branch quadric vs. its factorization")
    branch2 = on_l0[1].substitute({"x7": -15 * x9})
    _require_zero_poly(residuals,
                       branch2 - (-16) * (x8 - 5 * x9) * (x8 + 5 * x9),
                       "second branch quadric vs. its factorization")

    points = construction.special_points()
    sparse = points["sparse_solutions"]
    _require(residuals, len(sparse) == 4, "stored sparse solutions are not 4")
    want = {ProjPoint([_F(5), _F(0), _F(1)]),
            ProjPoint([_F(5), _F(0), _F(-1)]),
            ProjPoint([_F(-15), _F(5), _F(1)]),
            ProjPoint([_F(-15), _F(-5), _F(1)])}
    got = {ProjPoint(list(p)) for p in sparse}
    _require(residuals, got == want,
             "stored sparse solutions differ from the branch roots")
    for p in sparse:
        env = dict(zip(X_NAMES, construction.sparse_solution_vec9(p)))
        shown = ", ".join(map(str, p))
        for k, q in enumerate(quads, start=1):
            _require(residuals, q.substitute(env).is_zero(),
                     f"sparse solution ({shown}) fails quadric {k}")

    # (b) The square-root families on the first single-pair stratum.
    fams, relation = construction.stratum1_solution_families()
    for fidx, fam in enumerate(fams, start=1):
        env = dict(zip(X_NAMES, fam))
        for k, q in enumerate(quads, start=1):
            value = q.substitute(env).reduce_quadratic(
                "a", 25 * MPoly.var("r1") ** 2 - 900)
            _require_zero_poly(residuals, value,
                               f"family {fidx} fails quadric {k} modulo the "
                               "square-root relation")
        for i in (1, 2, 4, 5):
            _require(residuals, fam[i].is_zero(),
                     f"family {fidx} leaves the first single-pair stratum")
    _require_zero_poly(residuals,
                       relation - (25 * MPoly.var("r1") ** 2 - 900),
                       "stored square-root relation")

    # (c) Root multiplicity exactly 6, symbolically in the slice parameter.
    # The first pair of families assembles to a binary octic with
    # coefficient support {56 z1^2 z2^6, 2 r1 z2^8} (up to overall sign),
    # i.e. a root of multiplicity exactly 6 at the second coordinate
    # axis; the mirrored pair has the mirrored pattern.
    pats = {
        1: {2: MPoly.const(56), 0: 2 * MPoly.var("r1")},
        2: {6: MPoly.const(56), 8: 2 * MPoly.var("r1")},
    }
    for fidx, fam in enumerate(fams[:2], start=1):
        coeffs = construction.octic_form(fam).coeffs
        pattern = pats[fidx]
        for d in range(9):
            want_c = pattern.get(d, _ZERO)
            _require_zero_poly(residuals, coeffs[d] - want_c,
                               f"family {fidx} octic coefficient of degree {d}")

    _require(residuals,
             max_root_multiplicity_exact(construction.assemble(
                 points["invariant_octic"])[0]) == 1,
             "the distinguished invariant octic has a repeated root")

    # (d) Specialization at slice parameter 10.
    inst_env = [{"r1": _F(10), "a": _F(40)}, {"r1": _F(10), "a": _F(-40)}]
    instance_vecs = set()
    for fam in fams:
        for env in inst_env:
            vec = tuple(comp.evaluate(env) for comp in fam)
            instance_vecs.add(vec)
    expected_instances = set()
    for sgn in (1, -1):
        v = [_F(0)] * 9
        v[0], v[3], v[6], v[7] = _F(sgn), _F(10 * sgn), _F(10), _F(1)
        expected_instances.add(tuple(v))
        w = [_F(0)] * 9
        w[0], w[3], w[6], w[7], w[8] = (_F(40 * sgn), _F(400 * sgn),
                                        _F(-410), _F(-50), _F(6))
        expected_instances.add(tuple(w))
    _require(residuals, instance_vecs == expected_instances,
             "instances at slice parameter 10 differ from the stored vectors")
    _require(residuals, len(instance_vecs) == 4,
             f"instance count {len(instance_vecs)} != 4")
    for vec in instance_vecs:
        env = dict(zip(X_NAMES, vec))
        shown = ", ".join(map(str, vec))
        for k, q in enumerate(quads, start=1):
            _require(residuals, q.substitute(env).is_zero(),
                     f"instance ({shown}) fails quadric {k}")

    # (e) Stratum equivariance: the octic action restricted to a generic
    # slice point lands on the image slice and permutes the coordinate
    # pairs by the stored 3-set permutations.
    table = construction.action_table()
    param = construction.parameter_action()
    stored_perm = construction.block_permutation()
    free = [MPoly.var(n) for n in ("x1", "x2", "x3", "x7", "x8", "x9")]
    rvars = [MPoly.var(n) for n in R_NAMES]
    lift = construction.octic_vector_on_slice(tuple(rvars), free)
    perm_found: dict[str, dict[int, int]] = {}
    for name in ("omega", "rho", "tau", "sigma"):
        block = construction.octic_block(table[name])
        moved = ExactMatrix(block).apply(lift)
        rimage = ExactMatrix(param.get(name)
                             or ExactMatrix.identity(3).rows).apply(rvars)
        for i in range(3):
            _require_zero_poly(residuals, moved[3 + i] - rimage[i] * moved[i],
                               f"{name}: image of the slice leaves the "
                               f"parameter-moved slice (pair {i + 1})")
        mapping: dict[int, int] = {}
        for i in range(3):
            terms = moved[i].sorted_terms()
            if len(terms) != 1:
                residuals.append(f"{name}: slice image coordinate {i + 1} is "
                                 "not a monomial")
                continue
            mono, _c = terms[0]
            support = [poly_i for poly_i, e in enumerate(mono) if e]
            src = VAR_NAMES[support[0]]
            mapping[int(src[1:])] = i + 1
        if name in stored_perm:
            _require(residuals, mapping == stored_perm[name],
                     f"{name}: coordinate-pair permutation {mapping} differs "
                     f"from the stored {stored_perm[name]}")
        perm_found[name] = mapping

    details = {
        "sparse_count": len(sparse),
        "family_count": len(fams),
        "instances_at_10": sorted(str(list(map(str, v))) for v in instance_vecs),
        "pair_permutations": {k: {str(a): b for a, b in v.items()}
                              for k, v in perm_found.items()},
        "count_bookkeeping": "18 + 14 = 32 = 2^5",
    }
    notes = (
        "distinguished octic vector: the last basis index reads 9, not 0 "
        "(a zero index names no basis vector; the stored fixed-space and "
        "stabilizer data force index 9)",
    )
    return _finish(residuals, details, notes)


# ---------------------------------------------------------------------------
# property/field_axioms


def _random_rational(rng: random.Random, span: int = 9) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return _F(num, den)


def _random_cyc(rng: random.Random) -> CycScalar:
    """Four coordinates drawn as `_random_rational` draws them, in order,
    and built as int numerators over their denominators' lcm."""
    parts = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
    d = math.lcm(*(den for _num, den in parts))
    return from_numerators([num * (d // den) for num, den in parts], d)


def check_field_axioms(seed: int) -> CheckResult:
    """Randomized field-axiom suite for the cyclotomic scalar arithmetic."""
    trials = 1000
    residuals: list[str] = []
    rng = random.Random(seed)
    zeta = CycScalar.zeta()
    one = CycScalar.one()
    _require(residuals, zeta ** 8 == one, "eighth power of the root is not 1")
    _require(residuals, zeta ** 4 == -one,
             "fourth power of the root is not -1")
    _require(residuals, _I * _I == -one, "square of i is not -1")
    _require(residuals, zeta * zeta == _I, "square of the root is not i")

    for trial in range(trials):
        a, b, c = (_random_cyc(rng) for _ in range(3))
        ab = a * b
        if (a + b) + c != a + (b + c):
            residuals.append(f"trial {trial}: addition not associative")
        if a + b != b + a:
            residuals.append(f"trial {trial}: addition not commutative")
        if ab * c != a * (b * c):
            residuals.append(f"trial {trial}: multiplication not associative")
        if ab != b * a:
            residuals.append(f"trial {trial}: multiplication not commutative")
        if a * (b + c) != ab + a * c:
            residuals.append(f"trial {trial}: distributivity fails")
        if a.conj() * b.conj() != ab.conj():
            residuals.append(f"trial {trial}: conjugation not multiplicative")
        if a and a * a ** -1 != one:
            residuals.append(f"trial {trial}: inverse fails for {a}")
        ea, eb = complex(a), complex(b)
        if abs(ea * eb - complex(ab)) > 1e-9 * (1 + abs(ea * eb)):
            residuals.append(f"trial {trial}: complex embedding drifts")
        if residuals:
            break

    details = {"trials": trials, "seed": seed}
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# property/mpoly_ring


def _random_poly(rng: random.Random, names: tuple[str, ...],
                 max_terms: int = 5, max_exp: int = 3) -> MPoly:
    """A sum of random terms, each drawn as its coefficient and then one
    exponent per name, and built as one packed monomial."""
    acc = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = _random_rational(rng)
        mono = pack_powers({n: rng.randint(0, max_exp) for n in names})
        acc = acc + MPoly({mono: c})
    return acc


def check_mpoly_ring(seed: int) -> CheckResult:
    """Randomized ring, calculus, and substitution laws for the polynomials."""
    trials = 120
    residuals: list[str] = []
    rng = random.Random(seed)
    names = ("x1", "x2", "s1")

    for trial in range(trials):
        f = _random_poly(rng, names)
        g = _random_poly(rng, names)
        h = _random_poly(rng, names)
        fg = f * g
        if (f + g) * h != f * h + g * h:
            residuals.append(f"trial {trial}: distributivity fails")
        if fg != g * f:
            residuals.append(f"trial {trial}: multiplication not commutative")
        if fg * h != f * (g * h):
            residuals.append(f"trial {trial}: multiplication not associative")
        name = rng.choice(names)
        leibniz = fg.diff(name) - (f.diff(name) * g + f * g.diff(name))
        if not leibniz.is_zero():
            residuals.append(f"trial {trial}: Leibniz rule fails")
        point = {n: _random_rational(rng) for n in ("x1", "x2", "s1")}
        lhs = (fg + h).evaluate(point)
        rhs = f.evaluate(point) * g.evaluate(point) + h.evaluate(point)
        if lhs != rhs:
            residuals.append(f"trial {trial}: evaluation not a homomorphism")
        sub = {"x1": _random_poly(rng, ("x2", "s1"), max_terms=2)}
        if fg.substitute(sub) != f.substitute(sub) * g.substitute(sub):
            residuals.append(f"trial {trial}: substitution not a homomorphism")
        if residuals:
            break

    details = {"trials": trials, "seed": seed}
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# property/transvectants


def _random_form(rng: random.Random, degree: int) -> BinaryForm:
    coeffs = [_random_rational(rng, 5) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = _F(1)
    return BinaryForm(degree, coeffs)


def check_transvectant_properties(seed: int) -> CheckResult:
    """Randomized covariance laws for the bilinear bracket, plus frozen
    hand-computed bracket values."""
    trials = 100
    residuals: list[str] = []
    rng = random.Random(seed)

    octics = construction.octic_basis()
    quartics = construction.quartic_basis()
    z1sq_z2sq = BinaryForm(4, [0, 0, 1, 0, 0])
    frozen = [
        (transvectant(BinaryForm(4, [0, 0, 0, 0, 1]),
                      BinaryForm(4, [1, 0, 0, 0, 0]), 2),
         z1sq_z2sq, "second bracket of the two pure fourth powers"),
        (transvectant(octics[6], octics[6], 6), z1sq_z2sq.scale(_F(2)),
         "sixth bracket of the 7th octic with itself"),
        (transvectant(octics[3], octics[3], 6), z1sq_z2sq.scale(_F(-2)),
         "sixth bracket of the 4th octic with itself"),
        (transvectant(octics[6], octics[7], 6), quartics[0],
         "sixth bracket of the 7th and 8th octics"),
        (transvectant(quartics[0], quartics[0], 2), quartics[1].scale(_F(1, 3)),
         "second bracket of the 1st quartic with itself"),
        (transvectant(quartics[0], quartics[1], 2), quartics[0],
         "second bracket of the 1st and 2nd quartics"),
        (transvectant(octics[1], quartics[3], 4),
         quartics[0].scale(_F(24)) + quartics[1].scale(_F(8)),
         "fourth bracket of the 2nd octic and the 4th quartic"),
    ]
    for got, want, label in frozen:
        if got != want:
            residuals.append(f"frozen value: {label} mismatches")

    for trial in range(trials):
        d1, d2 = rng.choice(((4, 4), (8, 4), (8, 8)))
        f = _random_form(rng, d1)
        g = _random_form(rng, d2)
        i = rng.randint(1, 4)
        fg = transvectant(f, g, i)
        flipped = transvectant(g, f, i).scale(_F((-1) ** i))
        if fg != flipped:
            residuals.append(f"trial {trial}: symmetry sign fails at index {i}")
        c = _random_rational(rng, 5)
        h = _random_form(rng, d1)
        lin = transvectant(f.scale(c) + h, g, i)
        want = fg.scale(c) + transvectant(h, g, i)
        if lin != want:
            residuals.append(f"trial {trial}: bilinearity fails")
        # Unimodular covariance through products of elementary moves.
        b = _random_rational(rng, 3)
        cc = _random_rational(rng, 3)
        elt = GroupElt(1, b, 0, 1) * GroupElt(1, 0, cc, 1)
        lhs = binform.group_act(elt, fg)
        rhs = transvectant(binform.group_act(elt, f),
                           binform.group_act(elt, g), i)
        if lhs != rhs:
            residuals.append(f"trial {trial}: covariance fails")
        if residuals:
            break

    details = {"trials": trials, "seed": seed, "frozen_values": len(frozen)}
    return _finish(residuals, details)


# ---------------------------------------------------------------------------
# property/scaling_1_1


def check_scaling_1_1(seed: int) -> CheckResult:
    """Rescaling the three inputs acts on the weight vector quadratically.

    Verified two ways: symbolically, the literal coordinate polynomials
    split into four sectors that are bihomogeneous of the expected
    multidegrees in the three scale factors; and on random exact forms,
    the bracket route with rescaled inputs equals the route with the
    transformed weight vector.
    """
    trials = 30
    residuals: list[str] = []
    rng = random.Random(seed)
    mu0, mu4, mu8 = MPoly.var("mu0"), MPoly.var("mu4"), MPoly.var("mu8")
    expanded = expanded_coordinate_system()

    scale_bind: dict[str, MPoly] = {}
    for n in X_NAMES:
        scale_bind[n] = mu8 * MPoly.var(n)
    scale_bind["s0"] = mu0 * MPoly.var("s0")
    for n in ("s1", "s2", "s3", "s4", "s5"):
        scale_bind[n] = mu4 * MPoly.var(n)

    x_idx = [var_slot(n) for n in X_NAMES]
    s0_idx = var_slot("s0")
    s_idx = [var_slot(n) for n in ("s1", "s2", "s3", "s4", "s5")]
    eps_idx = var_slot("eps")

    for k, poly in enumerate(expanded, start=1):
        sectors = {"66": _ZERO, "44": _ZERO, "22": _ZERO, "00": _ZERO}
        bogus = 0
        for packed, c in poly.terms.items():
            mono = exponents(packed)
            xdeg = sum(mono[i] for i in x_idx)
            s0deg = mono[s0_idx]
            sdeg = sum(mono[i] for i in s_idx)
            epsdeg = mono[eps_idx]
            term = MPoly({packed: c})
            if (xdeg, s0deg, sdeg, epsdeg) == (2, 0, 0, 0):
                sectors["66"] = sectors["66"] + term
            elif (xdeg, s0deg, sdeg, epsdeg) == (1, 0, 1, 0):
                sectors["44"] = sectors["44"] + term
            elif (xdeg, s0deg, sdeg, epsdeg) == (0, 0, 2, 1):
                sectors["22"] = sectors["22"] + term
            elif (xdeg, s0deg, sdeg, epsdeg) == (0, 1, 1, 0):
                sectors["00"] = sectors["00"] + term
            else:
                bogus += 1
        _require(residuals, bogus == 0,
                 f"row {k}: {bogus} terms outside the four sectors")
        lhs = poly.substitute(scale_bind)
        rhs = (mu8 * mu8 * sectors["66"] + mu4 * mu8 * sectors["44"]
               + mu4 * mu4 * sectors["22"] + mu0 * mu4 * sectors["00"])
        _require_zero_poly(residuals, lhs - rhs,
                           f"row {k}: rescaled row vs. sector-weighted row")

    for trial in range(trials):
        f8 = _random_form(rng, 8)
        f4 = _random_form(rng, 4)
        f0 = _random_rational(rng, 5)
        m0, m4, m8 = (_random_rational(rng, 4) or _F(1) for _ in range(3))
        ev = _random_rational(rng, 3)
        lam = Lambda.standard(ev)
        lhs = delta_forms(lam, f8.scale(m8), f0 * m0, f4.scale(m4))
        lam2 = Lambda(m0 * m4, 6 * ev * m4 * m4, m4 * m8, 6 * m8 * m8)
        rhs = delta_forms(lam2, f8, f0, f4)
        if lhs != rhs:
            residuals.append(f"trial {trial}: rescaling law fails")
            break

    details = {"trials": trials, "seed": seed}
    return _finish(residuals, details)
