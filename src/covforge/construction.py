"""Single source of truth for the verified construction's constant data.

Everything the checks compare against lives here: the 15 basis forms of
the octic/constant/quartic space, the stored coordinate expansion of the
quadratic map, the restricted equation systems, the finite symmetry
group's generators and its stored 15x15 coordinate action, the induced
actions on the parameter space and on the projective chart image, the
chart map itself, distinguished points, stratum data, and the two linear
subspaces used by the projection argument.

Transcriptions follow the reference tables verbatim except where the
erratum ledger (errata.json) records a corrected reading; each correction
is validated by the check suite.

It also holds the exact geometry of the numeric checks, none of which
needs numpy: every quadric's exact symmetric matrix (`quadric_matrix`),
which the tracker compiles; the census triple, system, symmetry and
stored points; the fiber's slices, two conics on a plane
(`conic_pair`); and the preimages, two lines on a plane
(`exact_preimage`).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .binform import (BinaryForm, GroupElt, expanded_coordinate_system,
                      group_act)
from .exlinalg import ExactMatrix
from .mpoly import MPoly, exponents, var_slot
from .scalar import CycScalar, as_exact

X_NAMES = tuple(f"x{i}" for i in range(1, 10))
S_NAMES = tuple(f"s{i}" for i in range(6))
VEC15_NAMES = X_NAMES + S_NAMES
Y_NAMES = ("y1", "y2", "y3", "y7", "y8", "y9", "y10", "y11", "y12")
R_NAMES = ("r1", "r2", "r3")

_F = Fraction
_I = CycScalar.i()


def _poly(terms) -> MPoly:
    """Build an MPoly from (coefficient, {var: exponent}) pairs."""
    acc = MPoly.zero()
    for coeff, monomial in terms:
        t = MPoly.const(coeff)
        for name, e in monomial.items():
            t = t * MPoly.var(name) ** e
        acc = acc + t
    return acc


# ---------------------------------------------------------------------------
# Projective points


class ProjPoint:
    """Point of a projective space over an exact scalar field."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence) -> None:
        cs = [as_exact(c) for c in coords]
        if not any(cs):
            raise ValueError("all homogeneous coordinates vanish")
        self.coords = tuple(cs)

    def canonical(self) -> tuple:
        """Scale so the first nonzero coordinate is 1."""
        lead = next(c for c in self.coords if c)
        inv = lead ** -1
        return tuple(inv * c for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# The fixed basis of the 15-dimensional representation space

_OCTIC_BASIS_COEFFS = (
    # index k holds the z1^(8-k) z2^k coefficient
    (0, 0, 28, 0, 0, 0, -28, 0, 0),
    (0, 56, 0, 56, 0, -56, 0, -56, 0),
    (0, 56, 0, -56, 0, -56, 0, 56, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, -1),
    (0, 8, 0, -56, 0, 56, 0, -8, 0),  # leading monomial degree corrected (errata)
    (0, 8, 0, 56, 0, 56, 0, 8, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 28, 0, 0, 0, 28, 0, 0),
    (0, 0, 0, 0, 70, 0, 0, 0, 0),
)

_QUARTIC_BASIS_COEFFS = (
    (1, 0, 0, 0, 1),
    (0, 0, 6, 0, 0),
    (1, 0, 0, 0, -1),
    (0, 4, 0, -4, 0),
    (0, 4, 0, 4, 0),
)


@lru_cache(maxsize=1)
def octic_basis() -> tuple[BinaryForm, ...]:
    return tuple(BinaryForm(8, cs) for cs in _OCTIC_BASIS_COEFFS)


@lru_cache(maxsize=1)
def quartic_basis() -> tuple[BinaryForm, ...]:
    return tuple(BinaryForm(4, cs) for cs in _QUARTIC_BASIS_COEFFS)


def octic_coefficients(vec9: Sequence) -> list:
    """The degree-8 form's coefficients from basis coordinates, which may
    be exact scalars or polynomials."""
    coeffs: list = [_F(0)] * 9
    for comp, form in zip(vec9, octic_basis()):
        for d, c in enumerate(form.coeffs):
            if c != 0:
                coeffs[d] = coeffs[d] + comp * c
    return coeffs


def octic_form(vec9: Sequence) -> BinaryForm:
    """The degree-8 form with exact or polynomial basis coordinates."""
    return BinaryForm(8, octic_coefficients(vec9))


def assemble(coords15: Sequence) -> tuple[BinaryForm, object, BinaryForm]:
    """Coordinate vector -> (degree-8 form, constant, degree-4 form)."""
    if len(coords15) != 15:
        raise ValueError("expected 15 coordinates")
    f8 = octic_form(coords15[:9])
    f0 = coords15[9]
    f4 = BinaryForm.zero(4)
    for c, a in zip(coords15[10:], quartic_basis()):
        f4 = f4 + a.scale(c)
    return f8, f0, f4


@lru_cache(maxsize=1)
def _octic_basis_matrix_inverse() -> ExactMatrix:
    cols = [list(cs) for cs in _OCTIC_BASIS_COEFFS]
    return ExactMatrix.from_columns(cols).inverse()


def octic_coordinates(f: BinaryForm) -> list:
    """Coordinates of a degree-8 form with scalar coefficients in the basis."""
    if f.degree != 8:
        raise ValueError("degree-8 form expected")
    return _octic_basis_matrix_inverse().apply(list(f.coeffs))


def quartic_coordinates(f: BinaryForm) -> list:
    """Coordinates of a degree-4 form in the quartic basis.

    Closed-form inversion, so it works for symbolic (MPoly) coefficients.
    """
    if f.degree != 4:
        raise ValueError("degree-4 form expected")
    c0, c1, c2, c3, c4 = f.coeffs
    half, sixth, eighth = _F(1, 2), _F(1, 6), _F(1, 8)
    return [
        half * (c0 + c4),
        sixth * c2,
        half * (c0 - c4),
        eighth * (c1 - c3),
        eighth * (c1 + c3),
    ]


def unit15(index: int) -> list:
    v: list = [_F(0)] * 15
    v[index] = _F(1)
    return v


# ---------------------------------------------------------------------------
# Stored coordinate expansion of the quadratic map


@lru_cache(maxsize=1)
def pure_quadric_parts() -> tuple[MPoly, ...]:
    """The five stored quadrics in the degree-8 coordinates alone."""
    q1 = _poly([
        (6, {"x7": 1, "x8": 1}), (90, {"x8": 1, "x9": 1}), (-6, {"x4": 1, "x1": 1}),
        (-192, {"x5": 2}), (-96, {"x5": 1, "x2": 1}), (-192, {"x6": 2}),
        (-96, {"x6": 1, "x3": 1}), (384, {"x2": 2}), (384, {"x3": 2}),
    ])
    q2 = _poly([
        (2, {"x7": 2}), (-16, {"x8": 2}), (-50, {"x9": 2}), (-2, {"x4": 2}),
        (-64, {"x5": 2}), (96, {"x5": 1, "x2": 1}), (64, {"x6": 2}),
        (-96, {"x6": 1, "x3": 1}), (16, {"x1": 2}), (128, {"x2": 2}), (-128, {"x3": 2}),
    ])
    q3 = _poly([
        (-6, {"x7": 1, "x1": 1}), (6, {"x8": 1, "x4": 1}), (90, {"x9": 1, "x1": 1}),
        (48, {"x5": 1, "x6": 1}), (-336, {"x5": 1, "x3": 1}),
        (-336, {"x6": 1, "x2": 1}), (624, {"x2": 1, "x3": 1}),
    ])
    q4 = _poly([
        (-3, {"x7": 1, "x5": 1}), (-21, {"x7": 1, "x2": 1}), (12, {"x8": 1, "x5": 1}),
        (-132, {"x8": 1, "x2": 1}), (15, {"x9": 1, "x5": 1}), (-15, {"x9": 1, "x2": 1}),
        (3, {"x4": 1, "x6": 1}), (21, {"x4": 1, "x3": 1}), (42, {"x6": 1, "x1": 1}),
        (78, {"x1": 1, "x3": 1}),
    ])
    q5 = _poly([
        (3, {"x7": 1, "x6": 1}), (21, {"x7": 1, "x3": 1}), (12, {"x8": 1, "x6": 1}),
        (-132, {"x8": 1, "x3": 1}), (-15, {"x9": 1, "x6": 1}), (15, {"x9": 1, "x3": 1}),
        (-3, {"x4": 1, "x5": 1}), (-21, {"x4": 1, "x2": 1}), (42, {"x5": 1, "x1": 1}),
        (78, {"x1": 1, "x2": 1}),
    ])
    return q1, q2, q3, q4, q5


@lru_cache(maxsize=1)
def delta_coordinate_system() -> tuple[MPoly, ...]:
    """The five stored quartic-coordinate components of the quadratic map."""
    q1, q2, q3, q4, q5 = pure_quadric_parts()
    Q1 = q1 + _poly([
        (1, {"x7": 1, "s1": 1}), (1, {"x9": 1, "s1": 1}), (6, {"x8": 1, "s2": 1}),
        (-1, {"x4": 1, "s3": 1}), (8, {"x5": 1, "s4": 1}), (24, {"x2": 1, "s4": 1}),
        (-8, {"x6": 1, "s5": 1}), (-24, {"x3": 1, "s5": 1}),
        (6, {"eps": 1, "s1": 1, "s2": 1}), (-12, {"eps": 1, "s4": 2}),
        (-12, {"eps": 1, "s5": 2}), (1, {"s0": 1, "s1": 1}),
    ])
    # The x2*s4 coupling below is +8, not -8 (errata; forced by the
    # slot's invariance under the diagonal generator, which swaps the
    # x2*s4 and x3*s5 couplings, and confirmed by the pairwise bracket
    # expansion of the octic/quartic cross terms).
    Q2 = q2 + _poly([
        (2, {"x8": 1, "s1": 1}), (6, {"x9": 1, "s2": 1}), (-2, {"x1": 1, "s3": 1}),
        (-8, {"x5": 1, "s4": 1}), (8, {"x2": 1, "s4": 1}), (-8, {"x6": 1, "s5": 1}),
        (8, {"x3": 1, "s5": 1}),
        (2, {"eps": 1, "s1": 2}), (-6, {"eps": 1, "s2": 2}), (-2, {"eps": 1, "s3": 2}),
        (-4, {"eps": 1, "s4": 2}), (4, {"eps": 1, "s5": 2}), (1, {"s0": 1, "s2": 1}),
    ])
    Q3 = q3 + _poly([
        (1, {"x4": 1, "s1": 1}), (6, {"x1": 1, "s2": 1}), (-1, {"x7": 1, "s3": 1}),
        (1, {"x9": 1, "s3": 1}), (32, {"x3": 1, "s4": 1}), (-32, {"x2": 1, "s5": 1}),
        (6, {"eps": 1, "s2": 1, "s3": 1}), (-12, {"eps": 1, "s4": 1, "s5": 1}),
        (1, {"s0": 1, "s3": 1}),
    ])
    Q4 = q4 + _poly([
        (2, {"x5": 1, "s1": 1}), (6, {"x2": 1, "s1": 1}), (-6, {"x5": 1, "s2": 1}),
        (6, {"x2": 1, "s2": 1}), (-8, {"x3": 1, "s3": 1}), (4, {"x8": 1, "s4": 1}),
        (-4, {"x9": 1, "s4": 1}), (-4, {"x1": 1, "s5": 1}),
        (-3, {"eps": 1, "s1": 1, "s4": 1}), (-3, {"eps": 1, "s2": 1, "s4": 1}),
        (3, {"eps": 1, "s3": 1, "s5": 1}), (1, {"s0": 1, "s4": 1}),
    ])
    # The s2-coupling below reads x6*s2, not x2*s2 (errata; forced by the
    # generator action and by the restricted system).
    Q5 = q5 + _poly([
        (2, {"x6": 1, "s1": 1}), (6, {"x3": 1, "s1": 1}), (6, {"x6": 1, "s2": 1}),
        (-6, {"x3": 1, "s2": 1}), (-8, {"x2": 1, "s3": 1}), (4, {"x1": 1, "s4": 1}),
        (-4, {"x8": 1, "s5": 1}), (-4, {"x9": 1, "s5": 1}),
        (3, {"eps": 1, "s1": 1, "s5": 1}), (-3, {"eps": 1, "s2": 1, "s5": 1}),
        (-3, {"eps": 1, "s3": 1, "s4": 1}), (1, {"s0": 1, "s5": 1}),
    ])
    return Q1, Q2, Q3, Q4, Q5


@lru_cache(maxsize=1)
def restricted_system_3_2() -> tuple[MPoly, ...]:
    """The five stored equations after setting s3 = s4 = s5 = 0."""
    q1, q2, q3, q4, q5 = pure_quadric_parts()
    r1 = q1 + _poly([
        (1, {"x7": 1, "s1": 1}), (1, {"x9": 1, "s1": 1}), (6, {"x8": 1, "s2": 1}),
        (6, {"eps": 1, "s1": 1, "s2": 1}), (1, {"s0": 1, "s1": 1}),
    ])
    r2 = q2 + _poly([
        (2, {"x8": 1, "s1": 1}), (6, {"x9": 1, "s2": 1}),
        (2, {"eps": 1, "s1": 2}), (-6, {"eps": 1, "s2": 2}), (1, {"s0": 1, "s2": 1}),
    ])
    r3 = q3 + _poly([(1, {"x4": 1, "s1": 1}), (6, {"x1": 1, "s2": 1})])
    r4 = q4 + _poly([
        (2, {"x5": 1, "s1": 1}), (6, {"x2": 1, "s1": 1}),
        (-6, {"x5": 1, "s2": 1}), (6, {"x2": 1, "s2": 1}),
    ])
    r5 = q5 + _poly([
        (2, {"x6": 1, "s1": 1}), (6, {"x3": 1, "s1": 1}),
        (6, {"x6": 1, "s2": 1}), (-6, {"x3": 1, "s2": 1}),
    ])
    return r1, r2, r3, r4, r5


@lru_cache(maxsize=1)
def y_equations_4_5() -> tuple[MPoly, ...]:
    """The stored chart-image equations: two quadrics and three linear forms."""
    E1 = _poly([
        (6, {"y7": 1, "y8": 1}), (90, {"y8": 1, "y9": 1}),
        (-192, {"r3": 2, "y1": 1, "y2": 1}), (-96, {"r3": 1, "y1": 1, "y2": 1}),
        (384, {"y1": 1, "y2": 1}),
        (-192, {"r2": 2, "y1": 1, "y3": 1}), (-96, {"r2": 1, "y1": 1, "y3": 1}),
        (384, {"y1": 1, "y3": 1}),
        (-6, {"r1": 1, "y2": 1, "y3": 1}),
        # first s-coupling term corrected to y7*y11 (errata)
        (1, {"y7": 1, "y11": 1}), (1, {"y9": 1, "y11": 1}), (6, {"y8": 1, "y12": 1}),
        (6, {"eps": 1, "y11": 1, "y12": 1}), (1, {"y10": 1, "y11": 1}),
    ])
    E2 = _poly([
        (2, {"y7": 2}), (-16, {"y8": 2}), (-50, {"y9": 2}),
        (64, {"r3": 2, "y1": 1, "y2": 1}), (-96, {"r3": 1, "y1": 1, "y2": 1}),
        (-128, {"y1": 1, "y2": 1}),
        (-64, {"r2": 2, "y1": 1, "y3": 1}), (96, {"r2": 1, "y1": 1, "y3": 1}),
        (128, {"y1": 1, "y3": 1}),
        (-2, {"r1": 2, "y2": 1, "y3": 1}), (16, {"y2": 1, "y3": 1}),
        (2, {"y8": 1, "y11": 1}), (6, {"y9": 1, "y12": 1}),
        (2, {"eps": 1, "y11": 2}), (-6, {"eps": 1, "y12": 2}),
        (1, {"y10": 1, "y12": 1}),
    ])
    E3 = _poly([
        (48, {"r2": 1, "r3": 1, "y1": 1}), (-336, {"r2": 1, "y1": 1}),
        (-336, {"r3": 1, "y1": 1}), (624, {"y1": 1}),
        (-6, {"y7": 1}), (6, {"r1": 1, "y8": 1}), (90, {"y9": 1}),
        (1, {"r1": 1, "y11": 1}), (6, {"y12": 1}),
    ])
    E4 = _poly([
        (3, {"r1": 1, "r3": 1, "y2": 1}), (21, {"r1": 1, "y2": 1}),
        (42, {"r3": 1, "y2": 1}), (78, {"y2": 1}),
        (-3, {"r2": 1, "y7": 1}), (-21, {"y7": 1}),
        (12, {"r2": 1, "y8": 1}), (-132, {"y8": 1}),
        (15, {"r2": 1, "y9": 1}), (-15, {"y9": 1}),
        (2, {"r2": 1, "y11": 1}), (6, {"y11": 1}),
        (-6, {"r2": 1, "y12": 1}), (6, {"y12": 1}),
    ])
    E5 = _poly([
        (-3, {"r1": 1, "r2": 1, "y3": 1}), (-21, {"r1": 1, "y3": 1}),
        (42, {"r2": 1, "y3": 1}), (78, {"y3": 1}),
        # leading coordinate coupling corrected to r3 (errata)
        (3, {"r3": 1, "y7": 1}), (21, {"y7": 1}),
        (12, {"r3": 1, "y8": 1}), (-132, {"y8": 1}),
        (-15, {"r3": 1, "y9": 1}), (15, {"y9": 1}),
        (2, {"r3": 1, "y11": 1}), (6, {"y11": 1}),
        (6, {"r3": 1, "y12": 1}), (-6, {"y12": 1}),
    ])
    return E1, E2, E3, E4, E5


# ---------------------------------------------------------------------------
# The finite symmetry group and its stored actions


@lru_cache(maxsize=1)
def generators() -> dict[str, GroupElt]:
    zeta = CycScalar.zeta()
    inv_sqrt2 = CycScalar.sqrt2() ** -1
    return {
        "omega": GroupElt(0, 1, -1, 0),
        "rho": GroupElt(-_I, 0, 0, _I),
        "tau": GroupElt(-zeta ** 3, 0, 0, zeta),
        "sigma": GroupElt(inv_sqrt2 * zeta ** 3, -inv_sqrt2 * zeta ** 3,
                          -inv_sqrt2 * zeta, -inv_sqrt2 * zeta),
    }


def _rows_to_matrix(rows: Sequence[Sequence]) -> list[list]:
    return [[as_exact(v) for v in row] for row in rows]


@lru_cache(maxsize=1)
def action_table() -> dict[str, list[list]]:
    """Stored 15x15 coordinate action of the four generators.

    Row k gives the new k-th coordinate as a combination of the old ones;
    column j is therefore the image of the j-th basis vector.
    """
    def diag(*entries):
        return [[entries[i] if i == j else 0 for j in range(15)] for i in range(15)]

    omega = diag(-1, 1, -1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1, -1)
    rho = diag(1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, 1, 1, -1, -1)

    tau = [[_F(0)] * 15 for _ in range(15)]
    tau[0][0] = -1
    tau[1][2] = -_I
    tau[2][1] = -_I
    tau[3][3] = 1
    tau[4][5] = -_I
    tau[5][4] = -_I
    tau[6][6] = 1
    tau[7][7] = -1
    tau[8][8] = 1
    tau[9][9] = 1
    tau[10][10] = -1
    tau[11][11] = 1
    tau[12][12] = -1
    tau[13][14] = _I
    tau[14][13] = _I

    sigma = [[_F(0)] * 15 for _ in range(15)]
    sigma[0][2] = 4
    sigma[1][0] = -_I * _F(1, 4)
    sigma[2][1] = _I
    sigma[3][5] = -8
    sigma[4][3] = -_I * _F(1, 8)
    sigma[5][4] = -_I
    sigma[6][6], sigma[6][7], sigma[6][8] = _F(1, 8), _F(7, 2), _F(35, 8)
    sigma[7][6], sigma[7][7], sigma[7][8] = _F(-1, 8), _F(-1, 2), _F(5, 8)
    sigma[8][6], sigma[8][7], sigma[8][8] = _F(1, 8), _F(-1, 2), _F(3, 8)
    sigma[9][9] = 1
    sigma[10][10], sigma[10][11] = _F(-1, 2), _F(-3, 2)
    sigma[11][10], sigma[11][11] = _F(1, 2), _F(-1, 2)
    sigma[12][14] = 2
    sigma[13][12] = _I * _F(1, 2)
    sigma[14][13] = -_I

    return {
        "omega": _rows_to_matrix(omega),
        "rho": _rows_to_matrix(rho),
        "tau": _rows_to_matrix(tau),
        "sigma": _rows_to_matrix(sigma),
    }


def induced_vec15_matrix(g: GroupElt, convention: str | None = None) -> list[list]:
    """15x15 coordinate matrix induced by the matrix action on the basis:
    `group_act` on every basis form."""
    columns: list[list] = []
    for f8 in octic_basis():
        image = group_act(g, f8, convention)
        columns.append(octic_coordinates(image) + [_F(0)] * 6)
    columns.append(unit15(9))
    for f4 in quartic_basis():
        image = group_act(g, f4, convention)
        columns.append([_F(0)] * 10 + quartic_coordinates(image))
    return [[columns[j][i] for j in range(15)] for i in range(15)]


def octic_block(mat15: Sequence[Sequence]) -> list[list]:
    return [list(row[:9]) for row in mat15[:9]]


def quartic_block(mat15: Sequence[Sequence]) -> list[list]:
    return [list(row[10:]) for row in mat15[10:]]


@lru_cache(maxsize=1)
def parameter_action() -> dict[str, list[list]]:
    """Stored 3x3 action on the stratum parameter triple."""
    tau = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
    sigma = [[0, 0, -2], [_F(1, 2), 0, 0], [0, -1, 0]]
    return {"tau": _rows_to_matrix(tau), "sigma": _rows_to_matrix(sigma)}


@lru_cache(maxsize=1)
def chart_space_action() -> dict[str, list[list]]:
    """Stored 9x9 projective action on the chart-image coordinates."""
    tau = [[_F(0)] * 9 for _ in range(9)]
    for i, v in enumerate([1, 0, 0, 1, -1, 1, 1, -1, 1]):
        tau[i][i] = _F(v)
    tau[1][2] = _F(-1)
    tau[2][1] = _F(-1)

    sigma = [[_F(0)] * 9 for _ in range(9)]
    sigma[0][2] = _F(1, 16)
    sigma[1][0] = _F(-16)
    sigma[2][1] = _F(-1)
    sigma[3][3], sigma[3][4], sigma[3][5] = _F(1, 8), _F(7, 2), _F(35, 8)
    sigma[4][3], sigma[4][4], sigma[4][5] = _F(-1, 8), _F(-1, 2), _F(5, 8)
    sigma[5][3], sigma[5][4], sigma[5][5] = _F(1, 8), _F(-1, 2), _F(3, 8)
    sigma[6][6] = _F(1)
    sigma[7][7], sigma[7][8] = _F(-1, 2), _F(-3, 2)
    sigma[8][7], sigma[8][8] = _F(1, 2), _F(-1, 2)
    return {"tau": tau, "sigma": sigma}


@lru_cache(maxsize=1)
def block_permutation() -> dict[str, dict[int, int]]:
    """Stored permutation of the three coordinate pairs (x_j, x_{j+3})."""
    return {
        "tau": {1: 1, 2: 3, 3: 2},
        "sigma": {1: 2, 2: 3, 3: 1},
    }


# ---------------------------------------------------------------------------
# The chart map


@lru_cache(maxsize=1)
def chart_numerators_symbolic() -> tuple[MPoly, ...]:
    """The chart image with denominators cleared by x1*x2*x3."""
    x = {n: MPoly.var(n) for n in ("x1", "x2", "x3", "x7", "x8", "x9",
                                   "s0", "s1", "s2")}
    prod = x["x1"] * x["x2"] * x["x3"]
    return (
        x["x2"] ** 2 * x["x3"] ** 2,
        x["x1"] ** 2 * x["x3"] ** 2,
        x["x1"] ** 2 * x["x2"] ** 2,
        x["x7"] * prod,
        x["x8"] * prod,
        x["x9"] * prod,
        x["s0"] * prod,
        x["s1"] * prod,
        x["s2"] * prod,
    )


def pi_chart(coords15: Sequence) -> tuple[tuple, ProjPoint]:
    """Exact chart map on the open locus x1*x2*x3 != 0, s3 = s4 = s5 = 0."""
    v = list(coords15)
    if len(v) != 15:
        raise ValueError("expected 15 coordinates")
    if any(as_exact(v[i]) for i in (12, 13, 14)):
        raise ValueError("point outside the chart domain: trailing quartic "
                         "coordinates must vanish")
    x1, x2, x3 = v[0], v[1], v[2]
    if not all(as_exact(t) for t in (x1, x2, x3)):
        raise ValueError("point outside the chart domain: x1*x2*x3 = 0")
    i1, i2, i3 = (as_exact(t) ** -1 for t in (x1, x2, x3))
    r = (v[3] * i1, v[4] * i2, v[5] * i3)
    y = ProjPoint([x2 * x3 * i1, x3 * x1 * i2, x1 * x2 * i3,
                   v[6], v[7], v[8], v[9], v[10], v[11]])
    return r, y


# ---------------------------------------------------------------------------
# Distinguished points


@lru_cache(maxsize=1)
def special_points() -> dict:
    """The anchor points every downstream check refers to."""
    five_e7_plus_e9 = [_F(0)] * 15
    five_e7_plus_e9[6], five_e7_plus_e9[8] = _F(5), _F(1)

    base_point = unit15(9)  # the constant form alone

    crossing = [_F(0)] * 15
    crossing[0] = _F(20)
    crossing[1] = _F(-5) * _I
    crossing[2] = _F(5)
    crossing[6] = _F(65) * _I
    crossing[8] = _F(13) * _I

    u_prime = ProjPoint([0, 0, 0, 0, 0, 0, 1, 0, 0])
    u_dprime_0 = ProjPoint([_F(-5, 4), 20, -20, 65, 0, 13, 0, 0, 0])

    # Isolated octic solutions with all six leading coordinates zero,
    # written as (x7, x8, x9).
    sparse_solutions = (
        (_F(5), _F(0), _F(1)),
        (_F(5), _F(0), _F(-1)),
        (_F(15), _F(5), _F(-1)),
        (_F(15), _F(-5), _F(-1)),
    )

    return {
        "base_point": base_point,
        "invariant_octic": five_e7_plus_e9,
        "crossing_point": crossing,
        "u_prime": u_prime,
        "u_dprime_0": u_dprime_0,
        "sparse_solutions": sparse_solutions,
    }


def sparse_solution_vec9(p: tuple) -> list:
    v: list = [_F(0)] * 9
    v[6], v[7], v[8] = p
    return v


# Families of octic solutions on the first single-pair stratum, symbolic in
# the parameter r1 and the auxiliary square root a with a^2 = 25 r1^2 - 900.

def square_root_relation() -> MPoly:
    return _poly([(25, {"r1": 2}), (-900, {})])


def stratum1_solution_families() -> tuple[tuple[list, ...], MPoly]:
    """Octic 9-vectors (entries MPoly in r1, a) and the defining relation."""
    r1 = MPoly.var("r1")
    a = MPoly.var("a")
    one = MPoly.const(1)
    zero = MPoly.zero()

    fams = []
    for sign in (1, -1):
        v = [zero] * 9
        v[0] = MPoly.const(sign)
        v[3] = MPoly.const(sign) * r1
        v[6] = r1
        v[7] = one
        fams.append(v)
    for sign in (1, -1):
        v = [zero] * 9
        v[0] = MPoly.const(sign) * a
        v[3] = MPoly.const(sign) * r1 * a
        v[6] = MPoly.const(90) - 5 * r1 ** 2
        v[7] = -5 * r1
        v[8] = MPoly.const(6)
        fams.append(v)
    return tuple(fams), square_root_relation()


# ---------------------------------------------------------------------------
# Stratum bookkeeping and the stratum census

CHART_VARS = ("x1", "x2", "x3", "x7", "x8", "x9")
SAMPLE_R = (_F(10), _F(1, 2), _F(1, 3))     # the generic census triple


@lru_cache(maxsize=1)
def domain_inequations() -> tuple[MPoly, ...]:
    """Leading-coefficient conditions that empty the mixed strata."""
    return (
        _poly([(48, {"r2": 1, "r3": 1}), (-336, {"r2": 1}), (-336, {"r3": 1}),
               (624, {})]),
        _poly([(3, {"r1": 1, "r3": 1}), (21, {"r1": 1}), (42, {"r3": 1}), (78, {})]),
        _poly([(-3, {"r1": 1, "r2": 1}), (-21, {"r1": 1}), (42, {"r2": 1}), (78, {})]),
    )


def octic_vector_on_slice(r: tuple, free: Sequence) -> list:
    """Lift (x1, x2, x3, x7, x8, x9) to the full 9-vector on the slice."""
    x1, x2, x3, x7, x8, x9 = free
    r1, r2, r3 = r
    return [x1, x2, x3, r1 * x1, r2 * x2, r3 * x3, x7, x8, x9]


def admissible_triple(r: tuple) -> tuple:
    """The parameter triple as exact scalars; raises ValueError when it
    zeroes a leading-coefficient inequation (the excluded locus)."""
    r = tuple(map(as_exact, r))
    for ineq in domain_inequations():
        if ineq.evaluate({"r1": r[0], "r2": r[1], "r3": r[2]}) == 0:
            raise ValueError("parameter triple violates the leading-"
                             "coefficient inequations")
    return r


@lru_cache(maxsize=1)
def literal_pure_quadrics() -> tuple[MPoly, ...]:
    """The five literal quadric coordinates restricted to the octic block."""
    cut = {n: _F(0) for n in ("s0", "s1", "s2", "s3", "s4", "s5", "eps")}
    return tuple(p.substitute(cut) for p in expanded_coordinate_system())


def literal_restricted_quadrics(r: tuple) -> tuple[MPoly, ...]:
    """The literal quadrics on the parameterized slice, in six coordinates."""
    r1, r2, r3 = map(as_exact, r)
    bindings = {
        "x4": r1 * MPoly.var("x1"),
        "x5": r2 * MPoly.var("x2"),
        "x6": r3 * MPoly.var("x3"),
    }
    return tuple(q.substitute(bindings) for q in literal_pure_quadrics())


def h_orbit_signs() -> list[tuple]:
    """Sign vectors of the diagonal subgroup on the six chart coordinates,
    read off the stored generator matrices."""
    table = action_table()
    idx = [0, 1, 2, 6, 7, 8]
    om = ExactMatrix(octic_block(table["omega"]))
    rh = ExactMatrix(octic_block(table["rho"]))
    return [tuple(mat.rows[i][i] for i in idx)
            for mat in (ExactMatrix.identity(9), om, rh, om * rh)]


def _gaussian_sqrt(value: Fraction):
    """A square root of a rational in Q(i): q for q^2, q*i for -q^2, and
    None for any other value."""
    q = _F(math.isqrt(abs(value.numerator)), math.isqrt(value.denominator))
    if q * q != abs(value):
        return None
    return q if value >= 0 else q * _I


def census_anchors(r: tuple) -> list[list]:
    """The census points the construction stores exactly, as chart
    6-vectors over CHART_VARS: first the four sparse solutions
    (0, 0, 0, p), at every triple; then the four instances of the
    single-pair families at (r1, a), when their relation
    a^2 = 25 r1^2 - 900 has a root a in Q(i)."""
    points = [[_F(0)] * 3 + list(p)
              for p in special_points()["sparse_solutions"]]
    fams, relation = stratum1_solution_families()
    a = _gaussian_sqrt(relation.evaluate({"r1": r[0]}))
    if a is not None:
        chart = [X_NAMES.index(n) for n in CHART_VARS]
        points += [[fam[i].evaluate({"r1": r[0], "a": a}) for i in chart]
                   for fam in fams]
    return points


# ---------------------------------------------------------------------------
# The projection argument: its two linear subspaces, the fiber's slices
# and the preimages of a target point


@lru_cache(maxsize=1)
def target_space_basis() -> tuple[tuple, ...]:
    """Spanning 9-vectors of the projection target (coordinate order y1..y12)."""
    def vec(**vals):
        v = [_F(0)] * 9
        for name, val in vals.items():
            v[Y_NAMES.index(name)] = _F(val)
        return tuple(v)

    return (
        vec(y8=1),
        vec(y7=-7, y9=1),
        vec(y11=1),
        vec(y12=1),
    )


@lru_cache(maxsize=1)
def center_space_vectors() -> tuple[tuple, ...]:
    """Spanning 9-vectors of the projection center at parameter zero."""
    pts = special_points()
    u_prime = tuple(pts["u_prime"].coords)
    u_dprime = tuple(pts["u_dprime_0"].coords)

    def unit(name):
        v = [_F(0)] * 9
        v[Y_NAMES.index(name)] = _F(1)
        return tuple(v)

    return (u_prime, u_dprime, unit("y1"), unit("y2"), unit("y3"))


def fiber_equations(r: tuple) -> list[MPoly]:
    """The chart-space fiber equations over r: two quadrics, then three
    linear forms, in Y_NAMES."""
    env = {"r1": r[0], "r2": r[1], "r3": r[2], "eps": _F(1)}
    return [e.substitute(env) for e in y_equations_4_5()]


def gaussian(z: complex) -> CycScalar:
    """A complex double as the exact Gaussian rational it is."""
    return CycScalar(_F(z.real), 0, _F(z.imag), 0)


# Centers of the projection (z1 : z2) of a plane, as coefficients over
# its basis (a, b, c); the third entry is nonzero, so the center can
# take the place of c.
PROJECTIONS = ((0, 0, 1), (1, 2, 3), (2, -3, 1))
PLANE_VARS = ("z1", "z2", "t")      # plane coordinates; t is lambda


def quadric_matrix(q: MPoly, names: tuple) -> dict:
    """The exact symmetric (n + 1) x (n + 1) matrix A of a polynomial q of
    degree at most 2 in the n variables `names`, as its nonzero entries
    {(i, j): a}: q = y^T A y over y = (x, 1), so a term c x_i x_j, i != j,
    puts c/2 at (i, j) and (j, i), c x_i^2 puts c at (i, i), c x_i puts
    c/2 at (i, n) and (n, i), and a constant c goes at (n, n).  A
    variable outside `names` or a term of degree above 2 raises
    ValueError."""
    stray = q.variables() - set(names)
    if stray:
        raise ValueError(f"stray variable {min(stray)} in a quadric over "
                         f"{names}")
    n, slots = len(names), [var_slot(v) for v in names]
    a = {}
    for mono, c in q.terms.items():
        e = exponents(mono)
        # the term's variables with multiplicity, padded by the slot n
        i, j, *rest = [v for v, s in enumerate(slots)
                       for _ in range(e[s])] + [n, n]
        if len(rest) > 2:
            raise ValueError("a quadric has degree at most 2")
        # each entry comes from one term
        a[i, j] = a[j, i] = c if i == j else c * _F(1, 2)
    return a


def _on_basis(q: MPoly, basis: list, names: tuple) -> dict:
    """The quadric q on span(basis), as the coefficient co[j, k] of
    w_j w_k, j <= k, in the plane coordinates w = PLANE_VARS of
    sum_k w_k basis[k]: the congruence B^T A B of q's matrix A
    (`quadric_matrix`), B the basis as columns, with the entries off
    the diagonal doubled.  A B is summed over A's nonzero entries and
    B^T (A B) over the basis vectors' nonzero coordinates.  A quadric
    that is not homogeneous raises ValueError."""
    a = quadric_matrix(q, names)
    n = len(names)
    if any(n in at for at in a):
        raise ValueError("only a homogeneous quadric restricts to a plane")
    images = [[_F(0)] * n for _ in basis]          # A b, b in the basis
    for (i, j), c in a.items():
        for image, b in zip(images, basis):
            image[i] += c * b[j]
    co = {}
    for j, k in itertools.combinations_with_replacement(range(3), 2):
        c = sum(x * y for x, y in zip(basis[j], images[k]) if x)
        co[j, k] = c if j == k else 2 * c
    return co


def conic_pair(plane: list, quadrics: tuple, names: tuple) -> dict:
    """Count the common points of two quadrics on a plane, exactly.

    `plane` is three exact vectors over the coordinates `names`.  In
    plane coordinates (z1, z2, t) each quadric is a conic, its matrix
    restricted to the plane by the congruence `_on_basis`,
    C_i = a_i t^2 + b_i t + c_i, with b_i linear and c_i quadratic in
    (z1, z2).  Eliminating t gives the Sylvester resultant
    R = K^2 - L M, a binary quartic, with K = a_2 c_1 - a_1 c_2,
    L = a_2 b_1 - a_1 b_2 and M = b_2 c_1 - b_1 c_2, as `BinaryForm`s.
    When (a_1, a_2) != 0 (the center (0 : 0 : 1) of the projection to
    (z1 : z2) is off one conic), R != 0 (no common component) and the
    discriminant 4 I^3 - J^2 of R is nonzero (R has four distinct
    roots), each root is the projection of at least one common point,
    so Bezout's 2 * 2 = 4 leaves exactly four, each transversal.  The
    tests are tried for each center of PROJECTIONS in turn: a zero
    discriminant may only mean that two common points lie on one line
    through the center.

    Returns the `count`, 4 when a projection proves the four points
    and else 0; the `reason` when none does, naming the test that
    failed for each center; the `projection` that proved them; the
    `eliminant` R as its coefficient list from z1^4 down to z2^4; and,
    when it is 4, what recovers the points: the plane `basis`, the center
    third, its two `conics`, and the `t_forms` (K, L), t = -K / L at a root.
    """
    out = {"count": 0, "reason": None, "projection": None, "eliminant": None}
    if len(plane) != 3:
        return {**out, "reason": f"the rows cut a {len(plane)}-dimensional "
                "space, not a plane"}
    a, b, _c = plane
    failures = []
    for center in PROJECTIONS:
        basis = [a, b, ExactMatrix.from_columns(plane).apply(center)]
        conics = [_on_basis(q, basis, names) for q in quadrics]
        (a1, b1, c1), (a2, b2, c2) = (
            (co[2, 2], BinaryForm(1, [co[0, 2], co[1, 2]]),
             BinaryForm(2, [co[0, 0], co[0, 1], co[1, 1]])) for co in conics)
        if not a1 and not a2:
            failures.append(f"from {center}: the center lies on both "
                            "conics")
            continue
        k = a2 * c1 - a1 * c2
        l = a2 * b1 - a1 * b2
        m = b2 * c1 - b1 * c2
        res = k * k - l * m
        if res.is_zero():
            failures.append(f"from {center}: the eliminant R vanishes "
                            "identically")
            continue
        qa, qb, qc, qd, qe = res.coeffs
        inv_i = 12 * qa * qe - 3 * qb * qd + qc * qc
        inv_j = (72 * qa * qc * qe + 9 * qb * qc * qd - 27 * qa * qd * qd
                 - 27 * qb * qb * qe - 2 * qc * qc * qc)
        if not 4 * inv_i * inv_i * inv_i - inv_j * inv_j:
            failures.append(f"from {center}: the discriminant "
                            "4 I^3 - J^2 of R is zero")
            continue
        return {**out, "count": 4, "projection": center,
                "eliminant": list(res.coeffs), "basis": basis,
                "conics": conics, "t_forms": (k, l)}
    return {**out, "reason": "; ".join(failures)}


def projection_data():
    """Exact data of the linear projection: the ranks of the center C and
    the target space T, the matrix [C | T], the dimension of their
    intersection, dim C + dim T - rank [C | T], and the target-coordinate
    extraction, rows 5..8 of the inverse, only when [C | T] inverts (so
    has rank 9; a singular one is reduced again, for its rank)."""
    centers = [list(v) for v in center_space_vectors()]
    targets = [list(v) for v in target_space_basis()]
    center_rank = ExactMatrix(centers).rank()
    target_rank = ExactMatrix(targets).rank()
    m = ExactMatrix.from_columns(centers + targets)
    try:
        extract_rows, rank = m.inverse().rows[5:9], m.ncols
    except ValueError:
        extract_rows, rank = None, m.rank()
    return {
        "center_rank": center_rank,
        "target_rank": target_rank,
        "intersection_dim": center_rank + target_rank - rank,
        "matrix": m,
        "extract_rows": extract_rows,
    }


def exact_preimage(n) -> dict:
    """The preimage on the parameter-origin fiber of the target point with
    exact target-basis coordinates n, as the meet of two lines.

    A point over [n] is c + lambda p, with c in the projection center and
    p = sum n_j t_j over the target basis.  The three linear fiber rows
    cut span(center, p) to a plane: the kernel of the rows on these six
    generators, whose two lambda = 0 vectors span the center line l and
    whose third has lambda = 1.  In plane coordinates (z1, z2, t = lambda)
    the congruence `_on_basis` restricts each quadric's matrix to
    Q_i = A_i + t B_i + c_i t^2, A_i quadratic and B_i linear in
    (z1, z2); with L_i = B_i + c_i t the identity Q_i = t L_i holds
    exactly when A_i = 0, that is when Q_i vanishes on l, and is
    checked, not assumed.  The preimages are the
    points of L_1 = L_2 = 0 off l: one when [L_1; L_2] has rank 2 and
    lambda is nonzero at the meet (a transversal meet), else none.

    Returns the basis `line` of l; the plane's `lift` of n, its point
    with lambda = 1; `factored`, whether both quadrics vanish on l, so
    that both identities hold; the `lines` as coefficient rows
    over PLANE_VARS and their `rank`; the `point`, or None; its `count`;
    and the `reason` when the count is 0.
    """
    equations = fiber_equations((_F(0), _F(0), _F(0)))
    quadrics, linear = equations[:2], equations[2:]
    targets = ExactMatrix.from_columns(target_space_basis())
    gens = [*center_space_vectors(), targets.apply(n)]
    kernel = ExactMatrix([[e.evaluate(dict(zip(Y_NAMES, g))) for g in gens]
                          for e in linear]).kernel_basis()
    span = ExactMatrix.from_columns(gens)
    line = [span.apply(k) for k in kernel if k[-1] == 0]
    out = {"line": line, "lift": None, "factored": False, "lines": [],
           "rank": 0, "point": None, "count": 0, "reason": None}
    if len(kernel) != 3 or len(line) != 2:
        return {**out, "reason": f"the linear rows cut span(center, p) to "
                f"dimension {len(kernel)}, with a {len(line)}-dimensional "
                "lambda = 0 part"}
    # the free generator p gives the one kernel vector with lambda = 1
    lift = next(span.apply(k) for k in kernel if k[-1] != 0)
    conics = [_on_basis(q, [*line, lift], Y_NAMES) for q in quadrics]
    factored = not any(co[0, 0] or co[0, 1] or co[1, 1] for co in conics)
    lines = [[co[0, 2], co[1, 2], co[2, 2]] for co in conics]
    meet = ExactMatrix(lines).kernel_basis()
    out.update(lift=lift, factored=factored, lines=lines,
               rank=3 - len(meet))
    if not factored:
        return {**out, "reason": "a quadric does not factor as "
                "lambda times a line on the plane"}
    if len(meet) != 1:
        return {**out, "reason": f"the lines L_1, L_2 have rank {out['rank']}"}
    if meet[0][2] == 0:
        return {**out, "reason": "the lines L_1, L_2 meet on the center line"}
    return {**out, "count": 1,
            "point": ExactMatrix.from_columns([*line, lift]).apply(meet[0])}


# ---------------------------------------------------------------------------
# Invariant subspace data


@lru_cache(maxsize=1)
def expected_h_fixed() -> tuple[list, ...]:
    return tuple(unit15(i) for i in (6, 7, 8, 9, 10, 11))


@lru_cache(maxsize=1)
def expected_full_group_fixed() -> tuple[list, ...]:
    v = [_F(0)] * 15
    v[6], v[8] = _F(5), _F(1)
    return (v, unit15(9))


@lru_cache(maxsize=1)
def module_decomposition() -> tuple[tuple[list, ...], ...]:
    """The stored seven-summand invariant decomposition (15 = 3+3+2+1+1+2+3)."""
    pair = [_F(0)] * 15
    pair[6], pair[8] = _F(7), _F(-1)
    inv = [_F(0)] * 15
    inv[6], inv[8] = _F(5), _F(1)
    return (
        (unit15(0), unit15(1), unit15(2)),
        (unit15(3), unit15(4), unit15(5)),
        (unit15(7), pair),
        (inv,),
        (unit15(9),),
        (unit15(10), unit15(11)),
        (unit15(12), unit15(13), unit15(14)),
    )


@lru_cache(maxsize=1)
def rotation_invariant_octics() -> tuple[list, ...]:
    """Octic 9-vectors spanning the order-3 generator's fixed space."""
    v1 = [_F(0)] * 9
    v1[6], v1[8] = _F(5), _F(1)
    v2: list = [_F(0)] * 9
    v2[3], v2[4], v2[5] = _F(8), -_I, _F(-1)
    v3: list = [_F(0)] * 9
    v3[0], v3[1], v3[2] = _F(4), -_I, _F(1)
    return (v1, v2, v3)


@lru_cache(maxsize=1)
def rotation_invariant_quartic() -> list:
    """Quartic 5-vector spanning the order-3 generator's fixed space."""
    v: list = [_F(0)] * 5
    v[2], v[3], v[4] = _F(2), _I, _F(1)
    return v


def expected_orbit_quadratic() -> MPoly:
    """The stored quadratic coefficient on the invariant-plane image."""
    return _poly([
        (120, {"alpha1": 1, "alpha3": 1}),
        (24 * _I, {"alpha2": 2}),
        (-312 * _I, {"alpha3": 2}),
    ])
