"""Homotopy continuation for the small polynomial systems.

A projective solve takes its homogeneous equations as term rows, lists
of (coefficient, exponent tuple) over a fixed variable order:
`_poly_terms` of an exact polynomial, or `_linear_row_terms` of a
random slice or alignment form with complex double coefficients.  The
caller concatenates the rows of one system.  Every system is compiled
once into a `CompiledSystem`: one term table, whose value and
derivative entries give F and its Jacobian in one pass.  The tracker
reads it as complex doubles and follows H = gamma (1 - t) G + t F from
the total-degree start system G = x^d - b, taken in closed form, with
its start constants and gamma drawn from the caller's seeded stream.
All paths of a system advance together as one (paths, n) stack, each
with its own step control, through stacked evaluations and solves; one
helper gives H and its Jacobian to the fourth-order Runge-Kutta
predictor, the short Newton corrector with adaptive step halving, and
the endpoint polish.
Whether an endpoint solves the system is decided once, by
`solve_projective`'s projective residual test; whether two points are
one, by `_matching` on the chordal distance `_chordal_each` in complex
doubles, for the endpoint merge, the census's H-images and the checks'
anchors alike.
Endpoints of the stratum systems are then re-polished by `mp_polish`
from the same table embedded at `WORKING_DPS` (the coefficients are
exact, so the refinement is limited only by working precision); this
is what lets the multiple-root classifier separate a genuine sixfold
root cluster from simple roots at CLUSTER_RADIUS.  Each
full Newton step solves J dx = F by `_mp_solve`, Gaussian elimination
with partial pivoting over lists of mpmath complexes, and the polish
stops on a step small relative to the point.  A census polishes and
classifies only one representative endpoint per orbit of the diagonal
subgroup H: the sign flips of H, rescaled onto the census chart, carry
the representative's polished point and labels to every endpoint they
match within TOL_MATCH, and an endpoint no image matches is polished
and classified on its own.  The same placement carries a reference
census's points and labels, census S's for the censuses at seeds S+1
and S+2, to the endpoints they match.  The
classifier takes the endpoint octic's roots from `mp.polyroots` at
`WORKING_DPS`, started from seeds that already resolve each root
cluster: double-precision roots, with every coarse group of them
replaced by the roots of the octic's local Taylor polynomial at the
group centroid, so the 40-digit iteration needs only a few
quadratically convergent steps where a cold start would creep toward a
sixfold root.  `embed_mp` is the one exact-to-mpmath embedding, for the
table, the parameter triple and the sign flips of H; it reads an exact
value through `as_cyc(v).coords`, one mpf quotient per nonzero
coordinate.

Preimages under the linear projection of the distinguished fiber are
not tracked but solved exactly over Q(zeta_8) by `exact_preimage`: the
linear fiber rows cut the span of the projection center and a target
lift to a plane, on which each quadric is lambda times a line, lambda
vanishing on the center line l that lies in both the center and the
fiber; the one preimage is the meet of the two lines.  One target is
still tracked as a cross-check, and its failed paths are explained by
their distance to l.  Fiber slices are not tracked either: the linear
fiber rows and three seeded slice rows cut a plane over Q(i), on which
the two quadrics are two conics, and `conic_pair` proves their four
transversal points from the discriminant of the eliminant; slice 0 is
still tracked as a cross-check.  Both kernels restrict a quadric to
their plane by one substitution, `_on_basis`.

The zero set tracked here is that of the literal (cross-doubled)
coordinate polynomials of the quadratic map: that is the system whose
zero set contains the multiple-root locus, so the component split the
census expects is a property of the literal system, not of the
unordered-pair tables (see the calibration notes in the bracket module).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import construction
from .binform import BinaryForm, expanded_coordinate_system
from .checks import CheckResult, _finish
from .construction import Y_NAMES
from .exlinalg import ExactMatrix, Subspace
from .mpoly import VAR_NAMES, MPoly, var_slot
from .scalar import CycScalar, as_cyc, as_exact

_F = Fraction

CHART_VARS = ("x1", "x2", "x3", "x7", "x8", "x9")
SAMPLE_R = (_F(10), _F(1, 2), _F(1, 3))     # the generic census triple


# Fixed limits of the tracker and the classifiers.
TOL_TRACK = 1e-10           # residual that accepts a path endpoint
TOL_DEDUP = 1e-6            # chordal distance that identifies two endpoints
TOL_RANK = 1e-8             # relative singular value counted in a rank
CLUSTER_RADIUS = 1e-4       # chordal radius that clusters an octic's roots
TOL_MATCH = 1e-8            # chordal distance that matches an exact anchor
SV_REGULAR = 1e-6           # smallest singular value of a regular endpoint
MIN_STEP = 1e-14
MAX_STEP = 0.1
MAX_PATH_ITERS = 20000      # corrector iterations before a path is stalled
FIRST_STEP = 0.05
CORRECTOR_ITERS = 3
POLISH_ITERS = 20           # double-precision endpoint Newton steps
MP_POLISH_ITERS = 12        # high-precision endpoint Newton steps
WORKING_DPS = 40            # decimal digits of the high-precision work
SEED_GROUP_RADIUS = 1e-2    # chordal radius that groups double roots
SEED_EXTRAPREC = 160        # extra bits of a cluster's local Taylor expansion


# ---------------------------------------------------------------------------
# Compilation: exact polynomials -> one term table per system, embedded
# as complex doubles for the tracker and at WORKING_DPS for the polish


def _zeta_powers() -> tuple:
    with mp.workdps(WORKING_DPS):
        zeta = mp.exp(mp.mpc(0, 1) * mp.pi / 4)
        return tuple(zeta ** k for k in range(4))


_ZETA_POWERS = _zeta_powers()       # 1, z, z^2, z^3 for z = exp(i pi/4)


def embed_mp(value):
    """An exact scalar, or a complex double, as an mpmath complex at the
    current precision (zeta_8 enters at WORKING_DPS)."""
    if isinstance(value, (complex, float)):
        return mp.mpc(complex(value))
    acc = mp.mpc(0)
    for c, zp in zip(as_cyc(value).coords, _ZETA_POWERS):
        if c:
            acc += (mp.mpf(c.numerator) / mp.mpf(c.denominator)) * zp
    return acc


def _poly_terms(poly: MPoly, var_order: tuple[str, ...]) -> list[tuple]:
    """Exact term list (coeff, exponent tuple) over the given variables."""
    idx = [var_slot(n) for n in var_order]
    idx_set = set(idx)
    out = []
    for mono, c in poly.terms.items():
        for pos, e in enumerate(mono):
            if e and pos not in idx_set:
                raise ValueError(
                    f"stray variable {VAR_NAMES[pos]} in compiled "
                    "polynomial")
        out.append((c, tuple(mono[i] for i in idx)))
    return out


def _linear_row_terms(coeffs, constant=0) -> list[tuple]:
    n = len(coeffs)
    terms = [(c, tuple(1 if j == i else 0 for j in range(n)))
             for i, c in enumerate(coeffs) if c != 0]
    if constant != 0:
        terms.append((constant, (0,) * n))
    return terms


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, with each of the four real products rounded on
    its own, as a sequential complex product rounds them; numpy's
    elementwise complex multiply may fuse a product into the sum (FMA),
    which moves the last bits."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class CompiledSystem:
    """A polynomial system as one term table, used at both precisions.

    Built from term lists (coefficient, exponent tuple) whose
    coefficients are exact scalars or complex doubles.  The table has a
    (row, coefficient, exponents) entry per term, then a (size + row *
    nvars + j, coefficient * e_j, exponents with e_j lowered) entry per
    term and variable j the term contains, so one pass gives F in the
    first `size` slots and the Jacobian in the rest.  It is embedded as
    complex doubles here, for the tracker, and at WORKING_DPS on the
    first `mp_polish`; at both precisions a derivative coefficient is
    the embedded coefficient times e_j.
    """

    def __init__(self, term_lists: list[list[tuple]], nvars: int) -> None:
        self.nvars = nvars
        self.size = len(term_lists)
        self.degrees = [max(sum(e) for _c, e in terms)
                        for terms in term_lists]
        self._terms = [(k, c, e) for k, row in enumerate(term_lists)
                       for c, e in row]
        self._mp_table = None
        table = self._table(complex)
        # the table's terms, then the term 0, which pads the slot sums
        zero = len(table)
        self._coeffs = np.array([c for _s, c, _e in table] + [0],
                                dtype=complex)
        # x_j^e is entry e * nvars + j of the power table; a term is the
        # product of its x_j^e_j with e_j > 0, in variable order, padded
        # with x_0^0 = 1 (a factor 1 leaves a finite product as it is);
        # one row per factor
        self._powers = np.arange(max(max(e) for _s, _c, e in table) + 1)
        factors = [[e[j] * nvars + j for j in range(nvars) if e[j]]
                   for _s, _c, e in table] + [[]]
        top = max(1, max(map(len, factors)))
        self._factors = np.array(
            [f + [0] * (top - len(f)) for f in factors]).T
        # slot s sums its terms in table order after a leading 0, as a
        # sequential sum from 0 does; column k of the (width, slots)
        # gather holds every slot's k-th summand
        members = [[] for _ in range(self.size * (1 + nvars))]
        for i, (slot, _c, _e) in enumerate(table):
            members[slot].append(i)
        width = 1 + max(map(len, members))
        self._gather = np.array(
            [[zero] + m + [zero] * (width - 1 - len(m))
             for m in members]).T.ravel()

    def _table(self, embed) -> list[tuple]:
        """The (slot, coefficient, exponents) entries, with every
        coefficient embedded by `embed`."""
        m, n = self.size, self.nvars
        coeffs = [embed(c) for _k, c, _e in self._terms]
        table = [(k, c, e) for c, (k, _c, e) in zip(coeffs, self._terms)]
        for c, (k, _c, e) in zip(coeffs, self._terms):
            for j in range(n):
                if e[j]:
                    d = list(e)
                    d[j] -= 1
                    table.append((m + k * n + j, c * e[j], tuple(d)))
        return table

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F and the Jacobian J, from one pass over the table, at a point
        of shape (nvars,) or at each row of a stack of shape (P, nvars).

        Every value is bitwise what a sequential sum of the terms gives
        at that one point, whatever the stack around it.
        """
        points = x.reshape(-1, self.nvars)
        count = len(points)
        powers = (points[:, None, :] ** self._powers[:, None]).reshape(
            count, len(self._powers) * self.nvars)
        factors = powers[:, self._factors]
        mono = factors[:, 0]
        for k in range(1, len(self._factors)):
            mono = _cmul(mono, factors[:, k])
        terms = self._coeffs * mono
        slots = self.size * (1 + self.nvars)
        out = terms[:, self._gather].reshape(
            count, len(self._gather) // slots, slots).sum(axis=1)
        m, shape = self.size, x.shape[:-1]
        return (out[:, :m].reshape(shape + (m,)),
                out[:, m:].reshape(shape + (m, self.nvars)))

    def mp_table(self) -> list[tuple]:
        """The table with coefficients embedded at WORKING_DPS, built on
        the first call."""
        if self._mp_table is None:
            with mp.workdps(WORKING_DPS):
                self._mp_table = self._table(embed_mp)
        return self._mp_table


def _mp_sum(table: list, slots: int, x: list) -> list:
    """Each table entry's term at x, summed into its slot."""
    out = [mp.mpc(0)] * slots
    for slot, c, e in table:
        prod = c
        for xx, ee in zip(x, e):
            if ee:
                prod *= xx ** ee
        out[slot] += prod
    return out


def _mp_solve(rows: list, rhs: list) -> list:
    """x with A x = b, for a square A given as rows of mpmath numbers.

    Gaussian elimination with partial pivoting on |re| + |im|, with 10
    guard bits, as mpmath's LU solver adds.  It raises ZeroDivisionError
    where mpmath's LU factorisation does: on a pivot whose magnitude is
    at most eps times the 1-norm of A (its largest column sum of
    magnitudes).  That norm costs a square root per entry, so it is
    taken only for a pivot with |re| + |im| at most 2n eps 2**top, where
    2**top bounds every |a_ij|; a larger pivot passes the test anyway.
    """
    n = len(rows)
    with mp.extraprec(10):
        top = max(mp.mag(v) for row in rows for v in row)
        clear = 2 * n * mp.eps * mp.mpf(2) ** top
        tol = None
        a = [row + [b] for row, b in zip(rows, rhs)]
        inverse = []
        for j in range(n):
            keys = [abs(row[j].real) + abs(row[j].imag) for row in a[j:]]
            big = max(keys)
            p = j + keys.index(big)
            a[j], a[p] = a[p], a[j]
            pivot = a[j]
            if big <= clear:
                if tol is None:
                    tol = mp.eps * max(
                        mp.fsum((row[k] for row in rows), absolute=True)
                        for k in range(n))
                if abs(pivot[j]) <= tol:
                    raise ZeroDivisionError("matrix is numerically singular")
            inverse.append(1 / pivot[j])
            for row in a[j + 1:]:
                f = row[j] * inverse[j]
                row[j + 1:] = [v - f * w
                               for v, w in zip(row[j + 1:], pivot[j + 1:])]
        x = [None] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            x[i] = (row[n] - mp.fsum(row[k] * x[k] for k in range(i + 1, n))
                    ) * inverse[i]
        return x


def mp_polish(system: CompiledSystem, x0: np.ndarray):
    """High-precision Newton refinement of a double-precision endpoint.

    It stops once every step is below 10^(4 - WORKING_DPS) relative to
    its coordinate, |dx_j| < 10^(4 - WORKING_DPS) (1 + |x_j|), since the
    rounding noise of a step grows with the size of the point."""
    table = system.mp_table()
    m, n = system.size, system.nvars
    with mp.workdps(WORKING_DPS):
        tol = mp.mpf(10) ** (-WORKING_DPS + 4)
        x = [mp.mpc(v) for v in x0]
        for _ in range(MP_POLISH_ITERS):
            out = _mp_sum(table, m * (1 + n), x)
            jac = [out[m + i * n:m + (i + 1) * n] for i in range(m)]
            try:
                dx = _mp_solve(jac, out[:m])
            except ZeroDivisionError:       # a singular Jacobian
                break
            x = [xv - dv for xv, dv in zip(x, dx)]
            if all(abs(d) < tol * (1 + abs(v)) for d, v in zip(dx, x)):
                break
        return x


# ---------------------------------------------------------------------------
# Path tracking


@dataclass
class PathResult:
    """One tracked path: its terminal status; its last iterate x, the
    last polish iterate of an `accepted` or `polish` path and the last
    point a `stalled` or `diverged` path accepted; and its corrector
    plus polish iterations, not the predictor's stage solves."""

    index: int
    status: str                     # accepted | stalled | diverged | polish
    x: np.ndarray
    steps: int = 0


@dataclass
class Endpoint:
    x: np.ndarray                   # affine coordinates on the solve's chart
    sv_min: float


def _rng(seed, *tags) -> random.Random:
    return random.Random(":".join([str(seed), *map(str, tags)]))


def _unit_row(rng: random.Random, n: int) -> np.ndarray:
    row = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                    for _ in range(n)])
    return row / np.linalg.norm(row)


def _start_data(degrees: list[int], rng: random.Random):
    """Unit-circle constants and all start roots of x_i^d_i = b_i."""
    consts = [cmath.exp(2j * math.pi * rng.random()) for _ in degrees]
    roots = []
    for d, b in zip(degrees, consts):
        mag = abs(b) ** (1.0 / d)
        ang = cmath.phase(b) / d
        roots.append([mag * cmath.exp(1j * (ang + 2 * math.pi * k / d))
                      for k in range(d)])
    return consts, roots


def _start_system(x: np.ndarray, start: tuple
                  ) -> tuple[np.ndarray, np.ndarray]:
    """G = x^d - b and its diagonal Jacobian, in closed form, for the
    start pair (d, b), at a point x or at each row of a stack."""
    degrees, consts = start
    n = x.shape[-1]
    jac = np.zeros(x.shape + (n,), dtype=complex)
    jac[..., range(n), range(n)] = degrees * x ** (degrees - 1)
    return x ** degrees - consts, jac


def _norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a stack, bitwise `np.linalg.norm` of
    that row: both take the dot products of the real and imaginary
    parts as BLAS computes them."""
    re, im = x.real[:, None, :], x.imag[:, None, :]
    squares = re @ x.real[:, :, None] + im @ x.imag[:, :, None]
    return np.sqrt(squares[:, 0, 0])


def _solve_stack(a: np.ndarray, b: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The solutions of a[k] y = b[k], and which members were solvable.

    One singular member makes the stacked solve raise, so then each
    member is solved alone and only the singular ones are flagged.
    """
    try:
        return (np.linalg.solve(a, b[..., None])[..., 0],
                np.ones(len(a), dtype=bool))
    except np.linalg.LinAlgError:
        y = np.zeros_like(b)
        ok = np.ones(len(a), dtype=bool)
        for k in range(len(a)):
            try:
                y[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return y, ok


def _predict(homotopy, x: np.ndarray, t: np.ndarray, h: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """One classical fourth-order Runge-Kutta step of length h along
    dx/dt = -H_x^-1 H_t from the rows of x at the entries of t, where
    `homotopy(x, t)` gives H, H_x and H_t at stacked rows.  Returns the
    predicted rows and which rows had all four stage solves regular."""
    def velocity(y, s):
        _hv, jac, ht = homotopy(y, s)
        return _solve_stack(jac, -ht)

    half = 0.5 * h
    k1, ok1 = velocity(x, t)
    k2, ok2 = velocity(x + half[:, None] * k1, t + half)
    k3, ok3 = velocity(x + half[:, None] * k2, t + half)
    k4, ok4 = velocity(x + h[:, None] * k3, t + h)
    step = (h / 6.0)[:, None] * (k1 + 2.0 * (k2 + k3) + k4)
    return x + step, ok1 & ok2 & ok3 & ok4


def track(system: CompiledSystem, rng: random.Random
          ) -> tuple[list[PathResult], int]:
    """Track every total-degree path of a square system, with the start
    constants and gamma drawn from `rng`.

    The paths of H = gamma (1 - t) G + t F run from the roots of the
    start system G = x^d - b at t = 0 to the target F at t = 1.  They
    advance together, as one stack, but each with its own t, step size
    and iteration count: a round takes one fourth-order Runge-Kutta
    predictor step (`_predict`, four stacked stage solves) for every path
    still moving, then up to CORRECTOR_ITERS Newton corrector steps for
    the paths still correcting, and then each path accepts (and grows its
    step by 1.5, up to MAX_STEP) or halves its step by itself; a path
    with a singular predictor stage halves its step too.  Paths that
    reach t = 1 get the endpoint Newton polish on F, stacked the same
    way.  So each path takes exactly the steps, and ends at exactly the
    point, it would reach tracked alone.

    Returns the per-path results and the Bézout path count.  One
    endpoint attempt per path, `accepted` when its polish converges (the
    caller gates the residual); failures carry their terminal status and
    their last iterate.  A path's `steps`, and the MAX_PATH_ITERS cap on
    them, count its corrector and polish iterations only, not the
    predictor's stage solves.
    """
    n = system.nvars
    if system.size != n:
        raise ValueError("tracker needs a square system")
    degrees = system.degrees
    consts, roots = _start_data(degrees, rng)
    gamma = cmath.exp(2j * math.pi * rng.random())
    start = np.array(degrees), np.array(consts)

    def homotopy(x, t):
        """H and its x-Jacobian at the rows of x and the entries of t,
        and dH/dt."""
        g, jg = _start_system(x, start)
        f, jf = system.evaluate(x)
        s = gamma * (1.0 - t)
        return (s[:, None] * g + t[:, None] * f,
                s[:, None, None] * jg + t[:, None, None] * jf,
                -gamma * g + f)

    def newton(x, t, paths, iters, tol):
        """Up to `iters` Newton steps on H(., t) from the rows of x, one
        row per path in `paths`, counted in its steps.  A row stops once
        its step is below tol times (1 + |x|), converged, or at a singular
        Jacobian.  Returns the last iterates and the converged rows."""
        converged = np.zeros(len(paths), dtype=bool)
        act = np.arange(len(paths))
        for _ in range(iters):
            if not act.size:
                break
            hv, jac, _ht = homotopy(x[act], t[act])
            delta, ok = _solve_stack(jac, hv)
            act, delta = act[ok], delta[ok]
            xa = x[act] - delta
            x[act] = xa
            steps[paths[act]] += 1
            small = _norms(delta) < tol * (1.0 + _norms(xa))
            converged[act[small]] = True
            act = act[~small]
        return x, converged

    x = np.array([[roots[i][k] for i, k in enumerate(choice)]
                  for choice in itertools.product(*map(range, degrees))],
                 dtype=complex)
    count = len(x)
    t = np.zeros(count)
    h = np.full(count, FIRST_STEP)
    steps = np.zeros(count, dtype=np.int64)
    status = ["polish"] * count         # until its endpoint passes
    running = np.ones(count, dtype=bool)

    def finish(paths, why):
        running[paths] = False
        for i in paths:
            status[i] = why

    live = np.arange(count)
    while live.size:
        h[live] = np.minimum(h[live], 1.0 - t[live])
        xp, ok = _predict(homotopy, x[live], t[live], h[live])
        moving = live[ok]
        tn = t[moving] + h[moving]
        xn, converged = newton(xp[ok], tn, moving, CORRECTOR_ITERS, 1e-9)
        done = moving[converged]
        x[done] = xn[converged]
        t[done] = tn[converged]
        h[done] = np.minimum(h[done] * 1.5, MAX_STEP)
        finish(done[_norms(x[done]) > 1e10], "diverged")
        failed = np.concatenate([live[~ok], moving[~converged]])
        h[failed] *= 0.5
        finish(failed[h[failed] < MIN_STEP], "stalled")
        live = live[running[live] & (t[live] < 1.0)]
        capped = steps[live] > MAX_PATH_ITERS
        finish(live[capped], "stalled")
        live = live[~capped]

    # Endpoint polish on the target system, H at t = 1.
    polished = np.flatnonzero(running)
    x[polished], converged = newton(x[polished], np.ones(len(polished)),
                                    polished, POLISH_ITERS, 1e-13)
    for i in polished[converged]:
        status[i] = "accepted"
    return [PathResult(i, status[i], x=x[i].copy(), steps=int(steps[i]))
            for i in range(count)], count


def _chordal_each(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Chordal distance of the projective point a to each row of a stack
    (or of each row of a stack a to the same row of `points`), the sine
    of the angle between representatives, from the 2x2 minors (each
    taken twice, as (i, j) and (j, i)), so nearby points keep their
    digits.  Entries are complex doubles, or mpmath values in object
    arrays, then taken at the current precision; the result is doubles."""
    minors = (a[..., :, None] * points[..., None, :]
              - a[..., None, :] * points[..., :, None])
    cross = 0.5 * np.sum(np.abs(minors) ** 2, axis=(-2, -1))
    norms = (np.sum(np.abs(a) ** 2, axis=-1)
             * np.sum(np.abs(points) ** 2, axis=-1))
    return np.sqrt(np.asarray(cross / norms, dtype=float))


def _matching(points, target, tol: float) -> list[int]:
    """Indices of the points, complex double vectors, within chordal
    distance tol of the target."""
    stack = np.asarray(points, dtype=complex).reshape(-1, len(target))
    near = _chordal_each(np.asarray(target, dtype=complex), stack)
    return np.flatnonzero(near < tol).tolist()


def _dedup(endpoints: list[Endpoint]) -> list[Endpoint]:
    """The endpoints in order, less each one within TOL_DEDUP of an
    endpoint kept before it."""
    reps: list[Endpoint] = []
    for e in endpoints:
        if not _matching([r.x for r in reps], e.x, TOL_DEDUP):
            reps.append(e)
    return reps


def solve_projective(rows: list[list[tuple]], var_order: tuple[str, ...],
                     seed, tag: str) -> dict:
    """Chart-fix, track, polish, rescue, and deduplicate a projective system.

    `rows` are the homogeneous equations as term rows over `var_order`
    (`_poly_terms` of an exact polynomial, or `_linear_row_terms` of a
    slice or alignment form).  A random unit-norm chart form set to 1
    makes the system square.  The one residual gate: an endpoint `track`
    accepts is kept only if every homogeneous row is below TOL_TRACK at
    its unit-norm representative (NaN fails), else its path turns
    `polish`; the Jacobian there gives its smallest singular value.  If
    any path fails, every path is tracked again on a fresh second random
    chart, and each endpoint found there is rescaled onto the first,
    x / (c . x); `_dedup` merges them after the first chart's into
    `distinct`, all on `chart`, the first chart's c, and solving
    `system`.  `rescue_added` counts the rescued ones in `distinct`, and
    `accepted_count` adds them to the first chart's accepted paths.
    `failed` lists the first chart's failed paths as (index, status);
    `failures` holds the failed `PathResult`s of each chart that ran,
    each with its last iterate.
    """
    n = len(var_order)
    rng = _rng(seed, tag)

    def run_chart(chart_id: int):
        chart = _unit_row(rng, n)
        system = CompiledSystem(
            rows + [_linear_row_terms(list(chart), constant=-1.0)], n)
        path_rng = _rng(seed, tag, "paths", chart_id)
        results, count = track(system, path_rng)
        accepted = []
        for r in results:
            if r.status != "accepted":
                continue
            # the chart row, last, is pinned to 1 by construction
            vals, jac = system.evaluate(r.x / np.linalg.norm(r.x))
            if not np.max(np.abs(vals[:-1]), initial=0.0) < TOL_TRACK:
                r.status = "polish"
                continue
            sv = np.linalg.svd(jac, compute_uv=False)
            accepted.append(Endpoint(x=r.x, sv_min=float(sv[-1])))
        return chart, system, results, accepted, count

    chart, system, results, accepted, path_count = run_chart(0)
    failures = [[r for r in results if r.status != "accepted"]]
    distinct = _dedup(accepted)
    first = len(distinct)
    if failures[0]:
        _chart2, _sys2, results2, accepted2, _c2 = run_chart(1)
        failures.append([r for r in results2 if r.status != "accepted"])
        distinct = _dedup(distinct + [Endpoint(x=e.x / (chart @ e.x),
                                               sv_min=e.sv_min)
                                      for e in accepted2])
    rescue_added = len(distinct) - first
    return {
        "system": system,
        "chart": chart,
        "accepted_count": len(accepted) + rescue_added,
        "distinct": distinct,
        "path_count": path_count,
        "failed": [(r.index, r.status) for r in failures[0]],
        "failures": failures,
        "rescue_added": rescue_added,
    }


# ---------------------------------------------------------------------------
# The stratum census


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


def octic_root_clusters(vec9):
    """Root clusters of the octic with the given basis coordinates.

    The roots are those of `_octic_roots`: 40-digit `polyroots` roots
    started from cluster-resolved double-precision seeds, with vanishing
    leading coefficients counted as roots at infinity.  They are
    clustered by spherical (chordal) distance with a union-find at the
    given radius.  Returns the sorted cluster sizes.
    """
    with mp.workdps(WORKING_DPS):
        basis = construction.octic_basis()
        vec = [v if isinstance(v, mp.mpc) else mp.mpc(v) for v in vec9]
        coeffs = []
        for d in range(9):
            acc = mp.mpc(0)
            for v, form in zip(vec, basis):
                base = form.coeffs[d]      # an integer
                if base:
                    acc += v * int(base)
            coeffs.append(acc)
        if all(c == 0 for c in coeffs):
            return [9]
        groups = _chordal_groups(_octic_roots(coeffs), CLUSTER_RADIUS)
        return sorted((len(g) for g in groups), reverse=True)


def _chordal_groups(points: list, radius: float) -> list[list[int]]:
    """Indices of the projective points, grouped by chains of chordal
    distance below the radius (a union-find).

    Each pair is decided on the distance of the points rounded to
    complex doubles, which is within about 1e-15 of the exact one; only
    a distance within 1e-12 of the radius is taken again from the points
    themselves."""
    parent = list(range(len(points)))
    doubles = np.array([[complex(v) for v in p] for p in points])

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first, second = np.triu_indices(len(points), 1)  # combinations order
    for i, j, d in zip(first.tolist(), second.tolist(),
                       _chordal_each(doubles[first], doubles[second])):
        if abs(d - radius) <= 1e-12:
            d = _chordal_each(np.array(points[i], dtype=object),
                              np.array(points[j], dtype=object))
        if d < radius:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _octic_roots(coeffs: list) -> list[tuple]:
    """The roots of a nonzero binary octic, as projective points (z, 1),
    or (1, 0) at infinity, at WORKING_DPS.

    `coeffs[d]` multiplies z1^(8-d) z2^d, so in z = z1/z2 the list is
    highest-first.  After normalization, leading coefficients below 1e-30
    are roots at infinity; `mp.polyroots` finds the others from the
    start points of `_seed_roots`, widening its budget if it must.
    """
    with mp.workdps(WORKING_DPS):
        scale = max(abs(c) for c in coeffs)
        normalized = [c / scale for c in coeffs]
        at_infinity = 0
        while normalized and abs(normalized[0]) < mp.mpf("1e-30"):
            normalized.pop(0)
            at_infinity += 1
        finite = []
        if len(normalized) > 1:
            seeds = _seed_roots(normalized)
            # A cold start crawls toward a multiple root; the seeds make
            # the first rung enough, the wider ones are the fallback.
            ladder = ((300, 120), (1000, 240), (3000, 480))
            for attempt, (maxsteps, extraprec) in enumerate(ladder):
                try:
                    finite = mp.polyroots(normalized, maxsteps=maxsteps,
                                          extraprec=extraprec, error=False,
                                          roots_init=seeds)
                    break
                except mp.libmp.NoConvergence:
                    if attempt == len(ladder) - 1:
                        raise
        one, zero = mp.mpc(1), mp.mpc(0)
        return [(z, one) for z in finite] + [(one, zero)] * at_infinity


def _seed_roots(coeffs: list) -> list:
    """Start points for `mp.polyroots` on a highest-first polynomial.

    The centroid of a k-root cluster is well conditioned (Zeng, Math.
    Comp. 2005), so the double-precision roots already place every
    cluster.  They are grouped at chordal radius SEED_GROUP_RADIUS, and
    each group of k >= 2 is replaced by the roots of the polynomial's
    local degree-k polynomial at the group centroid, in u = 1/z on the
    reversed coefficients when the group's mean modulus is above 1.
    """
    doubles = np.roots([complex(c) for c in coeffs])
    seeds = [mp.mpc(z) for z in doubles]
    for group in _chordal_groups([(z, 1.0) for z in doubles],
                                 SEED_GROUP_RADIUS):
        if len(group) < 2:
            continue
        far = float(np.mean(np.abs(doubles[group]))) > 1.0
        chart = 1.0 / doubles[group] if far else doubles[group]
        local = _local_roots(coeffs[::-1] if far else coeffs,
                             complex(np.mean(chart)), len(group))
        if local is not None:
            for i, u in zip(group, local):
                seeds[i] = 1 / u if far else u
    return seeds


def _local_roots(coeffs: list, center: complex, k: int) -> list | None:
    """The roots of the degree-k truncation of a highest-first
    polynomial's Taylor expansion at the center, or None if the
    truncation is degenerate.

    The Taylor coefficients b_j come from k + 1 synthetic divisions by
    (z - center) at SEED_EXTRAPREC extra bits; w = s v with
    s = max_{j<k} |b_j / b_k|^(1/(k-j)) scales them to modulus at most 1
    for `np.roots`.
    """
    with mp.extraprec(SEED_EXTRAPREC):
        c = mp.mpc(center)
        taylor, rest = [], list(coeffs)
        for _ in range(k + 1):
            acc, quotient = mp.mpc(0), []
            for a in rest:
                acc = acc * c + a
                quotient.append(acc)
            taylor.append(quotient.pop())
            rest = quotient
        lead = taylor[k]
        if lead == 0:
            return None
        s = max(abs(taylor[j] / lead) ** (mp.mpf(1) / (k - j))
                for j in range(k))
        if s == 0:
            return None
        scaled = [complex(taylor[j] * s ** (j - k) / lead)
                  for j in range(k, -1, -1)]
    return [c + s * mp.mpc(v) for v in np.roots(scaled)]


@dataclass
class StratumPoint:
    coords: list                    # polished high-precision 6-vector
    stratum: str                    # "L0" | "L1" | "L2" | "L3" | "Lopen" | "?"
    multiple_root: bool


@dataclass
class StratumCensus:
    partition: dict
    points: list[StratumPoint]
    path_count: int
    accepted_count: int
    distinct_count: int
    failed: list
    rescue_added: int
    min_sv: float
    notes: list[str] = field(default_factory=list)
    unmatched: list[int] = field(default_factory=list)   # off the reference


def _classify_point(point_mp, r) -> tuple[str, bool]:
    """Stratum label and multiple-root flag for a polished chart point."""
    norm = mp.sqrt(sum(abs(c) ** 2 for c in point_mp))
    unit = [c / norm for c in point_mp]
    zero = [abs(unit[i]) < TOL_MATCH for i in range(3)]
    nz = [i for i, z in enumerate(zero) if not z]
    if len(nz) == 0:
        stratum = "L0"
    elif len(nz) == 1:
        stratum = f"L{nz[0] + 1}"
    elif len(nz) == 3:
        stratum = "Lopen"
    else:
        stratum = "?"
    vec9 = construction.octic_vector_on_slice([embed_mp(v) for v in r], unit)
    sizes = octic_root_clusters(vec9)
    return stratum, sizes[0] >= 6


def admissible_triple(r: tuple) -> tuple:
    """The parameter triple as exact scalars; raises ValueError when it
    zeroes a leading-coefficient inequation (the excluded locus)."""
    r = tuple(map(as_exact, r))
    for ineq in construction.domain_inequations():
        if ineq.evaluate({"r1": r[0], "r2": r[1], "r3": r[2]}) == 0:
            raise ValueError("parameter triple violates the leading-"
                             "coefficient inequations")
    return r


def count_stratum_points(r: tuple, seed,
                         reference: StratumCensus | None = None
                         ) -> StratumCensus:
    """Track the five restricted quadrics and classify every endpoint.

    The partition counts endpoints by coordinate-vanishing stratum and,
    within each stratum, by the multiple-root classifier (a sixfold or
    larger root cluster) versus its complement.  Runs are deterministic
    in (r, seed, reference).

    A labelled 40-digit point is placed on this census by rescaling it
    onto the census chart, x / (c . x), and matching it against the
    double endpoints at chordal distance TOL_MATCH; distinct endpoints
    are TOL_DEDUP apart, so it meets at most one.  A matched endpoint
    not yet labelled takes the rescaled point as its coordinates and the
    point's labels.

    A reference census, census S of the same triple at another seed, is
    placed first, point by point: a matched endpoint is the same point
    as one of census S, so it needs no polish or classification of its
    own.  `unmatched` lists the endpoints no reference point matched, in
    order; they go on to the walk below like any other.

    The diagonal subgroup H (`h_orbit_signs`) maps the system's zero set
    to itself and keeps both labels, so only one endpoint per H-orbit is
    polished and classified.  The endpoints still unlabelled are walked
    in order; the first one not yet covered is a representative, and
    each H-image of its polished point, its coordinates' signs flipped,
    is placed.  An endpoint no image matches becomes a representative in
    its turn, so the reference and the symmetry save work but never
    decide a label.
    """
    r = admissible_triple(r)
    rows = [_poly_terms(q, CHART_VARS) for q in literal_restricted_quadrics(r)]
    run = solve_projective(rows, CHART_VARS, seed,
                           f"stratum:{r[0]},{r[1]},{r[2]}")
    sys6: CompiledSystem = run["system"]
    distinct = run["distinct"]
    ends = np.array([e.x for e in distinct])
    points: list = [None] * len(distinct)
    min_sv = min((e.sv_min for e in distinct), default=math.inf)
    with mp.workdps(WORKING_DPS):
        chart = [mp.mpc(c) for c in run["chart"]]

        def place(coords: list, stratum: str, multiple: bool) -> None:
            scale = mp.fsum(a * b for a, b in zip(chart, coords))
            image = [c / scale for c in coords]
            for k in _matching(ends, [complex(c) for c in image], TOL_MATCH):
                if points[k] is None:
                    points[k] = StratumPoint(coords=image, stratum=stratum,
                                             multiple_root=multiple)

        unmatched = []
        if reference is not None:
            for p in reference.points:
                place(p.coords, p.stratum, p.multiple_root)
            unmatched = [i for i, p in enumerate(points) if p is None]
        flips = [[embed_mp(s) for s in signs] for signs in h_orbit_signs()]
        for i, e in enumerate(distinct):
            if points[i] is not None:
                continue
            coords = mp_polish(sys6, e.x)
            stratum, multiple = _classify_point(coords, r)
            points[i] = StratumPoint(coords=coords, stratum=stratum,
                                     multiple_root=multiple)
            for flip in flips:
                place([s * c for s, c in zip(flip, coords)], stratum,
                      multiple)
    # report order: L0, then each other stratum split by the multiple-root
    # classifier (X1) or not (X2)
    partition = dict.fromkeys(
        ["L0"] + [f"{s}_X{k}" for s in ("L1", "L2", "L3", "Lopen")
                  for k in (1, 2)], 0)
    notes = []
    for p in points:
        key = p.stratum if p.stratum == "L0" \
            else f"{p.stratum}_X{1 if p.multiple_root else 2}"
        if key in partition:
            partition[key] += 1
        else:
            notes.append("endpoint with exactly one vanishing leading "
                         "coordinate (unclassifiable)")
    return StratumCensus(partition=partition, points=points,
                         path_count=run["path_count"],
                         accepted_count=run["accepted_count"],
                         distinct_count=len(run["distinct"]),
                         failed=run["failed"],
                         rescue_added=run["rescue_added"],
                         min_sv=min_sv, notes=notes, unmatched=unmatched)


def h_orbit_signs() -> list[tuple]:
    """Sign vectors of the diagonal subgroup on the six chart coordinates,
    read off the stored generator matrices."""
    table = construction.action_table()
    idx = [0, 1, 2, 6, 7, 8]
    om = ExactMatrix(construction.octic_block(table["omega"]))
    rh = ExactMatrix(construction.octic_block(table["rho"]))
    return [tuple(mat.rows[i][i] for i in idx)
            for mat in (ExactMatrix.identity(9), om, rh, om * rh)]


def u_dprime_image(census: StratumCensus):
    """Chart images of the non-multiple-root open-stratum points.

    Returns (the images, a (k, 9) array of complex doubles, their
    largest pairwise chordal distance).
    """
    coords = [[complex(c) for c in p.coords] for p in census.points
              if p.stratum == "Lopen" and not p.multiple_root]
    images = np.array([[x2 * x3 / x1, x3 * x1 / x2, x1 * x2 / x3,
                        x7, x8, x9, 0, 0, 0]
                       for x1, x2, x3, x7, x8, x9 in coords],
                      dtype=complex).reshape(-1, 9)
    spread = max((float(np.max(_chordal_each(y, images))) for y in images),
                 default=0.0)
    return images, spread


# ---------------------------------------------------------------------------
# The fiber probe


def _fiber_equations(r: tuple) -> list[MPoly]:
    """The chart-space fiber equations over r: two quadrics, then three
    linear forms, in Y_NAMES."""
    env = {"r1": r[0], "r2": r[1], "r3": r[2], "eps": _F(1)}
    return [e.substitute(env) for e in construction.y_equations_4_5()]


def _fiber_rows(r: tuple) -> list[list[tuple]]:
    """The chart-space fiber equations over r, as term rows in Y_NAMES."""
    return [_poly_terms(e, Y_NAMES) for e in _fiber_equations(r)]


def _numeric_rank(mat: np.ndarray) -> int:
    """The number of singular values above TOL_RANK times the largest."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > TOL_RANK * sv[0]))


def _gaussian(z: complex) -> CycScalar:
    """A complex double as the exact Gaussian rational it is."""
    return CycScalar(_F(z.real), 0, _F(z.imag), 0)


# Centers of the projection (z1 : z2) of a plane, as coefficients over
# its basis (a, b, c); the third entry is nonzero, so the center can
# take the place of c.
PROJECTIONS = ((0, 0, 1), (1, 2, 3), (2, -3, 1))
PLANE_VARS = ("z1", "z2", "t")      # plane coordinates; t is lambda


def _form_value(f: BinaryForm, z1: complex, z2: complex) -> complex:
    n = f.degree
    return sum(complex(c) * z1 ** (n - k) * z2 ** k
               for k, c in enumerate(f.coeffs))


def _conic_newton(w: np.ndarray, gram: list) -> np.ndarray:
    """Two Newton steps on the conics w^T G w = 0, for G in `gram`, from
    the plane point w, on the affine chart through w normal to it.  The
    roots of the eliminant R can lose digits that the conic pair itself
    keeps; these steps win them back."""
    chart = w.conj() / np.vdot(w, w)
    for _ in range(2):
        jac = np.array([2 * g @ w for g in gram] + [chart])
        w = w - np.linalg.solve(jac, [w @ g @ w for g in gram] + [0])
    return w


def _on_basis(q: MPoly, basis: list, names: tuple) -> dict:
    """The quadric q on span(basis), as the coefficient co[j, k] of
    w_j w_k, j <= k, in the plane coordinates w = PLANE_VARS of
    sum_k w_k basis[k]: one substitution, read back monomial by
    monomial."""
    z1, z2, t = (MPoly.var(v) for v in PLANE_VARS)
    restricted = q.substitute({name: z1 * a + z2 * b + t * c
                               for name, a, b, c in zip(names, *basis)})
    return {(j, k): restricted.coeff(Counter((PLANE_VARS[j], PLANE_VARS[k])))
            for j, k in itertools.combinations_with_replacement(range(3), 2)}


def conic_pair(plane: list, quadrics: tuple, names: tuple) -> dict:
    """Count the common points of two quadrics on a plane, exactly.

    `plane` is three exact vectors over the coordinates `names`.  In
    plane coordinates (z1, z2, t) each quadric is, by `_on_basis`, a conic
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
    `eliminant` R as its coefficient list from z1^4 down to z2^4; and
    the `points` as complex double vectors over `names`: each root of
    R from `np.roots`, t from the linear K + L t, two Newton steps on
    the conic pair, mapped through the basis.
    """
    out = {"count": 0, "reason": None, "projection": None, "eliminant": None,
           "points": []}
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
        roots = [(complex(u), 1.0) for u in
                 np.roots([complex(v) for v in res.coeffs])]
        if not qa:
            roots.append((1.0, 0.0))        # the root z2 = 0
        gram = [np.array([[complex(co[min(i, j), max(i, j)])
                           * (1.0 if i == j else 0.5) for j in range(3)]
                          for i in range(3)]) for co in conics]
        frame = np.array([[complex(v) for v in vec] for vec in basis])
        points = [_conic_newton(np.array(
            [z1, z2, -_form_value(k, z1, z2) / _form_value(l, z1, z2)]),
            gram) @ frame for z1, z2 in roots]
        return {**out, "count": 4, "projection": center,
                "eliminant": list(res.coeffs), "points": points}
    return {**out, "reason": "; ".join(failures)}


def _slice_rows(r: tuple, seed, s: int) -> list[np.ndarray]:
    """The three seeded unit rows of fiber slice s over r."""
    rng = _rng(seed, "fiber-slice", r, s)
    return [_unit_row(rng, 9) for _ in range(3)]


def exact_slice(r: tuple, seed, s: int) -> dict:
    """`conic_pair` of fiber slice s over r: the three linear fiber rows
    and the slice's three seeded rows, whose double entries are exact
    Gaussian rationals, cut a plane over Q(i), and the two quadrics are
    two conics on it."""
    r = tuple(map(as_exact, r))
    equations = _fiber_equations(r)
    rows = [[e.coeff({y: 1}) for y in Y_NAMES] for e in equations[2:]]
    rows += [[_gaussian(z) for z in row] for row in _slice_rows(r, seed, s)]
    return conic_pair(ExactMatrix(rows).kernel_basis(), equations[:2],
                      Y_NAMES)


def fiber_probe(r: tuple, seed, slice_count: int) -> dict:
    """Slice the chart-space fiber over r and collect geometry evidence.

    Each seeded codimension-3 slice cuts the fiber to two conics on a
    plane, counted exactly by `exact_slice`.  Slice 0 is also tracked
    by homotopy as a cross-check: `cross_check` holds its path count
    and, per distinct endpoint, the chordal distance to the nearest
    exact-plane point.  The sampled points are slice 0's tracked
    endpoints, then the exact-plane points of the other slices; the
    fiber Jacobian, `fiber_jacobian`, and its numeric rank are read at
    the first, scaled to unit norm.  Runs are deterministic in the
    arguments.
    """
    r = tuple(map(as_exact, r))
    base_rows = _fiber_rows(r)
    slices = [exact_slice(r, seed, s) for s in range(slice_count)]
    extra = [_linear_row_terms(list(row)) for row in _slice_rows(r, seed, 0)]
    run = solve_projective(base_rows + extra, Y_NAMES, seed, f"fiber:{r}:0")
    tracked = [e.x for e in run["distinct"]]
    exact0 = np.array(slices[0]["points"])
    chordal = [float(np.min(_chordal_each(x, exact0))) if len(exact0)
               else math.inf for x in tracked]
    sampled_points = tracked + [p for sl in slices[1:] for p in sl["points"]]
    if not sampled_points:
        raise RuntimeError("no fiber slice produced a point")
    _vals, jac = CompiledSystem(base_rows, 9).evaluate(
        sampled_points[0] / np.linalg.norm(sampled_points[0]))
    return {
        "slice_counts": [sl["count"] for sl in slices],
        "slice_reasons": [sl["reason"] for sl in slices],
        "projections": [sl["projection"] for sl in slices],
        "cross_check": {"path_count": run["path_count"], "chordal": chordal},
        "sampled_points": sampled_points,
        "fiber_jacobian": jac,
        "fiber_jacobian_rank": _numeric_rank(jac),
    }


class NumericRun:
    """The census results of one battery run, shared by its numeric
    checks.

    Each distinct census is computed once, by whichever check asks for
    it first, through the module's `count_stratum_points`, so a tracer
    that wraps that attribute sees every computation.  A census asked
    for with a reference census takes its matched endpoints' labels from
    it; it is still the census of (r, seed), and is stored as such.  The
    fiber probe is not stored: `numeric/fiber_5` alone asks for it.
    """

    def __init__(self) -> None:
        self._results: dict = {}

    def census(self, r: tuple, seed: int,
               reference: StratumCensus | None = None) -> StratumCensus:
        r = tuple(map(as_exact, r))
        key = (r, seed)
        if key not in self._results:
            self._results[key] = count_stratum_points(r, seed, reference)
        return self._results[key]


def projection_data():
    """Exact data of the linear projection: the ranks of the center and
    the target space and the dimension of their intersection, the matrix
    of both bases, and the coordinate extraction of the target part."""
    centers = [list(v) for v in construction.center_space_vectors()]
    targets = [list(v) for v in construction.target_space_basis()]
    center_space = Subspace(9, centers)
    target_space = Subspace(9, targets)
    columns = [list(c) for c in centers] + [list(t) for t in targets]
    m = ExactMatrix.from_columns(columns)
    inv = m.inverse()
    # Rows 5..8 of the inverse read off the target-basis coordinates.
    extract = [inv.rows[i] for i in range(5, 9)]
    return {
        "center_rank": center_space.dim,
        "target_rank": target_space.dim,
        "intersection_dim": center_space.intersection(target_space).dim,
        "matrix": m,
        "extract_rows": extract,
    }


def exact_preimage(n) -> dict:
    """The preimage on the parameter-origin fiber of the target point with
    exact target-basis coordinates n, as the meet of two lines.

    A point over [n] is c + lambda p, with c in the projection center and
    p = sum n_j t_j over the target basis.  The three linear fiber rows
    cut span(center, p) to a plane: the kernel of the rows on these six
    generators, whose two lambda = 0 vectors span the center line l and
    whose third has lambda = 1.  In plane coordinates (z1, z2, t = lambda)
    `_on_basis` restricts each quadric to Q_i = A_i + t B_i + c_i t^2,
    A_i quadratic and B_i linear in (z1, z2); with L_i = B_i + c_i t the
    identity Q_i = t L_i holds exactly when A_i = 0, that is when Q_i
    vanishes on l, and is checked, not assumed.  The preimages are the
    points of L_1 = L_2 = 0 off l: one when [L_1; L_2] has rank 2 and
    lambda is nonzero at the meet (a transversal meet), else none.

    Returns the basis `line` of l; the plane's `lift` of n, its point
    with lambda = 1; `factored`, whether both quadrics vanish on l, so
    that both identities hold; the `lines` as coefficient rows
    over PLANE_VARS and their `rank`; the `point`, or None; its `count`;
    and the `reason` when the count is 0.
    """
    equations = _fiber_equations((_F(0), _F(0), _F(0)))
    quadrics, linear = equations[:2], equations[2:]
    targets = ExactMatrix.from_columns(construction.target_space_basis())
    gens = [*construction.center_space_vectors(), targets.apply(n)]
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
# CheckResult wrappers


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return _F(num, den)
    return None


def _stratum_anchor_vectors(r1: Fraction) -> list[list]:
    """Exact single-pair-stratum chart vectors: the stored square-root
    families at r1 and a rational root a of their relation, if it has
    one (else none)."""
    a = _rational_sqrt(25 * r1 * r1 - 900)
    if a is None:
        return []
    fams, _relation = construction.stratum1_solution_families()
    chart = [construction.X_NAMES.index(n) for n in CHART_VARS]
    return [[fam[i].evaluate({"r1": r1, "a": a}) for i in chart]
            for fam in fams]


def check_stratum_counts(seed: int, sample_r: tuple,
                         numeric: NumericRun) -> CheckResult:
    """Numeric census of the restricted system over two parameter values.

    At the generic sample the thirty-two paths must produce thirty-two
    accepted, regular, distinct endpoints partitioned 4 + (2 per stratum
    and class) + (12 + 4); the exact anchor points must each match an
    endpoint; the four non-multiple-root open-stratum points must form a
    single orbit of the diagonal subgroup.  At the parameter origin the
    open stratum must carry sixteen points.
    """
    started = time.perf_counter()
    residuals: list[str] = []
    sample_r = tuple(map(as_exact, sample_r))

    census = numeric.census(sample_r, seed)
    residuals.extend(census.notes)
    expected = {"L0": 4, "L1_X1": 2, "L1_X2": 2, "L2_X1": 2, "L2_X2": 2,
                "L3_X1": 2, "L3_X2": 2, "Lopen_X1": 12, "Lopen_X2": 4}
    if census.path_count != 32:
        residuals.append(f"path count {census.path_count} != 32")
    if census.accepted_count != 32 or census.distinct_count != 32:
        residuals.append(
            f"accepted {census.accepted_count}, distinct "
            f"{census.distinct_count}: expected 32 accepted, 32 distinct "
            f"(failed paths: {census.failed})")
    if census.partition != expected:
        residuals.append(f"partition {census.partition} != {expected}")
    if census.min_sv <= SV_REGULAR:
        residuals.append(
            f"smallest endpoint singular value {census.min_sv:.3e} is not "
            f"above {SV_REGULAR:.0e} (a multiple point)")

    # Exact anchors: the four sparse solutions, always; the single-pair
    # instances whenever the square-root relation has a rational root.
    by_stratum = {s: [[complex(c) for c in pt.coords]
                      for pt in census.points if pt.stratum == s]
                  for s in ("L0", "L1")}
    sparse = construction.special_points()["sparse_solutions"]
    for p in sparse:
        anchor = [0, 0, 0] + [complex(_F(v)) for v in p]
        if not _matching(by_stratum["L0"], anchor, TOL_MATCH):
            residuals.append(f"sparse anchor {p} matches no endpoint")
    for anchor in _stratum_anchor_vectors(sample_r[0]):
        if not _matching(by_stratum["L1"], [complex(c) for c in anchor],
                         TOL_MATCH):
            residuals.append(
                "single-pair-stratum anchor "
                f"{[str(c) for c in anchor]} matches no endpoint")

    # Orbit structure of the four non-multiple-root open-stratum points.
    orbit_pts = [[complex(c) for c in p.coords] for p in census.points
                 if p.stratum == "Lopen" and not p.multiple_root]
    if len(orbit_pts) != 4:
        residuals.append(
            f"open-stratum non-multiple-root count {len(orbit_pts)} != 4")
    else:
        matched = set()
        for signs in h_orbit_signs():
            image = [complex(s) * c for s, c in zip(signs, orbit_pts[0])]
            hits = _matching(orbit_pts, image, TOL_MATCH)
            if len(hits) == 1:
                matched.add(hits[0])
            else:
                residuals.append(
                    "diagonal-subgroup image of an open-stratum point "
                    f"matched {len(hits)} endpoints")
        if matched != {0, 1, 2, 3}:
            residuals.append(
                "the four open-stratum points are not a single "
                "diagonal-subgroup orbit")

    origin = numeric.census((0, 0, 0), seed)
    open_total = origin.partition["Lopen_X1"] + origin.partition["Lopen_X2"]
    if open_total != 16:
        residuals.append(
            f"open-stratum count at the parameter origin is {open_total}, "
            "expected 16")

    closed = sum(census.partition[f"L{j}_X{k}"]
                 for j in (1, 2, 3) for k in (1, 2))
    open_count = (census.partition["Lopen_X1"]
                  + census.partition["Lopen_X2"])
    details = {
        "sample_r": [str(v) for v in sample_r],
        "partition": census.partition,
        "partition_display": (f"{census.partition['L0']}+{closed}"
                              f"+{open_count}="
                              f"{census.partition['L0'] + closed + open_count}"),
        "origin_partition": origin.partition,
        "min_singular_value": census.min_sv,
        "failed_paths": census.failed,
        "rescued": census.rescue_added,
        "tolerances": {"track": TOL_TRACK, "dedup": TOL_DEDUP,
                       "match": TOL_MATCH, "cluster_radius": CLUSTER_RADIUS},
        "seed": seed,
    }
    return _finish("numeric/lemma6_2", started, residuals, details)


def check_fiber_geometry(seed: int, numeric: NumericRun) -> CheckResult:
    """Numeric geometry of the parameter-origin fiber and the projection.

    The fiber sliced by a random codimension-3 space has degree four;
    its Jacobian has numeric rank five at a sample point (dimension
    three); the common chart image of the non-multiple-root open-stratum
    points recovers the stored fiber point; the exact projection data
    (center and target ranks, empty intersection) holds; sampled fiber
    points project onto a spanning set of the target; the projection
    differential has rank three, read from the probe's own Jacobian at
    its first sample point; and each of ten random targets has exactly
    one regular preimage on the fiber.

    The preimages are proved over Q(zeta_8) by `exact_preimage` on the
    very same seeded Gaussian targets, whose double coordinates are
    exact rationals: a preimage counts as regular when its two lines
    meet transversally (rank 2, lambda nonzero), the exact analogue of
    a smallest singular value above SV_REGULAR.  `center_line` records
    the identity behind the count: the center line l has dimension 2,
    both quadrics vanish on it, and each factored as lambda * L_i on
    every trial's plane.  Trial 0 is also tracked by homotopy:
    `preimage_cross_check` gives the chordal distance of its one regular
    endpoint from the exact point (below TOL_MATCH), its failed paths
    per chart as [index, status], and how many `polish` endpoints lie
    within TOL_DEDUP of l (a `polish` endpoint off l is a residual).

    The slice degree is proved the same way: each of the five seeded
    slices cuts the fiber to two conics on a plane over Q(i), and
    `exact_slice` counts their four transversal points, by the first
    center of PROJECTIONS that separates them (`slice_projections`).
    Slice 0 is also tracked by homotopy: `slice_cross_check` gives the
    largest chordal distance of its four endpoints from the exact-plane
    points (each below TOL_MATCH).
    """
    started = time.perf_counter()
    residuals: list[str] = []
    origin = (_F(0), _F(0), _F(0))

    probe = fiber_probe(origin, seed, slice_count=5)
    for s, reason in enumerate(probe["slice_reasons"]):
        if reason:
            residuals.append(f"slice {s}: {reason}")
    if any(c != 4 for c in probe["slice_counts"]):
        residuals.append(f"slice counts {probe['slice_counts']} are not all 4")
    tracked = probe["cross_check"]
    if tracked["path_count"] != 4 or len(tracked["chordal"]) != 4:
        residuals.append(
            f"slice 0 cross-check: {len(tracked['chordal'])} distinct "
            f"endpoints of {tracked['path_count']} paths, expected 4 of 4")
    for k, d in enumerate(tracked["chordal"]):
        if d >= TOL_MATCH:
            residuals.append(
                f"slice 0 cross-check: endpoint {k} is {d:.2e} from every "
                "exact-plane point")
    if probe["fiber_jacobian_rank"] != 5:
        residuals.append(
            f"fiber Jacobian rank {probe['fiber_jacobian_rank']} != 5")

    # The common chart image of the open-stratum non-multiple-root points.
    census = numeric.census(origin, seed)
    images, spread = u_dprime_image(census)
    exact_image = np.array([complex(c) for c in construction.special_points()
                            ["u_dprime_0"].coords])
    if len(images) != 4:
        residuals.append(f"open-stratum non-multiple-root count "
                         f"{len(images)} != 4 at the parameter origin")
    if spread > 1e-6:
        residuals.append(f"chart images disagree (spread {spread:.2e})")
    if len(images) and _chordal_each(exact_image, images[:1])[0] > 1e-6:
        residuals.append(
            "chart image of the non-multiple-root orbit misses the "
            "stored fiber point")

    # Small-parameter continuity of the common image.
    small = tuple(v * _F(1, 100000) for v in SAMPLE_R)
    census_small = numeric.census(small, seed)
    images_small, spread_small = u_dprime_image(census_small)
    if len(images_small) != 4 or spread_small > 1e-4:
        residuals.append(
            f"small-parameter image: count {len(images_small)}, spread "
            f"{spread_small:.2e}")
    elif _chordal_each(exact_image, images_small[:1])[0] > 1e-2:
        residuals.append("small-parameter image is not close to the "
                         "parameter-origin image")

    # Exact projection data.
    proj = projection_data()
    if proj["center_rank"] != 5:
        residuals.append(f"center rank {proj['center_rank']} != 5")
    if proj["target_rank"] != 4:
        residuals.append(f"target rank {proj['target_rank']} != 4")
    if proj["intersection_dim"] != 0:
        residuals.append(
            f"center/target intersection dimension "
            f"{proj['intersection_dim']} != 0")
    if proj["matrix"].rank() != 9:
        residuals.append("center plus target do not span the chart space")

    extract = np.array([[complex(v) for v in row]
                        for row in proj["extract_rows"]])
    samples = probe["sampled_points"]
    if len(samples) < 20:
        residuals.append(f"only {len(samples)} sampled fiber points, "
                         "expected at least 20")
    images_mat = np.array([extract @ (p / np.linalg.norm(p))
                           for p in samples])
    img_rank = _numeric_rank(images_mat)
    if img_rank != 4:
        residuals.append(f"projected fiber samples span rank {img_rank} != 4")

    # Projection differential rank at the probe's sample point.
    _u, _s, vh = np.linalg.svd(probe["fiber_jacobian"])
    tangent = vh.conj().T[:, 5:]           # 4-dim kernel, includes the scale
    pushed = extract @ tangent             # 4 x 4
    push_rank = _numeric_rank(pushed)
    if push_rank != 4:
        residuals.append(
            f"projection differential spans rank {push_rank} != 4 "
            "(projective rank 3 expected)")

    # Preimage counts of random targets, from the exact plane meet; a
    # failure of the center-line identity is a trial's reason.  Trial 0
    # is also solved by homotopy as a cross-check.
    targets = []
    for trial in range(10):
        rng = _rng(seed, "preimage", trial)
        targets.append(np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                 for _ in range(4)]))
    exact = [exact_preimage([_gaussian(z) for z in n_coords])
             for n_coords in targets]
    preimage_counts = [sol["count"] for sol in exact]
    for trial, sol in enumerate(exact):
        if sol["reason"]:
            residuals.append(f"preimage trial {trial}: {sol['reason']}")
    if any(c != 1 for c in preimage_counts):
        residuals.append(
            f"regular preimage counts {preimage_counts} are not all 1")
    center_line = {
        "basis": [[str(v) for v in b] for b in exact[0]["line"]],
        "dim": len(exact[0]["line"]),
        "quadrics_vanish": all(sol["factored"] for sol in exact),
        "factored_trials": sum(sol["factored"] for sol in exact),
    }
    cross_check = _preimage_cross_check(seed, 0, targets[0], extract,
                                        exact[0], residuals)

    details = {
        "slice_counts": probe["slice_counts"],
        "slice_projections": probe["projections"],
        "slice_cross_check": {
            "slice": 0,
            "chordal": max(tracked["chordal"], default=None)},
        "fiber_jacobian_rank": probe["fiber_jacobian_rank"],
        "center_rank": proj["center_rank"],
        "target_rank": proj["target_rank"],
        "intersection_dim": proj["intersection_dim"],
        "image_span_rank": img_rank,
        "differential_span_rank": push_rank,
        "preimage_counts": preimage_counts,
        "center_line": center_line,
        "preimage_cross_check": cross_check,
        "tolerances": {"track": TOL_TRACK, "dedup": TOL_DEDUP,
                       "rank": TOL_RANK},
        "seed": seed,
    }
    return _finish("numeric/fiber_5", started, residuals, details)


def _preimage_cross_check(seed: int, trial: int, n_coords: np.ndarray,
                          extract: np.ndarray, sol: dict,
                          residuals: list[str]) -> dict:
    """Solve one preimage target by homotopy and compare it with the exact
    meet `sol`.

    The fiber rows plus three alignment rows, the minors of the projected
    point against n, make a square system; its one regular endpoint must
    lie within TOL_MATCH of the exact preimage.  Every failed path that
    ends `polish` must end within TOL_DEDUP of the center line l, the
    excess component every alignment row vanishes on.  `stalled` and
    `diverged` paths are reported by status only: their last iterate is
    the last point they accepted on the path, not an endpoint of F.
    """
    pivot = int(np.argmax(np.abs(n_coords)))
    align = []
    for j in range(4):
        if j == pivot:
            continue
        row = n_coords[j] * extract[pivot] - n_coords[pivot] * extract[j]
        align.append(_linear_row_terms(list(row)))
    run = solve_projective(_fiber_rows((_F(0), _F(0), _F(0))) + align,
                           Y_NAMES, seed, f"preimage:{trial}")
    regular = [e for e in run["distinct"] if e.sv_min > SV_REGULAR]
    chordal = None
    if len(regular) != 1 or sol["point"] is None:
        residuals.append(
            f"preimage cross-check: {len(regular)} regular homotopy "
            f"endpoints against {sol['count']} exact preimages")
    else:
        chordal = float(_chordal_each(
            regular[0].x, np.array([[complex(v) for v in sol["point"]]]))[0])
        if chordal >= TOL_MATCH:
            residuals.append(
                f"preimage cross-check: the homotopy endpoint is "
                f"{chordal:.2e} from the exact preimage")
    basis, _r = np.linalg.qr(np.array(
        [[complex(v) for v in b] for b in sol["line"]]).T)
    on_line = 0
    for chart, paths in enumerate(run["failures"]):
        for r in paths:
            if r.status != "polish":
                continue
            off = float(np.linalg.norm(r.x - basis @ (basis.conj().T @ r.x))
                        / np.linalg.norm(r.x))
            if off <= TOL_DEDUP:
                on_line += 1
            else:
                residuals.append(
                    f"preimage cross-check: chart {chart} path {r.index} "
                    f"ends polish {off:.2e} off the center line")
    return {
        "trial": trial,
        "chordal": chordal,
        "failed_paths": [[[r.index, r.status] for r in paths]
                         for paths in run["failures"]],
        "on_center_line": on_line,
    }


def check_seed_stability(seed: int, sample_r: tuple,
                         numeric: NumericRun) -> CheckResult:
    """The census partition and the fiber slice degree match across seeds.

    The censuses at seeds S+1 and S+2 take census S as their reference:
    an endpoint that matches a point of census S one to one inherits its
    labels, so only an endpoint that matches none is polished and
    classified, and each such endpoint is named.  The degree is the
    exact count of fiber slice 0 at each seed, by `exact_slice`; nothing
    is tracked for it.
    """
    started = time.perf_counter()
    residuals: list[str] = []
    partitions = []
    slice_counts = []
    seeds = (seed, seed + 1, seed + 2)
    reference = numeric.census(sample_r, seed)
    for s in seeds:
        census = (reference if s == seed
                  else numeric.census(sample_r, s, reference))
        partitions.append(census.partition)
        residuals.extend(f"seed {s}: endpoint {i} matches no point of seed "
                         f"{seed}" for i in census.unmatched)
        exact = exact_slice((_F(0), _F(0), _F(0)), s, 0)
        if exact["reason"]:
            residuals.append(f"seed {s}: fiber slice 0: {exact['reason']}")
        slice_counts.append(exact["count"])
    for other, part in zip(seeds[1:], partitions[1:]):
        if part != partitions[0]:
            residuals.append(
                f"seed {other}: partition {part} differs from seed "
                f"{seeds[0]}: {partitions[0]}")
    if len(set(slice_counts)) != 1:
        residuals.append(f"fiber slice counts {slice_counts} differ by seed")
    details = {
        "seeds": list(seeds),
        "partition": partitions[0],
        "slice_counts": slice_counts,
        "tolerances": {"track": TOL_TRACK, "dedup": TOL_DEDUP},
    }
    return _finish("numeric/seed_stability", started, residuals, details)
