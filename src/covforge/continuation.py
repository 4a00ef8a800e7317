"""Homotopy continuation for the small polynomial systems.

A projective solve takes its homogeneous equations as exact polynomials
over a fixed variable order: the construction's quadrics and linear
forms, and random slice or alignment forms whose complex double
coefficients are taken as the exact dyadic Gaussian rationals they are
(`_linear_form`).  Every system tracked here is quadrics and linear
rows, so a `CompiledSystem` holds each row once, exactly, as its
symmetric matrix A over y = (x, 1), built by the exact layer
(`construction.quadric_matrix`): the row is y^T A y and its gradient
2 (A y)[:n].  Several systems of one shape stack, each with its own
matrices.  The tracker reads their complex double copy, one einsum per
evaluation, and follows H = gamma (1 - t) G + t F from the total-degree
start system G = x^d - b, taken in closed form, with each system's
start constants and gamma drawn from its own seeded stream.  All paths
advance together as one (paths, n) stack, each with its own system and
step control, through stacked evaluations and solves; one helper gives
H and its Jacobian to the fourth-order Runge-Kutta predictor, the short
Newton corrector with adaptive step halving, and the endpoint polish.
So a run's tracked solves of one variable order are one stack
(`NumericRun.solve`), and each path ends bit for bit where it ends
alone.  Whether an endpoint solves its system is decided once, by
`solve_stacked`'s projective residual test, for a chart's endpoints as
one stack, and a solve's distinct endpoints are one (k, n) matrix;
whether two points are one, by one chordal distance kernel in complex
doubles, which compares two point sets as one matrix (`_chordal_matrix`).
A census is its tracked solve plus its labels; a census point is its
tracked double endpoint.  The points the construction stores exactly,
four L0 points and at some triples four L1 points, are placed first and
labelled by their exact octics.  Of the other endpoints, only one
representative per orbit of the diagonal subgroup H is labelled: the
sign flips of H carry the representative's endpoint, and with it its
labels, to every endpoint they match within TOL_MATCH, and an endpoint
no image matches is labelled on its own.  The censuses at seeds S+1 and
S+2 are not labelled but matched to census S point for point.  Only
labelling a representative works past double precision: `mp_polish`
refines its endpoint to about WORKING_DPS digits in exact dyadic
Gaussian rationals, on the same exact row matrices, which is what lets
the multiple-root classifier separate a genuine sixfold root cluster
from simple roots at CLUSTER_RADIUS.  The classifier counts the polished
point's octic's root clusters instead of finding its roots, by Pellet's
test on the exact octic's exact Taylor coefficients at each group of
double roots (`octic_root_clusters`); an octic the counts cannot decide
is named in the check's residuals, not raised.
The centroid of a k-root cluster is well conditioned (Zeng, Math. Comp.
2005), so the double roots already place every cluster.

Fiber slices and preimages are counted exactly by `construction`; slice
0 and one preimage target are still tracked here, as cross-checks
planned as one stack like the censuses (`NumericRun`), the preimage on
one chart unless it misses the one regular endpoint the lemma claims.
This is the one module that imports numpy.

The zero set tracked here is that of the literal (cross-doubled)
coordinate polynomials of the quadratic map: that is the system whose
zero set contains the multiple-root locus, so the component split the
census expects is a property of the literal system, not of the
unordered-pair tables (see the calibration notes in the bracket module).
"""

from __future__ import annotations

import cmath
import copy
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import construction
from .binform import (BinaryForm, GroupElt, group_act,
                      max_root_multiplicity_exact)
from .checks import CheckResult, _finish
from .construction import CHART_VARS, Y_NAMES
from .exlinalg import ExactMatrix, jacobian_at
from .mpoly import MPoly
from .scalar import as_exact

_F = Fraction

# Fixed limits of the tracker and the classifiers.
TOL_TRACK = 1e-10           # residual that accepts a path endpoint
TOL_DEDUP = 1e-6            # chordal distance that identifies two endpoints
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
WORKING_DPS = 40            # decimal digits the high-precision polish keeps
SEED_GROUP_RADIUS = 1e-2    # chordal radius that groups double roots


# ---------------------------------------------------------------------------
# Compilation: exact polynomials -> one symmetric matrix per row, read as
# complex doubles by the tracker and exactly by the polish


def _linear_form(coeffs, names: tuple[str, ...], constant=0) -> MPoly:
    """The affine form sum_i c_i x_i + constant over `names`, each complex
    double taken as the exact dyadic Gaussian rational it is."""
    return sum((MPoly.var(v) * construction.gaussian(complex(c))
                for c, v in zip(coeffs, names)),
               MPoly.const(construction.gaussian(complex(constant))))


class CompiledSystem:
    """One system of quadric and linear rows, or a stack of several of
    the same variables and row count, as one symmetric matrix per row.

    Built from a list of systems, each a list of exact polynomials of
    degree at most 2 in the variables `names`.  Row k of a system is held
    once, exactly, as its matrix A_k over y = (x, 1)
    (`construction.quadric_matrix`), so F_k = y^T A_k y and its gradient
    is J_k = 2 (A_k y)[:nvars]; a row is a quadric, of degree 2, when an
    entry of A_k lies off the last row and column, and else linear.
    `exact` holds each system's matrices as their exact nonzero entries;
    the tracker reads their complex double copy, doubled (`evaluate`),
    and `mp_polish` reads F of one system (`member`) exactly from the
    same entries.
    """

    def __init__(self, systems: list[list[MPoly]], names: tuple[str, ...]
                 ) -> None:
        nvars = self.nvars = len(names)
        self.size = len(systems[0])
        if any(len(rows) != self.size for rows in systems):
            raise ValueError("stacked systems need the same row count")
        self.exact = [[construction.quadric_matrix(q, names) for q in rows]
                      for rows in systems]
        self.degrees = [[2 if any(max(at) < nvars for at in a) else 1
                         for a in rows] for rows in self.exact]
        self.path_counts = [math.prod(d) for d in self.degrees]
        # per system, each 2 A_k in complex doubles, stacked row-wise into
        # one (size * (nvars + 1), nvars + 1) block
        span = range(nvars + 1)
        self._twice = np.array([[[2 * complex(a.get((i, j), 0)) for j in span]
                                 for a in rows for i in span]
                                for rows in self.exact])

    def member(self, k: int) -> CompiledSystem:
        """System k of the stack alone."""
        out = copy.copy(self)
        out.degrees = self.degrees[k:k + 1]
        out.path_counts = self.path_counts[k:k + 1]
        out.exact = self.exact[k:k + 1]
        out._twice = self._twice[k:k + 1]
        return out

    def evaluate(self, x: np.ndarray, which=None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """F and the Jacobian J at a point of shape (nvars,) or at each
        row of a stack of shape (P, nvars), of system 0, or of system
        which[p] at row p.  With y = (x, 1), one einsum takes each
        point's block of 2 A_k times y, which gives J = (2 A_k y)[:nvars],
        and another F = y^T (2 A_k y) / 2; the factors 2 are exact.

        einsum sums each entry over its own row of the block in one fixed
        order, so every value is bitwise the same whatever the stack
        around it.  A BLAS product (np.matmul) is faster but rounds
        otherwise, and which paths end `polish` follows the last bits.
        """
        n, m, shape = self.nvars, self.size, x.shape[:-1]
        points = x.reshape(-1, n)
        y = np.ones((len(points), n + 1), dtype=complex)
        y[:, :n] = points
        if which is None:
            which = np.zeros(len(points), dtype=int)
        twice = np.einsum("prj,pj->pr", self._twice.take(which, axis=0),
                          y).reshape(-1, m, n + 1)
        values = 0.5 * np.einsum("pki,pi->pk", twice, y)
        return (values.reshape(shape + (m,)),
                twice[:, :, :n].reshape(shape + (m, n)))


def _exact_residual(matrices: list, x: list) -> list:
    """F at the exact point x, exactly: each row y^T A y, y = (x, 1), as
    the sum over A's nonzero entries on the diagonal plus twice the sum
    over those above it, each product y_i y_j formed once per point."""
    n = len(x)
    y = [*x, 1]
    products = {(i, n): y[i] for i in range(n + 1)}     # y_n = 1
    out = []
    for entries in matrices:
        sums = [_F(0), _F(0)]       # on the diagonal, and above it
        for (i, j), a in entries.items():
            if i <= j:
                if (i, j) not in products:
                    products[i, j] = y[i] * y[j]
                sums[i < j] = sums[i < j] + a * products[i, j]
        out.append(sums[0] + 2 * sums[1])
    return out


def mp_polish(system: CompiledSystem, x0: np.ndarray) -> list:
    """High-precision refinement of a double-precision endpoint, as a
    list of exact dyadic Gaussian rationals (`construction.gaussian`).

    Each step takes the exact residual F at x from the system's exact
    row matrices (`_exact_residual`), rounds it once to complex doubles,
    and solves J0 dx = F in complex doubles, where J0 is the Jacobian at
    x0 (iterative refinement: the exact residual, rounded once, sets the
    accuracy, and the double J0 only the rate, a factor of about
    cond(J0) times the double error of x0 per step); x - dx is exact.  It
    stops once every step is below 10^(4 - WORKING_DPS) relative to its
    coordinate, |dx_j| < 10^(4 - WORKING_DPS) (1 + |x_j|), or after
    MP_POLISH_ITERS steps.  A singular J0 returns the start point."""
    _values, jac = system.evaluate(x0)
    tol = 10.0 ** (4 - WORKING_DPS)
    x = [construction.gaussian(v) for v in x0.tolist()]
    for _ in range(MP_POLISH_ITERS):
        residual = [complex(v) for v in _exact_residual(system.exact[0], x)]
        try:
            step = np.linalg.solve(jac, residual).tolist()
        except np.linalg.LinAlgError:   # singular J0: x is still x0
            break
        x = [xv - construction.gaussian(d) for xv, d in zip(x, step)]
        if all(abs(d) < tol * (1 + abs(complex(v)))
               for d, v in zip(step, x)):
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
    """G = x^d - b and the diagonal d x^(d-1) of its Jacobian, in closed
    form, for the start pair (d, b), at a point x or at each row of a
    stack."""
    degrees, consts = start
    return x ** degrees - consts, degrees * x ** (degrees - 1)


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


def track(system: CompiledSystem, streams) -> tuple[list[PathResult], int]:
    """Track every total-degree path of each system of a stack, with the
    start constants and gamma drawn from its stream of `streams`, one
    random.Random per stacked system.

    The paths of H = gamma (1 - t) G + t F run from the roots of the
    start system G = x^d - b at t = 0 to the target F at t = 1, each
    with its own system's F, b and gamma.  All paths of the stack
    advance together, but each with its own t, step size and iteration
    count: a round takes one fourth-order Runge-Kutta predictor step
    (`_predict`, four stacked stage solves) for every path still moving,
    then up to CORRECTOR_ITERS Newton corrector steps for the paths still
    correcting, and then each path accepts (and grows its step by 1.5,
    up to MAX_STEP) or halves its step by itself; a path with a singular
    predictor stage halves its step too.  Paths that reach t = 1 get the
    endpoint Newton polish on F, stacked the same way.  So each path
    takes exactly the steps, and ends at exactly the point, it would
    reach tracked alone, in its system alone.

    Returns the per-path results, system by system, each system's paths
    indexed from 0 in Bézout order, and the number of paths.  One
    endpoint attempt per path, `accepted` when its polish converges (the
    caller gates the residual); failures carry their terminal status and
    their last iterate.  A path's `steps`, and the MAX_PATH_ITERS cap on
    them, count its corrector and polish iterations only, not the
    predictor's stage solves.
    """
    n = system.nvars
    if system.size != n:
        raise ValueError("tracker needs a square system")
    if len(streams) != len(system.exact):
        raise ValueError("the tracker needs one stream per stacked system")
    # per path: its system, its index there, its start point, and its
    # system's degrees, start constants and gamma
    member, index, start, degrees, consts, gammas = [], [], [], [], [], []
    for k, (deg, stream) in enumerate(zip(system.degrees, streams)):
        b, roots = _start_data(deg, stream)
        gamma = cmath.exp(2j * math.pi * stream.random())
        for i, choice in enumerate(itertools.product(*map(range, deg))):
            start.append([roots[j][c] for j, c in enumerate(choice)])
            member.append(k)
            index.append(i)
            degrees.append(deg)
            consts.append(b)
            gammas.append(gamma)
    member, degrees = np.array(member), np.array(degrees)
    consts, gammas = np.array(consts), np.array(gammas)
    diagonal = np.arange(n)

    def homotopy(x, t, paths):
        """H and its x-Jacobian at the rows of x and the entries of t,
        one row per path in `paths`, and dH/dt.  G's Jacobian is
        diagonal, so H_x is t F_x with s G_x added on the diagonal."""
        g, dg = _start_system(x, (degrees[paths], consts[paths]))
        f, jf = system.evaluate(x, member[paths])
        gamma = gammas[paths]
        s = gamma * (1.0 - t)
        hx = t[:, None, None] * jf
        hx[:, diagonal, diagonal] += s[:, None] * dg
        return s[:, None] * g + t[:, None] * f, hx, -gamma[:, None] * g + f

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
            hv, jac, _ht = homotopy(x[act], t[act], paths[act])
            delta, ok = _solve_stack(jac, hv)
            act, delta = act[ok], delta[ok]
            xa = x[act] - delta
            x[act] = xa
            steps[paths[act]] += 1
            small = _norms(delta) < tol * (1.0 + _norms(xa))
            converged[act[small]] = True
            act = act[~small]
        return x, converged

    x = np.array(start, dtype=complex)
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
        xp, ok = _predict(lambda y, s, live=live: homotopy(y, s, live),
                          x[live], t[live], h[live])
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
    return [PathResult(index[i], status[i], x=x[i].copy(),
                       steps=int(steps[i])) for i in range(count)], count


def _chordal_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The chordal distance of each row of the stack a to each row of the
    stack b, as projective points in complex doubles: the sine of the
    angle between representatives, from the 2x2 minors (each taken
    twice, as (i, j) and (j, i)), so nearby points keep their digits.
    Entry (i, j) reads row i of a against row j of b; read the other way
    it may differ in its last bit.  Compared with a tolerance, the near
    matrix of two point sets.  Eight rows of a at a time keep the
    minors' temporaries small."""
    out = np.empty((len(a), len(b)))
    norms = np.sum(np.abs(b) ** 2, axis=-1)
    for i in range(0, len(a), 8):
        rows = a[i:i + 8, None, :]
        minors = (rows[..., :, None] * b[None, :, None, :]
                  - rows[..., None, :] * b[None, :, :, None])
        cross = 0.5 * np.sum(np.abs(minors) ** 2, axis=(-2, -1))
        out[i:i + 8] = np.sqrt(
            cross / (np.sum(np.abs(rows) ** 2, axis=-1) * norms))
    return out


def _dedup(x: np.ndarray, sv_min: np.ndarray) -> tuple:
    """The rows of the stack x in order, less each row within TOL_DEDUP
    of a row kept before it, and their entries of the row-aligned
    sv_min."""
    near = _chordal_matrix(x, x) < TOL_DEDUP
    keep: list[int] = []
    for i, row in enumerate(near):
        if not row[keep].any():
            keep.append(i)
    return x[keep], sv_min[keep]


def solve_projective(rows: list[MPoly], var_order: tuple[str, ...],
                     seed, tag: str, want: int | None = None) -> dict:
    """`solve_stacked` of the one system (rows, seed, tag, want)."""
    return solve_stacked([(rows, seed, tag, want)], var_order)[0]


def solve_stacked(problems: list[tuple], var_order: tuple[str, ...]
                  ) -> list[dict]:
    """Chart-fix, track, polish, rescue, and deduplicate projective
    systems of one shape, each (rows, seed, tag, want): `rows` exact
    homogeneous quadrics and linear forms over `var_order`, `want` the
    number of regular endpoints needed, by default the path count.

    A random unit-norm chart form set to 1, from the system's (seed,
    tag) stream, makes each system square.  Chart 0 of every system is
    tracked as one stack and gated as one, by the one residual gate: an
    endpoint `track` accepts is kept only if every homogeneous row is
    below TOL_TRACK at its unit-norm representative (NaN fails), else
    its path turns `polish`; one stacked SVD of the kept endpoints'
    Jacobians gives their smallest singular values.  A system with a
    failed path and fewer than `want` distinct endpoints above
    SV_REGULAR tracks every path again on a second random chart, all
    such systems as one more stack, and each endpoint found there is
    rescaled onto the first by its own x / (c . x).  Per system,
    `_dedup` merges them after chart 0's into `distinct`, one (k, n)
    array, (0, n) when empty, of points on `chart`, chart 0's c, solving
    `system`, with the row-aligned array `sv_min`; `rescue_added` counts
    the rescued ones, and `accepted_count` adds them to chart 0's
    accepted paths; `failed` lists chart 0's failed paths as (index,
    status), and `failures` the failed `PathResult`s of each chart, with
    their last iterates.  Each path moves in a stack as it moves alone,
    so each system's result is bitwise the one it gets in a stack of one
    (`solve_projective`).
    """
    n = len(var_order)
    streams = [_rng(seed, tag) for _rows, seed, tag, _want in problems]

    def run_charts(members: list[int], chart_id: int) -> list[tuple]:
        """Chart `chart_id` of each member problem, tracked and gated as
        one stack; per member (chart, system, results, accepted endpoints
        as one (k, n) array, their smallest singular values)."""
        charts = [_unit_row(streams[i], n) for i in members]
        stack = CompiledSystem(
            [problems[i][0] + [_linear_form(c, var_order, constant=-1.0)]
             for i, c in zip(members, charts)], var_order)
        paths = [_rng(problems[i][1], problems[i][2], "paths", chart_id)
                 for i in members]
        results, _count = track(stack, paths)
        owner = np.repeat(np.arange(len(members)), stack.path_counts)
        done = np.array([p for p, r in enumerate(results)
                         if r.status == "accepted"], dtype=int)
        x = np.array([results[p].x for p in done],
                     dtype=complex).reshape(-1, n)
        vals, jac = stack.evaluate(x / _norms(x)[:, None], owner[done])
        # the chart row, last, is pinned to 1 by construction
        ok = np.max(np.abs(vals[:, :-1]), axis=1, initial=0.0) < TOL_TRACK
        sv = np.linalg.svd(jac[ok], compute_uv=False)[:, -1]
        for p in done[~ok]:
            results[p].status = "polish"
        mine = owner[done[ok]]
        bounds = np.cumsum([0, *stack.path_counts]).tolist()
        return [(chart, stack.member(k), results[bounds[k]:bounds[k + 1]],
                 x[ok][mine == k], sv[mine == k])
                for k, chart in enumerate(charts)]

    firsts = run_charts(list(range(len(problems))), 0)
    ends = [_dedup(x, sv) for *_rest, x, sv in firsts]
    first_counts = [len(x) for x, _sv in ends]
    failures = [[[r for r in results if r.status != "accepted"]]
                for _c, _s, results, _x, _sv in firsts]
    rescue = [i for i, (*_given, want) in enumerate(problems)
              if failures[i][0]
              and np.count_nonzero(ends[i][1] > SV_REGULAR)
              < (firsts[i][1].path_counts[0] if want is None else want)]
    for i, (*_rest, results, x, sv) in zip(
            rescue, run_charts(rescue, 1) if rescue else []):
        chart = firsts[i][0]
        failures[i].append([r for r in results if r.status != "accepted"])
        onto = np.array([row / (chart @ row) for row in x],
                        dtype=complex).reshape(-1, n)
        ends[i] = _dedup(np.concatenate([ends[i][0], onto]),
                         np.concatenate([ends[i][1], sv]))
    return [{
        "system": system,
        "chart": chart,
        "accepted_count": len(x) + len(ends[i][0]) - first_counts[i],
        "distinct": ends[i][0],
        "sv_min": ends[i][1],
        "path_count": system.path_counts[0],
        "failed": [(r.index, r.status) for r in failures[i][0]],
        "failures": failures[i],
        "rescue_added": len(ends[i][0]) - first_counts[i],
    } for i, (chart, system, _results, x, _sv) in enumerate(firsts)]


# ---------------------------------------------------------------------------
# The stratum census


class UndecidedOctic(ArithmeticError):
    """Pellet counts do not decide an octic's root clusters."""


def octic_root_clusters(vec9):
    """Root clusters of the octic with the given basis coordinates: the
    sorted cluster sizes, where a cluster is a chain of roots each below
    CLUSTER_RADIUS from the next in chordal distance, as `_chordal_groups`
    forms them.

    The sizes are counted, not found.  After normalization, leading
    coefficients below 1e-30 are set to 0: roots at infinity.  The
    double-precision roots are grouped at SEED_GROUP_RADIUS, and
    `_pellet_disc` proves that a disc about each group's centroid holds
    exactly as many roots as the group; a group that fails is split at a
    smaller radius and its parts tried again.  Every root then lies in
    one of the disjoint discs, each of chordal radius at most
    CLUSTER_RADIUS / 4.  So two roots of one disc are one cluster, and two
    discs whose centres are d apart hold roots between d - s and d + s
    apart, s the sum of their radii: they are joined when d + s is below
    CLUSTER_RADIUS and apart when d - s is above it.

    What the count bounds: the basis coordinates are exact, so are the
    octic's coefficients (`octic_coefficients`), and the Taylor
    coefficients Pellet's test reads are exact for that octic, the one of
    the given (polished, dyadic) point; the test's inequalities are
    compared in doubles, not in intervals.  The count says nothing of
    the distance from that point to the true census point.  Raises
    UndecidedOctic, with the reason, when a single root or an
    unsplittable group fails the test, or when two discs overlap or have
    centres within s of CLUSTER_RADIUS.
    """
    return _counted_clusters(construction.octic_coefficients(vec9))


def _counted_clusters(coeffs: list) -> list[int]:
    """`octic_root_clusters` of the octic with these exact coefficients,
    `coeffs[d]` multiplying z1^(8-d) z2^d."""
    if not any(coeffs):
        return [9]
    doubles = [complex(c) for c in coeffs]
    scale = max(map(abs, doubles))
    high = [c / scale for c in doubles]     # highest-first in z = z1 / z2
    infinite = 0
    while abs(high[infinite]) < 1e-30:
        infinite += 1
    points = [(complex(z), 1.0) for z in np.roots(high[infinite:])]
    points += [(1.0, 0.0)] * infinite
    octic = BinaryForm(8, [_F(0)] * infinite + list(coeffs[infinite:]))
    discs = []
    pending = [(g, SEED_GROUP_RADIUS)
               for g in _chordal_groups(points, SEED_GROUP_RADIUS)]
    while pending:
        group, radius = pending.pop()
        disc = _pellet_disc(octic, points, group)
        if disc is not None:
            discs.append(disc)
            continue
        if len(group) == 1:
            z1, z2 = points[group[0]]
            raise UndecidedOctic(f"the root ({z1:.6g} : {z2:.6g}) fails "
                                 "Pellet's test")
        parts = [group]
        while len(parts) == 1 and radius > 1e-12:
            radius /= 2
            parts = [[group[j] for j in part] for part in _chordal_groups(
                [points[i] for i in group], radius)]
        if len(parts) == 1:
            raise UndecidedOctic(f"a group of {len(group)} roots fails "
                                 "Pellet's test at every radius")
        pending += [(part, radius) for part in parts]
    centres = np.array([c for c, _rho, _k in discs])
    radii = np.array([rho for _c, rho, _k in discs])
    first, second = np.triu_indices(len(discs), 1)
    apart = _chordal_matrix(centres, centres)[first, second]
    margin = radii[first] + radii[second]
    if np.any(apart <= margin):
        raise UndecidedOctic("two Pellet discs overlap")
    near = np.abs(apart - CLUSTER_RADIUS) <= margin
    if np.any(near):
        k = int(np.argmax(near))
        raise UndecidedOctic(
            f"two Pellet discs lie {apart[k]:.6e} apart, within their "
            f"radii {margin[k]:.1e} of the cluster radius")
    return sorted((sum(discs[i][2] for i in group) for group in
                   _chordal_groups(list(centres), CLUSTER_RADIUS)),
                  reverse=True)


def _chordal_groups(points: list, radius: float) -> list[list[int]]:
    """Indices of the projective points, taken as complex doubles,
    grouped by chains of chordal distance below the radius (a
    union-find)."""
    parent = list(range(len(points)))
    doubles = np.array([[complex(v) for v in p] for p in points])

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first, second = np.triu_indices(len(points), 1)  # combinations order
    for i, j, d in zip(first.tolist(), second.tolist(),
                       _chordal_matrix(doubles, doubles)[first, second]):
        if d < radius:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(points)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _pellet_disc(octic: BinaryForm, points: list, group: list[int]):
    """Pellet's test for a group of the octic's roots: (centre, radius,
    k) when the disc of that radius about the group's centroid holds
    exactly its k roots, else None.

    `points` are the octic's double-precision roots as projective points
    (z, 1), or (1, 0) at infinity.  A group at infinity, or of mean
    modulus above 1, is taken in u = 1/z.  The radius is
    min(gap / 3, CLUSTER_RADIUS / 4), gap the distance from the centroid
    to the nearest root outside the group, and the disc holds exactly k
    roots when |b_k| r^k > sum_{j != k} |b_j| r^j for the octic's Taylor
    coefficients b_j at the centroid (Pellet; Rouché's theorem on the
    circle).  The b_j are exact: one Taylor shift (`group_act`) by the
    centroid taken as the exact dyadic it is, f(z1 + c z2, z2), or
    f(z1, c z1 + z2) in u; their moduli are compared in doubles.
    """
    k = len(group)
    far = (any(points[i][1] == 0 for i in group)
           or sum(abs(points[i][0]) for i in group) > k)

    def chart(p):
        num, den = (p[1], p[0]) if far else p
        return num / den if den != 0 else None

    centre = sum(chart(points[i]) for i in group) / k
    outside = [chart(p) for i, p in enumerate(points) if i not in group]
    gap = min((abs(w - centre) for w in outside if w is not None),
              default=math.inf)
    radius = min(gap / 3, CLUSTER_RADIUS / 4)
    c = construction.gaussian(centre)
    if far:     # b_j multiplies z1^(8-j) z2^j
        taylor = group_act(GroupElt(1, 0, c, 1), octic,
                           "substitute_direct").coeffs
    else:       # b_j multiplies z1^j z2^(8-j)
        taylor = group_act(GroupElt(1, c, 0, 1), octic,
                           "substitute_direct").coeffs[::-1]
    terms = [abs(complex(b)) * radius ** j for j, b in enumerate(taylor)]
    if not terms[k] > math.fsum(t for j, t in enumerate(terms) if j != k):
        return None
    return ((1.0, centre) if far else (centre, 1.0)), radius, k


@dataclass
class StratumPoint:
    """The labels of a census point."""
    stratum: str                    # "L0" | "L1" | "L2" | "L3" | "Lopen" | "?"
    multiple_root: bool | None      # None when the clusters are undecided
    undecided: str | None = None    # why they are


@dataclass
class StratumCensus:
    partition: dict
    points: list[StratumPoint]      # the labels of the endpoints, in order
    endpoints: np.ndarray           # one 6-vector per point, on the chart
    notes: list[str] = field(default_factory=list)


def _stratum(nonzero: list) -> str:
    """The stratum of a chart point whose x1, x2, x3 are nonzero as
    flagged."""
    nz = [i for i, flag in enumerate(nonzero) if flag]
    if len(nz) == 0:
        return "L0"
    if len(nz) == 1:
        return f"L{nz[0] + 1}"
    return "Lopen" if len(nz) == 3 else "?"


def _classify_point(point: list, r) -> StratumPoint:
    """The labels of a polished chart point of exact coordinates: its
    stratum, read from its complex doubles, and its multiple-root flag,
    from the root clusters of its exact octic, or the reason the flag is
    undecided."""
    doubles = np.array([complex(v) for v in point])
    unit = doubles / np.linalg.norm(doubles)
    stratum = _stratum([abs(c) >= TOL_MATCH for c in unit[:3]])
    try:
        sizes = octic_root_clusters(
            construction.octic_vector_on_slice(r, point))
    except UndecidedOctic as exc:
        return StratumPoint(stratum, None, str(exc))
    return StratumPoint(stratum, sizes[0] >= 6)


def _census_problem(r: tuple, seed) -> tuple:
    """The census system over the triple r, which must be admissible,
    as a `solve_stacked` problem (rows, seed, tag, want)."""
    r = construction.admissible_triple(r)
    return (list(construction.literal_restricted_quadrics(r)), seed,
            f"stratum:{r[0]},{r[1]},{r[2]}", None)


def _stored_points(r: tuple, seed, ends: np.ndarray) -> tuple:
    """The points the construction stores exactly at the admissible
    triple r (`construction.census_anchors`), their near matrix against
    the endpoints `ends` at TOL_MATCH, and a note naming each stored
    point that matches no endpoint of the census at (r, seed)."""
    anchors = construction.census_anchors(r)
    near = _chordal_matrix(np.array(
        [[complex(v) for v in point] for point in anchors],
        dtype=complex).reshape(-1, ends.shape[1]), ends) < TOL_MATCH
    return anchors, near, [
        f"census ({r[0]}, {r[1]}, {r[2]}) at seed {seed}: stored point "
        f"{[str(v) for v in point]} matches no endpoint"
        for point, row in zip(anchors, near) if not row.any()]


def count_stratum_points(r: tuple, seed, solved: dict) -> StratumCensus:
    """Label every endpoint of a census's tracked solve.

    `solved` is the solve of the five restricted quadrics at (r, seed),
    `solve_stacked` of `_census_problem`, as `NumericRun.solve` gives it;
    nothing is tracked here.  The partition counts endpoints by
    coordinate-vanishing stratum and, within each stratum, by the
    multiple-root classifier (a sixfold or larger root cluster) versus
    its complement.  Runs are deterministic in (r, seed).

    A labelled point is placed on this census as a complex double
    6-vector: it is matched against the endpoints at chordal distance
    TOL_MATCH, one near matrix (`_chordal_matrix`) for the stored points
    and one for each representative's H-images; the distance is
    projective, so the point may lie on any chart, and distinct
    endpoints are TOL_DEDUP apart, so it meets at most one.  A
    matched endpoint not yet labelled takes the point's labels.  A
    census point's coordinates are its own endpoint, in `endpoints`.

    The points the construction stores exactly at r
    (`construction.census_anchors`) are placed first, each with the
    stratum of its exact zeros among x1, x2, x3, and multiple-root when
    its exact octic has a root of multiplicity 6 or more
    (`max_root_multiplicity_exact`).  `notes` names a stored point that
    matches no endpoint, not one whose endpoint another stored point
    labelled (at r1 = +-6 the a = 0 L1 instances are L0 points).

    The diagonal subgroup H (`construction.h_orbit_signs`) maps the
    system's zero set to itself and keeps both labels, so only one
    endpoint per H-orbit is polished and classified.  The endpoints
    still unlabelled are walked in order; the first one not yet covered
    is a representative, labelled by `_classify_point` on its
    `mp_polish`, and each H-image of its endpoint, its coordinates'
    signs flipped, is placed.  An endpoint no image matches becomes a
    representative in its turn, so the stored points and the symmetry
    save work but never decide the label of an endpoint they do not
    match.  A point whose root clusters Pellet counts leave undecided
    carries None as its multiple-root flag and is left out of the
    partition; `notes` names the census, each endpoint with that
    label and the reason, and each endpoint whose stratum is "?".
    """
    r = construction.admissible_triple(r)
    ends = solved["distinct"]
    points: list = [None] * len(ends)
    name = f"census ({r[0]}, {r[1]}, {r[2]}) at seed {seed}"

    def place(near: np.ndarray, label: StratumPoint) -> None:
        for k in np.flatnonzero(near):
            if points[k] is None:
                points[k] = label

    anchors, near, notes = _stored_points(r, seed, ends)
    for point, row in zip(anchors, near):
        octic = construction.octic_form(
            construction.octic_vector_on_slice(r, point))
        place(row, StratumPoint(_stratum([v != 0 for v in point[:3]]),
                                max_root_multiplicity_exact(octic) >= 6))
    flips = np.array(construction.h_orbit_signs(), dtype=float)
    for i, x in enumerate(ends):
        if points[i] is None:
            points[i] = _classify_point(mp_polish(solved["system"], x), r)
            place(np.any(_chordal_matrix(flips * x, ends) < TOL_MATCH,
                         axis=0), points[i])
    # report order: L0, then each other stratum split by the multiple-root
    # classifier (X1) or not (X2)
    partition = dict.fromkeys(
        ["L0"] + [f"{s}_X{k}" for s in ("L1", "L2", "L3", "Lopen")
                  for k in (1, 2)], 0)
    for k, p in enumerate(points):
        if p.multiple_root is None:
            notes.append(f"{name}: endpoint {k}: root clusters undecided: "
                         f"{p.undecided}")
            continue
        key = p.stratum if p.stratum == "L0" \
            else f"{p.stratum}_X{1 if p.multiple_root else 2}"
        if key in partition:
            partition[key] += 1
        else:
            notes.append(f"{name}: endpoint {k}: exactly one vanishing "
                         "leading coordinate (unclassifiable)")
    return StratumCensus(partition=partition, points=points, endpoints=ends,
                         notes=notes)


def u_dprime_image(census: StratumCensus):
    """Chart images of the non-multiple-root open-stratum points.

    Returns (the images, a (k, 9) array of complex doubles, their
    largest pairwise chordal distance).
    """
    coords = [x for x, p in zip(census.endpoints, census.points)
              if p.stratum == "Lopen" and p.multiple_root is False]
    images = np.array([[x2 * x3 / x1, x3 * x1 / x2, x1 * x2 / x3,
                        x7, x8, x9, 0, 0, 0]
                       for x1, x2, x3, x7, x8, x9 in coords],
                      dtype=complex).reshape(-1, 9)
    spread = float(np.max(_chordal_matrix(images, images), initial=0.0))
    return images, spread


# ---------------------------------------------------------------------------
# The fiber probe


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


def conic_points(pair: dict) -> list[np.ndarray]:
    """The points `construction.conic_pair` proves, as complex double
    vectors over its coordinates, and none when it proves none: each
    root of the eliminant R from `np.roots`, t = -K / L there, two
    Newton steps on the conic pair, mapped through the plane basis."""
    if not pair["count"]:
        return []
    coeffs, (k, l) = pair["eliminant"], pair["t_forms"]
    roots = [(complex(u), 1.0) for u in
             np.roots([complex(v) for v in coeffs])]
    if not coeffs[0]:
        roots.append((1.0, 0.0))        # the root z2 = 0
    gram = [np.array([[complex(co[min(i, j), max(i, j)])
                       * (1.0 if i == j else 0.5) for j in range(3)]
                      for i in range(3)]) for co in pair["conics"]]
    frame = np.array([[complex(v) for v in vec] for vec in pair["basis"]])
    return [_conic_newton(np.array(
        [z1, z2, -_form_value(k, z1, z2) / _form_value(l, z1, z2)]),
        gram) @ frame for z1, z2 in roots]


def _slice_rows(r: tuple, seed, s: int) -> list[np.ndarray]:
    """The three seeded unit rows of fiber slice s over r."""
    rng = _rng(seed, "fiber-slice", r, s)
    return [_unit_row(rng, 9) for _ in range(3)]


def exact_slice(r: tuple, seed, s: int) -> dict:
    """`construction.conic_pair` of fiber slice s over r, its count and
    plane data: the three linear fiber rows and the slice's three seeded
    rows, whose double entries are exact Gaussian rationals, cut a plane
    over Q(i), on which the two quadrics are two conics.  `conic_points`
    recovers the slice's points from it."""
    r = tuple(map(as_exact, r))
    equations = construction.fiber_equations(r)
    rows = [[e.coeff({y: 1}) for y in Y_NAMES] for e in equations[2:]]
    rows += [[construction.gaussian(z) for z in row]
             for row in _slice_rows(r, seed, s)]
    return construction.conic_pair(ExactMatrix(rows).kernel_basis(),
                                   equations[:2], Y_NAMES)


def _slice_problem(r: tuple, seed) -> tuple:
    """Fiber slice 0 over r, the fiber equations and the slice's three
    seeded rows, as a `solve_stacked` problem (rows, seed, tag, want)."""
    rows = [_linear_form(row, Y_NAMES) for row in _slice_rows(r, seed, 0)]
    return construction.fiber_equations(r) + rows, seed, f"fiber:{r}:0", None


def _preimage_target(seed, trial: int) -> np.ndarray:
    """The seeded target of a preimage trial, four complex doubles."""
    rng = _rng(seed, "preimage", trial)
    return np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(4)])


def _preimage_problem(r: tuple, seed, extract_rows: list) -> tuple:
    """Preimage trial 0 on the fiber over r as a `solve_stacked` problem
    that wants one regular endpoint: the fiber equations and three rows,
    the minors of the point projected by the exact `extract_rows` of
    `construction.projection_data` against the target n."""
    n = _preimage_target(seed, 0)
    extract = np.array([[complex(v) for v in row] for row in extract_rows])
    pivot = int(np.argmax(np.abs(n)))
    align = [_linear_form(n[j] * extract[pivot] - n[pivot] * extract[j],
                          Y_NAMES) for j in range(4) if j != pivot]
    return construction.fiber_equations(r) + align, seed, "preimage:0", 1


def fiber_probe(r: tuple, seed, slice_count: int,
                numeric: NumericRun) -> dict:
    """Slice the chart-space fiber over r and count each slice.

    Each seeded codimension-3 slice cuts the fiber to two conics on a
    plane, counted exactly by `exact_slice`.  Slice 0 is also tracked
    by homotopy as a cross-check: `cross_check` holds its path count
    and, per distinct endpoint, the chordal distance to the nearest
    exact-plane point.  Runs are deterministic in the arguments.  The
    exact slices and the tracked slice come from the run `numeric`.
    """
    r = tuple(map(as_exact, r))
    slices = [numeric.exact_slice(r, seed, s) for s in range(slice_count)]
    run = numeric.solve("slice", r, seed)
    exact0 = np.array(conic_points(slices[0]),
                      dtype=complex).reshape(-1, len(Y_NAMES))
    chordal = np.min(_chordal_matrix(run["distinct"], exact0), axis=1,
                     initial=math.inf).tolist()
    return {
        "slice_counts": [sl["count"] for sl in slices],
        "slice_reasons": [sl["reason"] for sl in slices],
        "projections": [sl["projection"] for sl in slices],
        "cross_check": {"path_count": run["path_count"], "chordal": chordal},
    }


# the small-parameter triple of `numeric/fiber_5`
SMALL_R = tuple(v * _F(1, 100000) for v in construction.SAMPLE_R)


class NumericRun:
    """The projection data, tracked solves and census labels of one
    battery run, shared by its numeric checks.

    A run for the numeric checks `check_ids` at (seed, sample_r) reads
    `construction.projection_data` once, as `projection`, and lists in
    `plan` the solves (kind, r, seed) its checks will ask for, check by
    check, in the order they ask: censuses, and `numeric/fiber_5`'s
    fiber slice 0 and, when the projection has extraction rows, preimage
    trial 0, which they align.  `solve(kind, r, seed)` is the one way to
    a tracked solve: a "census" over CHART_VARS, or fiber "slice" 0 or
    "preimage" trial 0 over Y_NAMES.  The first request for a solve
    tracks it and every planned solve of its variable order not yet
    solved, each once, as one stack (`solve_stacked`); a solve not in
    the plan is tracked alone once the plan of its order is solved.  A
    census is its tracked solve plus its labels: `census` labels a solve
    the first time it is asked for, through the module's
    `count_stratum_points`, so a tracer that wraps that attribute sees
    every labelled census.  The exact fiber slices are kept the same
    way, so slice 0 at seed S, which `numeric/fiber_5` and
    `numeric/seed_stability` both count, is counted once.  The fiber
    probe is not stored: `numeric/fiber_5` alone asks for it.
    """

    def __init__(self, check_ids=(), seed: int = 0,
                 sample_r: tuple = ()) -> None:
        self.projection = construction.projection_data()
        rows = self.projection["extract_rows"]
        origin = (_F(0),) * 3
        preimage = [("preimage", origin, seed)] if rows is not None else []
        asks = {
            "numeric/lemma6_2": [("census", sample_r, seed),
                                 ("census", origin, seed)],
            "numeric/fiber_5": [("slice", origin, seed),
                                ("census", origin, seed),
                                ("census", SMALL_R, seed), *preimage],
            "numeric/seed_stability": [("census", sample_r, seed + k)
                                       for k in range(3)],
        }
        self.plan = [(kind, tuple(map(as_exact, r)), s)
                     for cid in check_ids for kind, r, s in asks.get(cid, ())]
        self._solved: dict = {}
        self._results: dict = {}
        self._slices: dict = {}

    def solve(self, kind: str, r: tuple, seed: int) -> dict:
        key = (kind, tuple(map(as_exact, r)), seed)
        if key not in self._solved:
            rows = self.projection["extract_rows"]
            builders = {"census": (_census_problem, CHART_VARS),
                        "slice": (_slice_problem, Y_NAMES),
                        "preimage": (lambda t, s: _preimage_problem(t, s, rows),
                                     Y_NAMES)}
            order = builders[kind][1]
            todo = [k for k in dict.fromkeys([*self.plan, key])
                    if k not in self._solved and builders[k[0]][1] == order]
            self._solved.update(zip(todo, solve_stacked(
                [builders[k][0](t, s) for k, t, s in todo], order)))
        return self._solved[key]

    def census(self, r: tuple, seed: int) -> StratumCensus:
        solved = self.solve("census", r, seed)
        key = (tuple(map(as_exact, r)), seed)
        if key not in self._results:
            self._results[key] = count_stratum_points(r, seed, solved)
        return self._results[key]

    def exact_slice(self, r: tuple, seed, s: int) -> dict:
        key = (tuple(map(as_exact, r)), seed, s)
        if key not in self._slices:
            self._slices[key] = exact_slice(r, seed, s)
        return self._slices[key]


# ---------------------------------------------------------------------------
# CheckResult wrappers


def check_stratum_counts(seed: int, sample_r: tuple,
                         numeric: NumericRun) -> CheckResult:
    """Numeric census of the restricted system over two parameter values.

    At the generic sample the thirty-two paths must produce thirty-two
    accepted, regular, distinct endpoints partitioned 4 + (2 per stratum
    and class) + (12 + 4); the four non-multiple-root open-stratum points
    must form a single orbit of the diagonal subgroup.  At the parameter
    origin the open stratum must carry sixteen points.  Both censuses'
    notes are residuals, so a stored point (`construction.census_anchors`)
    that matches no endpoint of either fails the check.
    """
    residuals: list[str] = []
    sample_r = tuple(map(as_exact, sample_r))

    run = numeric.solve("census", sample_r, seed)
    census = numeric.census(sample_r, seed)
    residuals.extend(census.notes)
    expected = {"L0": 4, "L1_X1": 2, "L1_X2": 2, "L2_X1": 2, "L2_X2": 2,
                "L3_X1": 2, "L3_X2": 2, "Lopen_X1": 12, "Lopen_X2": 4}
    if run["path_count"] != 32:
        residuals.append(f"path count {run['path_count']} != 32")
    if run["accepted_count"] != 32 or len(census.points) != 32:
        residuals.append(
            f"accepted {run['accepted_count']}, distinct "
            f"{len(census.points)}: expected 32 accepted, 32 distinct "
            f"(failed paths: {run['failed']})")
    if census.partition != expected:
        residuals.append(f"partition {census.partition} != {expected}")
    min_sv = min(run["sv_min"].tolist(), default=math.inf)
    if min_sv <= SV_REGULAR:
        residuals.append(
            f"smallest endpoint singular value {min_sv:.3e} is not "
            f"above {SV_REGULAR:.0e} (a multiple point)")

    # Orbit structure of the four non-multiple-root open-stratum points.
    orbit_pts = [x for x, p in zip(census.endpoints, census.points)
                 if p.stratum == "Lopen" and p.multiple_root is False]
    if len(orbit_pts) != 4:
        residuals.append(
            f"open-stratum non-multiple-root count {len(orbit_pts)} != 4")
    else:
        flips = np.array(construction.h_orbit_signs(), dtype=complex)
        near = _chordal_matrix(flips * orbit_pts[0],
                               np.array(orbit_pts)) < TOL_MATCH
        hits = near.sum(axis=1)
        residuals.extend("diagonal-subgroup image of an open-stratum point "
                         f"matched {k} endpoints" for k in hits.tolist()
                         if k != 1)
        # every point is the one match of some image
        if not near[hits == 1].any(axis=0).all():
            residuals.append(
                "the four open-stratum points are not a single "
                "diagonal-subgroup orbit")

    origin = numeric.census((0, 0, 0), seed)
    residuals.extend(origin.notes)
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
        "min_singular_value": min_sv,
        "failed_paths": run["failed"],
        "rescued": run["rescue_added"],
        "tolerances": {"track": TOL_TRACK, "dedup": TOL_DEDUP,
                       "match": TOL_MATCH, "cluster_radius": CLUSTER_RADIUS},
        "seed": seed,
    }
    return _finish(residuals, details)


def check_fiber_geometry(seed: int, numeric: NumericRun) -> CheckResult:
    """Numeric geometry of the parameter-origin fiber and the projection.

    The fiber sliced by a random codimension-3 space has degree four;
    the common chart image of the non-multiple-root open-stratum points
    recovers the stored fiber point; the exact projection data (center
    and target ranks, empty intersection) holds, and the checks that
    read its extraction rows are skipped if it does not span; and each
    of ten random targets has exactly one regular preimage on the fiber.

    The preimages are proved over Q(zeta_8) by
    `construction.exact_preimage` on the very same seeded Gaussian
    targets, whose double coordinates are exact rationals: a preimage
    counts as regular when its two lines meet transversally (rank 2,
    lambda nonzero), the exact analogue of a smallest singular value
    above SV_REGULAR.  The three ranks are read exactly from these
    points.  At trial 0's preimage, which must solve the five fiber
    equations exactly, the fiber Jacobian has rank five (dimension
    three) and the projection differential, the extraction rows on the
    Jacobian's kernel, rank four (projective rank three); a trial 0
    without a point leaves both None.  The ten preimages, each lambda
    times its target, project onto a span of rank four.  `center_line`
    records the identity behind the count: the center line l has
    dimension 2, both quadrics vanish on it, and each factored as
    lambda * L_i on every trial's plane.  Trial 0 is also tracked by
    homotopy: `preimage_cross_check` gives the chordal distance of its
    one regular endpoint from the exact point (below TOL_MATCH), its
    failed paths per tracked chart as [index, status] (one chart, unless
    the first misses the regular endpoint), and how many `polish`
    endpoints lie within TOL_DEDUP of l (a `polish` endpoint off l is a
    residual).

    The slice degree is proved the same way: each of the five seeded
    slices cuts the fiber to two conics on a plane over Q(i), and
    `exact_slice` counts their four transversal points, by the first
    center of `construction.PROJECTIONS` that separates them
    (`slice_projections`).
    Slice 0 is also tracked by homotopy: `slice_cross_check` gives the
    largest chordal distance of its four endpoints from the exact-plane
    points (each below TOL_MATCH).
    """
    residuals: list[str] = []
    origin = (_F(0), _F(0), _F(0))

    probe = fiber_probe(origin, seed, slice_count=5, numeric=numeric)
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

    # The common chart image of the open-stratum non-multiple-root points.
    census = numeric.census(origin, seed)
    residuals.extend(census.notes)
    images, spread = u_dprime_image(census)
    exact_image = np.array([complex(c) for c in construction.special_points()
                            ["u_dprime_0"].coords])
    if len(images) != 4:
        residuals.append(f"open-stratum non-multiple-root count "
                         f"{len(images)} != 4 at the parameter origin")
    if spread > 1e-6:
        residuals.append(f"chart images disagree (spread {spread:.2e})")
    if len(images) and _chordal_matrix(exact_image[None],
                                       images[:1])[0, 0] > 1e-6:
        residuals.append(
            "chart image of the non-multiple-root orbit misses the "
            "stored fiber point")

    # Small-parameter continuity of the common image.
    census_small = numeric.census(SMALL_R, seed)
    residuals.extend(census_small.notes)
    images_small, spread_small = u_dprime_image(census_small)
    if len(images_small) != 4 or spread_small > 1e-4:
        residuals.append(
            f"small-parameter image: count {len(images_small)}, spread "
            f"{spread_small:.2e}")
    elif _chordal_matrix(exact_image[None], images_small[:1])[0, 0] > 1e-2:
        residuals.append("small-parameter image is not close to the "
                         "parameter-origin image")

    # Exact projection data, as the run read it.
    proj = numeric.projection
    if proj["center_rank"] != 5:
        residuals.append(f"center rank {proj['center_rank']} != 5")
    if proj["target_rank"] != 4:
        residuals.append(f"target rank {proj['target_rank']} != 4")
    if proj["intersection_dim"] != 0:
        residuals.append(
            f"center/target intersection dimension "
            f"{proj['intersection_dim']} != 0")
    rows = proj["extract_rows"]
    if rows is None:
        residuals.append("center plus target do not span the chart space")

    # Preimage counts of random targets, from the exact plane meet; a
    # failure of the center-line identity is a trial's reason.  Trial 0
    # is also solved by homotopy as a cross-check.
    exact = [construction.exact_preimage([construction.gaussian(z) for z
                                          in _preimage_target(seed, trial)])
             for trial in range(10)]
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

    # The exact ranks, at trial 0's preimage and over all ten.
    jac_rank = push_rank = img_rank = cross_check = None
    if exact[0]["point"] is None:
        residuals.append("preimage trial 0 has no point: the fiber Jacobian "
                         "and projection differential ranks are not read")
    else:
        jac_rank, push_rank = _fiber_point_ranks(exact[0]["point"], rows,
                                                 residuals)
    if jac_rank not in (None, 5):
        residuals.append(f"fiber Jacobian rank {jac_rank} != 5")
    if push_rank not in (None, 4):
        residuals.append(
            f"projection differential spans rank {push_rank} != 4 "
            "(projective rank 3 expected)")
    if rows is not None:
        project = ExactMatrix(rows).apply
        img_rank = ExactMatrix([project(sol["point"]) for sol in exact
                                if sol["point"] is not None]).rank()
        if img_rank != 4:
            residuals.append(
                f"projected fiber preimages span rank {img_rank} != 4")
        cross_check = _preimage_cross_check(seed, numeric, exact[0],
                                            residuals)

    details = {
        "slice_counts": probe["slice_counts"],
        "slice_projections": probe["projections"],
        "slice_cross_check": {
            "slice": 0,
            "chordal": max(tracked["chordal"], default=None)},
        "fiber_jacobian_rank": jac_rank,
        "center_rank": proj["center_rank"],
        "target_rank": proj["target_rank"],
        "intersection_dim": proj["intersection_dim"],
        "image_span_rank": img_rank,
        "differential_span_rank": push_rank,
        "preimage_counts": preimage_counts,
        "center_line": center_line,
        "preimage_cross_check": cross_check,
        "tolerances": {"track": TOL_TRACK, "dedup": TOL_DEDUP},
        "seed": seed,
    }
    return _finish(residuals, details)


def _fiber_point_ranks(point: list, rows: list | None,
                       residuals: list[str]) -> tuple[int, int | None]:
    """The exact ranks at the parameter-origin fiber point `point`: of
    the fiber Jacobian, and of the projection differential, `rows`
    applied to the Jacobian's kernel (None without `rows`).  The kernel
    holds the scale direction, so a fiber of dimension three, smooth at
    `point`, on which the projection has differential rank three gives
    (5, 4).  A fiber equation that does not vanish at `point` is a
    residual."""
    equations = construction.fiber_equations((_F(0), _F(0), _F(0)))
    env = dict(zip(Y_NAMES, point))
    off = [k for k, e in enumerate(equations) if e.evaluate(env) != 0]
    if off:
        residuals.append(f"the trial 0 preimage is not on the fiber: "
                         f"equations {off} do not vanish there")
    jac = jacobian_at(equations, Y_NAMES, env)
    tangent = jac.kernel_basis()
    push_rank = None if rows is None else (
        ExactMatrix(rows) * ExactMatrix.from_columns(tangent)).rank()
    return jac.ncols - len(tangent), push_rank


def _preimage_cross_check(seed: int, numeric: NumericRun, sol: dict,
                          residuals: list[str]) -> dict:
    """Compare the run's tracked solve of preimage trial 0, which wants
    its one regular endpoint, with the exact meet `sol`: that endpoint
    must lie within TOL_MATCH of the exact preimage.  Every failed path
    of a tracked chart that ends `polish` must end within TOL_DEDUP of
    the center line l, the excess component every alignment row vanishes
    on.  `stalled` and `diverged` paths are reported by status only:
    their last iterate is the last point they accepted on the path, not
    an endpoint of F."""
    run = numeric.solve("preimage", (_F(0),) * 3, seed)
    regular = run["distinct"][run["sv_min"] > SV_REGULAR]
    chordal = None
    if len(regular) != 1 or sol["point"] is None:
        residuals.append(
            f"preimage cross-check: {len(regular)} regular homotopy "
            f"endpoints against {sol['count']} exact preimages")
    else:
        chordal = float(_chordal_matrix(
            regular, np.array([[complex(v) for v in sol["point"]]]))[0, 0])
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
        "trial": 0,
        "chordal": chordal,
        "failed_paths": [[[r.index, r.status] for r in paths]
                         for paths in run["failures"]],
        "on_center_line": on_line,
    }


def check_seed_stability(seed: int, sample_r: tuple,
                         numeric: NumericRun) -> CheckResult:
    """The census and the fiber slice degree match across seeds.

    Census S alone is labelled.  The censuses at seeds S+1 and S+2 are
    matched to it point for point, each as its tracked solve
    (`NumericRun.solve`): each endpoint that matches no point of census
    S at TOL_MATCH, each point of census S that no endpoint matches, and
    each stored point (`construction.census_anchors`) that no endpoint
    matches is named.  The degree is the exact count of fiber slice 0 at
    each seed, by `exact_slice` through the run's `NumericRun`, which
    shares slice 0 at seed S with `numeric/fiber_5`; nothing is tracked
    for it.
    """
    r = construction.admissible_triple(sample_r)
    residuals: list[str] = []
    seeds = (seed, seed + 1, seed + 2)
    census = numeric.census(r, seed)
    residuals.extend(census.notes)
    for s in seeds[1:]:
        ends = numeric.solve("census", r, s)["distinct"]
        residuals.extend(_stored_points(r, s, ends)[2])
        near = _chordal_matrix(census.endpoints, ends) < TOL_MATCH
        residuals.extend(
            f"seed {s}: endpoint {i} matches no point of seed {seed}"
            for i in np.flatnonzero(~near.any(axis=0)).tolist())
        residuals.extend(
            f"seed {s}: point {j} of seed {seed} matches no endpoint"
            for j in np.flatnonzero(~near.any(axis=1)).tolist())
    slices = [numeric.exact_slice((_F(0),) * 3, s, 0) for s in seeds]
    residuals.extend(f"seed {s}: fiber slice 0: {exact['reason']}"
                     for s, exact in zip(seeds, slices) if exact["reason"])
    slice_counts = [exact["count"] for exact in slices]
    if len(set(slice_counts)) != 1:
        residuals.append(f"fiber slice counts {slice_counts} differ by seed")
    details = {
        "seeds": list(seeds),
        "partition": census.partition,
        "slice_counts": slice_counts,
        "tolerances": {"track": TOL_TRACK, "dedup": TOL_DEDUP},
    }
    return _finish(residuals, details)
