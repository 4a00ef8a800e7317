"""Outside-in layer trace for the benchmark's traced runs.

The tracer replaces public names of the covforge layers with wrappers,
at the place where each caller looks the name up, and keeps every span
in memory until the run ends.  A span is (name, start, end, parent);
self time is a span's duration minus the durations of its direct child
spans.  Names that run on the order of 10^5 or more times per run are
only counted, never timed, so the trace cost stays small next to the
work; the compiled-system kernels (`CompiledSystem.eval_all`,
`jacobian`) are neither timed nor counted.

`install()` patches the process for the rest of its life, so it runs
only in a traced child, before the traced work starts.

The trace cost is measured in the same process: the calls each kind of
wrapper made, times that wrapper's cost per call over a bare call.  An
untraced run to subtract from would double a traced run's length, and
the difference of two minute-long runs is below the machine's noise.
"""

from __future__ import annotations

import statistics
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

import mpmath

from covforge import binform, checks, continuation, exlinalg, mpoly, scalar

PATH_STATUSES = ("accepted", "stalled", "polish", "diverged")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.paths: list[tuple[str, int]] = []   # (terminal status, steps)
        self.unique: dict[str, set] = defaultdict(set)

    def span(self, owner, attr: str, name: str, note=None) -> None:
        """Time every call of owner.attr as a span called `name`; `note`
        sees the arguments and the result of each call."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr under `name`, without timing them."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def overhead_s(self) -> float:
        """Seconds the wrappers themselves cost this run."""
        spans = _per_call_cost(
            lambda owner, attr: Tracer().span(owner, attr, "probe"))
        counts = _per_call_cost(
            lambda owner, attr: Tracer().count(owner, attr, "probe"))
        return (len(self.spans) * spans
                + sum(self.counts.values()) * counts)

    def note_track(self, args, kwargs, result) -> None:
        self.paths.extend((p.status, p.steps) for p in result[0])

    def note_unique(self, name: str, extra: str | None = None):
        """Record the distinct (r, seed[, extra]) arguments of a memoized
        entry point, with r normalized the way the callee normalizes it."""
        def note(args, kwargs, result):
            key = (tuple(Fraction(v) for v in args[0]), args[1])
            if extra is not None:
                key += (kwargs.get(extra, args[3] if len(args) > 3 else 1),)
            self.unique[name].add(key)
        return note

    def _by_name(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds, first call s]."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0, 0.0, end - start])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer values; a layer that did not run reads 0."""
        by = self._by_name()

        def get(name, field):
            return by[name][field] if name in by else 0

        def ratio(num, den):
            return num / den if den else 0.0

        steps = [s for _status, s in self.paths]
        iters = sum(steps)
        useful = sum(s for status, s in self.paths if status == "accepted")
        status = Counter(st for st, _s in self.paths)
        track_self = get("continuation.track", 2)
        polish = get("continuation.mp_polish", 1)
        polish_calls = get("continuation.mp_polish", 0)
        cluster_calls = get("continuation.octic_root_clusters", 0)
        m = {
            "continuation.track_s": track_self,
            "continuation.track_calls": get("continuation.track", 0),
            "continuation.paths": len(self.paths),
            "continuation.accept_ratio": ratio(status["accepted"],
                                               len(self.paths)),
            "continuation.iters": iters,
            "continuation.iters_per_path_p50": (
                statistics.median(steps) if steps else 0),
            "continuation.iters_wasted_share": ratio(iters - useful, iters),
            "continuation.us_per_iter": ratio(track_self * 1e6, iters),
            "continuation.solve_calls": get("continuation.solve_projective", 0),
            "continuation.rescue_charts": (
                get("continuation.track", 0)
                - get("continuation.solve_projective", 0)),
            "continuation.solve_self_s": get("continuation.solve_projective",
                                             2),
            "continuation.polish_s": polish,
            "continuation.polish_calls": polish_calls,
            "continuation.ms_per_polish": ratio(polish * 1e3, polish_calls),
            "continuation.cluster_s": get("continuation.octic_root_clusters",
                                          2),
            "continuation.cluster_calls": cluster_calls,
            "continuation.ms_per_cluster": ratio(
                get("continuation.octic_root_clusters", 1) * 1e3,
                cluster_calls),
            "mpmath.polyroots_s": get("mpmath.polyroots", 1),
            "mpmath.polyroots_calls": get("mpmath.polyroots", 0),
            "continuation.polyroots_per_cluster": ratio(
                get("mpmath.polyroots", 0), cluster_calls),
            "continuation.census_calls": get(
                "continuation.count_stratum_points", 0),
            "continuation.census_unique": len(
                self.unique["continuation.count_stratum_points"]),
            "continuation.census_s": get("continuation.count_stratum_points",
                                         1),
            "continuation.probe_calls": get("continuation.fiber_probe", 0),
            "continuation.probe_unique": len(
                self.unique["continuation.fiber_probe"]),
            # calibrate_conventions is memoized: its first call is the work.
            "binform.calibrate_s": get("binform.calibrate_conventions", 3),
            "binform.transvectant_calls": get("binform.transvectant", 0),
            "binform.transvectant_s": get("binform.transvectant", 1),
            "scalar.mul_calls": self.counts["scalar.mul"],
            "mpoly.mul_calls": self.counts["mpoly.mul"],
            "mpoly.substitute_calls": self.counts["mpoly.substitute"],
            "exlinalg.rref_calls": get("exlinalg.rref", 0),
            "exlinalg.rref_s": get("exlinalg.rref", 1),
            "trace.overhead_s": self.overhead_s(),
        }
        for st in PATH_STATUSES:
            m[f"continuation.paths_{st}"] = status[st]
        return m


def _per_call_cost(wrap, calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call of a function that does
    nothing; the least of a few timings, since noise only adds time."""
    probe = types.SimpleNamespace(fn=lambda *args, **kwargs: None)
    bare = probe.fn
    wrap(probe, "fn")
    wrapped = probe.fn
    clock = time.perf_counter

    def timed(fn) -> float:
        start = clock()
        for _ in range(calls):
            fn(1, 2)
        return clock() - start

    best = min(timed(wrapped) - timed(bare) for _ in range(repeats))
    return max(best, 0.0) / calls


def install() -> Tracer:
    """Wrap every traced layer boundary of this process."""
    tr = Tracer()
    # solve_projective reaches track, mp_polish and octic_root_clusters as
    # module globals of continuation, so the module attributes are wrapped.
    tr.span(continuation, "track", "continuation.track", tr.note_track)
    tr.span(continuation, "solve_projective", "continuation.solve_projective")
    tr.span(continuation, "mp_polish", "continuation.mp_polish")
    tr.span(continuation, "octic_root_clusters",
            "continuation.octic_root_clusters")
    # octic_root_clusters calls polyroots through the mpmath module.
    tr.span(mpmath, "polyroots", "mpmath.polyroots")
    tr.span(continuation, "count_stratum_points",
            "continuation.count_stratum_points",
            tr.note_unique("continuation.count_stratum_points"))
    tr.span(continuation, "fiber_probe", "continuation.fiber_probe",
            tr.note_unique("continuation.fiber_probe", "slice_count"))
    # checks imports these two by name; binform calls its own globals.
    for owner in (binform, checks):
        tr.span(owner, "calibrate_conventions", "binform.calibrate_conventions")
        tr.span(owner, "transvectant", "binform.transvectant")
    tr.span(exlinalg.ExactMatrix, "rref", "exlinalg.rref")
    for attr in ("__mul__", "__rmul__"):
        tr.count(scalar.CycScalar, attr, "scalar.mul")
        tr.count(mpoly.MPoly, attr, "mpoly.mul")
    tr.count(mpoly.MPoly, "substitute", "mpoly.substitute")
    return tr
