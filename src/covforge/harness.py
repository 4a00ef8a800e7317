"""Command-line battery runner for the verification checks.

Selects registered checks by id glob, runs the exact suites and the
continuation suites, and renders a report in text or JSON with a stable
schema.  When a run selects both, the exact suites run in one forked
process beside the continuation suites, which the calling process runs;
a platform without `os.fork` or a process bound to one CPU runs them one
after the other.  A row's time is its call's wall time within its own
process, and an error in an exact check still ends the run with its
traceback, once the continuation suites are over.  The registry alone
names a check: a check returns its findings, and the runner times each
call and stamps the registry's id and paper anchor on the result.  Every
knob is both a flag and an environment variable with the ``COVFORGE_``
prefix; a flag wins over its variable, an empty variable counts as
unset, and a set ``COVFORGE_`` variable that names no knob or does not
parse is a configuration error that names it.  The tolerances are not
knobs but constants of ``continuation``, which only a run with a numeric
check imports; the numeric checks of one run share their tracked solves
through one ``NumericRun``.  The corrected-typo ledger ships as a
package resource, named at the end of every text report.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from . import checks as _checks
from .checks import CheckResult
from .construction import SAMPLE_R, admissible_triple

ENV_PREFIX = "COVFORGE_"
ERRATA_RESOURCE = "covforge/errata.json"


@dataclass(frozen=True)
class RunConfig:
    """One fully-specified battery run; equal configs give equal reports
    (timings aside).  Its fields are the only knobs, each default is
    written only here (the triple is the census's `SAMPLE_R`), and the
    tolerances are constants of `continuation`."""

    filter: str = "*"
    seed: int = 42
    sample_r: tuple = SAMPLE_R
    format: str = "text"

    def validate(self) -> None:
        if self.format not in ("text", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if len(self.sample_r) != 3:
            raise ValueError("sample_r needs exactly three entries")
        admissible_triple(self.sample_r)


def _numeric():
    from . import continuation      # the numeric layer, loaded on first use
    return continuation


# The registry: check id, report anchor (interface data), phase, runner.
# A runner takes the run config and the run's shared NumericRun, or None,
# and returns the check's findings, which `run` stamps with id and anchor.
def _registry() -> tuple:
    def sym(fn):
        return lambda cfg, numeric: fn()

    def prop(fn):
        return lambda cfg, numeric: fn(seed=cfg.seed)

    return (
        ("symbolic/expansion_1_2", "(1.2)", "exact",
         sym(_checks.check_expansion_1_2)),
        ("symbolic/action_table_3_1", "(3.1)", "exact",
         sym(_checks.check_action_table_3_1)),
        ("symbolic/group_structure", "§2 Example 2.4; §6 κ", "exact",
         sym(_checks.check_group_structure)),
        ("symbolic/equivariance_invariants", "Lemma 3.1; §3", "exact",
         sym(_checks.check_equivariance_and_invariant_spaces)),
        ("symbolic/jacobians", "§0; Lemma 3.2(1)", "exact",
         sym(_checks.check_jacobians)),
        ("symbolic/lemma_4_2", "(4.1)–(4.2); §4", "exact",
         sym(_checks.check_lemma_4_2)),
        ("symbolic/derivation_4_5", "(4.5); §5", "exact",
         sym(_checks.check_derivation_4_5)),
        ("symbolic/strata_6", "(6.3)–(6.4); §6", "exact",
         sym(_checks.check_strata_6)),
        ("property/field_axioms", "§1 (ground field)", "exact",
         prop(_checks.check_field_axioms)),
        ("property/mpoly_ring", "§1 (coordinate rings)", "exact",
         prop(_checks.check_mpoly_ring)),
        ("property/transvectants", "§1 (transvectants)", "exact",
         prop(_checks.check_transvectant_properties)),
        ("property/scaling_1_1", "(1.1)", "exact",
         prop(_checks.check_scaling_1_1)),
        ("numeric/lemma6_2", "Lemma 6.2", "numeric",
         lambda cfg, numeric: _numeric().check_stratum_counts(
             seed=cfg.seed, sample_r=cfg.sample_r, numeric=numeric)),
        ("numeric/fiber_5", "Lemmas 5.1–5.5", "numeric",
         lambda cfg, numeric: _numeric().check_fiber_geometry(
             seed=cfg.seed, numeric=numeric)),
        ("numeric/seed_stability", "Lemma 6.2 (stability)", "numeric",
         lambda cfg, numeric: _numeric().check_seed_stability(
             seed=cfg.seed, sample_r=cfg.sample_r, numeric=numeric)),
    )


def check_ids() -> tuple[str, ...]:
    return tuple(entry[0] for entry in _registry())


def errata_ledger() -> list[dict]:
    """The machine-readable corrected-typo ledger shipped with the package."""
    data = resources.files("covforge").joinpath("errata.json").read_text()
    return json.loads(data)


@dataclass
class Report:
    config: RunConfig
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def sorted_results(self) -> list[CheckResult]:
        return sorted(self.results, key=lambda r: r.check_id)


def select(config: RunConfig) -> list:
    """The registry entries the config's filter selects.  Raises
    ValueError for a malformed config and LookupError when the filter
    selects nothing; nothing has run yet when either is raised."""
    config.validate()
    selected = [entry for entry in _registry()
                if fnmatch.fnmatch(entry[0], config.filter)]
    if not selected:
        raise LookupError(
            f"filter {config.filter!r} matches no check id; known ids: "
            + ", ".join(check_ids()))
    return selected


def run(config: RunConfig) -> Report:
    """Run every check whose id matches the config filter.

    The exact phase and the numeric phase each run their checks in
    registry order, and the results list the exact ones first; the
    report is ordered by check id.  When the selection holds both
    phases, the exact checks run in one forked process beside the
    numeric phase, which the calling process runs: no numeric check
    reads an exact result.  The two phases run one after the other in
    the calling process on a platform without `os.fork`, in a process
    bound to one CPU, when the system cannot fork, and in a single-phase
    run.  The fork comes before the numeric layer is imported, so a CLI
    run forks a single-threaded process; a caller that has loaded numpy
    already forks one that holds its BLAS threads, which the forked
    process, doing exact arithmetic only, never uses.  A numpy that the
    caller loads beside the forked process keeps one OpenBLAS thread,
    unless OPENBLAS_NUM_THREADS is set.  Each result
    carries its registry id and paper anchor and the milliseconds of its
    one call, timed in the process that made it, so an exact row's time
    can include contention for a CPU.  An error in an exact check ends
    the run with its type and its traceback once the numeric phase is
    over; the forked process ends with the call, however the calling
    process ends.  Selected numeric checks share
    one NumericRun, built for them: it reads the projection data once
    and plans the solves they will ask for, so that it can track them
    together.  Raises as `select` does for a malformed config or an
    empty selection.
    """
    selected = select(config)
    exact = [entry for entry in selected if entry[2] == "exact"]
    numeric = [entry for entry in selected if entry[2] == "numeric"]
    forked = None
    if exact and numeric and hasattr(os, "fork") and _cpus() > 1:
        try:
            forked = _ForkedPhase(config, exact)
        except OSError:         # no process to spare: run them in turn
            pass
    if forked is None:
        shared = _numeric_run(config, numeric)
        return Report(config=config, results=_run_phase(config, exact)
                      + _run_phase(config, numeric, shared))
    with forked:
        shared = _numeric_run(config, numeric, one_blas_thread=True)
        numeric_results = _run_phase(config, numeric, shared)
        return Report(config=config,
                      results=forked.results() + numeric_results)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_phase(config: RunConfig, entries: list, numeric=None) -> list:
    """The stamped results of the registry entries, each call timed."""
    results = []
    for cid, anchor, _kind, fn in entries:
        started = time.perf_counter()
        result = fn(config, numeric)
        results.append(replace(
            result, check_id=cid, paper_anchor=anchor,
            millis=(time.perf_counter() - started) * 1000.0))
    return results


def _numeric_run(config: RunConfig, entries: list,
                 one_blas_thread: bool = False):
    """One NumericRun built for the numeric entries, or None for none.

    With `one_blas_thread`, a numpy first loaded here keeps one OpenBLAS
    thread, unless OPENBLAS_NUM_THREADS is set: the idle threads of its
    pool spin for a while after they start, which only takes a CPU from
    a forked phase.  The variable is unset again once numpy has loaded.
    """
    if not entries:
        return None
    pin = one_blas_thread and "OPENBLAS_NUM_THREADS" not in os.environ
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        numeric = _numeric()
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return numeric.NumericRun([entry[0] for entry in entries],
                              config.seed, config.sample_r)


class _ForkedPhase:
    """One phase of checks run in a forked process, which pickles its
    stamped results, or the error that ended it, into a pipe.

    The forked process sees the caller's state as it was at the fork,
    monkeypatches included, and ends with `os._exit`; it also ends as
    soon as the caller does, however the caller ends, since a thread of
    it waits for end-of-file on a second pipe whose only write end the
    caller holds.  `results` reads the pipe, reaps the process and
    returns its results or raises its error; leaving the `with` block
    closes the pipes and kills and reaps a process that `results` did
    not reap, whatever ended the block.  Raises OSError, holding no
    pipe, when the system cannot make the pipes or the process.
    """

    def __init__(self, config: RunConfig, entries: list) -> None:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            _send_phase(config, entries, *fds)
        read_end, write_end, life_end, self._lifeline = fds
        os.close(write_end)
        os.close(life_end)
        self._pipe = os.fdopen(read_end, "rb")

    def results(self) -> list:
        import pickle
        data = self._pipe.read()
        _pid, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code or not data:
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise RuntimeError(f"the exact-phase process ended with {how} "
                               "and sent no results")
        results, error, text = pickle.loads(data)
        if text is None:
            return results
        if error is None:
            raise RuntimeError("an exact check failed in the exact-phase "
                               f"process:\n{text}")
        raise error from RuntimeError(f"in the exact-phase process:\n{text}")

    def __enter__(self) -> "_ForkedPhase":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pipe.close()
        os.close(self._lifeline)
        if self.pid is not None:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _send_phase(config: RunConfig, entries: list, read_end: int,
                write_end: int, life_end: int, lifeline: int):
    """The forked process of `_ForkedPhase`: run the phase and send
    (results, error, traceback text) through the pipe; an error that
    does not survive pickling is sent as its traceback text alone.
    Ends at once when `life_end` reads end-of-file.  Never returns."""
    import pickle
    import threading
    import traceback
    status = 1
    try:
        os.close(read_end)
        os.close(lifeline)
        threading.Thread(target=_end_at_eof, args=(life_end,),
                         daemon=True).start()
        try:
            payload = (_run_phase(config, entries), None, None)
        except BaseException as exc:
            payload = (None, exc, traceback.format_exc())
        try:
            data = pickle.dumps(payload)
            pickle.loads(data)
        except BaseException:
            data = pickle.dumps(
                (None, None, payload[2] or traceback.format_exc()))
        with os.fdopen(write_end, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def _end_at_eof(fd: int) -> None:
    """End this process once `fd` reads end-of-file."""
    while os.read(fd, 1):
        pass
    os._exit(1)


# ---------------------------------------------------------------------------
# Rendering


def _jsonable(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, numbers.Real):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return str(value)


def render_json(report: Report) -> str:
    rows = []
    for r in report.sorted_results():
        details = _jsonable(r.details)
        if r.residuals:
            details["residuals"] = list(r.residuals)
        if r.erratum_notes:
            details["erratum_notes"] = list(r.erratum_notes)
        rows.append({
            "check_id": r.check_id,
            "paper_anchor": r.paper_anchor,
            "status": r.status,
            "residual_count": len(r.residuals),
            "details": details,
            "millis": round(r.millis, 1),
        })
    return json.dumps(rows, ensure_ascii=False, indent=2, allow_nan=False)


def render_text(report: Report) -> str:
    lines = []
    for r in report.sorted_results():
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.check_id:34} [{r.paper_anchor}]"
                     f"  {r.millis:9.1f} ms  residuals: {len(r.residuals)}")
        tol = r.details.get("tolerances") if isinstance(r.details, dict) \
            else None
        if tol:
            pinned = " ".join(f"{k}={v:g}" for k, v in tol.items())
            lines.append(f"      tolerances: {pinned}")
        if isinstance(r.details, dict) and "partition_display" in r.details:
            lines.append(f"      partition: {r.details['partition_display']}")
        for note in r.erratum_notes:
            lines.append(f"      corrected: {note}")
        for res in r.residuals:
            lines.append(f"      residual: {res}")
    passed = sum(1 for r in report.results if r.ok)
    failed = len(report.results) - passed
    lines.append(f"{len(report.results)} checks: {passed} pass, "
                 f"{failed} fail")
    lines.append(f"erratum ledger: {ERRATA_RESOURCE}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI


def _parse_sample_r(parts) -> tuple:
    """Three fraction strings as a triple; each ValueError names it."""
    triple = f"sample-r {' '.join(parts)!r}"
    try:
        vals = tuple(Fraction(p) for p in parts)
    except ZeroDivisionError:
        raise ValueError(f"{triple} has a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{triple} is not three fractions: {exc}") from None
    if len(vals) != 3:
        raise ValueError(f"{triple} needs three values")
    return vals


# How each RunConfig field is read from its COVFORGE_ variable (the
# field name in upper case).
_ENV_READERS = {
    "filter": str, "seed": int, "format": str,
    "sample_r": lambda raw: _parse_sample_r(raw.split()),
}


def build_config(argv=None) -> RunConfig:
    """The run config of the flags in argv and the COVFORGE_ variables.

    Only the fields a flag or a variable sets are passed on, so every
    default is RunConfig's; a flag wins over its variable, and an empty
    variable counts as unset.  Raises ValueError, naming the variable,
    for a set COVFORGE_ variable that names no field, whose value does
    not parse, or whose value `RunConfig.validate` rejects.
    """
    default = RunConfig()
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the exact and numeric verification battery.")
    parser.add_argument("--filter", metavar="GLOB",
                        help="glob over check ids (default: all)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help=f"base random seed (default {default.seed})")
    parser.add_argument("--format", choices=("text", "json"),
                        help=f"report format (default {default.format})")
    parser.add_argument("--sample-r", nargs=3, metavar=("a", "b", "c"),
                        help="census parameter triple, fractions allowed")
    flags = vars(parser.parse_args(argv))
    if flags["sample_r"] is not None:
        flags["sample_r"] = _parse_sample_r(flags["sample_r"])

    known = [ENV_PREFIX + name.upper() for name in _ENV_READERS]
    unknown = sorted(name for name, raw in os.environ.items()
                     if name.startswith(ENV_PREFIX) and raw
                     and name not in known)
    if unknown:
        raise ValueError(f"unknown variable {', '.join(unknown)}; known "
                         f"variables: {', '.join(known)}")
    values = {}
    for name, read in _ENV_READERS.items():
        value = flags.get(name)
        variable = ENV_PREFIX + name.upper()
        raw = os.environ.get(variable)
        if value is None and raw:
            try:
                value = read(raw)
                RunConfig(**{name: value}).validate()
            except ValueError as exc:
                raise ValueError(f"{variable}={raw!r} is not a valid "
                                 f"{name}: {exc}") from None
        if value is not None:
            values[name] = value
    return RunConfig(**values)


def main(argv=None) -> int:
    """Exit 0 when every check passes, 1 when one fails, and 2 for a
    malformed configuration or a filter that selects nothing.  Only
    building and selecting are guarded: an error inside a check is not
    a configuration error and propagates."""
    try:
        config = build_config(argv)
        select(config)
    except (LookupError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    report = run(config)
    out = render_json(report) if config.format == "json" \
        else render_text(report)
    print(out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
