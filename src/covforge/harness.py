"""Command-line battery runner for the verification checks.

Selects registered checks by id glob, runs the exact suites before the
continuation suites, and renders a report in text or JSON with a stable
schema.  The registry alone names a check: a check returns its findings,
and the runner times each call and stamps the registry's id and paper
anchor on the result.  Every knob is both a flag and an environment
variable with the ``COVFORGE_`` prefix; a flag wins over its variable,
an empty variable counts as unset, and a set ``COVFORGE_`` variable that
names no knob or does not parse is a configuration error that names it.
The tolerances are not knobs but constants of ``continuation``, which
only a run with a numeric check imports; the numeric checks of one run
share their tracked solves through one ``NumericRun``.  The corrected-typo
ledger ships as a package resource, named at the end of every text
report.
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

    Exact checks run before numeric ones, in registry order; the report
    is ordered by check id.  Each result carries its registry id and
    paper anchor and the milliseconds of its one call.  Selected numeric
    checks share one NumericRun, built for them: it reads the projection
    data once and plans the solves they will ask for, so that it can
    track them together.  Raises as `select` does for a malformed config
    or an empty selection.
    """
    selected = select(config)
    numeric_ids = [cid for cid, _a, kind, _f in selected if kind == "numeric"]
    numeric = (_numeric().NumericRun(numeric_ids, config.seed,
                                     config.sample_r)
               if numeric_ids else None)
    results = []
    for phase in ("exact", "numeric"):
        for cid, anchor, kind, fn in selected:
            if kind == phase:
                started = time.perf_counter()
                result = fn(config, numeric)
                results.append(replace(
                    result, check_id=cid, paper_anchor=anchor,
                    millis=(time.perf_counter() - started) * 1000.0))
    return Report(config=config, results=results)


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
