"""Workload table, seeded inputs and output gates.

The only input a child process receives is a seed for `verify --seed`,
derived from the benchmark seed; the same seed gives the same inputs.
The gates use only values the program itself asserts in its checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

SYMBOLIC_IDS = ("symbolic/expansion_1_2", "symbolic/action_table_3_1",
                "symbolic/group_structure",
                "symbolic/equivariance_invariants", "symbolic/jacobians",
                "symbolic/lemma_4_2", "symbolic/derivation_4_5",
                "symbolic/strata_6")
PROPERTY_IDS = ("property/field_axioms", "property/mpoly_ring",
                "property/transvectants", "property/scaling_1_1")
NUMERIC_IDS = ("numeric/lemma6_2", "numeric/fiber_5",
               "numeric/seed_stability")


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: int              # distinct verify seeds in a run of run_seconds
    repeats: int            # cold verify processes per verify seed
    check_ids: tuple
    verify_args: tuple = ()


# A run's measured work is a fixed number of cold `verify` processes, so
# every run does the same work on any machine.  The machine the
# benchmark was tuned on changes speed by up to a fifth over tens of
# seconds, so a run measures most of a minute: one verify_full process,
# or six exact_suite processes.  exact_suite spreads its processes over
# three inputs, since its cost depends on the seed by up to a tenth, and
# runs each input twice for the determinism gate.
WORKLOADS = {w.name: w for w in (
    Workload("verify_full", 1, 1,
             SYMBOLIC_IDS + PROPERTY_IDS + NUMERIC_IDS),
    Workload("exact_suite", 3, 2, SYMBOLIC_IDS + PROPERTY_IDS,
             ("--filter", "[sp]*")),
)}


def verify_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    """The verify seeds of a run at the benchmark seed: the seed itself
    for a one-seed workload, else `count` (under 1000) seeds that no
    other benchmark seed uses."""
    if workload.seeds == 1:
        return [seed]
    return [1000 * seed + i for i in range(count)]


def verify_argv(workload: Workload, verify_seed: int) -> list[str]:
    """The arguments of a verify process of the workload."""
    return ["--format", "json", "--seed", str(verify_seed),
            *workload.verify_args]


# ---------------------------------------------------------------------------
# Gates: each returns the list of problems found (empty: passed).


def verify_gate(rows: list[dict], check_ids: tuple) -> list[str]:
    """Batch-level problems of a verify report (rows are gated one by
    one by status)."""
    ids = sorted(r["check_id"] for r in rows)
    if ids != sorted(check_ids):
        return [f"report has checks {ids}"]
    return []


def strip_timing(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "millis"} for r in rows]


def report_digest(rows: list[dict]) -> str:
    """A digest of a verify report without its timings."""
    return hashlib.sha256(json.dumps(strip_timing(rows), sort_keys=True)
                          .encode()).hexdigest()
