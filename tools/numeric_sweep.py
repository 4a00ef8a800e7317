"""The numeric checks' reports over a range of seeds, one line per seed.

    python3 tools/numeric_sweep.py FIRST LAST

Run it from the root of a covforge checkout; it imports the package from
./src.  For each seed from FIRST to LAST inclusive, in one process, it
runs the `numeric/*` checks and prints `seed status sha256`, where the
hash is of the JSON report rows with their `millis` removed.  Two
checkouts give the same reports at a seed exactly when their lines for
that seed are equal, so `diff` of two outputs names every seed whose
numeric rows differ.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from covforge import harness  # noqa: E402


def main(argv=None) -> int:
    first, last = map(int, sys.argv[1:] if argv is None else argv)
    for seed in range(first, last + 1):
        report = harness.run(harness.RunConfig(filter="numeric/*",
                                               seed=seed))
        rows = json.loads(harness.render_json(report))
        for row in rows:
            del row["millis"]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        print(seed, "ok" if report.ok else "FAIL", digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
