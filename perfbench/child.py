"""One traced `verify` process of a benchmark run.

Reads the verify arguments as a JSON list on standard input, wraps the
layer boundaries with layers.install() before any work starts, runs
`verify` through covforge.harness.main, and prints one JSON object on
standard output: {"rc": ..., "report": "<verify JSON>", "layers": {...}}.
Untraced runs do not come here: the benchmark runs the `verify` module
itself, as users do.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import layers
from covforge import harness


def main() -> None:
    argv = json.load(sys.stdin)
    tracer = layers.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = harness.main(argv)
    print(json.dumps({"rc": rc, "report": buf.getvalue(),
                      "layers": tracer.metrics()}))


if __name__ == "__main__":
    main()
