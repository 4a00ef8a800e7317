"""The covforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_full --seed 42 --trace 0

Run it from the root of a covforge checkout; it imports the package from
./src.  The measured work runs in fresh child processes, so every
module cache starts empty, as it does for a user of `verify`.  With
--trace 0 the run prints the end-to-end metrics of BENCHMARK.json, its
times scaled to a fixed reference speed (see reference_seconds); with
--trace 1 it runs one traced child on the same inputs and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 when every output gate passed, 1 when one
failed, and 2 when the run could not start.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import workloads as wl

HERE = Path(__file__).resolve().parent
# Every time is scaled to a machine on which reference_seconds() takes
# REFERENCE_S; see reference_seconds() for why.
REFERENCE_S = 0.030
SAMPLE_EVERY_S = 1.0
# Import-only processes per run, spread over the gaps between the
# workload's processes, so that set-up is timed across the whole run.
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0        # a run must end within 180 s
PROBLEMS_SHOWN = 10
# Self times that should account for nearly all of the numeric phase.
NUMERIC_SELF_TIMES = ("continuation.track_s", "mpmath.polyroots_s",
                      "continuation.polish_s", "continuation.cluster_s",
                      "continuation.solve_self_s")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    """What the timings depend on; result sets with different mpmath
    backends are not comparable (polyroots and polish run in mpmath)."""
    import platform

    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def reference_seconds() -> float:
    """Seconds that a fixed piece of pure-Python work takes now.

    The reference machine is a shared VM whose speed changes by a third
    and more over seconds to minutes, with what else runs on its host.
    A child's time is scaled by the mean of this loop's times just
    before it, every SAMPLE_EVERY_S seconds while it runs (with the
    child paused, so the two never compete for a CPU) and just after it.
    Like the program, the loop is Fraction arithmetic and dict updates
    on small integers; it uses nothing from covforge, so a change to the
    program cannot change it.
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 10000):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[i % 512] = table.get(i % 512, 0) + i * i
    return time.perf_counter() - start


class Spawned(NamedTuple):
    wall: float         # seconds from spawn to exit, pauses left out
    scaled: float       # wall scaled to the reference speed
    cpu: float          # user plus system CPU seconds of the child
    rc: int | None      # exit code; None when the run's budget ran out
    out: str
    err: str


class Runner:
    """Spawns the child processes of one run within the run's budget."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("COVFORGE_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()

    def spawn(self, cmd: list[str], stdin: str | None = None) -> Spawned:
        """Run one child process to its end, pausing it every
        SAMPLE_EVERY_S seconds to time the reference loop."""
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        refs = [reference_seconds(), reference_seconds()]
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        paused = 0.0
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE if stdin is not None else None,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self.env, cwd=self.root)
        try:
            while True:
                try:
                    out, err = proc.communicate(stdin, timeout=SAMPLE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    stdin = None
                if time.perf_counter() - t0 > left:
                    proc.kill()
                    out, err = proc.communicate()
                    return Spawned(time.perf_counter() - t0 - paused, 0.0,
                                   _children_cpu() - cpu0, None, "",
                                   "timed out")
                p0 = time.perf_counter()
                proc.send_signal(signal.SIGSTOP)
                try:
                    refs.append(reference_seconds())
                finally:
                    proc.send_signal(signal.SIGCONT)
                paused += time.perf_counter() - p0
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGCONT)
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0 - paused
        cpu = _children_cpu() - cpu0
        refs += [reference_seconds(), reference_seconds()]
        scaled = wall * REFERENCE_S / statistics.fmean(refs)
        return Spawned(wall, scaled, cpu, proc.returncode, out, err)

    def setup_runs(self, count: int) -> list[Spawned]:
        """`count` cold processes that only import the package."""
        runs = [self.spawn([sys.executable, "-c", "import covforge.harness"])
                for _ in range(count)]
        if any(r.rc != 0 for r in runs):
            raise RuntimeError("cannot import covforge.harness: "
                               + runs[0].err.strip()[-500:])
        return runs

    def child(self, workload, verify_seed: int, trace: bool) -> dict:
        """Run one cold verify process of the workload and return its
        times, per-check failure reasons, other problems, report rows and
        layer values."""
        argv = wl.verify_argv(workload, verify_seed)
        if trace:
            run = self.spawn([sys.executable, str(HERE / "child.py")],
                             json.dumps(argv))
        else:
            run = self.spawn(
                [sys.executable, "-m", "covforge.harness", *argv])
        res = {"seed": verify_seed, "run": run, "failures": [],
               "problems": [], "rows": None, "layers": None}
        try:
            if trace:
                if run.rc != 0:
                    raise ValueError(f"child exited with {run.rc}")
                payload = json.loads(run.out.strip().splitlines()[-1])
            else:
                payload = {"rc": run.rc, "report": run.out}
            res["layers"] = payload.get("layers")
            _verify_units(res, workload, payload)
        except (ValueError, IndexError, KeyError) as exc:
            res["problems"].append(f"{workload.name} child: {exc}; "
                                   f"stderr: {run.err.strip()[-300:]}")
            if not res["failures"]:
                res["failures"] = ["child failed"] * len(workload.check_ids)
        return res


def _children_cpu() -> float:
    """User plus system CPU seconds of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _verify_units(res: dict, workload, payload: dict) -> None:
    rows = json.loads(payload["report"])
    res["rows"] = rows
    res["problems"].extend(wl.verify_gate(rows, workload.check_ids))
    # Check rows are the units that pass or fail.
    for row in rows:
        res["failures"].append(
            "" if row["status"] == "pass" else
            f"{row['check_id']}: {row['details'].get('residuals')}")
    if payload["rc"] != 0 and all(not f for f in res["failures"]):
        res["failures"].append(f"verify exited with {payload['rc']}")


def _determinism(first: dict, other: dict) -> list[str]:
    """Verify reports at one seed must agree apart from millis."""
    if first is other or first["rows"] is None or other["rows"] is None:
        return []
    if wl.strip_timing(first["rows"]) != wl.strip_timing(other["rows"]):
        return ["verify reports at one seed differ beyond millis"]
    return []


def _phase_metrics(rows: list[dict] | None) -> dict:
    all_ids = wl.SYMBOLIC_IDS + wl.PROPERTY_IDS + wl.NUMERIC_IDS
    millis = {r["check_id"]: r["millis"] for r in rows or ()}
    out = {"harness.exact_phase_s": sum(
               millis.get(c, 0.0) for c in wl.SYMBOLIC_IDS + wl.PROPERTY_IDS)
           / 1000.0,
           "harness.numeric_phase_s": sum(
               millis.get(c, 0.0) for c in wl.NUMERIC_IDS) / 1000.0}
    for cid in all_ids:
        out[f"check.{cid.split('/', 1)[1]}_s"] = millis.get(cid, 0.0) / 1000.0
    return out


def run(args: argparse.Namespace, root: Path,
        run_seconds: float) -> tuple[dict, list, dict]:
    """(metrics, child results, notes) of one run."""
    workload = wl.WORKLOADS[args.workload]
    runner = Runner(root)
    count = max(1, round(workload.seeds * args.seconds / run_seconds))
    seeds = wl.verify_seeds(workload, args.seed, count)
    if args.trace:
        traced = runner.child(workload, seeds[0], trace=True)
        metrics = dict(traced["layers"] or {})
        metrics.update(_phase_metrics(traced["rows"]))
        numeric = metrics["harness.numeric_phase_s"]
        metrics["trace.numeric_self_share"] = sum(
            metrics.get(name, 0.0) for name in NUMERIC_SELF_TIMES
        ) / numeric if numeric else 0.0
        return metrics, [traced], {}
    # Each seed's processes are spread over the run: a, b, c, a, b, c.
    order = seeds * workload.repeats
    per_gap = -(-SETUP_SAMPLES // (len(order) + 1))
    setup = runner.setup_runs(per_gap)
    results = []
    for verify_seed in order:
        results.append(runner.child(workload, verify_seed, trace=False))
        setup += runner.setup_runs(per_gap)
    first = {}
    for res in results:
        res["problems"].extend(
            _determinism(first.setdefault(res["seed"], res), res))
    # A verify user waits for the whole process, so a process is the
    # latency unit.  A run has too few of them for a tail percentile with
    # ten samples beyond it.
    runs = [res["run"] for res in results]
    metrics = {
        "wall_s": statistics.median(r.scaled for r in runs),
        "setup_s": statistics.median(r.scaled for r in setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    notes = {"processes": len(results), "verify_seeds": seeds,
             "setup_samples": len(setup),
             "raw_wall_s": statistics.median(r.wall for r in runs),
             "raw_cpu_s": statistics.median(r.cpu for r in runs),
             "raw_setup_s": statistics.median(r.wall for r in setup)}
    return metrics, results, notes


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so Runner.spawn resumes, kills and
    # reaps the running child before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "covforge" / "harness.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from the root of a covforge checkout "
              "(needs src/covforge and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              + ", ".join(wl.WORKLOADS), file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, results, notes = run(args, root, spec["run_seconds"])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = [f for r in results for f in r["failures"]]
    failed = [f for f in failures if f]
    problems = [p for r in results for p in r["problems"]]
    problems += [f"metric {m['name']} was not measured" for m in wanted
                 if m["name"] not in metrics]
    correct = not failed and not problems
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine_facts()))
    if notes:
        print("units   " + json.dumps(notes))
    print("reports " + json.dumps({
        r["seed"]: wl.report_digest(r["rows"]) for r in results
        if r["rows"] is not None}))
    for reason in (problems + failed)[:PROBLEMS_SHOWN]:
        print(f"GATE    {reason}")
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40} {value:>14.6g} {m['unit']}")
    print(f"fail_ratio {len(failed)}/{len(failures)}  "
          f"correct {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": max(len(failures), 1),
                      "failed": len(failed), "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
