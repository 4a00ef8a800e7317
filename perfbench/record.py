"""Record a result set of benchmark runs, or compare two result sets.

    python3 perfbench/record.py run --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --trace-seed 42 --holdout 7 --out perfbench/baseline.json
    python3 perfbench/record.py compare OLD.json NEW.json

`run` calls run.py once per workload and seed, at BENCHMARK.json's
run_seconds, and keeps every run's metrics with their median, quartiles
and spread (quartile distance over the median).  With --trace-seed it
makes an untraced and two traced runs per workload at that seed, lists
the count metrics that did not repeat exactly (there should be none),
and checks that the verify reports of one verify seed are identical,
apart from timings, across the three runs.  With
--holdout it runs every workload's gates once more at that seed.  Every
result set records the machine it ran on; `compare` refuses two sets
whose mpmath backends differ, since polyroots and polish cost depend on
the backend.  Run from the root of a covforge checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    for key in ("units", "reports"):
        result[key] = next((json.loads(line.split(None, 1)[1])
                            for line in lines if line.startswith(key + " ")),
                           {})
    result["seed"] = seed
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _q2, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (median, median, median))
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def record(args, spec: dict) -> int:
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    result = {"machine": bench.machine_facts(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    # Workloads take turns at each seed, so that a slow spell of the
    # machine falls on every workload rather than on one.
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(one_run(name, seed, seconds, 0))
    ok = True
    for name in names:
        entry = {"runs": runs[name], "summary": summarize(runs[name])}
        ok &= all(r["correct"] and r["exit"] == 0 for r in runs[name])
        for m in spec["end_to_end"]:
            s = entry["summary"][m["name"]]
            print(f"{name:13} {m['name']:12} median {s['median']:10.4f} "
                  f"{m['unit']:3} spread {s['spread']:.3f}", flush=True)
        if args.trace_seed is not None:
            plain = one_run(name, args.trace_seed, seconds, 0)
            a, b = (one_run(name, args.trace_seed, seconds, 1)
                    for _ in range(2))
            unsteady = [c for c in counts if a["metrics"][c] != b["metrics"][c]]
            # Reports at one verify seed must not depend on the run or on
            # tracing.
            digests = {}
            for r in (plain, a, b):
                for seed, digest in r["reports"].items():
                    digests.setdefault(seed, set()).add(digest)
            same = all(len(d) == 1 for d in digests.values())
            entry["trace"] = {"seed": args.trace_seed, "layers": a["metrics"],
                              "repeat_layers": b["metrics"],
                              "counts_not_repeated": unsteady,
                              "reports_identical": same,
                              "correct": all(r["correct"]
                                             for r in (plain, a, b))}
            ok &= not unsteady and same and entry["trace"]["correct"]
            print(f"{name:13} trace at seed {args.trace_seed}: counts not "
                  f"repeated: {unsteady or 'none'}; reports identical "
                  f"across runs: {same}", flush=True)
        if args.holdout is not None:
            h = one_run(name, args.holdout, seconds, 0)
            entry["holdout"] = {"seed": args.holdout, "correct": h["correct"],
                                "attempted": h["attempted"],
                                "failed": h["failed"]}
            ok &= h["correct"]
            print(f"{name:13} hold-out seed {args.holdout}: correct "
                  f"{h['correct']}, {h['failed']}/{h['attempted']} failed",
                  flush=True)
        result["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


def compare(args, spec: dict) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    backends = {old["machine"]["mpmath_backend"],
                new["machine"]["mpmath_backend"]}
    if len(backends) != 1:
        print("refusing to compare: mpmath backends differ "
              f"({old['machine']['mpmath_backend']} vs "
              f"{new['machine']['mpmath_backend']})", file=sys.stderr)
        return 2
    if old["machine"] != new["machine"]:
        print("note: machine facts differ: "
              f"{old['machine']} vs {new['machine']}")
    worse = False
    for name, entry in new["workloads"].items():
        if name not in old["workloads"]:
            continue
        for m in spec["end_to_end"]:
            a = old["workloads"][name]["summary"][m["name"]]["median"]
            b = entry["summary"][m["name"]]["median"]
            change = (b - a) / a if a else 0.0
            beyond = (change if m["better"] == "lower" else -change) > m["bound"]
            worse |= beyond
            print(f"{name:13} {m['name']:12} {a:10.4f} -> {b:10.4f} "
                  f"{change:+7.1%}  bound {m['bound']:.0%}"
                  + ("  WORSE" if beyond else ""))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--holdout", type=int)
    p.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return record(args, spec) if args.command == "run" else compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
