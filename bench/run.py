"""The gonalift benchmark.

One workload, in this process:

    python3 bench/run.py --workload quartic-prime --seed 1 --seconds 30 --trace 0

prints one line of run information, then as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits 1 when an output is wrong and 2 when gonalift
cannot be imported.  Without ``--workload`` every workload runs, each
in a fresh process, and each metric is printed by name with its unit.

Run from the repository root; results and traces go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def git_commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workloads, args):
    p, n = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = workloads.run((p, n), args.seed, args.seconds, bool(args.trace), SRC,
                           trace_path=stem + ".spans.tsv.gz" if args.trace else None)
    meta = {"workload": args.workload, "field": f"F_{p}^{n}" if n > 1 else f"F_{p}",
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "inputs": result["attempted"], "wall_s": round(result["wall_s"], 3),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "failures": result["failures"]}
    if "unscaled" in result:
        meta["unscaled"] = result["unscaled"]
    curve = sorted((r["lift_s"] + r["certify_s"]) * r["scale"] for r in result["rows"]
                   if not r["error"])
    if len(curve) >= 11:
        # the highest percentile with at least ten inputs beyond it
        pct = 100.0 * (len(curve) - 10) / len(curve)
        meta["curve_s_tail"] = {"percentile": round(pct, 1),
                                "value": curve[len(curve) - 11], "n": len(curve)}
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, "metrics": result["metrics"],
                   "rows": result["rows"]}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(workloads, args):
    """Every workload in a fresh process; prints each metric with its unit."""
    summary = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 2
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:.6g} {m['unit']}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"all-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [SRC, HERE]
    try:
        import gonalift
    except ImportError as exc:
        print(f"cannot import gonalift from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(gonalift.__file__).startswith(SRC + os.sep):
        print(f"gonalift was imported from {gonalift.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload is None:
        return run_all(workloads, args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return run_one(workloads, args)


if __name__ == "__main__":
    sys.exit(main())
