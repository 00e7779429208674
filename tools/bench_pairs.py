"""Run the benchmark in alternating parent/change pairs from two checkouts.

Usage: python3 tools/bench_pairs.py --parent DIR --change DIR --out FILE
           [--workloads quartic-prime,quartic-small] [--seeds 1,2,3] [--seconds 30]

For every seed and workload, ``bench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in each checkout, each in a fresh
process, the parent first in the workload's even pairs in FILE and the
change first in its odd ones.  Each run is appended to the JSON list in
FILE as soon as it ends, with its side, seed, workload, which side went
first, the counts of inputs and of failed inputs, the ``wall_s`` its
meta line reports and the value of every end-to-end metric, so an
interrupted series keeps what it measured and several series add up.
At the end the tool prints, per workload and metric, each side's median
and quartiles over all the pairs in FILE and, but for the two counts,
how many pairs the change won (ties count for neither side), reading
which direction is better from the change's ``BENCHMARK.json``.  Last
comes what the pairs cost in run length: the k-th pair of every
workload, its ``wall_s`` summed over the workloads, as each side's
median and quartiles and those of the change - parent difference.
Without ``--seeds`` it only prints that summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One ``bench/run.py`` run; returns its meta and metrics lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.exit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values):
    """Median and quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def summary(records, better):
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {side: [r for r in records if r["workload"] == workload and r["side"] == side]
                for side in SIDES}
        pairs = list(zip(runs["parent"], runs["change"]))
        print(f"== {workload}: {len(pairs)} pairs")
        for name in ["wall_s", "inputs", "failed", *runs["parent"][0]["metrics"]]:
            def key(r):
                return r[name] if name in r else r["metrics"][name]
            cells = [spread([key(r) for r, _ in pairs]), spread([key(r) for _, r in pairs])]
            text = " -> ".join(f"{m:.4g} [{a:.4g}, {b:.4g}]" for m, a, b in cells)
            if name in better:
                sign = -1 if better[name] == "lower" else 1
                wins = sum(sign * (key(c) - key(p)) > 0 for p, c in pairs)
                text += f"  change better in {wins}/{len(pairs)}"
            print(f"  {name:16s} {text}")
    # what a pair costs the check: the k-th pair of every workload, wall_s summed
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    totals = {side: [sum(walls) for walls in zip(*(
        [r["wall_s"] for r in records if r["workload"] == w and r["side"] == side]
        for w in workloads))] for side in SIDES}
    pairs = list(zip(totals["parent"], totals["change"]))
    if pairs:
        cells = [spread([p for p, _ in pairs]), spread([c for _, c in pairs]),
                 spread([c - p for p, c in pairs])]
        text = [f"{m:.4g} [{a:.4g}, {b:.4g}]" for m, a, b in cells]
        print(f"== {' + '.join(workloads)}: {len(pairs)} pairs")
        print(f"  {'wall_s summed':16s} {text[0]} -> {text[1]}  change - parent {text[2]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default="quartic-prime,quartic-small")
    parser.add_argument("--seeds", default="")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    records = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            records = json.load(fh)
    for seed, workload in ((int(s), w) for s in args.seeds.split(",") if s
                           for w in args.workloads.split(",")):
        # alternate over every pair of the workload in the file, not only this series'
        done = sum(r["workload"] == workload and r["side"] == "parent" for r in records)
        order = SIDES if done % 2 == 0 else SIDES[::-1]
        for side in order:
            meta, result = run_once(checkouts[side], workload, seed, args.seconds)
            records.append({"side": side, "seed": seed, "workload": workload,
                            "first": order[0], "commit": meta["commit"],
                            "seconds": args.seconds, "inputs": result["attempted"],
                            "failed": result["failed"], "wall_s": meta["wall_s"],
                            "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
            with open(args.out, "w") as fh:
                json.dump(records, fh, indent=1)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {"wall_s": "lower"}
        better.update((m["name"], m["better"]) for m in json.load(fh)["end_to_end"])
    summary(records, better)


if __name__ == "__main__":
    main()
