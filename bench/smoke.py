"""Smoke test of the benchmark: one F_13 quartic through every stage.

Runs the untraced and the traced path on a single input and checks that
the metric names are well formed, that they are exactly the ones
BENCHMARK.json declares, and that the oracle passes.  It is not part of
the test suite.  Run from the repository root:

    python3 bench/smoke.py
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {False: {m["name"] for m in spec["end_to_end"]},
                True: {m["name"] for m in spec["per_layer"]}}
    for traced in (False, True):
        result = workloads.run((13, 1), seed=1, seconds=float("inf"), traced=traced,
                               src_dir=SRC, max_inputs=1)
        metrics = result["metrics"]
        assert result["attempted"] == 1 and result["failed"] == 0, result["failures"]
        bad = [name for name in metrics if not NAME.fullmatch(name)]
        assert not bad, f"malformed metric names: {bad}"
        assert set(metrics) == declared[traced], \
            f"undeclared {set(metrics) - declared[traced]}, " \
            f"missing {declared[traced] - set(metrics)}"
        if not traced:
            assert metrics["pass_ratio"][0] == 1.0, metrics["pass_ratio"]
        print(("traced" if traced else "untraced"), "ok:", len(metrics), "metrics")


if __name__ == "__main__":
    main()
