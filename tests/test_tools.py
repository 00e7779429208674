"""The tool runs: ``tools/dump_outputs.py`` exits 0 and reproduces itself.

Two runs of the output dumper with one seed must print the same JSON lines,
each with tangent contacts and a sparse quartic's verdicts, then the
genus-6 report's replayed model and samples, the reports of every
special route and of a fallback, and last the pointless F_3 quartic's.
"""

import importlib.util
import json
import os
import subprocess
import sys

import g6_fixture as g6
from gonalift.ff import FqField
from gonalift.lift3 import ROUTE_TARGETS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_dump_outputs_is_reproducible_json():
    cmd = [sys.executable, os.path.join("tools", "dump_outputs.py"),
           "--field", "13", "--count", "3", "--seed", "7"]
    runs = [subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for out in runs:
        assert out.returncode == 0, out.stdout + out.stderr
    assert runs[0].stdout == runs[1].stdout
    *lines, last, routes, pointless = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert len(lines) == 3
    for line in lines:
        assert set(line) == {"quartic", "classify", "sample_birational", "report",
                             "points", "contact", "toric", "sparse"}
        assert set(line["sparse"]) == {"quartic", "smooth", "failures"}
        # a smooth quartic's tangent meets it with multiplicity 2 to 4 at the
        # point, and a rational point Q other than it is one of its points
        assert len(line["contact"]) == min(3, len(line["points"]))
        for mult, others in line["contact"]:
            assert 2 <= mult <= 4 and mult + sum(m for _, m in others) <= 4
            assert all(q in line["points"] for q, _ in others)
        assert line["report"]["checks"]["sample_birational"] == \
            line["sample_birational"]["status"]
    # the genus-6 report: its trail replays to the plane model and carries points
    assert set(last) == {"g6"}
    assert last["g6"]["replayed"] == g6.plane_model().to_dict()
    assert last["g6"]["sample_birational"]["status"] == "pass"
    assert last["g6"]["sample_birational"]["defined"] > 0
    # each pinned quartic takes its own route and the two explicit ones;
    # the fallback says so in its notes
    assert set(routes) == {"routes"}
    routes = routes["routes"]
    assert set(routes) == {"flex", "bitangent", "hyperflex", "fallback"}
    for special in ("flex", "bitangent", "hyperflex"):
        assert set(routes[special]) == {special, "none", "tangent"}
        for route, report in routes[special].items():
            assert report["target"]["name"] == ROUTE_TARGETS[route]
            assert set(report["checks"].values()) == {"pass"}
    assert any("no usable hyperflex" in n for n in routes["fallback"]["notes"])
    # the pointless quartic has gonality 4 and a checked lift
    pointless = pointless["pointless"]
    assert pointless["classify"]["gamma"] == 4
    assert pointless["report"]["target"]["name"] == "g3_pointless"
    assert set(pointless["report"]["checks"].values()) == {"pass"}


def test_bench_pairs_summarises_the_recorded_pairs(tmp_path):
    def record(side, seed, certify_s, peak, workload="quartic-prime", wall_s=80.0, failed=0):
        return {"side": side, "seed": seed, "workload": workload, "inputs": 900,
                "failed": failed, "wall_s": wall_s,
                "metrics": {"certify_s": certify_s, "peak_rss_mb": peak}}

    runs = [record("parent", 1, 0.020, 19.0), record("change", 1, 0.015, 19.1, failed=3),
            record("change", 2, 0.016, 18.9, failed=1), record("parent", 2, 0.019, 19.0),
            record("parent", 1, 0.021, 19.0, "quartic-small", 60.0),
            record("change", 1, 0.014, 19.0, "quartic-small", 66.0),
            record("change", 2, 0.014, 19.0, "quartic-small", 64.0),
            record("parent", 2, 0.021, 19.0, "quartic-small", 62.0)]
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps(runs))
    # no seeds: nothing runs, and the pairs in the file are summarised
    cmd = [sys.executable, os.path.join("tools", "bench_pairs.py"), "--parent", "none",
           "--change", ROOT, "--out", str(out)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    blocks = done.stdout.split("== ")[1:]
    lines = {line.split()[0]: line for line in blocks[0].splitlines()}
    assert lines["quartic-prime:"] == "quartic-prime: 2 pairs"
    # each side's failed inputs, beside the inputs, with no count of wins
    assert lines["inputs"].split() == ["inputs", "900", "[900,", "900]", "->",
                                       "900", "[900,", "900]"]
    assert lines["failed"].split() == ["failed", "0", "[0,", "0]", "->", "2", "[1.5,", "2.5]"]
    assert list(lines).index("failed") == list(lines).index("inputs") + 1
    assert lines["certify_s"].endswith("change better in 2/2")
    assert lines["peak_rss_mb"].endswith("change better in 1/2")
    assert blocks[1].startswith("quartic-small: 2 pairs")
    # each pair's wall_s summed over the two workloads: 140 and 142 s for the
    # parent, 146 and 144 s for the change, so +6 and +2 s; the quartiles of
    # two values lie halfway between them and their median
    head, total = blocks[2].splitlines()
    assert head == "quartic-prime + quartic-small: 2 pairs"
    assert total.split() == ["wall_s", "summed", "141", "[140.5,", "141.5]", "->",
                             "145", "[144.5,", "145.5]", "change", "-", "parent",
                             "4", "[3,", "5]"]
    assert json.loads(out.read_text()) == runs


def test_field_costs_times_one_curve():
    spec = importlib.util.spec_from_file_location(
        "field_costs", os.path.join(ROOT, "tools", "field_costs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    costs = tool.field_costs([FqField(3, 2)], 1)
    assert list(costs) == ["F_9"] and costs["F_9"] > 0
