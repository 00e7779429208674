"""The benchmark's workloads: seeded inputs, the timed path, the oracle.

Every input runs the public API with the library defaults.  Inputs are
made before the clock starts and the oracle runs after it stops, so the
timed region holds only what a user of ``gonalift`` waits for.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from gonalift import (ff, lift3, linalg, mpoly, ok, pointsearch, polygon, upoly,
                      verify)

import kernels
import tracing

#: workload name -> (p, n), the base field F_{p^n} of its quartics; why each
#: workload is here: BENCHMARK.json and README.md
WORKLOADS = {
    "quartic-prime": (127, 1),
    "quartic-small": (31, 1),
}
#: set-ups per run, in fresh interpreters; the median is reported
SETUP_REPEATS = 11
CLOCK = time.perf_counter
#: duration of ``reference()`` at the reference speed.  The speed of a
#: shared host drifts by tens of percent from minute to minute, so every
#: time the benchmark reports is scaled by REF_SECONDS over the duration
#: of ``reference()`` measured right before and right after it
REF_SECONDS = 0.010

#: traced layers, bottom to top; ``ff`` is covered by the kernels only
TRACED_MODULES = {"upoly": upoly, "linalg": linalg, "mpoly": mpoly, "ok": ok,
                  "pointsearch": pointsearch, "polygon": polygon,
                  "verify": verify, "lift3": lift3}


# -- host speed


def reference():
    """Fixed pure-Python work, independent of gonalift: modular products.

    It exercises what the pipeline exercises (bytecode, small-int
    arithmetic, list indexing, dict building) and must never change, or
    every reported time changes with it.
    """
    a = list(range(1, 41))
    acc = 0
    for _ in range(32):
        prod = [0] * 79
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                prod[i + j] = (prod[i + j] + x * y) % 1009
        acc += sum({k: v for k, v in enumerate(prod)}.values())
    return acc


def reference_seconds():
    t0 = CLOCK()
    reference()
    return CLOCK() - t0


# -- inputs


def random_smooth_quartic(ring, rng, tries=400):
    """A uniformly drawn quartic form, redrawn until it is smooth."""
    field = ring.coeff_ring
    monomials = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]
    for _ in range(tries):
        F = ring.from_terms((e, field.element_at(rng.randrange(field.q)))
                            for e in monomials)
        if F.total_degree() == 4 and verify.plane_curve_is_smooth(F):
            return F
    raise RuntimeError(f"no smooth quartic over {field} in {tries} draws")


def quartic_inputs(field, seed):
    """Endless seeded stream of (quartic, lift seed) over F_{p^n}."""
    rng = random.Random(seed)
    ring = mpoly.PolyRing(ff.FqField(*field), ("X", "Y", "Z"))
    while True:
        yield random_smooth_quartic(ring, rng), rng.randrange(2 ** 31)


# -- the timed path


def timed_quartic(F, lift_seed, tracer=None):
    """(lift seconds, certify seconds, classification, report, status)."""
    t0 = CLOCK()
    # the constructor is a call into lift3 that no wrapper sees
    with tracer.span("lift3.Genus3Input", "lift3") if tracer else nullcontext():
        C = lift3.Genus3Input(F)
    cls = lift3.classify_gonality3(C, rng=random.Random(lift_seed))
    report = lift3.lift_genus3(C, seed=lift_seed)
    t1 = CLOCK()
    status = verify.overall_status(verify.run_checks(report))
    t2 = CLOCK()
    return t1 - t0, t2 - t1, cls, report, status


# -- the oracle, run outside the timed region


def oracle(F, cls, report, status):
    """None when the outputs are right, else what was wrong."""
    if status != "pass":
        return f"overall_status is {status}: {report.checks}"
    if cls["gamma"] != report.gamma:
        return f"classified gonality {cls['gamma']} but lifted {report.gamma}"
    if report.checks.get("nondegenerate") == "pass":
        want = len(pointsearch.points_on_plane_curve(F))
        got = verify.toric_point_count(report.reduction(), 1)
        if got != want:
            return f"toric count {got} != {want} projective points"
    return None


# -- set-up


_SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gonalift
from gonalift import ff, ok, polygon
ok.OkRing.for_field(ff.FqField(*json.loads(sys.argv[2])))
polygon.target(sys.argv[3])
print(time.perf_counter() - t0)
"""


def setup_seconds(field, src_dir):
    """(scaled, raw) medians over fresh interpreters of import + order +
    target lookup; each is scaled by the reference run right after it."""
    args = [sys.executable, "-c", _SETUP_CODE, src_dir, json.dumps(field),
            lift3.ROUTE_TARGETS["two_point"]]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(args, capture_output=True, text=True, timeout=60,
                             check=True)
        t = float(out.stdout.strip().splitlines()[-1])
        raw.append(t)
        scaled.append(t * REF_SECONDS / reference_seconds())
    return statistics.median(scaled), statistics.median(raw)


# -- the run


def run(field, seed, seconds, traced, src_dir, max_inputs=None, trace_path=None):
    """Run one workload; returns attempted, failed, metrics and per-input rows.

    Inputs are drawn until the timed work reaches ``seconds`` (or
    ``max_inputs`` inputs).  A traced run times each input twice,
    untraced and traced, so the overhead compares equal work.
    """
    rows = []
    failures = []
    tracer = tracing.Tracer(TRACED_MODULES) if traced else None
    clocks = {"untraced": 0.0, "traced": 0.0, "lost": 0.0}
    setup = None if traced else setup_seconds(field, src_dir)
    start = CLOCK()
    inputs = quartic_inputs(field, seed)
    cap = max_inputs or float("inf")

    def traced_pass(F, lift_seed):
        t0 = CLOCK()
        with tracer:
            out = timed_quartic(F, lift_seed, tracer)
        clocks["traced"] += CLOCK() - t0
        return out

    while clocks["untraced"] + clocks["traced"] + clocks["lost"] < seconds \
            and len(rows) < cap:
        i = len(rows)
        row = {"input": i, "lift_s": None, "certify_s": None, "scale": None,
               "error": None}
        F, lift_seed = next(inputs)
        ref0 = reference_seconds()
        c0 = CLOCK()
        try:
            # a traced run alternates which pass goes first, so that what
            # the first pass warms up does not bias the overhead
            if tracer is not None:
                tracer.input_id = i
                again = traced_pass(F, lift_seed) if i % 2 else None
            lift_s, certify_s, cls, report, status = timed_quartic(F, lift_seed)
            ref = (ref0 + reference_seconds()) / 2
            row.update(lift_s=lift_s, certify_s=certify_s, scale=REF_SECONDS / ref)
            clocks["untraced"] += lift_s + certify_s
            if tracer is not None:
                again = again or traced_pass(F, lift_seed)
                if again[3].to_json() != report.to_json():
                    row["error"] = "the traced run produced a different report"
            row["error"] = row["error"] or oracle(F, cls, report, status)
        except Exception as exc:  # one input's failure is counted, not fatal
            row["error"] = f"{type(exc).__name__}: {exc}"
            clocks["lost"] += CLOCK() - c0
        rows.append(row)
        if row["error"]:
            failures.append(row["error"])
    wall = CLOCK() - start
    ok_rows = [r for r in rows if not r["error"]]
    result = {"attempted": len(rows), "failed": len(failures),
              "failures": failures[:5], "wall_s": wall, "rows": rows}
    if traced:
        metrics = kernels.run_kernels()
        metrics.update(tracing.per_layer_metrics(
            tracer, len(rows), clocks["untraced"], clocks["traced"]))
        if trace_path:
            tracer.write(trace_path)
    else:
        metrics = end_to_end_metrics(ok_rows, len(rows), setup)
        result["unscaled"] = {name: value for name, (value, _unit) in
                              end_to_end_metrics(ok_rows, len(rows), setup,
                                                 scaled=False).items()}
    result["metrics"] = metrics
    return result


def end_to_end_metrics(ok_rows, attempted, setup, scaled=True):
    """Medians over the inputs that passed, 0 where none did; times are
    scaled to the reference speed unless ``scaled`` is false."""
    def median(values):
        return statistics.median(values) if values else 0.0

    def times(key):
        return [r[key] * (r["scale"] if scaled else 1.0) for r in ok_rows]

    lift, certify = times("lift_s"), times("certify_s")
    curve = [a + b for a, b in zip(lift, certify)]
    return {
        "setup_s": (setup[0 if scaled else 1], "s"),
        "curve_s": (median(curve), "s"),
        "lift_s": (median(lift), "s"),
        "certify_s": (median(certify), "s"),
        "curves_per_min": (60.0 * len(curve) / sum(curve) if curve else 0.0, "1/min"),
        "pass_ratio": (len(ok_rows) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
