"""Print the median cost of one curve over each of a few fields, as one JSON line.

Usage: python3 tools/field_costs.py

For each of F_127, F_9, F_25 and F_27 it draws 8 smooth quartics with
``fixtures.random_smooth_quartic`` under ``random.Random(11)`` and times,
per curve, ``Genus3Input`` with its smoothness proof, ``lift_genus3``
(lift seed 11) and ``run_checks``.  The line maps each field, as
``F_q``, to the median of those times in ms.  Drawing the curves is not
timed.  Hosts drift, so compare two trees by the ratios of runs that
alternate between them, not by times taken on different days.
"""

from __future__ import annotations

import json
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import fixtures
from gonalift.ff import FqField
from gonalift.lift3 import Genus3Input, lift_genus3
from gonalift.mpoly import PolyRing
from gonalift.verify import run_checks

SEED = 11
FIELDS = ((127, 1), (3, 2), (5, 2), (3, 3))


def field_costs(fields, count):
    """``F_q`` -> median ms of a curve, over ``count`` seeded quartics per field."""
    out = {}
    for field in fields:
        ring = PolyRing(field, ("X", "Y", "Z"))
        rng = random.Random(SEED)
        times = []
        for F in [fixtures.random_smooth_quartic(ring, rng) for _ in range(count)]:
            t0 = time.perf_counter()
            run_checks(lift_genus3(Genus3Input(F), seed=SEED))
            times.append(time.perf_counter() - t0)
        out[f"F_{field.q}"] = round(1000 * statistics.median(times), 2)
    return out


if __name__ == "__main__":
    print(json.dumps(field_costs([FqField(p, n) for p, n in FIELDS], 8)))
