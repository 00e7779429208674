"""Print the outputs of the lift pipeline on seeded smooth quartics, one JSON line each.

Usage: python3 tools/dump_outputs.py --field P[,N] --count K --seed S

For each of K seeded random smooth quartics over F_{P^N} (N = 1 when
left out) the line holds the quartic, its points in canonical order
(``points_on_plane_curve``, as ``key()`` tuples), under ``contact`` the
``tangent_contact`` of its first 3 points (the multiplicity at the point,
then ``[Q.key(), m]`` for each other rational point Q of the tangent),
the ``classify_gonality3`` result, the ``sample_birational`` dict,
``LiftReport.to_json()`` after ``run_checks``, and ``toric``: the
``toric_point_count`` of the reduced lift when ``nondegenerate``
passes, else null.  Under ``sparse`` the line also holds a seeded quartic
with each monomial kept with probability 0.6, smooth or not: its
``plane_curve_is_smooth`` verdict and the ``check_nondegenerate``
failures of its model dehomogenised at Z, so singular and degenerate
verdicts are compared too.  The library defaults hold throughout.  A last
line, ``{"g6": ...}``, holds the genus-6 report of ``tests/g6_fixture.py``:
its trail replayed on the canonical ideal (``replay_mod_p``) and its
``sample_birational`` dict with 6 samples, which takes points through
the ``linear``, ``substitute``, ``select`` and ``gcd`` steps.  The very
next line, ``{"routes": ...}``, covers the routes that seeded quartics
rarely take: for each pinned quartic of ``tests/fixtures.py`` (F_31,
seed 101) the ``LiftReport.to_json()`` after ``run_checks`` of its own
route, of ``none`` and of ``tangent`` (lift seed 3), and under
``fallback`` the report of the first seed-41 F_13 quartic whose
``hyperflex`` request falls back to the default route.  The last line,
``{"pointless": ...}``, takes ``fixtures.POINTLESS_QUARTIC_F3``, a
quartic with no rational point, through ``classify_gonality3``,
``sample_birational`` and the checked report of ``lift_genus3``.  The
quartics are drawn by ``fixtures.random_smooth_quartic``.  Two trees
of the repository give the same output exactly when their pipelines
agree on these inputs, so a change that should not alter output is
checked by running this script in both trees and comparing the files
with ``cmp``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import fixtures
import g6_fixture
from gonalift import ff, lift3, verify
from gonalift.mpoly import PolyRing, dehomogenize, from_dict
from gonalift.pointsearch import points_on_plane_curve, tangent_contact


def sparse_quartic(ring, rng):
    """A nonzero quartic form, each monomial kept with probability 0.6."""
    field = ring.coeff_ring
    while True:
        F = ring.from_terms(((a, b, 4 - a - b), field.random_nonzero(rng))
                            for a in range(5) for b in range(5 - a) if rng.random() < 0.6)
        if F:
            return F


def dump(field, count, seed, out):
    rng = random.Random(seed)
    sparse_rng = random.Random(f"sparse {seed}")
    ring = PolyRing(field, ("X", "Y", "Z"))
    for _ in range(count):
        S = sparse_quartic(ring, sparse_rng)
        sparse = {"quartic": S.to_dict(), "smooth": verify.plane_curve_is_smooth(S),
                  "failures": verify.check_nondegenerate(dehomogenize(S, 2)).failures}
        F = fixtures.random_smooth_quartic(ring, rng)
        lift_seed = rng.randrange(2 ** 31)
        C = lift3.Genus3Input(F)
        cls = lift3.classify_gonality3(C, rng=random.Random(lift_seed))
        witness = cls["witness"]
        cls = dict(cls, witness=None if witness is None else witness.key())
        report = lift3.lift_genus3(C, seed=lift_seed)
        sampled = verify.sample_birational(report)
        checks = verify.run_checks(report)
        toric = (verify.toric_point_count(report.reduction(), 1)
                 if checks["nondegenerate"] == "pass" else None)
        points = points_on_plane_curve(F)
        contact = []
        for P in points[:3]:
            mult, others = tangent_contact(F, P)
            contact.append([mult, [[Q.key(), m] for Q, m in others]])
        line = {"quartic": F.to_dict(), "classify": cls,
                "points": [p.key() for p in points], "contact": contact,
                "sample_birational": sampled, "report": report.to_json(),
                "toric": toric, "sparse": sparse}
        out.write(json.dumps(line, sort_keys=True) + "\n")
    report = g6_fixture.report()
    replayed = verify.replay_mod_p(report.input_gens, report.trail)
    line = {"g6": {"replayed": replayed.to_dict(),
                   "sample_birational": verify.sample_birational(report, samples=6)}}
    out.write(json.dumps(line, sort_keys=True) + "\n")
    out.write(json.dumps({"routes": routes()}, sort_keys=True) + "\n")
    out.write(json.dumps({"pointless": pointless()}, sort_keys=True) + "\n")


def routes():
    """The special routes, the explicit ones and the fallback, as checked reports."""
    field = ff.FqField(31)
    out = {}
    for special, pins in fixtures.SPECIAL_PINS.items():
        C = lift3.Genus3Input(fixtures.scrambled_special(field, pins, 101))
        out[special] = {}
        for route in (special, "none", "tangent"):
            report = lift3.lift_genus3(C, optimize=route, seed=3)
            verify.run_checks(report)
            out[special][route] = report.to_json()
    report = fixtures.hyperflex_fallback()
    verify.run_checks(report)
    out["fallback"] = report.to_json()
    return out


def pointless():
    """The pointless F_3 quartic: its class, samples and checked report."""
    C = lift3.Genus3Input(from_dict(fixtures.POINTLESS_QUARTIC_F3, ff.FqField(3)))
    cls = lift3.classify_gonality3(C, rng=random.Random(0))
    report = lift3.lift_genus3(C)
    sampled = verify.sample_birational(report)
    verify.run_checks(report)
    return {"classify": cls, "sample_birational": sampled, "report": report.to_json()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", required=True,
                    help="P or P,N: the base field F_{P^N}")
    ap.add_argument("--count", type=int, required=True, help="number of quartics")
    ap.add_argument("--seed", type=int, required=True, help="seed of the quartics")
    args = ap.parse_args(argv)
    field = ff.FqField(*(int(s) for s in args.field.split(",")))
    dump(field, args.count, args.seed, sys.stdout)


if __name__ == "__main__":
    main()
