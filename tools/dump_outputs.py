"""Print the outputs of the lift pipeline on seeded smooth quartics, one JSON line each.

Usage: python3 tools/dump_outputs.py --field P[,N] --count K --seed S
       python3 tools/dump_outputs.py --golden > tests/dump_digests.json

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
verdicts are compared too.  The library defaults hold throughout.  Three
fixed lines follow, the same on every run (``fixed_lines``).  The first,
``{"g6": ...}``, holds the genus-6 report of ``tests/g6_fixture.py``:
its trail replayed on the canonical ideal (``replay_mod_p``) and its
``sample_birational`` dict with 6 samples, which takes points through
the ``linear``, ``substitute``, ``select`` and ``gcd`` steps.  The next
line, ``{"routes": ...}``, covers the routes that seeded quartics
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

``--golden`` prints, instead, the SHA-256 digests of the lines of a
fixed small set (``GOLDEN``: 8 quartics over F_127 and 8 over F_31, one
over F_25 and one over F_27, then the fixed lines once), and per line
those of its keys.  ``tests/test_output_identity.py`` recomputes them
against ``tests/dump_digests.json``; a change that alters output on
purpose regenerates that file with the second command above and says
in ``CHANGES.md`` which lines changed and why.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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


def curve_lines(field, count, seed):
    """The JSON line of each of ``count`` seeded quartics over ``field``."""
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
        yield json.dumps(line, sort_keys=True)


def fixed_lines():
    """The g6, routes and pointless lines, which depend on no field, count or seed."""
    report = g6_fixture.report()
    replayed = verify.replay_mod_p(report.input_gens, report.trail)
    yield json.dumps({"g6": {"replayed": replayed.to_dict(),
                             "sample_birational": verify.sample_birational(report, samples=6)}},
                     sort_keys=True)
    yield json.dumps({"routes": routes()}, sort_keys=True)
    yield json.dumps({"pointless": pointless()}, sort_keys=True)


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


#: the golden set, (field P or P, N, count, seed) per run, and then the fixed lines
GOLDEN = (((127,), 8, 11), ((31,), 8, 12), ((5, 2), 1, 19), ((3, 3), 1, 20))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def golden():
    """The digests of the golden set's lines, as ``tests/dump_digests.json`` holds them.

    Per line: a label, the SHA-256 of the line, and under ``keys`` the
    SHA-256 of each top-level key's value (of each key one level down,
    on a line with a single key), so that a mismatch names what moved.
    """
    lines = []
    for spec, count, seed in GOLDEN:
        field = ff.FqField(*spec)
        lines += [(f"F_{field.q} seed {seed} #{i}", line)
                  for i, line in enumerate(curve_lines(field, count, seed))]
    lines += [(f"fixed #{i}", line) for i, line in enumerate(fixed_lines())]
    out = []
    for label, line in lines:
        data, prefix = json.loads(line), ""
        if len(data) == 1:
            (prefix, data), = data.items()
            prefix += "."
        out.append({"line": label, "sha256": _sha256(line),
                    "keys": {prefix + k: _sha256(json.dumps(v, sort_keys=True))
                             for k, v in sorted(data.items())}})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", help="P or P,N: the base field F_{P^N}")
    ap.add_argument("--count", type=int, help="number of quartics")
    ap.add_argument("--seed", type=int, help="seed of the quartics")
    ap.add_argument("--golden", action="store_true",
                    help="print the golden set's digests instead")
    args = ap.parse_args(argv)
    if args.golden:
        json.dump(golden(), sys.stdout, indent=1)
        sys.stdout.write("\n")
        return
    if None in (args.field, args.count, args.seed):
        ap.error("--field, --count and --seed are required")
    field = ff.FqField(*(int(s) for s in args.field.split(",")))
    for line in itertools.chain(curve_lines(field, args.count, args.seed), fixed_lines()):
        sys.stdout.write(line + "\n")


if __name__ == "__main__":
    main()
