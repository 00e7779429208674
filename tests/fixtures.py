"""Shared random-curve generators for the lifting tests."""

import random

from gonalift import linalg, verify
from gonalift.ff import FqField
from gonalift.lift3 import ROUTE_TARGETS, Genus3Input, lift_genus3
from gonalift.mpoly import LinearChange, PolyRing
from gonalift.pointsearch import ProjPoint
from gonalift.polygon import FORCED_ZEROS

#: coefficient pins that give a quartic each special route's configuration
#: at (0:1:0): an ordinary flex, a bitangent, a hyperflex.  The zero pins are
#: the monomials X^a Y^b Z^(4-a-b) the route's target forces to vanish; the
#: nonzero pins keep the configuration from degenerating further
SPECIAL_PINS = {
    route: {(a, b, 4 - a - b): 0 for a, b in FORCED_ZEROS[ROUTE_TARGETS[route]]}
    | dict.fromkeys(nonzero, "nonzero")
    for route, nonzero in (("flex", [(0, 3, 1), (3, 1, 0)]),
                           ("bitangent", [(0, 3, 1), (2, 2, 0)]),
                           ("hyperflex", [(0, 3, 1), (4, 0, 0)]))
}

#: a smooth plane quartic over F_3 with no F_3-rational point
POINTLESS_QUARTIC_F3 = {
    "vars": ["X", "Y", "Z"],
    "terms": [
        {"e": [4, 0, 0], "c": [2]}, {"e": [3, 0, 1], "c": [2]},
        {"e": [2, 1, 1], "c": [2]}, {"e": [1, 3, 0], "c": [1]},
        {"e": [1, 1, 2], "c": [2]}, {"e": [1, 0, 3], "c": [1]},
        {"e": [0, 4, 0], "c": [1]}, {"e": [0, 2, 2], "c": [1]},
        {"e": [0, 0, 4], "c": [2]},
    ],
}


def random_quartic(ring, rng, forced=None):
    """Random homogeneous quartic; ``forced`` pins chosen coefficients.

    ``forced`` maps exponent triples to 0 (coefficient must vanish) or
    "nonzero" (drawn from the units).
    """
    field = ring.coeff_ring
    forced = forced or {}
    terms = []
    for a in range(5):
        for b in range(5 - a):
            e = (a, b, 4 - a - b)
            want = forced.get(e)
            if want == 0:
                continue
            if want == "nonzero":
                c = field.element_at(1 + rng.randrange(field.q - 1))
            else:
                c = field.element_at(rng.randrange(field.q))
            terms.append((e, c))
    return ring.from_terms(terms)


def random_smooth_quartic(ring, rng, forced=None, tries=400):
    for _ in range(tries):
        F = random_quartic(ring, rng, forced)
        if F.total_degree() == 4 and verify.plane_curve_is_smooth(F):
            return F
    raise AssertionError("no smooth quartic found; loosen the pinning")


def random_scramble(field, rng):
    """A uniformly random invertible change of coordinates."""
    while True:
        rows = [[field.element_at(rng.randrange(field.q)) for _ in range(3)]
                for _ in range(3)]
        if linalg.det(rows, field.zero, field.one):
            return LinearChange(field, rows)


def transported(change, coords):
    """Image of a point of F under the scramble F <- F(M X): M^-1 * P."""
    field = change.coeff_ring
    inv = linalg.inverse(field, change.rows)
    return ProjPoint(field, [sum((a * x for a, x in zip(row, coords)),
                                 field.zero) for row in inv])


def scrambled_special(field, forced, seed):
    """A smooth quartic with the pins ``forced``, in random coordinates."""
    rng = random.Random(seed)
    F = random_smooth_quartic(PolyRing(field, ("X", "Y", "Z")), rng, forced)
    return random_scramble(field, rng).apply(F)


def hyperflex_fallback():
    """The lift of the first seeded F_13 quartic whose hyperflex request falls back."""
    ring = PolyRing(FqField(13), ("X", "Y", "Z"))
    rng = random.Random(41)
    for _ in range(10):
        C = Genus3Input(random_smooth_quartic(ring, rng), check=False)
        rep = lift_genus3(C, optimize="hyperflex", seed=1)
        if any("no usable hyperflex" in n for n in rep.notes):
            return rep
    raise AssertionError("every sampled curve had a rational hyperflex")
