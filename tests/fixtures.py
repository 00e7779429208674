"""Shared random-curve generators for the lifting tests."""

from gonalift import linalg, verify
from gonalift.mpoly import LinearChange
from gonalift.pointsearch import ProjPoint


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
