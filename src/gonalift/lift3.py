"""Gonality-preserving lifts of genus-3 curves given as smooth plane quartics.

A non-hyperelliptic genus-3 curve is canonically a smooth plane quartic,
and every degree-3 map to the line is projection from a rational point
of the curve; without such a point the cheapest map has degree 4.  The
classification is therefore a rational-point search.  It stops at the
first point, and it is exhaustive only when there is none, which for a
smooth quartic happens only on fields with q <= 29.

Every lifting route follows one pattern: move a chosen point P (and
usually its tangent line) into standard position with a projective
change of coordinates, dehomogenize at Z, and lift coefficients
naively.  Each extra intersection of the curve with the new line at
infinity that is forced into a coordinate point shaves monomials off
the support of the model, so each route's target polygon follows from
its placement: the degree-4 triangle less the monomials the placement
forces to vanish (``polygon.FORCED_ZEROS``).  Routes, from plainest to
most special:

* ``none``        P at (0:1:0)                                -> g3_point
* ``tangent``     and the tangent at P to infinity            -> g3_tangent
* ``two_point``   and a second tangent point at (1:0:0)       -> g3_two_point
* ``flex``        P an ordinary flex, residual point placed   -> g3_flex
* ``bitangent``   both tangency points into coordinate points -> g3_bitangent
* ``hyperflex``   total tangent contact at P                  -> g3_hyperflex

``two_point`` is the default; it needs the tangent at P to meet the
curve again rationally, retries over up to ``ATTEMPTS`` points when it
does not, and finally falls back to ``tangent``.  The points P come from
a seeded ``pointsearch.PointStream``, which solves slices of the curve
only as points are tried, so a lift costs a few slices on any field.  The
flex/bitangent/hyperflex routes only run on request: they are
worthwhile for point counting but scan every rational point of the
curve to find their special configuration.
"""

from __future__ import annotations

import random

from . import mpoly, ok, pointsearch, polygon, verify
from .errors import InputError, UnsupportedInput, VerticalTangent
from .mpoly import MPoly, PolyRing
from .pointsearch import ProjPoint

#: route name -> target polygon name, in ladder order
ROUTE_TARGETS = {
    "two_point": "g3_two_point",
    "tangent": "g3_tangent",
    "none": "g3_point",
    "flex": "g3_flex",
    "bitangent": "g3_bitangent",
    "hyperflex": "g3_hyperflex",
}

#: points P tried per route before it falls back or gives up
ATTEMPTS = 32


class Genus3Input:
    """A smooth plane quartic over an odd-characteristic field, in X, Y, Z.

    ``check=False`` skips the smoothness proof for callers that already
    ran it: the tests, on quartics from ``random_smooth_quartic`` in
    ``tests/fixtures.py``, which proves each quartic smooth as it draws
    it, and on a nodal quartic that shows the check is skipped.
    """

    __slots__ = ("quartic",)

    def __init__(self, quartic: MPoly, check: bool = True):
        ring = quartic.ring
        if ring.nvars != 3 or ring.names != ("X", "Y", "Z"):
            raise InputError("a plane quartic lives in the variables X, Y, Z")
        if quartic.is_zero() or not quartic.is_homogeneous() \
                or quartic.total_degree() != 4:
            raise InputError("expected a nonzero homogeneous quartic")
        if check and not verify.plane_curve_is_smooth(quartic):
            raise InputError("the quartic is singular")
        self.quartic = quartic

    @property
    def field(self):
        return self.quartic.ring.coeff_ring

    def __repr__(self):
        return f"Genus3Input({self.quartic!r})"


def classify_gonality3(C: Genus3Input, rng=None) -> dict:
    """The gonality of the quartic over its base field: 3 or 4, certified.

    A smooth plane quartic has a degree-3 rational map exactly when it
    has a rational point (projection from it).  Pointless quartics only
    exist over fields small enough to sweep, so the search is exhaustive
    there and its emptiness is the gonality-4 certificate; projection
    from a rational point off the curve then realizes degree 4.
    """
    F = C.quartic
    field = C.field
    coord = ProjPoint(field, [field.zero, field.one, field.zero])
    if not F.evaluate(list(coord.coords)):
        return {"gamma": 3, "witness": coord, "method": "coordinate point"}
    p = pointsearch.find_point_on_plane_curve(F, rng=rng)
    if p is not None:
        return {"gamma": 3, "witness": p, "method": "point search"}
    if field.q > 29:
        raise InputError(
            "no rational point over a field with q > 29; "
            "the input cannot be a smooth plane quartic")
    return {"gamma": 4, "witness": None, "method": "exhaustive scan",
            "scanned": field.q ** 2 + field.q + 1}


# ---------------------------------------------------------------------------
# placement of (point, tangent) into standard position


def _affine_model(field, F3):
    aff = mpoly.dehomogenize(F3, 2)
    return PolyRing(field, ("x", "y")).from_terms(aff.terms.items())


def _change_from_columns(field, *cols):
    return mpoly.LinearChange(field, [[c[r] for c in cols] for r in range(3)])


def _point_only_change(field, p: ProjPoint):
    """Columns (e_i | P | e_j): determinant is the remaining coordinate of P."""
    k = next(t for t in range(3) if p.coords[t])
    i, j = (t for t in range(3) if t != k)
    basis = [[field.one if r == t else field.zero for r in range(3)]
             for t in range(3)]
    return _change_from_columns(field, basis[i], list(p.coords), basis[j])


def _off_line_column(field, lcoeffs):
    for j in range(3):
        if lcoeffs[j]:
            return [field.one if i == j else field.zero for i in range(3)]
    raise InputError("degenerate tangent form")


def _route_model(F, route, p: ProjPoint, second: ProjPoint = None):
    """The affine model after one placement attempt.

    The y-degree must come out as 3 (smoothness guarantees it for honest
    inputs); a miss raises VerticalTangent so the caller can retry.
    """
    field = F.ring.coeff_ring
    if route == "none":
        change = _point_only_change(field, p)
    else:
        line = pointsearch.tangent_line(F, p)
        lcoeffs = [line.coeff(tuple(1 if i == j else 0 for i in range(3)))
                   for j in range(3)]
        if second is not None:
            col1 = list(second.coords)
        else:
            col1 = list(pointsearch.line_basis(line, p).coords)
        change = _change_from_columns(field, col1, list(p.coords),
                                      _off_line_column(field, lcoeffs))
    fbar = _affine_model(field, change.apply(F))
    if fbar.degree_in(1) != 3:
        raise VerticalTangent("the transformed model does not have degree 3 in y")
    return fbar, change


def _verified_model(F, route, p, second=None):
    fbar, change = _route_model(F, route, p, second)
    if not polygon.target(ROUTE_TARGETS[route]).contains(polygon.newton_polygon(fbar)):
        raise VerticalTangent(f"support escaped the {route} bound")
    return fbar, change, route


def _second_points(others):
    return sorted((pt for pt, _m in others), key=lambda t: t.key())


def _try_special(F, optimize):
    """One placement from the flex/bitangent/hyperflex scan, or None."""
    if F.ring.coeff_ring.q > 2 ** 16:
        raise UnsupportedInput(
            "the flex and bitangent search enumerates every rational point; "
            "the field is too large to sweep")
    found = pointsearch.special_points(F)
    if optimize == "hyperflex":
        candidates = [(p, None) for p in found["hyperflexes"]]
    elif optimize == "flex":
        candidates = []
        for p in found["flexes"]:
            mult, others = pointsearch.tangent_contact(F, p)
            if mult == 3 and others:
                candidates.append((p, others[0][0]))
    else:
        candidates = []
        for p in found["bitangent_contacts"]:
            _mult, others = pointsearch.tangent_contact(F, p)
            doubles = [pt for pt, m in others if m >= 2]
            if doubles:
                candidates.append((p, doubles[0]))
    for p, second in candidates:
        try:
            return _verified_model(F, optimize, p, second)
        except VerticalTangent:
            continue
    return None


def _tries(pool):
    """The first ``ATTEMPTS`` points of the stream, found as they are used."""
    for i in range(ATTEMPTS):
        p = pool.point(i)
        if p is None:
            return
        yield p


def _build_model(F, optimize, pool, notes):
    if optimize in ("flex", "bitangent", "hyperflex"):
        got = _try_special(F, optimize)
        if got is not None:
            return got
        notes.append(f"no usable {optimize}; using the default route")
        optimize = "two_point"
    last = None
    if optimize == "two_point":
        for p in _tries(pool):
            _mult, others = pointsearch.tangent_contact(F, p)
            if not others:
                continue
            try:
                return _verified_model(F, "two_point", p, _second_points(others)[0])
            except VerticalTangent as err:
                last = err
        notes.append("no second rational tangent point; "
                     "fell back to the tangent-only route")
        optimize = "tangent"
    for p in _tries(pool):
        try:
            return _verified_model(F, optimize, p, None)
        except VerticalTangent as err:
            last = err
    raise last if last is not None else VerticalTangent(
        "every placement attempt failed")


def lift_genus3(C: Genus3Input, order=None, optimize="two_point",
                seed=0) -> verify.LiftReport:
    """Lift the quartic to the order with genus and gonality preserved.

    The report's model reduces mod p to the transformed input exactly
    (the trail replays the transformation), has y-degree equal to the
    classified gonality, and keeps its support inside the route's
    polygon, whose interior realizes the genus bound.  The points P are
    drawn with ``random.Random(seed)``, so the report's seed reproduces it.

    A route that finds no usable placement falls back, and says so in the
    notes: flex, bitangent and hyperflex to ``two_point``, and
    ``two_point`` after ``ATTEMPTS`` points to ``tangent``.
    """
    if optimize not in ROUTE_TARGETS:
        raise InputError(f"unknown optimization {optimize!r}")
    F = C.quartic
    field = C.field
    if order is None:
        order = ok.OkRing.for_field(field)
    elif order.field != field:
        raise InputError("the order must reduce onto the curve's field")
    notes = []
    pool = pointsearch.PointStream(F, random.Random(seed))
    if pool.point(0) is not None:
        gamma = 3
        fbar, change, route = _build_model(F, optimize, pool, notes)
        trail = [verify.linear_step(change), verify.dehomog_step("Z"),
                 verify.project_step(("X", "Y"), ("x", "y"))]
    else:
        if field.q > 29:
            raise InputError(
                "no rational point over a field with q > 29; "
                "the input cannot be a smooth plane quartic")
        # pointless: projection from a rational point off the curve has
        # degree 4, and the untouched model already realizes it
        gamma, route = 4, "pointless"
        fbar = _affine_model(field, F)
        if fbar.degree_in(1) != 4:
            raise InputError("pointless curve through (0:1:0); input is corrupt")
        trail = [verify.dehomog_step("Z"),
                 verify.project_step(("X", "Y"), ("x", "y"))]
        notes.append("no rational point (exhaustive scan); lifting the full "
                     "quartic support with projection degree 4")
    name = "g3_pointless" if route == "pointless" else ROUTE_TARGETS[route]
    f = fbar.map_coefficients(order.naive_lift, PolyRing(order, ("x", "y")))
    return verify.LiftReport(
        order=order, f=f, gamma=gamma, genus=3, target=name,
        target_vertices=polygon.target(name).vertices, baker=True, trail=trail,
        input_kind="quartic", input_gens=[F], seed=seed, notes=notes)
