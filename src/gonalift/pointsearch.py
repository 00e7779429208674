"""Rational point search on plane curves and sampling on curves in P^2-P^5.

A plane curve f(X, Y, Z) = 0 is searched slice by slice: the chart
X = 1 is cut into the lines Y = u, and each slice f(1, u, v) is a
univariate solved by exact root extraction.  The slices come from the
kernel ``mpoly.slice_rows``/``mpoly.slice_at``, which builds the
coefficient rows of f(1, u, v) once and evaluates them per value of u.
The line X = 0 is one more slice.  ``points_on_plane_curve`` takes the
line X = 0 first and then the chart with u in the field's element
order, so "first found" is reproducible; ``PointStream`` takes the
chart with u in a seeded order and the line last, and solves a slice
only as points are asked for, so a caller that needs a few points pays
for a few slices on any field.  Drained, both are exhaustive.

``sample_curve_points`` draws random rational points of a curve cut out
by several equations in P^2 through P^5, one random coordinate
hyperplane at a time, by the same slices in P^2 and by elimination
otherwise.
"""

from __future__ import annotations

import itertools

from . import upoly
from .errors import InputError, SingularPoint
from .mpoly import PolyRing, derivative, resultant, slice_at, slice_rows


class ProjPoint:
    """Projective point, normalized so the first nonzero coordinate is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = [field.element(c) if isinstance(c, int) else c for c in coords]
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise InputError("projective coordinates cannot all vanish")
        inv = lead.inverse()
        self.field = field
        self.coords = tuple(inv * c for c in coords)

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field._hash_key, self.coords))

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"

    def key(self):
        return tuple(self.field.index_of(c) for c in self.coords)


def _chart(f, x, us):
    """Points (x : u : v) of a plane curve for u in ``us``, slice by slice.

    The points of one slice are the roots of f(x, u, v) in v, in the
    field's element order; every v when the slice vanishes (the line
    through (x : u : 0) and (0 : 0 : 1) is a component of the curve).
    """
    field = f.ring.coeff_ring
    rows = slice_rows(f.partial_eval({0: x}), 1, 2)
    for u in us:
        s = slice_at(rows, field, u)
        if not s:
            vs = field.elements()
        elif len(s) > 1:
            vs = upoly.roots(field, s)
        else:
            continue
        for v in vs:
            yield ProjPoint(field, [x, u, v])


def _line(f):
    """Points of a plane curve on the line X = 0: (0:0:1), then (0:1:v) by v."""
    field = f.ring.coeff_ring
    if not f.evaluate([field.zero, field.zero, field.one]):
        yield ProjPoint(field, [0, 0, 1])
    yield from _chart(f, field.zero, [field.one])


def _check_plane_curve(f):
    if not f or not f.is_homogeneous() or f.ring.nvars != 3:
        raise InputError("expected a nonzero homogeneous polynomial in X, Y, Z")


def points_on_plane_curve(f, limit=None):
    """All (or the first ``limit``) points of a plane projective curve.

    In canonical order, lexicographic in the coordinates' element
    indices: the line X = 0, then the chart X = 1 slice by slice.
    """
    _check_plane_curve(f)
    field = f.ring.coeff_ring
    walk = itertools.chain(_line(f), _chart(f, field.one, field.elements()))
    return list(itertools.islice(walk, limit))


def find_point_on_plane_curve(f, rng=None):
    """One rational point, or None when the exhausted search finds none.

    Without ``rng``: the first point in canonical order.  With ``rng``:
    the first point of the seeded ``PointStream``.  Either search stops
    at its first point and solves every slice only when there is none.
    """
    if rng is not None:
        return PointStream(f, rng).point(0)
    pts = points_on_plane_curve(f, limit=1)
    return pts[0] if pts else None


class PointStream:
    """Every rational point of a plane curve, each once, in a seeded order.

    The order walks the affine chart X = 1 slice by slice: Y/X runs
    through the elements of index (a + b*i) mod q, i = 0, 1, ..., q - 1,
    with a and b drawn from ``rng`` and b prime to q, so that each value
    comes once.  The points on the line X = 0 follow, in canonical order.
    A slice is solved only when a point beyond those already found is
    asked for; running dry is an exhaustive search that found nothing.
    """

    def __init__(self, f, rng):
        _check_plane_curve(f)
        self._found = []
        self._rest = _seeded_walk(f, rng)

    def point(self, i):
        """The i-th point of the order, or None when the curve has at most i."""
        while len(self._found) <= i:
            nxt = next(self._rest, None)
            if nxt is None:
                return None
            self._found.append(nxt)
        return self._found[i]


def _seeded_walk(f, rng):
    field = f.ring.coeff_ring
    q = field.q
    a = rng.randrange(q)
    b = rng.randrange(1, q)
    while b % field.p == 0:
        b = rng.randrange(1, q)
    yield from _chart(f, field.one, (field.element_at((a + b * i) % q) for i in range(q)))
    yield from _line(f)


def _univariate_at(p, pos, sol, L):
    """p as univariate in pos, the other variables evaluated into L."""
    n = p.ring.nvars
    vals = [sol.get(i, L.zero) for i in range(n)]
    return upoly.trim([p.coeff_of(pos, k).evaluate(vals, into=L)
                       for k in range(p.degree_in(pos) + 1)])


def _slice_gcd(rows, L, u):
    """gcd over L of the nonzero slices at u, one per equation's rows; None when all vanish."""
    g = None
    for r in rows:
        s = slice_at(r, L, u)
        if s:
            g = s if g is None else upoly.gcd(L, g, s)
    return g


def _solve_two_vars(polys, field, upos, vpos, ext=None):
    """Common zeros (u, v) of nonzero polynomials supported on vars upos, vpos.

    The candidates for u are the roots of the resultant of the first two
    equations when it is nonzero, and every element of the coefficient
    field otherwise; each candidate's slices come from the equations'
    slice rows.  Yields pairs in canonical order.  With ``ext`` the
    zeros are taken in the extension while the resultant stays over the
    (cheap) coefficient field.
    """
    L = ext if ext is not None else field
    if any(p.total_degree() == 0 for p in polys):
        return
    candidates = field.elements() if ext is None else map(L.embed, field.elements())
    if len(polys) >= 2:
        r = resultant(polys[0], polys[1], vpos)
        if r:
            rc = slice_rows(r, upos, vpos)[0]
            candidates = upoly.roots(L, rc) if len(rc) > 1 else []
    rows = [slice_rows(p, upos, vpos) for p in polys]
    for u in candidates:
        g = _slice_gcd(rows, L, u)
        if g is None:
            for v in L.elements():
                yield u, v
        elif len(g) > 1:
            for v in upoly.roots(L, g):
                yield u, v


def _solve_zero_dim(polys, field, unknowns, cap=64, ext=None):
    """Common zeros of a system expected to be finite on two or more ``unknowns``.

    Eliminates down to two variables through pairwise resultants, then
    back-substitutes slice by slice.  Returns a list of assignment dicts,
    or None when a slice turned out underdetermined (the caller skips
    it); spurious elimination candidates are pruned on back-substitution
    and the caller re-checks survivors against the full system anyway.
    Zeros are taken in ``ext`` when given; elimination stays over the
    coefficient field either way, which is what keeps extension-field
    sampling affordable.
    """
    L = ext if ext is not None else field
    actives = [p for p in polys if p]
    if any(p.total_degree() == 0 for p in actives):
        return []
    if not actives:
        return None
    if len(unknowns) == 2:
        out = []
        for u, v in _solve_two_vars(actives, field, unknowns[0], unknowns[1], ext=ext):
            out.append({unknowns[0]: u, unknowns[1]: v})
            if len(out) >= cap:
                break
        return out
    # eliminate the variable with the cheapest pivot, preferring linear ones
    best = None
    for w in unknowns:
        cands = [p for p in actives if p.degree_in(w) > 0]
        if not cands:
            continue
        pivot = min(cands, key=lambda p: (p.degree_in(w), p.total_degree()))
        score = (pivot.degree_in(w), pivot.total_degree())
        if best is None or score < best[0]:
            best = (score, w, pivot)
    if best is None:
        return None
    _, wpos, pivot = best
    rest = [i for i in unknowns if i != wpos]
    lowered = [p for p in actives if p.degree_in(wpos) == 0]
    involved = sorted((p for p in actives if p.degree_in(wpos) > 0),
                      key=lambda p: p.total_degree())
    for p in involved[:5]:
        if p is pivot:
            continue
        r = resultant(pivot, p, wpos)
        if r:
            lowered.append(r)
    if not lowered:
        return None
    lowered.sort(key=lambda p: p.total_degree())
    partial = _solve_zero_dim(lowered[:5], field, rest, cap, ext=ext)
    if partial is None:
        return None
    out = []
    for sol in partial:
        g = None
        for p in actives:
            if p.degree_in(wpos) == 0:
                continue
            s = _univariate_at(p, wpos, sol, L)
            if upoly.is_zero(s):
                continue
            g = s if g is None else upoly.gcd(L, g, s)
        if g is None or upoly.degree(g) < 1:
            continue
        for w in upoly.roots(L, g):
            full = dict(sol)
            full[wpos] = w
            out.append(full)
            if len(out) >= cap:
                return out
    return out


def _solve_plane_slice(rows, field, a, L):
    """Common roots in L of the slices f(a, w) of plane equations.

    ``rows`` holds each equation's slice rows on one chart; the slices
    and their gcd stay over the coefficient field, and only the gcd's
    factors over that field whose roots lie in L are split in L
    (``upoly.roots``).  A slice on which every equation vanishes gives
    nothing.
    """
    g = _slice_gcd(rows, field, a)
    if g is None or len(g) < 2:
        return []
    return upoly.roots(L, g)


def sample_curve_points(polys, limit, rng, tries=None, ext=None):
    """Seeded random rational points of a projective curve in 3-6 variables.

    Each draw takes a random chart x_c = 1, a random position i and a
    random value a, and solves the curve on the hyperplane x_i = a of
    that chart: in P^2 that is one slice of the plane curve, solved from
    slice rows built once per (chart, position); in P^3-P^5 the residual
    system is zero-dimensional and solved by elimination.  Every
    candidate is re-checked against the full system before being kept.
    A slice drawn again is not solved again, and drawing stops once all
    n(n-1)q slices have been drawn: on a small field the result is then
    every point the slices reach.

    With ``ext`` the points are taken in the extension field.  The
    slicing hyperplanes stay rational, which keeps elimination over the
    base field; a curve section of degree d still throws off plenty of
    points of residue degree up to d across slices.  In P^2 the slice
    gcd has coefficients in F_q, so its roots in ext come from factoring
    over F_q first, and over a prime field F_p with ext = F_{p^2} the
    quadratic factors are solved in closed form (``upoly.roots``); the
    re-check evaluates each equation on coefficient vectors
    (``MPoly.evaluate``).
    """
    polys = [p for p in polys if p is not None and p]
    if not polys:
        raise InputError("need at least one equation")
    ring = polys[0].ring
    field = ring.coeff_ring
    L = ext if ext is not None else field
    n = ring.nvars
    if n not in (3, 4, 5, 6):
        raise InputError("curve sampling works in P^2 through P^5")
    found = []
    seen = set()
    solved = set()  # (chart, position, value): a repeated draw finds nothing new
    rows = {}  # (chart, position) -> slice rows of each equation, in P^2
    budget = tries if tries is not None else max(32 * limit, 64)
    while budget > 0 and len(found) < limit and len(solved) < n * (n - 1) * field.q:
        budget -= 1
        chart = rng.randrange(n)
        free = [i for i in range(n) if i != chart]
        pos = free.pop(rng.randrange(len(free)))
        fixed = {chart: field.one, pos: field.random_element(rng)}
        if (chart, pos, fixed[pos]) in solved:
            continue
        solved.add((chart, pos, fixed[pos]))
        if n == 3:
            w = free[0]
            if (chart, pos) not in rows:
                rows[chart, pos] = [slice_rows(p.partial_eval({chart: field.one}), pos, w)
                                    for p in polys]
            sols = [{w: v} for v in _solve_plane_slice(rows[chart, pos], field,
                                                      fixed[pos], L)]
        else:
            restricted = [p.partial_eval(fixed) for p in polys]
            sols = _solve_zero_dim(restricted, field, free, ext=ext)
        if not sols:
            continue
        for sol in sols:
            coords = [L.element(fixed[i]) if i in fixed else sol[i] for i in range(n)]
            if any(p.evaluate(coords, into=L) for p in polys):
                continue
            pt = ProjPoint(L, coords)
            key = pt.key()
            if key not in seen:
                seen.add(key)
                found.append(pt)
                if len(found) >= limit:
                    break
    return found


def tangent_line(f, p: ProjPoint):
    """The linear form grad f(P) . X cutting out the tangent at P."""
    ring = f.ring
    if f.evaluate(list(p.coords)):
        raise InputError("tangent requested at a point not on the curve")
    grads = [derivative(f, i).evaluate(list(p.coords)) for i in range(ring.nvars)]
    if not any(grads):
        raise SingularPoint("gradient vanishes; the point is singular")
    gens = ring.gens()
    out = ring.zero()
    for g, x in zip(grads, gens):
        out = out + x * g
    return out


def line_basis(line, p: ProjPoint):
    """A second point spanning the line through P cut out by ``line``."""
    from . import linalg
    field = p.field
    coeffs = [line.coeff(tuple(1 if i == j else 0 for j in range(line.ring.nvars)))
              for i in range(line.ring.nvars)]
    kernel = linalg.kernel_basis(field, [coeffs])
    for v in kernel:
        # independence from p: some 2x2 minor is nonzero
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                if p.coords[i] * v[j] - p.coords[j] * v[i]:
                    return ProjPoint(field, v)
    raise InputError("line is degenerate at the given point")


def _contact_profile(f, p, line):
    """Multiplicities of line [cap] curve: (at P, at the chart point, rest).

    Parametrizes the tangent as P + t*V and factors the restricted
    univariate; the point "at infinity" of the chart is V itself.
    """
    field = p.field
    v = line_basis(line, p)
    tring = PolyRing(field, ("t",))
    t = tring.variable(0)
    values = [tring.constant(pc) + t * vc for pc, vc in zip(p.coords, v.coords)]
    g = f.evaluate(values, into=tring)
    coeffs = [g.coeff((k,)) for k in range(g.total_degree() + 1)]
    deg_total = f.total_degree()
    if upoly.is_zero(coeffs):
        raise InputError("line is a component of the curve")
    mult0 = next(i for i, c in enumerate(coeffs) if c)
    at_infinity = deg_total - upoly.degree(coeffs)
    shifted = coeffs[mult0:]
    others = []
    for r in upoly.roots(field, shifted):
        if not r:
            continue
        m = 0
        rem = shifted
        while True:
            quo, rem2 = upoly.divmod_(field, rem, [-r, field.one])
            if upoly.is_zero(rem2):
                m += 1
                rem = quo
            else:
                break
        others.append((ProjPoint(field, [pc + r * vc for pc, vc
                                         in zip(p.coords, v.coords)]), m))
    if at_infinity:
        others.append((v, at_infinity))
    return mult0, others


def tangent_contact(f, p: ProjPoint):
    """Contact of the tangent at P with the curve.

    Returns (multiplicity at P, [(Q, multiplicity)] over the other
    rational intersection points); irrational intersections are absent,
    so the multiplicities need not sum to the degree.
    """
    return _contact_profile(f, p, tangent_line(f, p))


def special_points(f):
    """Flexes, hyperflexes and rational bitangent contacts of a smooth quartic.

    ``flexes`` lists tangency multiplicity >= 3 (so hyperflexes are
    included there too); ``bitangent_contacts`` lists points whose
    tangent is tangent at a second rational point.
    """
    if f.total_degree() != 4 or f.ring.nvars != 3:
        raise InputError("special-point scan expects a plane quartic")
    flexes, hyperflexes, bitangents = [], [], []
    for p in points_on_plane_curve(f):
        line = tangent_line(f, p)
        mult, others = _contact_profile(f, p, line)
        if mult >= 3:
            flexes.append(p)
        if mult == 4:
            hyperflexes.append(p)
        if mult == 2 and any(m >= 2 for _, m in others):
            bitangents.append(p)
    return {"flexes": flexes, "hyperflexes": hyperflexes,
            "bitangent_contacts": bitangents}
