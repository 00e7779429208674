"""Rational point search on plane curves and quadric intersections.

Point search goes chart by chart and slice by slice, with univariate
root extraction per slice, which is exact.  ``points_on_variety`` sweeps
in canonical order — charts from the last coordinate back, coordinates
in the field's element order — so "first found" is reproducible and
searches can be partitioned without changing the reported witness.
``PointStream`` walks the slices of a plane curve in a seeded order and
solves them only as points are asked for, so a caller that needs a few
points pays for a few slices on any field; drained, it is exhaustive
too.
"""

from __future__ import annotations

from . import upoly
from .errors import InputError, SingularPoint
from .mpoly import PolyRing, derivative


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

    def conjugate(self):
        """Coordinate-wise relative Frobenius; identity over a base field."""
        fr = getattr(self.field, "frobenius", None)
        if fr is None:
            return ProjPoint(self.field, list(self.coords))
        return ProjPoint(self.field, [fr(c) for c in self.coords])

    def is_rational(self):
        """Fixed by the relative Frobenius (trivially true over a base field)."""
        return self.conjugate() == self


def _univariate(f, pos, field):
    """f supported on variable pos only -> little-endian coefficient list."""
    coeffs = {}
    for e, c in f.terms.items():
        coeffs[e[pos]] = c
    if not coeffs:
        return []
    out = [field.zero] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def _univariate_at(p, pos, sol, L):
    """p as univariate in pos, the other variables evaluated into L."""
    n = p.ring.nvars
    vals = [sol.get(i, L.zero) for i in range(n)]
    return upoly.trim([p.coeff_of(pos, k).evaluate(vals, into=L)
                       for k in range(p.degree_in(pos) + 1)])


def _solve_two_vars(polys, field, upos, vpos, u_values=None, ext=None):
    """Common zeros (u, v) of polynomials supported on vars upos, vpos.

    Yields pairs in canonical order.  ``u_values`` restricts (and orders)
    the u-slices, which is how the seeded ``PointStream`` plugs in.
    With ``ext`` the zeros are taken in the extension while resultants
    stay over the (cheap) coefficient field.
    """
    L = ext if ext is not None else field
    actives = [p for p in polys if p]  # identically-zero restrictions impose nothing
    if any(p.total_degree() == 0 for p in actives):
        return
    external = u_values is not None
    if u_values is None:
        base_values = (field.element_at(i) for i in range(field.q))
        u_values = [L.embed(u) for u in base_values] if ext is not None else list(base_values)
    if not actives:
        for u in u_values:
            for j in range(L.q):
                yield u, L.element_at(j)
        return
    candidates = None
    if len(actives) >= 2:
        from .mpoly import resultant
        r = resultant(actives[0], actives[1], vpos)
        if r:
            rc = _univariate(r, upos, field)
            if ext is not None:
                rc = [L.element(c) for c in rc]
            candidates = upoly.roots(L, rc) if upoly.degree(rc) > 0 else []
            if not external:
                u_values = candidates  # already sorted canonically
    for u in u_values:
        if external and candidates is not None and u not in candidates:
            continue
        if ext is None:
            slices = [_univariate(p.partial_eval({upos: u}), vpos, field) for p in actives]
        else:
            slices = [_univariate_at(p, vpos, {upos: u}, L) for p in actives]
        if all(upoly.is_zero(s) for s in slices):
            for j in range(L.q):
                yield u, L.element_at(j)
            continue
        g = None
        for s in slices:
            if upoly.is_zero(s):
                continue
            g = s if g is None else upoly.gcd(L, g, s)
        if upoly.degree(g) < 1:
            continue
        for v in upoly.roots(L, g):
            yield u, v


def points_on_variety(polys, limit=None):
    """Common projective zeros of homogeneous polynomials in 3-5 variables.

    All of them, or the first ``limit``, in canonical (lexicographic)
    order over charts.
    """
    polys = [p for p in polys if p is not None]
    if not polys:
        raise InputError("need at least one equation")
    ring = polys[0].ring
    field = ring.coeff_ring
    n = ring.nvars
    if n not in (3, 4, 5):
        raise InputError("point search works in P^2, P^3, P^4")
    found = []

    def emit(coords):
        found.append(ProjPoint(field, coords))
        return limit is not None and len(found) >= limit

    for chart in range(n - 1, -1, -1):
        free = list(range(chart + 1, n))
        base = {i: field.zero for i in range(chart)}
        base[chart] = field.one
        if not free:
            if all(not p.evaluate([base.get(i, field.zero) for i in range(n)])
                   for p in polys):
                if emit([base.get(i, field.zero) for i in range(n)]):
                    return found
            continue
        if len(free) == 1:
            pos = free[0]
            restricted = [p.partial_eval(base) for p in polys]
            slices = [_univariate(p, pos, field) for p in restricted if p]
            if any(upoly.degree(s) == 0 for s in slices):
                continue  # a nonzero constant equation kills the slice
            if not slices:
                for j in range(field.q):
                    coords = dict(base)
                    coords[pos] = field.element_at(j)
                    if emit([coords.get(i, field.zero) for i in range(n)]):
                        return found
                continue
            g = None
            for s in slices:
                g = s if g is None else upoly.gcd(field, g, s)
            if upoly.degree(g) >= 1:
                for v in upoly.roots(field, g):
                    coords = dict(base)
                    coords[pos] = v
                    if emit([coords.get(i, field.zero) for i in range(n)]):
                        return found
            continue
        upos, vpos = free[-2], free[-1]
        mids = free[:-2]
        for mid_vals in _enumerate_assignments(field, mids):
            fixed = dict(base)
            fixed.update(mid_vals)
            restricted = [p.partial_eval(fixed) for p in polys]
            for u, v in _solve_two_vars(restricted, field, upos, vpos):
                coords = dict(fixed)
                coords[upos] = u
                coords[vpos] = v
                if emit([coords.get(i, field.zero) for i in range(n)]):
                    return found
    return found


def _enumerate_assignments(field, positions):
    for idx in range(field.q ** len(positions)):
        rem = idx
        out = {}
        # last position varies fastest, preserving lexicographic order
        for pos in reversed(positions):
            out[pos] = field.element_at(rem % field.q)
            rem //= field.q
        yield out


def points_on_plane_curve(f, limit=None):
    """All (or the first ``limit``) points of a plane projective curve."""
    if not f or not f.is_homogeneous():
        raise InputError("expected a nonzero homogeneous polynomial")
    return points_on_variety([f], limit=limit)


def find_point_on_plane_curve(f, rng=None):
    """One rational point, or None when the exhausted search finds none.

    Without ``rng``: the lexicographically first point.  With ``rng``:
    the first point of the seeded ``PointStream``.  Either search stops
    at its first point and sweeps every slice only when there is none.
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
        if not f or not f.is_homogeneous() or f.ring.nvars != 3:
            raise InputError("expected a nonzero homogeneous polynomial in X, Y, Z")
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
    u_values = (field.element_at((a + b * i) % q) for i in range(q))
    chart = [f.partial_eval({0: field.one})]
    for u, v in _solve_two_vars(chart, field, 1, 2, u_values=u_values):
        yield ProjPoint(field, [field.one, u, v])
    yield from points_on_variety([f, f.ring.variable(0)])


def _solve_zero_dim(polys, field, unknowns, cap=64, ext=None):
    """Common zeros of a system expected to be finite on ``unknowns``.

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
    if len(unknowns) == 1:
        pos = unknowns[0]
        g = None
        for p in actives:
            s = _univariate(p, pos, field)
            g = s if g is None else upoly.gcd(field, g, s)
        if upoly.degree(g) < 1:
            return []
        if ext is not None:
            g = [L.element(c) for c in g]
        return [{pos: v} for v in upoly.roots(L, g)]
    if len(unknowns) == 2:
        out = []
        for u, v in _solve_two_vars(actives, field, unknowns[0], unknowns[1], ext=ext):
            out.append({unknowns[0]: u, unknowns[1]: v})
            if len(out) >= cap:
                break
        return out
    from .mpoly import resultant

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
            if ext is None:
                s = _univariate(p.partial_eval(sol), wpos, field)
            else:
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


def sample_curve_points(polys, limit, rng, tries=None, ext=None):
    """Seeded random rational points of a projective curve in 3-6 variables.

    Each draw slices the curve with a random chart and one random
    coordinate hyperplane, so the residual system is zero-dimensional
    and solvable by elimination; every candidate is re-checked against
    the full system before being kept.  Trades the canonical order of
    points_on_variety for coverage on fields too large to sweep.  A
    slice drawn again is not solved again, and drawing stops once all
    n(n-1)q slices have been drawn: on a small field the result is then
    every point the slices reach.

    With ``ext`` the points are taken in the extension field.  The
    slicing hyperplanes stay rational, which keeps elimination over the
    base field; a curve section of degree d still throws off plenty of
    points of residue degree up to d across slices.
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


def line_through(p: ProjPoint, q: ProjPoint, ring):
    """Linear form vanishing on two distinct points of P^2."""
    if ring.nvars != 3:
        raise InputError("line_through expects a plane")
    a = (p.coords[1] * q.coords[2] - p.coords[2] * q.coords[1],
         p.coords[2] * q.coords[0] - p.coords[0] * q.coords[2],
         p.coords[0] * q.coords[1] - p.coords[1] * q.coords[0])
    if not any(a):
        raise InputError("points coincide; no unique line")
    gens = ring.gens()
    out = ring.zero()
    for c, x in zip(a, gens):
        out = out + x * c
    return out


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
    coeffs = _univariate(g, 0, field)
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
