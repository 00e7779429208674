"""Newton polygon combinatorics.

Lattice polygons here are convex hulls of polynomial supports in Z^2 and
may degenerate to a segment or a single point.  Interior lattice-point
counts give the genus bound of a nondegenerate curve, and the lattice
width bounds its gonality; both queries run by exhaustive enumeration,
which is exact and instant at these sizes.

The named targets bound the supports of the plane quartic models that
``lift3`` builds.  Each is the hull of the degree-4 triangle
{(a, b) : a + b <= 4} less the monomials its placement forces to vanish,
listed in ``FORCED_ZEROS``; every such hull has 3 interior points, the
genus of a smooth plane quartic.
"""

from __future__ import annotations

import math

from .errors import InputError, ZeroInput


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class LatticePolygon:
    """Convex hull of lattice points, vertices counterclockwise and minimal."""

    __slots__ = ("vertices",)

    def __init__(self, points):
        pts = sorted({(int(x), int(y)) for x, y in points})
        if not pts:
            raise InputError("a polygon needs at least one point")
        if len(pts) == 1:
            self.vertices = (pts[0],)
            return
        # monotone chain; strict turns only, so no collinear triples survive
        lower = []
        for p in pts:
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper = []
        for p in reversed(pts):
            while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        hull = lower[:-1] + upper[:-1]
        if len(hull) == 2 and hull[0] == hull[1]:
            hull = hull[:1]
        self.vertices = tuple(hull)

    def __eq__(self, other):
        return isinstance(other, LatticePolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolygon({list(self.vertices)})"

    def is_degenerate(self):
        return len(self.vertices) < 3

    def bounding_box(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def double_area(self):
        vs = self.vertices
        if len(vs) < 3:
            return 0
        acc = 0
        for i in range(len(vs)):
            x0, y0 = vs[i]
            x1, y1 = vs[(i + 1) % len(vs)]
            acc += x0 * y1 - x1 * y0
        return acc

    def edges(self):
        vs = self.vertices
        if len(vs) == 1:
            return []
        if len(vs) == 2:
            return [(vs[0], vs[1])]
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def contains_point(self, pt):
        pt = (int(pt[0]), int(pt[1]))
        vs = self.vertices
        if len(vs) == 1:
            return pt == vs[0]
        if len(vs) == 2:
            a, b = vs
            if _cross(a, b, pt) != 0:
                return False
            return (min(a[0], b[0]) <= pt[0] <= max(a[0], b[0])
                    and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1]))
        return all(_cross(a, b, pt) >= 0 for a, b in self.edges())

    def strictly_contains_point(self, pt):
        vs = self.vertices
        if len(vs) < 3:
            return False
        return all(_cross(a, b, pt) > 0 for a, b in self.edges())

    def contains(self, other):
        return all(self.contains_point(v) for v in other.vertices)

    def interior_points(self):
        """All strictly interior lattice points, sorted."""
        if self.is_degenerate():
            return []
        x0, y0, x1, y1 = self.bounding_box()
        out = []
        for x in range(x0 + 1, x1):
            for y in range(y0 + 1, y1):
                if self.strictly_contains_point((x, y)):
                    out.append((x, y))
        return out

    def boundary_points(self):
        """All lattice points on the boundary."""
        out = set()
        if len(self.vertices) == 1:
            return [self.vertices[0]]
        for a, b in self.edges():
            out.update(edge_lattice_points(a, b))
        return sorted(out)

    def lattice_points(self):
        x0, y0, x1, y1 = self.bounding_box()
        return [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)
                if self.contains_point((x, y))]

    def to_json(self):
        return {"vertices": [list(v) for v in self.vertices]}


def edge_lattice_points(a, b):
    """Lattice points on the closed segment [a, b]."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = math.gcd(abs(dx), abs(dy))
    if g == 0:
        return [a]
    sx, sy = dx // g, dy // g
    return [(a[0] + k * sx, a[1] + k * sy) for k in range(g + 1)]


def newton_polygon(f) -> LatticePolygon:
    """Convex hull of the support of a bivariate polynomial."""
    if not f:
        raise ZeroInput("the zero polynomial has no Newton polygon")
    if f.ring.nvars != 2:
        raise InputError("newton_polygon expects a bivariate polynomial")
    return LatticePolygon(f.terms.keys())


# ---------------------------------------------------------------------------
# named target polygons

#: target name -> the monomials x^a y^b, as (a, b), that the placement
#: forces to vanish in the degree-4 triangle {a + b <= 4}
FORCED_ZEROS = {
    # no point placed: the full quartic support (gonality 4)
    "g3_pointless": (),
    # P = (0:1:0) lies on C
    "g3_point": ((0, 4),),
    # and the tangent at P is Z = 0
    "g3_tangent": ((0, 4), (1, 3)),
    # and the residual tangent point is (1:0:0)
    "g3_two_point": ((0, 4), (1, 3), (4, 0)),
    # contact 3 at P, residual point (1:0:0)
    "g3_flex": ((0, 4), (1, 3), (2, 2), (4, 0)),
    # Z = 0 touches C at P and at (1:0:0)
    "g3_bitangent": ((0, 4), (1, 3), (3, 1), (4, 0)),
    # contact 4 at P
    "g3_hyperflex": ((0, 4), (1, 3), (2, 2), (3, 1)),
}

_TARGETS = {
    name: LatticePolygon((a, b) for a in range(5) for b in range(5 - a)
                         if (a, b) not in zeros)
    for name, zeros in FORCED_ZEROS.items()
}


def target(name) -> LatticePolygon:
    """The support bound of a plane quartic model placed as ``name`` says."""
    if name not in _TARGETS:
        raise InputError(f"unknown target polygon {name!r}")
    return _TARGETS[name]
