import random

import pytest

from gonalift.errors import InputError, ZeroInput
from gonalift.ff import FqField
from gonalift.mpoly import PolyRing
from gonalift.polygon import (
    LatticePolygon,
    edge_lattice_points,
    newton_polygon,
    target,
)

F7 = FqField(7)
R = PolyRing(F7, ("x", "y"))
X, Y = R.gens()


def poly_from_support(support):
    f = R.zero()
    for i, j in support:
        f = f + X ** i * Y ** j
    return f


def test_newton_polygon_basic():
    f = R.one() + X ** 4 + Y ** 3
    p = newton_polygon(f)
    assert p.vertices == ((0, 0), (4, 0), (0, 3))


def test_newton_polygon_monomial_and_zero():
    assert newton_polygon(Y).vertices == ((0, 1),)
    with pytest.raises(ZeroInput):
        newton_polygon(R.zero())
    R3 = PolyRing(F7, ("x", "y", "z"))
    with pytest.raises(InputError):
        newton_polygon(R3.one())


def test_newton_polygon_full_rectangle():
    f = poly_from_support([(i, j) for i in range(5) for j in range(4)])
    p = newton_polygon(f)
    assert p.vertices == ((0, 0), (4, 0), (4, 3), (0, 3))


def test_interior_counts():
    assert LatticePolygon([(0, 0), (3, 0), (0, 3)]).interior_points() == [(1, 1)]
    assert len(LatticePolygon([(0, 0), (4, 0), (0, 4)]).interior_points()) == 3
    rect = LatticePolygon([(0, 0), (4, 0), (4, 3), (0, 3)])
    assert len(rect.interior_points()) == 6
    chopped = LatticePolygon([(0, 0), (6, 0), (2, 4), (0, 4)])
    assert len(chopped.interior_points()) == 9


def test_interior_degenerate():
    assert LatticePolygon([(2, 5)]).interior_points() == []
    assert LatticePolygon([(0, 0), (4, 0)]).interior_points() == []


def _pick_interior_count(p):
    # Pick's theorem: I = A - B/2 + 1, with A from the shoelace formula
    area2 = abs(p.double_area())
    boundary = len(p.boundary_points())
    assert (area2 - boundary) % 2 == 0  # 2I = 2A - B + 2 is even
    return (area2 - boundary + 2) // 2


def test_interior_matches_pick():
    rng = random.Random(7)
    for _ in range(100):
        pts = [(rng.randrange(13), rng.randrange(13)) for _ in range(rng.randint(3, 9))]
        p = LatticePolygon(pts)
        if p.is_degenerate():
            continue
        assert len(p.interior_points()) == _pick_interior_count(p)


def test_baker_monotone_under_containment():
    rng = random.Random(13)
    for _ in range(60):
        pts = [(rng.randrange(10), rng.randrange(10)) for _ in range(rng.randint(3, 8))]
        q = LatticePolygon(pts)
        if q.is_degenerate():
            continue
        inner_pts = rng.sample(q.lattice_points(), k=min(4, len(q.lattice_points())))
        p = LatticePolygon(inner_pts)
        assert q.contains(p)
        assert set(p.interior_points()) <= set(q.interior_points())


def test_named_targets():
    t = target("g3_pointless")
    assert t.vertices == ((0, 0), (4, 0), (0, 4))
    with pytest.raises(InputError):
        target("no_such_polygon")


def test_target_contains_support():
    f = Y ** 4 + X ** 4 + X * Y + R.constant(1)
    assert target("g3_pointless").contains(newton_polygon(f))
    assert not target("g3_point").contains(newton_polygon(f))


def test_edge_lattice_points():
    assert edge_lattice_points((0, 0), (3, 3)) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert edge_lattice_points((2, 1), (2, 1)) == [(2, 1)]
    assert edge_lattice_points((0, 0), (2, 4)) == [(0, 0), (1, 2), (2, 4)]


def test_contains_point_segment():
    seg = LatticePolygon([(0, 0), (4, 2)])
    assert seg.contains_point((2, 1))
    assert not seg.contains_point((1, 1))
    assert not seg.contains_point((6, 3))
