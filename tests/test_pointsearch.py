import random
import time

import pytest

import fixtures
from gonalift import pointsearch
from gonalift.errors import InputError, SingularPoint
from gonalift.ff import FqField
from gonalift.linalg import det
from gonalift.mpoly import PolyRing, derivative
from gonalift.pointsearch import (
    PointStream,
    ProjPoint,
    find_point_on_plane_curve,
    points_on_plane_curve,
    sample_curve_points,
    special_points,
    tangent_line,
)

F7 = FqField(7)
F13 = FqField(13)
R7 = PolyRing(F7, ("X", "Y", "Z"))
X, Y, Z = R7.gens()


def brute_force_points(*polys):
    """Common zeros of the polys, one normalized representative per point."""
    field = polys[0].ring.coeff_ring
    n = polys[0].ring.nvars
    seen = set()
    for lead in range(n):
        for idx in range(field.q ** (n - 1 - lead)):
            coords = [field.zero] * lead + [field.one]
            for _ in range(n - 1 - lead):
                coords.append(field.element_at(idx % field.q))
                idx //= field.q
            if not any(f.evaluate(coords) for f in polys):
                seen.add(ProjPoint(field, coords))
    return seen


def drained_sample(polys, rng):
    """Every point sample_curve_points reaches once it has drawn every slice."""
    return sample_curve_points(polys, 10 ** 6, rng)


#: a conic and a line through the slice Y/X = 2 of the chart X = 1, whose
#: slice f(1, 2, v) vanishes identically
LINE_AND_CONIC = (Y - 2 * X) * (X * X + Y * Y - Z * Z)


def test_projpoint_normalization():
    p = ProjPoint(F7, [0, 3, 5])
    assert p.coords[1] == F7.one
    assert ProjPoint(F7, [0, 2, 1]) == ProjPoint(F7, [0, 4, 2])
    assert p == ProjPoint(F7, [0, 6, 3])  # proportional by 2
    assert p != ProjPoint(F7, [0, 6, 4])
    with pytest.raises(InputError):
        ProjPoint(F7, [0, 0, 0])


def test_line_has_points():
    pts = points_on_plane_curve(X)
    assert all(p.coords[0] == F7.zero for p in pts)
    assert len(pts) == 8  # q + 1 points on a projective line
    assert pts == sorted(pts, key=lambda p: p.key())


def test_plane_curve_matches_brute_force():
    rng = random.Random(3)
    for _ in range(10):
        f = R7.zero()
        for e in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
            f = f + R7.monomial(e, F7.element(rng.randrange(7)))
        if not f:
            continue
        assert set(points_on_plane_curve(f)) == brute_force_points(f)
    assert set(points_on_plane_curve(LINE_AND_CONIC)) == brute_force_points(LINE_AND_CONIC)


def test_lex_first_point():
    conic = X * X + Y * Y - Z * Z
    first = find_point_on_plane_curve(conic)
    pts = points_on_plane_curve(conic)
    assert first == pts[0]
    assert min(p.key() for p in pts) == first.key()


def test_seeded_draw_reproducible():
    conic = X * X + Y * Y - Z * Z
    a = find_point_on_plane_curve(conic, rng=random.Random(42))
    b = find_point_on_plane_curve(conic, rng=random.Random(42))
    assert a == b
    draws = {find_point_on_plane_curve(conic, rng=random.Random(s)).key()
             for s in range(30)}
    assert len(draws) > 1


def _drain(stream):
    out = []
    while (p := stream.point(len(out))) is not None:
        out.append(p)
    return out


def test_point_stream_drains_to_every_point_once():
    rng = random.Random(11)
    for field in (F7, F13, FqField(3, 2)):
        ring = PolyRing(field, ("X", "Y", "Z"))
        for _ in range(3):
            f = fixtures.random_quartic(ring, rng)
            if not f:
                continue
            got = _drain(PointStream(f, random.Random(rng.randrange(100))))
            assert len(got) == len(set(got))
            assert set(got) == set(points_on_plane_curve(f))
    for seed in range(4):
        got = _drain(PointStream(LINE_AND_CONIC, random.Random(seed)))
        assert len(got) == len(set(got))
        assert set(got) == set(points_on_plane_curve(LINE_AND_CONIC))


def test_point_stream_is_seeded():
    conic = X * X + Y * Y - Z * Z
    first = _drain(PointStream(conic, random.Random(5)))
    assert _drain(PointStream(conic, random.Random(5))) == first
    orders = {tuple(p.key() for p in _drain(PointStream(conic, random.Random(s))))
              for s in range(10)}
    assert len(orders) > 1
    # asking again replays the points already found
    stream = PointStream(conic, random.Random(5))
    assert [stream.point(i) for i in (3, 0, 3)] == [first[3], first[0], first[3]]


def test_sample_curve_points_solves_each_slice_once(monkeypatch):
    # fewer points than asked for: sampling ends once every slice is drawn
    ring = PolyRing(FqField(3, 2), ("X", "Y", "Z"))
    f = fixtures.random_smooth_quartic(ring, random.Random(0))
    want = set(points_on_plane_curve(f))
    assert len(want) < 25
    calls = []
    real = pointsearch.slice_at

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pointsearch, "slice_at", counting)
    t0 = time.perf_counter()
    got = sample_curve_points([f], 25, random.Random(0))
    assert time.perf_counter() - t0 < 3.0
    assert len(got) == len(want) and set(got) == want
    # one slice of the one equation per draw that is solved
    assert 0 < len(calls) <= 3 * 2 * 9  # charts x positions x values


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


def test_pointless_quartic_over_f3():
    from gonalift.mpoly import from_dict
    F3 = FqField(3)
    f = from_dict(POINTLESS_QUARTIC_F3, F3)
    assert find_point_on_plane_curve(f) is None
    assert find_point_on_plane_curve(f, rng=random.Random(1)) is None
    assert brute_force_points(f) == set()


def test_variety_intersection_in_p3():
    R4 = PolyRing(F7, ("X", "Y", "Z", "W"))
    x, y, z, w = R4.gens()
    quadric = x * y - z * w
    cubic = x ** 3 + y ** 3 + z ** 3 + w ** 3
    pts = drained_sample([quadric, cubic], random.Random(0))
    assert len(pts) >= 5
    for p in pts:
        assert not quadric.evaluate(list(p.coords))
        assert not cubic.evaluate(list(p.coords))
    assert set(pts) == brute_force_points(quadric, cubic)


def test_variety_exhaustive_matches_brute_force_p3():
    F3 = FqField(3)
    R4 = PolyRing(F3, ("X", "Y", "Z", "W"))
    x, y, z, w = R4.gens()
    quadric = x * y - z * w
    cubic = x ** 3 + y ** 3 + z ** 3 + w * w * x
    mine = set(drained_sample([quadric, cubic], random.Random(0)))
    brute = set()
    for idx in range(3 ** 4):
        rem = idx
        coords = []
        for _ in range(4):
            coords.append(F3.element_at(rem % 3))
            rem //= 3
        if not any(coords):
            continue
        if not quadric.evaluate(coords) and not cubic.evaluate(coords):
            brute.add(ProjPoint(F3, coords))
    assert mine == brute


def test_variety_three_quadrics_p4():
    R5 = PolyRing(F7, ("X", "Y", "Z", "V", "W"))
    x, y, z, v, w = R5.gens()
    qs = [x * x - z * v, x * y - z * w, x * w - y * v]
    pts = drained_sample(qs, random.Random(0))
    assert len(pts) >= 4
    for p in pts:
        for q in qs:
            assert not q.evaluate(list(p.coords))
    assert set(pts) == brute_force_points(*qs)


def test_tangent_line_examples():
    f = Y * Z - X * X
    p = ProjPoint(F7, [0, 0, 1])
    t = tangent_line(f, p)
    assert t == Y * F7.element(1)
    with pytest.raises(InputError):
        tangent_line(f, ProjPoint(F7, [1, 1, 2]))  # not on the curve
    line = X
    pts = points_on_plane_curve(line)
    assert tangent_line(line, pts[0]) == X


def test_tangent_singular_point():
    f = X * X * Z - Y * Y * Z  # two lines through (0:0:1)
    with pytest.raises(SingularPoint):
        tangent_line(f, ProjPoint(F7, [0, 0, 1]))


def test_tangent_double_contact_on_conic():
    rng = random.Random(5)
    conic = X * X + Y * Y * 2 - Z * Z
    pts = points_on_plane_curve(conic)
    for p in (pts[i] for i in rng.sample(range(len(pts)), 4)):
        t = tangent_line(conic, p)
        # the tangent meets the conic only at p
        on_both = [q for q in pts if not t.evaluate(list(q.coords))]
        assert on_both == [p]


def test_special_points_fermat():
    R13 = PolyRing(F13, ("X", "Y", "Z"))
    x, y, z = R13.gens()
    fermat = x ** 4 + y ** 4 + z ** 4
    got = special_points(fermat)
    # Hessian oracle: flexes are smooth curve points killing the Hessian
    hess_rows = [[derivative(derivative(fermat, i), j) for j in range(3)]
                 for i in range(3)]
    hess = det(hess_rows, R13.zero(), R13.one())
    oracle = {p for p in points_on_plane_curve(fermat)
              if not hess.evaluate(list(p.coords))}
    assert set(got["flexes"]) == oracle
    assert len(got["flexes"]) <= 24
    assert set(got["hyperflexes"]) <= set(got["flexes"])
    for p in got["bitangent_contacts"]:
        t = tangent_line(fermat, p)
        partners = [q for q in got["bitangent_contacts"]
                    if q != p and t == tangent_line(fermat, q)
                    or q != p and _proportional(t, tangent_line(fermat, q))]
        assert partners


def _proportional(l1, l2):
    t1 = sorted(l1.terms.items())
    t2 = sorted(l2.terms.items())
    if [e for e, _ in t1] != [e for e, _ in t2]:
        return False
    ratio = None
    for (_, c1), (_, c2) in zip(t1, t2):
        r = c1 * c2.inverse()
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def test_flex_definition_recheck():
    R13 = PolyRing(F13, ("X", "Y", "Z"))
    x, y, z = R13.gens()
    fermat = x ** 4 + y ** 4 + z ** 4
    from gonalift.pointsearch import _contact_profile
    got = special_points(fermat)
    for p in got["flexes"][:6]:
        mult, _ = _contact_profile(fermat, p, tangent_line(fermat, p))
        assert mult >= 3
