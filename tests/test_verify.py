import json
import random

import pytest

import g6_fixture as g6
from fixtures import random_smooth_quartic
from gonalift import linalg, mpoly, polygon, upoly
from gonalift.errors import (DegenerateModel, InputError, WrongGammaDegree,
                             ZeroInput)
from gonalift.ff import FqField, flat_extension
from gonalift.lift3 import Genus3Input, lift_genus3
from gonalift.mpoly import LinearChange, PolyRing, substitute
from gonalift.ok import OkRing
from gonalift.verify import (LiftReport, check_nondegenerate, dehomog_step,
                             forward_point, gcd_step, linear_step, make_monic,
                             overall_status, project_step,
                             replay_mod_p, run_checks, sample_birational,
                             select_step, substitute_step, toric_point_count)

F7 = FqField(7)
R7 = PolyRing(F7, ("x", "y"))
X, Y = R7.gens()


# -- monicization


def test_make_monic_example():
    f = X * Y**2 + Y + 1
    assert make_monic(f, 2) == Y**2 + Y + X


def test_make_monic_keeps_monic_input():
    f = Y**3 + X * Y + 1
    assert make_monic(f, 3) == f


def test_make_monic_degree_mismatch():
    with pytest.raises(WrongGammaDegree):
        make_monic(X * Y**2 + 1, 3)
    with pytest.raises(WrongGammaDegree):
        make_monic(X * Y**2 + 1, 0)


def test_make_monic_substitution_identity():
    # g(x, f0*y) = f0^(gamma-1) * f(x, y) pins the construction exactly
    rng = random.Random(2)
    for _ in range(30):
        gamma = rng.randrange(2, 5)
        f0 = R7.from_terms(((k, 0), rng.randrange(7)) for k in range(3))
        f0 = f0 + X**3 * rng.randrange(1, 7)
        f = f0 * Y**gamma
        for k in range(gamma):
            f = f + R7.from_terms(
                ((j, k), rng.randrange(7)) for j in range(4))
        g = make_monic(f, gamma)
        assert g.coeff_of(1, gamma) == R7.one()
        assert substitute(g, [X, f0 * Y]) == f * f0 ** (gamma - 1)


def test_make_monic_commutes_with_reduction():
    order = OkRing(7, [4, 1, 1])
    ring = PolyRing(order, ("x", "y"))
    fring = PolyRing(order.field, ("x", "y"))
    rng = random.Random(5)
    for _ in range(25):
        gamma = rng.randrange(2, 4)
        terms = {(2, gamma): order.element([rng.randrange(1, 7), rng.randrange(7)])}
        for j in range(3):
            for k in range(gamma):
                terms[(j, k)] = order.element(
                    [rng.randrange(7), rng.randrange(7)])
        f = ring.from_terms(terms.items())
        red = f.map_coefficients(order.reduce_mod_p, fring)
        lhs = make_monic(f, gamma).map_coefficients(order.reduce_mod_p, fring)
        assert lhs == make_monic(red, gamma)


# -- nondegeneracy certificates


def test_nondegenerate_smooth_weierstrass():
    assert check_nondegenerate(Y**2 - X**3 - X).ok


def test_degenerate_square_binomial():
    cert = check_nondegenerate((Y - X) ** 2)
    assert not cert.ok
    assert any(f["face"] == "edge" for f in cert.failures)


def test_degenerate_rational_torus_node():
    f = Y**2 - 2 * Y - X**3 + 3 * X**2 - 3 * X + 2  # node at (1, 1)
    cert = check_nondegenerate(f)
    assert not cert.ok
    fail = next(f for f in cert.failures if f["face"] == "interior")
    assert fail["x_min_poly"] == [[6], [1]]


def test_degenerate_torus_node_over_a_tower():
    # the node of (y - 1)^2 - x (x - 1)^2 at (1, 1), over F_81 = F_{9^2}
    field = FqField(3, 4)
    x, y = PolyRing(field, ("x", "y")).gens()
    cert = check_nondegenerate((y - 1) ** 2 - x * (x - 1) ** 2)
    assert not cert.ok
    fail = next(f for f in cert.failures if f["face"] == "interior")
    assert fail["x_min_poly"] == [[2, 0, 0, 0], [1, 0, 0, 0]]  # x - 1
    json.dumps(cert.to_json())


def test_degenerate_conjugate_torus_nodes():
    # branches cross where x^2 = 3, a nonsquare, so only over F_49
    f = (Y - 1) * (Y + 2 - X**2)
    cert = check_nondegenerate(f)
    assert not cert.ok
    fail = next(f for f in cert.failures if f["face"] == "interior")
    assert fail["x_min_poly"] == [[4], [0], [1]]


def test_degenerate_singular_component():
    cert = check_nondegenerate((Y - X - 1) ** 2)
    assert not cert.ok
    assert any("component" in f.get("reason", "") for f in cert.failures)


def test_degenerate_pth_power():
    f = X**7 + Y**7 + X**7 * Y**7
    cert = check_nondegenerate(f)
    assert not cert.ok
    assert any("p-th power" in f.get("reason", "") for f in cert.failures)


def test_nondegenerate_guards():
    with pytest.raises(InputError):
        check_nondegenerate(PolyRing(F7, ("x", "y", "z")).one())
    with pytest.raises(ZeroInput):
        check_nondegenerate(R7.zero())


def test_nondegenerate_worked_example():
    assert check_nondegenerate(g6.plane_model()).ok


# -- toric point counts


def test_toric_count_line():
    assert toric_point_count(X + Y + 1) == 8
    r31 = PolyRing(FqField(31), ("x", "y"))
    x31, y31 = r31.gens()
    assert toric_point_count(x31 + y31 + 1) == 32


def _brute_toric_count(f, k):
    field = f.ring.coeff_ring
    L = flat_extension(field, k)
    n = 0
    for a in L.elements():
        if not a:
            continue
        for b in L.elements():
            if not b:
                continue
            if not f.evaluate([a, b], into=L):
                n += 1
    for v0, v1 in polygon.newton_polygon(f).edges():
        cs = [L.element(f.coeff(pt)) for pt in polygon.edge_lattice_points(v0, v1)]
        for t in L.elements():
            if not t:
                continue
            acc, tp = L.zero, L.one
            for c in cs:
                acc = acc + c * tp
                tp = tp * t
            if not acc:
                n += 1
    return n


def test_toric_count_matches_enumeration():
    r5 = PolyRing(FqField(5), ("x", "y"))
    x5, y5 = r5.gens()
    f = y5**2 - x5**3 - x5
    for k in (1, 2, 3):
        assert toric_point_count(f, k) == _brute_toric_count(f, k)
    g = x5**2 * y5 + y5**2 + x5 + 1
    for k in (1, 2):
        assert toric_point_count(g, k) == _brute_toric_count(g, k)


def test_toric_count_over_a_prime_power_base():
    # x -> x^9 is F_3-linear on F_81: it is taken from the images of all
    # four F_3-basis elements of F_81
    f9 = FqField(3, 2)
    x9, y9 = PolyRing(f9, ("x", "y")).gens()
    w = f9.element([0, 1])
    f = y9 ** 2 + x9 * y9 * w - x9 ** 3 - x9 - w
    assert check_nondegenerate(f).ok
    for k in (1, 2):
        assert toric_point_count(f, k) == _brute_toric_count(f, k)


def test_toric_count_worked_example():
    fbar = g6.plane_model()
    assert toric_point_count(fbar) == g6.POINT_COUNT
    assert toric_point_count(fbar, 2) == g6.POINT_COUNT_DEG2


def test_toric_count_guards():
    with pytest.raises(DegenerateModel):
        toric_point_count((Y - X) ** 2)
    with pytest.raises(InputError):
        toric_point_count(X + 1)  # one-dimensional Newton polygon
    big = PolyRing(FqField(4099), ("x", "y"))
    xb, yb = big.gens()
    with pytest.raises(InputError):
        toric_point_count(xb + yb + 1, 2)  # 4099^2 points is past the cap
    with pytest.raises(InputError):
        toric_point_count(X + Y + 1, 0)


# -- trail replay and point transport


def _proj_points(f, L):
    """All points of a plane projective curve over L, by chart sweep."""
    pts = []
    n = f.ring.nvars
    seen = set()
    for chart in range(n):
        for i in range(L.q):
            for j in range(L.q):
                vals = [L.element_at(i), L.element_at(j)]
                coords = vals[:chart] + [L.one] + vals[chart:]
                if any(coords[k] for k in range(chart)):
                    continue  # counted in an earlier chart
                if not f.evaluate(coords, into=L):
                    key = tuple(L.index_of(c) for c in coords)
                    if key not in seen:
                        seen.add(key)
                        pts.append(coords)
    return pts


def test_trail_linear_dehomog_project():
    F13 = FqField(13)
    ring = PolyRing(F13, ("X", "Y", "Z"))
    Xp, Yp, Zp = ring.gens()
    F = Xp**3 * Yp + Yp**3 * Zp + Zp**3 * Xp
    change = LinearChange(F13, [[1, 2, 0], [0, 1, 5], [3, 0, 1]])
    trail = [linear_step(change), dehomog_step("Z"),
             project_step(["X", "Y"], ["x", "y"])]
    got = replay_mod_p([F], trail)
    manual = mpoly.dehomogenize(change.apply(F), 2)
    expect = PolyRing(F13, ("x", "y")).from_terms(manual.terms.items())
    assert got == expect
    defined = 0
    for coords in _proj_points(F, F13):
        img = forward_point(coords, ("X", "Y", "Z"), trail, F13)
        if img is None:
            continue
        defined += 1
        assert not got.evaluate(list(img))
    assert defined > 0


def test_trail_replay_guards():
    with pytest.raises(InputError):
        replay_mod_p([], [])
    with pytest.raises(InputError):
        replay_mod_p([X, Y], [])  # two polynomials left standing
    with pytest.raises(InputError):
        replay_mod_p([X + Y], [{"kind": "fuse"}])
    # kinds no pipeline emits are unknown to replay and transport alike
    for step in ({"kind": "scale", "index": 0, "value": [2]},
                 {"kind": "resultant", "var": "y", "i": 0, "j": 0,
                  "formal_degs": [1, 1]},
                 {"kind": "dixon", "w": "x", "v": "y"},
                 {"kind": "monomial", "mat": [[1, 1], [0, 1]]}):
        with pytest.raises(InputError):
            replay_mod_p([X + Y], [step])
        with pytest.raises(InputError):
            forward_point((1, 2), ("x", "y"), [step], F7)


def _g6_trail():
    fld = g6.field()
    plane = PolyRing(fld, ("x", "y"))
    x, y = plane.gens()
    ring = g6.canonical_ring(fld)
    X1, X2, X3, X4, X5, X6 = ring.gens()
    images = [y, x * y, x * x * y, plane.one(), x, x * x]
    point_map = [(X5, X4), (X1, X4)]
    return [linear_step(LinearChange(fld, g6.SCROLL_MATRIX)),
            substitute_step(images, point_map),
            select_step([0, 1, 2]),
            gcd_step()]


def test_worked_example_scroll_substitution():
    fld = g6.field()
    ring = g6.canonical_ring(fld)
    plane = PolyRing(fld, ("x", "y"))
    x, y = plane.gens()
    images = [y, x * y, x * x * y, plane.one(), x, x * x]
    change = LinearChange(fld, g6.SCROLL_MATRIX)
    for q in g6.quadrics(ring):
        assert substitute(change.apply(q), images).is_zero()
    fbar = g6.plane_model(fld)
    for cubic, cof in zip(g6.cubics(ring), g6.cubic_cofactors(fld)):
        assert substitute(change.apply(cubic), images) == cof * fbar


def test_worked_example_trail_replays_to_plane_model():
    fld = g6.field()
    gens = g6.generators(g6.canonical_ring(fld))
    assert replay_mod_p(gens, _g6_trail()) == g6.plane_model(fld)


# -- lift reports and the check battery


def _weierstrass_report(corrupt=False):
    order = OkRing(31, [28, 0, 1])  # t^2 - 3, irreducible mod 31
    field = order.field  # = F_{31^2}: the ground field the order reduces onto
    r = PolyRing(field, ("x", "y"))
    x, y = r.gens()
    fbar = y**2 - x**3 - 2 * x - 1
    # the input is the projective closure; the trail dehomogenizes it at Z
    Xp, Yp, Zp = PolyRing(field, ("X", "Y", "Z")).gens()
    closure = Yp**2 * Zp - Xp**3 - 2 * Xp * Zp**2 - Zp**3
    lift_ring = PolyRing(order, ("x", "y"))
    f = fbar.map_coefficients(order.naive_lift, lift_ring)
    if corrupt:
        f = f + 1
    verts = polygon.newton_polygon(fbar).vertices
    return LiftReport(order=order, f=f, gamma=2, genus=1,
                      target="weierstrass", target_vertices=verts,
                      baker=True,
                      trail=[dehomog_step("Z"), project_step(["X", "Y"], ["x", "y"])],
                      input_kind="weierstrass", input_gens=[closure], seed=9)


def test_report_checks_pass_on_faithful_lift():
    report = _weierstrass_report()
    checks = run_checks(report, samples=20)
    assert checks["reduction_replay"] == "pass"
    assert checks["gamma_degree"] == "pass"
    assert checks["polygon_containment"] == "pass"
    assert checks["nondegenerate"] == "pass"
    assert checks["baker_attained"] == "pass"
    assert checks["sample_birational"] == "pass"
    assert overall_status(checks) == "pass"
    assert report.checks == checks


def test_report_checks_catch_corruption():
    report = _weierstrass_report(corrupt=True)
    checks = run_checks(report, samples=20)
    assert checks["reduction_replay"] == "fail"
    assert checks["sample_birational"] == "fail"
    assert overall_status(checks) == "fail"


def test_sample_birational_reports_counts():
    out = sample_birational(_weierstrass_report(), samples=12)
    assert out["status"] == "pass"
    assert out["defined"] > 0
    assert out["sampled"] >= out["defined"]
    assert out["failures"] == []
    with pytest.raises(InputError):
        sample_birational(_weierstrass_report(), samples=0)


def test_sample_birational_inverts_each_linear_step_once_per_field(monkeypatch):
    rng = random.Random(12)
    F = random_smooth_quartic(PolyRing(FqField(31), ("X", "Y", "Z")), rng)
    report = lift_genus3(Genus3Input(F), seed=12)
    linear = sum(step["kind"] == "linear" for step in report.trail)
    assert linear >= 1
    calls = []
    inverse = linalg.inverse

    def counted(field, rows):
        calls.append(field)
        return inverse(field, rows)

    monkeypatch.setattr(linalg, "inverse", counted)
    out = sample_birational(report)
    assert out["status"] == "pass" and out["defined"] > 2 * linear
    assert len(calls) <= 2 * linear  # one inverse over F_q, one over F_{q^2}


def test_report_json_roundtrip():
    report = _weierstrass_report()
    run_checks(report, samples=8)
    data = report.to_json()
    wire = json.dumps(data, sort_keys=True)
    again = LiftReport.from_json(json.loads(wire))
    assert again.to_json() == data
    assert again.f == report.f
    assert again.input_gens == report.input_gens
    with pytest.raises(InputError):
        LiftReport.from_json({"schema": "v0"})


def test_g6_report_end_to_end():
    fld = g6.field()
    order = OkRing.for_field(fld)
    gens = g6.generators(g6.canonical_ring(fld))
    fbar = g6.plane_model(fld)
    f = fbar.map_coefficients(order.naive_lift, PolyRing(order, ("x", "y")))
    report = LiftReport(order=order, f=f, gamma=3, genus=6,
                        target="rectangle 4x3",
                        target_vertices=[(0, 0), (4, 0), (4, 3), (0, 3)],
                        baker=True, trail=_g6_trail(),
                        input_kind="canonical_ideal", input_gens=gens, seed=3)
    checks = run_checks(report, samples=6)
    assert overall_status(checks) == "pass"
    assert checks["baker_attained"] == "pass"
    assert checks["sample_birational"] == "pass"


# -- exact smoothness over the algebraic closure


def _proj_ring(q):
    return PolyRing(FqField(*q) if isinstance(q, tuple) else FqField(q),
                    ("X", "Y", "Z"))


def test_smooth_fermat_quartic():
    from gonalift.verify import plane_curve_is_smooth
    R = _proj_ring(13)
    x, y, z = R.gens()
    assert plane_curve_is_smooth(x**4 + y**4 + z**4)


def test_klein_quartic_characteristic_dependence():
    from gonalift.verify import plane_curve_is_smooth
    # x^3 y + y^3 z + z^3 x: smooth except in characteristic 7
    R13 = _proj_ring(13)
    x, y, z = R13.gens()
    assert plane_curve_is_smooth(x**3 * y + y**3 * z + z**3 * x)
    R7b = _proj_ring(7)
    x, y, z = R7b.gens()
    assert not plane_curve_is_smooth(x**3 * y + y**3 * z + z**3 * x)


def test_singular_only_over_extension():
    from gonalift.verify import plane_curve_is_smooth
    # (X^2 - 2Z^2)^2 + Y^3 Z is singular exactly at X = ±sqrt(2), Y = 0;
    # 2 is not a square mod 13, so the singular points are not rational
    R = _proj_ring(13)
    x, y, z = R.gens()
    g = (x * x - z * z * 2) ** 2 + y ** 3 * z
    assert not plane_curve_is_smooth(g)


def test_nodal_quartic_rejected():
    from gonalift.verify import plane_curve_is_smooth
    R = _proj_ring(13)
    x, y, z = R.gens()
    nodal = (y * y * z - x * x * (x + z)) * x  # nodal cubic times a line
    assert not plane_curve_is_smooth(nodal)
    with pytest.raises(InputError):
        plane_curve_is_smooth(R.zero())
    with pytest.raises(InputError):
        plane_curve_is_smooth(x * y + z)  # not homogeneous


def test_common_zero_matches_brute_force_over_extensions():
    from gonalift.verify import common_affine_zero_exists
    F5 = FqField(5)
    A = PolyRing(F5, ("x", "y"))
    rng = random.Random(11)

    def rand_poly():
        f = A.zero()
        for e in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            f = f + A.monomial(e, F5.element(rng.randrange(5)))
        return f

    def brute(polys, k):
        # common zero with both coordinates in F_{5^k}: fix x, gcd in y
        L = flat_extension(F5, k) if k > 1 else F5
        lifted = [p.map_coefficients(lambda c: L.element(c.coeffs[0]),
                                     PolyRing(L, ("x", "y")))
                  for p in polys]
        for i in range(L.q):
            x0 = L.element_at(i)
            slices = [[p.coeff_of(1, j).evaluate([x0, L.zero]) for j in
                       range(p.degree_in(1) + 1)] for p in lifted]
            g = None
            for s in slices:
                while s and not s[-1]:
                    s.pop()
                if not s:
                    continue
                g = s if g is None else upoly.gcd(L, g, s)
            if g is None or (upoly.degree(g) >= 1 and upoly.roots(L, g)):
                return True
            if upoly.degree(g) == 0 and not g[0]:
                return True
        return False

    for _ in range(40):
        polys = [rand_poly(), rand_poly()]
        if any(p.is_zero() for p in polys):
            continue
        got = common_affine_zero_exists(polys)
        # conics meet in degree <= 4, so F_{5^4} already sees every point
        seen = any(brute(polys, k) for k in (1, 2, 3, 4))
        assert got == seen


def _three_chart_smooth(F):
    """Reference decision: the singular locus checked on each affine chart."""
    from gonalift.verify import common_affine_zero_exists
    system = [F] + [d for d in (mpoly.derivative(F, i) for i in range(3)) if d]
    return not any(common_affine_zero_exists([mpoly.dehomogenize(g, chart) for g in system])
                   for chart in (0, 1, 2))


def test_smoothness_matches_three_chart_reference():
    from gonalift.verify import plane_curve_is_smooth
    rng = random.Random(23)
    # (field, forms, top degree): fewer forms where the reference is slow
    cases = [(FqField(3), 80, 4), (FqField(5), 80, 4), (FqField(7), 80, 4),
             (FqField(3, 2), 20, 4), (FqField(5, 2), 15, 4),
             (FqField(3, 4), 8, 3)]
    verdicts = set()
    for field, count, max_degree in cases:
        R = PolyRing(field, ("X", "Y", "Z"))
        for _ in range(count):
            d = rng.randrange(2, max_degree + 1)
            density = rng.choice([1.0, 0.6, 0.3])
            F = R.from_terms(((a, b, d - a - b), field.element_at(rng.randrange(field.q)))
                             for a in range(d + 1) for b in range(d + 1 - a)
                             if rng.random() < density)
            if F.total_degree() < 1:
                continue
            got = plane_curve_is_smooth(F)
            assert got == _three_chart_smooth(F), (field, str(F))
            verdicts.add((str(field), got))
    assert len(verdicts) == 2 * len(cases)  # both verdicts occur over every field


def _singular_at(F, point):
    field = F.ring.coeff_ring
    system = [F] + [mpoly.derivative(F, i) for i in range(3)]
    return not any(g.evaluate([field.element(c) for c in point]) for g in system)


def test_smoothness_sees_singular_points_off_the_affine_chart():
    from gonalift.verify import common_affine_zero_exists, plane_curve_is_smooth
    R = _proj_ring(13)
    x, y, z = R.gens()
    # a node at (1:0:0), the one point with Y = Z = 0
    at_point = x**2 * (y**2 - z**2) + y**4 + z**4
    # the node of W^2 (U^2 - V^2) + U^4 + V^4 moved to (2:1:0)
    on_line = y**2 * ((x - 2 * y) ** 2 - z**2) + (x - 2 * y) ** 4 + z**4
    # singular where X^2 = 2 Y^2, Z = 0: 2 is not a square mod 13
    conjugate_pair = (x**2 - 2 * y**2) ** 2 + z * x * (x**2 - 2 * y**2) + z**4
    # Z = 0 doubled: every point of the line is singular
    double_line = z**2 * (x**2 + y**2 - z**2)
    for F in (at_point, on_line, conjugate_pair, double_line):
        system = [F] + [mpoly.derivative(F, i) for i in range(3)]
        assert not common_affine_zero_exists([mpoly.dehomogenize(g, 2) for g in system if g])
        assert not plane_curve_is_smooth(F)
        assert not _three_chart_smooth(F)
    assert _singular_at(at_point, (1, 0, 0))
    system = [at_point] + [mpoly.derivative(at_point, i) for i in range(3)]
    assert not common_affine_zero_exists([mpoly.dehomogenize(g, 1) for g in system])
    assert _singular_at(on_line, (2, 1, 0)) and not _singular_at(on_line, (1, 0, 0))
    assert not any(_singular_at(conjugate_pair, (a, 1, 0)) for a in range(13))
    assert not _singular_at(conjugate_pair, (1, 0, 0))
    assert all(_singular_at(double_line, (a, 1, 0)) for a in range(13))


def test_smoothness_runs_the_affine_elimination_once(monkeypatch):
    from gonalift import verify
    F = random_smooth_quartic(PolyRing(FqField(127), ("X", "Y", "Z")), random.Random(4))
    calls = []
    common = verify.common_affine_zero_exists

    def counted(polys):
        calls.append(len(polys))
        return common(polys)

    monkeypatch.setattr(verify, "common_affine_zero_exists", counted)
    assert verify.plane_curve_is_smooth(F)
    assert len(calls) == 1
