import json
import random
import time

import pytest

import g6_fixture as g6
from fixtures import poly_gcd, random_smooth_quartic
from gonalift import linalg, mpoly, polygon, upoly, verify
from gonalift.errors import (DegenerateModel, InputError, WrongGammaDegree,
                             ZeroInput)
from gonalift.ff import FqField, flat_extension
from gonalift.lift3 import Genus3Input, lift_genus3
from gonalift.mpoly import LinearChange, PolyRing, substitute
from gonalift.ok import OkRing
from gonalift.verify import (LiftReport, check_nondegenerate, dehomog_step,
                             forward_point, linear_step, make_monic,
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


def test_transport_keeps_the_affine_origin():
    # after a point map or a dehomogenization the coordinates are affine,
    # and (0, 0) is a point there, not an undefined image
    Xp, Yp, Zp = PolyRing(F7, ("X", "Y", "Z")).gens()
    to_plane = substitute_step([X, Y, R7.one()], [(Xp, Zp), (Yp, Zp)])
    change = linear_step(LinearChange(F7, [[1, 2], [3, 4]]))
    for trail in ([to_plane], [dehomog_step("Z"), change]):
        assert forward_point((0, 0, 1), ("X", "Y", "Z"), trail, F7) == (F7.zero, F7.zero)


def test_trail_replay_guards():
    with pytest.raises(InputError):
        replay_mod_p([], [])
    with pytest.raises(InputError):
        replay_mod_p([X, Y], [])  # two polynomials left standing
    with pytest.raises(InputError):
        replay_mod_p([X + Y], [{"kind": "fuse"}])
    # a stored step that is not a step, lacks a field its kind needs, or
    # holds entries that do not parse: non-integer or singular rows, a
    # point map entry that is not a pair of polynomials
    images = [X.to_dict(), Y.to_dict()]
    for step in ({}, [], {"kind": ["gcd"]}, {"kind": "linear"}, {"kind": "dehomog"},
                 {"kind": "select"}, {"kind": "linear", "rows": [["a", "b"], [1, 0]]},
                 {"kind": "linear", "rows": [[1, 1], [1, 1]]},
                 {"kind": "substitute", "images": images, "point_map": [["a"]]},
                 {"kind": "substitute", "images": images,
                  "point_map": [[X.to_dict(), {"vars": ["x", "y"]}], images]}):
        with pytest.raises(InputError):
            replay_mod_p([X + Y], [step])
        with pytest.raises(InputError):
            forward_point((1, 2), ("x", "y"), [step], F7)
    # select indices outside the models standing; transport keeps no models
    for indices in ([3], [-1], ["0"]):
        with pytest.raises(InputError):
            replay_mod_p([X + Y], [select_step(indices)])
    # steps that do not fit the model: unknown variables, a change of the wrong size
    for step in (dehomog_step("z"), project_step(["z"], ["a"]),
                 {"kind": "substitute", "images": [], "point_map": []},
                 {"kind": "linear", "rows": [[1]]}):
        with pytest.raises(InputError):
            replay_mod_p([X + Y], [step])
        with pytest.raises(InputError):
            forward_point((1, 2), ("x", "y"), [step], F7)
    # well-formed entries that do not fit together: a projection with fewer
    # names than kept variables, images in two rings, a point map with one
    # entry for two new variables or in variables other than x, y
    U, V = PolyRing(F7, ("u", "v")).gens()
    one = R7.one()
    for step, match in ((project_step(["x", "y"], ["a"]), "projection keeps"),
                        (substitute_step([X, U]), "one image per variable"),
                        (substitute_step([X, Y], [(X, one)]), "point map"),
                        (substitute_step([X, Y], [(U, one), (V, one)]), "point map")):
        with pytest.raises(InputError, match=match):
            replay_mod_p([X + Y], [step])
        with pytest.raises(InputError, match=match):
            forward_point((1, 2), ("x", "y"), [step], F7)
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
    assert replay_mod_p(gens, g6.trail(fld)) == g6.plane_model(fld)


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


def _quartic_report():
    rng = random.Random(12)
    F = random_smooth_quartic(PolyRing(FqField(31), ("X", "Y", "Z")), rng)
    return lift_genus3(Genus3Input(F), seed=12)


def test_sample_birational_inverts_each_linear_step_once(monkeypatch):
    report = _quartic_report()
    linear = sum(step["kind"] == "linear" for step in report.trail)
    assert linear >= 1
    calls = []
    inverse = linalg.inverse

    def counted(field, rows):
        calls.append(field)
        return inverse(field, rows)

    monkeypatch.setattr(linalg, "inverse", counted)
    for _ in range(2):
        out = sample_birational(report)
        assert out["status"] == "pass" and out["defined"] > 2 * linear
    # over F_q, where the entries lie, whatever field the points are in
    assert calls == [report.field] * (2 * linear)


def test_sample_birational_reads_the_trail_once(monkeypatch):
    report = _quartic_report()
    calls = []
    read = verify._read_trail

    def counted(trail, ring):
        calls.append(trail)
        return read(trail, ring)

    monkeypatch.setattr(verify, "_read_trail", counted)
    out = sample_birational(report)
    assert out["defined"] > 2
    assert calls == [report.trail]


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
    # stored data with a field missing or of the wrong shape
    for bad in ({"schema": "v1"}, [], dict(data, order={"p": 7}), dict(data, order=[7]),
                dict(data, f={"vars": ["x", "y"]}), dict(data, input=[{"terms": []}]),
                dict(data, target={"name": "t", "vertices": [[0]]})):
        with pytest.raises(InputError):
            LiftReport.from_json(bad)
    with pytest.raises(InputError):
        mpoly.from_dict({"vars": ["x"]}, F7)
    # an order whose p is 0 is no order
    with pytest.raises(InputError):
        LiftReport.from_json(dict(data, order=dict(data["order"], p=0)))
    for terms in ([{"e": [1]}], [{"e": [1], "c": "z"}]):
        with pytest.raises(InputError):
            mpoly.from_dict({"vars": ["x"], "terms": terms}, F7)


def test_stored_target_must_be_the_tables():
    rng = random.Random(5)
    F = random_smooth_quartic(PolyRing(FqField(31), ("X", "Y", "Z")), rng)
    data = lift_genus3(Genus3Input(F)).to_json()
    name = data["target"]["name"]
    assert LiftReport.from_json(data).target_vertices == polygon.target(name).vertices
    # widened under its own name, it would pass polygon_containment
    wide = dict(data, target={"name": name, "vertices": [[0, 0], [9, 0], [0, 9]]})
    with pytest.raises(InputError):
        LiftReport.from_json(wide)
    # a name outside the table keeps the vertices it stores
    again = LiftReport.from_json(g6.report().to_json())
    assert again.target == "rectangle 4x3"
    assert again.target_vertices == ((0, 0), (4, 0), (4, 3), (0, 3))


def test_stored_terms_above_the_degree_bound_are_refused():
    # a term of x-degree 10^6 in f or in the input kept run_checks running
    # for minutes, and one in a stored substitute step's image or point map
    # (x -> x, y -> y, with x sent to x^(10^6) + x) for seconds; from_json
    # now refuses each before any work
    F = random_smooth_quartic(PolyRing(FqField(31), ("X", "Y", "Z")), random.Random(5))
    data = lift_genus3(Genus3Input(F)).to_json()
    huge = {"e": [10 ** 6, 0], "c": [1, 0]}
    bad_f = dict(data, f=dict(data["f"], terms=data["f"]["terms"] + [huge]))
    quartic = data["input"][0]
    bad_input = dict(data, input=[dict(quartic, terms=quartic["terms"] + [
        {"e": [10 ** 6, 0, 0], "c": [1]}])])

    def poly(*exponents):
        return {"vars": ["x", "y"], "terms": [{"e": list(e), "c": [1]} for e in exponents]}

    one, x, y, big = poly((0, 0)), poly((1, 0)), poly((0, 1)), poly((10 ** 6, 0), (1, 0))
    identity = {"kind": "substitute", "images": [x, y], "point_map": [[x, one], [y, one]]}
    assert overall_status(run_checks(LiftReport.from_json(
        dict(data, trail=data["trail"] + [identity])), samples=4)) == "pass"
    bad_steps = [dict(identity, point_map=[[big, one], [y, one]]),
                 dict(identity, point_map=[[x, one], [y, big]]),
                 dict(identity, images=[big, y])]
    for bad in [bad_f, bad_input] + [dict(data, trail=data["trail"] + [b]) for b in bad_steps]:
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="degree above 4"):
            LiftReport.from_json(bad)
        assert time.perf_counter() - t0 < 1
    with pytest.raises(InputError):
        LiftReport.from_json(dict(data, trail=data["trail"] + [{"kind": "substitute"}]))
    # the bound is the kind's, 4 for a quartic, else the target's largest
    # degree, 7 for the g6 report, whose trail polynomials reach degree 3
    assert LiftReport.from_json(data).f.total_degree() == 4
    g6_data = g6.report().to_json()
    assert LiftReport.from_json(g6_data).target == "rectangle 4x3"
    with pytest.raises(InputError, match="degree above 7"):
        LiftReport.from_json(dict(g6_data, f=dict(g6_data["f"], terms=g6_data["f"]["terms"] + [
            {"e": [4, 4], "c": [1]}])))
    step = next(s for s in g6_data["trail"] if s["kind"] == "substitute")
    image = step["images"][0]
    image = dict(image, terms=image["terms"] + [
        {"e": [8] + [0] * (len(image["vars"]) - 1), "c": image["terms"][0]["c"]}])
    bad = dict(step, images=[image] + step["images"][1:])
    with pytest.raises(InputError, match="degree above 7"):
        LiftReport.from_json(dict(g6_data, trail=[bad if s is step else s
                                                  for s in g6_data["trail"]]))


def test_sample_birational_rejects_a_stored_seed_that_seeds_nothing():
    data = _weierstrass_report().to_json()
    for seed in ([1, 2], {"s": 1}):
        report = LiftReport.from_json(dict(data, seed=seed))
        with pytest.raises(InputError):
            sample_birational(report, samples=4)
        with pytest.raises(InputError):
            run_checks(report, samples=4)


def test_g6_report_end_to_end():
    checks = run_checks(g6.report(), samples=6)
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
    rng = random.Random(11)

    def rand_poly(A, degree):
        field = A.coeff_ring
        return A.from_terms(((i, t - i), field.element_at(rng.randrange(field.q)))
                            for t in range(degree + 1) for i in range(t, -1, -1))

    def brute(polys, k):
        # common zero with both coordinates in F_{q^k}: fix x, gcd in y
        L = flat_extension(polys[0].ring.coeff_ring, k)
        lifted = [p.map_coefficients(L.element, PolyRing(L, ("x", "y"))) for p in polys]
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
                g = s if g is None else poly_gcd(L, g, s)
            if g is None or (len(upoly.trim(g)) > 1 and upoly.roots(L, g)):
                return True
            if len(upoly.trim(g)) == 1 and not g[0]:
                return True
        return False

    # two conics over F_5 meet in degree <= 4, so F_{5^4} already sees every
    # point; a conic and a line over F_9 meet in degree <= 2, seen by F_81
    A5, A9 = PolyRing(FqField(5), ("x", "y")), PolyRing(FqField(3, 2), ("x", "y"))
    cases = [(A5, (2, 2), (1, 2, 3, 4))] * 40 + [(A9, (2, 1), (1, 2))] * 40
    conjugate = 0
    for A, degrees, ks in cases:
        polys = [rand_poly(A, d) for d in degrees]
        if any(p.is_zero() for p in polys):
            continue
        got = common_affine_zero_exists(polys)
        assert got == any(brute(polys, k) for k in ks)
        conjugate += A is A9 and got and not brute(polys, 1)
    assert conjugate  # a degree-2 eliminant factor over F_9 meets the line


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


def test_common_zero_decisions_build_no_field(monkeypatch):
    # each irreducible factor m of an eliminant is handled over F_q[x]/(m)
    # on F_q's own kernel: no element of any other field is made, so no
    # field is built (a new field makes its zero and one)
    from gonalift.ff import FqElement
    from gonalift.verify import plane_curve_is_smooth
    F127 = FqField(127)
    F = random_smooth_quartic(PolyRing(F127, ("X", "Y", "Z")), random.Random(3))
    fields = set()
    init = FqElement.__init__

    def recorded(self, field, coeffs):
        fields.add(field)
        init(self, field, coeffs)

    monkeypatch.setattr(FqElement, "__init__", recorded)
    assert plane_curve_is_smooth(F)
    assert not check_nondegenerate((Y - 1) * (Y + 2 - X**2)).ok  # x^2 = 3 over F_7
    assert fields == {F127, F7}


def test_eliminant_factors_share_one_set_of_slices(monkeypatch):
    # the system's slice rows are built once, into one PlaneSlices: they give
    # the eliminant, here a gcd of two resultants with three irreducible
    # factors, and every factor reduces those same rows
    factors, rows_of, made, used = [], [], [], []
    factor, slice_rows = upoly.factor, mpoly.slice_rows
    init, eliminant, gcd_mod = (mpoly.PlaneSlices.__init__, mpoly.PlaneSlices.eliminant,
                                mpoly.PlaneSlices.gcd_mod)

    def counted_factor(field, a):
        out = factor(field, a)
        factors.append(out[1])
        return out

    def counted_rows(f, u, v):
        rows_of.append(f)
        return slice_rows(f, u, v)

    monkeypatch.setattr(upoly, "factor", counted_factor)
    monkeypatch.setattr(mpoly, "slice_rows", counted_rows)
    monkeypatch.setattr(mpoly.PlaneSlices, "__init__",
                        lambda self, *args: made.append(self) or init(self, *args))
    monkeypatch.setattr(mpoly.PlaneSlices, "eliminant",
                        lambda self: used.append(self) or eliminant(self))
    monkeypatch.setattr(mpoly.PlaneSlices, "gcd_mod",
                        lambda self, m: used.append(self) or gcd_mod(self, m))
    f = Y**3 + 2 * X**3 + 3 * X * Y + 4
    assert check_nondegenerate(f).ok
    assert len(factors) == 1 and len(factors[0]) == 3
    assert rows_of == [f, mpoly.derivative(f, 0), mpoly.derivative(f, 1)]
    assert len(made) == 1 and used == made * 4


def elimination_verdicts():
    """(group, verdicts) of 8 random and 8 sparse quartics per field, 24 nodal ones and 3 more.

    The verdicts are ``plane_curve_is_smooth`` and ``check_nondegenerate``
    on the form dehomogenised at Z, as JSON; null for a form of degree 0.
    """
    from fixtures import random_quartic

    def sparse(R, rng):
        field = R.coeff_ring
        return R.from_terms(((a, b, 4 - a - b), field.element_at(rng.randrange(1, field.q)))
                            for a in range(5) for b in range(5 - a) if rng.random() < 0.6)

    forms = []
    for p in (3, 5, 7, 13, 31, 127):
        R = PolyRing(FqField(p), ("X", "Y", "Z"))
        rng = random.Random(p)
        forms += [(f"F_{p}", random_quartic(R, rng)) for _ in range(8)]
        forms += [(f"F_{p}", sparse(R, rng)) for _ in range(8)]
    # the nodal F_31 quartics: no Z^4, XZ^3 or YZ^3 term, so singular at (0:0:1)
    R31, rng = PolyRing(FqField(31), ("X", "Y", "Z")), random.Random(3)
    nodal = [random_quartic(R31, rng, {(0, 0, 4): 0, (1, 0, 3): 0, (0, 1, 3): 0})
             for _ in range(12)]
    # and with the node moved to (1:1:1), in the torus, where it is a witness
    Xp, Yp, Zp = R31.gens()
    nodal += [substitute(F, [Xp - Zp, Yp - Zp, Zp]) for F in nodal]
    forms += [("nodal", F) for F in nodal]
    # singular along a whole component: a squared factor free of Y leaves
    # both resultants nonzero, and one in Y makes both vanish
    X7, Y7, Z7 = PolyRing(F7, ("X", "Y", "Z")).gens()
    forms += [("component", (X7 - Z7) ** 2 * (Y7**2 + X7 * Z7 + Z7**2)),
              ("component", (X7**2 - 3 * Z7**2) ** 2 * (Y7**3 + X7 * Y7 * Z7 + Z7**3)),
              ("component", (Y7 - X7 - Z7) ** 2 * (X7 + Y7 + Z7))]
    for group, F in forms:
        yield group, None if F.total_degree() < 1 else [
            verify.plane_curve_is_smooth(F),
            check_nondegenerate(mpoly.dehomogenize(F, 2)).to_json()]


def elimination_digests(verdicts):
    """Per group, the SHA-256 of each form's verdicts, as ``elimination_digests.json`` holds.

    Written by ``PYTHONPATH=src:tests python3 -c "import json, test_verify as t;
    print(json.dumps(t.elimination_digests(t.elimination_verdicts()), indent=1))"
    > tests/elimination_digests.json``.
    """
    import hashlib
    out = {}
    for group, v in verdicts:
        out.setdefault(group, []).append(
            hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest())
    return out


def test_elimination_verdicts_match_their_digests(monkeypatch):
    # the smoothness and nondegeneracy verdicts of forms over six fields and
    # of nodal quartics, pinned before the two proofs shared one eliminant;
    # the run reaches the resultant eliminant, the bivariate gcd of a system
    # whose resultants both vanish, and Bareiss's determinant over small F_p
    from pathlib import Path
    seen = {"eliminant": 0, "gcd": 0, "bareiss": 0}
    eliminant, bgcd, det = mpoly.PlaneSlices.eliminant, mpoly.bivariate_gcd, upoly.kernel_det

    def counted_eliminant(self):
        e = eliminant(self)
        seen["eliminant"] += e is not None
        return e

    def counted_gcd(fs):
        seen["gcd"] += 1
        return bgcd(fs)

    def counted_det(K, m):
        seen["bareiss"] += any(len(c) > 1 for row in m for c in row)
        return det(K, m)

    monkeypatch.setattr(mpoly.PlaneSlices, "eliminant", counted_eliminant)
    monkeypatch.setattr(mpoly, "bivariate_gcd", counted_gcd)
    monkeypatch.setattr(upoly, "kernel_det", counted_det)
    verdicts = list(elimination_verdicts())
    got = elimination_digests(verdicts)
    want = json.loads((Path(__file__).parent / "elimination_digests.json").read_text())
    assert [(g, len(ds)) for g, ds in got.items()] == \
        [(f"F_{p}", 16) for p in (3, 5, 7, 13, 31, 127)] + [("nodal", 24), ("component", 3)]
    for group, digests in got.items():
        moved = [i for i, (a, b) in enumerate(zip(want[group], digests)) if a != b]
        assert not moved, f"{group}: the verdicts of forms {moved} changed"
    assert all(seen.values()), seen
    # every nodal form is singular, and the 12 with the node in the torus
    # fail nondegeneracy on the interior face
    nodal = [v for group, v in verdicts if group == "nodal"]
    assert not any(smooth for smooth, _ in nodal)
    assert all(any(w["face"] == "interior" for w in nondeg["failures"])
               for _, nondeg in nodal[12:])


def test_singular_along_a_whole_component():
    # a squared factor makes the face and both derivatives vanish along a
    # curve: the first two have nonzero resultants, so the component shows
    # as a fibre whose slices all vanish; the last, a factor in y, makes both
    # resultants vanish and is found by the bivariate gcd
    from gonalift.verify import common_affine_zero_exists
    cases = [((X - 1) ** 2 * (Y**2 + X + 1), "x + 6"),
             ((X**2 - 3) ** 2 * (Y**3 + X * Y + 1), "x^2 + 4"),
             ((Y - X - 1) ** 2 * (X + Y + 1), "x + 6*y + 1")]
    for f, witness in cases:
        failures = check_nondegenerate(f).failures
        assert [w for w in failures if w["face"] == "interior"] == [
            {"face": "interior", "reason": "singular along a whole component",
             "witness": witness}]
        assert common_affine_zero_exists([f, mpoly.derivative(f, 0), mpoly.derivative(f, 1)])
