import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from gonalift import lift3, pointsearch, polygon, verify
from gonalift.errors import InputError, UnsupportedInput, VerticalTangent
from gonalift.ff import FqField
from gonalift.lift3 import (Genus3Input, ROUTE_TARGETS, classify_gonality3,
                            lift_genus3)
from gonalift.mpoly import PolyRing, from_dict
from gonalift.ok import OkRing
from gonalift.pointsearch import ProjPoint, points_on_plane_curve
from gonalift.verify import make_monic, overall_status, run_checks

F13 = FqField(13)
F31 = FqField(31)
R13 = PolyRing(F13, ("X", "Y", "Z"))
R31 = PolyRing(F31, ("X", "Y", "Z"))


def fermat(ring):
    x, y, z = ring.gens()
    return x ** 4 + y ** 4 + z ** 4


def pointless_f3():
    return Genus3Input(from_dict(fixtures.POINTLESS_QUARTIC_F3, FqField(3)))


# -- input validation


def test_input_validation():
    x, y, z = R13.gens()
    with pytest.raises(InputError):
        Genus3Input(x ** 4 + y ** 3)  # not homogeneous
    with pytest.raises(InputError):
        Genus3Input(x ** 3 + y ** 3 + z ** 3)  # wrong degree
    with pytest.raises(InputError):
        Genus3Input(R13.zero())
    with pytest.raises(InputError):
        Genus3Input((y * y * z - x ** 3) * x)  # singular
    bad_names = PolyRing(F13, ("A", "B", "C"))
    a, b, c = bad_names.gens()
    with pytest.raises(InputError):
        Genus3Input(a ** 4 + b ** 4 + c ** 4)


def test_check_flag_skips_smoothness():
    x, y, z = R13.gens()
    nodal = y * y * z * z - x * x * (x + z) * z  # singular but right degree
    C = Genus3Input(nodal, check=False)
    assert C.field is F13


# -- classification


def test_classify_fermat_has_point():
    got = classify_gonality3(Genus3Input(fermat(R13)))
    assert got["gamma"] == 3
    assert not fermat(R13).evaluate(list(got["witness"].coords))


def test_classify_prefers_coordinate_point():
    x, y, z = R31.gens()
    # (0:1:0) lies on the curve iff the Y^4 coefficient vanishes
    F = x ** 4 + z ** 4 + x * y ** 3 + y * z ** 3
    got = classify_gonality3(Genus3Input(F))
    assert got["method"] == "coordinate point"
    assert got["witness"] == ProjPoint(F31, [0, 1, 0])


def test_classify_pointless_over_f3():
    for rng in (None, random.Random(8)):
        got = classify_gonality3(pointless_f3(), rng=rng)
        assert got == {"gamma": 4, "witness": None, "method": "exhaustive scan",
                       "scanned": 13}


def test_classify_random_quartics_are_trigonal():
    # over a field beyond the pointless range every smooth quartic has
    # gonality 3
    rng = random.Random(2)
    for _ in range(5):
        F = fixtures.random_smooth_quartic(R31, rng)
        got = classify_gonality3(Genus3Input(F, check=False))
        assert got["gamma"] == 3
        assert not F.evaluate(list(got["witness"].coords))


# -- lifting: the default ladder


MONIC_X_BOUNDS = {"g3_point": 6, "g3_tangent": 4, "g3_two_point": 3,
                  "g3_flex": 3, "g3_bitangent": 3, "g3_hyperflex": 4}


def _full_check(rep, expect_gamma=3):
    checks = run_checks(rep, samples=12)
    assert overall_status(checks) == "pass", checks
    assert rep.f.degree_in(1) == rep.gamma == expect_gamma
    hull = polygon.newton_polygon(rep.f)
    assert len(hull.interior_points()) == 3
    assert rep.target_polygon().contains(hull)
    monic = make_monic(rep.f, rep.gamma)
    assert monic.degree_in(0) <= MONIC_X_BOUNDS[rep.target]
    return checks


def test_lift_random_quartics_default_route():
    rng = random.Random(5)
    for trial in range(6):
        F = fixtures.random_smooth_quartic(R31, rng)
        rep = lift_genus3(Genus3Input(F, check=False), seed=trial)
        assert rep.target in ("g3_two_point", "g3_tangent")
        if rep.target == "g3_tangent":
            assert any("fell back" in n for n in rep.notes)
        _full_check(rep)


def test_lift_explicit_point_and_tangent_routes():
    rng = random.Random(9)
    F = fixtures.random_smooth_quartic(R31, rng)
    C = Genus3Input(F, check=False)
    for route in ("none", "tangent"):
        rep = lift_genus3(C, optimize=route, seed=1)
        assert rep.target == ROUTE_TARGETS[route]
        _full_check(rep)


def test_lift_reduction_is_exact():
    rng = random.Random(17)
    F = fixtures.random_smooth_quartic(R31, rng)
    rep = lift_genus3(Genus3Input(F, check=False), seed=0)
    red = rep.reduction()
    replayed = verify.replay_mod_p(rep.input_gens, rep.trail)
    assert red == replayed
    # naive lifting keeps every coefficient in [0, p)
    for c in rep.f.terms.values():
        assert all(0 <= int(a) < 31 for a in c.coeffs)


def test_lift_deterministic_reports():
    rng = random.Random(23)
    F = fixtures.random_smooth_quartic(R31, rng)
    C = Genus3Input(F, check=False)
    a = lift_genus3(C, seed=77)
    b = lift_genus3(C, seed=77)
    run_checks(a, samples=10, rng=random.Random(1))
    run_checks(b, samples=10, rng=random.Random(1))
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)
    c = lift_genus3(C, seed=78)
    assert c.to_json()["seed"] == 78
    # the default seed is a fixed one, so a default lift reproduces too
    assert lift_genus3(C).to_json() == lift_genus3(C, seed=0).to_json()


def test_lift_respects_supplied_order():
    rng = random.Random(31)
    F = fixtures.random_smooth_quartic(R31, rng)
    order = OkRing.for_field(F31)
    rep = lift_genus3(Genus3Input(F, check=False), order=order, seed=2)
    assert rep.order is order
    with pytest.raises(InputError):
        lift_genus3(Genus3Input(F, check=False), order=OkRing.for_field(F13))


def test_lift_rejects_unknown_route():
    with pytest.raises(InputError):
        lift_genus3(Genus3Input(fermat(R13)), optimize="magic")


# -- the pointless branch


def test_lift_pointless_quartic():
    rep = lift_genus3(pointless_f3(), seed=4)
    assert rep.gamma == 4
    assert rep.target == "g3_pointless"
    assert rep.f.degree_in(1) == 4
    assert any("no rational point" in n for n in rep.notes)
    checks = run_checks(rep, samples=12)
    assert overall_status(checks) == "pass", checks
    hull = polygon.newton_polygon(rep.f)
    assert len(hull.interior_points()) == 3


# -- base fields F_{p^n} with n > 1


@settings(max_examples=6, deadline=None, derandomize=True)
@given(pn=st.sampled_from([(3, 2), (5, 2), (3, 3)]), seed=st.integers(0, 2 ** 16))
def test_lift_over_prime_power_fields(pn, seed):
    ring = PolyRing(FqField(*pn), ("X", "Y", "Z"))
    F = fixtures.random_smooth_quartic(ring, random.Random(seed))
    C = Genus3Input(F, check=False)
    rep = lift_genus3(C, seed=seed)
    assert rep.gamma == classify_gonality3(C, rng=random.Random(seed))["gamma"]
    checks = run_checks(rep)
    assert overall_status(checks) == "pass", checks
    if checks["nondegenerate"] == "pass":
        assert verify.toric_point_count(rep.reduction(), 1) == \
            len(points_on_plane_curve(F))


# -- special-configuration routes


@pytest.mark.parametrize("route,pins", fixtures.SPECIAL_PINS.items())
def test_lift_special_routes(route, pins):
    C = Genus3Input(fixtures.scrambled_special(F31, pins, 101), check=False)
    rep = lift_genus3(C, optimize=route, seed=3)
    # a route that fell back would carry the default route's target
    assert rep.target == ROUTE_TARGETS[route]
    _full_check(rep)


def test_special_route_fallback_note():
    # a curve without rational hyperflexes degrades to the default route
    rep = fixtures.hyperflex_fallback()
    assert rep.target in ("g3_two_point", "g3_tangent")


def test_special_route_large_field_refused():
    F = fermat(PolyRing(FqField(65537), ("X", "Y", "Z")))
    C = Genus3Input(F, check=False)
    with pytest.raises(UnsupportedInput):
        lift_genus3(C, optimize="flex", seed=0)


# -- failure modes of the placement machinery


def test_two_point_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(lift3, "ATTEMPTS", 0)
    with pytest.raises(VerticalTangent):
        # the tangent route it falls back to also runs out of attempts
        lift_genus3(Genus3Input(fermat(R13)), optimize="two_point")


def test_vertical_tangent_on_corrupt_input():
    from gonalift.lift3 import _route_model
    x, y, z = R13.gens()
    # nodal at (0:1:0): no Y^4, Y^3*X or Y^3*Z terms
    F = x ** 4 + z ** 4 + x * x * y * y + x * y * y * z
    with pytest.raises(VerticalTangent):
        _route_model(F, "none", ProjPoint(F13, [0, 1, 0]))


def test_lift_retries_past_bad_points():
    # same corrupt curve: the pool contains the node, but other points
    # still produce a valid model
    x, y, z = R13.gens()
    F = x ** 4 + z ** 4 + x * x * y * y + x * y * y * z
    rep = lift_genus3(Genus3Input(F, check=False), optimize="none", seed=6)
    assert rep.f.degree_in(1) == 3
    assert rep.target == "g3_point"


# -- route polygons from forced zeros


def test_route_polygons_all_have_genus_interior():
    for name in list(ROUTE_TARGETS.values()) + ["g3_pointless"]:
        assert len(polygon.target(name).interior_points()) == 3, name


def test_route_polygons_nest_along_the_ladder():
    pointless = polygon.target("g3_pointless")
    point = polygon.target("g3_point")
    tangent = polygon.target("g3_tangent")
    two_point = polygon.target("g3_two_point")
    hyperflex = polygon.target("g3_hyperflex")
    assert pointless.contains(point)
    assert point.contains(tangent)
    assert tangent.contains(two_point)
    assert tangent.contains(hyperflex)


def _route_models(field, rng):
    """(route, model) of every route: the point routes on two seeded quartics,
    the special ones on each pinned quartic, placed from its scrambled form."""
    ring = PolyRing(field, ("X", "Y", "Z"))
    for _ in range(2):
        F = fixtures.random_smooth_quartic(ring, rng)
        points = points_on_plane_curve(F)
        for route in ("none", "tangent"):
            yield route, lift3._route_model(F, route, points[0])[0]
        for p in points:
            _mult, others = pointsearch.tangent_contact(F, p)
            if others:
                second = lift3._second_points(others)[0]
                yield "two_point", lift3._route_model(F, "two_point", p, second)[0]
                break
    for route, pins in fixtures.SPECIAL_PINS.items():
        F0 = fixtures.random_smooth_quartic(ring, rng, pins)
        change = fixtures.random_scramble(field, rng)
        p = fixtures.transported(change, [field.zero, field.one, field.zero])
        second = None if route == "hyperflex" else \
            fixtures.transported(change, [field.one, field.zero, field.zero])
        yield route, lift3._route_model(change.apply(F0), route, p, second)[0]


@pytest.mark.parametrize("field", [F31, FqField(37), FqField(5, 2)], ids=str)
def test_route_models_keep_their_forced_zeros(field):
    seen = set()
    for route, fbar in _route_models(field, random.Random(20260825)):
        name = ROUTE_TARGETS[route]
        seen.add(route)
        assert not set(polygon.FORCED_ZEROS[name]) & set(fbar.terms), (route, fbar)
        assert len(polygon.target(name).interior_points()) == 3
        assert make_monic(fbar, 3).degree_in(0) <= MONIC_X_BOUNDS[name], (route, fbar)
    assert seen == set(ROUTE_TARGETS)


def test_lift_shares_the_curve_field():
    F = fixtures.random_smooth_quartic(R31, random.Random(3))
    C = Genus3Input(F, check=False)
    rep = lift_genus3(C)
    assert rep.order.field is C.field
    assert rep.reduction().ring.coeff_ring is C.field
