import random

import pytest

from gonalift.ff import FqField
from gonalift.ok import OkRing


def test_construction_requires_inert_p():
    OkRing(7, [1, 0, 1])       # t^2+1 irreducible mod 7
    with pytest.raises(ValueError):
        OkRing(5, [1, 0, 1])   # t^2+1 = (t+2)(t+3) mod 5
    with pytest.raises(ValueError):
        OkRing(7, [1, 0, 2])   # not monic


def test_for_field_roundtrip():
    field = FqField(7, 2)
    ring = OkRing.for_field(field)
    assert ring.field == field
    assert ring.m == field.modulus


def test_reduce_examples():
    ring = OkRing(7, [1, 0, 1])
    assert ring.reduce_mod_p(ring.zero) == ring.field.zero
    assert ring.reduce_mod_p(ring.element(7)) == ring.field.zero
    x = ring.element([7 + 2, 3])
    assert ring.reduce_mod_p(x) == ring.field.element([2, 3])


def test_reduce_is_ring_homomorphism():
    ring = OkRing(11, [4, 1, 1])
    rng = random.Random(3)
    for _ in range(60):
        x = ring.element([rng.randrange(-500, 500) for _ in range(2)])
        y = ring.element([rng.randrange(-500, 500) for _ in range(2)])
        assert ring.reduce_mod_p(x + y) == ring.reduce_mod_p(x) + ring.reduce_mod_p(y)
        assert ring.reduce_mod_p(x * y) == ring.reduce_mod_p(x) * ring.reduce_mod_p(y)
        assert ring.reduce_mod_p(x - y) == ring.reduce_mod_p(x) - ring.reduce_mod_p(y)


def test_mul_reduces_mod_m():
    # in Z[t]/(t^2+1): t*t = -1
    ring = OkRing(7, [1, 0, 1])
    t = ring.element([0, 1])
    assert t * t == ring.element(-1)
    assert (t + 1) * (t - 1) == ring.element(-2)
    assert t ** 4 == ring.one


def test_naive_lift_is_section():
    for field in (FqField(7), FqField(3, 2), FqField(11, 2)):
        ring = OkRing.for_field(field)
        for xbar in field.elements():
            x = ring.naive_lift(xbar)
            assert all(0 <= c < field.p for c in x.coeffs)
            assert ring.reduce_mod_p(x) == xbar


def test_no_division_in_ok():
    ring = OkRing(7, [0, 1])
    x = ring.element(3)
    with pytest.raises(TypeError):
        x / x
    with pytest.raises(TypeError):
        x ** -1
