import random

import pytest
from hypothesis import given, settings, strategies as st

from gonalift import upoly
from gonalift.ff import FqField, chi2, flat_extension, is_prime, residue_field, sqrt


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 1009}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


def test_field_construction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FqField(2)
    with pytest.raises(ValueError):
        FqField(9)
    with pytest.raises(ValueError):
        FqField(3, 0)
    with pytest.raises(ValueError):
        FqField(3, 2, [1, 0, 2])   # not monic
    with pytest.raises(ValueError):
        FqField(3, 2, [2, 0, 1])   # t^2+2 = (t+1)(t+2) mod 3
    FqField(3, 2, [1, 0, 1])       # t^2+1 is irreducible mod 3


def test_default_modulus_is_canonical():
    k1 = FqField(3, 2)
    k2 = FqField(3, 2)
    assert k1.modulus == k2.modulus == (1, 0, 1)
    k5 = FqField(5, 3)
    assert k5.modulus[3] == 1
    assert k1 == k2 and hash(k1) == hash(k2)


def test_element_roundtrip_enumeration():
    for field in (FqField(7), FqField(3, 2), FqField(5, 2)):
        seen = set()
        for i in range(field.q):
            e = field.element_at(i)
            assert field.index_of(e) == i
            seen.add(e)
        assert len(seen) == field.q
        assert field.element_at(0) == field.zero


def test_prime_field_arithmetic():
    f7 = FqField(7)
    a, b = f7.element(3), f7.element(5)
    assert a + b == f7.element(1)
    assert a * b == f7.element(1)
    assert a - b == f7.element(-2)
    assert (a / b) * b == a
    assert a ** 6 == f7.one
    assert -a == f7.element(4)
    assert a + 4 == f7.zero
    assert 2 * a == f7.element(6)
    with pytest.raises(ZeroDivisionError):
        f7.zero.inverse()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_field_axioms_f49(i, j, k):
    field = FqField(7, 2)
    a, b, c = field.element_at(i), field.element_at(j), field.element_at(k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a


def test_chi2_multiplicative_exhaustive():
    for field in (FqField(7), FqField(11), FqField(3, 2), FqField(5, 2), FqField(11, 2)):
        values = list(field.elements())
        squares = {a * a for a in values if a}
        for a in values:
            expected = 0 if not a else (1 if a in squares else -1)
            assert chi2(a) == expected
        for a in values[: 40]:
            for b in values[: 40]:
                assert chi2(a * b) == chi2(a) * chi2(b)


def test_chi2_examples():
    f7 = FqField(7)
    assert chi2(f7.one) == 1
    assert chi2(f7.zero) == 0
    assert chi2(f7.element(3)) == -1
    assert chi2(f7.element(2)) == 1


def test_sqrt_exhaustive_small_fields():
    for field in (FqField(3), FqField(5), FqField(7), FqField(13), FqField(17),
                  FqField(41), FqField(3, 2), FqField(5, 2), FqField(3, 4),
                  FqField(11, 2)):
        for a in field.elements():
            r = sqrt(a)
            if chi2(a) == -1:
                assert r is None
            else:
                assert r is not None and r * r == a


def test_sqrt_examples():
    f7 = FqField(7)
    assert sqrt(f7.zero) == f7.zero
    r = sqrt(f7.element(2))
    assert r in (f7.element(3), f7.element(4))
    assert sqrt(f7.element(3)) is None


def test_sqrt_deterministic():
    field = FqField(1009)
    a = field.element(519)
    assert sqrt(a) == sqrt(a)


def test_extension_tower():
    f7 = FqField(7)
    f49 = flat_extension(f7, 2)
    assert f49.q == 49
    a = f49.element([3, 2])
    b = f49.element([1, 5])
    assert (a + b) - b == a
    assert (a * b) / b == a
    # base-field coercion in mixed arithmetic
    c = f7.element(4)
    assert a * c == a * f49.embed(c)
    assert f49.embed(c) ** 48 == f49.one


def test_frobenius_properties():
    f5 = FqField(5)
    f25 = flat_extension(f5, 2)
    rng = random.Random(7)
    for _ in range(25):
        x = f25.random_element(rng)
        y = f25.random_element(rng)
        assert f25.frobenius(x + y) == f25.frobenius(x) + f25.frobenius(y)
        assert f25.frobenius(x * y) == f25.frobenius(x) * f25.frobenius(y)
        assert f25.frobenius(f25.frobenius(x)) == x
    for a in f5.elements():
        assert f25.frobenius(f25.embed(a)) == f25.embed(a)


def test_frobenius_swaps_roots_of_quadratic():
    f7 = FqField(7)
    f49 = flat_extension(f7, 2)
    # t^2 - 3 is irreducible over F_7 (3 is a non-residue)
    r = f49.sqrt(f49.embed(f7.element(3)))
    assert r is not None and r * r == f49.embed(f7.element(3))
    assert f49.frobenius(r) == -r


def test_extension_of_extension():
    f9 = FqField(3, 2)
    f81 = flat_extension(f9, 2)
    assert f81.q == 81 and f81 == FqField(3, 4)
    x = f81.element_at(17)
    assert x ** 81 == x
    # x -> x^9 fixes exactly the image of F_9
    images = {f81.embed(b) for b in f9.elements()}
    assert {y for y in f81.elements() if y ** 9 == y} == images


def test_extension_chi2_sqrt():
    f3 = FqField(3)
    f9 = flat_extension(f3, 2)
    squares = {a * a for a in f9.elements() if a}
    for a in f9.elements():
        expected = 0 if not a else (1 if a in squares else -1)
        assert f9.chi2(a) == expected
        r = f9.sqrt(a)
        if expected >= 0:
            assert r * r == a


def test_element_hash_and_equality():
    f7a = FqField(7)
    f7b = FqField(7)
    assert f7a.element(3) == f7b.element(3)
    assert hash(f7a.element(3)) == hash(f7b.element(3))
    assert f7a.element(3) != f7a.element(4)
    assert f7a.element(3) == 3
    assert len({f7a.element(1), f7b.element(1)}) == 1


def test_equal_elements_of_a_field_and_its_extension_hash_alike():
    f7, f49 = FqField(7), FqField(7, 2)
    pairs = [(f7.element(4), f49.element(4)), (f7.zero, f49.zero)]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        d = {a: "small"}
        d[b] = "big"
        assert d == {a: "big"}
    assert f7.element(4) == 4 and hash(f7.element(4)) == hash(4)
    # elements outside the subfield stay apart
    assert len({f49.element([4, 1]), f49.element(4), f7.element(4)}) == 2
    f81 = FqField(3, 4)
    assert len({f81.element_at(11), f81.element_at(12)}) == 2


def test_flat_extension_is_built_once_per_prime_and_degree():
    f127 = FqField(127)
    assert flat_extension(f127, 2) is flat_extension(FqField(127), 2)
    assert flat_extension(f127, 2) is not flat_extension(f127, 3)
    assert flat_extension(f127, 1) is f127
    # over a prime-power base too: F_{9^2} is the flat F_{3^4}
    assert flat_extension(FqField(3, 2), 2) is flat_extension(FqField(3), 4)


def test_mixed_fields_embed_the_smaller_element():
    f7, f49 = FqField(7), FqField(7, 2)
    a, c = f49.element([3, 2]), f7.element(4)
    # a flat F_{p^n} element meets an F_p element in F_{p^n}, in either order
    assert a + c == c + a == a + f49.embed(c)
    assert a - c == a - f49.embed(c) and c - a == f49.embed(c) - a
    assert a * c == c * a == a * f49.embed(c)
    assert a / c == a / f49.embed(c) and c / a == f49.embed(c) / a
    assert f49.element(4) == c and c == f49.element(4)
    assert a != c and c != a
    # unrelated fields neither mix nor compare equal
    f5, f9 = FqField(5), FqField(3, 2)
    for x, y in ((f49.one, f5.one), (f5.one, f49.one), (f9.one, f49.one)):
        assert (x == y) is False and x != y
        with pytest.raises(TypeError):
            x + y
    # a proper subfield F_q, q > p, embeds only on request
    f81 = flat_extension(f9, 2)
    b = f9.element_at(5)
    assert (f81.embed(b) == b) is False
    with pytest.raises(TypeError):
        f81.one + b
    assert f81.one + f81.embed(b) == f81.embed(f9.one + b)


def _random_irreducible(field, d, rng):
    while True:
        m = [field.random_element(rng) for _ in range(d)] + [field.one]
        if upoly.is_irreducible(field, m):
            return m


def _assert_embeds(small, big, rng, pairs=20):
    for _ in range(pairs):
        a, b = small.random_element(rng), small.random_element(rng)
        assert big.element(a + b) == big.element(a) + big.element(b)
        assert big.element(a * b) == big.element(a) * big.element(b)
    assert big.element(small.one) == big.one


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3)], ids=["F9", "F25", "F27"])
def test_residue_field_holds_a_root_of_m(p, n):
    field = FqField(p, n)
    rng = random.Random(p ** n)
    for k in (2, 3):
        _assert_embeds(field, flat_extension(field, k), rng)
    for d in range(2, 7):
        m = _random_irreducible(field, d, rng)
        L, alpha = residue_field(field, m)
        assert L.p == p and L.n == n * d
        assert not upoly.eval_in(L, m, alpha)
        _assert_embeds(field, L, rng)


def test_residue_field_shifts_a_square_norm():
    # x^3 - x - 1 has its roots in F_27, so its unshifted norm from F_9 is
    # the square of their minimal polynomial, and the shift c = 1 is taken
    f9 = FqField(3, 2)
    m = [f9.element(-1), f9.element(-1), f9.zero, f9.one]
    conj = [c ** 3 for c in m]
    assert not upoly.is_squarefree(f9, upoly.mul(f9, m, conj))
    L, alpha = residue_field(f9, m)
    assert L.q == 3 ** 6
    assert not upoly.eval_in(L, m, alpha)
    _assert_embeds(f9, L, random.Random(5))


def test_residue_field_over_a_prime_field_is_the_quotient():
    f7 = FqField(7)
    m = [f7.one, f7.zero, f7.one]  # x^2 + 1: -1 is a non-residue mod 7
    L, alpha = residue_field(f7, m)
    assert L == FqField(7, 2, [1, 0, 1])
    assert alpha == L.element([0, 1])
