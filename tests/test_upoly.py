import random
import time

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from fixtures import random_smooth_quartic
from gonalift import upoly
from gonalift.ff import FqField, is_prime
from gonalift.lift3 import Genus3Input, lift_genus3
from gonalift.mpoly import PolyRing
from gonalift.verify import sample_birational

F7 = FqField(7)
F9 = FqField(3, 2)


def poly(field, ints):
    return upoly.trim([field.element(c) for c in ints])


def rand_poly(field, rng, deg):
    return upoly.trim([field.random_element(rng) for _ in range(deg + 1)])


def test_divmod_roundtrip():
    rng = random.Random(1)
    for field in (F7, F9):
        for _ in range(50):
            a = rand_poly(field, rng, rng.randrange(0, 8))
            b = rand_poly(field, rng, rng.randrange(0, 5))
            if upoly.is_zero(b):
                continue
            q, r = upoly.divmod_(field, a, b)
            assert upoly.degree(r) < upoly.degree(b)
            back = upoly.add(field, upoly.mul(field, q, b), r)
            assert back == upoly.trim(a)


def test_gcd_agrees_with_sympy():
    rng = random.Random(2)
    x = sympy.Symbol("x")
    for _ in range(40):
        a = [rng.randrange(7) for _ in range(rng.randrange(1, 8))]
        b = [rng.randrange(7) for _ in range(rng.randrange(1, 8))]
        pa, pb = poly(F7, a), poly(F7, b)
        if upoly.is_zero(pa) or upoly.is_zero(pb):
            continue
        g = upoly.gcd(F7, pa, pb)
        sa = sympy.Poly(list(reversed(a)), x, modulus=7)
        sb = sympy.Poly(list(reversed(b)), x, modulus=7)
        sg = sa.gcd(sb)
        got = [int(c) % 7 for c in reversed(sg.all_coeffs())]
        assert [c.coeffs[0] for c in g] == got


def sylvester_det_mod(a, b, p):
    """Independent oracle: explicit Sylvester determinant over the integers."""
    a = list(a)
    b = list(b)
    while a and a[-1] % p == 0:
        a.pop()
    while b and b[-1] % p == 0:
        b.pop()
    m, n = len(a) - 1, len(b) - 1
    rows = []
    for i in range(n):
        row = [0] * (m + n)
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * (m + n)
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return int(sympy.Matrix(rows).det()) % p


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(4)
    for _ in range(60):
        a = [rng.randrange(7) for _ in range(rng.randrange(2, 7))]
        b = [rng.randrange(7) for _ in range(rng.randrange(2, 7))]
        pa, pb = poly(F7, a), poly(F7, b)
        if upoly.degree(pa) < 1 or upoly.degree(pb) < 1:
            continue
        expected = sylvester_det_mod(a, b, 7)
        got = upoly.resultant(F7, pa, pb)
        assert got.coeffs[0] == expected


def test_roots_and_count_roots():
    rng = random.Random(6)
    for field in (F7, F9, FqField(101), FqField(1009)):
        for _ in range(12):
            root_set = {field.random_element(rng) for _ in range(rng.randrange(1, 5))}
            a = [field.one]
            for r in root_set:
                a = upoly.mul(field, a, [-r, field.one])
            # multiply by an irreducible quadratic to add root-free content
            nonsq = None
            for i in range(1, field.q):
                if field.element_at(i) ** ((field.q - 1) // 2) == -field.one:
                    nonsq = field.element_at(i)
                    break
            a = upoly.mul(field, a, [-nonsq, field.zero, field.one])
            assert upoly.count_roots(field, a) == len(root_set)
            assert set(upoly.roots(field, a)) == root_set


def test_roots_sorted_canonically():
    field = FqField(13)
    a = poly(field, [0, 1])          # x
    a = upoly.mul(field, a, poly(field, [-5, 1]))
    a = upoly.mul(field, a, poly(field, [-2, 1]))
    rs = upoly.roots(field, a)
    assert [field.index_of(r) for r in rs] == [0, 2, 5]


def test_is_irreducible_matches_factorability():
    # degree 2: irreducible iff no roots; exhaustive over F_7
    count = 0
    for i in range(7):
        for j in range(7):
            a = [F7.element_at(i), F7.element_at(j), F7.one]
            irr = upoly.is_irreducible(F7, a)
            has_root = upoly.count_roots(F7, a) > 0
            assert irr == (not has_root)
            count += irr
    # number of monic irreducible quadratics over F_q is (q^2-q)/2
    assert count == (7 ** 2 - 7) // 2
    rng = random.Random(77)
    for _ in range(120):
        a = [F9.random_element(rng), F9.random_element(rng), F9.one]
        assert upoly.is_irreducible(F9, a) == (upoly.count_roots(F9, a) == 0)


def test_is_irreducible_agrees_with_sympy():
    rng = random.Random(8)
    x = sympy.Symbol("x")
    for _ in range(40):
        deg = rng.randrange(2, 7)
        a = [rng.randrange(7) for _ in range(deg)] + [1]
        pa = poly(F7, a)
        sa = sympy.Poly(list(reversed(a)), x, modulus=7)
        assert upoly.is_irreducible(F7, pa) == sa.is_irreducible


def test_factor_reassembles():
    rng = random.Random(9)
    for field in (F7, F9, FqField(43)):
        for _ in range(15):
            a = rand_poly(field, rng, rng.randrange(1, 9))
            if upoly.degree(a) < 1:
                continue
            unit, pieces = upoly.factor(field, a)
            prod = [unit]
            for g, m in pieces:
                assert upoly.is_irreducible(field, g)
                assert g[-1] == field.one
                for _ in range(m):
                    prod = upoly.mul(field, prod, g)
            assert prod == upoly.trim(a)


def test_factor_with_pth_powers():
    field = F7
    # (x+1)^7 * (x^2+x+3)
    a = [field.one]
    for _ in range(7):
        a = upoly.mul(field, a, poly(field, [1, 1]))
    quad = poly(field, [3, 1, 1])
    assert upoly.is_irreducible(field, quad)
    a = upoly.mul(field, a, quad)
    unit, pieces = upoly.factor(field, a)
    as_set = {(tuple(c.coeffs[0] for c in g), m) for g, m in pieces}
    assert as_set == {((1, 1), 7), ((3, 1, 1), 1)}


def test_squarefree_decomposition():
    field = F7
    a = upoly.mul(field, poly(field, [1, 1]), poly(field, [1, 1]))
    a = upoly.mul(field, a, poly(field, [2, 1]))
    dec = upoly.squarefree_decomposition(field, a)
    as_set = {(tuple(c.coeffs[0] for c in g), m) for g, m in dec}
    assert as_set == {((1, 1), 2), ((2, 1), 1)}
    assert not upoly.is_squarefree(field, a)
    assert upoly.is_squarefree(field, poly(field, [1, 0, 1]))


def test_large_field_roots_use_splitting():
    field = FqField(1009)
    a = poly(field, [1])
    for r in (3, 700, 900, 1001):
        a = upoly.mul(field, a, poly(field, [-r, 1]))
    rs = upoly.roots(field, a)
    assert sorted(field.index_of(r) for r in rs) == [3, 700, 900, 1001]


def test_pow_mod_fermat():
    # x^(q^2) = x mod m for squarefree m whose roots lie in F_{q^2}
    for field, m_ints in ((F7, [1, 0, 1]), (F9, [2, 1, 1])):
        m = poly(field, m_ints)
        x = upoly.x_poly(field)
        big = upoly.pow_mod(field, x, field.q ** 2, m)
        assert big == x


def test_roots_over_fp2_split_without_scanning_fp():
    # both roots lie in F_p, which no shift from F_p separates
    field = FqField(4099, 2)
    a = upoly.mul(field, poly(field, [-1, 1]), poly(field, [-2, 1]))
    t0 = time.perf_counter()
    rs = upoly.roots(field, a)
    assert time.perf_counter() - t0 < 0.1
    assert rs == [field.element(1), field.element(2)]


def test_factor_over_fp2_splits_rational_roots_and_a_conjugate_pair():
    field = FqField(1009, 2)
    r = field.element_at(5 * 1009 + 3)  # outside F_1009
    a = [field.one]
    for root in (field.element(1), field.element(2), r, r ** 1009):
        a = upoly.mul(field, a, [-root, field.one])
    t0 = time.perf_counter()
    unit, pieces = upoly.factor(field, a)
    assert time.perf_counter() - t0 < 1.0
    assert unit == field.one
    assert sorted(field.index_of(-g[0]) for g, m in pieces if m == 1 and len(g) == 2) \
        == sorted(field.index_of(c) for c in (field.element(1), field.element(2),
                                              r, r ** 1009))
    assert len(pieces) == 4


def _ints(cs):
    return [c.coeffs[0] for c in cs]


def _sympy_ints(sp, p):
    return [int(c) % p for c in reversed(sp.all_coeffs())]


#: the primes on either side of the cap below which roots come from ``upoly._scan``
BELOW_CAP = max(q for q in range(2, upoly._SCAN_CAP) if is_prime(q))
ABOVE_CAP = min(q for q in range(upoly._SCAN_CAP, 2 * upoly._SCAN_CAP) if is_prime(q))


@pytest.mark.parametrize("p", [3, 5, 7, 101, 127, BELOW_CAP, ABOVE_CAP, 1009])
def test_prime_field_kernel_agrees_with_sympy(p):
    field = FqField(p)
    rng = random.Random(p)
    x = sympy.Symbol("x")
    for _ in range(25):
        # up to degree 14, the size of an eliminant
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 11))] + [1 + rng.randrange(p - 1)]
        for _ in range(rng.randrange(4)):  # planted roots, sometimes repeated
            r = rng.randrange(p)
            a = _ints(upoly.mul(field, poly(field, a), poly(field, [-r, 1])))
        b = [rng.randrange(p) for _ in range(rng.randrange(1, 7))]
        pa, pb = poly(field, a), poly(field, b)
        sa = sympy.Poly(list(reversed(a)), x, modulus=p)
        sb = sympy.Poly(list(reversed(b)), x, modulus=p)

        lc, sfactors = sa.factor_list()
        want = sorted((_sympy_ints(g, p), m) for g, m in sfactors)
        unit, pieces = upoly.factor(field, pa)
        assert unit == field.element(int(lc))
        assert sorted((_ints(g), m) for g, m in pieces) == want
        want_roots = sorted(-g[0] % p for g, _m in want if len(g) == 2)
        assert _ints(upoly.roots(field, pa)) == want_roots
        assert upoly.count_roots(field, pa) == len(want_roots)
        assert upoly.is_irreducible(field, pa) == sa.is_irreducible
        if not upoly.is_zero(pb):
            assert _ints(upoly.gcd(field, pa, pb)) == _sympy_ints(sa.gcd(sb), p)
        e = rng.randrange(p ** 3)
        want_pow = gf_pow_mod(list(reversed(_ints(pb))), e, list(reversed(a)), p, ZZ)
        assert _ints(upoly.pow_mod(field, pb, e, pa)) == [int(c) for c in reversed(want_pow)]


def test_scan_refuses_slots_that_could_overflow():
    K = upoly._Ints(BELOW_CAP)
    fits = (1 << 32) // (BELOW_CAP - 1) ** 2  # len(a) (p - 1)^2 < 2^32 at most this long
    assert upoly._scans(K, [1] * fits) and not upoly._scans(K, [1] * (fits + 1))
    assert not upoly._scans(upoly._Ints(ABOVE_CAP), [0, 1])


def _element_path_roots(field, a):
    """Roots on the generic element kernel: the reference for F_p-defined input."""
    K = upoly._Elements(field)
    found = []
    upoly._split_linear(K, upoly._linear_part(K, upoly.trim(a)), random.Random(1), found)
    return sorted(found, key=field.index_of)


def _irreducible_over_fp(p, d, rng):
    Fp = FqField(p)
    while True:
        g = [Fp.random_element(rng) for _ in range(d)] + [Fp.one]
        if upoly.is_irreducible(Fp, g):
            return [int(c.coeffs[0]) for c in g]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [3, 7, 127])
def test_roots_of_fp_defined_polys_match_element_path(p, n):
    L = FqField(p, n)
    rng = random.Random(100 * p + n)
    x = poly(L, [0, 1])
    cases = [poly(L, [rng.randrange(p) for _ in range(rng.randrange(2, 10))])
             for _ in range(20)]
    # irreducible factors whose degree does or does not divide n
    irr = {d: poly(L, _irreducible_over_fp(p, d, rng)) for d in (2, 3)}
    for d, g in irr.items():
        assert len(upoly.roots(L, g)) == (d if n % d == 0 else 0)
        cases.append(g)
    # repeated factors
    lin = [upoly.sub(L, x, poly(L, [c])) for c in (0, 1 % p, 2 % p)]
    cases.append(upoly.mul(L, upoly.mul(L, irr[2], irr[2]),
                           upoly.mul(L, upoly.mul(L, lin[1], lin[1]), lin[1])))
    cases.append(upoly.mul(L, upoly.mul(L, irr[3], lin[0]), upoly.mul(L, lin[2], irr[2])))
    if p < 100:  # a p-th power, through the p-th root step; of degree p + 3
        cases.append(upoly.mul(L, poly(L, [1] + [0] * (p - 1) + [1]), irr[3]))
    for a in cases:
        if upoly.degree(a) < 0:
            continue
        assert upoly.roots(L, a) == _element_path_roots(L, a)
    with pytest.raises(ValueError):
        upoly.roots(L, [L.zero, L.zero])


@pytest.mark.parametrize("p", [3, 5, 7, 13, 127, 1009])
def test_quadratic_factors_over_fp2_match_element_path(p):
    # p = 3 mod 4 for 3, 7, 127 and p = 1 mod 4 for 5, 13, 1009: both
    # branches of the F_p square root behind the closed-form roots
    L = FqField(p, 2)
    rng = random.Random(p)
    quads = [poly(L, _irreducible_over_fp(p, 2, rng)) for _ in range(4)]
    lin = [poly(L, [rng.randrange(p), 1]) for _ in range(2)]
    cases = list(quads)
    cases.append(upoly.mul(L, quads[0], quads[1]))
    cases.append(upoly.mul(L, upoly.mul(L, quads[2], lin[0]), lin[1]))
    cases.append(upoly.mul(L, upoly.mul(L, quads[3], quads[3]), lin[0]))
    cases.append(upoly.mul(L, upoly.mul(L, quads[1], lin[1]), lin[1]))
    for a in cases:
        got = upoly.roots(L, a)
        assert got == _element_path_roots(L, a)
        assert all(not upoly.eval_in(L, a, r) for r in got)
    for q in quads:
        assert len(upoly.roots(L, q)) == 2


def test_roots_on_the_element_kernel_take_fp_coefficients_to_ints(monkeypatch):
    # every kernel-level caller of _roots gets the F_p shortcut, not only roots
    p = 43
    L = FqField(p, 2)
    rng = random.Random(p)
    quads = [poly(L, _irreducible_over_fp(p, 2, rng)) for _ in range(2)]
    while quads[1] == quads[0]:
        quads[1] = poly(L, _irreducible_over_fp(p, 2, rng))
    a = upoly.mul(L, quads[0], quads[1])
    want = upoly.roots(L, a)
    calls = []
    pow_mod = upoly._Elements.pow_mod

    def counted(self, a, e, m):
        calls.append(self.field)
        return pow_mod(self, a, e, m)

    monkeypatch.setattr(upoly._Elements, "pow_mod", counted)
    assert upoly._roots(L, upoly._Elements(L), a) == want
    assert len(want) == 4 and calls == []


def test_sample_birational_over_fp2_skips_the_element_kernel(monkeypatch):
    rng = random.Random(127)
    F = random_smooth_quartic(PolyRing(FqField(127), ("X", "Y", "Z")), rng)
    report = lift_genus3(Genus3Input(F), seed=127)
    calls = []
    pow_mod = upoly._Elements.pow_mod

    def counted(self, a, e, m):
        calls.append(self.field)
        return pow_mod(self, a, e, m)

    monkeypatch.setattr(upoly._Elements, "pow_mod", counted)
    out = sample_birational(report)
    assert out["status"] == "pass" and out["sampled"] > 25  # F_{q^2} points too
    assert calls == []


def test_sample_birational_over_f127_finds_roots_by_scanning(monkeypatch):
    rng = random.Random(127)
    F = random_smooth_quartic(PolyRing(FqField(127), ("X", "Y", "Z")), rng)
    report = lift_genus3(Genus3Input(F), seed=127)
    calls = []
    linear_part = upoly._linear_part

    def counted(K, a):
        calls.append(K.field)
        return linear_part(K, a)

    monkeypatch.setattr(upoly, "_linear_part", counted)
    out = sample_birational(report)
    assert out["status"] == "pass" and out["sampled"] > 25
    # the F_q slices are scanned, and the F_{q^2} ones are factored over F_q
    assert calls == []


def _square_and_multiply(a, e, m, p):
    """a^e mod m on the plain int kernel: the reference for the packed power."""
    result = upoly._vrem([1], m, p)
    base = upoly._vrem(a, m, p)
    while e:
        if e & 1:
            result = upoly._vrem(upoly._vmul(result, base, p), m, p)
        base = upoly._vrem(upoly._vmul(base, base, p), m, p)
        e >>= 1
    return result


@pytest.mark.parametrize("p", [3, 5, 127, 1009, 65521, 2 ** 31 - 1])
def test_packed_pow_mod_matches_square_and_multiply(p):
    # the slots are sized for (2d - 1)(p - 1)^2; a base with every
    # coefficient p - 1 fills them close to that, and for p = 2^31 - 1 and
    # d a power of two d(p - 1)^2 lies just below a power of two
    rng = random.Random(p)
    for d in range(1, 25):
        lead = 1 if d % 3 == 0 else 1 + rng.randrange(p - 1)  # also non-monic m
        m = [rng.randrange(p) for _ in range(d)] + [lead]
        big = [rng.randrange(p) for _ in range(d + 1 + rng.randrange(d + 2))]
        big[-1] = 1 + rng.randrange(p - 1)  # of degree d or more
        exps = [0, 1, 2, p, (p - 1) // 2, rng.randrange(p ** 3)]
        if p ** d < 2 ** 256:  # longer exponents only cost the reference time
            exps.append(p ** d)
        cases = [(a, e) for a in ([], [0, 1], big) for e in exps]
        cases += [([p - 1] * d, e) for e in (2, p, (p - 1) // 2)]
        for a, e in cases:
            assert upoly._vpowmod(a, e, m, p) == _square_and_multiply(a, e, m, p), (d, a, e)
