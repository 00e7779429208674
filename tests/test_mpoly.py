import random
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gonalift import linalg, mpoly, upoly
from gonalift.errors import AllZero, InputError, SingularMatrix, ZeroInput
from gonalift.ff import FqField, flat_extension
from gonalift.mpoly import (
    LinearChange, PlaneSlices, PolyRing, bivariate_gcd, dehomogenize, derivative,
    divide_exact, from_dict, resultant, slice_rows, substitute,
)
from gonalift.ok import OkRing

F7 = FqField(7)
F13 = FqField(13)


def ring2(field=F7):
    return PolyRing(field, ("x", "y"))


def rand_poly(ring, rng, nterms=6, maxdeg=4):
    terms = []
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg) for _ in range(ring.nvars))
        terms.append((e, rng.randrange(ring.coeff_ring.q)))
    return ring.from_terms(terms)


def to_sympy(f, syms):
    expr = 0
    for e, c in f.terms.items():
        t = int(c.coeffs[0])
        for s, k in zip(syms, e):
            t *= s ** k
        expr += t
    return sympy.expand(expr)


def test_basic_arithmetic_and_axioms():
    rng = random.Random(1)
    R = ring2()
    for _ in range(30):
        f, g, h = (rand_poly(R, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f * g == g * f
        assert f - f == R.zero()
        assert f * R.one() == f


def test_arithmetic_over_ok_and_reduction_commutes():
    okr = OkRing(7, [1, 0, 1])
    R = PolyRing(okr, ("x", "y"))
    Rbar = PolyRing(okr.field, ("x", "y"))
    rng = random.Random(2)

    def rand_ok():
        return R.from_terms([
            (tuple(rng.randrange(4) for _ in range(2)),
             okr.element([rng.randrange(-30, 30), rng.randrange(-30, 30)]))
            for _ in range(5)])

    def red(f):
        return f.map_coefficients(okr.reduce_mod_p, Rbar)

    for _ in range(25):
        f, g = rand_ok(), rand_ok()
        assert red(f + g) == red(f) + red(g)
        assert red(f * g) == red(f) * red(g)
        assert red(f ** 2) == red(f) ** 2


def test_substitute_monomial_example():
    # W^3 under (X,Y,Z,W) -> (XZ, YZ, Z^2, XY) expands to X^3 Y^3
    R4 = PolyRing(F7, ("X", "Y", "Z", "W"))
    X, Y, Z, W = R4.gens()
    images = [X * Z, Y * Z, Z * Z, X * Y]
    assert substitute(W ** 3, images) == (X * Y) ** 3
    assert substitute(W ** 3, R4.gens()) == W ** 3


def test_substitute_scroll_parametrization_annihilates():
    # (vst : ut : vt^2 : us : vs^2) lies on X^2 - ZV, XY - ZW, XW - YV
    R5 = PolyRing(F7, ("X", "Y", "Z", "W", "V"))
    X, Y, Z, W, V = R5.gens()
    P4 = PolyRing(F7, ("u", "v", "s", "t"))
    u, v, s, t = P4.gens()
    images = [v * s * t, u * t, v * t * t, u * s, v * s * s]
    for quad in (X * X - Z * V, X * Y - Z * W, X * W - Y * V):
        assert substitute(quad, images).is_zero()


def test_linear_change_examples_and_action():
    R3 = PolyRing(F7, ("X", "Y", "Z"))
    X, Y, Z = R3.gens()
    ident = LinearChange(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f = X ** 2 + Y * Z
    assert ident.apply(f) == f
    swap = LinearChange(F7, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert swap.apply(X) == Y
    rng = random.Random(3)
    for _ in range(15):
        rows_a = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
        rows_b = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
        try:
            A = LinearChange(F7, rows_a)
            B = LinearChange(F7, rows_b)
        except SingularMatrix:
            continue
        f = rand_poly(R3, rng)
        lhs = B.apply(A.apply(f))
        assert lhs == LinearChange(F7, linalg.mat_mul(A.rows, B.rows)).apply(f)
        back = A.inverse().apply(A.apply(f))
        assert back == f
        assert f.total_degree() == A.apply(f).total_degree() \
            or f.is_zero()


def test_singular_change_rejected():
    with pytest.raises(SingularMatrix):
        LinearChange(F7, [[1, 1], [1, 1]])


def test_dehomogenize_homogenize():
    R3 = PolyRing(F7, ("X", "Y", "Z"))
    X, Y, Z = R3.gens()
    f = X ** 2 + Y * Z
    d = dehomogenize(f, 2)
    assert d.ring.names == ("X", "Y")
    x, y = d.ring.gens()
    assert d == x ** 2 + y
    assert dehomogenize(Z ** 3, 2) == dehomogenize(Z ** 3, 2).ring.one()


def test_resultant_examples():
    R3 = PolyRing(F7, ("A", "B", "V"))
    A, B, V = R3.gens()
    r = resultant(V ** 2 - A, V - B, 2)
    assert r == B ** 2 - A
    r2 = resultant(V - A, V - B, 2)
    assert r2 == A - B or r2 == B - A
    with pytest.raises(ZeroInput):
        resultant(R3.zero(), V, 2)


def test_resultant_multiplicative_and_symmetric():
    rng = random.Random(4)
    R = PolyRing(F13, ("x", "y"))
    x, y = R.gens()
    for _ in range(12):
        f = y ** 2 + rand_poly(R, rng, 3, 2).coeff_of(1, 0) * y + rand_poly(R, rng, 3, 2).coeff_of(1, 0)
        g = y + rand_poly(R, rng, 2, 2).coeff_of(1, 0)
        h = y + rand_poly(R, rng, 2, 2).coeff_of(1, 0)
        rfg = resultant(f, g, 1)
        rfh = resultant(f, h, 1)
        rfgh = resultant(f, g * h, 1)
        assert rfgh == rfg * rfh
        rgf = resultant(g, f, 1)
        assert rfg == rgf or rfg == -rgf


def test_resultant_matches_univariate():
    rng = random.Random(5)
    R = PolyRing(F13, ("x", "y"))
    for _ in range(20):
        fl = [F13.random_element(rng) for _ in range(rng.randrange(2, 6))]
        gl = [F13.random_element(rng) for _ in range(rng.randrange(2, 6))]
        if not upoly.trim(fl) or not upoly.trim(gl):
            continue
        if upoly.degree(fl) < 1 or upoly.degree(gl) < 1:
            continue
        f = R.from_terms([((0, i), c) for i, c in enumerate(fl)])
        g = R.from_terms([((0, i), c) for i, c in enumerate(gl)])
        expected = upoly.resultant(F13, upoly.trim(fl), upoly.trim(gl))
        got = resultant(f, g, 1)
        assert got == R.constant(expected)


@pytest.mark.parametrize("p", [3, 5, 127, 1009])
def test_resultant_matches_sympy_mod_p(p):
    field = FqField(p)
    R = PolyRing(field, ("x", "y"))
    sx, sy = sympy.symbols("x y")
    rng = random.Random(p)
    for _ in range(6):
        f = rand_poly(R, rng, 9, 5)
        g = rand_poly(R, rng, 7, 4)
        if f.degree_in(1) < 1 or g.degree_in(1) < 1:
            continue
        # coefficients lifted to [0, p) keep their degrees, so the integer
        # resultant reduces to the one over F_p
        want = sympy.Poly(sympy.resultant(to_sympy(f, (sx, sy)),
                                          to_sympy(g, (sx, sy)), sy), sx)
        got = resultant(f, g, 1)
        assert got == R.from_terms(((k, 0), int(c) % p)
                                   for (k,), c in want.terms())


def _rand_fq_poly(ring, rng, nterms, maxdeg, support):
    """Random terms on the variables in ``support``, coefficients from all of F_q."""
    field = ring.coeff_ring
    terms = []
    for _ in range(nterms):
        e = [0] * ring.nvars
        for i in support:
            e[i] = rng.randrange(maxdeg)
        terms.append((e, field.element_at(rng.randrange(field.q))))
    return ring.from_terms(terms)


def _resultant_cases(field, rng):
    """(f, g, var) over the field, the awkward shapes included."""
    R = PolyRing(field, ("x", "y"))
    x, y = R.gens()
    c = field.element_at
    cases = []
    for _ in range(2):
        f = _rand_fq_poly(R, rng, 8, 4, (0, 1)) + y ** 4
        g = _rand_fq_poly(R, rng, 6, 3, (0, 1)) + y ** 3 * c(field.q - 2)
        cases.append((f, g, 1))
        cases.append((f, g, 0))
    h = y + x * c(field.q - 3) + c(2)
    cases.append((h * (y ** 2 + x), h * (y + c(3)), 1))  # shared factor
    cases.append((R.constant(c(5)), y ** 2 + x, 1))  # constant entries
    cases.append((R.constant(c(5)), R.constant(c(7)), 1))  # the empty matrix
    cases.append((y ** 3 + c(4), y * c(field.q - 1) + c(1), 1))  # no x at all
    # three variables, f and g supported on the first and the last
    R3 = PolyRing(field, ("a", "b", "c"))
    a, _, cc = R3.gens()
    for _ in range(2):
        f3 = _rand_fq_poly(R3, rng, 6, 3, (0, 2)) + cc ** 3 + a ** 3
        g3 = _rand_fq_poly(R3, rng, 5, 3, (0, 2)) + cc ** 3
        cases.append((f3, g3, 2))
        cases.append((f3, g3, 0))
    return cases


@pytest.mark.parametrize("field", [FqField(3, 2), FqField(5, 2), flat_extension(FqField(3, 2), 2)],
                         ids=["F9", "F25", "F9[2]"])
def test_resultant_matches_sylvester_det(field):
    zeros = 0
    for f, g, var in _resultant_cases(field, random.Random(field.q)):
        rows = mpoly.sylvester_matrix(f, g, var)
        want = linalg.det(rows, f.ring.zero(), f.ring.one()) if rows else f.ring.one()
        got = resultant(f, g, var)
        assert got == want
        zeros += got.is_zero()
    assert zeros >= 1  # the shared factor


def test_evaluated_resultant_at_its_edges(monkeypatch):
    # over F_p the resultant is interpolated from B + 1 points when p > B,
    # B its degree bound, else it is Bareiss's; both equal the Sylvester
    # determinant at p = B + 1 and p = B, and where leading coefficients in
    # y vanish at some of the points
    paths = []
    evaluated = mpoly._evaluated_resultant
    monkeypatch.setattr(mpoly, "_evaluated_resultant",
                        lambda K, fr, gr, bound: paths.append(bound) or evaluated(K, fr, gr, bound))
    scalar_dets = []
    inner = upoly._det

    def counted(K, m):
        # Bareiss over F[u] has an entry of positive degree in u
        if all(len(c) <= 1 for row in m for c in row):
            scalar_dets.append(len(m))
        else:
            paths.append("bareiss")
        return inner(K, m)

    monkeypatch.setattr(upoly, "_det", counted)
    for p in (13, 31, 127):
        field = FqField(p)
        R = PolyRing(field, ("x", "y"))
        x, y = R.gens()
        rng = random.Random(p)

        def low(d):  # x^d plus random lower terms
            return x ** d + R.from_terms(((i, 0), rng.randrange(p)) for i in range(d))

        cases = [
            # y-degrees 1 and 1, x-degrees 6 and 7: B is the row bound 13, or 12
            (y * low(6) + low(5), y * low(7) + low(6), 13),
            (y * low(6) + low(5), y * low(5) + low(6), 12),
            # total degrees 4 and 3: B = 12
            (y ** 4 + y ** 2 * low(2) + y * low(3) + low(4),
             y ** 3 + y * low(2) + low(3), 12),
            # leading coefficients vanishing at x = 1, 2 and 3, both at 3;
            # B is the row bound 2 * 4 + 2 * 3
            ((x - 1) * (x - 3) * y ** 2 + y * low(3) + low(4),
             (x - 2) * (x - 3) * y ** 2 + y * low(2) + low(3), 14),
        ]
        for f, g, bound in cases:
            del paths[:]
            want = linalg.det(mpoly.sylvester_matrix(f, g, 1), R.zero(), R.one())
            assert resultant(f, g, 1) == want
            assert paths == [bound if p > bound else "bareiss"]
    # p = 13 puts bounds 13 and 12 on either side; over F_31 and F_127 the
    # points 1, 2 and 3 of the last case take a scalar 4 x 4 Sylvester determinant
    assert scalar_dets.count(4) == 2 * 3


def test_resultant_bivariate_time_budget():
    field = FqField(1009)
    R = PolyRing(field, ("x", "y"))
    rng = random.Random(10)
    monos = lambda d: [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    f = R.from_terms((e, field.element_at(rng.randrange(1, 1009))) for e in monos(4))
    g = R.from_terms((e, field.element_at(rng.randrange(1, 1009))) for e in monos(3))
    t0 = time.perf_counter()
    for _ in range(10):
        r = resultant(f, g, 1)
    assert time.perf_counter() - t0 < 0.1
    assert r.degree_in(0) == 12 and r.degree_in(1) == 0


def test_bivariate_gcd_examples():
    R = ring2(F13)
    x, y = R.gens()
    f = x ** 2 * y + 3 * y ** 2 + x + 1
    assert bivariate_gcd([f, f]) == f.scale(f.leading_term()[1].inverse())
    assert bivariate_gcd([x ** 2 - 1, x - 1]) == x - 1
    g1 = x * f * 3
    g2 = (x + 1) * f * 5
    got = bivariate_gcd([g1, g2])
    assert got == f.scale(f.leading_term()[1].inverse())
    with pytest.raises(AllZero):
        bivariate_gcd([R.zero()])
    # the element kernel: flat F_9, F_25 and F_81
    rng = random.Random(19)
    for field in (FqField(3, 2), FqField(5, 2), FqField(3, 4)):
        R = ring2(field)
        x, y = R.gens()
        a = field.element_at(field.q - 2)
        shared = x * y + y ** 2 * a + x + 1
        pairs = [
            (shared * (x + y + a), shared * (y ** 2 + x * a)),  # a shared factor
            ((x + a) * (y ** 2 + x), (x + a) * (x * y + 1)),  # x-content
            (x ** 2 + y * a + 1, x * y + a),  # coprime
        ]
        for _ in range(3):
            pairs.append(tuple(shared * rand_poly(R, rng, 3, 3) for _ in range(2)))
        for f, g in pairs:
            if not f or not g:
                continue
            h = bivariate_gcd([f, g])
            assert h.leading_term()[1] == field.one
            cf, cg = divide_exact(f, h), divide_exact(g, h)
            assert cf is not None and cg is not None
            assert bivariate_gcd([cf, cg]) == R.one()
        assert bivariate_gcd(pairs[0]) == shared.scale(shared.leading_term()[1].inverse())
        assert bivariate_gcd(pairs[1]) == x + a
        assert bivariate_gcd(pairs[2]) == R.one()


def test_bivariate_gcd_against_sympy():
    rng = random.Random(8)
    R = ring2()
    xs, ys = sympy.symbols("x y")
    for _ in range(15):
        common = rand_poly(R, rng, 3, 2)
        f = common * rand_poly(R, rng, 3, 2)
        g = common * rand_poly(R, rng, 3, 2)
        if f.is_zero() or g.is_zero():
            continue
        ours = bivariate_gcd([f, g])
        sf = sympy.Poly(to_sympy(f, (xs, ys)), xs, ys, modulus=7)
        sg = sympy.Poly(to_sympy(g, (xs, ys)), xs, ys, modulus=7)
        sgcd = sf.gcd(sg)
        # compare monic-normalized term sets
        expected_terms = sgcd.terms()
        expected = R.from_terms([(m, int(c) % 7) for m, c in expected_terms])
        expected = expected.scale(expected.leading_term()[1].inverse())
        assert ours == expected


def test_divide_exact():
    R = ring2(F13)
    x, y = R.gens()
    f = x ** 2 + y + 5
    g = 3 * y ** 2 + x
    assert divide_exact(f * g, g) == f
    assert divide_exact(f * g, f) == g
    assert divide_exact(f * g + 1, g) is None
    assert divide_exact(R.zero(), g) == R.zero()
    with pytest.raises(ZeroInput):
        divide_exact(f, R.zero())


def test_derivative():
    R = ring2()
    x, y = R.gens()
    f = x ** 3 * y + 2 * x + 5
    assert derivative(f, 0) == 3 * x ** 2 * y + 2
    assert derivative(f, 1) == x ** 3
    # char p: d/dx of x^7 vanishes over F_7
    assert derivative(x ** 7, 0).is_zero()


def test_dict_roundtrip():
    R = PolyRing(F7, ("x", "y"))
    f = R.from_terms([((2, 1), 3), ((0, 0), 6)])
    d = f.to_dict()
    assert d == {"vars": ["x", "y"],
                 "terms": [{"e": [2, 1], "c": [3]}, {"e": [0, 0], "c": [6]}]}
    assert from_dict(d, F7) == f
    okr = OkRing(7, [1, 0, 1])
    Rok = PolyRing(okr, ("x",))
    g = Rok.from_terms([((2,), okr.element([1, -9]))])
    assert from_dict(g.to_dict(), okr) == g


def test_partial_eval_and_evaluate():
    R = PolyRing(F7, ("x", "y"))
    x, y = R.gens()
    f = x ** 2 * y + 3 * x + 1
    # at x=2: 4y + 7 = 4y mod 7
    assert f.partial_eval({0: F7.element(2)}) == y.scale(F7.element(4))
    assert f.evaluate([F7.element(2), F7.element(3)]) == F7.element(2 * 2 * 3 + 6 + 1)
    # evaluation into an extension field embeds the coefficients
    f25 = FqField(5, 2)
    R5 = PolyRing(FqField(5), ("x", "y"))
    x5, y5 = R5.gens()
    h = x5 ** 2 + y5 + 3
    pt = f25.element([0, 1])
    assert h.evaluate([pt, f25.zero], into=f25) == pt * pt + f25.element(3)

    def by_powers(f, values, into):
        """Reference: every value raised by ``**`` in every term."""
        poly = isinstance(into, PolyRing)
        acc = into.zero() if poly else into.zero
        for e, c in f.terms.items():
            t = into.constant(c) if poly else into.element(c)
            for v, k in zip(values, e):
                if k:
                    t = t * v ** k
            acc = acc + t
        return acc

    def partial_by_powers(f, assignments):
        terms = []
        for e, c in f.terms.items():
            for var, v in assignments.items():
                c = c * v ** e[var]
            terms.append((tuple(0 if i in assignments else k for i, k in enumerate(e)), c))
        return f.ring.from_terms(terms)

    rng = random.Random(31)
    f49 = FqField(7, 2)
    for field in (F7, f49):
        R3 = PolyRing(field, ("x", "y", "z"))
        x3 = R3.variable(0)
        for _ in range(8):
            # exponents up to 7, with x at several powers in one polynomial
            f = rand_poly(R3, rng, 8, 8) + x3 ** 7 + x3 ** 5 * 3 + x3 ** 2
            vals = [field.element_at(rng.randrange(field.q)) for _ in range(3)]
            assert f.evaluate(vals) == by_powers(f, vals, field)
            for chosen in ({0: vals[0]}, {0: vals[0], 2: vals[2]}, {1: vals[1]}):
                assert f.partial_eval(chosen) == partial_by_powers(f, chosen)
    R3 = PolyRing(F7, ("x", "y", "z"))
    tring = PolyRing(F7, ("t",))
    t = tring.variable(0)
    for _ in range(8):
        f = rand_poly(R3, rng, 8, 8) + R3.variable(1) ** 7 + R3.variable(1) ** 4
        for into in (f49, FqField(7, 3)):
            vals = [into.element_at(rng.randrange(into.q)) for _ in range(3)]
            assert f.evaluate(vals, into=into) == by_powers(f, vals, into)
        # F_7 values too, embedded as the F_7 coefficients are
        vals = [F7.element_at(rng.randrange(7)) for _ in range(3)]
        for into in (f49, FqField(7, 3)):
            got = f.evaluate(vals, into=into)
            assert got.field is into
            assert got == by_powers(f, [into.element(v) for v in vals], into)
            assert got == f.evaluate(vals)
        # a parametrized line, as tangent_contact restricts a curve to one
        line = [tring.constant(rng.randrange(7)) + t * rng.randrange(7) for _ in range(3)]
        assert substitute(f, line) == by_powers(f, line, tring)
    assert R3.zero().evaluate([1, 2, 3], into=f49) == f49.zero


#: one ring per scalar form: F_p, F_{p^2}, F_{p^3} (generic product), the order
SCALAR_RINGS = {"F31": FqField(31), "F25": FqField(5, 2), "F27": FqField(3, 3),
                "Ok": OkRing(5, [2, 0, 1])}


def _any_element(ring, rng):
    if isinstance(ring, OkRing):
        return ring.element([rng.randrange(-40, 41) for _ in range(ring.n)])
    return ring.element_at(rng.randrange(ring.q))


def _any_poly(R, rng, nterms, maxdeg):
    return R.from_terms((tuple(rng.randrange(maxdeg + 1) for _ in range(R.nvars)),
                         _any_element(R.coeff_ring, rng)) for _ in range(nterms))


@settings(max_examples=40, deadline=2000, derandomize=True)
@given(name=st.sampled_from(sorted(SCALAR_RINGS)), seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_arithmetic_agrees_with_evaluation(name, seed):
    """Identities that tie each operation to evaluation, in every scalar form."""
    ring, rng = SCALAR_RINGS[name], random.Random(seed)
    R = PolyRing(ring, ("x", "y", "z"))
    f, g = _any_poly(R, rng, 6, 3), _any_poly(R, rng, 4, 2)
    v = [_any_element(ring, rng) for _ in range(3)]
    fv = f.evaluate(v)
    assert (f * g).evaluate(v) == fv * g.evaluate(v)
    assert (f + g).evaluate(v) == fv + g.evaluate(v)
    assert f.partial_eval({0: v[0], 2: v[2]}).evaluate([0, v[1], 0]) == fv
    S = PolyRing(ring, ("s", "t"))
    images = [_any_poly(S, rng, 3, 2) for _ in range(3)]
    w = [_any_element(ring, rng) for _ in range(2)]
    assert substitute(f, images).evaluate(w) == f.evaluate([h.evaluate(w) for h in images])
    if isinstance(ring, FqField):
        ext = flat_extension(ring, 2)
        u = [ext.random_element(rng) for _ in range(3)]
        embedded = f.map_coefficients(ext.element, PolyRing(ext, R.names))
        assert f.evaluate(u, into=ext) == embedded.evaluate(u)


def test_slice_rows_and_plane_slices_match_partial_evaluation():
    def by_partial_eval(f, u, v, u0):
        """f(u0, v) over f's own field: partial_eval, then v's coefficients."""
        g = f.partial_eval({u: u0})
        e = [0] * f.ring.nvars
        out = []
        for k in range(g.degree_in(v) + 1):
            e[v] = k
            out.append(g.coeff(e))
        return upoly.trim(out)

    def by_evaluation(f, u, v, L, u0):
        """f(u0, v) over an extension L: each coefficient of v^k evaluated into L."""
        vals = [L.zero] * f.ring.nvars
        vals[u] = u0
        return upoly.trim([f.coeff_of(v, k).evaluate(vals, into=L)
                           for k in range(f.degree_in(v) + 1)])

    rng = random.Random(17)
    for field in (F7, FqField(5, 2), FqField(3, 4)):
        ext = flat_extension(field, 2)
        K, KE = upoly._kernel(field), upoly._kernel(ext)
        R3 = PolyRing(field, ("X", "Y", "Z"))
        X, Y, Z = R3.gens()
        for _ in range(6):
            # a random form of degree at most 4 on the chart X = 1, in Y and Z
            d = rng.randint(0, 4)
            form = R3.from_terms(((d - a - b, a, b), field.random_element(rng))
                                 for a in range(d + 1) for b in range(d + 1 - a))
            f = form.partial_eval({0: field.one})
            a = field.random_element(rng)
            vanishing = f * (Y - a)  # its slice at Y = a is zero
            for g in (f, vanishing, R3.zero(), Y * Y - a, Z * Z + Z * a):
                for u, v in ((1, 2), (2, 1)):
                    rows = slice_rows(g, u, v)
                    assert len(rows) == g.degree_in(v) + 1
                    assert all(row == upoly.trim(row) for row in rows)
                    # in kernel form, over the field and over its extension
                    slices = PlaneSlices([g], u, v)
                    ext_slices = PlaneSlices([g], u, v, ext)
                    for u0 in [a] + [field.random_element(rng) for _ in range(3)]:
                        want = by_partial_eval(g, u, v, u0)
                        assert K.back(slices.at(u0)) == want
                        if g is vanishing and u == 1 and u0 == a:
                            assert want == []
                    for u0 in [ext.embed(a)] + [ext.random_element(rng) for _ in range(2)]:
                        got = ext_slices.at(u0)
                        assert KE.back(got) == by_evaluation(g, u, v, ext, u0)


def test_slice_gcd_folds_the_nonzero_slices():
    rng = random.Random(29)
    for field in (F7, FqField(5, 2)):
        K = upoly._kernel(field)
        R = PolyRing(field, ("u", "v"))
        u, v = R.gens()
        for _ in range(8):
            a, b = field.random_element(rng), field.random_element(rng)
            polys = [(v - b) * rand_poly(R, rng) + (u - a) * rand_poly(R, rng)
                     for _ in range(3)]
            polys.insert(1, (u - a) * rand_poly(R, rng))  # its slice vanishes
            slices = PlaneSlices(polys, 0, 1)
            each = [K.back(PlaneSlices([f], 0, 1).at(a)) for f in polys]
            nonzero = [s for s in each if s]
            if not nonzero:
                assert slices.gcd(a) is None and slices.roots(a) is None
                continue
            want = nonzero[0]
            for s in nonzero[1:]:
                want = upoly.gcd(field, want, s)
            got = K.back(slices.gcd(a))
            assert upoly.monic(field, got) == upoly.monic(field, want)
            assert len(got) > 1 and not upoly.eval_in(field, got, b)  # v = b is common
            assert slices.roots(a) == upoly.roots(field, want)
        # every slice vanishes, and a constant slice ends the fold
        line = [u - 1, (u - 1) * v]
        assert PlaneSlices(line, 0, 1).gcd(field.one) is None
        assert PlaneSlices(line + [R.one()] + line, 0, 1).gcd(field.one) == [K.one]
        assert PlaneSlices([], 0, 1, field).gcd(field.one) is None
