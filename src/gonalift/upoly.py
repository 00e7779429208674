"""Dense univariate polynomial arithmetic over an arbitrary field object.

Polynomials are plain Python lists of field elements, little-endian
(index i holds the coefficient of x^i).  The zero polynomial is the
empty list.  Every function takes the field as its first argument; the
field must provide ``zero``, ``one``, ``element`` and, for the
root/factor routines, ``q``, ``p``, ``n``, ``element_at`` and
``index_of``; in the package that is ``ff.FqField``, prime or flat
F_{p^n}.

Root finding, gcd, modular powers, irreducibility, factoring and the
determinant ``det`` run on one kernel per field kind: over a prime
field the polynomials become int lists mod p once, on the way in, and
field elements again on the way out (``_Ints``); over every other field
they stay lists of elements (``_Elements``).  Both kernels offer the
same methods (``sub``, ``mul``, ``divmod``, ``gcd``, ``pow_mod``, ...),
so each algorithm is written once.  ``det`` is Bareiss's fraction-free
elimination on a matrix of polynomials in one variable; ``mpoly``
computes its Sylvester resultants with it, and runs its bivariate gcd
on the kernel's ``gcd``, ``divmod``, ``mul`` and ``sub`` directly.

Roots are split off by Cantor-Zassenhaus (von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 14) with shifts drawn from the whole
field by a ``random.Random`` under a fixed seed, local to each call.
Over a flat F_{p^n} with n >= 2, a polynomial whose coefficients lie in
a subfield (F_p, or a field F_q passed as the coefficients' own field)
is first factored over that subfield, on the int kernel for F_p.  Over
F_{p^2} its F_p-irreducible quadratic factors then take their roots in
closed form, from one square root mod p (``_sqrt_mod``, the int
Tonelli-Shanks that ``ff`` also uses for prime fields); otherwise only
the irreducible factors whose roots lie in F_{p^n} are split, inside
the smallest subfield that holds their roots.
Roots come out sorted by the field's enumeration index and factors in a
fixed order, so the draws and the path change only the time taken,
never the output.

This module is internal plumbing: the public polynomial API of the
package lives in :mod:`gonalift.mpoly`.
"""

from __future__ import annotations

import random

#: seed of the split draws; any value gives the same output
_SPLIT_SEED = 1605_02162


def trim(cs):
    """Drop trailing zero coefficients."""
    n = len(cs)
    while n > 0 and not cs[n - 1]:
        n -= 1
    return list(cs[:n])


def degree(cs):
    """Degree, with deg 0 = -1."""
    n = len(cs)
    while n > 0 and not cs[n - 1]:
        n -= 1
    return n - 1


def is_zero(cs):
    return degree(cs) < 0


def constant(field, c):
    c = field.element(c)
    return [c] if c else []


def x_poly(field):
    return [field.zero, field.one]


def lc(cs):
    """Leading coefficient; raises on the zero polynomial."""
    d = degree(cs)
    if d < 0:
        raise ValueError("zero polynomial has no leading coefficient")
    return cs[d]


def add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return trim(out)


def neg(a):
    return [-c for c in a]


def sub(field, a, b):
    return add(field, a, neg(b))


def scale(field, a, c):
    c = field.element(c)
    if not c:
        return []
    return trim([ai * c for ai in a])


def mul(field, a, b):
    a = trim(a)
    b = trim(b)
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return trim(out)


def divmod_(field, a, b):
    """Quotient and remainder; b must be nonzero."""
    a = trim(a)
    b = trim(b)
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lc = b[db].inverse()
    r = list(a)
    q = [field.zero] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db] * inv_lc
        if not c:
            continue
        q[i] = c
        for j in range(db + 1):
            r[i + j] = r[i + j] - c * b[j]
    return trim(q), trim(r)


def rem(field, a, b):
    return divmod_(field, a, b)[1]


def monic(field, a):
    a = trim(a)
    if not a:
        return []
    return scale(field, a, a[-1].inverse())


def gcd(field, a, b):
    """Monic gcd."""
    K = _kernel(field)
    return K.back(K.gcd(K.to(a), K.to(b)))


def xgcd(field, a, b):
    """Return (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = trim(a), trim(b)
    u0, u1 = [field.one], []
    v0, v1 = [], [field.one]
    while r1:
        q, r = divmod_(field, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(field, u0, mul(field, q, u1))
        v0, v1 = v1, sub(field, v0, mul(field, q, v1))
    if not r0:
        return [], u0, v0
    c = r0[-1].inverse()
    return scale(field, r0, c), scale(field, u0, c), scale(field, v0, c)


def pow_mod(field, a, e, m):
    """a^e mod m by square-and-multiply; e a nonnegative int.

    ``field`` may also be a kernel (see ``_kernel``) with ``a`` and ``m``
    in its form: the root and factor routines take every modular power
    through this function, so its call count measures their splitting
    work.
    """
    if isinstance(field, _Kernel):
        return field.pow_mod(a, e, m)
    K = _kernel(field)
    return K.back(K.pow_mod(K.to(a), e, K.to(m)))


def eval_in(ext, a, x):
    """Evaluate with coefficients embedded into the extension of x."""
    acc = ext.zero
    for c in reversed(trim(a)):
        acc = acc * x + ext.embed(c)
    return acc


def derivative(field, a):
    return trim([a[i] * field.element(i) for i in range(1, len(a))])


def resultant(field, a, b):
    """Exact resultant of two univariate polynomials over a field."""
    a = trim(a)
    b = trim(b)
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        return field.zero
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    acc = field.one
    sign = 1
    while True:
        r = rem(field, a, b)
        dr = degree(r)
        if da * db % 2 == 1:
            sign = -sign
        if dr < 0:
            return field.zero
        acc = acc * lc(b) ** (da - dr)
        a, b, da, db = b, r, db, dr
        if db == 0:
            acc = acc * b[0] ** da
            return acc if sign == 1 else -acc


def det(field, rows):
    """Determinant of a square matrix of univariate polynomials over a field.

    Entries and result are coefficient lists in one variable u.  Bareiss's
    fraction-free elimination (Bareiss, *Math. Comp.* 22, 1968) keeps
    every entry in F[u]: after step k each entry below row k is a minor
    of order k + 1, so the division by the previous pivot is exact.  A
    row swap flips the sign, and a column with no nonzero entry on or
    below the diagonal makes the determinant zero.
    """
    K = _kernel(field)
    m = [[K.to(c) for c in row] for row in rows]
    n = len(m)
    negate = False
    prev = None
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return []
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            negate = not negate
        top = m[k]
        akk = top[k]
        for row in m[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n):
                t = K.mul(akk, row[j])
                if aik:
                    t = K.sub(t, K.mul(aik, top[j]))
                row[j] = t if prev is None else K.divmod(t, prev)[0]
        prev = akk
    d = m[-1][-1] if n else [K.one]
    return K.back(K.sub([], d) if negate else d)


# ---------------------------------------------------------------------------
# roots, irreducibility and factoring, written once over a kernel


def count_roots(field, a):
    """Number of distinct roots in the field itself."""
    K = _kernel(field)
    a = K.to(a)
    if len(a) < 2:
        return 0
    return len(_linear_part(K, a)) - 1


def roots(field, a):
    """Distinct roots in the field, sorted by the field's enumeration index.

    The coefficients of a lie in the field itself or in a subfield F_q of
    it; the roots are taken in the field either way.
    """
    a = trim(a)
    if not a:
        raise ValueError("every field element is a root of the zero polynomial")
    if len(a) == 1:
        return []
    K = _kernel(field)
    rng = random.Random(_SPLIT_SEED)
    found = []
    base = a[-1].field
    if base != field and all(c.field is base or c.field == base for c in a):
        B = _kernel(base)
        _roots_of_subfield_poly(field, B, base.n, B.to(a), rng, found)
    elif field.n > 1 and not any(any(c.coeffs[1:]) for c in a):
        P = _Ints(field.p)
        _roots_of_subfield_poly(field, P, 1, P.to(a), rng, found)
    else:
        _split_linear(K, _linear_part(K, K.to(a)), rng, found)
    found.sort(key=K.key)
    return K.back(found)


def _roots_of_subfield_poly(field, B, nb, a, rng, found):
    """Append the roots in flat F_{p^n} of a, in the kernel B of a subfield F_{p^nb}.

    They are the roots of the irreducible factors of a over the subfield
    whose degree d divides n / nb, so a is factored there first (on the
    int kernel when the subfield is F_p); a linear factor gives its root
    directly.  Over F_{p^2} an F_p-irreducible quadratic factor gives its
    two roots in closed form (``_quadratic_roots``); only the other
    factors with d >= 2 are split, in the subfield F_{p^(nb d)} of
    F_{p^n} that holds their roots.
    """
    E = _Elements(field)
    n = field.n
    for g, _mult in _squarefree_decomposition(B, a):
        for h in _factor_squarefree(B, g, rng):
            d = len(h) - 1
            if d == 1:
                found.append(field.element(B.root(h)))
            elif n == 2 and nb == 1 and d == 2:
                found.extend(field.element(r) for r in _quadratic_roots(field, h))
            elif n % (nb * d) == 0:
                _split_linear(E, [field.element(c) for c in h], rng, found, nb * d)


def _quadratic_roots(field, h):
    """Both roots in flat F_{p^2} of an F_p-irreducible monic quadratic, as coefficient pairs.

    For h = x^2 + b x + c they are (-b +- sqrt(D))/2 with D = b^2 - 4c.
    With the field's modulus t^2 + m1 t + m0, the element 2t + m1
    squares to M = m1^2 - 4 m0; D and M are both non-squares mod p, so
    D/M has a square root r mod p and sqrt(D) = r (2t + m1).
    """
    p = field.p
    m0, m1 = field.modulus[0], field.modulus[1]
    c, b = h[0], h[1]
    r = _sqrt_mod((b * b - 4 * c) * pow(m1 * m1 - 4 * m0, p - 2, p) % p, p)
    half = (p + 1) // 2
    return [((-b + r * m1) * half % p, r), ((-b - r * m1) * half % p, -r % p)]


def _linear_part(K, a):
    """gcd(x^q - x, a): the product of the distinct linear factors of a."""
    return K.gcd(K.sub(pow_mod(K, K.x, K.q, a), K.x), a)


def _split_linear(K, g, rng, out, sub=0):
    """Append the roots of g, a product of distinct monic linear factors.

    (x + delta)^((q-1)/2) - 1 vanishes at the roots r with r + delta a
    nonzero square, so its gcd with g splits g when that holds for some
    roots and not for others.  About half of all shifts split a given
    pair of roots, but over F_{p^n} no shift from F_p splits two roots in
    F_p, so delta is drawn from the whole field.  With ``sub`` = s > 0
    every root lies in the subfield F_{p^s} of F_{p^n}: q is then p^s,
    and delta is the trace down to F_{p^s} of a random element, which is
    uniform on F_{p^s}.
    """
    d = len(g) - 1
    if d < 1:
        return
    if d == 1:
        out.append(K.root(g))
        return
    q = K.p ** sub if sub else K.q
    e = (q - 1) // 2
    while True:
        delta = K.random(rng)
        if sub:
            z = delta
            for _ in range(K.field.n // sub - 1):
                z = z ** q
                delta = delta + z
        h = pow_mod(K, [delta, K.one], e, g)
        w = K.gcd(K.sub(h, [K.one]), g)
        if 0 < len(w) - 1 < d:
            _split_linear(K, w, rng, out, sub)
            _split_linear(K, K.divmod(g, w)[0], rng, out, sub)
            return


def is_squarefree(field, a):
    K = _kernel(field)
    a = K.to(a)
    if len(a) < 2:
        return True
    d = K.derivative(a)
    return bool(d) and len(K.gcd(a, d)) == 1


def is_irreducible(field, a):
    """Rabin's irreducibility test over the field."""
    K = _kernel(field)
    return _is_irreducible(K, K.to(a))


def _is_irreducible(K, a):
    d = len(a) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if not a[0]:
        return False
    a = K.monic(a)
    x = K.x
    # b_i = x^(q^i) mod a, by iterated q-th powering
    b = x
    powers = {}
    for i in range(1, d + 1):
        b = pow_mod(K, b, K.q, a)
        powers[i] = b
    if K.sub(powers[d], x):
        return False
    return all(len(K.gcd(K.sub(powers[d // r], x), a)) == 1
               for r in _prime_divisors(d))


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_decomposition(field, a):
    """Return [(g_i, m_i)] with a = lc * prod g_i^m_i, g_i monic squarefree, coprime."""
    K = _kernel(field)
    return [(K.back(g), m) for g, m in _squarefree_decomposition(K, K.to(a))]


def _squarefree_decomposition(K, a):
    if len(a) < 2:
        return []
    a = K.monic(a)
    out = []
    multiplier = 1
    while len(a) > 1:
        d = K.derivative(a)
        if not d:
            a = K.pth_root(a)
            multiplier *= K.p
            continue
        u = K.gcd(a, d)
        v = K.divmod(a, u)[0]  # product of factors with mult not divisible by p
        k = 0
        while len(v) > 1:
            k += 1
            w = K.gcd(u, v)
            piece = K.divmod(v, w)[0]
            if len(piece) > 1:
                out.append((piece, k * multiplier))
            v = w
            u = K.divmod(u, w)[0]
        a = u
    return out


def factor(field, a):
    """Full factorization into monic irreducibles: returns (unit, [(g, mult)]).

    Squarefree, then distinct-degree, then equal-degree splitting.  The
    pieces are sorted by degree and then by the enumeration indices of
    their coefficients, so the result does not depend on the split
    draws.
    """
    K = _kernel(field)
    a = K.to(a)
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(_SPLIT_SEED)
    pieces = [(h, m) for g, m in _squarefree_decomposition(K, a)
              for h in _factor_squarefree(K, g, rng)]
    pieces.sort(key=lambda gm: (len(gm[0]), [K.key(c) for c in gm[0]]))
    unit = K.back([a[-1]])[0]
    return unit, [(K.back(g), m) for g, m in pieces]


def _factor_squarefree(K, a, rng):
    """Monic irreducible factors of a squarefree monic a, degree by degree."""
    out = []
    x = K.x
    b = x
    d = 0
    rest = a
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append(rest)
            break
        b = pow_mod(K, b, K.q, rest)
        g = K.gcd(K.sub(b, x), rest)
        if len(g) > 1:
            _equal_degree_split(K, g, d, rng, out)
            rest = K.divmod(rest, g)[0]
            b = K.divmod(b, rest)[1]
    return out


def _equal_degree_split(K, g, d, rng, out):
    """Append the factors of g, a squarefree monic product of degree-d irreducibles.

    A random polynomial t of degree below deg g splits g by
    gcd(g, t^((q^d - 1)/2) - 1) with probability about one half.
    """
    n = len(g) - 1
    if n == d:
        out.append(g)
        return
    e = (K.q ** d - 1) // 2
    while True:
        t = K.trim([K.random(rng) for _ in range(n)])
        if len(t) < 2:
            continue
        w = K.gcd(K.sub(pow_mod(K, t, e, g), [K.one]), g)
        if 0 < len(w) - 1 < n:
            _equal_degree_split(K, w, d, rng, out)
            _equal_degree_split(K, K.divmod(g, w)[0], d, rng, out)
            return


# ---------------------------------------------------------------------------
# kernels: the polynomial form the routines above compute in
#
# Every kernel list is trimmed.  ``to`` converts a list of field elements
# into kernel form, ``back`` converts kernel-form coefficients back.


def _kernel(field):
    """Int lists mod p for a prime field, lists of field elements otherwise."""
    if field.is_field and field.n == 1:
        return _Ints(field.p, field)
    return _Elements(field)


class _Kernel:
    __slots__ = ()


class _Ints(_Kernel):
    """Int lists mod p: the prime-field kernel."""

    __slots__ = ("p", "q", "field", "one", "x")

    def __init__(self, p, field=None):
        self.p = self.q = p
        self.field = field
        self.one = 1
        self.x = [0, 1]

    def to(self, a):
        return _vtrim([c.coeffs[0] for c in a])

    def back(self, a):
        element = self.field.element
        return [element(c) for c in a]

    def trim(self, a):
        return _vtrim(a)

    def sub(self, a, b):
        return _vtrim(_vsub(a, b, self.p))

    def mul(self, a, b):
        return _vmul(a, b, self.p)

    def divmod(self, a, b):
        q, r = _vdivmod(a, b, self.p)
        return _vtrim(q), r

    def gcd(self, a, b):
        return _vgcd(a, b, self.p)

    def pow_mod(self, a, e, m):
        return _vpowmod(a, e, m, self.p)

    def monic(self, a):
        p = self.p
        inv = pow(a[-1], p - 2, p)
        return [c * inv % p for c in a]

    def derivative(self, a):
        p = self.p
        return _vtrim([i * a[i] % p for i in range(1, len(a))])

    def pth_root(self, a):
        # a(x) = b(x^p), and every element of F_p is its own p-th root
        return a[::self.p]

    def random(self, rng):
        return rng.randrange(self.p)

    def root(self, g):
        p = self.p
        return -g[0] * pow(g[1], p - 2, p) % p

    def key(self, c):
        return c


class _Elements(_Kernel):
    """Lists of field elements: the kernel for every field that is not prime."""

    __slots__ = ("field", "p", "q", "one", "x")

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.q = field.q
        self.one = field.one
        self.x = x_poly(field)

    def to(self, a):
        return trim(a)

    def back(self, a):
        return a

    def trim(self, a):
        return trim(a)

    def sub(self, a, b):
        return sub(self.field, a, b)

    def mul(self, a, b):
        return mul(self.field, a, b)

    def divmod(self, a, b):
        return divmod_(self.field, a, b)

    def gcd(self, a, b):
        field = self.field
        while b:
            a, b = b, rem(field, a, b)
        return monic(field, a)

    def pow_mod(self, a, e, m):
        field = self.field
        result = [field.one]
        base = rem(field, a, m)
        while e > 0:
            if e & 1:
                result = rem(field, mul(field, result, base), m)
            base = rem(field, mul(field, base, base), m)
            e >>= 1
        return result

    def monic(self, a):
        return monic(self.field, a)

    def derivative(self, a):
        return derivative(self.field, a)

    def pth_root(self, a):
        # a(x) = b(x^p); c -> c^(p^(n-1)) inverts the absolute Frobenius
        root_exp = self.p ** (self.field.n - 1)
        return trim([c ** root_exp for c in a[::self.p]])

    def random(self, rng):
        return self.field.element_at(rng.randrange(self.q))

    def root(self, g):
        return -g[0] * g[1].inverse()

    def key(self, c):
        return self.field.index_of(c)


# ---------------------------------------------------------------------------
# int-list arithmetic mod p, also the arithmetic ff builds prime-power
# fields on; lists are little-endian and need not be trimmed on the way in


def _vtrim(a):
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _vsub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return out


def _vmul(a, b, p):
    a = _vtrim(a)
    b = _vtrim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out]


def _vdivmod(a, b, p):
    a = _vtrim(list(a))
    b = _vtrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[db], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    r = list(a)
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db] * inv % p
        if c:
            q[i] = c
            for j in range(db + 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return q, _vtrim(r)


def _vrem(a, b, p):
    return _vdivmod(a, b, p)[1]


def _vpowmod(a, e, m, p):
    m = _vtrim(m)
    inv = pow(m[-1], p - 2, p)
    m = [c * inv % p for c in m]  # a monic modulus leaves the same remainders
    result = [1]
    base = _vrem(a, m, p)
    while e > 0:
        if e & 1:
            result = _vmulmod(result, base, m, p)
        e >>= 1
        if e:
            base = _vmulmod(base, base, m, p)
    return result


def _vmulmod(a, b, m, p):
    """a*b mod a monic m, reducing mod p once per coefficient."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    dm = len(m) - 1
    for i in range(len(out) - 1, dm - 1, -1):
        c = out[i] % p
        if c:
            k = i - dm
            for j in range(dm):
                out[k + j] -= c * m[j]
    return _vtrim([c % p for c in out[:dm]])


def _vgcd(a, b, p):
    a, b = _vtrim(list(a)), _vtrim(list(b))
    while b:
        a, b = b, _vrem(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _vxgcd(a, b, p):
    r0, r1 = _vtrim(list(a)), _vtrim(list(b))
    u0, u1 = [1], []
    while r1:
        q, r = _vdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _vsub(u0, _vmul(q, u1, p), p)
    return r0, _vtrim(u0)


def _sqrt_mod(a, p):
    """A square root of the int a mod p by Tonelli-Shanks, or None for a non-square.

    The root is a^((p+1)/4) when p = 3 mod 4; otherwise the smallest
    non-square mod p drives the search.
    """
    a %= p
    if not a:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s, t = 0, p - 1
    while t % 2 == 0:
        t //= 2
        s += 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m = s
    c = pow(z, t, p)
    r = pow(a, (t + 1) // 2, p)
    u = pow(a, t, p)
    while u != 1:
        i = 0
        probe = u
        while probe != 1:
            probe = probe * probe % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        u = u * c % p
        r = r * b % p
    return r


def _v_irreducible(f, p):
    """Rabin's test for an int list over F_p."""
    return _is_irreducible(_Ints(p), _vtrim(list(f)))
