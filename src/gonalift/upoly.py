"""Dense univariate polynomial arithmetic over an arbitrary field object.

Polynomials are plain Python lists of field elements, little-endian
(index i holds the coefficient of x^i).  The zero polynomial is the
empty list.  Every function takes the field as its first argument; the
field must provide ``zero``, ``one``, ``element`` and, for the
root/factor routines, ``q``, ``p``, ``n``, ``element_at`` and
``index_of``; in the package that is ``ff.FqField``, prime or flat
F_{p^n}.

Root finding, gcd, modular powers, irreducibility and factoring run
on one kernel per field kind: over a prime field the polynomials become
int lists mod p once, on the way in, and field elements again on the
way out (``_Ints``); over every other field they stay lists of elements
(``_Elements``).  Both kernels offer the same methods (``sub``, ``mul``,
``divmod``, ``rem``, ``gcd``, ``pow_mod``, ...), so each algorithm is
written once.  ``_det`` is Bareiss's fraction-free elimination on a
matrix of kernel lists in one variable, and ``_resultant`` Euclid's
resultant; ``mpoly`` computes its Sylvester resultants, on kernel rows,
with the first over small fields and interpolates them from values of
the second (``_vinterpolate``) over larger F_p.
Modular powers over F_p keep the polynomial as one int with a slot per
coefficient (Kronecker substitution, ``_vpowmod``), so each squaring is
a single big-int product.

Roots have one entry on the kernel, ``_roots``, and root counts one,
``_count_roots``: ``roots`` and ``count_roots`` convert their input and
call them.  Outside this module only ``mpoly`` works in kernel form: its
bivariate gcd and resultants, and ``mpoly.PlaneSlices``, which holds the
plane slices that point search and the certificates solve, eliminates
their second variable, folds their gcds at a point or over F_q[x]/(m),
and calls ``_roots`` and ``_count_roots`` on them, so over F_p a slice
stays on ints from its rows to its roots.

Over F_p with p below ``_SCAN_CAP`` the roots in F_p itself are not
split off at all: ``_scan`` evaluates the polynomial at every x in F_p
at once, as one sum of the packed ints P_k that hold x^k mod p in a
32-bit slot per x (built once per prime, up to the largest degree asked
for), and keeps the x whose slot p divides.  ``_roots``,
``_count_roots`` and the degree-1 step of ``_factor_squarefree`` use
it; the last divides the linear factors out one by one and computes
x^p modulo the cofactor only when that has degree 4 or more.  The
scan's cost grows with p and the splitting's does not.  Per random
monic slice, best of 5 over 200, on a 2-core x86-64 host (scan against
gcd(x^p - x, a) and splitting, in us):

    degree   p = 127     509       521       769       911       1009
    2        14 / 45     38 / 55   39 / 49   59 / 50   70 / 58   79 / 59
    4         9 / 56     40 / 65   42 / 67   61 / 65   73 / 69   85 / 74
    14       13 / 158    55 / 201  56 / 179  77 / 174  92 / 195  105 / 203

So the crossover lies near p = 650 for quadratics and 880 for
quartics; below the cap of 512 the scan takes at most 0.7 of the
splitting's time at every degree measured.

Everywhere else roots are split off by Cantor-Zassenhaus (von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 14) with shifts
drawn from the whole field by a ``random.Random`` under a fixed seed,
local to each call.
Over a flat F_{p^n} with n >= 2, a polynomial whose coefficients lie in
a subfield (F_p, which ``_roots`` detects for every caller, or a field
F_q passed as the coefficients' own field) is first factored over that
subfield, on the int kernel for F_p.  Over
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
import sys

#: seed of the split draws; any value gives the same output
_SPLIT_SEED = 1605_02162

#: primes below this take their roots in F_p by ``_scan``; its crossover
#: with splitting, measured in the module docstring, lies near 650 and above
_SCAN_CAP = 512

#: p -> [P_0, P_1, ...], the packed powers ``_scan`` sums, grown on demand
_POWERS = {}


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


def x_poly(field):
    return [field.zero, field.one]


def add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return trim(out)


def sub(field, a, b):
    return add(field, a, [-c for c in b])


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
    K = _kernel(field)
    r = _resultant(K, K.to(a), K.to(b))
    return K.back(r)[0] if r else field.zero


def _resultant(K, a, b):
    """Res(a, b) of trimmed lists in the form of K, as [] or [c], by Euclid's algorithm.

    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) with
    r = a mod b, down to Res(a, c) = c^(deg a) for a constant c.
    """
    if not a or not b:
        return []
    acc, negate = [K.one], False
    while len(b) > 1:
        r = K.rem(a, b)
        if not r:
            return []
        negate ^= (len(a) - 1) * (len(b) - 1) % 2 == 1
        for _ in range(len(a) - len(r)):
            acc = K.mul(acc, b[-1:])
        a, b = b, r
    for _ in range(len(a) - 1):
        acc = K.mul(acc, b)
    return K.sub([], acc) if negate else acc


def _det(K, m):
    """Determinant of a square matrix of lists in u, in the form of K, which it overwrites.

    Bareiss's fraction-free elimination (Bareiss, *Math. Comp.* 22, 1968)
    keeps every entry in F[u]: after step k each entry below row k is a
    minor of order k + 1, so the division by the previous pivot is exact.
    A row swap flips the sign, and a column with no nonzero entry on or
    below the diagonal makes the determinant zero.
    """
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
    return K.sub([], d) if negate else d


# ---------------------------------------------------------------------------
# roots, irreducibility and factoring, written once over a kernel


def count_roots(field, a):
    """Number of distinct roots in the field itself."""
    K = _kernel(field)
    return _count_roots(K, K.to(a))


def _count_roots(K, a):
    """Number of distinct roots of a, in the form of K, in K's own field."""
    if len(a) < 2:
        return 0
    if _scans(K, a):
        return len(_scan(K.p, a))
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
    base = a[-1].field
    K = _kernel(base if all(c.field is base or c.field == base for c in a) else field)
    return _roots(field, K, K.to(a))


def _roots(field, K, a):
    """Distinct roots in ``field`` of a nonconstant a, sorted by enumeration index.

    a is in the form of the kernel K of ``field`` itself or of a subfield
    of it.  When K's field is not prime but every coefficient of a lies in
    F_p, a is taken to the int kernel first.  Over the field itself the
    roots are split off gcd(x^q - x, a); over a proper subfield see
    ``_roots_of_subfield_poly``.
    """
    if K.n > 1 and not any(any(c.coeffs[1:]) for c in a):
        K, a = _Ints(field.p), [c.coeffs[0] for c in a]
    if K.field == field and _scans(K, a):
        return K.back(_scan(K.p, a))
    rng = random.Random(_SPLIT_SEED)
    found = []
    if K.field == field:
        _split_linear(K, _linear_part(K, a), rng, found)
        found.sort(key=K.key)
        return K.back(found)
    _roots_of_subfield_poly(field, K, a, rng, found)
    found.sort(key=field.index_of)
    return found


def _roots_of_subfield_poly(field, B, a, rng, found):
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
    nb = B.n
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


def _scans(K, a):
    """Whether ``_scan`` takes the roots of a: F_p below the cap, slots that cannot overflow."""
    return type(K) is _Ints and K.p < _SCAN_CAP and len(a) * (K.p - 1) ** 2 < 1 << 32


def _scan(p, a):
    """The distinct roots in F_p of the int list a, ascending, by evaluating a at every x.

    S = sum_k a_k P_k, with P_k holding x^k mod p in the 32-bit slot x,
    holds a(x) in slot x, below len(a) (p - 1)^2 < 2^32 (``_scans``).
    Packing and reading back both take the native byte order, so slot x
    is the x-th unsigned int of S's bytes on either endianness.
    """
    table = _POWERS.setdefault(p, [])
    order = sys.byteorder
    while len(table) < len(a):
        k = len(table)
        table.append(int.from_bytes(b"".join(pow(x, k, p).to_bytes(4, order)
                                             for x in range(p)), order))
    s = sum(c * t for c, t in zip(a, table) if c)
    slots = memoryview(s.to_bytes(4 * p, order)).cast("I")
    return [x for x, v in enumerate(slots) if not v % p]


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
    if _scans(K, a):
        # the linear factors by one scan; x^q mod rest only when the loop needs it
        p = K.p
        for r in _scan(p, a):
            out.append([-r % p, 1])
            rest = K.divmod(rest, out[-1])[0]
        d = 1
        if len(rest) > 4:
            b = pow_mod(K, x, K.q, rest)
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
# into kernel form, ``scalar`` one element, and ``back`` converts
# kernel-form coefficients back; ``eval`` is Horner's rule in kernel form.
# ``n`` is the degree of the kernel's field over F_p.


def _kernel(field):
    """Int lists mod p for a prime field, lists of field elements otherwise."""
    if field.is_field and field.n == 1:
        return _Ints(field.p, field)
    return _Elements(field)


class _Kernel:
    __slots__ = ()


class _Ints(_Kernel):
    """Int lists mod p: the prime-field kernel."""

    __slots__ = ("p", "q", "n", "field", "one", "x")

    def __init__(self, p, field=None):
        self.p = self.q = p
        self.n = 1
        self.field = field
        self.one = 1
        self.x = [0, 1]

    def to(self, a):
        return _vtrim([c.coeffs[0] for c in a])

    def scalar(self, c):
        return c.coeffs[0]

    def back(self, a):
        element = self.field.element
        return [element(c) for c in a]

    def trim(self, a):
        return _vtrim(a)

    def eval(self, a, u):
        acc = 0
        for c in reversed(a):
            acc = acc * u + c
        return acc % self.p

    def sub(self, a, b):
        return _vtrim(_vsub(a, b, self.p))

    def mul(self, a, b):
        return _vmul(a, b, self.p)

    def divmod(self, a, b):
        q, r = _vdivmod(a, b, self.p)
        return _vtrim(q), r

    def rem(self, a, b):
        return _vrem(a, b, self.p)

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

    __slots__ = ("field", "p", "q", "n", "one", "x")

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.q = field.q
        self.n = field.n
        self.one = field.one
        self.x = x_poly(field)

    def to(self, a):
        return trim(a)

    def scalar(self, c):
        return c

    def back(self, a):
        return a

    def trim(self, a):
        return trim(a)

    def eval(self, a, u):
        return eval_in(self.field, a, u)

    def sub(self, a, b):
        return sub(self.field, a, b)

    def mul(self, a, b):
        return mul(self.field, a, b)

    def divmod(self, a, b):
        return divmod_(self.field, a, b)

    def rem(self, a, b):
        return rem(self.field, a, b)

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
    """The remainder of ``_vdivmod`` without the quotient; a monic b takes no inverse."""
    r = _vtrim(list(a))
    b = _vtrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = 1 if b[db] == 1 else pow(b[db], p - 2, p)
    for i in range(len(r) - db - 1, -1, -1):
        c = r[i + db] * inv % p
        if c:
            for j in range(db + 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return _vtrim(r)


def _vpowmod(a, e, m, p):
    """a^e mod m over F_p, by left-to-right binary powering on packed ints.

    A polynomial of degree below d = deg m is kept as one int, its
    coefficients in w-bit slots (Kronecker substitution; von zur Gathen
    and Gerhard, *Modern Computer Algebra*, section 8.4), so each step is
    one big-int product.  The product's slots k = d .. 2d - 2 are reduced
    mod p and folded back with the packed x^k mod m, built once per call;
    a slot then holds at most (2d - 1)(p - 1)^2 < 2^w before the mod-p
    pass over the d low slots.  Left to right, every multiplying step is
    by the same base.
    """
    m = _vtrim(m)
    inv = pow(m[-1], p - 2, p)
    m = [c * inv % p for c in m]  # a monic modulus leaves the same remainders
    if e == 0:
        return [1]
    base = _vrem(a, m, p)
    if not base:
        return []
    d = len(m) - 1
    if d < 2:  # base is a nonzero constant
        return [pow(base[0], e, p)]
    w = ((2 * d - 1) * (p - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    low_bits = d * w
    low_mask = (1 << low_bits) - 1
    shifts = range((d - 1) * w, -1, -w)
    # x^k mod m for k = d .. 2d - 2, by shift-and-subtract
    r = [-c % p for c in m[:d]]
    table = [_vpack(r, w)]
    for _ in range(d - 2):
        top = r[-1]
        r = [-top * m[0] % p] + [(r[i - 1] - top * m[i]) % p for i in range(1, d)]
        table.append(_vpack(r, w))

    def reduce(t):
        low = t & low_mask
        t >>= low_bits
        for image in table:
            if not t:
                break
            c = (t & mask) % p
            if c:
                low += c * image
            t >>= w
        out = 0
        for s in shifts:
            out = (out << w) | (low >> s & mask) % p
        return out

    b = _vpack(base, w)
    acc = b
    for bit in bin(e)[3:]:
        acc = reduce(acc * acc)
        if bit == "1":
            acc = reduce(acc * b)
    return _vtrim([acc >> s & mask for s in reversed(shifts)])


def _vpack(a, w):
    """The int holding a's coefficients in w-bit slots, little-endian."""
    out = 0
    for c in reversed(a):
        out = (out << w) | c
    return out


def _vinterpolate(ys, p):
    """The trimmed int list of degree below len(ys) < p that takes ys[i] at u = i.

    Newton's divided differences on the nodes 0, 1, ..., whose level-k
    differences all divide by k, then Horner's rule in the Newton basis.
    """
    c = list(ys)
    for k in range(1, len(c)):
        inv = pow(k, p - 2, p)
        for i in range(len(c) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    out = []
    for k in range(len(c) - 1, -1, -1):
        # out * (u - k) + c_k
        out = [(a - k * b) % p for a, b in zip([c[k]] + out, out + [0])]
    return _vtrim(out)


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
