"""Dense univariate polynomials over finite fields, and each ring's arithmetic object.

``kernel(ring)`` fixes, once per ring object, the form its coefficients
compute in: ints mod p over F_p (``_Ints``), coefficient tuples under
the field's ``_add``, ``_mul`` and ``_inv`` over F_{p^n} with n > 1
(``_Tuples``), the elements themselves over the order (``_Kernel``).
``mpoly`` computes its terms on these scalars.  Over a field a
polynomial is a trimmed little-endian list of scalars, and the kernel's
polynomial methods let root finding, gcd, modular powers,
irreducibility and factoring below be written once; modular powers over
F_p are Kronecker-packed, one big-int product per squaring
(``_vpowmod``).  ``kernel_det`` (Bareiss) and ``kernel_resultant``
(Euclid) give ``mpoly`` its Sylvester resultants on kernel rows, which
over larger F_p it interpolates from scalar ones (``interpolate``).

The functions that take a field and lists of its elements convert them
once.  Roots have one kernel-level entry, ``kernel_roots``, and root
counts one, ``kernel_count_roots``; ``mpoly.PlaneSlices`` calls them on
the plane slices that point search and the certificates solve, so a
slice stays in its field's form from its rows to its roots.

Over F_p with p below ``_SCAN_CAP`` the roots in F_p itself are not
split off at all: ``_scan`` evaluates the polynomial at every x in F_p
at once, as one sum of the packed ints P_k that hold x^k mod p in a
32-bit slot per x (built once per prime, up to the largest degree asked
for), and keeps the x whose slot p divides.  ``kernel_roots``,
``kernel_count_roots`` and the degree-1 step of ``_factor_squarefree``
use it; the last divides the linear factors out one by one and computes
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
a subfield (F_p, which ``kernel_roots`` detects for every caller, or a
field F_q passed as the coefficients' own field) is first factored over
that subfield, on the int kernel for F_p.  Over
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

import functools
import itertools
import operator
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


def mul(field, a, b):
    """The product of two lists of field elements."""
    K = kernel(field)
    return K.back(K.product(K.to(a), K.to(b)))


def pow_mod(K, a, e, m):
    """a^e mod m in the form of the field kernel K (see ``kernel``), e a nonnegative int.

    The root and factor routines take every modular power through this
    function, so its call count measures their splitting work.
    """
    return K.pow_mod(a, e, m)


def resultant(field, a, b):
    """Exact resultant of two univariate polynomials over a field."""
    K = kernel(field)
    r = kernel_resultant(K, K.to(a), K.to(b))
    return K.back(r)[0] if r else field.zero


def kernel_resultant(K, a, b):
    """Res(a, b) of trimmed lists in the form of K, as [] or [c], by Euclid's algorithm.

    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) with
    r = a mod b, down to Res(a, c) = c^(deg a) for a constant c.  The
    power of the leading coefficients builds up in one scalar.
    """
    if not a or not b:
        return []
    mul, norm = K.mul, K.norm
    acc, negate = K.one, False
    while len(b) > 1:
        r = K.rem(a, b)
        if not r:
            return []
        negate ^= (len(a) - 1) * (len(b) - 1) % 2 == 1
        for _ in range(len(a) - len(r)):
            acc = norm(mul(acc, b[-1]))
        a, b = b, r
    for _ in range(len(a) - 1):
        acc = norm(mul(acc, b[0]))
    return K.sub([], [acc]) if negate else [acc]


def kernel_det(K, m):
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
                t = K.product(akk, row[j])
                if aik:
                    t = K.sub(t, K.product(aik, top[j]))
                row[j] = t if prev is None else K.divmod(t, prev)[0]
        prev = akk
    d = m[-1][-1] if n else [K.one]
    return K.sub([], d) if negate else d


# ---------------------------------------------------------------------------
# roots, irreducibility and factoring, written once over a kernel


def kernel_count_roots(K, a):
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
    K = kernel(base if all(c.field is base or c.field == base for c in a) else field)
    return kernel_roots(field, K, K.to(a))


def kernel_roots(field, K, a):
    """Distinct roots in ``field`` of a nonconstant a, sorted by enumeration index.

    a is in the form of the kernel K of ``field`` itself or of a subfield
    of it.  When K's field is not prime but every coefficient of a lies in
    F_p, a is taken to the int kernel first.  Over the field itself the
    roots are split off gcd(x^q - x, a); over a proper subfield see
    ``_roots_of_subfield_poly``.
    """
    if K.n > 1 and not any(any(c[1:]) for c in a):
        K, a = _Ints(K.p), [c[0] for c in a]
    if K.ring == field and _scans(K, a):
        return K.back(_scan(K.p, a))
    rng = random.Random(_SPLIT_SEED)
    found = []
    if K.ring == field:
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
    F_{p^n} that holds their roots.  Scalars of B go to ``field`` as
    elements of the subfield, which ``field.element`` embeds: a bare
    tuple would be read in the basis of ``field``.
    """
    E = kernel(field)
    nb = B.n
    n = field.n

    def embedded(h):
        return [field.element(c) for c in (B.back(h) if nb > 1 else h)]

    for g, _mult in _squarefree_decomposition(B, a):
        for h in _factor_squarefree(B, g, rng):
            d = len(h) - 1
            if d == 1:
                found.extend(embedded([B.root(h)]))
            elif n == 2 and nb == 1 and d == 2:
                found.extend(field.element(r) for r in _quadratic_roots(field, h))
            elif n % (nb * d) == 0:
                split = []
                _split_linear(E, E.to(embedded(h)), rng, split, nb * d)
                found.extend(E.back(split))


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
            for _ in range(K.n // sub - 1):
                z = K.power(z, q)
                delta = K.add(delta, z)
        h = pow_mod(K, [delta, K.one], e, g)
        w = K.gcd(K.sub(h, [K.one]), g)
        if 0 < len(w) - 1 < d:
            _split_linear(K, w, rng, out, sub)
            _split_linear(K, K.divmod(g, w)[0], rng, out, sub)
            return


def is_irreducible(field, a):
    """Rabin's irreducibility test over the field."""
    K = kernel(field)
    return _is_irreducible(K, K.to(a))


def _is_irreducible(K, a):
    d = len(a) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if a[0] == K.zero:
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
    K = kernel(field)
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
    K = kernel(field)
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
# kernels: the arithmetic object of each coefficient ring

#: id of a ring -> its kernel, which keeps the ring, and so its id, alive; a
#: few suffice, since a lift's reduction lies over the curve's own field
#: (``OkRing.for_field``), so the curves over one field share one kernel
_KERNELS = {}


def kernel(ring):
    """The arithmetic object of a coefficient ring, built once per ring object."""
    K = _KERNELS.get(id(ring))
    if K is None:
        if len(_KERNELS) > 8:
            _KERNELS.clear()
        if not getattr(ring, "is_field", False):
            K = _Kernel(ring)
        elif ring.n == 1:
            K = _Ints(ring.p, ring)
        else:
            K = _Tuples(ring)
        _KERNELS[id(ring)] = K
    return K


class _Kernel:
    """A ring's scalar form; this base is the order's, its elements as they are.

    ``scalar`` takes an element of the ring, or of a subfield that embeds
    in it, to a scalar, and ``element`` a reduced scalar back.  ``add``
    and ``mul`` may leave a scalar unreduced and ``norm`` reduces it, so
    over F_p, where they are the int builtins, a sum of products is
    reduced once, at the end of an operation.
    """

    __slots__ = ("ring", "scalar", "element", "add", "mul", "norm", "zero", "one")

    def __init__(self, ring):
        self.ring = ring
        self.scalar = self.element = self.norm = lambda c: c
        self.add, self.mul = operator.add, operator.mul
        self.zero, self.one = ring.zero, ring.one

    def reduce(self, d):
        """The map of scalars d reduced, without its zeros."""
        norm, zero = self.norm, self.zero
        return {e: r for e, s in d.items() if (r := norm(s)) != zero}

    def terms(self, d):
        """The map of scalars d as polynomial terms: elements, without zeros."""
        element = self.element
        return {e: element(s) for e, s in self.reduce(d).items()}

    def evaluate(self, exps, terms, xs):
        """The sum of the (exponent, scalar) pairs ``terms`` at the scalars xs, unreduced.

        Each value's powers are built once, up to the largest of its
        exponents in ``exps``, the terms' exponent tuples.
        """
        mul, add = self.mul, self.add
        # no terms means no exponents, so no powers
        powers = [self.powers(x, k) for x, k in zip(xs, map(max, zip(*exps)))]
        acc = self.zero
        for e, t in terms:
            for pw, k in zip(powers, e):
                if k:
                    t = mul(t, pw[k])
            acc = add(acc, t)
        return acc

    def powers(self, x, k):
        """[1, x, ..., x^k], reduced."""
        pw = [self.one]
        for _ in range(k):
            pw.append(self.norm(self.mul(pw[-1], x)))
        return pw


class _Field(_Kernel):
    """A field's kernel: its scalar form and polynomials in it.

    A polynomial is a trimmed little-endian list of reduced scalars;
    ``to`` takes a list of elements to one and ``back`` returns the
    elements.  ``eval`` is Horner's rule, ``product`` the polynomial
    product, ``key`` orders scalars as the field enumerates its elements,
    ``random`` draws one element with one ``randrange``, and ``n`` is the
    field's degree over F_p.
    """

    __slots__ = ("p", "q", "n", "x")

    def to(self, a):
        return self.trim(list(map(self.scalar, a)))

    def back(self, a):
        return list(map(self.element, a))

    def trim(self, a):
        n, zero = len(a), self.zero
        while n > 0 and a[n - 1] == zero:
            n -= 1
        return a[:n]

    def gcd(self, a, b):
        """The monic gcd, by Euclid's algorithm."""
        while b:
            a, b = b, self.rem(a, b)
        return self.monic(a) if a else a

    def pow_mod(self, a, e, m):
        """a^e mod m by square-and-multiply."""
        m = self.monic(m)  # a monic modulus leaves the same remainders
        result, base = [self.one], self.rem(a, m)
        while e:
            if e & 1:
                result = self.rem(self.product(result, base), m)
            e >>= 1
            if e:
                base = self.rem(self.product(base, base), m)
        return result


class _Ints(_Field):
    """Ints mod p: the prime-field kernel.

    Without a field it takes the F_p coefficients of a polynomial over
    F_{p^n} (``kernel_roots``) and tests moduli, and has no ``element``.
    """

    __slots__ = ()

    def __init__(self, p, ring=None):
        self.ring = ring
        self.p = self.q = p
        self.n = 1
        self.zero, self.one, self.x = 0, 1, [0, 1]
        self.add, self.mul, self.norm = operator.add, operator.mul, p.__rmod__
        self.scalar = lambda c: c.coeffs[0]
        if ring is not None:
            from .ff import FqElement  # ff builds its fields on this module
            self.element = lambda s: FqElement(ring, (s,))

    def eval(self, a, u):
        acc = 0
        for c in reversed(a):
            acc = acc * u + c
        return acc % self.p

    def sub(self, a, b):
        return _vtrim(_vsub(a, b, self.p))

    def product(self, a, b):
        return _vmul(a, b, self.p)

    def divmod(self, a, b):
        return _vdivmod(a, b, self.p)

    def rem(self, a, b):
        return _vrem(a, b, self.p)

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


class _Tuples(_Field):
    """Coefficient tuples under the field's own arithmetic: the kernel of F_{p^n}, n > 1.

    A scalar is an element's ``coeffs``, always reduced, so ``norm`` is
    the identity.  Zero is the all-zero tuple, which is truthy, so every
    zero test compares with ``zero``.
    """

    __slots__ = ("_inv", "_neg", "_pad")

    def __init__(self, field):
        from .ff import FqElement  # ff builds its fields on this module
        self.ring, self.p, self.q, self.n = field, field.p, field.q, field.n
        self.zero, self.one = field.zero.coeffs, field.one.coeffs
        self.x = [self.zero, self.one]
        self.add, self.mul, self.norm = field._add, field._mul, lambda s: s
        self._inv, self._neg, self._pad = field._inv, field._neg, (0,) * (field.n - 1)
        self.scalar, self.element = self._vector, functools.partial(FqElement, field)

    def _vector(self, c):
        if c.field is self.ring:
            return c.coeffs
        if c.field.n == 1 and c.field.p == self.p:
            return c.coeffs + self._pad  # the prime subfield, padded
        return self.ring.element(c).coeffs

    def eval(self, a, u):
        add, mul = self.add, self.mul
        acc = self.zero
        for c in reversed(a):
            acc = add(mul(acc, u), c)
        return acc

    def sub(self, a, b):
        p = self.p
        return self.trim([tuple((x - y) % p for x, y in zip(c, d))
                          for c, d in itertools.zip_longest(a, b, fillvalue=self.zero)])

    def product(self, a, b):
        if not a or not b:
            return []
        add, mul, zero = self.add, self.mul, self.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c != zero:
                for j, d in enumerate(b):
                    out[i + j] = add(out[i + j], mul(c, d))
        return out

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        add, mul, zero = self.add, self.mul, self.zero
        db = len(b) - 1
        inv = None if b[db] == self.one else self._inv(b[db])
        minus_b = [self._neg(c) for c in b[:db]]
        q, r = [zero] * max(len(a) - db, 0), list(a)
        for i in range(len(a) - db - 1, -1, -1):
            c = r[i + db] if inv is None else mul(r[i + db], inv)
            if c != zero:
                q[i] = c
                for j, d in enumerate(minus_b):
                    r[i + j] = add(r[i + j], mul(c, d))
        # each step cancels r[i + db], so the remainder is what lies below db
        return self.trim(q), self.trim(r[:db])

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def monic(self, a):
        mul, inv = self.mul, self._inv(a[-1])
        return [mul(c, inv) for c in a]

    def derivative(self, a):
        p = self.p
        return self.trim([tuple(i * x % p for x in a[i]) for i in range(1, len(a))])

    def pth_root(self, a):
        # a(x) = b(x^p); c -> c^(p^(n-1)) inverts the absolute Frobenius
        root_exp = self.p ** (self.n - 1)
        return self.trim([self.power(c, root_exp) for c in a[::self.p]])

    def power(self, c, e):
        return (self.element(c) ** e).coeffs

    def random(self, rng):
        return self.ring.element_at(rng.randrange(self.q)).coeffs

    def root(self, g):
        return self.mul(self._neg(g[0]), self._inv(g[1]))

    def key(self, c):
        # the enumeration index reads the tuple as base-p digits, last digit first
        return c[::-1]


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
    return _vtrim(q), _vtrim(r)


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


def interpolate(ys, p):
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
