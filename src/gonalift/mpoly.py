"""Sparse multivariate polynomials over exact coefficient rings.

An ``MPoly`` stores a map from exponent tuples to nonzero coefficients
and belongs to a ``PolyRing`` (coefficient ring plus variable names).
Everything is immutable by convention and exact; the coefficient ring
can be a finite field or the number-ring order.  ``terms`` holds ring
elements, but the arithmetic runs on scalars of the ring's
``upoly.kernel``, which the ``PolyRing`` holds: coefficients are
converted once on entry, and elements are built only for the result.

The term order used for normalization, leading terms and printing is
graded lexicographic, everywhere.
"""

from __future__ import annotations

import operator

from . import linalg, upoly
from .errors import AllZero, InputError, ZeroInput


def _glex_key(e):
    return (sum(e), e)


class PolyRing:
    """Polynomial ring R[names] over an exact coefficient ring R.

    ``kernel`` is R's ``upoly.kernel``, on whose scalars every ``MPoly``
    of the ring computes.
    """

    __slots__ = ("coeff_ring", "names", "nvars", "kernel")

    def __init__(self, coeff_ring, names):
        self.coeff_ring = coeff_ring
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.kernel = upoly.kernel(coeff_ring)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, PolyRing) and self.coeff_ring == other.coeff_ring
                and self.names == other.names)

    def __hash__(self):
        return hash((self.coeff_ring, self.names))

    def __repr__(self):
        return f"PolyRing({self.coeff_ring!r}, {list(self.names)})"

    def zero(self):
        return MPoly(self, {})

    def one(self):
        return MPoly(self, {(0,) * self.nvars: self.coeff_ring.one})

    def constant(self, c):
        c = self.coeff_ring.element(c)
        return MPoly(self, {(0,) * self.nvars: c} if c else {})

    def variable(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return MPoly(self, {tuple(e): self.coeff_ring.one})

    def gens(self):
        return [self.variable(i) for i in range(self.nvars)]

    def from_terms(self, term_iter):
        K = self.kernel
        pairs = [(tuple(int(x) for x in e), K.scalar(self.coeff_ring.element(c)))
                 for e, c in term_iter]
        for e, _ in pairs:
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise InputError(f"bad exponent vector {e}")
        return MPoly(self, K.terms(_collect(K, pairs)))

    def index_of_name(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"no variable named {name!r}") from None


def _collect(K, pairs):
    """The scalars of (exponent, scalar) pairs summed by exponent, unreduced."""
    add = K.add
    out = {}
    for e, c in pairs:
        out[e] = add(out[e], c) if e in out else c
    return out


def _product(K, a, b):
    """The product of two maps of scalars, unreduced."""
    mul, b = K.mul, list(b.items())
    return _collect(K, ((tuple(map(operator.add, e1, e2)), mul(c1, c2))
                        for e1, c1 in a.items() for e2, c2 in b))


class MPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- basic structure

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    def support(self):
        return sorted(self.terms, key=_glex_key)

    def coeff(self, e):
        return self.terms.get(tuple(e), self.ring.coeff_ring.zero)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_term(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ZeroInput("zero polynomial has no leading term")
        e = max(self.terms, key=_glex_key)
        return e, self.terms[e]

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other if other.ring == self.ring else None
        try:  # an int or a bare coefficient-ring element acts as a constant
            return self.ring.constant(other)
        except (ValueError, TypeError):
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        K = self.ring.kernel
        return MPoly(self.ring, K.terms(_collect(K, ((e, K.scalar(c)) for f in (self, o)
                                                     for e, c in f.terms.items()))))

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        K = self.ring.kernel
        to = K.scalar
        return MPoly(self.ring, K.terms(_product(
            K, {e: to(c) for e, c in self.terms.items()},
            {e: to(c) for e, c in o.terms.items()})))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise InputError("negative polynomial power")
        result = self.ring.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c):
        K = self.ring.kernel
        to, mul = K.scalar, K.mul
        c = to(self.ring.coeff_ring.element(c))
        return MPoly(self.ring, K.terms({e: mul(to(x), c) for e, x in self.terms.items()}))

    # -- views

    def coeff_of(self, var, k):
        """Coefficient of var^k, as a polynomial in the same ring."""
        return MPoly(self.ring, {e[:var] + (0,) + e[var + 1:]: c
                                 for e, c in self.terms.items() if e[var] == k})

    def evaluate(self, values, into=None):
        """Full evaluation in ``into``, or in the coefficient ring.

        Every value is coerced into that ring once, and the sum is taken
        on the scalars of its ``upoly.kernel``: an int mod p over F_p,
        into which each coefficient goes as it is; a coefficient tuple
        over F_{p^n}, with an F_p coefficient padded straight into it.
        A curve restricted to a line is ``substitute``'s.
        """
        ring = into if into is not None else self.ring.coeff_ring
        if len(values) != self.ring.nvars:
            raise InputError("wrong number of values")
        K = self.ring.kernel if into is None else upoly.kernel(into)
        to = K.scalar
        xs = [to(ring.element(v)) for v in values]
        terms = ((e, to(c)) for e, c in self.terms.items())
        return K.element(K.norm(K.evaluate(self.terms, terms, xs)))

    def partial_eval(self, assignments):
        """Evaluate some variables; the result keeps the same ring."""
        ring = self.ring.coeff_ring
        K = self.ring.kernel
        to, mul = K.scalar, K.mul
        powers = {var: K.powers(to(ring.element(v)), max(e[var] for e in self.terms))
                  for var, v in assignments.items()} if self.terms else {}

        def evaluated():
            for e, c in self.terms.items():
                t = to(c)
                for var, pw in powers.items():
                    if e[var]:
                        t = mul(t, pw[e[var]])
                yield tuple(0 if i in powers else x for i, x in enumerate(e)), t

        return MPoly(self.ring, K.terms(_collect(K, evaluated())))

    def map_coefficients(self, fn, new_ring):
        return MPoly(new_ring, {e: nc for e, c in self.terms.items() if (nc := fn(c))})

    # -- serialization and printing

    def to_dict(self):
        return {"vars": list(self.ring.names),
                "terms": [{"e": list(e), "c": [int(x) for x in self.terms[e].coeffs]}
                          for e in sorted(self.terms, key=_glex_key, reverse=True)]}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_glex_key, reverse=True):
            factors = [name if k == 1 else f"{name}^{k}"
                       for name, k in zip(self.ring.names, e) if k]
            cs = str(self.terms[e])
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<MPoly {self}>"


def from_dict(data, coeff_ring):
    try:
        ring = PolyRing(coeff_ring, data["vars"])
        return ring.from_terms((t["e"], t["c"]) for t in data["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed polynomial data: {exc!r}") from None


# ---------------------------------------------------------------------------
# substitution and changes of variables


def substitute(f, images):
    """Replace each variable of f by its image polynomial, fully expanded."""
    if len(images) != f.ring.nvars:
        raise InputError("one image per variable is required")
    target = images[0].ring
    if any(im.ring != target for im in images):
        raise InputError("images must share one ring")
    K = target.kernel
    to = K.scalar
    unit = (0,) * target.nvars
    powers = []
    for im, k in zip(images, map(max, zip(*f.terms))):
        im = {e: to(c) for e, c in im.terms.items()}
        pw = [{unit: K.one}]
        for _ in range(k):
            pw.append(K.reduce(_product(K, pw[-1], im)))
        powers.append(pw)

    def expanded():
        for e, c in f.terms.items():
            t = {unit: to(c)}
            for pw, k in zip(powers, e):
                if k:
                    t = K.reduce(_product(K, t, pw[k]))
            yield from t.items()

    return MPoly(target, K.terms(_collect(K, expanded())))


class LinearChange:
    """Invertible substitution X <- A*X on the variables of a polynomial ring.

    Applying A and then B to a polynomial composes to the matrix product
    A*B: (B applied after A) f = f((A*B)X).
    """

    __slots__ = ("coeff_ring", "rows")

    def __init__(self, coeff_ring, rows):
        self.coeff_ring = coeff_ring
        self.rows = [[coeff_ring.element(x) for x in row] for row in rows]
        k = len(self.rows)
        if any(len(row) != k for row in self.rows):
            raise InputError("matrix must be square")
        if not linalg.det(self.rows, coeff_ring.zero, coeff_ring.one):
            raise linalg.SingularMatrix("linear change is singular")

    @property
    def size(self):
        return len(self.rows)

    def apply(self, f):
        if f.ring.nvars != self.size:
            raise InputError("dimension mismatch")
        if f.ring.coeff_ring != self.coeff_ring:
            raise InputError("coefficient ring mismatch")
        n = self.size
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return substitute(f, [f.ring.from_terms(zip(units, row)) for row in self.rows])

    def inverse(self):
        if not getattr(self.coeff_ring, "is_field", False):
            raise InputError("matrix inversion requires field coefficients")
        return LinearChange(self.coeff_ring, linalg.inverse(self.coeff_ring, self.rows))

    def to_json(self):
        return [[[int(c) for c in x.coeffs] for x in row] for row in self.rows]

    def __eq__(self, other):
        return (isinstance(other, LinearChange) and self.coeff_ring == other.coeff_ring
                and self.rows == other.rows)

    def __repr__(self):
        return f"LinearChange({self.rows!r})"


# ---------------------------------------------------------------------------
# dehomogenization


def dehomogenize(f, var):
    """Set variable ``var`` to 1 and remove it from the ring."""
    names = f.ring.names[:var] + f.ring.names[var + 1:]
    ring = PolyRing(f.ring.coeff_ring, names)
    K = ring.kernel
    return MPoly(ring, K.terms(_collect(K, ((e[:var] + e[var + 1:], K.scalar(c))
                                            for e, c in f.terms.items()))))


# ---------------------------------------------------------------------------
# plane slices
#
# Every loop over the slices f(u0, v) of plane equations goes through
# ``PlaneSlices``, which holds their rows as polynomials of a field's
# ``upoly.kernel``.  A slice at a point is one Horner pass per row; at the
# roots of an irreducible m over the kernel's field F it is the rows
# reduced mod m.


def slice_rows(f, u, v):
    """Coefficient rows of f, supported on variables u and v, as a polynomial in v.

    Row k is the little-endian list in u of the coefficient of v^k,
    trimmed (a zero coefficient gives []); the zero polynomial has no
    rows.  Row 0 of a polynomial free of v is f itself as a list in u.
    """
    zero = f.ring.coeff_ring.zero
    rows = [[] for _ in range(f.degree_in(v) + 1)]
    for e, c in f.terms.items():
        row, i = rows[e[v]], e[u]
        if len(row) <= i:
            row.extend([zero] * (i + 1 - len(row)))
        row[i] = c
    return rows


class PlaneSlices:
    """The slices p(u0, v) of plane equations p, supported on variables u and v.

    Each equation's ``slice_rows`` are converted once to polynomials of
    the ``upoly.kernel`` of L, by default the coefficient field: int lists
    mod p over a prime field, lists of coefficient tuples over F_{p^n}.
    The same rows give the system's eliminant, its slices at a point and
    its slices at the roots of a factor of the eliminant.  Slices and gcds
    stay in kernel form; callers read only their lengths and which of
    their coefficients equal the kernel's ``zero``.  Points u0 lie in L;
    the eliminant and roots are field elements.
    """

    __slots__ = ("_K", "_rows")

    def __init__(self, polys, u, v, L=None):
        K = self._K = polys[0].ring.kernel if L is None else upoly.kernel(L)
        self._rows = [[K.to(row) for row in slice_rows(p, u, v)] for p in polys]

    def eliminant(self):
        """A nonzero list in u whose roots hold the u of every common zero, or None.

        A v-free equation gives its own row.  Else it is the gcd over F[u]
        of the nonzero ones among Res_v(p0, p1) and Res_v(p0, p2)
        (``_resultant_rows``), each in the ideal of its pair; None when
        both vanish, as they do when p0 shares a factor in v with each.
        """
        K, (first, *rest) = self._K, self._rows
        free = next((rows[0] for rows in self._rows if len(rows) == 1), None)
        if free is not None:
            return K.back(free)
        g = None
        for rows in rest[:2]:
            r = _resultant_rows(K, first, rows)
            if r:
                g = r if g is None else K.gcd(g, r)
        return None if g is None else K.back(g)

    def _slices(self, u0):
        K = self._K
        x = K.scalar(u0)
        return (K.trim([K.eval(row, x) for row in rows]) for rows in self._rows)

    def at(self, u0):
        """The first equation's slice at u0, trimmed."""
        return next(self._slices(u0))

    def gcd(self, u0):
        """gcd of the nonzero slices at u0; None when every slice vanishes.

        The fold stops at the first constant gcd, which no later slice can
        make nonconstant again.
        """
        return _gcd_fold(self._slices(u0), self._K.gcd)

    def roots(self, u0, L=None):
        """Common roots of the slices at u0 in L (by default the kernel's field).

        Sorted by L's enumeration index; None when every slice vanishes,
        which the caller reads as every v or as nothing.
        """
        g = self.gcd(u0)
        if g is None:
            return None
        if len(g) < 2:
            return []
        return upoly.kernel_roots(self._K.ring if L is None else L, self._K, g)

    def count_roots(self, s):
        """Number of distinct roots, in the kernel's field, of a slice s in kernel form."""
        return upoly.kernel_count_roots(self._K, s)

    def gcd_mod(self, m):
        """``gcd`` at a root of m, over F[u]/(m) in kernel form: no field is built.

        m is a monic irreducible list of elements of the kernel's field F,
        and a slice is its rows reduced mod m.  Euclid runs on the
        fraction-free pseudo-remainders of ``_yprem``, reduced mod m, so no
        inverse is taken.  The gcd is exact up to a unit of F[u]/(m).
        """
        K = self._K
        m = K.to(m)

        def reduced(a):
            return upoly.trim([K.rem(c, m) for c in a])

        def gcd(a, b):
            if len(a) < len(b):
                a, b = b, a
            while len(b) > 1:
                a, b = b, reduced(_yprem(K, a, b))
            return b or a

        return _gcd_fold(map(reduced, self._rows), gcd)


def _gcd_fold(slices, gcd):
    g = None
    for s in slices:
        if s:
            g = s if g is None else gcd(g, s)
            if len(g) == 1:
                break
    return g


# ---------------------------------------------------------------------------
# resultants


def _sylvester_rows(fc, gc, zero):
    """Sylvester matrix of the little-endian coefficient lists fc and gc."""
    df, dg = len(fc) - 1, len(gc) - 1
    size = df + dg
    rows = []
    for i in range(dg):
        row = [zero] * size
        for j in range(df + 1):
            row[i + j] = fc[df - j]
        rows.append(row)
    for i in range(df):
        row = [zero] * size
        for j in range(dg + 1):
            row[i + j] = gc[dg - j]
        rows.append(row)
    return rows


def _sylvester_coeffs(f, g, var):
    """Coefficients of f and g in ``var``, little-endian."""
    if not f or not g:
        raise ZeroInput("resultant of a zero polynomial")
    return tuple([h.coeff_of(var, k) for k in range(h.degree_in(var) + 1)] for h in (f, g))


def sylvester_matrix(f, g, var):
    fc, gc = _sylvester_coeffs(f, g, var)
    return _sylvester_rows(fc, gc, f.ring.zero())


def resultant(f, g, var):
    """Sylvester determinant with respect to one variable.

    Over a field, when f and g together involve at most one variable u
    besides ``var``, their coefficient rows in ``var`` go to the field's
    ``upoly.kernel`` and ``_resultant_rows`` takes the resultant there;
    with more variables, or over a ring without division such as the
    order, the division-free ``linalg.det``.
    """
    fc, gc = _sylvester_coeffs(f, g, var)
    ring = f.ring
    others = {i for h in fc + gc for e in h.terms for i, k in enumerate(e) if k}
    if len(others) > 1 or not getattr(ring.coeff_ring, "is_field", False):
        return linalg.det(_sylvester_rows(fc, gc, ring.zero()), ring.zero(), ring.one())
    # constant entries are univariate in any variable; var does not occur in them
    u = others.pop() if others else var
    field = ring.coeff_ring
    K = ring.kernel

    def in_u(h):
        out = [field.zero] * (h.degree_in(u) + 1)
        for e, c in h.terms.items():
            out[e[u]] = c
        return K.to(out)

    r = K.back(_resultant_rows(K, [in_u(h) for h in fc], [in_u(h) for h in gc]))
    return MPoly(ring, {tuple(i if j == u else 0 for j in range(ring.nvars)): c
                        for i, c in enumerate(r) if c})


def _resultant_rows(K, fr, gr):
    """Res_v of two equations given by their rows in kernel form (``PlaneSlices``), as a list in u.

    Its u-degree is at most B, the smaller of the product of the total
    degrees and the row bound (each Sylvester row's largest entry degree,
    summed).  Over F_p with p > B it is interpolated from its values at
    u = 0, ..., B, each the Euclid resultant of the two slices
    (``upoly.kernel_resultant``) or, where a leading coefficient in v
    vanishes, the determinant of their Sylvester matrix; over any other
    field (q <= B, or n > 1) it is Bareiss's elimination over F[u]
    (``upoly.kernel_det``).
    """
    def degrees(r):  # in v, the largest in u, and the total degree
        return len(r) - 1, max(map(len, r)) - 1, max(k + len(c) - 1 for k, c in enumerate(r) if c)

    (m, df, tf), (n, dg, tg) = degrees(fr), degrees(gr)
    bound = min(tf * tg, n * df + m * dg)
    if K.n == 1 and K.p > bound:
        return _evaluated_resultant(K, fr, gr, bound)
    return upoly.kernel_det(K, _sylvester_rows(fr, gr, []))


def _evaluated_resultant(K, fr, gr, bound):
    """The resultant of the rows fr and gr, in int-kernel form, from its values at u <= bound."""
    values = []
    for x in range(bound + 1):
        a, b = [K.eval(c, x) for c in fr], [K.eval(c, x) for c in gr]
        if a[-1] and b[-1]:
            r = upoly.kernel_resultant(K, a, b)
        else:  # the formal degrees count: the scalar Sylvester matrix
            r = upoly.kernel_det(K, _sylvester_rows(*([[c] if c else [] for c in s]
                                                      for s in (a, b)), []))
        values.append(r[0] if r else 0)
    return upoly.interpolate(values, K.p)


# ---------------------------------------------------------------------------
# bivariate gcd over a field


def _from_y_coeffs(K, ring, rows):
    return MPoly(ring, {(i, j): c for j, row in enumerate(rows)
                        for i, c in enumerate(K.back(row)) if c})


def _ycontent(K, rows):
    g = []
    for row in rows:
        g = K.gcd(g, row)
        if len(g) == 1:
            break
    return g


def _ydivide(K, rows, content):
    out = []
    for row in rows:
        q, r = K.divmod(row, content)
        if r:
            raise ArithmeticError("content division left a remainder")
        out.append(q)
    return out


def _yprem(K, a_rows, b_rows):
    """Pseudo-remainder in the outer variable, fraction-free."""
    a = list(a_rows)
    da, db = len(a) - 1, len(b_rows) - 1
    lb = b_rows[db]
    for k in range(da - db, -1, -1):
        top = a[k + db]
        a = [K.product(row, lb) for row in a]
        for j in range(db + 1):
            a[k + j] = K.sub(a[k + j], K.product(top, b_rows[j]))
    return upoly.trim(a)


def _pp_gcd(K, a_rows, b_rows):
    """gcd of two primitive polynomials in y over F_q[x]."""
    a, b = a_rows, b_rows
    if len(a) < len(b):
        a, b = b, a
    while True:
        if not b:
            return a
        if len(b) == 1:
            return [[K.one]]
        r = _yprem(K, a, b)
        if r:
            r = _ydivide(K, r, _ycontent(K, r))
        a, b = b, r


def bivariate_gcd(fs):
    """Monic gcd of bivariate polynomials over a field.

    Subresultant-style primitive PRS in the second variable with content
    splitting over F_q[x]; the result is normalized to leading
    coefficient 1 in graded lex.  The rows in y are converted once to
    polynomials of the field's ``upoly.kernel`` by ``PlaneSlices``, and
    the whole PRS runs there.
    """
    fs = [f for f in fs if f]
    if not fs:
        raise AllZero("gcd of an all-zero family")
    ring = fs[0].ring
    if ring.nvars != 2:
        raise InputError("bivariate_gcd expects two variables")
    S = PlaneSlices(fs, 0, 1)
    K, (g, *rest) = S._K, S._rows
    for rows in rest:
        g = _gcd2(K, g, rows)
        if len(g) == 1 and len(g[0]) == 1:
            break  # a nonzero constant
    g = _from_y_coeffs(K, ring, g)
    _, lcoeff = g.leading_term()
    return g.scale(lcoeff.inverse())


def _gcd2(K, fr, gr):
    fcont, gcont = _ycontent(K, fr), _ycontent(K, gr)
    fpp, gpp = _ydivide(K, fr, fcont), _ydivide(K, gr, gcont)
    cont = K.gcd(fcont, gcont)
    return [K.product(row, cont) for row in _pp_gcd(K, fpp, gpp)]


def divide_exact(f, g):
    """Quotient f/g over a field, or None when g does not divide f."""
    if not g:
        raise ZeroInput("division by the zero polynomial")
    ring = f.ring
    if not getattr(ring.coeff_ring, "is_field", False):
        raise InputError("exact division requires field coefficients")
    if not f:
        return ring.zero()
    ge, gc = g.leading_term()
    ginv = gc.inverse()
    rem = dict(f.terms)
    quo = {}
    while rem:
        re = max(rem, key=_glex_key)
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in diff):
            return None
        c = rem[re] * ginv
        quo[diff] = c
        for e2, c2 in g.terms.items():
            ne = tuple(a + b for a, b in zip(diff, e2))
            v = rem.get(ne, ring.coeff_ring.zero) - c * c2
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return MPoly(ring, quo)


def derivative(f, var):
    ring = f.ring
    K = ring.kernel
    # the integer k as a scalar, for each exponent k of var
    ks = [K.scalar(ring.coeff_ring.element(k)) for k in range(f.degree_in(var) + 1)]
    return MPoly(ring, K.terms({e[:var] + (e[var] - 1,) + e[var + 1:]:
                                K.mul(K.scalar(c), ks[e[var]])
                                for e, c in f.terms.items() if e[var]}))
