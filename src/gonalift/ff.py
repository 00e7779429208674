"""Finite fields F_q = F_p[t]/(m(t)) of odd characteristic, with extensions.

``FqField(p, n, modulus)`` models F_q for q = p^n; elements carry a
fixed-length coefficient vector, little-endian in t, always reduced.
``FqExtField(base, k, modulus)`` models F_{q^k} as a relative extension
with coefficients in the base field, and provides the relative
Frobenius x -> x^q.

Both field kinds share one element class whose arithmetic delegates to
the owning field, so generic code (univariate toolkit, polynomial
rings) works over either without special cases.
"""

from __future__ import annotations

import functools
import operator

from . import upoly
# int lists mod p: the prime-field kernel of upoly, which also does the
# arithmetic of prime-power fields here and tests their moduli
from .upoly import _sqrt_mod, _v_irreducible, _vmul, _vrem, _vtrim, _vxgcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _smallest_irreducible(p, n):
    """First monic irreducible of degree n in the canonical enumeration."""
    if n == 1:
        return [0, 1]
    for i in range(p ** n):
        coeffs = []
        v = i
        for _ in range(n):
            v, r = divmod(v, p)
            coeffs.append(r)
        f = coeffs + [1]
        if _v_irreducible(f, p):
            return f
    raise ValueError("no irreducible polynomial found (unreachable)")


class FqElement:
    """Element of an FqField or FqExtField; immutable, structurally equal.

    ``coeffs`` holds ints for prime-power fields and base-field elements
    for relative extensions.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FqElement):
            if other.field is self.field or other.field == self.field:
                return other
            # the field decides what embeds into it: its base field, or F_p
            try:
                return self.field.embed(other)
            except ValueError:
                return NotImplemented
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def _in_field_of(self, other, op):
        """op(self, other) computed in other's field, when self embeds there."""
        if isinstance(other, FqElement):
            try:
                return op(other.field.embed(self), other)
            except ValueError:
                pass
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return self._in_field_of(other, operator.add)
        return FqElement(self.field, self.field._add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FqElement(self.field, self.field._neg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return self._in_field_of(other, operator.sub)
        return FqElement(self.field, self.field._add(self.coeffs, self.field._neg(o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field._add(o.coeffs, self.field._neg(self.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return self._in_field_of(other, operator.mul)
        return FqElement(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        return FqElement(self.field, self.field._inv(self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return self._in_field_of(other, operator.truediv)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, FqElement) else other
        if o is NotImplemented or not isinstance(o, FqElement):
            return NotImplemented
        if o.field is not self.field and o.field != self.field:
            o = self._coerce(o)
            if o is NotImplemented:
                return self._in_field_of(other, operator.eq) is True
        return self.coeffs == o.coeffs

    def __hash__(self):
        # ``==`` embeds subfield elements, so an element whose coefficients
        # past the first vanish hashes like that first coefficient
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field._hash_key, self.coeffs))

    def __repr__(self):
        return f"{self.field!r}({self._str_body()})"

    def __str__(self):
        return self._str_body()

    def _str_body(self):
        if len(self.coeffs) == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


class FqField:
    """F_q with q = p^n, p an odd prime; modulus monic irreducible over F_p."""

    is_field = True

    def __init__(self, p, n=1, modulus=None):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = _smallest_irreducible(p, n)
        modulus = [c % p for c in modulus]
        if len(_vtrim(modulus)) != n + 1 or modulus[n] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _v_irreducible(modulus, p):
            raise ValueError("modulus is not irreducible mod p")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(modulus)
        self._hash_key = ("fq", p, self.modulus)
        self.zero = FqElement(self, (0,) * n)
        self.one = FqElement(self, (1,) + (0,) * (n - 1))
        self._nonresidue = None

    @property
    def absolute_degree(self):
        return self.n

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FqField) and self._hash_key == other._hash_key

    def __hash__(self):
        return hash(self._hash_key)

    def __repr__(self):
        if self.n == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.n}"

    # -- element construction and enumeration

    def element(self, value):
        if isinstance(value, FqElement):
            if value.field == self:
                return value
            if value.field.p == self.p and getattr(value.field, "n", 0) == 1:
                return self.element(int(value.coeffs[0]))  # prime subfield embeds
            raise ValueError("element of a different field")
        if isinstance(value, int):
            return FqElement(self, (value % self.p,) + (0,) * (self.n - 1))
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.n:
            coeffs = list(_vrem(coeffs, list(self.modulus), self.p))
        coeffs += [0] * (self.n - len(coeffs))
        return FqElement(self, tuple(coeffs))

    def embed(self, a):
        """Coerce, embedding prime-field elements; mirrors the tower interface."""
        return self.element(a)

    def frobenius(self, x):
        """The absolute Frobenius x -> x^p; the identity exactly when n = 1."""
        return self.element(x) ** self.p

    def element_at(self, i):
        """i-th element in the canonical enumeration, 0 <= i < q."""
        if not 0 <= i < self.q:
            raise IndexError(f"index {i} out of range for field of size {self.q}")
        coeffs = []
        for _ in range(self.n):
            i, r = divmod(i, self.p)
            coeffs.append(r)
        return FqElement(self, tuple(coeffs))

    def index_of(self, a):
        i = 0
        for c in reversed(a.coeffs):
            i = i * self.p + c
        return i

    def elements(self):
        for i in range(self.q):
            yield self.element_at(i)

    def random_element(self, rng):
        return self.element_at(rng.randrange(self.q))

    def random_nonzero(self, rng):
        return self.element_at(rng.randrange(1, self.q))

    # -- coefficient-vector arithmetic

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p = self.p
        if self.n == 1:
            return (a[0] * b[0] % p,)
        if self.n == 2:
            m0, m1 = self.modulus[0], self.modulus[1]
            hi = a[1] * b[1]
            return ((a[0] * b[0] - m0 * hi) % p,
                    (a[0] * b[1] + a[1] * b[0] - m1 * hi) % p)
        out = _vrem(_vmul(list(a), list(b), p), list(self.modulus), p)
        return tuple(out) + (0,) * (self.n - len(out))

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if self.n == 1:
            return (pow(a[0], p - 2, p),)
        if self.n == 2:
            # conjugate over norm; the conjugate of t is -m1 - t
            m0, m1 = self.modulus[0], self.modulus[1]
            norm = (a[0] * a[0] - m1 * a[0] * a[1] + m0 * a[1] * a[1]) % p
            ninv = pow(norm, p - 2, p)
            return ((a[0] - m1 * a[1]) * ninv % p, -a[1] * ninv % p)
        g, u = _vxgcd(list(a), list(self.modulus), self.p)
        if len(g) != 1:
            raise ZeroDivisionError("element not invertible")
        inv = pow(g[0], self.p - 2, self.p)
        out = [c * inv % self.p for c in u]
        return tuple(out) + (0,) * (self.n - len(out))

    # -- character and square roots

    def chi2(self, a):
        return _chi2(self, self.element(a))

    def sqrt(self, a):
        return _sqrt(self, self.element(a))

    def extension(self, k, modulus=None):
        return FqExtField(self, k, modulus)


class FqExtField:
    """Relative extension F_{q^k} over an FqField or another extension."""

    is_field = True

    def __init__(self, base, k, modulus=None):
        if k < 1:
            raise ValueError("relative degree must be >= 1")
        self.base = base
        self.k = k
        self.p = base.p
        self.q = base.q ** k
        if modulus is None:
            modulus = self._scan_modulus()
        modulus = upoly.trim([base.element(c) for c in modulus])
        if upoly.degree(modulus) != k or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree k over the base")
        if not upoly.is_irreducible(base, modulus):
            raise ValueError("modulus is not irreducible over the base field")
        self.modulus = list(modulus)
        self._hash_key = ("ext", base._hash_key, tuple(c.coeffs for c in modulus))
        self.zero = FqElement(self, (base.zero,) * k)
        self.one = FqElement(self, (base.one,) + (base.zero,) * (k - 1))
        self._nonresidue = None

    @property
    def absolute_degree(self):
        return self.base.absolute_degree * self.k

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FqExtField) and self._hash_key == other._hash_key

    def __hash__(self):
        return hash(self._hash_key)

    def __repr__(self):
        return f"{self.base!r}[{self.k}]"

    def _scan_modulus(self):
        base, k = self.base, self.k
        for i in range(base.q ** k):
            coeffs = []
            v = i
            for _ in range(k):
                v, r = divmod(v, base.q)
                coeffs.append(base.element_at(r))
            f = coeffs + [base.one]
            if upoly.is_irreducible(base, f):
                return f
        raise ValueError("no irreducible modulus found (unreachable)")

    # -- element construction and enumeration

    def element(self, value):
        if isinstance(value, FqElement):
            if value.field == self:
                return value
            if value.field == self.base:
                return self.embed(value)
            raise ValueError("element of an unrelated field")
        if isinstance(value, int):
            return self.embed(self.base.element(value))
        coeffs = [self.base.element(c) for c in value]
        if len(coeffs) > self.k:
            coeffs = upoly.rem(self.base, coeffs, self.modulus)
        coeffs += [self.base.zero] * (self.k - len(coeffs))
        return FqElement(self, tuple(coeffs))

    def embed(self, a):
        """Coerce, embedding base-field elements; elements of self pass through."""
        if isinstance(a, FqElement) and a.field == self:
            return a
        a = self.base.element(a)
        return FqElement(self, (a,) + (self.base.zero,) * (self.k - 1))

    def element_at(self, i):
        if not 0 <= i < self.q:
            raise IndexError(f"index {i} out of range for field of size {self.q}")
        coeffs = []
        for _ in range(self.k):
            i, r = divmod(i, self.base.q)
            coeffs.append(self.base.element_at(r))
        return FqElement(self, tuple(coeffs))

    def index_of(self, a):
        i = 0
        for c in reversed(a.coeffs):
            i = i * self.base.q + self.base.index_of(c)
        return i

    def elements(self):
        for i in range(self.q):
            yield self.element_at(i)

    def random_element(self, rng):
        return self.element_at(rng.randrange(self.q))

    def random_nonzero(self, rng):
        return self.element_at(rng.randrange(1, self.q))

    # -- coefficient-vector arithmetic (vectors of base elements)

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        prod = upoly.mul(self.base, list(a), list(b))
        out = upoly.rem(self.base, prod, self.modulus)
        return tuple(out) + (self.base.zero,) * (self.k - len(out))

    def _inv(self, a):
        g, u, _ = upoly.xgcd(self.base, list(a), self.modulus)
        if upoly.degree(g) != 0:
            raise ZeroDivisionError("inverse of zero")
        return tuple(u) + (self.base.zero,) * (self.k - len(u))

    # -- Frobenius, norm, trace down to the base

    def frobenius(self, x):
        """The relative Frobenius x -> x^q, a base-field automorphism."""
        return self.element(x) ** self.base.q

    def relative_norm(self, x):
        acc = self.element(x)
        result = acc
        for _ in range(self.k - 1):
            acc = self.frobenius(acc)
            result = result * acc
        return self.project(result)

    def relative_trace(self, x):
        acc = self.element(x)
        result = acc
        for _ in range(self.k - 1):
            acc = self.frobenius(acc)
            result = result + acc
        return self.project(result)

    def project(self, x):
        """Cast an element that lies in the base field back down; error if not."""
        x = self.element(x)
        if any(bool(c) for c in x.coeffs[1:]):
            raise ValueError("element does not lie in the base field")
        return x.coeffs[0]

    def chi2(self, a):
        return _chi2(self, self.element(a))

    def sqrt(self, a):
        return _sqrt(self, self.element(a))

    def extension(self, k, modulus=None):
        return FqExtField(self, k, modulus)


def frobenius(x, field):
    """x^q in the extension field; applying it k times is the identity."""
    return field.frobenius(x)


def flat_extension(field, k):
    """F_{q^k} as a flat FqField when the base is prime, else a tower.

    Flat fields do int-vector arithmetic, which is what keeps the
    sampling and counting loops affordable; prime-field elements embed
    into them directly.  The flat field is one object per (p, k), so
    elements drawn in different calls share their field.  Over a
    non-prime base the relative tower is the only faithful choice.
    """
    if k == 1:
        return field
    if isinstance(field, FqField) and field.n == 1:
        return _flat_field(field.p, k)
    return FqExtField(field, k)


@functools.lru_cache(maxsize=None)
def _flat_field(p, n):
    """FqField(p, n), built once per (p, n) so its modulus search runs once."""
    return FqField(p, n)


def _chi2(field, a):
    """Quadratic character: 0 on zero, +1 on nonzero squares, -1 otherwise."""
    if not a:
        return 0
    r = a ** ((field.q - 1) // 2)
    if r == field.one:
        return 1
    if r == -field.one:
        return -1
    raise ArithmeticError("chi2 landed outside {0, 1, -1} (field corrupted)")


def _nonresidue(field):
    if field._nonresidue is None:
        for i in range(1, field.q):
            c = field.element_at(i)
            if _chi2(field, c) == -1:
                field._nonresidue = c
                break
        else:
            raise ArithmeticError("no quadratic non-residue found (field corrupted)")
    return field._nonresidue


def _sqrt(field, a):
    """Tonelli-Shanks square root in F_q, or None for non-residues.

    Over a prime field it runs on ints, in ``upoly._sqrt_mod``.
    """
    if getattr(field, "n", 0) == 1:
        r = _sqrt_mod(a.coeffs[0], field.p)
        return None if r is None else field.element(r)
    if not a:
        return field.zero
    if _chi2(field, a) == -1:
        return None
    q = field.q
    if q % 4 == 3:
        r = a ** ((q + 1) // 4)
    else:
        s, t = 0, q - 1
        while t % 2 == 0:
            t //= 2
            s += 1
        z = _nonresidue(field)
        m = s
        c = z ** t
        r = a ** ((t + 1) // 2)
        u = a ** t
        while u != field.one:
            i = 0
            probe = u
            while probe != field.one:
                probe = probe * probe
                i += 1
            b = c ** (1 << (m - i - 1))
            m = i
            c = b * b
            u = u * c
            r = r * b
    if r * r != a:
        raise ArithmeticError("square root verification failed (field corrupted)")
    return r


def chi2(a):
    """Quadratic character of a field element."""
    return a.field.chi2(a)


def sqrt(a):
    """Square root of a field element, or None when none exists."""
    return a.field.sqrt(a)
