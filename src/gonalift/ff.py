"""Finite fields F_q = F_p[t]/(m(t)) of odd characteristic.

``FqField(p, n, modulus)`` models F_q for q = p^n; elements carry a
fixed-length vector of ints, little-endian in t, always reduced.  It is
the one field class: the extension F_{q^k} is the flat field F_{p^(nk)}
(``flat_extension``).  Residue fields F_q[x]/(m) are not built: the
certificates reduce F_q's polynomials mod m (``mpoly.PlaneSlices.gcd_mod``).

F_q embeds into every F_{p^N} with n | N by sending t to the first root
of its modulus in F_{p^N}'s enumeration order (Lenstra, "Finding
isomorphisms between finite fields", Math. Comp. 1991); the map is built
once per pair of fields.  ``FqField.element`` and ``embed`` apply it on
request.  Arithmetic and ``==`` coerce only ints and elements of the
prime field, so elements that compare equal hash alike.
"""

from __future__ import annotations

import functools
import operator

from . import upoly
# int lists mod p: the prime-field kernel of upoly, which also does the
# arithmetic of prime-power fields here and tests their moduli
from .upoly import _v_irreducible, _vmul, _vrem, _vtrim, _vxgcd

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
    """Element of an FqField; immutable, structurally equal.

    ``coeffs`` is the tuple of its ints mod p, little-endian in t.
    Arithmetic with an int or an element of the prime field F_p works in
    this element's field; an element of a proper subfield F_q with q > p
    must first be embedded with ``field.element`` or ``field.embed``.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FqElement):
            if other.field is self.field or other.field == self.field:
                return other
            if other.field.n == 1 and other.field.p == self.field.p:
                return self.field.element(other)
            return NotImplemented
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def _in_field_of(self, other, op):
        """op(self, other) computed in other's field, when self is an F_p element."""
        if isinstance(other, FqElement):
            o = other._coerce(self)
            if o is not NotImplemented:
                return op(o, other)
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
        o = self._coerce(other)
        if o is NotImplemented:
            if not isinstance(other, FqElement):
                return NotImplemented
            return self._in_field_of(other, operator.eq) is True
        return self.coeffs == o.coeffs

    def __hash__(self):
        # ``==`` embeds F_p elements, so an element whose coefficients past
        # the first vanish hashes like that first coefficient
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
        modulus = _vtrim([c % p for c in modulus])
        if len(modulus) != n + 1 or modulus[n] != 1:
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
        """An int, a coefficient list, or an element of a subfield, as an element here.

        A subfield element passes through the embedding that sends its
        field's t to the first root of that field's modulus here.
        """
        if isinstance(value, FqElement):
            src = value.field
            if src is self or src == self:
                return value
            if src.p == self.p and src.n == 1:
                return self.element(int(value.coeffs[0]))  # prime subfield embeds
            if src.p == self.p and self.n % src.n == 0:
                images = _embedding(src, self)
                out = [0] * self.n
                for c, image in zip(value.coeffs, images):
                    if c:
                        for i, b in enumerate(image):
                            out[i] += c * b
                return FqElement(self, tuple(c % self.p for c in out))
            raise ValueError("element of a field that does not embed here")
        if isinstance(value, int):
            return FqElement(self, (value % self.p,) + (0,) * (self.n - 1))
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.n:
            coeffs = list(_vrem(coeffs, list(self.modulus), self.p))
        coeffs += [0] * (self.n - len(coeffs))
        return FqElement(self, tuple(coeffs))

    def embed(self, a):
        """An element of a subfield (or an int) as an element here; see ``element``."""
        return self.element(a)

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


@functools.lru_cache(maxsize=256)
def _embedding(small, big):
    """Images in ``big`` of 1, t, ..., t^(n-1), t the generator of ``small``.

    t goes to the first root of small's modulus in big's enumeration
    order.  The modulus lies over F_p and has its roots in the subfield
    F_{p^n} of big, where ``upoly.roots`` splits it.
    """
    tau = upoly.roots(big, [big.element(c) for c in small.modulus])[0].coeffs
    images = [big.one.coeffs]
    for _ in range(1, small.n):
        images.append(big._mul(images[-1], tau))
    return images


def flat_extension(field, k):
    """F_{q^k} as the flat field F_{p^(nk)}, into which F_q embeds.

    The flat field is one object per (p, nk), so elements drawn in
    different calls share their field.
    """
    if k == 1:
        return field
    return _flat_field(field.p, field.n * k)


@functools.lru_cache(maxsize=None)
def _flat_field(p, n):
    """FqField(p, n), built once per (p, n) so its modulus search runs once."""
    return FqField(p, n)


# Kept for the benchmark's ``*.tower`` kernels, which build F_{25^2} under
# this name: it is the flat F_{5^4}.
FqExtField = flat_extension

