"""The order O_K = Z[t]/(m(t)) with p inert, linked to its residue field F_q.

``m`` is monic over Z and must stay irreducible mod p; that is exactly
the condition for p to stay prime in the order, so reduction mod p maps
O_K onto F_q = F_p[t]/(m mod p).

O_K has no division: none is ever needed (all constructions are
coefficient lifts of F_q data), and any attempt fails loudly rather
than silently leaving the order.
"""

from __future__ import annotations

from .ff import FqField, FqElement


class OkElement:
    """Element of an OkRing: fixed-length integer coefficient vector in t."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, OkElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            return NotImplemented
        if isinstance(other, int):
            return self.ring.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return OkElement(self.ring, tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return OkElement(self.ring, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return OkElement(self.ring, tuple(x - y for x, y in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return OkElement(self.ring, self.ring._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise TypeError("O_K supports no division")
        result = self.ring.one
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
        if isinstance(other, int):
            other = self.ring.element(other)
        if not isinstance(other, OkElement):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring._hash_key, self.coeffs))

    def __repr__(self):
        return f"Ok({','.join(str(c) for c in self.coeffs)})"

    def __str__(self):
        if len(self.coeffs) == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


class OkRing:
    """Z[t]/(m(t)) for monic m that is irreducible mod p."""

    is_field = False

    def __init__(self, p, m):
        m = [int(c) for c in m]
        if not m or m[-1] != 1:
            raise ValueError("m must be monic over Z")
        # FqField construction validates p, before it reduces m mod p, and
        # the irreducibility of m mod p, which is what makes p inert
        self._over(FqField(p, len(m) - 1, m), m)

    @classmethod
    def for_field(cls, field: FqField):
        """The order whose m is the canonical lift of the field's modulus.

        Its residue field is ``field`` itself, so a lift and its reduction
        share one field object.
        """
        order = cls.__new__(cls)
        order._over(field, field.modulus)
        return order

    def _over(self, field, m):
        self.field = field
        self.p = p = field.p
        self.n = n = field.n
        self.m = tuple(m)
        self._hash_key = ("ok", p, self.m)
        self.zero = OkElement(self, (0,) * n)
        self.one = OkElement(self, (1,) + (0,) * (n - 1))

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, OkRing) and self._hash_key == other._hash_key

    def __hash__(self):
        return hash(self._hash_key)

    def __repr__(self):
        if self.n == 1:
            return f"Z(p={self.p})"
        return f"Z[t]/(m) (p={self.p}, n={self.n})"

    def element(self, value):
        if isinstance(value, OkElement):
            if value.ring == self:
                return value
            raise ValueError("element of a different ring")
        if isinstance(value, int):
            return OkElement(self, (value,) + (0,) * (self.n - 1))
        coeffs = [int(c) for c in value]
        if len(coeffs) > self.n:
            coeffs = self._reduce_vec(coeffs)
        coeffs += [0] * (self.n - len(coeffs))
        return OkElement(self, tuple(coeffs))

    def _reduce_vec(self, coeffs):
        # division by monic m is exact over Z
        r = list(coeffs)
        m = self.m
        for i in range(len(r) - self.n - 1, -1, -1):
            c = r[i + self.n]
            if c:
                for j in range(self.n + 1):
                    r[i + j] -= c * m[j]
        return r[: self.n]

    def _mul(self, a, b):
        if self.n == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = self._reduce_vec(prod)
        return tuple(out) + (0,) * (self.n - len(out))

    # -- the reduction / lifting maps

    def reduce_mod_p(self, x) -> FqElement:
        x = self.element(x)
        return self.field.element([c % self.p for c in x.coeffs])

    def naive_lift(self, xbar) -> OkElement:
        """Canonical coefficient lift, residues in [0, p)."""
        return OkElement(self, self.field.element(xbar).coeffs)
