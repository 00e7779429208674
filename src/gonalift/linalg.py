"""Small exact matrices: elimination over fields, division-free determinants.

Matrices are lists of lists of ring elements.  Field routines need
element inverses; ``det`` works over any commutative ring (including
polynomial entries) via a subset dynamic program, so it never divides.
"""

from __future__ import annotations

from .errors import SingularMatrix


def identity(field, k):
    return [[field.one if i == j else field.zero for j in range(k)] for i in range(k)]


def mat_mul(rows_a, rows_b):
    n, m = len(rows_a), len(rows_b[0])
    inner = len(rows_b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = rows_a[i][0] * rows_b[0][j]
            for k in range(1, inner):
                acc = acc + rows_a[i][k] * rows_b[k][j]
            row.append(acc)
        out.append(row)
    return out


def rref(field, rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def inverse(field, rows):
    """Matrix inverse over a field; raises SingularMatrix."""
    k = len(rows)
    aug = [list(rows[i]) + identity(field, k)[i] for i in range(k)]
    red, pivots = rref(field, aug)
    if pivots[:k] != list(range(k)):
        raise SingularMatrix("matrix is not invertible")
    return [row[k:] for row in red]


def kernel_basis(field, rows):
    """Basis of the right kernel of A."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def det(rows, zero, one):
    """Division-free determinant via a subset DP over used columns.

    Works over any commutative ring; cost O(2^k k) ring multiplications,
    fine for the k <= 12 matrices that appear here.
    """
    k = len(rows)
    if k == 0:
        return one
    dp = {0: one}
    for i in range(k):
        ndp = {}
        row = rows[i]
        for mask, val in dp.items():
            if not val:
                continue
            for j in range(k):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = row[j]
                if not entry:
                    continue
                # parity of used columns above j gives the inversion count delta
                sign = bin(mask >> (j + 1)).count("1") & 1
                term = val * entry
                if sign:
                    term = -term
                nmask = mask | bit
                if nmask in ndp:
                    ndp[nmask] = ndp[nmask] + term
                else:
                    ndp[nmask] = term
        dp = ndp
        if not dp:
            return zero
    return dp.get((1 << k) - 1, zero)
