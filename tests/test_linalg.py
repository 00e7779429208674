import random

import pytest
import sympy

from gonalift import linalg
from gonalift.errors import SingularMatrix
from gonalift.ff import FqField
from gonalift.ok import OkRing

F7 = FqField(7)


def rand_matrix(field, rng, k):
    return [[field.random_element(rng) for _ in range(k)] for _ in range(k)]


def test_det_matches_sympy_over_f7():
    rng = random.Random(1)
    for k in (1, 2, 3, 4, 5):
        for _ in range(10):
            m = rand_matrix(F7, rng, k)
            expected = int(sympy.Matrix([[c.coeffs[0] for c in row] for row in m]).det()) % 7
            assert linalg.det(m, F7.zero, F7.one).coeffs[0] == expected


def test_det_division_free_over_ok():
    ring = OkRing(7, [1, 0, 1])
    rng = random.Random(2)
    for _ in range(10):
        m = [[ring.element([rng.randrange(-9, 9), rng.randrange(-9, 9)])
              for _ in range(3)] for _ in range(3)]
        d = linalg.det(m, ring.zero, ring.one)
        reduced = [[ring.reduce_mod_p(x) for x in row] for row in m]
        d2 = linalg.det(reduced, ring.field.zero, ring.field.one)
        assert ring.reduce_mod_p(d) == d2


def test_inverse_and_solve():
    rng = random.Random(3)
    for k in (2, 3, 4):
        for _ in range(10):
            m = rand_matrix(F7, rng, k)
            try:
                inv = linalg.inverse(F7, m)
            except SingularMatrix:
                assert not linalg.det(m, F7.zero, F7.one)
                continue
            prod = linalg.mat_mul(m, inv)
            assert prod == linalg.identity(F7, k)
            b = [[F7.random_element(rng)] for _ in range(k)]
            assert linalg.mat_mul(m, linalg.mat_mul(inv, b)) == b


def test_kernel_basis():
    rng = random.Random(4)
    for _ in range(20):
        rows = [[F7.random_element(rng) for _ in range(5)] for _ in range(3)]
        basis = linalg.kernel_basis(F7, rows)
        assert len(basis) == 5 - len(linalg.rref(F7, rows)[1])
        for v in basis:
            assert linalg.mat_mul(rows, [[c] for c in v]) == [[F7.zero]] * 3


def test_rref_pivots():
    rows = [[F7.element(2), F7.element(4)], [F7.element(1), F7.element(2)]]
    red, pivots = linalg.rref(F7, rows)
    assert pivots == [0]
    assert red[0] == [F7.one, F7.element(2)]
