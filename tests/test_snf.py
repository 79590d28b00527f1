import math
import random

import pytest

from flowtop.snf import IntegerMatrix, smith_diagonal, smith_normal_form

from helpers import det_over_Q, random_unimodular, rank_over_Q


def assert_valid_snf(A):
    """Full contract: U @ A @ V == D, D diagonal with a non-negative
    divisibility chain, and U, V unimodular."""
    D, U, V = smith_normal_form(A)
    assert U @ A @ V == D
    assert D.shape == A.shape
    assert D.is_diagonal()
    diag = D.diagonal()
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    # zeros only after the last nonzero entry
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert U.determinant() in (1, -1)
    assert V.determinant() in (1, -1)
    return D, U, V


class TestIntegerMatrix:
    def test_shape_and_access(self):
        A = IntegerMatrix([[1, 2, 3], [4, 5, 6]])
        assert A.shape == (2, 3)
        assert A[1, 2] == 6
        assert A.row(0) == (1, 2, 3)
        assert A.column(1) == (2, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix([[1, 2], [3]])
        with pytest.raises(TypeError):
            IntegerMatrix([[1.5]])
        with pytest.raises(TypeError):
            IntegerMatrix([[True]])
        with pytest.raises(ValueError):
            IntegerMatrix([])

    def test_empty_needs_explicit_ncols(self):
        A = IntegerMatrix([], ncols=3)
        assert A.shape == (0, 3)

    def test_matmul(self):
        A = IntegerMatrix([[1, 2], [3, 4]])
        B = IntegerMatrix([[0, 1], [1, 0]])
        assert A @ B == IntegerMatrix([[2, 1], [4, 3]])
        assert IntegerMatrix.identity(2) @ A == A
        with pytest.raises(ValueError):
            A @ IntegerMatrix([[1, 2, 3]])

    def test_determinant(self):
        assert IntegerMatrix.identity(4).determinant() == 1
        assert IntegerMatrix([[2, 0], [0, 3]]).determinant() == 6
        assert IntegerMatrix([[0, 1], [1, 0]]).determinant() == -1
        assert IntegerMatrix([[1, 2], [2, 4]]).determinant() == 0
        with pytest.raises(ValueError):
            IntegerMatrix([[1, 2, 3]]).determinant()

    def test_determinant_against_rational_elimination(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(1, 10)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert IntegerMatrix(rows).determinant() == det_over_Q(rows)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # gcd 1 and determinant 6 force diag(1, 6)
        D, _, _ = assert_valid_snf(IntegerMatrix([[2, 0], [0, 3]]))
        assert D.diagonal() == [1, 6]

    def test_known_2x2(self):
        # gcd of entries 2, |det| = 8, so diag(2, 4)
        D, _, _ = assert_valid_snf(IntegerMatrix([[2, 4], [6, 8]]))
        assert D.diagonal() == [2, 4]

    def test_zero_matrix(self):
        A = IntegerMatrix.zeros(3, 2)
        D, U, V = smith_normal_form(A)
        assert D == A
        assert U == IntegerMatrix.identity(3)
        assert V == IntegerMatrix.identity(2)

    def test_empty_matrix(self):
        A = IntegerMatrix([], ncols=3)
        D, U, V = smith_normal_form(A)
        assert D.shape == (0, 3)
        assert U.shape == (0, 0)
        assert V == IntegerMatrix.identity(3)

    def test_single_entry(self):
        D, _, _ = assert_valid_snf(IntegerMatrix([[-6]]))
        assert D.diagonal() == [6]

    def test_smith_diagonal_matches_full_form(self):
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(1, 10)
            n = rng.randint(1, 10)
            A = IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            D, _, _ = smith_normal_form(A)
            assert smith_diagonal(A) == D.diagonal()

    def test_property_suite_random_matrices(self):
        rng = random.Random(20240813)
        for _ in range(100):
            m = rng.randint(1, 12)
            n = rng.randint(1, 12)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            A = IntegerMatrix(rows)
            D, _, _ = assert_valid_snf(A)
            rank = sum(1 for x in D.diagonal() if x)
            assert rank == rank_over_Q(rows, n)

    def test_invariant_under_unimodular_multiplication(self):
        rng = random.Random(20240814)
        for _ in range(100):
            m = rng.randint(1, 40)
            n = rng.randint(1, 40)
            A = IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            P = IntegerMatrix(random_unimodular(rng, m), ncols=m)
            Q = IntegerMatrix(random_unimodular(rng, n), ncols=n)
            assert P.determinant() in (1, -1)
            assert Q.determinant() in (1, -1)
            assert smith_diagonal(P @ A @ Q) == smith_diagonal(A)

    def test_property_suite_without_unit_entries(self):
        # The residual shape the oracle sends here: no entry is +-1, so the
        # column and row re-picks and the divisibility repair all run.
        rng = random.Random(20261018)
        values = [0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 12, -12]
        for _ in range(150):
            m = rng.randint(1, 10)
            n = rng.randint(1, 12)
            rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
            A = IntegerMatrix(rows)
            D, _, _ = assert_valid_snf(A)
            diag = D.diagonal()
            assert smith_diagonal(A) == diag
            assert diag[0] == math.gcd(*(x for row in rows for x in row))
            if m == n:
                assert math.prod(diag) == abs(det_over_Q(rows))
