import math
import random
import re

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


def random_dense(rng, m, n):
    """Rows of small entries, mostly zero, with some rows and columns all zero."""
    dead_rows = {i for i in range(m) if rng.random() < 0.2}
    dead_cols = {j for j in range(n) if rng.random() < 0.2}
    return [[0 if i in dead_rows or j in dead_cols or rng.random() < 0.6
             else rng.randint(-5, 5) for j in range(n)] for i in range(m)]


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

    def test_shape_refusals(self):
        for rows, ncols in [([[1], [2, 3]], None), ([[1, 2], [3]], 2),
                            ([[1, 2]], 3), ([[1, 2], [3, 4]], 1), ([], -1)]:
            with pytest.raises(ValueError):
                IntegerMatrix(rows, ncols=ncols)
        with pytest.raises(ValueError):
            IntegerMatrix.from_columns([], -1)

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
        assert IntegerMatrix.zeros(0, 0).determinant() == 1
        # a zero column below the pivot: no row swap can help
        assert IntegerMatrix([[0, 1], [0, 2]]).determinant() == 0
        with pytest.raises(ValueError):
            IntegerMatrix([[1, 2, 3]]).determinant()

    def test_against_dense_reference(self):
        # Sparse storage must be invisible: every accessor and @ agree with
        # plain lists of lists, on empty shapes and zero rows and columns too.
        rng = random.Random(20261019)
        shapes = [(0, 0), (0, 4), (3, 0)] + [(rng.randint(1, 7), rng.randint(1, 7))
                                              for _ in range(120)]
        for m, n in shapes:
            rows = random_dense(rng, m, n)
            A = IntegerMatrix(rows, ncols=n)
            columns = [{i: rows[i][j] for i in range(m) if rows[i][j] or rng.random() < 0.2}
                       for j in range(n)]  # some explicit zeros, which are dropped
            B = IntegerMatrix.from_columns(columns, m)
            assert A == B and hash(A) == hash(B)
            assert A.shape == B.shape == (m, n)
            assert A.tolists() == B.tolists() == rows
            assert IntegerMatrix(A.tolists(), ncols=n) == A
            assert repr(B) == f"IntegerMatrix({rows!r})"
            for i in range(-m, m):
                assert B.row(i) == tuple(rows[i])
                for j in range(-n, n):
                    assert B[i, j] == rows[i][j]
            for j in range(-n, n):
                assert B.column(j) == tuple(row[j] for row in rows)
            for bad in ((m, 0), (-m - 1, 0), (0, n), (0, -n - 1)):
                with pytest.raises(IndexError):
                    B[bad]
            with pytest.raises(IndexError):
                B.row(m)
            with pytest.raises(IndexError):
                B.column(n)
            assert B.diagonal() == [rows[i][i] for i in range(min(m, n))]
            assert B.is_diagonal() == all(rows[i][j] == 0 for i in range(m)
                                          for j in range(n) if i != j)
            p = rng.randint(0, 6)
            other = random_dense(rng, n, p)
            product = [[sum(rows[i][k] * other[k][j] for k in range(n)) for j in range(p)]
                       for i in range(m)]
            assert (B @ IntegerMatrix(other, ncols=p)).tolists() == product
        assert IntegerMatrix.from_columns([{1: 3}, {}], 2).is_diagonal() is False
        assert IntegerMatrix.from_columns([{0: 3}, {1: -1}], 2).is_diagonal() is True

    def test_from_columns_checks_every_entry(self):
        for column, error in [({0: True}, TypeError), ({0: 1.0}, TypeError),
                              ({True: 1}, TypeError), ({-1: 1}, ValueError),
                              ({3: 1}, ValueError)]:
            with pytest.raises(error):
                IntegerMatrix.from_columns([{}, column], 3)
        # Equal only if the explicit zeros were dropped.
        A = IntegerMatrix.from_columns([{0: 0, 2: 5}, {1: 0}], 3)
        B = IntegerMatrix([[0, 0], [0, 0], [5, 0]])
        assert A == B and hash(A) == hash(B)

    @pytest.mark.parametrize("ncols", [True, 1.5, "2"])
    def test_ncols_that_is_not_an_int_is_refused(self, ncols):
        refusal = re.escape(f" must be an integer, got {ncols!r}")
        for rows in ([], [[1]]):
            with pytest.raises(TypeError, match="ncols" + refusal):
                IntegerMatrix(rows, ncols=ncols)
        # the wording from_columns gives a bad nrows
        with pytest.raises(TypeError, match="nrows" + refusal):
            IntegerMatrix.from_columns([], ncols)

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

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix(self, m, n):
        A = IntegerMatrix.zeros(m, n)
        D, U, V = smith_normal_form(A)
        assert D == A
        assert U == IntegerMatrix.identity(m)
        assert V == IntegerMatrix.identity(n)
        assert smith_diagonal(A) == []

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
        # remainders left in the column and in the row and the divisibility
        # repair all send the elimination back to its one pivot search.
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
