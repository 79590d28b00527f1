"""Exact integer matrices and Smith normal form.

All arithmetic uses Python integers, so entries may grow freely during
elimination without overflow.  One pivot rule: the pivot is a nonzero
entry of least absolute value, first of the trailing submatrix, then of the
remainders that Euclidean steps leave in its column (cleared first) or row;
it is moved to the diagonal and made positive in one place.  Divisibility
violations are repaired by adding the offending row to the pivot row.
Keeping the pivot minimal bounds the intermediate coefficient growth well
enough for the matrix sizes this package meets, with no modular techniques.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "IntegerMatrix",
    "smith_diagonal",
    "smith_normal_form",
]


class IntegerMatrix:
    """Immutable rows-by-columns matrix of arbitrary-precision integers."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int | None = None):
        data = [list(row) for row in rows]
        if data:
            width = len(data[0])
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols = {ncols} does not match row length {width}")
        else:
            if ncols is None:
                raise ValueError("a matrix with no rows needs an explicit ncols")
            width = ncols
        for row in data:
            if len(row) != width:
                raise ValueError("all rows must have the same length")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"matrix entries must be integers, got {x!r}")
        self._rows = data
        self._ncols = width

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntegerMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._rows), self._ncols)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._rows[i][j]

    def tolists(self) -> list[list[int]]:
        return [row[:] for row in self._rows]

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._rows[i])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._rows)

    def diagonal(self) -> list[int]:
        return [self._rows[i][i] for i in range(min(self.shape))]

    def is_diagonal(self) -> bool:
        return all(x == 0
                   for i, row in enumerate(self._rows)
                   for j, x in enumerate(row) if i != j)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self._ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = [[0] * other._ncols for _ in self._rows]
        for i, arow in enumerate(self._rows):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik:
                    brow = other._rows[k]
                    for j, bkj in enumerate(brow):
                        if bkj:
                            orow[j] += aik * bkj
        return IntegerMatrix(out, ncols=other._ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._ncols, tuple(map(tuple, self._rows))))

    def __repr__(self) -> str:
        return f"IntegerMatrix({self._rows!r})"

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        m, n = self.shape
        if m != n:
            raise ValueError("determinant needs a square matrix")
        if n == 0:
            return 1
        a = self.tolists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = a[k][k]
            for i in range(k + 1, n):
                aik = a[i][k]
                rowi = a[i]
                rowk = a[k]
                for j in range(k + 1, n):
                    rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
                rowi[k] = 0
            prev = pivot
        return sign * a[n - 1][n - 1]


def _smith(d: list[list[int]], m: int, n: int,
           u: list[list[int]] | None, v: list[list[int]] | None) -> None:
    """In-place elimination of d to Smith form.

    Row operations are mirrored onto u and column operations onto v (when
    provided), preserving u * A * v == d throughout.
    """

    def swap_rows(a: int, b: int) -> None:
        d[a], d[b] = d[b], d[a]
        if u is not None:
            u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int) -> None:
        for row in d:
            row[a], row[b] = row[b], row[a]
        if v is not None:
            for row in v:
                row[a], row[b] = row[b], row[a]

    def negate_row(a: int) -> None:
        d[a] = [-x for x in d[a]]
        if u is not None:
            u[a] = [-x for x in u[a]]

    def row_reduce(tgt: int, src: int, q: int) -> None:
        src_row = d[src]
        d[tgt] = [x - q * y for x, y in zip(d[tgt], src_row)]
        if u is not None:
            src_row = u[src]
            u[tgt] = [x - q * y for x, y in zip(u[tgt], src_row)]

    def col_reduce(tgt: int, src: int, q: int) -> None:
        for row in d:
            if row[src]:
                row[tgt] -= q * row[src]
        if v is not None:
            for row in v:
                if row[src]:
                    row[tgt] -= q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Minimal |entry| pivot in the trailing submatrix; 1 is always optimal.
        best = 0
        bi = bj = -1
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                e = row[j]
                if e:
                    if e < 0:
                        e = -e
                    if best == 0 or e < best:
                        best, bi, bj = e, i, j
                        if e == 1:
                            break
            if best == 1:
                break
        if best == 0:
            break

        while True:
            # The one place a pivot is placed: (bi, bj) moves to (t, t), positive.
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            if d[t][t] < 0:
                negate_row(t)
            pivot = d[t][t]
            # Euclidean steps down the column, then along the row.  Floor
            # division leaves remainders in [0, pivot), so the smallest one
            # left over is a strictly smaller next pivot.
            rest = []
            for i in range(t + 1, m):
                if d[i][t]:
                    if q := d[i][t] // pivot:
                        row_reduce(i, t, q)
                    if d[i][t]:
                        rest.append(i)
            if rest:
                bi, bj = min(rest, key=lambda i: d[i][t]), t
                continue
            row_t = d[t]
            rest = []
            for j in range(t + 1, n):
                if row_t[j]:
                    if q := row_t[j] // pivot:
                        col_reduce(j, t, q)
                    if row_t[j]:
                        rest.append(j)
            if rest:
                bi, bj = t, min(rest, key=row_t.__getitem__)
                continue
            # The pivot must divide everything in the trailing submatrix;
            # otherwise add the first offending row to the pivot row.
            offender = None
            if pivot != 1:
                offender = next((i for i in range(t + 1, m)
                                 if any(x % pivot for x in d[i][t + 1:])), None)
            if offender is None:
                break
            row_reduce(t, offender, -1)
            bi = bj = t
        t += 1


def smith_normal_form(A: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Diagonalize A over the integers: returns (D, U, V) with U @ A @ V == D.

    D is diagonal with non-negative entries satisfying d_1 | d_2 | ...,
    and U, V are unimodular (determinant +1 or -1).
    """
    m, n = A.shape
    d = A.tolists()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    _smith(d, m, n, u, v)
    return (IntegerMatrix(d, ncols=n),
            IntegerMatrix(u, ncols=m),
            IntegerMatrix(v, ncols=n))


def smith_diagonal(A: IntegerMatrix) -> list[int]:
    """Diagonal of the Smith form of A, without tracking the transforms."""
    m, n = A.shape
    d = A.tolists()
    _smith(d, m, n, None, None)
    return [d[i][i] for i in range(min(m, n))]
