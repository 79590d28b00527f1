"""Exact integer matrices and Smith normal form.

All arithmetic uses Python integers, so entries may grow freely during
elimination without overflow.  One pivot rule: every pivot is a nonzero
entry of least absolute value in the trailing submatrix, moved to the
diagonal and made positive.  Euclidean steps clear its column, then its
row; a divisibility violation is repaired by adding the offending row to
the pivot row, whose row step then leaves a remainder.  A remainder lies in
[1, pivot) inside the trailing submatrix, so the next search finds a
strictly smaller pivot, and the elimination ends.  A least pivot bounds
the coefficient growth of :func:`smith_diagonal` well enough for the
oracle's residuals.  It does not bound U and V in :func:`smith_normal_form`,
which are not reduced as it goes: on a random 60 x 60 matrix with entries
in -9..9 their largest entry has some 1700 digits.  The known remedy is
Kannan and Bachem's (SIAM J. Comput. 8:4, 1979).
There is one elimination: :func:`smith_diagonal` runs it on A alone, and
:func:`smith_normal_form` runs it on the augmented matrix [[A, I], [I, 0]],
where the identity blocks become the transforms U and V (Cohen, *A Course
in Computational Algebraic Number Theory*, 1993, section 2.4).

Entries and row indices are checked in one place,
:meth:`IntegerMatrix.from_columns`; ``IntegerMatrix(rows, ncols)`` checks
only its shape and passes its columns there.  The package's own columns that are
valid by construction (boundary matrices and the residual of unit-pivot
elimination) are adopted unchecked and uncopied through the private
``IntegerMatrix._of``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

__all__ = [
    "IntegerMatrix",
    "smith_diagonal",
    "smith_normal_form",
]


def _check_size(name: str, n) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")


class IntegerMatrix:
    """Immutable matrix of arbitrary-precision integers, stored as sparse columns.

    Column j is a dict from row index to nonzero entry.  Zeros are never
    stored, so checking, comparing and multiplying a matrix built by
    :meth:`from_columns` costs O(nonzeros), not O(rows x columns).  Both
    public constructors check every entry and row index: the row
    constructor checks its shape and passes its columns to
    :meth:`from_columns`.  Only ``_of``, for columns the package builds
    valid, skips the check.
    """

    __slots__ = ("_cols", "_nrows")

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int | None = None):
        if ncols is not None:
            _check_size("ncols", ncols)
        data = [list(row) for row in rows]
        if ncols is None:
            if not data:
                raise ValueError("a matrix with no rows needs an explicit ncols")
            ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise ValueError(f"every row must have length {ncols}")
        columns = map(dict, map(enumerate, zip(*data))) if data else [{}] * ncols
        checked = self.from_columns(columns, len(data))
        self._cols = checked._cols
        self._nrows = checked._nrows

    @classmethod
    def from_columns(cls, columns: Iterable[Mapping[int, int]], nrows: int) -> "IntegerMatrix":
        """Matrix whose j-th column maps row indices to entries; zeros are dropped.

        Entries are checked as the row constructor checks them, and every
        row index must be an integer in 0..nrows-1.  The columns are copied,
        so the caller's mappings are never adopted.
        """
        _check_size("nrows", nrows)
        cols = []
        for column in columns:
            col = {}
            for r, x in column.items():
                if not isinstance(r, int) or isinstance(r, bool):
                    raise TypeError(f"row indices must be integers, got {r!r}")
                if not 0 <= r < nrows:
                    raise ValueError(f"row index {r} is outside 0..{nrows - 1}")
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"matrix entries must be integers, got {x!r}")
                if x:
                    col[r] = x
            cols.append(col)
        return cls._of(cols, nrows)

    @classmethod
    def _of(cls, columns: list[dict[int, int]], nrows: int) -> "IntegerMatrix":
        """Matrix that adopts ``columns`` as they are: no check, no copy.

        The caller guarantees that ``nrows`` is a non-negative int, that
        every row index is a non-bool int in 0..nrows-1 and every entry a
        nonzero non-bool int, and that no one mutates the dicts afterwards.
        """
        matrix = object.__new__(cls)
        matrix._cols = columns
        matrix._nrows = nrows
        return matrix

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.from_columns(({j: 1} for j in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntegerMatrix":
        return cls.from_columns([{}] * ncols, nrows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, len(self._cols))

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return len(self._cols)

    def _row_index(self, i: int) -> int:
        if not -self._nrows <= i < self._nrows:
            raise IndexError(f"row index {i} out of range for {self._nrows} rows")
        return i % self._nrows

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._cols[j].get(self._row_index(i), 0)

    def tolists(self) -> list[list[int]]:
        out = [[0] * len(self._cols) for _ in range(self._nrows)]
        for j, col in enumerate(self._cols):
            for i, x in col.items():
                out[i][j] = x
        return out

    def row(self, i: int) -> tuple[int, ...]:
        i = self._row_index(i)
        return tuple(col.get(i, 0) for col in self._cols)

    def column(self, j: int) -> tuple[int, ...]:
        col = self._cols[j]
        return tuple(col.get(i, 0) for i in range(self._nrows))

    def diagonal(self) -> list[int]:
        return [self._cols[i].get(i, 0) for i in range(min(self.shape))]

    def is_diagonal(self) -> bool:
        return all(col.keys() <= {j} for j, col in enumerate(self._cols))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for bcol in other._cols:
            acc: dict[int, int] = {}
            for k, bkj in bcol.items():
                for i, aik in self._cols[k].items():
                    acc[i] = acc.get(i, 0) + aik * bkj
            out.append(acc)
        return IntegerMatrix.from_columns(out, self._nrows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self._nrows == other._nrows and self._cols == other._cols

    def __hash__(self) -> int:
        return hash((self._nrows, tuple(frozenset(col.items()) for col in self._cols)))

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.tolists()!r})"

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


def _smith(d: list[list[int]], m: int, n: int) -> None:
    """In-place elimination of the top-left m x n block of d to Smith form.

    Pivots are picked and cleared only in that block, but every row and
    column operation acts on the whole of d.  So the rows of d below the
    block record the column operations and the columns to its right record
    the row operations (see :func:`smith_normal_form`).
    """
    for t in range(min(m, n)):
        while True:
            # The one pivot rule: a least nonzero |entry| of the trailing
            # block, moved to (t, t) and made positive; 1 is always least.
            best = 0
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
                return
            if bi != t:
                d[t], d[bi] = d[bi], d[t]
            if bj != t:
                for row in d:
                    row[t], row[bj] = row[bj], row[t]
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
            pivot = d[t][t]
            # Euclidean steps down the column, then along the row.  A
            # remainder left in [1, pivot) sends the loop back to the search,
            # which then finds a strictly smaller pivot.
            row_t = d[t]
            for i in range(t + 1, m):
                if d[i][t] and (q := d[i][t] // pivot):
                    d[i] = [x - q * y for x, y in zip(d[i], row_t)]
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            for j in range(t + 1, n):
                if row_t[j] and (q := row_t[j] // pivot):
                    for row in d:
                        if row[t]:
                            row[j] -= q * row[t]
            if any(row_t[t + 1:n]):
                continue
            # The pivot must divide everything in the trailing submatrix;
            # otherwise add the first offending row to the pivot row, whose
            # row step then leaves a remainder.
            offender = None
            if pivot != 1:
                offender = next((i for i in range(t + 1, m)
                                 if any(x % pivot for x in d[i][t + 1:n])), None)
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(row_t, d[offender])]


def smith_normal_form(A: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Diagonalize A over the integers: returns (D, U, V) with U @ A @ V == D.

    D is diagonal with non-negative entries satisfying d_1 | d_2 | ...,
    and U, V are unimodular (determinant +1 or -1).  All three come from
    one elimination, the one :func:`smith_diagonal` runs, on the augmented
    matrix [[A, I_m], [I_n, 0]]: the row operations turn I_m into U, the
    column operations turn I_n into V, and A becomes D = U A V.
    """
    m, n = A.shape
    d = [row + [int(i == j) for j in range(m)] for i, row in enumerate(A.tolists())]
    d += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    _smith(d, m, n)
    return (IntegerMatrix([row[:n] for row in d[:m]], ncols=n),
            IntegerMatrix([row[n:] for row in d[:m]], ncols=m),
            IntegerMatrix([row[:n] for row in d[m:]], ncols=n))


def smith_diagonal(A: IntegerMatrix) -> list[int]:
    """Diagonal of the Smith form of A, without tracking the transforms."""
    m, n = A.shape
    d = A.tolists()
    _smith(d, m, n)
    return [d[i][i] for i in range(min(m, n))]
