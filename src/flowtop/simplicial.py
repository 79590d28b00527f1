"""Simplicial complexes with exact integer homology.

This is the independent verifier for the closed-form homology rules: a
complex is a vertex order plus its face lattice, derived from a facet
list (a product generates it from its factors' lattices), and its facets
are read off the lattice.  Boundary matrices use the alternating-sign
rule with lexicographically ordered bases.  Homology is computed
exactly, torsion included: the boundaries are reduced top-down as sparse
columns on their +-1 pivots, and only the residual, the few columns
whose lowest entry is not a unit, goes through dense Smith normal form.
Clearing and emergent pairs leave most columns unbuilt (see
:func:`simplicial_homology`).  The top boundary of a closed
pseudomanifold, every (top-1)-face in exactly two top simplices, builds
none: its rank, its factors 2 and the rows it clears come from a
spanning forest of the dual graph (:func:`_dual_forest`).

Constructors cover triangulated spheres, polygons, products (staircase
triangulation) and connected sums; together they triangulate any manifold
expression via :func:`triangulate`.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Hashable, Iterable, Sequence
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, repeat
from operator import itemgetter
from typing import Any

from .expressions import ConnSum, ManifoldExpr, Product, SphereAtom
from .homology import GradedGroup, _check_degree
from .snf import IntegerMatrix, smith_diagonal

__all__ = [
    "SimplicialComplex",
    "boundary_sphere_complex",
    "circle_complex",
    "complex_from_json",
    "complex_to_json",
    "connected_sum_complex",
    "product_complex",
    "projective_plane_complex",
    "simplicial_homology",
    "triangulate",
]

_NOT_SCALAR = "vertex labels must be JSON scalars, not lists or objects"


class SimplicialComplex:
    """Abstract simplicial complex over an ordered vertex set.

    The order of ``vertices`` is the total order that orients every
    simplex.  Only the face lattice is kept, derived a level at a time
    from the top, each face once per coface; ``facets``, the maximal
    simplices, are read off it.  A complex over ``max_dim``, if given, is
    refused before any face is made.

    A label is its type and value together, as in JSON, where 1, 1.0 and
    true are three labels: ``[1, True]`` is two vertices, and a facet
    label names a vertex only if it has that vertex's type as well.  Each
    label is checked here, an unhashable one (a JSON list or object) too.
    """

    def __init__(self, vertices: Iterable[Hashable], facets: Iterable[Sequence[Hashable]],
                 max_dim: int | None = None):
        labels = list(vertices)
        if not labels:
            raise ValueError("a complex needs at least one vertex")
        index: dict[tuple[type, Hashable], int] = {}
        try:
            for pos, key in enumerate(zip(map(type, labels), labels)):
                if index.setdefault(key, pos) != pos:
                    raise ValueError(f"repeated vertex label {key[1]!r}")
        except TypeError:  # an unhashable label: from JSON, a list or object
            raise ValueError(_NOT_SCALAR) from None

        by_size: dict[int, set[tuple[int, ...]]] = {}
        for facet in facets:
            keys = zip(map(type, facet), facet)  # a non-iterable facet stays a TypeError
            try:
                f = tuple(sorted(map(index.__getitem__, keys)))
            except KeyError as exc:
                lab = exc.args[0][1]
                raise ValueError(f"facet vertex {lab!r} is not in the vertex set") from None
            except TypeError:
                raise ValueError(_NOT_SCALAR) from None
            if len(set(f)) != len(f):
                raise ValueError(f"facet {list(facet)!r} contains a repeated vertex")
            if not f:
                raise ValueError("empty facet")
            by_size.setdefault(len(f), set()).add(f)
        if not by_size:
            raise ValueError("a complex needs at least one facet")
        dim = max(by_size) - 1
        if max_dim is not None and dim > max_dim:
            raise ValueError(f"complex has dimension {dim}, above the limit {max_dim}")
        # Faces taken from a sorted level come out nearly sorted.
        lattice = []
        level: list[tuple[int, ...]] = []
        for size in range(dim + 1, 0, -1):
            faces = _faces(level, size)
            level = sorted([*faces, *(f for f in by_size.get(size, ()) if f not in faces)])
            lattice.append(level)

        self._labels = tuple(labels)
        self._simplices = lattice[::-1]

    @classmethod
    def _from_lattice(cls, labels: tuple[Hashable, ...],
                      levels: list[list[tuple[int, ...]]]) -> SimplicialComplex:
        """A complex whose face lattice, as vertex index tuples each sorted,
        is already known; each level is sorted here, in place."""
        for level in levels:
            level.sort()
        K = cls.__new__(cls)
        K._labels = labels
        K._simplices = levels
        return K

    @cached_property
    def _facets(self) -> tuple[tuple[int, ...], ...]:
        """The maximal simplices, sorted: each simplex that is not a face of
        the level above it, derived on the first read and kept."""
        levels = self._simplices
        maximal = list(levels[-1])
        for size, (level, above) in enumerate(zip(levels, levels[1:]), 1):
            faces = _faces(above, size)
            maximal += [s for s in level if s not in faces]
        return tuple(sorted(maximal))

    @property
    def vertices(self) -> tuple[Hashable, ...]:
        return self._labels

    @property
    def facets(self) -> tuple[tuple[Hashable, ...], ...]:
        return tuple(tuple(self._labels[i] for i in f) for f in self._facets)

    @property
    def dim(self) -> int:
        return len(self._simplices) - 1

    def n_simplices(self, d: int) -> int:
        """Number of d-simplices; 0 for an int d outside 0..dim."""
        _check_degree(d)
        if 0 <= d <= self.dim:
            return len(self._simplices[d])
        return 0

    def simplices(self, d: int) -> list[tuple[Hashable, ...]]:
        """d-simplices as label tuples, in lexicographic basis order; [] for
        an int d outside 0..dim."""
        _check_degree(d)
        if not 0 <= d <= self.dim:
            return []
        return [tuple(self._labels[i] for i in s) for s in self._simplices[d]]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self._simplices))

    def _boundary_of(self, i: int) -> tuple[Callable[[tuple[int, ...]], int],
                                            Callable[[tuple[int, ...]], dict[int, int]]]:
        """The row of each (i-1)-simplex, and the column of each i-simplex as
        a {row: sign} dict, in the bases and with the signs that
        :meth:`boundary_matrix` documents.

        ``combinations(simplex, i)`` lists the faces in increasing order,
        the first dropping the last vertex, so the signs run from (-1)^i
        down to (-1)^0.
        """
        level = self._simplices[i - 1]
        face_row = dict(zip(level, range(len(level)))).__getitem__
        signs = [-1 if j % 2 else 1 for j in range(i, -1, -1)]
        return face_row, lambda s: dict(zip(map(face_row, combinations(s, i)), signs))

    def boundary_matrix(self, i: int) -> IntegerMatrix:
        """Sparse matrix of the i-th boundary operator, 1 <= i <= dim.

        Rows are indexed by the (i-1)-simplices and columns by the
        i-simplices, both in lexicographic order; the entry for dropping
        the j-th vertex is (-1)^j.  Only the i + 1 nonzero entries of each
        column are stored.  The columns are valid by construction (rows
        from the (i-1)-level, entries +-1), so the matrix adopts them
        without a second check or copy.
        """
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= self.dim:
            raise ValueError(f"boundary degree must lie in 1..{self.dim}, got {i!r}")
        return IntegerMatrix._of(list(map(self._boundary_of(i)[1], self._simplices[i])),
                                 len(self._simplices[i - 1]))

    def __repr__(self) -> str:
        counts = [len(level) for level in self._simplices]
        return f"SimplicialComplex(dim={self.dim}, simplex_counts={counts})"


def _faces(level: Iterable[tuple[int, ...]], size: int) -> dict[tuple[int, ...], None]:
    """The faces with ``size`` vertices of the simplices in ``level``, each
    once, in the order first met."""
    return dict.fromkeys(chain.from_iterable(map(combinations, level, repeat(size))))


def _eliminate_unit_pivots(lows: Sequence[int | None],
                           column: Callable[[int], dict[int, int]],
                           second: Callable[[int], int] | None = None
                           ) -> tuple[dict[int, int], IntegerMatrix]:
    """Split the +-1 pivots off a sparse integer matrix whose columns are
    built only when they are read.

    ``column(c)`` builds column c as a dict from row index to a nonzero
    entry; ``lows[c]`` is the row of its lowest entry (largest index) when
    that entry is known to be +-1, else None.  Nothing is checked, as in
    ``IntegerMatrix._of``: the caller guarantees non-negative int rows and
    nonzero int entries.  The pivots are taken on each column's lowest row
    by a left-to-right column reduction.  In basis
    order, while a column's lowest row is the pivot row of an earlier
    column, that pivot column is subtracted from it; when its lowest entry
    is then +-1, that row becomes its pivot.  A reduced pivot column is zero
    below its pivot row, so on the pivot rows these columns form a
    triangular block with +-1 on the diagonal.  The lowest row is read from
    a lazy max-heap of the column's rows: a row whose entry cancelled is
    skipped, and a row that fills in is pushed.

    Emergent pairs: a column whose ``lows`` row is not yet a pivot row
    becomes its pivot at once and is not built, since nothing would be
    subtracted from it.  It is built the first time a later column
    subtracts it, as it stands, for it is its own reduced column, and that
    column is kept.

    One subtraction deep: ``second(c)``, when given, is the row of the
    lowest entry, +-1, of c minus the emergent column p that pivots on
    ``lows[c]``; p is emergent when ``lows[p] == lows[c]``.  If that row is
    free, c pivots there unbuilt, as the reduction would after subtracting
    p, and c - p is built the first time a later column subtracts it.
    Only one step is taken: following the chain further built fewer
    columns but cost more than it saved.  Every pivot column is read
    through ``reduced``, which keeps it in the local cache ``built`` from
    its first read on.  So each column is built at most once, and the
    pivots and residual are those of the same reduction on columns all
    built up front.

    The columns whose lowest entry is not +-1 (few in practice) then have
    their pivot rows cleared, highest row first, which leaves them zero on
    every pivot row.  Adding multiples of the pivot rows to the other rows
    then clears the pivot columns off them and leaves the rest untouched,
    and the triangular pivot block is unimodular, so the matrix is
    equivalent over Z to an identity block beside the rest: its invariant
    factors are the pivots' 1s followed by the residual's.

    Returns the pivots, as a dict from pivot row to its column, and the
    residual: the non-empty columns left, in order, on the rows they touch,
    renumbered 0..k-1 and free of zeros, so the matrix adopts them unchecked.
    The residual may still hold +-1 entries.  The dicts that ``column``
    returns are reduced in place: afterwards each built pivot column holds
    its reduced column and every other column its part of the residual (on
    the original rows).
    """
    pivot_of: dict[int, int] = {}  # pivot row -> its column
    built: dict[int, dict[int, int]] = {}  # pivot column -> its reduced column

    def reduced(c: int) -> dict[int, int]:
        col = built.get(c)
        if col is not None:
            return col
        col = column(c)
        low = lows[c]
        p = pivot_of[low]
        if p != c:  # paired one subtraction deep
            pivot = reduced(p)
            _subtract(col, pivot, col[low] * pivot[low], [])
        built[c] = col
        return col

    rest: list[dict[int, int]] = []
    for c, low in enumerate(lows):
        if low is not None:
            p = pivot_of.get(low)
            if p is None:
                pivot_of[low] = c  # emergent pair
                continue
            if second is not None and lows[p] == low:
                row = second(c)
                if row not in pivot_of:
                    pivot_of[row] = c  # paired one subtraction deep
                    continue
        col = column(c)
        heap = [-r for r in col]
        heapify(heap)
        while col:
            low = -heap[0]
            if low not in col:
                heappop(heap)  # cancelled
            elif low in pivot_of:
                pivot = reduced(pivot_of[low])
                _subtract(col, pivot, col[low] * pivot[low], heap)
            else:
                if col[low] == 1 or col[low] == -1:
                    pivot_of[low] = c
                    built[c] = col
                else:
                    rest.append(col)
                break
    for col in rest:
        heap = [-r for r in col]
        heapify(heap)
        while heap:
            r = -heappop(heap)
            if r in col and r in pivot_of:
                pivot = reduced(pivot_of[r])
                _subtract(col, pivot, col[r] * pivot[r], heap)
    kept = [col for col in rest if col]
    renumber = {r: k for k, r in enumerate(sorted({r for col in kept for r in col}))}
    residual = [{renumber[r]: x for r, x in col.items()} for col in kept]
    return pivot_of, IntegerMatrix._of(residual, len(renumber))


def _subtract(col: dict[int, int], pivot: dict[int, int], q: int, heap: list[int]) -> None:
    """col -= q * pivot, pushing each row that fills in onto the max-heap."""
    for r, x in pivot.items():
        if r in col:
            y = col[r] - q * x
            if y:
                col[r] = y
            else:
                del col[r]
        else:
            col[r] = -q * x
            heappush(heap, -r)


def _dual_forest(K: SimplicialComplex) -> tuple[set[int], int] | None:
    """The rows that d_top clears and its number of factors 2, read off the
    dual graph of K when every (top-1)-face has exactly two cofaces; None
    otherwise, having built nothing but the face table.

    Each row of d_top then holds two entries +-1, so d_top is the signed
    incidence matrix of a graph: the nodes are the top simplices and each
    (top-1)-face is an edge between its two cofaces.  A union-find with
    parity visits the edges in decreasing row order (Kruskal, for a maximum
    spanning forest) and signs each node of a tree so that the tree's edges
    cancel: edge r, with entries s_a and s_b at its ends, cancels when
    sigma_a s_a + sigma_b s_b = 0.  An edge that joins two trees is a tree
    edge, and its row is cleared.  An edge inside one tree that does not
    cancel under its signs makes that component non-orientable.

    Clearing stays valid for any spanning forest.  Cut a tree edge e and
    take the subtree below it.  The chain sum of sigma_v v over the
    subtree's nodes has its boundary in ker d_{top-1}, and that boundary is
    +-1 on e and 0 on every other tree edge: a tree edge inside the subtree
    cancels, and one outside it does not touch it.  So on the cleared rows
    these boundaries form a signed identity block Z_R, which is unimodular,
    and the clearing argument of :func:`simplicial_homology` holds.

    The invariant factors are exact: 1s, plus one 2 per non-orientable
    component.  Scaling the columns by the signs sigma is unimodular and
    makes every tree row +-(e_a - e_b).  The tree rows of a component span,
    over Z, the vectors on its nodes with coordinate sum 0.  Every other row
    is +-(e_a - e_b), which they span already, or +-(e_a + e_b), which adds
    2 e_b.  So the component's rows span the sum-0 lattice, or the lattice
    of even coordinate sum if it is non-orientable: invariant factors 1,
    and one 2 in the second case.  rank d_top is the number of tree edges
    plus the number of non-orientable components.

    The decreasing order keeps the elimination's cleared rows on orientable
    inputs; this is persistence duality.  Over Q, column reduction on lowest
    rows pairs the same positions in a matrix and, mirrored, in its
    anti-transpose, since a lower-left block of one is a transposed
    lower-left block of the other and has the same rank.  The anti-transpose
    of d_top is the graph's boundary matrix with its edges in decreasing
    order as columns, where an edge is a pivot column exactly when it is
    independent of the edges before it: on an orientable component, when it
    joins two trees.  The elimination takes the pivots of the reduction
    over Q while every lowest entry it meets is +-1.  On a non-orientable
    component it may leave to its residual a row that is a tree edge here;
    the rank, the factors and the clearing above hold either way.

    One pass over the incidences, the faces of every top simplex in the
    ``combinations`` order that :meth:`SimplicialComplex._boundary_of`
    signs, records each row's first and second coface, and stops at a row
    met a third time.  There are exactly 2 f_{top-1} incidences, so if no
    row is met three times, every row is met exactly twice.
    """
    top = K.dim
    cells = K._simplices[top]
    n_rows = len(K._simplices[top - 1])
    width = top + 1
    if 2 * n_rows != width * len(cells):
        return None
    face_row = K._boundary_of(top)[0]
    first: list[int | None] = [None] * n_rows
    second: list[int | None] = [None] * n_rows
    # Incidence k is face k % width of simplex k // width, whose sign is
    # (-1)^(top - k % width).
    faces = chain.from_iterable(map(combinations, cells, repeat(top)))
    for k, r in enumerate(map(face_row, faces)):
        if first[r] is None:
            first[r] = k
        elif second[r] is None:
            second[r] = k
        else:
            return None
    parent = list(range(len(cells)))
    flip = [0] * len(cells)  # sigma_v sigma_parent(v) = (-1)^flip[v]
    size = [1] * len(cells)
    twisted = [False] * len(cells)  # of a root: its component is non-orientable
    tree = set()
    for r in range(n_rows - 1, -1, -1):
        a, ma = divmod(second[r], width)
        b, mb = divmod(first[r], width)
        # row r cancels when sigma_a sigma_b = (-1)^want; walking up to the
        # roots turns that into the relation the roots need
        want = (ma ^ mb ^ 1) & 1
        while parent[a] != a:
            want ^= flip[a]
            a = parent[a]
        while parent[b] != b:
            want ^= flip[b]
            b = parent[b]
        if a == b:
            if want:
                twisted[a] = True
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        flip[b] = want
        size[a] += size[b]
        twisted[a] = twisted[a] or twisted[b]
        tree.add(r)
    return tree, sum(1 for v, p in enumerate(parent) if v == p and twisted[v])


def simplicial_homology(K: SimplicialComplex) -> GradedGroup:
    """Integer homology of K from the invariant factors of its boundary maps.

    The boundaries are taken top-down, from d_top to d_1.  Each d_i has its
    +-1 pivots split off (:func:`_eliminate_unit_pivots`); only the
    residual, empty or not, goes to dense Smith normal form.  rank d_i is
    the number of pivots plus the residual's rank.  rank H_i = (#i-simplices) - rank d_i -
    rank d_{i+1}, and the torsion of H_i is the set of invariant factors of
    d_{i+1} exceeding 1, all of which come from the residual.

    A closed pseudomanifold, where every (top-1)-face has exactly two
    cofaces, as every triangulated closed manifold here does, has its d_top
    read off its dual graph instead (:func:`_dual_forest`): no top column is
    built and no Smith form taken, and the tree edges of a spanning forest
    are the rows cleared from d_{top-1}.  Any other complex, including one
    with a (top-1)-face of 1 or 3 or more cofaces, goes through the
    elimination in every degree; ``2 f_{top-1} != (top + 1) f_top`` rules
    most of them out before any table is built.

    Emergent pairs: the lowest row of the column of s = (v0 < ... < vi) is
    known without building it.  In lexicographically ordered bases the
    largest face of s is s[1:], since it alone does not start with v0, and
    its sign is (-1)^0 = +1.  So a column whose lowest row is not yet a
    pivot row is paired on the spot, with nothing subtracted, and its
    boundary is built only if a later column subtracts it.

    One subtraction deep: if the row of s[1:] is taken, its pivot p is
    emergent (the first kept column touching that row is (u, s[1:]) for
    the least u), so p = (u, v1, ..., vi) with u < v0.  Then c - p has its
    lowest entry, -1, at the row of s[:1] + s[2:]: the s[1:] entries
    cancel, the other faces of s start with v0 and lie below it, and the
    other faces of p start with u.  When that row is free, c is paired
    there, and c and p are built only if a later column reads c.

    Clearing: the columns of d_i whose i-simplices were pivot rows of
    d_{i+1} are left out.  Each pivot of d_{i+1} has a reduced column
    z_k, an integer combination of columns of d_{i+1}, so it lies in
    ker d_i, with +-1 at its pivot row r_k and zero below it.  On the pivot
    rows R the block Z_R of these columns is therefore triangular with +-1
    on the diagonal, hence unimodular (a spanning forest of the dual graph
    gives a signed identity instead), and d_i Z = 0 gives
    D_R = -D_S Z_S Z_R^-1 for the other columns S.  Every cleared column is
    an integer combination of the kept ones, so the image lattice of d_i,
    its rank and every invariant factor are unchanged.
    """
    top = K.dim
    rank_d: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    pivots: Container[int] = ()  # of d_{i+1}: its pivot rows are cleared from d_i
    forest = _dual_forest(K) if top else None
    if forest is not None:
        pivots, twisted = forest
        rank_d[top] = len(pivots) + twisted
        torsion[top - 1] = (2,) * twisted
    for i in range(top - (forest is not None), 0, -1):
        face_row, boundary = K._boundary_of(i)
        kept = [s for r, s in enumerate(K._simplices[i]) if r not in pivots]
        lows = list(map(face_row, map(itemgetter(slice(1, None)), kept)))
        pivots, residual = _eliminate_unit_pivots(
            lows, lambda c: boundary(kept[c]), lambda c: face_row(kept[c][:1] + kept[c][2:]))
        diag = smith_diagonal(residual)
        rank_d[i] = len(pivots) + sum(1 for x in diag if x)
        torsion[i - 1] = tuple(x for x in diag if x > 1)
    ranks = {i: K.n_simplices(i) - rank_d.get(i, 0) - rank_d.get(i + 1, 0)
             for i in range(top + 1)}
    return GradedGroup(ranks, torsion)


def boundary_sphere_complex(k: int) -> SimplicialComplex:
    """The k-sphere as the boundary of the standard (k+1)-simplex: its faces
    are the proper subsets of the k + 2 vertices, listed in lexicographic
    order by ``combinations``."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"sphere dimension must be an integer >= 1, got {k!r}")
    verts = range(k + 2)
    levels = [list(combinations(verts, size)) for size in range(1, k + 2)]
    return SimplicialComplex._from_lattice(tuple(verts), levels)


def circle_complex(m: int) -> SimplicialComplex:
    """The circle as an m-gon, m >= 3."""
    if not isinstance(m, int) or m < 3:
        raise ValueError(f"a polygon needs at least 3 vertices, got {m!r}")
    return SimplicialComplex(range(m), [(i, (i + 1) % m) for i in range(m)])


def projective_plane_complex() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the projective plane.

    Non-orientable, with 2-torsion in degree 1; exercises the torsion path
    of the homology computation.
    """
    facets = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
              (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    return SimplicialComplex(range(6), facets)


def product_complex(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of the product |K| x |L|.

    Vertices are pairs (a, b) ordered lexicographically by the factor
    orders.  For each facet pair (f, h) the top cells are the monotone
    lattice paths through the grid f x h; using the global vertex orders
    makes the path triangulations agree on shared faces.

    The face lattice is generated from the factors' face lattices, each
    simplex exactly once, never from the facets' subsets.  A simplex is a
    chain in some f x h, so it is fixed by its projections, a p-face s of
    K and a q-face t of L, and by the word of its d steps through the grid
    s x t: d - q steps (1, 0), d - p steps (0, 1) and p + q - d steps
    (1, 1), for max(p, q) <= d <= p + q.  Conversely, every such chain
    lies in f x h for any facets f of K containing s and h of L containing
    t.  So f_d = sum over p, q of f_p(K) f_q(L) d!/((d-q)!(d-p)!(p+q-d)!),
    the closed-form f-vector of a product.  Vertex (a, b) has index
    a * |L| + b, which increases along a chain, so every generated tuple
    is increasing; :meth:`SimplicialComplex._from_lattice` sorts the levels.
    """
    width = len(L._labels)

    def cells(pairs: list[list[int]], p: int, q: int, d: int) -> list[tuple[int, ...]]:
        """The d-simplices over the grids of p-faces by q-faces in pairs."""
        words = []
        for down in combinations(range(d), d - q):
            rest = [k for k in range(d) if k not in down]
            for across in combinations(rest, d - p):
                i = j = 0
                path = [0]
                for k in range(d):
                    i += k not in across
                    j += k not in down
                    path.append(i * (q + 1) + j)
                # itemgetter of one index returns the item, not a 1-tuple
                words.append(itemgetter(*path) if d else tuple)
        return [word(grid) for word in words for grid in pairs]

    levels: list[list[tuple[int, ...]]] = [[] for _ in range(K.dim + L.dim + 1)]
    for p, faces_K in enumerate(K._simplices):
        rows = [[a * width for a in s] for s in faces_K]
        for q, faces_L in enumerate(L._simplices):
            # the grids s x t flattened by rows, faces of L the outer loop: for
            # one word, the simplices over one face of L come out in the sorted
            # order of the faces of K, so each level is sorted from long runs
            pairs = [[a + b for a in r for b in t] for t in faces_L for r in rows]
            for d in range(max(p, q), p + q + 1):
                levels[d] += cells(pairs, p, q, d)
    labels = tuple((a, b) for a in K._labels for b in L._labels)
    return SimplicialComplex._from_lattice(labels, levels)


def connected_sum_complex(K: SimplicialComplex, L: SimplicialComplex,
                          n: int) -> SimplicialComplex:
    """Connected sum of two triangulated closed n-manifolds.

    Removes the lexicographically first facet from each complex and glues
    the two boundary (n-1)-spheres by the order-preserving vertex
    bijection.  The result is relabelled with consecutive integers, K's
    vertices first.  Homology ranks of the result do not depend on the
    choice of gluing bijection for the symmetric pieces built here; only
    rank-level agreement is asserted.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"connected sums need dimension >= 2, got {n!r}")
    if K.dim != n or L.dim != n:
        raise ValueError(
            f"dimension mismatch: expected two {n}-complexes, got {K.dim} and {L.dim}")
    for complex_ in (K, L):
        for facet in complex_.facets:
            if len(facet) != n + 1:
                raise ValueError(
                    f"facet {facet!r} has dimension {len(facet) - 1}, so its boundary "
                    f"is not a standard {n - 1}-sphere; the complex must be pure")
    return _glue([K, L])


def _glue(pieces: Sequence[SimplicialComplex]) -> SimplicialComplex:
    """Connected sum of closed pure n-complexes, glued in order in one pass.

    Each step removes the lexicographically first facet of the sum so far
    and the first facet of the next piece, and glues the two by the
    order-preserving vertex bijection; the piece's other vertices get the
    next fresh integers in its vertex order.  The first piece's vertices
    become 0, 1, ...  The running facets are kept in a heap, so the
    facet each step removes is found without rebuilding the sum.

    The face lattice is the union of the pieces' relabelled lattices: a
    piece's simplices inside its glued facet are already in the sum (as
    faces of the facet removed there, which lie in other facets of a closed
    complex), and every other one has a fresh vertex, so it is new.  The top
    level is the facets that are left.  The relabelling keeps the order
    among the glued vertices and among the others, and the glued ones get
    the smaller labels, so a simplex is relabelled in order once its glued
    vertices are moved to the front; that order is worked out once per
    distinct piece, and each copy is relabelled a level at a time.
    """
    first, *rest = pieces
    heap = list(first._simplices[-1])  # a pure piece's facets, sorted, so a heap
    levels = [list(level) for level in first._simplices[:-1]]
    fresh = len(first._labels)
    shaped = None
    for piece in rest:
        glued = piece._simplices[-1][0]
        if piece is not shaped:
            # the vertices of each level's new simplices, glued ones first,
            # in one flat list per level
            shaped, inside = piece, set(glued)
            front = {v: (v not in inside, v) for v in range(len(piece._labels))}.__getitem__
            *lower, top = [list(chain.from_iterable(sorted(s, key=front) for s in level
                                                    if not inside.issuperset(s)))
                           for level in piece._simplices]
        relabel = dict(zip(glued, heappop(heap)))
        for v in range(len(piece._labels)):
            if v not in relabel:
                relabel[v] = fresh
                fresh += 1
        label_of = relabel.__getitem__
        # zip over size copies of one iterator cuts it into size-tuples
        for size, (level, flat) in enumerate(zip(levels, lower), 1):
            level += zip(*[map(label_of, flat)] * size)
        for facet in zip(*[map(label_of, top)] * len(glued)):
            heappush(heap, facet)
    return SimplicialComplex._from_lattice(tuple(range(fresh)), levels + [heap])


def triangulate(expr: ManifoldExpr) -> SimplicialComplex:
    """Triangulation of a manifold expression, built recursively.

    Spheres become simplex boundaries, products use the staircase
    triangulation, and connected sums glue along removed facets, all
    copies in one pass (one heap operation per facet, never a rebuild per
    copy).  Cost grows quickly with total dimension; the CLI guards this
    with a dimension limit.
    """
    if isinstance(expr, SphereAtom):
        return boundary_sphere_complex(expr.k)
    if isinstance(expr, Product):
        return product_complex(triangulate(expr.left), triangulate(expr.right))
    if isinstance(expr, ConnSum):
        return _glue([piece for s, k in expr.parts for piece in [triangulate(s)] * k])
    raise TypeError(f"not a manifold expression: {expr!r}")


def complex_to_json(K: SimplicialComplex) -> dict:
    """Serializable form: vertex labels and facets as strings.  Two labels
    that print alike, such as 1 and '1', are refused: read back, they would
    be one label repeated."""
    named: dict[str, Hashable] = {}
    for v in K.vertices:
        if (first := named.setdefault(str(v), v)) is not v:
            raise ValueError(f"vertex labels {first!r} and {v!r} are both written {str(v)!r}")
    names = list(named)
    return {
        "vertices": names,
        "facets": [[names[i] for i in f] for f in K._facets],
    }


def complex_from_json(data: Any, max_dim: int | None = None) -> SimplicialComplex:
    """Build a complex from ``{"vertices": [...], "facets": [[...], ...]}``.

    Only the document's shape is checked here; the labels, list and object
    labels included, are the constructor's to check, in its order.
    """
    if not isinstance(data, dict):
        raise ValueError("complex must be a JSON object")
    if "vertices" not in data or "facets" not in data:
        raise ValueError("complex needs 'vertices' and 'facets' fields")
    vertices = data["vertices"]
    facets = data["facets"]
    if not isinstance(vertices, list) or not isinstance(facets, list):
        raise ValueError("'vertices' and 'facets' must be lists")
    if not all(isinstance(f, list) for f in facets):
        raise ValueError("each facet must be a list of vertex labels")
    return SimplicialComplex(vertices, facets, max_dim)
