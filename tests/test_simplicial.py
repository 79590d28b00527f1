import random
import re
from functools import reduce
from itertools import combinations
from math import factorial

import pytest

from flowtop.expressions import ConnSum, Product, parse_manifold, s_ng
from flowtop.homology import GradedGroup, homology
from flowtop import simplicial
from flowtop.simplicial import (
    SimplicialComplex,
    boundary_sphere_complex,
    circle_complex,
    complex_from_json,
    complex_to_json,
    connected_sum_complex,
    _eliminate_unit_pivots,
    product_complex,
    projective_plane_complex,
    simplicial_homology,
    triangulate,
)
from flowtop.snf import IntegerMatrix, smith_diagonal

from helpers import address_space_cap


def point_complex():
    return SimplicialComplex(["p"], [["p"]])


def torus_complex():
    return product_complex(circle_complex(3), circle_complex(3))


def assert_boundaries_are_the_checked_columns(K, monkeypatch):
    """Every boundary of K equals the validating constructor applied to the
    columns the alternating-sign rule gives, yet neither ``boundary_matrix``
    nor ``simplicial_homology`` calls it, and the elimination, which reduces
    its columns in place, leaves the returned matrices as they were."""
    calls = []
    from_columns = IntegerMatrix.from_columns.__func__

    def counting(cls, columns, nrows):
        calls.append(1)
        return from_columns(cls, columns, nrows)

    monkeypatch.setattr(IntegerMatrix, "from_columns", classmethod(counting))
    degrees = range(1, K.dim + 1)
    before = {i: K.boundary_matrix(i) for i in degrees}
    simplicial_homology(K)
    after = {i: K.boundary_matrix(i) for i in degrees}
    assert not calls
    for i, d in before.items():
        assert d.shape == (K.n_simplices(i - 1), K.n_simplices(i))
        row_of = {face: r for r, face in enumerate(K.simplices(i - 1))}
        columns = [{row_of[s[:j] + s[j + 1:]]: (-1) ** j for j in range(i + 1)}
                   for s in K.simplices(i)]
        assert d == after[i] == IntegerMatrix.from_columns(columns, d.nrows), i
    return before


def assert_chain_complex(K):
    for i in range(2, K.dim + 1):
        lower = K.boundary_matrix(i - 1)
        upper = K.boundary_matrix(i)
        assert lower @ upper == IntegerMatrix.zeros(lower.nrows, upper.ncols)


class TestConstruction:
    def test_lattice_closed_under_faces(self):
        K = SimplicialComplex(range(4), [(0, 1, 2), (1, 2, 3)])
        assert K.n_simplices(0) == 4
        assert K.n_simplices(1) == 5
        assert K.n_simplices(2) == 2
        assert ((1, 2) in K.simplices(1))

    def test_duplicate_and_subset_facets_dropped(self):
        K = SimplicialComplex(range(3), [(0, 1, 2), (2, 1, 0), (0, 1)])
        assert K.facets == ((0, 1, 2),)
        # (0, 1) and (3,) lie in larger facets; the edge (2, 3) and the
        # vertex (4,) do not, so they stay maximal.
        K = SimplicialComplex(range(5), [(0, 1, 2), (0, 1), (2, 3), (3,), (4,)])
        assert K.facets == ((0, 1, 2), (2, 3), (4,))
        assert [K.n_simplices(d) for d in range(3)] == [5, 4, 1]

    def test_random_non_pure_facet_sets_match_brute_force(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            facets = [rng.sample(range(n), rng.randint(1, n))
                      for _ in range(rng.randint(1, 25))]
            K = SimplicialComplex(range(n), facets)
            sets = {frozenset(f) for f in facets}
            maximal = sorted(tuple(sorted(f)) for f in sets if not any(f < g for g in sets))
            assert list(K.facets) == maximal, seed
            for d in range(K.dim + 1):
                faces = {s for f in maximal for s in combinations(f, d + 1)}
                assert K.simplices(d) == sorted(faces), (seed, d)
            assert K.dim == max(map(len, maximal)) - 1

    def test_from_lattice_sorts_the_levels_it_is_handed(self):
        # A filled triangle's levels, each handed over in reverse order.
        levels = [list(combinations(range(3), size))[::-1] for size in (1, 2, 3)]
        K = SimplicialComplex._from_lattice((0, 1, 2), levels)
        assert [K.simplices(d) for d in range(3)] == [
            [(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
        built = SimplicialComplex(range(3), [(0, 1, 2)])
        assert K.facets == built.facets == ((0, 1, 2),)
        assert all(K.boundary_matrix(i) == built.boundary_matrix(i) for i in (1, 2))

    @pytest.mark.parametrize("vertices, facets, message", [
        ([], [], "a complex needs at least one vertex"),
        ([], [["a"]], "a complex needs at least one vertex"),
        (["a", "b", "a", "b"], [["a"]], "repeated vertex label 'a'"),
        (["a", "a"], [["z"]], "repeated vertex label 'a'"),
        (["a"], [["a", "b"]], "facet vertex 'b' is not in the vertex set"),
        (["a", "b"], [["a", "z", "y"]], "facet vertex 'z' is not in the vertex set"),
        (["a", "b"], [["b", "a", "b"]], "facet ['b', 'a', 'b'] contains a repeated vertex"),
        (["a", "b"], [["a", "a", "z"]], "facet vertex 'z' is not in the vertex set"),
        (["a"], [], "a complex needs at least one facet"),
        (["a", "b"], [["a", "b"], []], "empty facet"),
        # The first faulty facet in input order is the one named.
        (["a", "b"], [["a", "b"], [], ["z"]], "empty facet"),
        (["a", "b"], [["a"], ["z"], []], "facet vertex 'z' is not in the vertex set"),
        (["a", "b"], [["b", "b"], ["z"]], "facet ['b', 'b'] contains a repeated vertex"),
        (["a", "b"], [[], ["a", "a"]], "empty facet"),
        # A label is its type and value, as in JSON: 2.0 names no vertex 2.
        ([1, 2], [[1, 2.0]], "facet vertex 2.0 is not in the vertex set"),
    ])
    def test_validation(self, vertices, facets, message):
        with pytest.raises(ValueError) as info:
            SimplicialComplex(vertices, facets)
        assert str(info.value) == message

    @pytest.mark.parametrize("facets, message", [
        ([range(30)], "complex has dimension 29, above the limit 28"),
        # A faulty facet is named first, wherever it is.
        ([range(30), [0, 0]], "facet [0, 0] contains a repeated vertex"),
        ([[0, 1], range(30), []], "empty facet"),
    ])
    def test_max_dim_refuses_before_building_a_face(self, facets, message):
        # All 2^30 - 1 faces of a 30-vertex facet would need gigabytes.
        with address_space_cap(), pytest.raises(ValueError) as info:
            SimplicialComplex(range(30), facets, max_dim=28)
        assert str(info.value) == message

    def test_max_dim_is_the_largest_dimension_built(self):
        K = SimplicialComplex(range(8), [range(8)], max_dim=7)
        assert [K.n_simplices(d) for d in range(8)] == [8, 28, 56, 70, 56, 28, 8, 1]


class TestSphereAndCircle:
    def test_triangle(self):
        K = boundary_sphere_complex(1)
        assert K.n_simplices(0) == 3
        assert K.n_simplices(1) == 3

    def test_tetrahedron_boundary(self):
        K = boundary_sphere_complex(2)
        assert K.n_simplices(0) == 4
        assert K.n_simplices(2) == 4

    def test_dimension_three(self):
        K = boundary_sphere_complex(3)
        assert K.n_simplices(0) == 5
        assert K.n_simplices(3) == 5

    def test_sphere_homology(self):
        for k in range(1, 5):
            group = simplicial_homology(boundary_sphere_complex(k))
            assert group.ranks == {0: 1, k: 1}
            assert group.is_torsion_free

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            boundary_sphere_complex(0)
        with pytest.raises(ValueError):
            circle_complex(2)

    def test_bool_is_not_a_dimension(self):
        with pytest.raises(ValueError, match="sphere dimension"):
            boundary_sphere_complex(True)
        with pytest.raises(ValueError, match="polygon"):
            circle_complex(True)
        with pytest.raises(ValueError, match="dimension >= 2"):
            connected_sum_complex(torus_complex(), torus_complex(), n=True)

    def test_polygon_homology(self):
        assert simplicial_homology(circle_complex(4)).ranks == {0: 1, 1: 1}
        assert (simplicial_homology(circle_complex(3))
                == simplicial_homology(boundary_sphere_complex(1)))

    def test_closed_form_lattice_matches_the_facet_derived_one(self):
        for k in range(1, 7):
            K = boundary_sphere_complex(k)
            assert_same_complex(K, SimplicialComplex(range(k + 2), combinations(range(k + 2), k + 1)))

    def test_polygon_euler_characteristic(self):
        K = circle_complex(3)
        assert K.n_simplices(0) == 3
        assert K.n_simplices(1) == 3
        assert K.euler_characteristic() == 0


class TestBoundaryMatrix:
    def test_triangle_rank(self):
        K = boundary_sphere_complex(1)
        d1 = K.boundary_matrix(1)
        assert d1.shape == (3, 3)
        from helpers import rank_over_Q
        assert rank_over_Q(d1.tolists(), 3) == 2

    def test_tetrahedron_boundary_columns(self):
        d2 = boundary_sphere_complex(2).boundary_matrix(2)
        assert d2.ncols == 4
        for j in range(4):
            col = [d2[i, j] for i in range(d2.nrows)]
            assert sorted(abs(x) for x in col if x) == [1, 1, 1]

    def test_out_of_range(self):
        K = boundary_sphere_complex(2)
        with pytest.raises(ValueError):
            K.boundary_matrix(0)
        with pytest.raises(ValueError):
            K.boundary_matrix(3)

    @pytest.mark.parametrize("degree", [True, 1.0, "1"])
    def test_degree_that_is_not_an_int_is_refused(self, degree):
        # True == 1 and hashes like it, so only a type check tells them apart.
        K = boundary_sphere_complex(2)
        with pytest.raises(ValueError, match="boundary degree must lie in 1..2"):
            K.boundary_matrix(degree)
        refusal = re.escape(f"degree must be an integer, got {degree!r}")
        for method in (K.n_simplices, K.simplices):
            with pytest.raises(ValueError, match=refusal):
                method(degree)
        # an int outside 0..dim is a degree with no simplices
        assert [K.n_simplices(d) for d in (-1, 3)] == [0, 0]
        assert [K.simplices(d) for d in (-1, 3)] == [[], []]

    def test_s2_cubed_boundaries_are_sparse(self, monkeypatch):
        # Densely, d_4 alone is 18240 x 27456 entries, several gigabytes;
        # sparse, every boundary of S2 x S2 x S2 fits well under the cap.
        K = triangulate(parse_manifold("S2 x S2 x S2"))
        with address_space_cap():
            boundaries = assert_boundaries_are_the_checked_columns(K, monkeypatch)
            for i, d in boundaries.items():
                if i > 1:
                    lower = boundaries[i - 1]
                    assert lower @ d == IntegerMatrix.zeros(lower.nrows, d.ncols)

    @pytest.mark.parametrize("make", [
        projective_plane_complex,
        lambda: complex_from_json(complex_to_json(permuted(
            product_complex(projective_plane_complex(), circle_complex(3)), random.Random(3)))),
        lambda: triangulate(parse_manifold("Sng(4,3)")),
        lambda: triangulate(parse_manifold("S3 x S3")),
        lambda: SimplicialComplex(range(7), [(0, 1, 2, 3), (2, 3, 4), (4, 5), (5, 6), (4, 6),
                                             (1, 5)]),
    ], ids=["RP2", "shuffled JSON RP2 x S1", "Sng(4,3)", "S3 x S3", "non-pure"])
    def test_boundaries_are_the_checked_columns(self, make, monkeypatch):
        assert_boundaries_are_the_checked_columns(make(), monkeypatch)

    def test_chain_complex_identity(self):
        for K in (boundary_sphere_complex(2), boundary_sphere_complex(3),
                  torus_complex(), projective_plane_complex(),
                  product_complex(boundary_sphere_complex(2), circle_complex(3)),
                  triangulate(s_ng(3, 2))):
            assert_chain_complex(K)


class TestProductComplex:
    def test_torus(self):
        K = torus_complex()
        assert K.n_simplices(0) == 9
        assert K.n_simplices(2) == 18
        assert simplicial_homology(K).ranks == {0: 1, 1: 2, 2: 1}

    def test_s2_x_s1(self):
        K = product_complex(boundary_sphere_complex(2), circle_complex(3))
        assert simplicial_homology(K).ranks == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_identity_factor(self):
        K = boundary_sphere_complex(2)
        P = product_complex(K, point_complex())
        assert simplicial_homology(P) == simplicial_homology(K)

    def test_euler_characteristic_multiplies(self):
        K = boundary_sphere_complex(2)
        L = circle_complex(4)
        P = product_complex(K, L)
        assert P.euler_characteristic() == K.euler_characteristic() * L.euler_characteristic()


class TestConnectedSumComplex:
    def test_two_tori(self):
        K = connected_sum_complex(torus_complex(), torus_complex(), 2)
        assert simplicial_homology(K).ranks == {0: 1, 1: 4, 2: 1}

    def test_sum_with_sphere_is_identity(self):
        torus = torus_complex()
        K = connected_sum_complex(torus, boundary_sphere_complex(2), 2)
        assert simplicial_homology(K) == simplicial_homology(torus)
        handle = product_complex(boundary_sphere_complex(2), circle_complex(3))
        L = connected_sum_complex(handle, boundary_sphere_complex(3), 3)
        assert simplicial_homology(L) == simplicial_homology(handle)

    def test_two_handles_dimension_three(self):
        handle = product_complex(boundary_sphere_complex(2), circle_complex(3))
        K = connected_sum_complex(handle, handle, 3)
        assert simplicial_homology(K).ranks == {0: 1, 1: 2, 2: 2, 3: 1}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            connected_sum_complex(torus_complex(), boundary_sphere_complex(3), 2)
        with pytest.raises(ValueError):
            connected_sum_complex(torus_complex(), torus_complex(), 3)

    def test_inputs_are_not_changed(self):
        handle = product_complex(boundary_sphere_complex(2), circle_complex(3))
        before = (handle.vertices, handle.facets, repr(handle))
        K = connected_sum_complex(handle, handle, 3)
        assert (handle.vertices, handle.facets, repr(handle)) == before
        assert simplicial_homology(K) == simplicial_homology(triangulate(s_ng(3, 2)))

    def test_impure_complex_rejected(self):
        impure = SimplicialComplex(range(5), [(0, 1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match=re.escape("facet (2, 3) has dimension 1,")):
            connected_sum_complex(impure, impure, 2)


class TestTorsion:
    def test_projective_plane(self):
        K = projective_plane_complex()
        assert K.euler_characteristic() == 1
        group = simplicial_homology(K)
        assert group.ranks == {0: 1}
        assert group.torsion == {1: (2,)}

    def test_connected_sum_of_projective_planes(self):
        # Klein bottle: rank 1 plus 2-torsion in degree 1
        K = connected_sum_complex(projective_plane_complex(),
                                  projective_plane_complex(), 2)
        group = simplicial_homology(K)
        assert group.ranks == {0: 1, 1: 1}
        assert group.torsion == {1: (2,)}


def unit_lows(columns):
    """Each column's lowest row where its entry is +-1, else None."""
    return [max(col) if col and col[max(col)] in (1, -1) else None for col in columns]


def eliminate(columns):
    """_eliminate_unit_pivots on columns given up front, with the columns as
    the builder, so that they are reduced in place."""
    return _eliminate_unit_pivots(unit_lows(columns), columns.__getitem__)


def eliminated_factors(columns):
    """Nonzero invariant factors from unit-pivot elimination plus the residual."""
    pivots, residual = eliminate(columns)
    diag = smith_diagonal(residual)
    return [1] * len(pivots) + [x for x in diag if x], residual


def dense_factors(columns, nrows):
    dense = IntegerMatrix([[col.get(r, 0) for col in columns] for r in range(nrows)],
                          ncols=len(columns))
    return [x for x in smith_diagonal(dense) if x]


def random_sparse_columns(rng, nrows, ncols):
    """Sparse columns, mostly +-1 with some larger entries, and some rows and
    columns left entirely zero."""
    zero_rows = set(rng.sample(range(nrows), rng.randint(0, nrows // 3)))
    live_rows = [r for r in range(nrows) if r not in zero_rows]
    columns = []
    for _ in range(ncols):
        col = {}
        if live_rows and rng.random() > 0.15:
            for r in rng.sample(live_rows, rng.randint(1, min(4, len(live_rows)))):
                col[r] = rng.choice([1, -1, 1, -1, 1, -1, 2, -2, 3, -4, 6])
        columns.append(col)
    return columns


def permuted(K, rng):
    """K with a seeded vertex order, facet order and vertex order in each facet."""
    verts = list(K.vertices)
    rng.shuffle(verts)
    facets = [list(f) for f in K.facets]
    rng.shuffle(facets)
    for f in facets:
        rng.shuffle(f)
    return SimplicialComplex(verts, facets)


class TestUnitPivotElimination:
    def test_fill_in_beyond_unit_stays_in_residual(self):
        columns = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        factors, residual = eliminated_factors([dict(c) for c in columns])
        assert residual.shape == (1, 1)
        assert abs(residual[0, 0]) == 2
        assert factors == dense_factors(columns, 2) == [1, 2]

    def test_no_unit_entry_leaves_the_matrix_whole(self):
        columns = [{0: 2, 2: 4}, {}, {0: 6, 2: -2}]
        factors, residual = eliminated_factors([dict(c) for c in columns])
        # the zero row 1 and zero column 1 are dropped from the residual
        assert residual.shape == (2, 2)
        assert factors == dense_factors(columns, 3) == [2, 14]

    def test_matches_dense_smith_form(self):
        grew = 0
        for seed in range(150):
            rng = random.Random(seed)
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            columns = random_sparse_columns(rng, nrows, ncols)
            want = dense_factors(columns, nrows)
            # elimination mutates its input, so pass a copy
            got, residual = eliminated_factors([dict(c) for c in columns])
            assert got == want, (seed, columns)
            original = {abs(x) for c in columns for x in c.values()}
            grew += any(abs(residual[i, j]) not in original
                        for i in range(residual.nrows) for j in range(residual.ncols))
        assert grew  # some residual entry is fill-in that grew beyond the inputs

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_projective_plane_products_and_sums_under_permutation(self, seed):
        rng = random.Random(seed)
        rp2 = projective_plane_complex()
        square = simplicial_homology(permuted(product_complex(rp2, rp2), rng))
        assert square.ranks == {0: 1}
        assert square.torsion == {1: (2, 2), 2: (2,), 3: (2,)}
        klein = simplicial_homology(permuted(connected_sum_complex(rp2, rp2, 2), rng))
        assert klein.ranks == {0: 1, 1: 1}
        assert klein.torsion == {1: (2,)}


def full_boundary_columns(K, i):
    """Every column of d_i as {row: sign}, built from the public simplex lists."""
    row_of = {face: r for r, face in enumerate(K.simplices(i - 1))}
    return [{row_of[s[:j] + s[j + 1:]]: (-1) ** j for j in range(i + 1)}
            for s in K.simplices(i)]


def homology_without_clearing(K):
    """Reference with no clearing: unit-pivot elimination and the Smith form
    of the residual on every full boundary, in any order."""
    rank_d, torsion = {}, {}
    for i in range(1, K.dim + 1):
        pivots, residual = eliminate(full_boundary_columns(K, i))
        diag = smith_diagonal(residual)
        rank_d[i] = len(pivots) + sum(1 for x in diag if x)
        if any(x > 1 for x in diag):
            torsion[i - 1] = tuple(x for x in diag if x > 1)
    ranks = {i: K.n_simplices(i) - rank_d.get(i, 0) - rank_d.get(i + 1, 0)
             for i in range(K.dim + 1)}
    return GradedGroup({i: r for i, r in ranks.items() if r}, torsion)


def kept_columns(K):
    """The positions of the columns of each d_i left after clearing, from a
    reference that builds every column of every boundary up front."""
    kept, cleared = {}, set()
    for i in range(K.dim, 0, -1):
        kept[i] = [c for c in range(K.n_simplices(i)) if c not in cleared]
        columns = full_boundary_columns(K, i)
        pivots, _ = eliminate([columns[c] for c in kept[i]])
        cleared = set(pivots)
    return kept


def rp2_products_and_sums():
    rp2 = projective_plane_complex()
    return [product_complex(rp2, rp2), connected_sum_complex(rp2, rp2, 2),
            product_complex(rp2, boundary_sphere_complex(2))]


def record_builds(monkeypatch, dim):
    """Patch SimplicialComplex._boundary_of to record, per degree 1..dim,
    every simplex whose boundary column is built."""
    built = {i: [] for i in range(1, dim + 1)}
    boundary_of = SimplicialComplex._boundary_of

    def counting(self, i):
        face_row, column = boundary_of(self, i)

        def build(simplex):
            built[i].append(simplex)
            return column(simplex)

        return face_row, build

    monkeypatch.setattr(SimplicialComplex, "_boundary_of", counting)
    return built


class TestClearing:
    @pytest.mark.parametrize("seed", [5, 17, 41])
    def test_torsion_complexes_under_permutation_match_no_clearing(self, seed):
        rng = random.Random(seed)
        for K in rp2_products_and_sums():
            K = permuted(K, rng)
            assert simplicial_homology(K) == homology_without_clearing(K)

    @pytest.mark.parametrize("text", ["Sng(5,2)", "S2 x S1 x S1"])
    def test_triangulations_match_no_clearing(self, text):
        K = triangulate(parse_manifold(text))
        assert simplicial_homology(K) == homology_without_clearing(K)

    def test_random_subcomplexes_match_no_clearing(self):
        K = product_complex(projective_plane_complex(), circle_complex(3))
        facets = list(K.facets)
        with_torsion = 0
        for seed in range(60):
            rng = random.Random(seed)
            sub = SimplicialComplex(K.vertices, rng.sample(facets, rng.randint(45, len(facets))))
            group = simplicial_homology(sub)
            assert group == homology_without_clearing(sub), seed
            with_torsion += bool(group.torsion)
        assert with_torsion == 60

    @pytest.mark.parametrize("K", rp2_products_and_sums()
                             + [triangulate(parse_manifold("S2 x S1 x S1")),
                                triangulate(parse_manifold("Sng(5,2)"))])
    def test_cleared_columns_are_never_built(self, K, monkeypatch):
        built = record_builds(monkeypatch, K.dim)
        assert simplicial_homology(K) == homology_without_clearing(K)
        kept = kept_columns(K)
        # d_i builds only columns of i-simplices that were not pivot rows of
        # d_{i+1}, each at most once
        for i in range(1, K.dim + 1):
            rows = [K._simplices[i].index(s) for s in built[i]]
            assert len(set(rows)) == len(rows), i
            assert set(rows) <= set(kept[i]), i
        # emergent pairs: many kept columns are never built
        assert sum(map(len, built.values())) < sum(map(len, kept.values()))

    def test_every_residual_goes_through_smith_diagonal(self, monkeypatch):
        # one Smith form per boundary below d_top, d_{top-1} down to d_1, an
        # empty residual too; d_top of a closed manifold reads only the face
        # index of its boundary, and builds no column
        expr = parse_manifold("Sng(4,2)")
        K = triangulate(expr)
        calls = []
        built = record_builds(monkeypatch, K.dim)
        boundary_of = SimplicialComplex._boundary_of

        def logged_boundary(self, i):
            calls.append(("boundary", i))
            return boundary_of(self, i)

        def logged_smith(residual):
            calls.append(("smith", residual.shape))
            return smith_diagonal(residual)

        monkeypatch.setattr(SimplicialComplex, "_boundary_of", logged_boundary)
        monkeypatch.setattr(simplicial, "smith_diagonal", logged_smith)
        assert simplicial_homology(K) == homology(expr)
        assert calls[0] == ("boundary", K.dim)
        assert [c[0] for c in calls[1:]] == ["boundary", "smith"] * (K.dim - 1)
        assert [c[1] for c in calls[1::2]] == list(range(K.dim - 1, 0, -1))
        assert (0, 0) in [c[1] for c in calls[2::2]]
        assert built[K.dim] == []

    def test_pivot_columns_end_in_units_on_distinct_rows(self):
        matrices = [full_boundary_columns(K, i)
                    for K in rp2_products_and_sums() for i in range(1, K.dim + 1)]
        for seed in range(150):
            rng = random.Random(seed)
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            matrices.append(random_sparse_columns(rng, nrows, ncols))
        for columns in matrices:
            pivots, residual = eliminate(columns)
            assert_elimination_contract(columns, pivots, residual)


def disjoint_union(K, L):
    """K and L side by side, on the vertices (0, v) and (1, w)."""
    return SimplicialComplex([(0, v) for v in K.vertices] + [(1, w) for w in L.vertices],
                             [[(0, v) for v in f] for f in K.facets]
                             + [[(1, w) for w in f] for f in L.facets])


def theta_facets():
    """Three cones, with apexes p, q and r, on the boundary of the triangle abc."""
    return [[x, *e] for x in "pqr" for e in (("a", "b"), ("b", "c"), ("a", "c"))]


def reference_top(K):
    """rank, torsion and unit-pivot rows of d_top, every column built up front."""
    pivots, residual = eliminate(full_boundary_columns(K, K.dim))
    diag = smith_diagonal(residual)
    return len(pivots) + sum(1 for x in diag if x), tuple(x for x in diag if x > 1), set(pivots)


def closed_pseudomanifolds():
    rp2, s2 = projective_plane_complex(), boundary_sphere_complex(2)
    cases = [pytest.param(permuted(K, random.Random(seed)), id=f"{name}-seed{seed}")
             for seed in (4, 23)
             for name, K in zip(["RP2xRP2", "RP2#RP2", "RP2xS2"], rp2_products_and_sums())]
    cases += [pytest.param(disjoint_union(rp2, rp2), id="RP2+RP2"),
              pytest.param(disjoint_union(rp2, s2), id="RP2+S2"),
              pytest.param(disjoint_union(s2, s2), id="S2+S2"),
              pytest.param(circle_complex(5), id="circle"),
              pytest.param(permuted(circle_complex(6), random.Random(8)), id="circle-seed8")]
    return cases


ORIENTABLE = ["Sng(4,2)", "Sng(3,6)", "Sng(4,4)", "S3 x S2", "Sng(5,2)", "Sng(6,1)",
              "S2 x S1 x S1", "S1 x S1", "S3 # S2 x S1"]


class TestDualForest:
    @pytest.mark.parametrize("K", closed_pseudomanifolds())
    def test_matches_the_reference_elimination(self, K):
        tree, twisted = simplicial._dual_forest(K)
        rank, torsion, rows = reference_top(K)
        assert len(tree) + twisted == rank
        assert (2,) * twisted == torsion
        if not twisted:
            assert tree == rows
        assert simplicial_homology(K) == homology_without_clearing(K)

    @pytest.mark.parametrize("text", ORIENTABLE)
    @pytest.mark.parametrize("seed", [None, 6, 15])
    def test_orientable_inputs_clear_the_reference_rows(self, text, seed):
        K = triangulate(parse_manifold(text))
        if seed is not None:
            K = permuted(K, random.Random(seed))
        tree, twisted = simplicial._dual_forest(K)
        assert twisted == 0
        assert tree == reference_top(K)[2]

    @pytest.mark.parametrize("facets, ranks, passes_count", [
        # every edge of the triangle has three cofaces: 2 f_1 = 24 != 27 = 3 f_2
        (theta_facets(), {0: 1, 2: 2}, False),
        # minus the triangle pab, the counts agree (24 = 3 * 8), but ab has
        # two cofaces, bc and ac three, and pa and pb one
        (theta_facets()[1:], {0: 1, 2: 1}, True),
    ])
    def test_the_theta_complexes_fall_back(self, facets, ranks, passes_count, monkeypatch):
        K = SimplicialComplex("abcpqr", facets)
        asked = []
        boundary_of = SimplicialComplex._boundary_of
        monkeypatch.setattr(SimplicialComplex, "_boundary_of",
                            lambda self, i: asked.append(i) or boundary_of(self, i))
        assert simplicial._dual_forest(K) is None
        # the count alone rules the full theta complex out, before any table
        assert asked == ([2] if passes_count else [])
        group = simplicial_homology(K)
        assert group == homology_without_clearing(K) == GradedGroup(ranks, {})


def low_heavy_columns(rng, nrows, ncols):
    """Sparse columns whose lowest entry is mostly +-2 or +-3, with +-1
    entries above it, so that many columns are left for the residual."""
    columns = []
    for _ in range(ncols):
        col = {}
        if rng.random() > 0.1:
            rows = sorted(rng.sample(range(nrows), rng.randint(1, min(4, nrows))))
            for r in rows[:-1]:
                col[r] = rng.choice([1, -1, 1, -1, 2, -3])
            col[rows[-1]] = rng.choice([2, -2, 3, -3, 2, -3, 1, -1])
        columns.append(col)
    return columns


def assert_elimination_contract(columns, pivots, residual):
    """Each pivot column has +-1 on its pivot row and nothing below it; the
    other non-empty columns are the residual's, in order, on the original
    rows and off every pivot row."""
    pivot_columns = set(pivots.values())
    assert len(pivot_columns) == len(pivots)
    for r, c in pivots.items():
        assert columns[c][r] in (1, -1)
        assert max(columns[c]) == r
    others = [col for c, col in enumerate(columns) if col and c not in pivot_columns]
    assert not set(pivots) & {r for col in others for r in col}
    rows = sorted({r for col in others for r in col})
    assert residual.shape == (len(rows), len(others))
    assert all(residual[i, j] == col.get(r, 0)
               for j, col in enumerate(others) for i, r in enumerate(rows))


def checked_factors(columns):
    """Nonzero invariant factors from elimination of a copy of columns,
    with the elimination contract asserted, and the residual."""
    work = [dict(c) for c in columns]
    pivots, residual = eliminate(work)
    assert_elimination_contract(work, pivots, residual)
    diag = smith_diagonal(residual)
    return [1] * len(pivots) + [x for x in diag if x], residual


class TestLowPivotReduction:
    def test_unit_above_a_non_unit_lowest_entry_stays_in_the_residual(self):
        # Column 1's lowest entry is 2, with a 1 higher up: it is not a
        # pivot; clearing pivot row 2 from it leaves it on rows 0, 1 and 3.
        columns = [{1: 1, 2: 1}, {0: 1, 2: 1, 3: 2}, {0: 2, 3: 4}]
        assert dense_factors(columns, 4) == [1, 1, 2]
        pivots, residual = eliminate(columns)
        assert pivots == {2: 0}
        assert columns[1] == {0: 1, 1: -1, 3: 2}
        assert_elimination_contract(columns, pivots, residual)
        assert residual.shape == (3, 2)
        assert [1] + [x for x in smith_diagonal(residual) if x] == [1, 1, 2]

    def test_low_heavy_matrices_match_dense_smith_form(self):
        reached = 0
        for seed in range(200):
            rng = random.Random(seed)
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            columns = low_heavy_columns(rng, nrows, ncols)
            factors, residual = checked_factors(columns)
            assert factors == dense_factors(columns, nrows), (seed, columns)
            reached += residual.ncols > 0
        assert reached > 100

    def test_column_order_does_not_change_invariant_factors(self):
        for seed in range(200):
            rng = random.Random(seed)
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            columns = low_heavy_columns(rng, nrows, ncols)
            want, _ = checked_factors(columns)
            random.Random(seed + 1000).shuffle(columns)
            got, _ = checked_factors(columns)
            assert got == want, seed

    def test_top_boundary_of_a_closed_orientable_manifold(self):
        K = triangulate(parse_manifold("S1 x S1 x S1 x S1"))
        columns = K.boundary_matrix(4)._cols
        pivots, residual = eliminate(columns)
        assert len(pivots) == K.n_simplices(4) - 1
        assert residual.shape == (0, 0)
        assert_elimination_contract(columns, pivots, residual)

    @pytest.mark.parametrize("make", [
        lambda: product_complex(projective_plane_complex(), projective_plane_complex()),
        lambda: triangulate(parse_manifold("Sng(5,2)")),
        lambda: triangulate(parse_manifold("S3 x S3")),
    ])
    def test_boundary_columns_match_the_reference(self, make):
        K = make()
        for i in range(1, K.dim + 1):
            assert K.boundary_matrix(i)._cols == full_boundary_columns(K, i), i


def lowest_entry_cases(rng):
    """Spheres, products, sums and RP2, each also with its vertex, facet and
    in-facet orders shuffled, and through a JSON round trip."""
    rp2 = projective_plane_complex()
    complexes = [boundary_sphere_complex(3), circle_complex(5), rp2,
                 product_complex(circle_complex(4), boundary_sphere_complex(2)),
                 product_complex(rp2, circle_complex(3)),
                 connected_sum_complex(rp2, rp2, 2),
                 triangulate(parse_manifold("Sng(4,3)")),
                 triangulate(parse_manifold("S3 x S1 # S2 x S2"))]
    shuffled = [permuted(K, rng) for K in complexes]
    return complexes + shuffled + [complex_from_json(complex_to_json(K)) for K in shuffled]


def counted(columns):
    """The columns as a builder that records each column it builds."""
    built = []

    def column(c):
        built.append(c)
        return columns[c]

    return column, built


class TestEmergentPairs:
    @pytest.mark.parametrize("seed", [2, 13])
    def test_lowest_entry_is_the_face_without_the_first_vertex(self, seed):
        for K in lowest_entry_cases(random.Random(seed)):
            for i in range(1, K.dim + 1):
                row_of = {face: r for r, face in enumerate(K.simplices(i - 1))}
                for s, col in zip(K.simplices(i), K.boundary_matrix(i)._cols):
                    low = max(col)
                    assert low == row_of[s[1:]] and col[low] == 1, (K, i, s)

    def test_built_on_demand_matches_built_up_front(self):
        matrices = [full_boundary_columns(K, i)
                    for K in rp2_products_and_sums() for i in range(1, K.dim + 1)]
        for seed in range(200):
            rng = random.Random(seed)
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            matrices.append(random_sparse_columns(rng, nrows, ncols))
            matrices.append(low_heavy_columns(rng, nrows, ncols))
        skipped = 0
        for columns in matrices:
            eager, built_eagerly = counted([dict(c) for c in columns])
            lazy, built_lazily = counted([dict(c) for c in columns])
            want = _eliminate_unit_pivots([None] * len(columns), eager)
            got = _eliminate_unit_pivots(unit_lows(columns), lazy)
            assert got == want, columns
            assert built_eagerly == list(range(len(columns)))
            assert len(set(built_lazily)) == len(built_lazily)
            skipped += len(columns) - len(built_lazily)
        assert skipped > 0

    def test_one_subtraction_deep_builds_neither_column(self):
        # Column 0 pairs with row 3 on the spot.  Column 1's lowest row is
        # 3 too, and column 1 - column 0 = {0: -1, 2: -1} has its lowest
        # entry on the free row 2, so column 1 pairs there unbuilt.
        columns = [{0: 1, 3: 1}, {2: -1, 3: 1}]
        column, built = counted(columns)
        pivots, residual = _eliminate_unit_pivots([3, 3], column, {1: 2}.__getitem__)
        assert pivots == {3: 0, 2: 1}
        assert built == []
        assert residual.shape == (0, 0)

    def test_a_later_column_subtracts_column_minus_partner(self):
        # Column 2's lowest row is 2, column 1's pivot: column 1 is built
        # then, as column 1 - column 0, which builds column 0.  Column 1 is
        # not emergent, so column 2's second row is never asked for.
        columns = [{0: 1, 3: 1}, {2: -1, 3: 1}, {1: 1, 2: 1}]
        column, built = counted([dict(c) for c in columns])
        pivots, residual = _eliminate_unit_pivots([3, 3, 2], column, {1: 2}.__getitem__)
        assert built == [2, 1, 0]
        got = [column(c) for c in range(3)]
        assert got[1] == {0: -1, 2: -1}  # exactly column 1 - column 0
        assert got[0] == columns[0]
        assert got[2] == {0: -1, 1: 1}  # column 2 + (column 1 - column 0)
        assert pivots == {3: 0, 2: 1, 1: 2}
        # the reduction on every column built up front: the same split
        eager, _ = counted([dict(c) for c in columns])
        assert (pivots, residual) == _eliminate_unit_pivots([None] * 3, eager)
        assert dense_factors(columns, 4) == [1, 1, 1]

    def test_a_taken_second_row_is_reduced_as_before(self):
        # column 2's second row, 2, is column 1's pivot: column 2 is built
        # and reduced on the spot
        columns = [{0: 1, 3: 1}, {1: 1, 2: 1}, {1: 1, 2: -1, 3: 1}]
        column, built = counted([dict(c) for c in columns])
        pivots, residual = _eliminate_unit_pivots([3, 2, 3], column, {2: 2}.__getitem__)
        assert built == [2, 0, 1]
        eager, _ = counted([dict(c) for c in columns])
        assert (pivots, residual) == _eliminate_unit_pivots([None] * 3, eager)

    @pytest.mark.parametrize("text, at_most", [
        ("S2 x S1 x S1", 576), ("Sng(5,2)", 195), ("S3 x S2", 273)])
    def test_built_columns_are_counted(self, text, at_most, monkeypatch):
        # with emergent pairs alone S2 x S1 x S1 builds 788 columns, Sng(5,2)
        # 295 and S3 x S2 353
        K = triangulate(parse_manifold(text))
        built = record_builds(monkeypatch, K.dim)
        assert simplicial_homology(K) == homology(parse_manifold(text))
        for simplices in built.values():
            assert len(set(simplices)) == len(simplices)
        assert sum(map(len, built.values())) <= at_most

    @pytest.mark.parametrize("K", [
        *(pytest.param(permuted(K, random.Random(seed)), id=f"{name}-seed{seed}")
          for seed in (7, 19, 33)
          for name, K in zip(["RP2xRP2", "RP2#RP2", "RP2xS2"], rp2_products_and_sums())),
        *(pytest.param(triangulate(parse_manifold(t)), id=t)
          for t in ("Sng(5,2)", "S2 x S1 x S1", "S3 x S2"))])
    def test_the_shortcut_changes_only_what_is_built(self, K, monkeypatch):
        got = []

        def recording(lows, column, second=None):
            got.append(_eliminate_unit_pivots(lows, column, second))
            return got[-1]

        monkeypatch.setattr(simplicial, "_eliminate_unit_pivots", recording)
        built = record_builds(monkeypatch, K.dim)
        simplicial_homology(K)
        # d_top of a closed pseudomanifold builds no column and is not
        # eliminated; below it, every kept column built up front, no pair
        # taken unbuilt, and the clearing of kept_columns from the rows the
        # dual forest clears
        assert built[K.dim] == []
        cleared, _ = simplicial._dual_forest(K)
        for i, result in zip(range(K.dim - 1, 0, -1), got, strict=True):
            columns = full_boundary_columns(K, i)
            kept = [columns[c] for c in range(len(columns)) if c not in cleared]
            want = _eliminate_unit_pivots([None] * len(kept), kept.__getitem__)
            assert result == want, i
            cleared = set(want[0])

    def test_a_column_never_subtracted_is_never_built(self):
        # columns 0 and 1 pair with rows 3 and 2 on the spot; column 2 is
        # reduced by column 0, which is built then, and column 1 never is
        columns = [{0: 1, 3: 1}, {1: -1, 2: 1}, {0: 3, 3: 1}]
        assert dense_factors(columns, 4) == [1, 1, 2]
        column, built = counted(columns)
        pivots, residual = _eliminate_unit_pivots([3, 2, 3], column)
        assert pivots == {3: 0, 2: 1}
        assert built == [2, 0]
        assert residual.shape == (1, 1) and residual[0, 0] == 2


class TestTriangulate:
    @pytest.mark.parametrize("text", ["S1", "S3", "S1 x S1", "Sng(2,2)", "Sng(3,1)"])
    def test_matches_engine(self, text):
        expr = parse_manifold(text)
        group = simplicial_homology(triangulate(expr))
        assert group.ranks == homology(expr).ranks
        assert group.is_torsion_free

    # Dimensions 5 to 7 are where the index restriction rests on vanishing
    # middle homology; the oracle checks that without reading the engine.
    @pytest.mark.parametrize("text", [f"Sng({n},{g})" for n in (5, 6, 7) for g in range(4)]
                             + ["S3 x S3", "S2 x S2 x S1", "S2 x S2 x S2"])
    def test_ladder_in_dimensions_5_to_7_matches_engine(self, text):
        expr = parse_manifold(text)
        group = simplicial_homology(triangulate(expr))
        assert group.ranks == homology(expr).ranks
        assert group.is_torsion_free

    def test_euler_characteristic_from_face_counts(self):
        complexes = [triangulate(parse_manifold(text))
                     for text in ("S2", "S1 x S1", "Sng(2,2)", "Sng(3,2)")]
        complexes.append(projective_plane_complex())
        for K in complexes:
            group = simplicial_homology(K)
            alternating = sum((-1) ** d * group.rank(d) for d in range(K.dim + 1))
            assert K.euler_characteristic() == alternating


def folded_triangulation(expr):
    """The connected sum glued pairwise, one complex per step."""
    pieces = [triangulate(s) for s, k in expr.parts for _ in range(k)]
    return reduce(lambda a, b: connected_sum_complex(a, b, a.dim), pieces)


class TestGluing:
    @pytest.mark.parametrize("expr", [s_ng(4, g) for g in range(2, 7)]
                             + [parse_manifold("S3 x S1 # S2 x S2 # S3 x S1")])
    def test_one_pass_matches_the_pairwise_fold(self, expr):
        K = triangulate(expr)
        folded = folded_triangulation(expr)
        assert K.vertices == folded.vertices
        assert K.facets == folded.facets

    def test_complexes_built_do_not_grow_with_the_genus(self, monkeypatch):
        built = []
        init = SimplicialComplex.__init__
        from_lattice = SimplicialComplex._from_lattice.__func__

        def counting(self, vertices, facets):
            built.append(1)
            init(self, vertices, facets)

        def counting_lattice(cls, labels, levels):
            built.append(1)
            return from_lattice(cls, labels, levels)

        monkeypatch.setattr(SimplicialComplex, "__init__", counting)
        monkeypatch.setattr(SimplicialComplex, "_from_lattice", classmethod(counting_lattice))
        counts = []
        for g in (5, 50):
            built.clear()
            triangulate(s_ng(4, g))
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("make", [
        lambda: triangulate(s_ng(4, 2)),
        lambda: triangulate(s_ng(3, 6)),
        lambda: triangulate(s_ng(5, 2)),
        lambda: triangulate(s_ng(6, 8)),
        lambda: triangulate(s_ng(7, 3)),
        lambda: triangulate(parse_manifold("S3 x S1 # S2 x S2 # S3 x S1")),
        lambda: triangulate(parse_manifold("S2 # S1 x S1 # S2 # S2")),
        lambda: connected_sum_complex(projective_plane_complex(), torus_complex(), 2),
        lambda: simplicial._glue([triangulate(s_ng(6, 1))]),
        lambda: simplicial._glue([permuted(triangulate(s_ng(3, 1)), random.Random(7))] * 3),
    ])
    def test_lattice_matches_the_facet_derived_complex(self, make):
        K = make()
        assert K.vertices == tuple(range(len(K.vertices)))
        assert_same_complex(K, SimplicialComplex(K.vertices, K.facets))
        # The same facets shuffled, each written backwards, a quarter listed
        # twice and a quarter joined by a proper face in random order.
        rng = random.Random(len(K.facets))
        facets = [f[::-1] for f in K.facets]
        twice = rng.sample(facets, len(facets) // 4)
        faces = [rng.sample(f, rng.randrange(1, len(f)))
                 for f in rng.sample(facets, len(facets) // 4)]
        facets += twice + faces
        rng.shuffle(facets)
        assert_same_complex(K, SimplicialComplex(K.vertices, facets))


def staircase_reference(K, L):
    """The staircase product through the facet-derived constructor: the top
    cells of each facet pair are its monotone lattice paths."""
    verts = [(a, b) for a in K.vertices for b in L.vertices]
    facets = []
    for f in K.facets:
        for h in L.facets:
            p, q = len(f) - 1, len(h) - 1
            for first in combinations(range(p + q), p):
                i = j = 0
                cell = [(f[0], h[0])]
                for step in range(p + q):
                    if step in first:
                        i += 1
                    else:
                        j += 1
                    cell.append((f[i], h[j]))
                facets.append(cell)
    return SimplicialComplex(verts, facets)


def staircase_triangulation(expr):
    """triangulate with every product built by staircase_reference."""
    if isinstance(expr, Product):
        return staircase_reference(staircase_triangulation(expr.left),
                                   staircase_triangulation(expr.right))
    if isinstance(expr, ConnSum):
        return simplicial._glue([staircase_triangulation(s)
                                 for s, k in expr.parts for _ in range(k)])
    return triangulate(expr)


def product_f_vector(K, L):
    """f_d = sum over p, q of f_p(K) f_q(L) d!/((d-q)!(d-p)!(p+q-d)!)."""
    f = [0] * (K.dim + L.dim + 1)
    for p in range(K.dim + 1):
        for q in range(L.dim + 1):
            for d in range(max(p, q), p + q + 1):
                f[d] += (K.n_simplices(p) * L.n_simplices(q) * factorial(d)
                         // (factorial(d - q) * factorial(d - p) * factorial(p + q - d)))
    return f


def assert_same_complex(K, L):
    assert K.vertices == L.vertices
    assert K.facets == L.facets
    assert K.dim == L.dim
    for d in range(K.dim + 1):
        assert K.simplices(d) == L.simplices(d)


def staircase_cases():
    """Each case builds a complex with the product function it is given."""
    rng = random.Random(23)
    rp2 = projective_plane_complex()
    shuffled = (permuted(rp2, rng), permuted(circle_complex(5), rng))
    circle = circle_complex(3)
    hanging = SimplicialComplex(range(4), [(0, 1, 2), (2, 3)])
    loose = SimplicialComplex(range(5), [(0, 1), (1, 3), (0, 3), (3, 4)])  # 2 in no facet
    labelled = complex_from_json({"vertices": ["w", "x", "y", "z"],
                                  "facets": [["y", "x", "z"], ["w", "z", "x"],
                                             ["x", "y", "w"], ["z", "w", "y"]]})
    return {
        "RP2xRP2": lambda prod: prod(rp2, rp2),
        "S1xS2": lambda prod: prod(circle_complex(4), boundary_sphere_complex(2)),
        "permuted": lambda prod: prod(*shuffled),
        "non-pure-left": lambda prod: prod(hanging, circle),
        "non-pure-right": lambda prod: prod(circle, hanging),
        "unused-vertex-left": lambda prod: prod(loose, circle),
        "unused-vertex-right": lambda prod: prod(boundary_sphere_complex(2), loose),
        "point-left": lambda prod: prod(point_complex(), boundary_sphere_complex(2)),
        "point-right": lambda prod: prod(hanging, point_complex()),
        "point-point": lambda prod: prod(point_complex(), point_complex()),
        "json-labels": lambda prod: prod(labelled, hanging),
        "product-of-products": lambda prod: prod(prod(circle, point_complex()),
                                                 prod(hanging, labelled)),
    }


# The oracle-ladder and complex-build expressions of perfbench/workloads.py.
BENCHMARK_TEXTS = ["Sng(4,2)", "Sng(3,6)", "Sng(4,4)", "S3 x S2", "Sng(5,2)", "Sng(6,1)",
                   "S2 x S1 x S1", "Sng(6,4)", "S3 x S3", "S2 x S2 x S2", "S2 x S1 x S1 x S1"]


class TestStaircaseLattice:
    @pytest.mark.parametrize("name", list(staircase_cases()))
    def test_matches_the_facet_derived_reference(self, name):
        build = staircase_cases()[name]
        assert_same_complex(build(product_complex), build(staircase_reference))

    @pytest.mark.parametrize("name", list(staircase_cases()))
    def test_f_vector_is_the_closed_form(self, name):
        def product(K, L):
            P = product_complex(K, L)
            assert [P.n_simplices(d) for d in range(P.dim + 1)] == product_f_vector(K, L)
            return P

        staircase_cases()[name](product)

    @pytest.mark.parametrize("text", BENCHMARK_TEXTS)
    def test_triangulate_matches_the_facet_derived_reference(self, text):
        expr = parse_manifold(text)
        assert_same_complex(triangulate(expr), staircase_triangulation(expr))

    @pytest.mark.parametrize("text", BENCHMARK_TEXTS + ["S1 x S1 x S1 x S1 x S1",
                                                         "S2 x S2 x S1 x S1"])
    def test_pure_facets_are_the_top_level_itself(self, text):
        # A pure product's facets are its top level: the same tuples, not a
        # second generation of them.
        K = triangulate(parse_manifold(text))
        top = K._simplices[-1]
        assert K._facets == tuple(top)
        assert all(f is s for f, s in zip(K._facets, top))


SCALARS = "vertex labels must be JSON scalars, not lists or objects"


MALFORMED_DOCUMENTS = [
    ([], "complex must be a JSON object"),
    ({"vertices": ["a"]}, "complex needs 'vertices' and 'facets' fields"),
    ({"facets": [["a"]]}, "complex needs 'vertices' and 'facets' fields"),
    ({"vertices": "ab", "facets": [["a"]]}, "'vertices' and 'facets' must be lists"),
    ({"vertices": ["a"], "facets": [["a", "b"]]}, "facet vertex 'b' is not in the vertex set"),
    ({"vertices": ["a", "b"], "facets": "ab"}, "'vertices' and 'facets' must be lists"),
    ({"vertices": [[1], [2]], "facets": [[[1], [2]]]}, SCALARS),
    ({"vertices": [1, 2], "facets": [[1, {"a": 2}]]}, SCALARS),
    ({"vertices": [{}], "facets": [[0]]}, SCALARS),
    ({"vertices": ["a", 1, "c"], "facets": [["a", True], [1.0, "c"], ["c", "a"]]},
     "facet vertex True is not in the vertex set"),
    ({"vertices": [1], "facets": [1]}, "each facet must be a list of vertex labels"),
    ({"vertices": [1, 2], "facets": [[1, 2], "12"]}, "each facet must be a list of vertex labels"),
    ({"vertices": [1, 2], "facets": [[]]}, "empty facet"),
    ({"vertices": [], "facets": [[1]]}, "a complex needs at least one vertex"),
    ({"vertices": [], "facets": []}, "a complex needs at least one vertex"),
    ({"vertices": [1, 2], "facets": []}, "a complex needs at least one facet"),
    # The vertex set is checked for repeats before any facet is read.
    ({"vertices": [1, 1], "facets": [[2]]}, "repeated vertex label 1"),
    ({"vertices": [1, 2, 1], "facets": [[1]]}, "repeated vertex label 1"),
    ({"vertices": [1, 2], "facets": [[2, 1, 2]]}, "facet [2, 1, 2] contains a repeated vertex"),
    # Facets are read in input order, each fault named at its facet, and a
    # label of another JSON type than its vertex names no vertex.
    ({"vertices": [1, 2], "facets": [[], [2, 3], [4]]}, "empty facet"),
    ({"vertices": [1, 2], "facets": [[1, 1], [], [1, 2.0]]},
     "facet [1, 1] contains a repeated vertex"),
    ({"vertices": [1, 2], "facets": [[1.0], []]}, "facet vertex 1.0 is not in the vertex set"),
    ({"vertices": [1], "facets": [[1, True]]}, "facet vertex True is not in the vertex set"),
    ({"vertices": [1, 2], "facets": [[1, 1], []]}, "facet [1, 1] contains a repeated vertex"),
    ({"vertices": [None, "x"], "facets": [[None], ["x", "x"], []]},
     "facet ['x', 'x'] contains a repeated vertex"),
]


def constructor_decides(doc):
    """Whether ``doc`` passes complex_from_json's own checks of shape and
    scalar labels, so that the constructor decides the rest."""
    if not isinstance(doc, dict) or not {"vertices", "facets"} <= doc.keys():
        return False
    vertices, facets = doc["vertices"], doc["facets"]
    if not (isinstance(vertices, list) and isinstance(facets, list)
            and all(isinstance(f, list) for f in facets)):
        return False
    labels = vertices + [v for f in facets for v in f]
    return not any(isinstance(v, (list, dict)) for v in labels)


CONSTRUCTOR_DOCUMENTS = [doc for doc, _ in MALFORMED_DOCUMENTS if constructor_decides(doc)]


class TestJson:
    def test_round_trip(self):
        K = projective_plane_complex()
        doc = complex_to_json(K)
        assert set(doc) == {"vertices", "facets"}
        restored = complex_from_json(doc)
        assert simplicial_homology(restored) == simplicial_homology(K)

    @pytest.mark.parametrize("make", [
        staircase_cases()["non-pure-left"],
        staircase_cases()["non-pure-right"],
        lambda prod: prod(projective_plane_complex(), circle_complex(3)),
    ], ids=["non-pure-left", "non-pure-right", "RP2 x S1"])
    def test_facets_written_and_read_back(self, make):
        # Facets of every dimension, read off the lattice, are written as
        # their labels' strings and read back with the same faces.
        K = make(product_complex)
        doc = complex_to_json(K)
        assert doc["facets"] == [[str(v) for v in f] for f in K.facets]
        restored = complex_from_json(doc)
        assert [list(f) for f in restored.facets] == doc["facets"]
        assert ([restored.n_simplices(d) for d in range(restored.dim + 1)]
                == [K.n_simplices(d) for d in range(K.dim + 1)])

    def test_facets_are_derived_once_per_complex(self, monkeypatch):
        # A filled triangle with a loop of edges, times a circle: facets of 3
        # and 4 vertices, read off the lattice on the first write only.
        K = product_complex(SimplicialComplex(range(5), [[0, 1, 2], [2, 3], [3, 4], [2, 4]]),
                            circle_complex(3))
        calls = []
        faces = simplicial._faces

        def counting(level, size):
            calls.append(size)
            return faces(level, size)

        monkeypatch.setattr(simplicial, "_faces", counting)
        doc = complex_to_json(K)
        assert len(doc["facets"]) == 27 and calls
        calls.clear()
        assert complex_to_json(K) == doc
        assert K.facets
        assert calls == []

    def test_document_shape(self):
        doc = complex_to_json(circle_complex(3))
        assert doc["vertices"] == ["0", "1", "2"]
        assert [sorted(f) for f in doc["facets"]] == [["0", "1"], ["0", "2"], ["1", "2"]]

    def test_labels_written_alike_are_refused(self):
        # Written as strings, 1 and "1" would read back as one label repeated.
        K = complex_from_json({"vertices": [1, "1"], "facets": [[1, "1"]]})
        with pytest.raises(ValueError) as info:
            complex_to_json(K)
        assert str(info.value) == "vertex labels 1 and '1' are both written '1'"

    @pytest.mark.parametrize("doc, message", MALFORMED_DOCUMENTS)
    def test_malformed_documents(self, doc, message):
        with pytest.raises(ValueError) as info:
            complex_from_json(doc)
        assert str(info.value) == message

    def test_every_constructor_document_is_picked(self):
        # 25 documents: 10 fail a check of shape or scalar labels.
        assert len(MALFORMED_DOCUMENTS) == 25
        assert len(CONSTRUCTOR_DOCUMENTS) == 15

    @pytest.mark.parametrize("doc", CONSTRUCTOR_DOCUMENTS)
    def test_refused_as_the_constructor_refuses(self, doc):
        # Past its own checks, complex_from_json refuses what the constructor
        # refuses, with the same message.
        with pytest.raises(ValueError) as from_json:
            complex_from_json(doc)
        with pytest.raises(ValueError) as constructed:
            SimplicialComplex(doc["vertices"], doc["facets"])
        assert str(from_json.value) == str(constructed.value)

    def test_labels_python_equates_are_two_vertices(self):
        # 1 and true are two JSON labels, so two points, from JSON or not.
        doc = {"vertices": [1, True], "facets": [[1], [True]]}
        assert simplicial_homology(complex_from_json(doc)) == GradedGroup({0: 2})
        K = SimplicialComplex([1, True], [[1], [True]])
        assert simplicial_homology(K) == GradedGroup({0: 2})

    @pytest.mark.parametrize("stray", [1.0, True])
    def test_a_label_of_another_type_is_refused_before_any_face(self, stray, monkeypatch):
        K = triangulate(parse_manifold("S2 x S2"))
        number = {v: i for i, v in enumerate(K.vertices)}
        doc = {"vertices": list(range(len(K.vertices))),
               "facets": [[number[v] for v in f] for f in K.facets]}
        made = []
        faces = simplicial.combinations

        def recording(simplex, size):
            made.append(simplex)
            return faces(simplex, size)

        monkeypatch.setattr(simplicial, "combinations", recording)
        assert complex_from_json(doc).n_simplices(4) == K.n_simplices(4)
        assert made
        made.clear()
        # the last facet holding vertex 1 names it as a float or a bool
        last = max(i for i, f in enumerate(doc["facets"]) if 1 in f)
        doc["facets"][last] = [stray if v == 1 else v for v in doc["facets"][last]]
        with pytest.raises(ValueError) as info:
            complex_from_json(doc)
        assert str(info.value) == f"facet vertex {stray!r} is not in the vertex set"
        assert made == []

    def test_a_label_of_another_type_is_named_before_max_dim(self):
        doc = {"vertices": list(range(30)), "facets": [[*range(29), 29.0]]}
        with address_space_cap(), pytest.raises(ValueError) as info:
            complex_from_json(doc, max_dim=28)
        assert str(info.value) == "facet vertex 29.0 is not in the vertex set"


class TestGradedGroupReuse:
    def test_oracle_outputs_are_graded_groups(self):
        group = simplicial_homology(projective_plane_complex())
        assert isinstance(group, GradedGroup)
        assert group.invariant_factors(1) == (2,)
