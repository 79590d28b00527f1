import functools
import importlib
import random
import re
import time

import pytest

from flowtop import flows
from flowtop.expressions import (
    MAX_BRACKET_DEPTH,
    ConnSum,
    Product,
    SphereAtom,
    dimension,
    parse_manifold,
    render_manifold,
    s_ng,
)
from flowtop.homology import (
    GradedGroup,
    PoincarePolynomial,
    betti,
    euler_characteristic,
    homology,
    poincare_polynomial,
)
from flowtop.snf import IntegerMatrix

from helpers import address_space_cap, convolve_ranks, expr_of_dim, random_expr

# The package re-exports the function under the submodule's name.
homology_module = importlib.import_module("flowtop.homology")


class TestGradedGroup:
    def test_zero_ranks_dropped(self):
        g = GradedGroup({0: 1, 2: 0, 4: 1})
        assert g.ranks == {0: 1, 4: 1}
        assert g.rank(2) == 0

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            GradedGroup({0: -1})

    @pytest.mark.parametrize("degree", [-1, 1.0, "1", True, None])
    def test_bad_degree_rejected(self, degree):
        with pytest.raises(ValueError):
            GradedGroup({0: 1, degree: 1})
        with pytest.raises(ValueError):
            GradedGroup({0: 1}, {degree: (2,)})

    def test_torsion_chain_enforced(self):
        g = GradedGroup({0: 1}, {1: (2, 4)})
        assert g.invariant_factors(1) == (2, 4)
        assert not g.is_torsion_free
        with pytest.raises(ValueError):
            GradedGroup({0: 1}, {1: (3, 2)})
        with pytest.raises(ValueError):
            GradedGroup({0: 1}, {1: (1,)})

    def test_equality_and_hash(self):
        assert GradedGroup({0: 1, 3: 2}) == GradedGroup({3: 2, 0: 1, 5: 0})
        assert hash(GradedGroup({0: 1})) == hash(GradedGroup({0: 1, 1: 0}))


class TestPoincarePolynomial:
    def test_trailing_zeros_stripped(self):
        assert PoincarePolynomial._of({0: 1, 1: 0}) == PoincarePolynomial._of({0: 1})
        assert PoincarePolynomial._of({0: 0, 1: 0}).degree == 0

    @pytest.mark.parametrize("args", [(), ([1, 2],), ({0: 1},)])
    def test_direct_construction_points_to_poincare_polynomial(self, args):
        with pytest.raises(TypeError, match=r"poincare_polynomial\(expr\)"):
            PoincarePolynomial(*args)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            PoincarePolynomial._of({0: 1, 1: -1})

    def test_repr_evaluates_back(self):
        rng = random.Random(5)
        for _ in range(50):
            p = poincare_polynomial(random_expr(rng))
            assert eval(repr(p), {"PoincarePolynomial": PoincarePolynomial}) == p

    @pytest.mark.parametrize("ranks", [{0: -1}, {-1: 1}, {0: True}, {0.5: 1}])
    def test_of_refuses_bad_maps(self, ranks):
        # repr prints _of, so eval(repr(...)) brings user text here.
        with pytest.raises(ValueError):
            PoincarePolynomial._of(ranks)

    def test_repr_is_sparse(self):
        with address_space_cap():
            text = repr(poincare_polynomial(SphereAtom(10**9)))
        assert text == "PoincarePolynomial._of({0: 1, 1000000000: 1})"

    def test_pretty_printing(self):
        assert str(PoincarePolynomial._of({0: 1, 1: 2, 3: 2, 4: 1})) == "1 + 2t + 2t^3 + t^4"
        assert str(PoincarePolynomial._of({})) == "0"
        assert str(PoincarePolynomial._of({1: 1})) == "t"

    def test_evaluation(self):
        p = PoincarePolynomial._of({0: 1, 1: 2, 2: 1})
        assert p(1) == 4
        assert p(-1) == 0


@pytest.mark.parametrize("a, b", [
    (homology(parse_manifold("S3 x S1")), homology(parse_manifold("S1 x S3"))),
    (poincare_polynomial(parse_manifold("S3 x S1")), poincare_polynomial(parse_manifold("S1 x S3"))),
    (IntegerMatrix([[1, 0], [0, 2]]), IntegerMatrix.from_columns([{0: 1}, {1: 2}], 2)),
], ids=["GradedGroup", "PoincarePolynomial", "IntegerMatrix"])
def test_value_types_hash_as_they_compare(a, b):
    """Equal values hash equal, and a value of another type is never equal."""
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != object() and not a == object()


class TestHomology:
    def test_sphere(self):
        assert homology(SphereAtom(4)).ranks == {0: 1, 4: 1}

    def test_s3_x_s1(self):
        expr = parse_manifold("S3 x S1")
        assert homology(expr).ranks == {0: 1, 1: 1, 3: 1, 4: 1}

    def test_sng_4_2(self):
        assert homology(s_ng(4, 2)).ranks == {0: 1, 1: 2, 3: 2, 4: 1}

    def test_torus(self):
        assert homology(parse_manifold("S1 x S1")).ranks == {0: 1, 1: 2, 2: 1}

    def test_always_torsion_free(self):
        rng = random.Random(7)
        for _ in range(100):
            assert homology(random_expr(rng)).is_torsion_free


class TestPoincare:
    def test_handle_dimension_4(self):
        p = poincare_polynomial(Product(SphereAtom(3), SphereAtom(1)))
        assert p.coefficients == (1, 1, 0, 1, 1)

    def test_sng_5_3(self):
        assert poincare_polynomial(s_ng(5, 3)).coefficients == (1, 3, 0, 0, 3, 1)

    def test_sphere(self):
        assert poincare_polynomial(SphereAtom(2)).coefficients == (1, 0, 1)

    def test_agrees_with_poly_product_on_products(self):
        """The polynomial of a product is the product of the factors'
        polynomials, multiplied out by the helpers' convolution."""
        rng = random.Random(99)
        for _ in range(50):
            x = random_expr(rng, max_depth=3, max_dim=4)
            y = random_expr(rng, max_depth=3, max_dim=4)
            expected = convolve_ranks(homology(x).ranks, homology(y).ranks)
            assert poincare_polynomial(Product(x, y)) == PoincarePolynomial._of(expected)

    def test_agrees_with_connected_sum_poly_on_sums(self):
        """The polynomial of a connected sum: 1 + t^n, plus every summand's
        coefficients in degrees 1 through n-1."""
        rng = random.Random(100)
        for _ in range(50):
            n = rng.randint(2, 6)
            summands = [expr_of_dim(rng, n, 3) for _ in range(rng.randint(2, 4))]
            expected = [1] + [0] * (n - 1) + [1]
            for s in summands:
                coefficients = poincare_polynomial(s).coefficients
                for i in range(1, n):
                    expected[i] += coefficients[i]
            assert poincare_polynomial(ConnSum(tuple(summands))).coefficients == tuple(expected)

    def test_huge_dimension_in_closed_form(self):
        k = 10**12
        start = time.perf_counter()
        with address_space_cap():
            assert betti(SphereAtom(k), k) == 1
            assert euler_characteristic(SphereAtom(k)) == 2
            assert str(poincare_polynomial(SphereAtom(k))) == "1 + t^1000000000000"
        assert time.perf_counter() - start < 1.0


class TestPolyProduct:
    """The polynomial of a product expression."""

    def test_handle_factorization(self):
        p = poincare_polynomial(parse_manifold("S3 x S1"))
        assert all(p(t) == (1 + t**3) * (1 + t) for t in range(-3, 4))

    def test_binomial(self):
        p = poincare_polynomial(parse_manifold("S1 x S1"))
        assert p.coefficients == (1, 2, 1)


class TestConnectedSumPoly:
    """The polynomial of a connected-sum expression."""

    def test_two_handles(self):
        p = poincare_polynomial(parse_manifold("Sng(4,2)"))
        assert p.coefficients == (1, 2, 0, 2, 1)

    def test_sum_with_sphere_is_identity(self):
        for text in ["S4", "S3 x S1", "Sng(4,2)", "S2 x S2 # S1 x S3"]:
            assert poincare_polynomial(parse_manifold(f"{text} # S4")) == poincare_polynomial(
                parse_manifold(text))


class TestBetti:
    @pytest.mark.parametrize("expr,i,expected", [
        (s_ng(6, 4), 2, 0),
        (s_ng(6, 4), 5, 4),
        (SphereAtom(3), 7, 0),
        (SphereAtom(3), -1, 0),
    ])
    def test_examples(self, expr, i, expected):
        assert betti(expr, i) == expected

    @pytest.mark.parametrize("read, at_one", [
        (betti, 2),
        (lambda expr, d: homology(expr).rank(d), 2),
        (lambda expr, d: homology(expr).invariant_factors(d), ()),
        (lambda expr, d: poincare_polynomial(expr).coefficient(d), 2),
    ], ids=["betti", "rank", "invariant_factors", "coefficient"])
    @pytest.mark.parametrize("degree", [True, 1.0, "1"])
    def test_degree_that_is_not_an_int_is_refused(self, degree, read, at_one):
        # True == 1, so only a type check tells it from degree 1
        torus = parse_manifold("S1 x S1")
        assert read(torus, 1) == at_one
        refusal = re.escape(f"degree must be an integer, got {degree!r}")
        with pytest.raises(ValueError, match=refusal):
            read(torus, degree)

    def test_corollary_pattern(self):
        for n in range(3, 9):
            for g in range(5):
                expected = [1, g] + [0] * (n - 3) + [g, 1]
                assert [betti(s_ng(n, g), i) for i in range(n + 1)] == expected


class TestEuler:
    def test_even_dimension(self):
        for g in range(3):
            assert euler_characteristic(s_ng(4, g)) == 2 - 2 * g

    def test_odd_dimension(self):
        for g in range(3):
            assert euler_characteristic(s_ng(5, g)) == 0

    def test_sphere(self):
        assert euler_characteristic(SphereAtom(2)) == 2

    def test_multiplicative_on_products(self):
        rng = random.Random(5)
        for _ in range(50):
            x = random_expr(rng, max_depth=3, max_dim=4)
            y = random_expr(rng, max_depth=3, max_dim=4)
            assert euler_characteristic(Product(x, y)) == (
                euler_characteristic(x) * euler_characteristic(y))

    def test_additive_on_connected_sums(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(2, 6)
            x = expr_of_dim(rng, n, 2)
            y = expr_of_dim(rng, n, 2)
            chi_sphere = 2 if n % 2 == 0 else 0
            assert euler_characteristic(ConnSum((x, y))) == (
                euler_characteristic(x) + euler_characteristic(y) - chi_sphere)


class TestInvariants:
    def test_poincare_duality_1000_random_expressions(self):
        rng = random.Random(20240812)
        for _ in range(1000):
            expr = random_expr(rng, max_depth=5)
            n = dimension(expr)
            p = poincare_polynomial(expr)
            assert all(p.coefficient(i) == p.coefficient(n - i) for i in range(n + 1))

    def test_kunneth_convolution_up_to_total_dimension_8(self):
        rng = random.Random(13)
        for _ in range(100):
            a = rng.randint(1, 7)
            b = rng.randint(1, 8 - a)
            x = expr_of_dim(rng, a, 3)
            y = expr_of_dim(rng, b, 3)
            assert homology(Product(x, y)).ranks == convolve_ranks(
                homology(x).ranks, homology(y).ranks)

    def test_connected_sum_with_sphere_is_identity(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.randint(2, 7)
            x = expr_of_dim(rng, n, 3)
            assert homology(ConnSum((x, SphereAtom(n)))) == homology(x)

    def test_bottom_and_top_ranks_are_one(self):
        rng = random.Random(15)
        for _ in range(200):
            expr = random_expr(rng)
            h = homology(expr)
            assert h.rank(0) == 1
            assert h.rank(dimension(expr)) == 1


def ungrouped_ranks(expr):
    """Reference ranks that visit every summand of a connected sum separately."""
    if isinstance(expr, SphereAtom):
        return {0: 1, expr.k: 1}
    if isinstance(expr, Product):
        return convolve_ranks(ungrouped_ranks(expr.left), ungrouped_ranks(expr.right))
    n = dimension(expr)
    ranks = {0: 1, n: 1}
    for summand in expr.summands:
        for i, r in ungrouped_ranks(summand).items():
            if 0 < i < n:
                ranks[i] = ranks.get(i, 0) + r
    return ranks


class TestRepeatedSummands:
    def test_sng_recursion_does_not_grow_with_genus(self, monkeypatch):
        # The fold is what recurses; homology() itself is entered once.
        calls = []
        recurse = homology_module._ranks

        def counting(expr):
            calls.append(expr)
            return recurse(expr)

        monkeypatch.setattr(homology_module, "_ranks", counting)
        assert homology_module.homology(s_ng(6, 1000)).ranks == {
            0: 1, 1: 1000, 5: 1000, 6: 1}
        assert len(calls) <= 4

    def test_matches_ungrouped_reference(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 7)
            pool = [expr_of_dim(rng, n, 2) for _ in range(rng.randint(1, 3))]
            summands = []
            for _ in range(rng.randint(2, 40)):
                piece = rng.choice(pool)
                if rng.random() < 0.5:
                    # equal to piece, but a different object
                    piece = parse_manifold(render_manifold(piece))
                summands.append(piece)
            expr = ConnSum(tuple(summands))
            expected = ungrouped_ranks(expr)
            assert homology(expr).ranks == expected
            rng.shuffle(summands)
            assert homology(ConnSum(tuple(summands))).ranks == expected

    def test_genus_one_million_in_closed_form(self):
        g = 10**6
        assert poincare_polynomial(s_ng(5, g)).coefficients == (1, g, 0, 0, g, 1)

    def test_genus_one_billion_stores_one_summand(self):
        g = 10**9
        with address_space_cap():
            assert homology(s_ng(5, g)).ranks == {0: 1, 1: g, 4: g, 5: 1}


def per_node_homology(expr):
    """Reference: a validated GradedGroup at every node of the tree."""
    if isinstance(expr, SphereAtom):
        return GradedGroup({0: 1, expr.k: 1})
    if isinstance(expr, Product):
        left, right = per_node_homology(expr.left), per_node_homology(expr.right)
        assert left.is_torsion_free and right.is_torsion_free
        return GradedGroup(convolve_ranks(left.ranks, right.ranks))
    ranks = {0: 1, expr.dim: 1}
    for summand, copies in expr.parts:
        for i, r in per_node_homology(summand).ranks.items():
            if 0 < i < expr.dim:
                ranks[i] = ranks.get(i, 0) + copies * r
    return GradedGroup(ranks)


class TestFold:
    def assert_matches_reference(self, expr):
        expected = per_node_homology(expr)
        assert homology(expr) == expected
        assert poincare_polynomial(expr) == PoincarePolynomial._of(expected.ranks)
        # The answers adopt the fold's map unchecked; a dict compares equal in
        # any order, so repr and str pin the degree order and that no zero
        # rank is kept.
        ranks = homology_module._ranks(expr)
        checked, adopted = GradedGroup(ranks), homology(expr)
        assert adopted == checked
        assert (repr(adopted), str(adopted)) == (repr(checked), str(checked))
        checked, adopted = PoincarePolynomial._of(ranks), poincare_polynomial(expr)
        assert (repr(adopted), str(adopted)) == (repr(checked), str(checked))
        for i in {0, 1, expr.dim - 1, expr.dim, expr.dim + 1}:
            assert betti(expr, i) == expected.rank(i)
        assert euler_characteristic(expr) == sum(
            (-1) ** i * r for i, r in expected.ranks.items())

    def test_random_trees(self):
        rng = random.Random(14)
        for _ in range(500):
            self.assert_matches_reference(random_expr(rng))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sng_up_to_genus_one_billion(self, n):
        with address_space_cap():
            for g in (0, 1, 2, 3, 10, 1000, 10**6, 10**9):
                self.assert_matches_reference(s_ng(n, g))

    def test_product_chain_at_the_height_cap(self):
        factors = [SphereAtom(1 + i % 3) for i in range(MAX_BRACKET_DEPTH + 1)]
        chain = functools.reduce(Product, factors)
        assert chain.height == MAX_BRACKET_DEPTH
        self.assert_matches_reference(chain)
        self.assert_matches_reference(Product(SphereAtom(2), chain.left))

    @pytest.fixture
    def checked(self, monkeypatch):
        """Every GradedGroup built by the checking constructor while the test runs."""
        checked = []
        init = GradedGroup.__init__

        def counting(self, *args, **kwargs):
            checked.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GradedGroup, "__init__", counting)
        return checked

    @pytest.mark.parametrize("call", [
        homology,
        poincare_polynomial,
        euler_characteristic,
        lambda expr: betti(expr, 1),
    ])
    def test_each_call_builds_no_checked_graded_group(self, call, checked):
        call(parse_manifold("(S2 x S1 x S3 # Sng(6,4)) x S2 # S5 x S2 x S1 # S8"))
        assert checked == []

    def test_flows_poincare_builds_no_checked_graded_group(self, checked):
        report = flows.validate_flow(flows.FlowSpec(7, (1, 2000, 0, 0, 0, 0, 2000, 1)))
        assert report.genus == 2000 and report.admissible
        assert checked == []
