import importlib
import random

import pytest

from flowtop.expressions import (
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
    connected_sum_poly,
    euler_characteristic,
    homology,
    poincare_polynomial,
    poly_product,
)

from helpers import convolve_ranks, expr_of_dim, random_expr

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
        assert PoincarePolynomial([1, 0]) == PoincarePolynomial([1])
        assert PoincarePolynomial([0, 0]).degree == 0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            PoincarePolynomial([1, -1])

    def test_pretty_printing(self):
        assert str(PoincarePolynomial([1, 2, 0, 2, 1])) == "1 + 2t + 2t^3 + t^4"
        assert str(PoincarePolynomial([0])) == "0"
        assert str(PoincarePolynomial([0, 1])) == "t"

    def test_evaluation(self):
        p = PoincarePolynomial([1, 2, 1])
        assert p(1) == 4
        assert p(-1) == 0


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
        rng = random.Random(99)
        for _ in range(50):
            x = random_expr(rng, max_depth=3, max_dim=4)
            y = random_expr(rng, max_depth=3, max_dim=4)
            assert poincare_polynomial(Product(x, y)) == poly_product(
                poincare_polynomial(x), poincare_polynomial(y))


class TestPolyProduct:
    def test_handle_factorization(self):
        p = poly_product(PoincarePolynomial([1, 0, 0, 1]), PoincarePolynomial([1, 1]))
        assert p.coefficients == (1, 1, 0, 1, 1)

    def test_multiplicative_identity(self):
        p = PoincarePolynomial([1, 2, 0, 2, 1])
        assert poly_product(p, PoincarePolynomial([1])) == p

    def test_binomial(self):
        p = poly_product(PoincarePolynomial([1, 1]), PoincarePolynomial([1, 1]))
        assert p.coefficients == (1, 2, 1)


class TestConnectedSumPoly:
    def test_two_handles(self):
        handle = PoincarePolynomial([1, 1, 0, 1, 1])
        assert connected_sum_poly([handle, handle], 4).coefficients == (1, 2, 0, 2, 1)

    def test_sum_with_sphere_is_identity(self):
        p = PoincarePolynomial([1, 2, 0, 2, 1])
        sphere = PoincarePolynomial([1, 0, 0, 0, 1])
        assert connected_sum_poly([p, sphere], 4) == p

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            connected_sum_poly(
                [PoincarePolynomial([1, 0, 0, 1]), PoincarePolynomial([1, 0, 0, 0, 1])], 4)

    def test_non_unital_ends(self):
        with pytest.raises(ValueError):
            connected_sum_poly([PoincarePolynomial([2, 0, 0, 0, 1])], 4)
        with pytest.raises(ValueError):
            connected_sum_poly([], 4)


class TestBetti:
    @pytest.mark.parametrize("expr,i,expected", [
        (s_ng(6, 4), 2, 0),
        (s_ng(6, 4), 5, 4),
        (SphereAtom(3), 7, 0),
        (SphereAtom(3), -1, 0),
    ])
    def test_examples(self, expr, i, expected):
        assert betti(expr, i) == expected

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
        calls = []
        recurse = homology_module.homology

        def counting(expr):
            calls.append(expr)
            return recurse(expr)

        monkeypatch.setattr(homology_module, "homology", counting)
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
