import random

import pytest
from hypothesis import given, settings, strategies as st

from flowtop.expressions import (
    MAX_BRACKET_DEPTH,
    ConnSum,
    DimensionMismatchError,
    ParseError,
    Product,
    SphereAtom,
    dimension,
    parse_manifold,
    render_manifold,
    s_ng,
)

from helpers import random_expr

S1 = SphereAtom(1)
S2 = SphereAtom(2)
S3 = SphereAtom(3)


class TestParse:
    def test_single_atom(self):
        assert parse_manifold("S4") == SphereAtom(4)

    def test_precedence_product_over_sum(self):
        expr = parse_manifold("S3 x S1 # S3 x S1")
        assert expr == ConnSum((Product(S3, S1), Product(S3, S1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            parse_manifold("S2 # S3")

    def test_sng_expands(self):
        assert parse_manifold("Sng(4,2)") == s_ng(4, 2)
        assert parse_manifold("Sng(4,0)") == SphereAtom(4)
        assert parse_manifold("Sng(4,1)") == Product(S3, S1)

    def test_parens_and_whitespace(self):
        assert parse_manifold("  S3x S1#S3 xS1 ") == parse_manifold("S3 x S1 # S3 x S1")
        assert parse_manifold("(S2 x S2) # (S1 x S3)") == ConnSum(
            (Product(S2, S2), Product(S1, S3)))

    def test_product_left_associated(self):
        assert parse_manifold("S1 x S2 x S3") == Product(Product(S1, S2), S3)

    def test_nested_sum_flattens(self):
        expr = parse_manifold("(S1 x S1 # S1 x S1) # S1 x S1")
        assert expr == ConnSum((Product(S1, S1),) * 3)

    @pytest.mark.parametrize("text,position", [
        ("S0", 0),
        ("S2 # S0", 5),
        ("S", 0),
        ("S2 S3", 3),
        ("(S2", 3),
        ("", 0),
        ("S2 #", 4),
        ("S2 @ S2", 3),
        ("Sng(1,1)", 0),
        ("Sng 4,2)", 4),
    ])
    def test_syntax_errors_report_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_manifold(text)
        assert err.value.position == position

    def test_negative_sng_genus_is_unparseable(self):
        with pytest.raises(ParseError):
            parse_manifold("Sng(3,-1)")


    def test_bracket_depth_is_capped(self):
        depth = MAX_BRACKET_DEPTH
        assert parse_manifold("(" * depth + "S2" + ")" * depth) == SphereAtom(2)
        with pytest.raises(ParseError) as info:
            parse_manifold("(" * (depth + 1) + "S2" + ")" * (depth + 1))
        assert info.value.position == depth


class TestConstruction:
    def test_sphere_rejects_s0(self):
        with pytest.raises(ValueError):
            SphereAtom(0)
        with pytest.raises(ValueError):
            SphereAtom(-3)

    def test_connsum_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            ConnSum((S2, S3))

    def test_connsum_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            ConnSum((S1, S1))

    def test_connsum_needs_two_summands(self):
        with pytest.raises(ValueError):
            ConnSum((S2,))

    def test_connsum_flattens_nested(self):
        t = Product(S1, S1)
        assert ConnSum((ConnSum((t, t)), t)) == ConnSum((t, t, t))

    def test_non_expression_rejected(self):
        with pytest.raises(TypeError):
            Product(S2, "S2")


class TestDimension:
    @pytest.mark.parametrize("text,expected", [
        ("S4", 4),
        ("S3 x S1", 4),
        ("Sng(5,3)", 5),
        ("S1 x S1 # S1 x S1", 2),
    ])
    def test_examples(self, text, expected):
        assert dimension(parse_manifold(text)) == expected

    def test_s_ng_dimension_sweep(self):
        for n in range(2, 11):
            for g in range(6):
                assert dimension(s_ng(n, g)) == n


class TestSng:
    def test_zero_genus_is_sphere(self):
        assert s_ng(4, 0) == SphereAtom(4)

    def test_positive_genus(self):
        handle = Product(S3, S1)
        assert s_ng(4, 1) == handle
        assert s_ng(4, 2) == ConnSum((handle, handle))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            s_ng(1, 1)
        with pytest.raises(ValueError):
            s_ng(4, -1)


class TestRoundTrip:
    def test_round_trip_1000_random_expressions(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            expr = random_expr(rng, max_depth=5)
            assert parse_manifold(render_manifold(expr)) == expr

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_hypothesis_seeds(self, seed):
        expr = random_expr(random.Random(seed), max_depth=4, max_dim=6)
        assert parse_manifold(render_manifold(expr)) == expr

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="Sng()#x, 0123456789", max_size=24))
    def test_parser_never_crashes(self, text):
        try:
            expr = parse_manifold(text)
        except (ParseError, DimensionMismatchError, ValueError):
            return
        assert parse_manifold(render_manifold(expr)) == expr
