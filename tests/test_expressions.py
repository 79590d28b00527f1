import functools
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

from helpers import nested_chains, random_expr


def tree_height(expr):
    if isinstance(expr, SphereAtom):
        return 0
    children = (expr.left, expr.right) if isinstance(expr, Product) else expr.summands
    return 1 + max(map(tree_height, children))

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

    @pytest.mark.parametrize("text,position,message", [
        ("S0", 0, "sphere dimension must be at least 1 (S0 is disconnected)"),
        ("S2 # S0", 5, "sphere dimension must be at least 1 (S0 is disconnected)"),
        ("S", 0, "expected digits after 'S'"),
        ("S2 S3", 3, "unexpected trailing input"),
        ("S2)", 2, "unexpected trailing input"),
        ("(S2", 3, "expected ')'"),
        ("", 0, "expected 'S<k>', 'Sng(<n>,<g>)' or '('"),
        ("S2 #", 4, "expected 'S<k>', 'Sng(<n>,<g>)' or '('"),
        ("S2 @ S2", 3, "unexpected character '@'"),
        ("Sng(1,1)", 0, "dimension must be at least 2, got n = 1"),
        ("Sng 4,2)", 4, "expected '('"),
        # digits that int() rejects: superscript two, circled one
        ("S\u00b2", 0, "expected digits after 'S'"),
        ("S\u2460", 0, "expected digits after 'S'"),
        ("Sng(4,\u00b2)", 6, "unexpected character '\u00b2'"),
        ("S3 x S\u00b2", 5, "expected digits after 'S'"),
        # digit runs past the interpreter's int-string limit (4300 digits)
        pytest.param("S" + "1" * 5000, 0, "integer of 5000 digits is too long",
                     id="S-5000-digits"),
        pytest.param("Sng(4," + "1" * 5000 + ")", 6, "integer of 5000 digits is too long",
                     id="Sng-5000-digits"),
        pytest.param("(" * (MAX_BRACKET_DEPTH + 1) + "S2" + ")" * (MAX_BRACKET_DEPTH + 1),
                     MAX_BRACKET_DEPTH,
                     f"brackets nested deeper than {MAX_BRACKET_DEPTH} levels",
                     id="bracket-depth"),
        pytest.param(" x ".join(["S1"] * (MAX_BRACKET_DEPTH + 2)), 5 * MAX_BRACKET_DEPTH + 3,
                     f"expression tree deeper than {MAX_BRACKET_DEPTH} levels",
                     id="tree-height"),
    ])
    def test_syntax_errors_report_position(self, text, position, message):
        with pytest.raises(ParseError) as err:
            parse_manifold(text)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"

    def test_decimal_digits_of_any_script_parse(self):
        assert parse_manifold("S\u0663") == SphereAtom(3)  # Arabic-Indic three
        assert parse_manifold("Sng(\u0664,\u0662)") == s_ng(4, 2)

    def test_negative_sng_genus_is_unparseable(self):
        with pytest.raises(ParseError):
            parse_manifold("Sng(3,-1)")


    def test_bracket_depth_is_capped(self):
        depth = MAX_BRACKET_DEPTH
        assert parse_manifold("(" * depth + "S2" + ")" * depth) == SphereAtom(2)
        with pytest.raises(ParseError) as info:
            parse_manifold("(" * (depth + 1) + "S2" + ")" * (depth + 1))
        assert info.value.position == depth

    def test_flat_product_chain_is_capped(self):
        # A chain of m factors is a left-nested tree m - 1 levels tall.
        top = MAX_BRACKET_DEPTH
        assert tree_height(parse_manifold(" x ".join(["S1"] * (top + 1)))) == top
        with pytest.raises(ParseError) as info:
            parse_manifold(" x ".join(["S1"] * (top + 2)))
        assert info.value.position == 5 * (top + 1) - 2  # the 'x' past the cap
        with pytest.raises(ParseError):
            parse_manifold(" x ".join(["S1"] * 2000))

    @pytest.mark.parametrize("wraps", [41, 42, 90])
    def test_chains_nested_in_brackets_are_capped(self, wraps):
        # Every level is within both the bracket cap and a chain-length cap,
        # yet each one adds a level to the tree.
        text = nested_chains(wraps, 60)
        if 59 + wraps <= MAX_BRACKET_DEPTH:
            assert tree_height(parse_manifold(text)) == 59 + wraps
        else:
            with pytest.raises(ParseError, match="tree deeper"):
                parse_manifold(text)

    def test_sum_height_counts_flattened_summands(self):
        top = MAX_BRACKET_DEPTH
        chain = " x ".join(["S1"] * top)  # dimension top, top - 1 levels
        # Nested sums flatten into one ConnSum, which adds a single level.
        assert tree_height(parse_manifold(f"(({chain} # S{top}) # S{top}) # S{top}")) == top
        for text in (f"{chain} x S1 # S{top + 1}", f"({chain} # S{top}) x S1"):
            with pytest.raises(ParseError, match="tree deeper"):
                parse_manifold(text)


class TestConstruction:
    def test_sphere_rejects_s0(self):
        with pytest.raises(ValueError):
            SphereAtom(0)
        with pytest.raises(ValueError):
            SphereAtom(-3)

    @pytest.mark.parametrize("k", ["3", 3.0, True, None])
    def test_sphere_rejects_non_int_dimension(self, k):
        with pytest.raises(TypeError):
            SphereAtom(k)

    def test_connsum_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            ConnSum((S2, S3))

    def test_connsum_mismatch_past_the_int_string_limit(self):
        # formatting the huge dimension would raise; the refusal gives its digits
        big = SphereAtom(10**4300 - 1)
        with pytest.raises(DimensionMismatchError,
                           match=r"equal dimensions, got \[3, <4301 digits>\]$"):
            ConnSum((Product(big, big), S3))

    def test_connsum_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            ConnSum((S1, S1))

    def test_library_trees_are_height_capped(self):
        top = MAX_BRACKET_DEPTH
        chain = functools.reduce(Product, [S1] * (top + 1))
        assert chain.height == tree_height(chain) == top
        for build in (lambda: Product(chain, S1), lambda: Product(S1, chain),
                      lambda: ConnSum((chain, SphereAtom(top + 1))),
                      lambda: functools.reduce(Product, [S1] * 2000)):
            with pytest.raises(ValueError, match="tree deeper"):
                build()
        # a sum flattened into a sum adds no level
        sums = ConnSum((ConnSum((Product(S1, S1), S2)), S2))
        assert sums.height == tree_height(sums) == 2

    def test_height_is_not_part_of_the_value(self):
        a = Product(S1, S2)
        assert repr(a) == "Product(left=SphereAtom(k=1), right=SphereAtom(k=2))"
        assert repr(ConnSum((S2, S2))) == "ConnSum(summands=(SphereAtom(k=2),), copies=2)"
        b = Product(S1, S2)
        object.__setattr__(b, "height", 7)
        assert a == b and hash(a) == hash(b)

    def test_connsum_needs_two_summands(self):
        with pytest.raises(ValueError):
            ConnSum((S2,))

    def test_connsum_flattens_nested(self):
        t = Product(S1, S1)
        assert ConnSum((ConnSum((t, t)), t)) == ConnSum((t, t, t))

    def test_non_expression_rejected(self):
        with pytest.raises(TypeError):
            Product(S2, "S2")


class TestParts:
    def test_sng_is_one_part(self):
        assert s_ng(4, 3).parts == ((Product(S3, S1), 3),)
        assert s_ng(5, 10**9).parts == ((Product(SphereAtom(4), S1), 10**9),)

    def test_adjacent_equal_runs_merge(self):
        merged = ConnSum((s_ng(4, 2), s_ng(4, 3)))
        assert merged == s_ng(4, 5)
        assert hash(merged) == hash(s_ng(4, 5))
        assert merged.parts == ((Product(S3, S1), 5),)

    def test_order_is_kept(self):
        a, b = Product(S1, S1), S2
        assert ConnSum((a, b, a)) != ConnSum((a, a, b))
        assert ConnSum((a, b, a)).parts == ((a, 1), (b, 1), (a, 1))

    def test_summands_expand_the_runs(self):
        a, b = Product(S1, S1), S2
        expr = ConnSum((a, a, b))
        assert expr.summands == (a, a, b)
        assert eval(repr(expr)) == expr

    def test_round_trip(self):
        assert render_manifold(s_ng(4, 3)) == "Sng(4,3)"
        assert parse_manifold(render_manifold(s_ng(4, 3))) == s_ng(4, 3)

    def test_runs_print_once(self):
        huge = s_ng(5, 10**9)
        assert repr(huge) == ("ConnSum(summands=(Product(left=SphereAtom(k=4), "
                              "right=SphereAtom(k=1)),), copies=1000000000)")
        assert eval(repr(huge)) == huge
        assert render_manifold(huge) == "Sng(5,1000000000)"
        assert parse_manifold(render_manifold(huge)) == huge
        mixed = parse_manifold("S3 x S1 # S2 x S2 # S2 x S2 # Sng(4,3) # S3 x S1 # S2 x S2")
        assert render_manifold(mixed) == "S3 x S1 # S2 x S2 # S2 x S2 # Sng(4,4) # S2 x S2"
        assert parse_manifold(render_manifold(mixed)) == mixed
        assert eval(repr(mixed)) == mixed
        assert repr(mixed).count("Product(left=SphereAtom(k=3)") == 2

    def test_copies_repeat_each_summand(self):
        a, b = Product(S1, S1), S2
        assert ConnSum((a,), 3) == ConnSum((a, a, a))
        assert ConnSum((a, b), copies=2) == ConnSum((a, a, b, b))
        assert ConnSum((ConnSum((a, b)), a), 2).parts == ((a, 2), (b, 2), (a, 2))
        assert ConnSum((a, b), 1) == ConnSum((a, b))

    @pytest.mark.parametrize("copies,error", [
        (True, TypeError), (2.0, TypeError), ("2", TypeError),
        (0, ValueError), (-1, ValueError)])
    def test_copies_must_be_a_positive_integer(self, copies, error):
        with pytest.raises(error):
            ConnSum((S2, S2), copies)

    def test_one_copy_of_one_summand_is_not_a_sum(self):
        with pytest.raises(ValueError):
            ConnSum((S2,), 1)
        with pytest.raises(ValueError):
            ConnSum((), 5)


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


def reference_dim(expr):
    """Dimension by walking the tree, independent of the stored field."""
    if isinstance(expr, SphereAtom):
        return expr.k
    if isinstance(expr, Product):
        return reference_dim(expr.left) + reference_dim(expr.right)
    dims = {reference_dim(s) for s, _ in expr.parts}
    assert len(dims) == 1
    return dims.pop()


class TestStoredDimension:
    def test_random_trees(self):
        rng = random.Random(13)
        for _ in range(300):
            expr = random_expr(rng)
            assert expr.dim == dimension(expr) == reference_dim(expr)

    def test_tallest_product_chain(self):
        chain = functools.reduce(Product, [S1] * (MAX_BRACKET_DEPTH + 1))
        assert chain.height == MAX_BRACKET_DEPTH
        assert chain.dim == dimension(chain) == reference_dim(chain) == MAX_BRACKET_DEPTH + 1

    def test_huge_genus(self):
        expr = s_ng(5, 10**9)
        assert expr.dim == dimension(expr) == reference_dim(expr) == 5

    def test_dim_is_not_part_of_the_value(self):
        for build, text in [
                (lambda: Product(S1, S2), "Product(left=SphereAtom(k=1), right=SphereAtom(k=2))"),
                (lambda: ConnSum((S2, S2)), "ConnSum(summands=(SphereAtom(k=2),), copies=2)")]:
            a, b = build(), build()
            object.__setattr__(b, "dim", 7)
            assert a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) == text

    def test_dim_is_read_only(self):
        for expr in (S2, Product(S1, S2), ConnSum((S2, S2))):
            with pytest.raises(AttributeError):
                expr.dim = 9


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

    def test_bool_is_not_an_integer(self):
        for n, g in ((5, True), (True, 2), (5, False)):
            with pytest.raises(TypeError):
                s_ng(n, g)


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
    @given(st.text(alphabet="Sng()#x, 0123456789\t\u00a0@\u00b2\u0663", max_size=24))
    def test_parser_never_crashes(self, text):
        try:
            expr = parse_manifold(text)
        except ParseError as err:
            assert 0 <= err.position <= len(text)
            assert str(err).endswith(f"(at position {err.position})")
            return
        except (DimensionMismatchError, ValueError):
            return
        assert parse_manifold(render_manifold(expr)) == expr
