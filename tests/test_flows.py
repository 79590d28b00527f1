import collections
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from flowtop import flows
from flowtop.flows import (
    Connection,
    FlowSpec,
    GenusNegativityError,
    GenusParityError,
    enumerate_flows,
    flow_spec_from_json,
    flow_spec_to_json,
    genus_of_counts,
    obstruction_check,
    report_to_json,
    validate_flow,
)

from helpers import address_space_cap


class TestGenusOfCounts:
    @pytest.mark.parametrize("nu,mu,expected", [
        (0, 2, 0),
        (2, 2, 1),
        (7, 5, 2),   # nu = 2g + k, mu = k + 2 with g = 2, k = 3
        (1, 3, 0),
        (10, 2, 5),
    ])
    def test_values(self, nu, mu, expected):
        assert genus_of_counts(nu, mu) == expected

    def test_parity_error(self):
        with pytest.raises(GenusParityError):
            genus_of_counts(3, 2)

    def test_negativity_error(self):
        with pytest.raises(GenusNegativityError):
            genus_of_counts(0, 5)
        with pytest.raises(GenusNegativityError):
            genus_of_counts(0, 4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            genus_of_counts(-1, 2)
        with pytest.raises(ValueError):
            genus_of_counts(3, 1)

    def test_bool_is_not_a_count(self):
        for nu, mu in ((True, 3), (0, True), (False, 2)):
            with pytest.raises(ValueError):
                genus_of_counts(nu, mu)


def closed_form_betti(n: int, g: int) -> list[int]:
    """beta(Sng(n, g)) = (1, g, 0, ..., 0, g, 1), with beta_1 = 2g when n = 2."""
    beta = [1] + [0] * (n - 1) + [1]
    beta[1] += g
    beta[n - 1] += g
    return beta


def morse_detail_against_closed_form(spec: FlowSpec, g: int) -> str | None:
    """The failure detail that c_i >= beta_i gives on the genus-g manifold,
    or None when every inequality holds."""
    violations = [f"c_{i} = {c} < beta_{i} = {b}"
                  for i, (c, b) in enumerate(zip(spec.counts, closed_form_betti(spec.n, g)))
                  if c < b]
    return "; ".join(violations) or None


class TestMorseInequalities:
    def test_no_violations(self):
        spec = FlowSpec(4, (1, 1, 0, 1, 1))
        report = validate_flow(spec)
        assert report.genus == 1
        assert report.check("morse_inequalities").passed
        assert morse_detail_against_closed_form(spec, 1) is None

    def test_violation_in_degree_one(self):
        spec = FlowSpec(4, (1, 0, 0, 2, 1))
        report = validate_flow(spec)
        assert report.genus == 1
        morse = report.check("morse_inequalities")
        assert not morse.passed
        assert morse.detail == morse_detail_against_closed_form(spec, 1) == "c_1 = 0 < beta_1 = 1"

    def test_sphere_flow(self):
        spec = FlowSpec(5, (1, 0, 0, 0, 0, 1))
        report = validate_flow(spec)
        assert report.genus == 0
        assert report.check("morse_inequalities").passed
        assert morse_detail_against_closed_form(spec, 0) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_check_agrees_with_closed_form_betti(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        g = data.draw(st.integers(0, 50), label="g")
        c0, cn = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        # nu = 2g + mu - 2 saddles, split at random over the indices 1..n-1
        nu = 2 * g + c0 + cn - 2
        cuts = sorted(data.draw(st.lists(st.integers(0, nu), min_size=n - 2, max_size=n - 2)))
        saddles = [b - a for a, b in zip([0, *cuts], [*cuts, nu])]
        spec = FlowSpec(n, (c0, *saddles, cn))
        report = validate_flow(spec)
        assert report.genus == g
        morse = report.check("morse_inequalities")
        expected = morse_detail_against_closed_form(spec, g)
        assert morse.passed == (expected is None)
        if expected is not None:
            assert morse.detail == expected


class TestObstructionCheck:
    def test_middle_index_forbidden_for_every_genus(self):
        for g in range(6):
            result = obstruction_check(4, 2, g)
            assert result.forbidden
            assert "intersection number" in result.reason

    def test_dimension_six(self):
        assert obstruction_check(6, 3, 5).forbidden

    def test_index_one_admissible(self):
        assert obstruction_check(4, 1, 0).admissible

    def test_dimension_three_has_no_middle(self):
        assert obstruction_check(3, 1, 2).admissible
        assert obstruction_check(3, 2, 2).admissible

    def test_sweep(self):
        for n in range(4, 9):
            for g in range(4):
                for i in range(2, n - 1):
                    assert obstruction_check(n, i, g).forbidden
                assert obstruction_check(n, 1, g).admissible
                assert obstruction_check(n, n - 1, g).admissible

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            obstruction_check(2, 1, 0)
        with pytest.raises(ValueError):
            obstruction_check(4, 0, 0)
        with pytest.raises(ValueError):
            obstruction_check(4, 4, 0)
        with pytest.raises(ValueError):
            obstruction_check(4, 2, -1)

    def test_bool_is_not_an_integer(self):
        for args in ((4, True, 0), (4, 1, True), (True, 1, 0)):
            with pytest.raises(ValueError):
                obstruction_check(*args)

    def test_huge_dimension_in_closed_form(self):
        # A dense row of n + 1 Betti numbers would be gigabytes.  The
        # MemoryError is not left to the traceback, whose repr of the
        # polynomial would densify it again outside the cap.
        with address_space_cap():
            try:
                forbidden = obstruction_check(10**9, 5, 1)
                admissible = obstruction_check(10**9, 1, 1)
            except MemoryError:
                forbidden = admissible = None
        assert forbidden is not None, "obstruction_check built a dense Betti row"
        assert forbidden.forbidden
        assert "beta_5 = beta_999999995 = 0" in forbidden.reason
        assert admissible.admissible


CHECK_ORDER = ["genus", "index_restriction", "morse_inequalities",
               "euler_characteristic"]


class TestValidateFlow:
    def test_admissible_genus_one(self):
        report = validate_flow(FlowSpec(4, (1, 1, 0, 1, 1)))
        assert report.admissible
        assert report.genus == 1
        assert report.k == 0
        assert [c.name for c in report.checks] == CHECK_ORDER
        assert all(c.passed for c in report.checks)
        with pytest.raises(KeyError):
            report.check("connections")
        with pytest.raises(KeyError):
            report.check("bogus")

    def test_middle_saddle_is_rejected_with_reasons(self):
        report = validate_flow(FlowSpec(5, (1, 0, 1, 0, 0, 1)))
        assert not report.admissible
        assert report.genus is None
        assert report.k is None
        # parity fails and the offending index-2 saddle is annotated
        assert not report.check("genus").passed
        index_check = report.check("index_restriction")
        assert not index_check.passed
        assert "c_2 = 1" in index_check.detail
        assert "intersection number" in index_check.detail
        # chi must vanish in odd dimensions but the counts alternate to 1
        assert not report.check("euler_characteristic").passed
        # the Morse check is still reported, on genus-independent bounds
        morse = report.check("morse_inequalities")
        assert "genus undefined" in morse.detail

    def test_admissible_with_extra_nodes(self):
        report = validate_flow(FlowSpec(4, (2, 1, 0, 0, 1)))
        assert report.admissible
        assert report.genus == 0
        assert report.k == 1

    def test_dimension_three_note(self):
        report = validate_flow(FlowSpec(3, (1, 1, 1, 1)))
        assert report.genus == 1
        index_check = report.check("index_restriction")
        assert index_check.passed
        assert "dimension >= 4" in index_check.detail

    @pytest.mark.parametrize("n, counts, detail", [
        (2, (1, 2, 1), "dimension 2 < 4 has no saddle index in 2..n-2; the restriction "
         "is asserted only for dimension >= 4"),
        (3, (1, 1, 1, 1), "dimension 3 < 4 has no saddle index in 2..n-2; the restriction "
         "is asserted only for dimension >= 4 (in dimension 3 the genus-0 case is known "
         "classically)"),
    ])
    def test_low_dimension_index_restriction_wording(self, n, counts, detail):
        index_check = validate_flow(FlowSpec(n, counts)).check("index_restriction")
        assert index_check.passed
        assert index_check.detail == detail

    def test_genus_check_is_the_count_laws(self):
        # The genus check passes exactly when integers g, k >= 0 solve
        # nu = 2g + k and mu = k + 2, and then its detail names that k.
        for n in range(2, 9):
            for nu in range(21):
                for mu in range(2, 11):
                    spec = FlowSpec(n, (1, nu, *(0,) * (n - 2), mu - 1))
                    solutions = [(g, k) for g in range(nu + 1) for k in range(nu + 1)
                                 if nu == 2 * g + k and mu == k + 2]
                    report = validate_flow(spec)
                    genus = report.check("genus")
                    assert genus.passed == bool(solutions), (n, nu, mu)
                    if solutions:
                        [(g, k)] = solutions
                        assert (report.genus, report.k) == (g, k)
                        assert re.search(r"\bk = (\d+)\b", genus.detail).group(1) == str(k)
                    else:
                        assert (report.genus, report.k) == (None, None)

    def test_morse_violation_reported(self):
        report = validate_flow(FlowSpec(4, (1, 0, 0, 2, 1)))
        assert not report.admissible
        morse = report.check("morse_inequalities")
        assert not morse.passed
        assert "c_1 = 0 < beta_1 = 1" in morse.detail

    def test_euler_violation_reported(self):
        # genus 1, Morse inequalities fine, but the alternating sum is -2
        report = validate_flow(FlowSpec(5, (1, 2, 0, 0, 1, 2)))
        assert not report.admissible
        assert report.check("morse_inequalities").passed
        assert not report.check("euler_characteristic").passed

    def test_even_dimension_euler_is_not_evaluated_without_a_genus(self):
        # nu - mu = 1 - 2 is odd: no genus, so chi = 2 - 2g names no number.
        # The genus check is the one fault, not repeated by the Euler check.
        report = validate_flow(FlowSpec(4, (1, 1, 0, 0, 1)))
        assert not report.admissible
        assert (report.genus, report.k) == (None, None)
        assert not report.check("genus").passed
        euler = report.check("euler_characteristic")
        assert euler.passed
        assert euler.detail == ("genus undefined; the Euler characteristic 2 - 2g "
                                "is not evaluated")
        assert [c.name for c in report.checks if not c.passed] == ["genus"]

    def test_requires_no_heteroclinic(self):
        spec = FlowSpec(4, (1, 1, 0, 1, 1), no_heteroclinic=False)
        with pytest.raises(ValueError):
            validate_flow(spec)

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError):
            FlowSpec(4, (0, 1, 0, 1, 1))
        with pytest.raises(ValueError):
            FlowSpec(4, (1, 1, 0, 1, 0))
        with pytest.raises(ValueError):
            FlowSpec(4, (1, -1, 0, 1, 1))
        with pytest.raises(ValueError):
            FlowSpec(4, (1, 1, 0, 1))
        with pytest.raises(ValueError):
            FlowSpec(1, (1, 1))


GOOD_CONNECTIONS = dict(
    connections=(
        Connection("w", "s"), Connection("s", "a"),
        Connection("w", "r"), Connection("r", "a"),
    ),
    indices={"a": 0, "s": 1, "r": 3, "w": 4},
)


class TestConnections:
    def test_structural_check_passes(self):
        spec = FlowSpec(4, (1, 1, 0, 1, 1), **GOOD_CONNECTIONS)
        report = validate_flow(spec)
        assert report.admissible
        assert report.check("connections").passed

    def test_saddle_to_saddle_edge_fails(self):
        spec = FlowSpec(
            4, (1, 1, 0, 1, 1),
            connections=(Connection("s", "r"),),
            indices={"s": 1, "r": 3},
        )
        report = validate_flow(spec)
        connections = report.check("connections")
        assert not connections.passed
        assert "joins two saddles" in connections.detail

    def test_index_one_saddle_with_two_sinks_passes(self):
        # The S^4 dumbbell: two minima, one 1-handle and one maximum.  The
        # saddle's two separatrices end at different sinks; its stable
        # manifold minus the saddle is connected, so one source.
        spec = FlowSpec(
            4, (2, 1, 0, 0, 1),
            connections=(
                Connection("s", "a1"), Connection("s", "a2"), Connection("w", "s"),
            ),
            indices={"a1": 0, "a2": 0, "s": 1, "w": 4},
        )
        report = validate_flow(spec)
        assert report.admissible
        assert report.check("connections").passed

    def test_reversed_dumbbell_fails_on_every_edge(self):
        # The dumbbell with every edge against the flow: a trajectory runs
        # from a higher Morse index to a lower one, never up.
        spec = flow_spec_from_json({
            "n": 4, "counts": [2, 1, 0, 0, 1],
            "connections": [{"from": "a1", "to": "s"}, {"from": "a2", "to": "s"},
                            {"from": "s", "to": "r"}],
            "indices": {"a1": 0, "a2": 0, "s": 1, "r": 4}})
        report = validate_flow(spec)
        assert not report.admissible
        connections = report.check("connections")
        assert not connections.passed
        for edge, ia, ib in [("a1 -> s", 0, 1), ("a2 -> s", 0, 1), ("s -> r", 1, 4)]:
            assert (f"edge {edge} runs against the flow: index {ia} is not above "
                    f"index {ib}") in connections.detail
        # the neighbour sets are unchanged, so only the direction fails
        assert "must connect" not in connections.detail

    def test_edge_between_equal_indices_runs_against_the_flow(self):
        spec = FlowSpec(4, (1, 1, 0, 1, 1),
                        connections=GOOD_CONNECTIONS["connections"] + (Connection("s", "t"),),
                        indices={**GOOD_CONNECTIONS["indices"], "t": 1})
        detail = validate_flow(spec).check("connections").detail
        assert "edge s -> t joins two saddles" in detail
        assert "edge s -> t runs against the flow: index 1 is not above index 1" in detail

    @pytest.mark.parametrize("n, counts, edges, indices, failure", [
        # index n-1 mirrors index 1: one sink and one or two sources
        (4, (1, 0, 0, 1, 2), ["w1 r", "w2 r", "r a"], {"a": 0, "r": 3, "w1": 4, "w2": 4},
         None),
        (4, (2, 0, 0, 1, 1), ["w r", "r a1", "r a2"], {"a1": 0, "a2": 0, "r": 3, "w": 4},
         "saddle r of index 3 must connect to one sink and one or two sources, "
         "found sinks ['a1', 'a2'] and sources ['w']"),
        (4, (3, 1, 0, 0, 1), ["s a1", "s a2", "s a3", "w s"],
         {"a1": 0, "a2": 0, "a3": 0, "s": 1, "w": 4},
         "saddle s of index 1 must connect to one or two sinks and one source, "
         "found sinks ['a1', 'a2', 'a3'] and sources ['w']"),
        (4, (1, 1, 0, 0, 2), ["w1 s", "w2 s", "s a"], {"a": 0, "s": 1, "w1": 4, "w2": 4},
         "saddle s of index 1 must connect to one or two sinks and one source, "
         "found sinks ['a'] and sources ['w1', 'w2']"),
        # in n = 2 index 1 is also n - 1: both invariant manifolds are two
        # separatrices
        (2, (2, 1, 2), ["s a1", "s a2", "w1 s", "w2 s"],
         {"a1": 0, "a2": 0, "s": 1, "w1": 2, "w2": 2}, None),
        (2, (3, 1, 1), ["s a1", "s a2", "s a3", "w s"],
         {"a1": 0, "a2": 0, "a3": 0, "s": 1, "w": 2},
         "saddle s of index 1 must connect to one or two sinks and one or two sources, "
         "found sinks ['a1', 'a2', 'a3'] and sources ['w']"),
        # middle indices keep one sink and one source
        (6, (2, 0, 0, 1, 0, 0, 1), ["w m", "m a1", "m a2"],
         {"a1": 0, "a2": 0, "m": 3, "w": 6},
         "saddle m of index 3 must connect to one sink and one source, "
         "found sinks ['a1', 'a2'] and sources ['w']"),
    ], ids=["index-3-two-sources", "index-3-two-sinks", "index-1-three-sinks",
            "index-1-two-sources", "n2-two-of-each", "n2-three-sinks", "middle-two-sinks"])
    def test_saddle_rule_by_index(self, n, counts, edges, indices, failure):
        spec = FlowSpec(n, counts, connections=tuple(Connection(*e.split()) for e in edges),
                        indices=indices)
        connections = validate_flow(spec).check("connections")
        assert connections.passed == (failure is None)
        if failure is not None:
            assert failure in connections.detail

    def test_isolated_labelled_saddle_fails(self):
        spec = FlowSpec(
            4, (1, 1, 0, 1, 1),
            connections=(Connection("w", "a"),),
            indices={"a": 0, "s": 1, "w": 4},
        )
        report = validate_flow(spec)
        assert not report.check("connections").passed

    def test_empty_connections_leave_counted_saddles_unlabelled(self):
        spec = flow_spec_from_json(
            {"n": 4, "counts": [1, 1, 0, 1, 1], "connections": [], "indices": {}})
        report = validate_flow(spec)
        assert not report.admissible
        detail = report.check("connections").detail
        assert "counts[1] = 1, but only 0 saddles of index 1 are labelled" in detail
        assert "counts[3] = 1, but only 0 saddles of index 3 are labelled" in detail

    def test_more_labelled_saddles_than_counted_fails(self):
        spec = FlowSpec(
            4, (1, 1, 0, 1, 1),
            connections=(
                Connection("w", "s1"), Connection("s1", "a"),
                Connection("w", "s2"), Connection("s2", "a"),
                Connection("w", "r"), Connection("r", "a"),
            ),
            indices={"a": 0, "s1": 1, "s2": 1, "r": 3, "w": 4},
        )
        report = validate_flow(spec)
        assert not report.admissible
        connections = report.check("connections")
        assert not connections.passed
        assert connections.detail == (
            "2 equilibria are labelled with Morse index 1, but counts[1] = 1")

    def test_count_only_specs_skip_the_check(self):
        report = validate_flow(FlowSpec(4, (1, 1, 0, 1, 1)))
        assert [c.name for c in report.checks] == CHECK_ORDER

    def test_endpoints_must_be_labelled(self):
        with pytest.raises(ValueError):
            FlowSpec(4, (1, 1, 0, 1, 1),
                     connections=(Connection("s", "mystery"),),
                     indices={"s": 1})

    def test_connections_and_indices_come_together(self):
        with pytest.raises(ValueError):
            FlowSpec(4, (1, 1, 0, 1, 1), connections=(Connection("a", "b"),))
        with pytest.raises(ValueError):
            FlowSpec(4, (1, 1, 0, 1, 1), indices={"a": 0})

    def test_report_independent_of_labels(self):
        base = FlowSpec(4, (1, 1, 0, 1, 1), **GOOD_CONNECTIONS)
        renamed = FlowSpec(
            4, (1, 1, 0, 1, 1),
            connections=(
                Connection("omega", "sigma1"), Connection("sigma1", "alpha"),
                Connection("omega", "sigma2"), Connection("sigma2", "alpha"),
            ),
            indices={"alpha": 0, "sigma1": 1, "sigma2": 3, "omega": 4},
        )
        assert report_to_json(validate_flow(base)) == report_to_json(validate_flow(renamed))


def brute_force_vectors(n, g, k_max):
    """Independent enumeration: scan all bounded 4-tuples and test the
    defining constraints plus admissibility directly."""
    bound = 2 * g + k_max + 2
    found = set()
    for c0 in range(bound + 1):
        for c1 in range(bound + 1):
            for cl in range(bound + 1):
                for cn in range(bound + 1):
                    if c0 < 1 or cn < 1 or c1 < g or cl < g:
                        continue
                    matched_k = None
                    for k in range(k_max + 1):
                        if c1 + cl == 2 * g + k and c0 + cn == k + 2:
                            matched_k = k
                            break
                    if matched_k is None:
                        continue
                    counts = [0] * (n + 1)
                    counts[0], counts[1], counts[n - 1], counts[n] = c0, c1, cl, cn
                    if validate_flow(FlowSpec(n, tuple(counts))).admissible:
                        found.add(tuple(counts))
    return found


class TestEnumerateFlows:
    def test_sphere_flow_only(self):
        assert enumerate_flows(4, 0, 0) == [(1, 0, 0, 0, 1)]

    def test_genus_one_minimal(self):
        assert enumerate_flows(4, 1, 0) == [(1, 1, 0, 1, 1)]

    def test_bool_is_not_an_integer(self):
        for args in ((4, True, 0), (4, 0, True), (True, 0, 0)):
            with pytest.raises(ValueError):
                enumerate_flows(*args)

    def test_k_one_includes_all_strata(self):
        vectors = enumerate_flows(4, 0, 1)
        # the k = 1 stratum has four vectors; the k = 0 sphere flow joins them
        stratum = {(1, 1, 0, 0, 2), (1, 0, 0, 1, 2), (2, 1, 0, 0, 1), (2, 0, 0, 1, 1)}
        assert stratum <= set(vectors)
        assert set(vectors) == stratum | {(1, 0, 0, 0, 1)}

    def test_odd_dimension_euler_filter(self):
        # in odd dimensions the alternating sum must vanish, which kills
        # half of the arithmetic candidates
        assert enumerate_flows(5, 0, 1) == [
            (1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 1, 2), (2, 1, 0, 0, 0, 1)]

    def test_sorted_and_unique(self):
        vectors = enumerate_flows(6, 2, 3)
        assert vectors == sorted(set(vectors))

    def test_round_trip_genus(self):
        for n in (4, 5):
            for g in range(3):
                for counts in enumerate_flows(n, g, 2):
                    nu = sum(counts[1:n])
                    mu = counts[0] + counts[n]
                    assert genus_of_counts(nu, mu) == g

    def test_matches_brute_force(self):
        for n in range(4, 10):
            for g in range(5):
                for k_max in range(6):
                    assert set(enumerate_flows(n, g, k_max)) == brute_force_vectors(n, g, k_max)

    def test_generator_yields_in_strictly_increasing_order(self):
        # no sort is applied after the generator: its own order must be lexicographic
        for n in (4, 5, 8, 9):
            for g in range(3):
                vectors = list(flows._admissible_counts(n, g, 5))
                assert all(a < b for a, b in zip(vectors, vectors[1:]))

    def test_first_vectors_of_a_huge_range_come_at_once(self):
        with address_space_cap():
            for n, g in ((8, 5), (9, 2)):
                first = list(itertools.islice(flows._admissible_counts(n, g, 10**6), 3))
                assert first[0] == (1, g) + (0,) * (n - 3) + (g, 1)
                assert len(first) == 3

    def test_odd_dimension_has_k_plus_one_vectors_per_k(self):
        for n in (5, 7, 9):
            for g in range(4):
                per_k = collections.Counter(
                    c[0] + c[n] - 2 for c in enumerate_flows(n, g, 6))
                assert per_k == {k: k + 1 for k in range(7)}

    def test_nonzero_middle_count_is_always_inadmissible(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(4, 8)
            counts = [rng.randint(0, 2) for _ in range(n + 1)]
            counts[0] = max(counts[0], 1)
            counts[n] = max(counts[n], 1)
            counts[rng.randint(2, n - 2)] += 1
            assert not validate_flow(FlowSpec(n, tuple(counts))).admissible

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_flows(3, 0, 0)
        with pytest.raises(ValueError):
            enumerate_flows(4, -1, 0)
        with pytest.raises(ValueError):
            enumerate_flows(4, 0, -1)


class TestJson:
    def test_spec_round_trip(self):
        doc = {
            "n": 4,
            "counts": [1, 1, 0, 1, 1],
            "no_heteroclinic": True,
            "connections": [{"from": "w", "to": "s"}, {"from": "s", "to": "a"},
                            {"from": "w", "to": "r"}, {"from": "r", "to": "a"}],
            "indices": {"a": 0, "s": 1, "r": 3, "w": 4},
        }
        spec = flow_spec_from_json(doc)
        assert flow_spec_to_json(spec) == doc

    def test_no_heteroclinic_defaults_true(self):
        spec = flow_spec_from_json({"n": 4, "counts": [1, 0, 0, 0, 1]})
        assert spec.no_heteroclinic

    @pytest.mark.parametrize("doc", [
        [],
        {"counts": [1, 0, 0, 0, 1]},
        {"n": 4},
        {"n": "4", "counts": [1, 0, 0, 0, 1]},
        {"n": 4, "counts": [1, 0, 0, 1]},
        {"n": 4, "counts": [1, 0, 0, 0, 1], "connections": []},
        {"n": 4, "counts": [1, 0, 0, 0, 1], "connections": [{"from": "a"}],
         "indices": {"a": 0}},
        # JSON 1, true and null are not the labels "1", "True" and "None"
        *({"n": 4, "counts": [1, 1, 0, 1, 1], "connections": [conn],
           "indices": {"1": 1, "True": 1, "None": 1, "a": 0}}
          for conn in ({"from": 1, "to": "a"}, {"from": "a", "to": True},
                       {"from": None, "to": "a"})),
        # nor are index labels 1 and True the strings "1" and "True"
        *({"n": 4, "counts": [1, 1, 0, 1, 1], "connections": [{"from": end, "to": "a"}],
           "indices": {label: 1, "a": 0}}
          for label, end in ((1, "1"), (True, "True"))),
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(ValueError):
            flow_spec_from_json(doc)

    def test_report_schema_and_round_trip(self):
        report = validate_flow(FlowSpec(4, (1, 1, 0, 1, 1)))
        doc = report_to_json(report)
        assert set(doc) == {"genus", "k", "admissible", "checks"}
        assert all(set(c) == {"name", "pass", "detail"} for c in doc["checks"])
        assert doc["genus"] == report.genus == 1
        assert doc["admissible"] is True and report.admissible
        assert json.loads(json.dumps(doc)) == doc

    def test_report_admissible_matches_conjunction(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 6)
            counts = [rng.randint(0, 3) for _ in range(n + 1)]
            counts[0] = max(counts[0], 1)
            counts[n] = max(counts[n], 1)
            report = validate_flow(FlowSpec(n, tuple(counts)))
            assert report.admissible == all(c.passed for c in report.checks)


class TestEngineCalls:
    def test_each_law_asks_the_engine_once(self, monkeypatch):
        calls = collections.Counter()

        def counted(name):
            engine = getattr(flows, name)

            def call(expr):
                calls[name] += 1
                return engine(expr)
            return call

        for name in ("poincare_polynomial", "euler_characteristic"):
            monkeypatch.setattr(flows, name, counted(name))

        # A defined genus, with and without a middle-index saddle and
        # connections: the Morse and Euler laws read one polynomial.
        for spec in (FlowSpec(5, (1, 3, 1, 0, 2, 1)), FlowSpec(7, (1, 2000, 0, 0, 0, 0, 2000, 1)),
                     flow_spec_from_json({"n": 2, "counts": [1, 2, 1], "connections": [],
                                          "indices": {}})):
            calls.clear()
            validate_flow(spec)
            assert calls == {"poincare_polynomial": 1}
        calls.clear()
        # nu - mu odd: no genus, so no Betti number to read
        validate_flow(FlowSpec(4, (1, 1, 1, 1, 1)))
        assert calls == {}
        for n in (*range(3, 12), 10**9):
            for i in {*range(1, min(n, 12)), n - 2, n - 1}:
                for g in range(4):
                    obstruction_check(n, i, g)
        assert calls == {}
