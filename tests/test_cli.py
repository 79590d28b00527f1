import contextlib
import io
import json
import os
import select
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import flowtop
from flowtop.cli import crosscheck_rows, main
from flowtop.expressions import s_ng
from flowtop.homology import GradedGroup
from flowtop.simplicial import complex_to_json, triangulate

from helpers import address_space_cap, nested_chains

ADMISSIBLE_SPEC = {"n": 4, "counts": [1, 1, 0, 1, 1], "no_heteroclinic": True}
INADMISSIBLE_SPEC = {"n": 5, "counts": [1, 0, 1, 0, 0, 1], "no_heteroclinic": True}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHomologyCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "homology", "Sng(4,2)", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "ranks": {"0": 1, "1": 2, "3": 2, "4": 1},
            "torsion": {},
        }

    def test_default_format_is_json_when_not_a_tty(self, capsys):
        code, out, _ = run(capsys, "homology", "S2")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1, "2": 1}

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "homology", "S1 x S1", "--format", "human")
        assert code == 0
        assert out.splitlines() == ["H_0 = Z", "H_1 = Z^2", "H_2 = Z"]

    def test_huge_genus_under_memory_cap(self, capsys):
        g = 10**9
        with address_space_cap():
            code, out, _ = run(capsys, "homology", f"Sng(6,{g})", "--format", "json")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1, "1": g, "5": g, "6": 1}

    def test_huge_dimension_json_builds_no_human_lines(self, capsys):
        # The human listing would have a billion lines; JSON has two entries.
        with address_space_cap():
            code, out, _ = run(capsys, "homology", "S999999999", "--format", "json")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1, "999999999": 1}

    @pytest.mark.parametrize("text", ["S2 #", "S\u00b2"])  # superscript two
    def test_grammar_error_exits_2(self, capsys, text):
        code, _, err = run(capsys, "homology", text)
        assert code == 2
        assert "position" in err

    def test_dimension_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "homology", "S2 # S3")
        assert code == 2
        assert "dimension" in err


    def test_deep_bracket_nesting_exits_2(self, capsys):
        code, out, err = run(capsys, "homology", "(" * 5000 + "S2" + ")" * 5000)
        assert code == 2
        assert out == ""
        assert "nested deeper" in err

    @pytest.mark.parametrize("text", [
        " x ".join(["S1"] * 2000),
        nested_chains(89, 90),
    ], ids=["flat-chain", "nested-chains"])
    def test_deep_product_chain_exits_2(self, capsys, text):
        code, out, err = run(capsys, "homology", text)
        assert code == 2
        assert out == ""
        assert "tree deeper" in err


class TestPoincareCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "poincare", "S3 x S1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == [1, 1, 0, 1, 1]
        assert doc["pretty"] == "1 + t + t^3 + t^4"

    def test_unallocatable_coefficient_list_exits_2(self, capsys):
        # The dense list of S999999999999 would take about 8 TB.
        with address_space_cap():
            code, out, err = run(capsys, "poincare", "S999999999999")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_huge_sphere_in_human_format(self, capsys):
        # The human form is sparse, so no dense coefficient list is built.
        with address_space_cap():
            code, out, err = run(capsys, "poincare", "S999999999999", "--format", "human")
        assert (code, err) == (0, "")
        assert out == "p(t) = 1 + t^999999999999\n"


NINES = "9" * 4300  # the longest decimal run the int-string limit lets through


class TestAnswerTooLongToPrint:
    """Ranks past the interpreter's int-string limit are one error line of
    flowtop's own, not the interpreter's hint to raise the limit."""

    @pytest.mark.parametrize("argv", [
        ("homology", f"S{NINES} x S{NINES}", "--format", "json"),
        ("homology", f"S{NINES} x S{NINES}", "--format", "human"),
        ("poincare", f"S{NINES} x S{NINES}", "--format", "json"),
        ("poincare", f"S{NINES} x S{NINES}", "--format", "human"),
        ("betti", f"Sng(4,{NINES[1:]}) x Sng(4,{NINES[1:]})", "--degree", "2"),
    ], ids=["homology-json", "homology-human", "poincare-json", "poincare-human", "betti"])
    def test_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: the answer holds an integer too long to print\n"


class TestDimensionTooLongToPrint:
    """A refusal that names a dimension past the int-string limit gives its
    digit count and still says what was refused."""

    @pytest.mark.parametrize("argv,refusal", [
        (("homology", f"S{NINES} x S{NINES} # S3"),
         "connected-sum summands must have equal dimensions, got [3, <4301 digits>]"),
        (("crosscheck", f"S{NINES} x S{NINES}"),
         "expression has dimension <4301 digits>, outside the constructible family "
         "(limit 6); raise it with --max-dim if you really want this"),
    ], ids=["homology-connsum", "crosscheck-max-dim"])
    def test_exits_2_with_one_line(self, capsys, argv, refusal):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {refusal}\n"


class TestBettiCommand:
    def test_single_integer(self, capsys):
        code, out, _ = run(capsys, "betti", "Sng(6,4)", "--degree", "5")
        assert code == 0
        assert out.strip() == "4"

    def test_degree_out_of_range(self, capsys):
        code, out, _ = run(capsys, "betti", "S3", "--degree", "7")
        assert code == 0
        assert out.strip() == "0"

    def test_huge_dimension_needs_no_dense_list(self, capsys):
        with address_space_cap():
            code, out, _ = run(capsys, "betti", "S999999999", "--degree", "999999999")
        assert code == 0
        assert out.strip() == "1"


class TestCheckFlowCommand:
    def test_admissible_exits_0(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(ADMISSIBLE_SPEC))
        code, out, _ = run(capsys, "check-flow", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["admissible"] is True
        assert doc["genus"] == 1
        assert doc["k"] == 0
        assert [c["name"] for c in doc["checks"]] == [
            "genus", "index_restriction", "morse_inequalities",
            "euler_characteristic"]

    def test_inadmissible_exits_1(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(INADMISSIBLE_SPEC))
        code, out, _ = run(capsys, "check-flow", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out)["admissible"] is False

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check-flow", str(path))
        assert code == 2
        assert "error" in err

    def test_bad_schema_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"n": 4, "counts": [1, 0, 0, 1]}))
        code, _, err = run(capsys, "check-flow", str(path))
        assert code == 2
        assert "counts" in err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "check-flow", str(path))
        assert code == 2
        assert "nested too deeply" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "check-flow", str(tmp_path / "absent.json"))
        assert code == 2

    def test_integer_endpoint_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({**ADMISSIBLE_SPEC, "indices": {"1": 1, "a": 0},
                                    "connections": [{"from": 1, "to": "a"}]}))
        code, out, err = run(capsys, "check-flow", str(path))
        assert (code, out) == (2, "")
        assert err == "error: connection endpoints 'from' and 'to' must be label strings\n"

    def test_integer_too_long_to_read_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        path.write_text('{"n": 4, "counts": [1, %s, 0, 1, 1]}' % ("1" * 5000))
        code, out, err = run(capsys, "check-flow", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: JSON document holds an integer too long to read\n"


class TestEnumerateCommand:
    def test_single_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--g", "0",
                           "--k-max", "0", "--format", "json")
        assert code == 0
        assert out.splitlines() == ['{"c": [1, 0, 0, 0, 1], "k": 0}']

    def test_line_delimited_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--g", "1",
                           "--k-max", "2", "--format", "json")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert all(set(d) == {"c", "k"} for d in docs)
        assert all(sum(d["c"][1:-1]) == 2 * 1 + d["k"] for d in docs)

    def test_bad_dimension_exits_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "3", "--g", "0", "--k-max", "0")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "human"])
    @pytest.mark.parametrize("n,g,k_max", [("3", "0", "0"), ("4", "-1", "0"), ("4", "0", "-1")])
    def test_bad_argument_prints_one_error_line_only(self, capsys, n, g, k_max, fmt):
        code, out, err = run(capsys, "enumerate", "--n", n, "--g", g, "--k-max", k_max,
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_streams_the_first_line_of_a_huge_range(self):
        # The whole list for k_max = 10**6 would not fit under the cap, so
        # the first line arrives only if the command streams.
        src = os.path.dirname(os.path.dirname(flowtop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen(
                [sys.executable, "-c",
                 "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                 "from flowtop.cli import main; sys.exit(main(sys.argv[1:]))",
                 "enumerate", "--n", "8", "--g", "5", "--k-max", "1000000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                first = proc.stdout.readline() if ready else b""
            finally:
                proc.kill()
                proc.stdout.close()
                proc.stderr.close()
        assert json.loads(first) == {"c": [1, 5, 0, 0, 0, 0, 0, 5, 1], "k": 0}

    def test_closed_output_pipe_exits_0(self):
        # About 150 kB of output: more than a pipe holds, so the writer
        # meets the closed pipe after the reader has gone.
        src = os.path.dirname(os.path.dirname(flowtop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen(
                [sys.executable, "-m", "flowtop", "enumerate", "--n", "8", "--g", "5",
                 "--k-max", "20"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert json.loads(first)["c"][0] == 1
        assert err == b""


class TestObstructionCommand:
    def test_forbidden_with_reason(self, capsys):
        code, out, _ = run(capsys, "obstruction", "--n", "6", "--index", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "Forbidden"
        assert "intersection number is +1 or -1" in doc["reason"]
        assert "intersection number 0" in doc["reason"]

    def test_admissible(self, capsys):
        code, out, _ = run(capsys, "obstruction", "--n", "4", "--index", "1",
                           "--g", "2", "--format", "human")
        assert code == 0
        assert out.startswith("Admissible")

    def test_bad_index_exits_2(self, capsys):
        code, _, _ = run(capsys, "obstruction", "--n", "4", "--index", "4")
        assert code == 2

    def test_huge_dimension_in_closed_form(self, capsys):
        with address_space_cap():
            code, out, err = run(capsys, "obstruction", "--n", "1000000000",
                                 "--index", "5", "--g", "1", "--format", "human")
        assert (code, err) == (0, "")
        assert out.startswith("Forbidden: ")


class TestOracleCommand:
    def test_sphere(self, capsys):
        code, out, _ = run(capsys, "oracle", "S2", "--format", "json")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1, "2": 1}

    def test_torus(self, capsys):
        code, out, _ = run(capsys, "oracle", "S1 x S1", "--format", "json")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1, "1": 2, "2": 1}

    def test_dimension_guard_exits_2(self, capsys):
        code, _, err = run(capsys, "oracle", "S7")
        assert code == 2
        assert "constructible family" in err

    def test_max_dim_override(self, capsys):
        code, out, _ = run(capsys, "oracle", "S7", "--max-dim", "7", "--format", "json")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1, "7": 1}


class TestOracleComplexCommand:
    def test_labels_match_by_json_type(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "vertices": ["a", 1, "c"],
            "facets": [["a", True], [1.0, "c"], ["c", "a"]],
        }))
        code, _, err = run(capsys, "oracle-complex", str(path))
        assert code == 2
        assert err == "error: facet vertex True is not in the vertex set\n"
    def test_triangle(self, tmp_path, capsys):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "facets": [["a", "b"], ["b", "c"], ["a", "c"]],
        }))
        code, out, _ = run(capsys, "oracle-complex", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1, "1": 1}

    def test_projective_plane_torsion(self, tmp_path, capsys):
        facets = [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                  [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
        path = tmp_path / "rp2.json"
        path.write_text(json.dumps({
            "vertices": [str(v) for v in range(6)],
            "facets": [[str(v) for v in f] for f in facets],
        }))
        code, out, _ = run(capsys, "oracle-complex", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ranks"] == {"0": 1}
        assert doc["torsion"] == {"1": [2]}

    def test_dimension_guard_refuses_before_building_a_face(self, tmp_path, capsys):
        # All 2^30 - 1 faces of one 30-vertex facet would need gigabytes.
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"vertices": list(range(30)), "facets": [list(range(30))]}))
        with address_space_cap():
            result = run(capsys, "oracle-complex", str(path))
        assert result == (2, "", "error: complex has dimension 29, above the limit 6\n")

    @pytest.mark.parametrize("late, message", [
        ([], "empty facet"),
        ([0, 0], "facet [0, 0] contains a repeated vertex"),
        ([30], "facet vertex 30 is not in the vertex set"),
    ])
    def test_a_malformed_document_is_named_before_its_dimension(self, tmp_path, capsys,
                                                               late, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"vertices": list(range(30)),
                                    "facets": [list(range(30)), late]}))
        assert run(capsys, "oracle-complex", str(path)) == (2, "", f"error: {message}\n")

    def test_max_dim_override(self, tmp_path, capsys):
        path = tmp_path / "s1xs6.json"
        path.write_text(json.dumps(complex_to_json(triangulate(s_ng(7, 1)))))
        assert run(capsys, "oracle-complex", str(path)) == (
            2, "", "error: complex has dimension 7, above the limit 6\n")
        code, out, _ = run(capsys, "oracle-complex", str(path), "--max-dim", "7",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"ranks": {"0": 1, "1": 1, "6": 1, "7": 1}, "torsion": {}}


class TestCrosscheckCommand:
    # S2 x S2 x S1 is dimension 5, inside the default --max-dim.
    @pytest.mark.parametrize("expr", ["S3", "S1 x S1", "Sng(2,2)", "Sng(3,1)", "S2 x S2 x S1"])
    def test_family_members_match(self, capsys, expr):
        code, out, _ = run(capsys, "crosscheck", expr, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["match"] is True
        assert all(row["match"] for row in doc["degrees"])

    def test_human_lines(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "S2", "--format", "human")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree 0: MATCH (engine=1, oracle=1)"
        assert lines[-1] == "overall: MATCH"

    def test_mismatch_detection(self):
        engine = GradedGroup({0: 1, 2: 1})
        oracle = GradedGroup({0: 1, 1: 1, 2: 1})
        rows = crosscheck_rows(engine, oracle, 2)
        assert [row["match"] for row in rows] == [True, False, True]

    def test_oracle_torsion_counts_as_mismatch(self):
        engine = GradedGroup({0: 1, 2: 1})
        oracle = GradedGroup({0: 1, 2: 1}, {1: (2,)})
        rows = crosscheck_rows(engine, oracle, 2)
        assert rows[1]["match"] is False
        assert rows[1]["oracle_torsion"] == [2]

    def test_oracle_torsion_in_the_output(self, capsys, monkeypatch):
        monkeypatch.setattr(flowtop.cli, "simplicial_homology",
                            lambda complex_: GradedGroup({0: 1, 2: 1}, {1: (2,)}))
        code, out, _ = run(capsys, "crosscheck", "S2", "--format", "human")
        assert code == 1
        assert out.splitlines() == [
            "degree 0: MATCH (engine=1, oracle=1)",
            "degree 1: MISMATCH (engine=0, oracle=0) torsion=[2]",
            "degree 2: MATCH (engine=1, oracle=1)",
            "overall: MISMATCH",
        ]
        code, out, _ = run(capsys, "crosscheck", "S2", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["match"] is False
        assert [row.get("oracle_torsion") for row in doc["degrees"]] == [None, [2], None]


class TestCachedParser:
    def test_no_option_carries_over(self, capsys):
        assert run(capsys, "obstruction", "--n", "x", "--index", "1")[0] == 2
        code, out, _ = run(capsys, "crosscheck", "S7", "--max-dim", "7")
        assert code == 0 and json.loads(out)["match"]
        code, _, err = run(capsys, "crosscheck", "S7")
        assert code == 2 and "dimension 7" in err and "limit 6" in err
        for fmt in ("human", "json") * 2:
            code, out, _ = run(capsys, "obstruction", "--n", "6", "--index", "3",
                               "--g", "2", "--format", fmt)
            assert code == 0
            assert out.startswith("Forbidden: ") == (fmt == "human")
            # neither --format nor --g leaks into a call that omits them
            code, out, _ = run(capsys, "obstruction", "--n", "6", "--index", "3")
            assert code == 0 and json.loads(out)["g"] == 0

    def test_patched_oracle_runs(self, capsys, monkeypatch):
        assert run(capsys, "crosscheck", "S2")[0] == 0
        calls = []

        def torus_oracle(complex_):
            calls.append(complex_)
            return GradedGroup({0: 1, 1: 2, 2: 1})

        monkeypatch.setattr(flowtop.cli, "simplicial_homology", torus_oracle)
        code, out, _ = run(capsys, "crosscheck", "S2", "--format", "json")
        assert code == 1 and not json.loads(out)["match"]
        code, out, _ = run(capsys, "oracle", "S2", "--format", "json")
        assert code == 0 and json.loads(out)["ranks"] == {"0": 1, "1": 2, "2": 1}
        assert len(calls) == 2

    def test_built_once_per_process(self, capsys):
        build = flowtop.cli._build_parser
        build.cache_clear()
        for argv in (["--help"], ["homology", "S2"], ["oracle", "S1"], ["bogus"]):
            run(capsys, *argv)
        assert build.cache_info().misses == 1
        assert build() is build()

    def test_import_builds_no_parser(self):
        code = ("import flowtop.cli as cli; "
                "print(cli._build_parser.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(flowtop.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.stdout.strip() == "0", proc.stderr


class TestArgumentErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == 2

    def test_no_arguments_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "homology" in out


def expression_texts(max_dim, max_genus, max_leaves):
    """Expression strings: trees of bounded atoms (now and then an invalid
    one such as S0), and raw text over the grammar's alphabet."""
    atom = st.one_of(
        st.integers(1, max_dim).map("S{}".format),
        st.builds("Sng({},{})".format, st.integers(2, max_dim), st.integers(0, max_genus)),
        st.sampled_from(["S0", "Sng(1,1)", "S", "Sng(3)", ")"]))
    tree = st.recursive(atom, lambda inner: st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from([" x ", "#", " # ", "x"]), inner),
        inner.map("({})".format)), max_leaves=max_leaves)
    return st.one_of(tree, tree, st.text(alphabet="Sng()#x, 0123456789", max_size=16))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.text("abs01", max_size=3),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text("abs01", max_size=3),
                                                                inner, max_size=4),
    max_leaves=12)


@st.composite
def flow_specs(draw):
    """Flow spec documents of the right shape: counts of length n + 1, and
    now and then labelled connections with their indices."""
    n = draw(st.integers(2, 7))
    ends = st.sampled_from([1, 2, 1, 0])
    inner = st.lists(st.sampled_from([0, 1, 2, 0, 3]), min_size=n - 1, max_size=n - 1)
    doc = {"n": n, "counts": [draw(ends), *draw(inner), draw(ends)]}
    if draw(st.booleans()):
        doc["no_heteroclinic"] = draw(st.booleans())
    if draw(st.booleans()):
        names = [f"p{i}" for i in range(draw(st.integers(0, 4)))]
        doc["indices"] = {name: draw(st.integers(-1, n + 1)) for name in names}
        label = st.sampled_from(names + ["q"])
        doc["connections"] = draw(st.lists(
            st.fixed_dictionaries({"from": label, "to": label}), max_size=4))
    return doc


# A spec with one field replaced by an arbitrary JSON value, or any JSON at all.
flow_documents = st.one_of(
    flow_specs(), flow_specs(),
    st.builds(lambda doc, key, value: {**doc, key: value}, flow_specs(),
              st.sampled_from(["n", "counts", "no_heteroclinic", "connections", "indices"]),
              json_values),
    json_values)

@st.composite
def complex_specs(draw):
    """Complex documents of the right shape: scalar labels, facets of up to
    four of them, now and then one that is not a vertex."""
    labels = draw(st.lists(st.integers(0, 6) | st.text("abc", max_size=2),
                           min_size=1, max_size=7, unique=True))
    label = st.sampled_from(labels + [7])
    facets = draw(st.lists(st.lists(label, min_size=1, max_size=4), max_size=6))
    return {"vertices": labels, "facets": facets}


# A complex with one field replaced by an arbitrary JSON value, or any JSON at all.
complex_documents = st.one_of(
    complex_specs(), complex_specs(),
    st.builds(lambda doc, key, value: {**doc, key: value}, complex_specs(),
              st.sampled_from(["vertices", "facets"]), json_values),
    st.builds(lambda doc, value: {**doc, "facets": [*doc["facets"], [value]]},
              complex_specs(), json_values),
    json_values)

engine_argv = st.one_of(
    st.tuples(st.sampled_from(["homology", "poincare"]), expression_texts(12, 30, 6)),
    st.tuples(st.just("betti"), expression_texts(12, 30, 6),
              st.just("--degree"), st.integers(-2, 80).map(str)))

oracle_argv = st.tuples(st.sampled_from(["oracle", "crosscheck"]),
                        expression_texts(4, 4, 3), st.just("--max-dim"), st.just("4"))


def run_main(argv):
    err = io.StringIO()
    with address_space_cap(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_contract(argv, code, err):
    """Exit 0, 1 or 2 and nothing else; 1 only where it means a failed
    validation; 2 with a one-line error."""
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert argv[0] in ("check-flow", "crosscheck"), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)


class TestMainFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(engine_argv, st.sampled_from(["json", "human"]))
    def test_engine_commands(self, argv, fmt):
        code, err = run_main(argv + ("--format", fmt))
        assert_contract(argv, code, err)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(oracle_argv)
    def test_oracle_commands(self, argv):
        code, err = run_main(argv)
        assert_contract(argv, code, err)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(flow_documents)
    def test_check_flow(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzz_spec.json"
        path.write_text(json.dumps(doc))
        code, err = run_main(("check-flow", str(path)))
        assert_contract(("check-flow",), code, err)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(complex_documents)
    def test_oracle_complex(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzz_complex.json"
        path.write_text(json.dumps(doc))
        code, err = run_main(("oracle-complex", str(path)))
        assert_contract(("oracle-complex",), code, err)
