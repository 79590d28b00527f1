import ast
import importlib
import inspect
import io
import json
import re
import sys
import tokenize
from pathlib import Path

import pytest

import flowtop

# ``flowtop.homology`` is the function once the package is imported, so the
# modules are looked up by their dotted names.
MODULES = [importlib.import_module(f"flowtop.{name}")
           for name in ("expressions", "flows", "homology", "simplicial", "snf")]

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


class TestPublicSurface:
    def test_all_is_the_sorted_union_of_the_modules(self):
        union = set().union(*(module.__all__ for module in MODULES))
        assert flowtop.__all__ == sorted(union)

    def test_no_name_is_exported_by_two_modules(self):
        owners = {}
        for module in MODULES:
            for name in module.__all__:
                assert name not in owners, (name, owners.get(name), module.__name__)
                owners[name] = module.__name__

    def test_each_name_is_the_defining_modules_object(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(flowtop, name) is getattr(module, name), (module.__name__, name)

    def test_every_public_function_and_class_is_exported(self):
        for module in MODULES:
            defined = {
                name for name, obj in vars(module).items()
                if not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
            }
            assert defined - set(module.__all__) == set(), module.__name__

    # Each dispatch on an expression's node type ends in a TypeError that
    # names what it was given; IntegerMatrix @ a non-matrix defers to Python.
    @pytest.mark.parametrize("call,message", [
        pytest.param(flowtop.homology, "'S2'", id="homology"),
        pytest.param(flowtop.poincare_polynomial, "'S2'", id="poincare_polynomial"),
        pytest.param(lambda x: flowtop.betti(x, 0), "'S2'", id="betti"),
        pytest.param(flowtop.euler_characteristic, "'S2'", id="euler_characteristic"),
        pytest.param(flowtop.triangulate, "'S2'", id="triangulate"),
        pytest.param(flowtop.render_manifold, "'S2'", id="render_manifold"),
        pytest.param(lambda x: flowtop.IntegerMatrix.identity(2) @ 3, "@", id="matmul"),
    ])
    def test_a_value_of_the_wrong_type_is_a_type_error(self, call, message):
        with pytest.raises(TypeError, match=re.escape(message)):
            call("S2")


def quickstart_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeQuickstart:
    def test_commented_values_hold(self):
        """Run the quickstart; an expression line's value has the repr that
        its trailing comment shows."""
        block = quickstart_block()
        comments = {
            tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT
        }
        namespace = {}
        checked = 0
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr) and node.lineno in comments:
                value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
                assert repr(value) == comments[node.lineno], ast.unparse(node)
                checked += 1
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
        assert checked >= 6


class TestReadmeCheckFlowExample:
    def test_report_block_is_the_validator_output(self):
        """README's check-flow report is the JSON that check-flow prints for
        the spec it names, broken only before each check after the first."""
        text = README.read_text(encoding="utf-8")
        match = re.search(r"The report for `(\{.*?\})` comes back", text)
        assert match, "README names no spec for its check-flow report"
        block = text[match.end():].split("```json\n", 1)[1].split("```", 1)[0]
        report = flowtop.validate_flow(flowtop.flow_spec_from_json(json.loads(match.group(1))))
        printed = json.dumps(flowtop.report_to_json(report))
        assert block == printed.replace('}, {"name"', '},\n {"name"') + "\n"


class TestConsoleScript:
    @pytest.mark.parametrize("argv, code, out", [
        (["betti", "Sng(6,4)", "--degree", "5"], 0, "4\n"),
        (["crosscheck", "S7"], 2, ""),
    ])
    def test_target_exits_with_what_it_returns(self, monkeypatch, capsys, argv, code, out):
        """The ``flowtop`` script as installers generate it: import the
        ``[project.scripts]`` target and pass what it returns to sys.exit.
        The file is read as text, since Python 3.10 has no tomllib."""
        section = PYPROJECT.read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
        module, name = re.match(r'flowtop = "([\w.]+):(\w+)"\n', section).groups()
        target = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["flowtop", *argv])
        with pytest.raises(SystemExit) as info:
            sys.exit(target())
        assert info.value.code == code
        assert capsys.readouterr().out == out
