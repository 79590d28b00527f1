"""Command-line interface.

Exit codes: 0 on success, 1 when a validation fails (inadmissible flow
spec, crosscheck mismatch), 2 on malformed input (grammar errors, bad
JSON, unknown flags).  Output is a human-readable listing on a terminal
and JSON when redirected; override with --format.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from typing import Any

from .expressions import _decimal, parse_manifold
from .flows import (
    _admissible_counts,
    flow_spec_from_json,
    obstruction_check,
    report_to_json,
    validate_flow,
)
from .homology import GradedGroup, betti, homology, poincare_polynomial
from .simplicial import complex_from_json, simplicial_homology, triangulate

DEFAULT_MAX_ORACLE_DIM = 6

__all__ = ["main"]


def _resolved_format(args) -> str:
    if args.format:
        return args.format
    return "human" if sys.stdout.isatty() else "json"


def _emit(args, payloads: Iterable[dict], human_lines: Iterable[str]) -> None:
    """Print one JSON line per payload or the human lines, consuming only the
    iterable that the format selects."""
    lines = map(json.dumps, payloads) if _resolved_format(args) == "json" else human_lines
    for line in lines:
        print(line)


def _graded_json(group: GradedGroup) -> dict:
    return {
        "ranks": {str(d): r for d, r in sorted(group.ranks.items())},
        "torsion": {str(d): list(fs) for d, fs in sorted(group.torsion.items())},
    }


def _group_term(rank: int, factors: tuple[int, ...]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{f}" for f in factors)
    return " + ".join(parts) if parts else "0"


def _graded_lines(group: GradedGroup, top: int) -> Iterator[str]:
    """One line per degree, built only as the human format prints them."""
    for d in range(top + 1):
        yield f"H_{d} = {_group_term(group.rank(d), group.invariant_factors(d))}"


def _too_long(exc: Exception) -> bool:
    """Whether ``exc`` is the interpreter refusing to convert an int past its
    int-string limit (4300 digits by default).  The limit stays: it guards
    against quadratic conversion, and its hint names a setting no flag sets."""
    return "integer string conversion" in str(exc)


def _load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON document is nested too deeply") from None
        except ValueError as exc:
            if not _too_long(exc):
                raise
            raise ValueError(f"{path}: JSON document holds an integer too long to read") from None


def _cmd_homology(args) -> int:
    expr = parse_manifold(args.expr)
    group = homology(expr)
    _emit(args, [_graded_json(group)], _graded_lines(group, expr.dim))
    return 0


def _cmd_poincare(args) -> int:
    poly = poincare_polynomial(parse_manifold(args.expr))
    # a generator, so the dense coefficient list is built in JSON mode only
    payloads = ({"coefficients": list(p.coefficients), "pretty": str(p)} for p in (poly,))
    _emit(args, payloads, [f"p(t) = {poly}"])
    return 0


def _cmd_betti(args) -> int:
    print(betti(parse_manifold(args.expr), args.degree))
    return 0


def _cmd_check_flow(args) -> int:
    spec = flow_spec_from_json(_load_json_file(args.spec))
    report = validate_flow(spec)
    human = [f"genus: {report.genus}  k: {report.k}  "
             f"admissible: {'yes' if report.admissible else 'no'}"]
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        human.append(f"  [{mark}] {check.name}: {check.detail}")
    _emit(args, [report_to_json(report)], human)
    return 0 if report.admissible else 1


def _cmd_enumerate(args) -> int:
    rows = ((list(c), c[0] + c[args.n] - 2)
            for c in _admissible_counts(args.n, args.g, args.k_max))
    # two views of one generator: _emit consumes only one of them
    _emit(args, ({"c": c, "k": k} for c, k in rows),
          (f"c = {c}  k = {k}" for c, k in rows))
    return 0


def _cmd_obstruction(args) -> int:
    result = obstruction_check(args.n, args.index, args.g)
    status = "Admissible" if result.admissible else "Forbidden"
    payload = {"n": args.n, "index": args.index, "g": args.g,
               "status": status, "reason": result.reason}
    _emit(args, [payload], [f"{status}: {result.reason}"])
    return 0


def _oracle(args):
    """Every oracle command's complex: ``args.expr`` parsed, refused above
    ``--max-dim`` and triangulated, or the ``args.complex`` file built under
    that limit.  Returns the expression (None for a file), the dimension and
    the homology."""
    if "complex" in args:
        expr, K = None, complex_from_json(_load_json_file(args.complex), args.max_dim)
    else:
        expr = parse_manifold(args.expr)
        if expr.dim > args.max_dim:
            raise ValueError(
                f"expression has dimension {_decimal(expr.dim)}, outside the constructible family "
                f"(limit {args.max_dim}); raise it with --max-dim if you really want this")
        K = triangulate(expr)
    return expr, K.dim, simplicial_homology(K)


def _cmd_oracle(args) -> int:
    _, dim, group = _oracle(args)
    _emit(args, [_graded_json(group)], _graded_lines(group, dim))
    return 0


def crosscheck_rows(engine: GradedGroup, oracle: GradedGroup, top: int) -> list[dict]:
    """Degree-by-degree comparison of the two homology computations.

    A degree matches when the free ranks agree and the oracle found no
    torsion there (expressions never have torsion).
    """
    rows = []
    for d in range(top + 1):
        expected = engine.rank(d)
        found = oracle.rank(d)
        factors = oracle.invariant_factors(d)
        row = {"degree": d, "engine": expected, "oracle": found,
               "match": expected == found and not factors}
        if factors:
            row["oracle_torsion"] = list(factors)
        rows.append(row)
    return rows


def _cmd_crosscheck(args) -> int:
    expr, dim, oracle = _oracle(args)
    rows = crosscheck_rows(homology(expr), oracle, dim)
    all_match = all(row["match"] for row in rows)
    human = []
    for row in rows:
        verdict = "MATCH" if row["match"] else "MISMATCH"
        line = (f"degree {row['degree']}: {verdict} "
                f"(engine={row['engine']}, oracle={row['oracle']})")
        if "oracle_torsion" in row:
            line += f" torsion={row['oracle_torsion']}"
        human.append(line)
    human.append(f"overall: {'MATCH' if all_match else 'MISMATCH'}")
    _emit(args, [{"expression": args.expr, "match": all_match, "degrees": rows}], human)
    return 0 if all_match else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on the first call and reused by every later one.

    Its handlers look up the library functions as module globals when they
    run, so a name patched after the parser exists still takes effect.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "json"), default=None,
        help="output format; defaults to human on a terminal, json otherwise")

    parser = argparse.ArgumentParser(
        prog="flowtop",
        description="Homology of sphere expressions and combinatorial checks for "
                    "gradient-like flows without heteroclinic intersections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("homology", _cmd_homology, "graded integer homology of an expression")
    p.add_argument("expr", help="expression, e.g. 'S3 x S1 # S3 x S1' or 'Sng(4,2)'")

    command("poincare", _cmd_poincare, "Poincare polynomial of an expression").add_argument("expr")

    p = command("betti", _cmd_betti, "single Betti number of an expression")
    p.add_argument("expr")
    p.add_argument("--degree", type=int, required=True)

    p = command("check-flow", _cmd_check_flow,
                "validate a flow spec JSON file (exit 1 if inadmissible)")
    p.add_argument("spec", help="path to the flow spec JSON document")

    p = command("enumerate", _cmd_enumerate,
                "admissible count vectors, one JSON object per line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)

    p = command("obstruction", _cmd_obstruction,
                "whether a saddle of the given Morse index can occur")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--g", type=int, default=0)

    oracle = command("oracle", _cmd_oracle,
                     "triangulate an expression and compute homology by "
                     "unit-pivot elimination and Smith normal form")

    oracle_complex = command("oracle-complex", _cmd_oracle,
                             "simplicial homology of an explicit complex JSON file")
    oracle_complex.add_argument("complex", help="path to the complex JSON document")

    crosscheck = command("crosscheck", _cmd_crosscheck,
                         "compare the closed-form engine with the simplicial "
                         "oracle (exit 1 on mismatch)")
    for p in (oracle, crosscheck):
        p.add_argument("expr")
    for p in (oracle, oracle_complex, crosscheck):
        p.add_argument("--max-dim", dest="max_dim", type=int, default=DEFAULT_MAX_ORACLE_DIM)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already written its message (exit 2 on bad usage)
        return int(exc.code or 0)
    status = 0
    try:
        status = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): not an input error.  Point the
        # descriptor at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return status
    except (ValueError, OSError) as exc:
        # input past the limit is refused where it is read, and a refusal
        # names a huge dimension by its digits, so what could not be written
        # is the answer
        message = "the answer holds an integer too long to print" if _too_long(exc) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the result does not fit in memory", file=sys.stderr)
        return 2
    return status
