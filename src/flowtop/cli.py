"""Command-line interface.

Exit codes: 0 on success, 1 when a validation fails (inadmissible flow
spec, crosscheck mismatch), 2 on malformed input (grammar errors, bad
JSON, unknown flags).  Output is a human-readable listing on a terminal
and JSON when redirected; override with --format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .expressions import dimension, parse_manifold
from .flows import (
    enumerate_flows,
    flow_spec_from_json,
    obstruction_check,
    report_to_json,
    validate_flow,
)
from .homology import GradedGroup, betti, homology, poincare_polynomial
from .simplicial import complex_from_json, simplicial_homology, triangulate

DEFAULT_MAX_ORACLE_DIM = 6

__all__ = ["main", "entry"]


def _resolved_format(args) -> str:
    if args.format:
        return args.format
    return "human" if sys.stdout.isatty() else "json"


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if _resolved_format(args) == "json":
        print(json.dumps(payload))
    else:
        for line in human_lines:
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


def _graded_lines(group: GradedGroup, top: int) -> list[str]:
    return [f"H_{d} = {_group_term(group.rank(d), group.invariant_factors(d))}"
            for d in range(top + 1)]


def _load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON document is nested too deeply") from None


def _cmd_homology(args) -> int:
    expr = parse_manifold(args.expr)
    group = homology(expr)
    _emit(args, _graded_json(group), _graded_lines(group, dimension(expr)))
    return 0


def _cmd_poincare(args) -> int:
    poly = poincare_polynomial(parse_manifold(args.expr))
    payload = {"coefficients": list(poly.coefficients), "pretty": str(poly)}
    _emit(args, payload, [f"p(t) = {poly}"])
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
    _emit(args, report_to_json(report), human)
    return 0 if report.admissible else 1


def _cmd_enumerate(args) -> int:
    vectors = enumerate_flows(args.n, args.g, args.k_max)
    human_mode = _resolved_format(args) == "human"
    for counts in vectors:
        k = counts[0] + counts[args.n] - 2
        if human_mode:
            print(f"c = {list(counts)}  k = {k}")
        else:
            print(json.dumps({"c": list(counts), "k": k}))
    return 0


def _cmd_obstruction(args) -> int:
    result = obstruction_check(args.n, args.index, args.g)
    status = "Admissible" if result.admissible else "Forbidden"
    payload = {"n": args.n, "index": args.index, "g": args.g,
               "status": status, "reason": result.reason}
    _emit(args, payload, [f"{status}: {result.reason}"])
    return 0


def _check_oracle_dim(expr, max_dim: int) -> None:
    n = dimension(expr)
    if n > max_dim:
        raise ValueError(
            f"expression has dimension {n}, outside the constructible family "
            f"(limit {max_dim}); raise it with --max-dim if you really want this")


def _cmd_oracle(args) -> int:
    expr = parse_manifold(args.expr)
    _check_oracle_dim(expr, args.max_dim)
    group = simplicial_homology(triangulate(expr))
    _emit(args, _graded_json(group), _graded_lines(group, dimension(expr)))
    return 0


def _cmd_oracle_complex(args) -> int:
    complex_ = complex_from_json(_load_json_file(args.complex))
    group = simplicial_homology(complex_)
    _emit(args, _graded_json(group), _graded_lines(group, complex_.dim))
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
    expr = parse_manifold(args.expr)
    _check_oracle_dim(expr, args.max_dim)
    engine = homology(expr)
    oracle = simplicial_homology(triangulate(expr))
    rows = crosscheck_rows(engine, oracle, dimension(expr))
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
    _emit(args, {"expression": args.expr, "match": all_match, "degrees": rows}, human)
    return 0 if all_match else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "json"), default=None,
        help="output format; defaults to human on a terminal, json otherwise")

    parser = argparse.ArgumentParser(
        prog="flowtop",
        description="Homology of sphere expressions and combinatorial checks for "
                    "gradient-like flows without heteroclinic intersections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common],
                       help="graded integer homology of an expression")
    p.add_argument("expr", help="expression, e.g. 'S3 x S1 # S3 x S1' or 'Sng(4,2)'")
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("poincare", parents=[common],
                       help="Poincare polynomial of an expression")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_poincare)

    p = sub.add_parser("betti", parents=[common],
                       help="single Betti number of an expression")
    p.add_argument("expr")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_betti)

    p = sub.add_parser("check-flow", parents=[common],
                       help="validate a flow spec JSON file (exit 1 if inadmissible)")
    p.add_argument("spec", help="path to the flow spec JSON document")
    p.set_defaults(handler=_cmd_check_flow)

    p = sub.add_parser("enumerate", parents=[common],
                       help="admissible count vectors, one JSON object per line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("obstruction", parents=[common],
                       help="whether a saddle of the given Morse index can occur")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--g", type=int, default=0)
    p.set_defaults(handler=_cmd_obstruction)

    p = sub.add_parser("oracle", parents=[common],
                       help="triangulate an expression and compute homology from "
                            "Smith normal form")
    p.add_argument("expr")
    p.add_argument("--max-dim", dest="max_dim", type=int, default=DEFAULT_MAX_ORACLE_DIM)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("oracle-complex", parents=[common],
                       help="simplicial homology of an explicit complex JSON file")
    p.add_argument("complex", help="path to the complex JSON document")
    p.set_defaults(handler=_cmd_oracle_complex)

    p = sub.add_parser("crosscheck", parents=[common],
                       help="compare the closed-form engine with the simplicial "
                            "oracle (exit 1 on mismatch)")
    p.add_argument("expr")
    p.add_argument("--max-dim", dest="max_dim", type=int, default=DEFAULT_MAX_ORACLE_DIM)
    p.set_defaults(handler=_cmd_crosscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the result does not fit in memory", file=sys.stderr)
        return 2
    return status


def entry() -> None:
    raise SystemExit(main())
