"""flowtop benchmark: run one workload for a fixed time and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oracle-ladder --seed 1 --seconds 30 --trace 0

The run starts one worker process at a time (see ``worker.py``), each doing
one set-up and one pass over the workload's jobs, until the next pass would
overrun ``--seconds``.  Passes that were not set up enough times get extra
set-up-only workers, so ``setup_s`` is always a median of several.  With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics come
from the traced ones and ``trace.overhead_s`` from the difference.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the environment and every pass, is written to
``perfbench/out/``, and the spans of each traced pass next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402
from workloads import LADDER, WORKLOADS  # noqa: E402

# A run must end within 180 s; leave room to report.
RUN_LIMIT_S = 165.0
SETUPS_PER_RUN = 5

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "queries_per_s": "1/s", "query_p50_us": "us", "query_p99_us": "us",
}


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": _git_commit()}


def run_worker(workload: str, seed: int, traced: bool, setup_only: bool,
               budget_s: float, spans_file: Path | None) -> dict:
    """One worker process, waited for; a worker that dies fails all its jobs."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--cpu-cap-s", str(max(1, int(budget_s) - 5))]
    if setup_only:
        cmd.append("--setup-only")
    if spans_file is not None:
        cmd += ["--spans-file", str(spans_file)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, budget_s), env=env)
        stdout, stderr, why = proc.stdout, proc.stderr, f"exit {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        stderr, why = "", f"killed after {budget_s:.0f} s"
    events = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    done = [e for e in events if e.get("event") == "done"]
    if done:
        return done[-1]
    ready = [e for e in events if e.get("event") == "ready"]
    jobs = ready[-1]["jobs"] if ready else 1     # a set-up that died counts as one job
    tail = stderr.strip().splitlines()[-3:]
    return {"event": "died", "traced": traced, "setup_only": setup_only, "jobs": jobs,
            "failed": jobs, "errors": [f"worker {why}: {' | '.join(tail)}"]}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarise(passes: list[dict]) -> dict:
    measured = [p for p in passes if p["event"] == "done" and not p["setup_only"]]
    untraced = [p for p in measured if not p["traced"]]
    traced = [p for p in measured if p["traced"]]
    setups = [p["setup_s"] for p in passes if p["event"] == "done" and not p["traced"]]
    # A set-up-only worker is one attempted job, failed if the worker died.
    setup_only = [p for p in passes if p["setup_only"]]
    full = [p for p in passes if not p["setup_only"]]
    attempted = (sum(p["jobs"] for p in full) + len(setup_only)) or 1
    failed = (sum(p.get("failed", 0) for p in full)
              + sum(p["event"] == "died" for p in setup_only))
    latencies = [x for p in untraced for x in p["latencies_s"]]
    summary = {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
               "passes": len(untraced), "traced_passes": len(traced), "setups": len(setups),
               "latency_samples": len(latencies)}
    total_wall = sum(p["wall_s"] for p in untraced)
    kinds = sorted({k for p in untraced for k in p["kind_s"]})
    summary["kind_share"] = {k: sum(p["kind_s"].get(k, 0.0) for p in untraced) / total_wall
                             for k in kinds} if total_wall else {}
    metrics = dict.fromkeys(END_TO_END_UNITS, 0.0)
    if untraced and latencies:
        metrics.update({
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "queries_per_s": (sum(len(p["latencies_s"]) for p in untraced)
                              / sum(p["wall_s"] for p in untraced)),
            "query_p50_us": statistics.median(latencies) * 1e6,
            "query_p99_us": percentile(latencies, 0.99) * 1e6,
        })
    summary["end_to_end"] = metrics
    summary["raw"] = {key: statistics.median(p[key] for p in untraced) if untraced else 0.0
                      for key in ("wall_raw_s", "cpu_raw_s", "speed_factor")}
    layers = dict.fromkeys(PER_LAYER, 0.0)
    if traced:
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                layers[name] = statistics.median(p["layers"][name] for p in traced)
        if untraced:
            layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                          - metrics["wall_s"])
    summary["per_layer"] = layers
    summary["errors"] = [e for p in passes for e in p.get("errors", [])][:10]
    return summary


def _baseline_table(traced: list[dict]) -> list[str]:
    rows: dict[str, list[dict]] = {}
    for p in traced:
        for row in p.get("baseline", []):
            rows.setdefault(row["job"], []).append(row)
    order = [t.text for t in LADDER if t.text in rows]
    lines = ["| expression | cells per degree | triangulate | boundary build | dense SNF |",
             "|---|---|---|---|---|"]
    for job in order:
        cells = "/".join(str(c) for c in rows[job][0]["cells"])
        med = {k: statistics.median(r[k] for r in rows[job])
               for k in ("triangulate_s", "boundary_s", "snf_s")}
        lines.append(f"| `{job}` | {cells} | {med['triangulate_s']:.3f} s "
                     f"| {med['boundary_s']:.3f} s | {med['snf_s']:.3f} s |")
    return lines


def report(args, env: dict, summary: dict, passes: list[dict]) -> list[str]:
    lines = [f"flowtop benchmark  workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             f"environment  python={env['python']} nproc={env['nproc']} "
             f"machine={env['machine']} commit={env['commit']}",
             f"passes  untraced={summary['passes']} traced={summary['traced_passes']} "
             f"setups={summary['setups']}",
             "times are reference seconds (see perfbench/README.md); raw medians: "
             f"wall {summary['raw']['wall_raw_s']:.4f} s, cpu {summary['raw']['cpu_raw_s']:.4f} s, "
             f"speed factor {summary['raw']['speed_factor']:.4f}"]
    for name, unit in END_TO_END_UNITS.items():
        value = summary["end_to_end"][name]
        note = f"  (n={summary['latency_samples']} samples)" if name.startswith("query_p") else ""
        lines.append(f"  {name:<16} {value:>16.6f} {unit}{note}")
    lines.append(f"  {'fail_frac':<16} {summary['fail_frac']:>16.6f} "
                 f"failed/attempted ({summary['failed']}/{summary['attempted']})")
    lines.append("share of untraced pass time by query kind:  " + "  ".join(
        f"{kind} {share:.3f}" for kind, share in summary["kind_share"].items()))
    if args.trace:
        lines.append("per-layer (traced passes, medians):")
        lines += [f"  {name:<36} {value:.6g}" for name, value in summary["per_layer"].items()]
        traced = [p for p in passes if p.get("traced") and p["event"] == "done"]
        if args.workload == "oracle-ladder":
            lines.append("baseline table (reference seconds):")
            lines += _baseline_table(traced)
    for error in summary["errors"]:
        lines.append(f"FAILED {error}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="flowtop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "flowtop" / "__init__.py").is_file():
        print(f"error: no flowtop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = perf_counter()
    passes: list[dict] = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans_file = OUT / f"spans-{tag}-pass{len(passes)}.json" if traced else None
        t0 = perf_counter()
        passes.append(run_worker(args.workload, args.seed, traced, False,
                                 RUN_LIMIT_S - (t0 - start), spans_file))
        longest = max(longest, perf_counter() - t0)
        elapsed = perf_counter() - start
        need_traced = bool(args.trace) and len(passes) < 2
        if elapsed + longest > RUN_LIMIT_S or passes[-1]["event"] == "died":
            break
        if not need_traced and elapsed + longest > args.seconds:
            break
    while (sum(1 for p in passes if p["event"] == "done" and not p["traced"]) < SETUPS_PER_RUN
           and perf_counter() - start < RUN_LIMIT_S - 10):
        passes.append(run_worker(args.workload, args.seed, False, True,
                                 RUN_LIMIT_S - (perf_counter() - start), None))
        if passes[-1]["event"] == "died":
            break

    env = environment()
    summary = summarise(passes)
    for line in report(args, env, summary, passes):
        print(line)
    kept = [{k: v for k, v in p.items() if k != "latencies_s"} for p in passes]
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"environment": env, "summary": summary, "passes": kept}, indent=1),
        encoding="utf-8")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in summary["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in summary["end_to_end"].items()}
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("cells_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
