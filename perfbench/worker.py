"""One pass of one workload, in a fresh single-threaded process.

The worker caps its own address space and CPU time, imports flowtop from
the checkout's ``src``, builds the workload's inputs from the seed (this is
the set-up that ``setup_s`` measures), runs every job once, checks every
answer, and prints its measurements as the last line of standard output.

A fresh process starts flowtop's caches cold, as every CLI invocation does.

Run by ``run.py``; by hand::

    python3 perfbench/worker.py --workload oracle-torsion --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from clock import SpeedClock  # noqa: E402
from spans import Tracer, baseline_rows, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MEMORY_CAP_BYTES = 2 << 30
ERRORS_KEPT = 5
BOUNDARY_SAMPLES_MAX_JOBS = 100


class CapReached(BaseException):
    """Raised from the SIGXCPU handler; a BaseException so no job swallows it."""


def _on_cpu_cap(signum, frame):
    signal.signal(signal.SIGXCPU, signal.SIG_IGN)
    raise CapReached("the worker's CPU cap was reached")


def set_caps(cpu_seconds: int) -> None:
    """Cap this process: a job past the cap fails instead of taking the box down."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    signal.signal(signal.SIGXCPU, _on_cpu_cap)
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds + 5))


def load_flowtop():
    """Import flowtop from this checkout's ``src``, never from site-packages."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flowtop
    import flowtop.cli

    if Path(flowtop.__file__).resolve().parent != SRC / "flowtop":
        raise RuntimeError(f"imported flowtop from {flowtop.__file__}, not from {SRC}")
    return flowtop


def make_lib(ft, tracer: Tracer | None) -> SimpleNamespace:
    """The entry points the jobs call, wrapped at this call site when traced."""
    entries = {
        "cli_main": (ft.cli.main, "cli.main"),
        "parse_manifold": (ft.parse_manifold, "expressions.parse_manifold"),
        "homology": (ft.homology, "homology.homology"),
        "poincare_polynomial": (ft.poincare_polynomial, "homology.poincare_polynomial"),
        "betti": (ft.betti, "homology.betti"),
        "triangulate": (ft.triangulate, "simplicial.triangulate"),
        "validate_flow": (ft.validate_flow, "flows.validate_flow"),
        "obstruction_check": (ft.obstruction_check, "flows.obstruction_check"),
        "enumerate_flows": (ft.enumerate_flows, "flows.enumerate_flows"),
    }
    return SimpleNamespace(**{
        key: tracer.wrap(name, fn) if tracer else fn for key, (fn, name) in entries.items()})


def repeat_share(jobs) -> float:
    """Share of flow queries whose (n, g) came up earlier in the pass."""
    seen: set[tuple[int, int]] = set()
    repeats = total = 0
    for job in jobs:
        if job.flow_key is not None:
            total += 1
            repeats += job.flow_key in seen
            seen.add(job.flow_key)
    return repeats / total if total else 0.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """The peak RSS of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def _run_jobs(jobs, lib, clock: SpeedClock) -> dict:
    intervals: list[tuple[float, float]] = []
    kinds: list[str] = []
    errors: list[str] = []
    failed = 0
    # A few long jobs get a speed sample on each side; thousands of short
    # ones share the timer's samples.
    at_boundaries = len(jobs) <= BOUNDARY_SAMPLES_MAX_JOBS
    wall0, cpu0, children0 = clock.now(), clock.cpu(), _children_cpu()
    for pos, job in enumerate(jobs):
        try:
            if at_boundaries:
                clock.sample()
            start = clock.now()
            try:
                result = job.run(lib)
            except MemoryError:
                message = "hit the worker's memory cap"
            except Exception as exc:  # a raising job is a failed job; keep going
                message = f"raised {exc!r}"
            else:
                intervals.append((start, clock.now()))
                kinds.append(job.kind)
                if at_boundaries:
                    clock.sample()
                try:
                    message = job.check(result)
                except Exception as exc:
                    message = f"answer could not be checked: {exc!r}"
        except CapReached as exc:
            remaining = len(jobs) - pos
            failed += remaining
            errors.append(f"{job.label}: {exc} ({remaining} jobs not finished)")
            break
        if message:
            failed += 1
            errors.append(f"{job.label}: {message}")
    wall1, cpu1, children1 = clock.now(), clock.cpu(), _children_cpu()
    return {"intervals": intervals, "kinds": kinds, "errors": errors, "failed": failed,
            "wall": (wall0, wall1), "cpu_raw_s": cpu1 - cpu0 + children1 - children0}


def _scale_layers(metrics: dict, factor: float) -> dict:
    """Layer times into reference seconds (the rate cells_per_s scales inversely)."""
    out = {}
    for name, value in metrics.items():
        if name == "simplicial.cells_per_s":
            value = value / factor
        elif name.endswith("_s"):
            value = value * factor
        out[name] = value
    return out


def run_pass(workload: str, seed: int, *, traced: bool = False, tiny: bool = False,
             setup_only: bool = False, workdir: Path | None = None,
             clock: SpeedClock | None = None, emit=None) -> dict:
    """Set up and run one pass in this process; returns its measurements.

    ``emit`` receives a small dict as soon as set-up is done, so a caller
    can tell how many jobs a pass had even if the pass dies later.
    """
    own_clock = clock is None
    if own_clock:
        clock = SpeedClock()
        clock.start()
    setup0 = clock.now()
    workdir = workdir or HERE / "out" / f"work-{os.getpid()}"
    try:
        ft = load_flowtop()
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = WORKLOADS[workload](ft, seed, workdir, tiny)
        tracer = Tracer(clock.now) if traced else None
        lib = make_lib(ft, tracer)
        setup1 = clock.now()
        if emit:
            emit({"event": "ready", "jobs": len(jobs)})
        if setup_only:
            ran = None
        else:
            with install(tracer) if tracer else contextlib.nullcontext():
                ran = _run_jobs(jobs, lib, clock)
    finally:
        if own_clock:
            clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    setup_factor = clock.factor(setup0, setup1)
    out = {
        "event": "done", "workload": workload, "seed": seed, "traced": traced,
        "setup_only": setup_only,
        "setup_s": (setup1 - setup0) * setup_factor, "setup_raw_s": setup1 - setup0,
        "jobs": 0 if setup_only else len(jobs),
        "peak_rss_mb": _peak_rss_mb(),
        "speed_samples": clock.samples,
    }
    if ran is None:
        return out
    wall0, wall1 = ran["wall"]
    factor = clock.factor(wall0, wall1)
    out.update({
        "failed": ran["failed"], "errors": ran["errors"][:ERRORS_KEPT],
        "speed_factor": factor,
        "wall_s": (wall1 - wall0) * factor, "wall_raw_s": wall1 - wall0,
        "cpu_s": ran["cpu_raw_s"] * factor, "cpu_raw_s": ran["cpu_raw_s"],
        "latencies_s": [(e - s) * clock.factor(s, e) for s, e in ran["intervals"]],
    })
    kind_s: dict[str, float] = {}
    for kind, latency in zip(ran["kinds"], out["latencies_s"]):
        kind_s[kind] = kind_s.get(kind, 0.0) + latency
    out["kind_s"] = kind_s
    if tracer:
        layers = layer_metrics(tracer.spans)
        layers["flows.repeat_share"] = repeat_share(jobs)
        out["layers"] = _scale_layers(layers, factor)
        out["baseline"] = [
            {**row, **{k: row[k] * factor for k in row if k.endswith("_s")}}
            for row in baseline_rows(tracer.spans)]
        out["spans"] = tracer.spans
    return out


def _spans_json(spans) -> list[dict]:
    return [{"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "attrs": s.attrs} for i, s in enumerate(spans)]


def main(argv: list[str] | None = None) -> int:
    clock = SpeedClock()
    clock.start()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu-cap-s", type=int, default=150)
    ap.add_argument("--spans-file", type=Path, default=None)
    args = ap.parse_args(argv)
    set_caps(args.cpu_cap_s)

    def emit(doc: dict) -> None:
        print(json.dumps(doc), flush=True)

    result = run_pass(args.workload, args.seed, traced=bool(args.trace),
                      setup_only=args.setup_only, clock=clock, emit=emit)
    clock.stop()
    spans = result.pop("spans", None)
    if spans is not None and args.spans_file:
        args.spans_file.write_text(json.dumps(_spans_json(spans)), encoding="utf-8")
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
