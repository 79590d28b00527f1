"""Tests of the benchmark itself: span arithmetic, answer checks, tiny passes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402

ft = worker.load_flowtop()


def test_self_time_subtracts_children_once():
    nested = [
        Span("cli.main", None, 0.0, 10.0),
        Span("simplicial.simplicial_homology", 0, 1.0, 4.0),
        Span("snf.smith_diagonal", 1, 2.0, 3.0),
        Span("expressions.parse_manifold", 0, 5.0, 6.0),
        # overlaps its sibling and runs past its parent: covered once, clipped
        Span("homology.homology", 0, 5.5, 11.0),
    ]
    assert self_times(nested) == pytest.approx([10 - 3 - 5, 2.0, 1.0, 1.0, 5.5])


def test_layer_metrics_from_synthetic_spans():
    class Matrix:
        shape = (3, 4)

    tracer = spans.Tracer()
    smith = tracer.wrap("snf.smith_diagonal", lambda m: [1, 1, 2])
    oracle = tracer.wrap("simplicial.simplicial_homology", lambda m: smith(m))
    oracle(Matrix())
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["snf.calls"] == 1
    assert (metrics["snf.rank"], metrics["snf.unit_factors"], metrics["snf.nonunit_factors"]) \
        == (3, 2, 1)
    assert (metrics["snf.max_rows"], metrics["snf.max_cols"]) == (3, 4)
    assert metrics["simplicial.homology_s"] == pytest.approx(
        metrics["simplicial.homology_self_s"] + metrics["snf.diagonal_s"])


def test_kunneth_with_tor_gives_the_torsion_of_rp2_products():
    assert workloads.kunneth(workloads.RP2, workloads.RP2) == [
        (1, []), (0, [2, 2]), (0, [2]), (0, [2]), (0, [])]
    assert workloads.invariant_factors([2, 4, 3]) == [2, 12]


def test_failed_jobs_are_counted():
    def job(label, run, answer):
        return workloads.Job(label, run, lambda r: None if r == answer else "wrong", "test")

    def out_of_memory(lib):
        raise MemoryError

    jobs = [job("right", lambda lib: 1, 1), job("wrong", lambda lib: 2, 1),
            job("raises", lambda lib: 1 // 0, 1), job("memory", out_of_memory, 1)]
    clock = worker.SpeedClock()
    ran = worker._run_jobs(jobs, None, clock)
    assert ran["failed"] == 3
    assert [e.split(":")[0] for e in ran["errors"]] == ["wrong", "raises", "memory"]


def _worker(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-c", code] if code else [sys.executable, str(BENCH / "worker.py")]
    return subprocess.run([*cmd, *args], cwd=BENCH, capture_output=True, text=True,
                          timeout=120)


def test_memory_cap_fails_the_job_not_the_worker():
    # A 4 GiB list is refused outright under the 2 GiB cap; nothing is touched.
    code = """if True:
        import json, worker, workloads
        worker.set_caps(30)
        jobs = [workloads.Job("huge", lambda lib: [0] * (1 << 29), lambda r: None, "test"),
                workloads.Job("small", lambda lib: 1, lambda r: None, "test")]
        ran = worker._run_jobs(jobs, None, worker.SpeedClock())
        print(json.dumps([ran["failed"], ran["errors"]]))
    """
    proc = _worker(code=code)
    failed, errors = json.loads(proc.stdout)
    assert failed == 1 and "memory cap" in errors[0]


def test_cpu_cap_fails_the_running_job_and_the_rest():
    proc = _worker("--workload", "oracle-ladder", "--seed", "1", "--cpu-cap-s", "1")
    assert proc.returncode == 0, proc.stderr
    done = json.loads(proc.stdout.splitlines()[-1])
    assert done["failed"] > 0 and "CPU cap" in done["errors"][-1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_at_tiny_size(name, tmp_path):
    result = worker.run_pass(name, seed=7, tiny=True, workdir=tmp_path)
    assert result["jobs"] > 0
    assert result["failed"] == 0, result["errors"]
    assert result["wall_s"] > 0 and len(result["latencies_s"]) == result["jobs"]


def test_traced_passes_cover_every_layer_and_restore_the_program(tmp_path):
    original = ft.cli.simplicial_homology
    layers = set()
    for name in sorted(workloads.WORKLOADS):
        result = worker.run_pass(name, seed=7, traced=True, tiny=True, workdir=tmp_path)
        assert result["failed"] == 0, result["errors"]
        layers |= {s.name.split(".")[0] for s in result["spans"]}
        assert set(result["layers"]) == set(spans.PER_LAYER) - {"trace.overhead_s"}
    assert layers == {"cli", "expressions", "homology", "flows", "simplicial", "snf"}
    assert ft.cli.simplicial_homology is original


def test_baseline_rows_split_each_crosscheck(tmp_path):
    result = worker.run_pass("oracle-ladder", seed=1, traced=True, tiny=True, workdir=tmp_path)
    rows = {row["job"]: row for row in result["baseline"]}
    assert set(rows) == {t.text for t in workloads.LADDER_TINY}
    row = rows["Sng(3,2)"]
    assert sum((-1) ** d * c for d, c in enumerate(row["cells"])) == 0
    assert 0 < row["snf_s"] < row["wall_s"]


def test_dropped_torsion_makes_oracle_torsion_fail(monkeypatch, tmp_path):
    real = ft.cli.simplicial_homology

    def torsion_dropped(K):
        return ft.GradedGroup(real(K).ranks)

    monkeypatch.setattr(ft.cli, "simplicial_homology", torsion_dropped)
    result = worker.run_pass("oracle-torsion", seed=3, tiny=True, workdir=tmp_path)
    assert result["failed"] / result["jobs"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == spans.PER_LAYER
    assert [m["unit"] for m in spec["per_layer"]] == [run.layer_unit(n) for n in spans.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_engine_queries_mix_is_equal_per_kind(tmp_path):
    jobs = workloads.setup_engine_queries(ft, 5, tmp_path, tiny=False)
    counts = {kind: sum(job.kind == kind for job in jobs) for kind in workloads.ENGINE_KINDS}
    assert set(counts.values()) == {495}
    assert sum(job.kind == "enumerate" for job in jobs) == 20


def test_set_up_only_failures_stay_within_attempted():
    import run

    full = {"event": "done", "traced": False, "setup_only": False, "jobs": 3, "failed": 1,
            "setup_s": 0.1, "wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 10.0,
            "wall_raw_s": 2.0, "cpu_raw_s": 2.0, "speed_factor": 1.0,
            "latencies_s": [0.5, 0.5], "kind_s": {"a": 0.5, "b": 0.5}}
    died = {"event": "died", "traced": False, "setup_only": True, "jobs": 3, "failed": 3}
    summary = run.summarise([full, died, died])
    assert (summary["failed"], summary["attempted"]) == (3, 5)
    assert summary["kind_share"] == {"a": 0.25, "b": 0.25}
