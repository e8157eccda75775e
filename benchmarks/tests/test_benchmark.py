"""Tests of the benchmark harness itself (smoke mode, small inputs).

Run from the repository root:  python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

workloads, tracer_mod = bench.load_program()
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_workload(name: str, tmp_path: Path):
    instances = json.loads((BENCH / "instances.json").read_text())
    return workloads.Workload(name, instances, 3, tmp_path, smoke=True)


@pytest.mark.parametrize("workload", ["theorem", "audit", "gen", "search"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tampered_output_counts_as_failed(tmp_path):
    workload = smoke_workload("theorem", tmp_path)
    job = workload.jobs[0]
    honest = job.call

    def tampered():
        rc = honest()
        doc = json.loads(Path(job.check.out).read_text())
        doc["colors"][0] = 7  # not in any list
        Path(job.check.out).write_text(json.dumps(doc))
        return rc

    clean = bench.run_pass(workload)
    assert all(r.ok for r in clean)
    job.call = tampered
    results = bench.run_pass(workload)
    assert [r.kind for r in results] == ["wrong"] + [None] * (len(results) - 1)
    assert bench.end_to_end([clean, results])["verified_share"] < 1


def test_refusing_a_valid_input_is_a_wrong_answer(tmp_path):
    workload = smoke_workload("theorem", tmp_path)
    job = workload.jobs[0]
    job.call = lambda: 2  # the exit code of a refused input
    assert bench.run_job(job).kind == "wrong"
    job.call = lambda: workloads.cli.main(["theorem", "--no-such-flag"])  # argparse exits 2
    assert bench.run_job(job).kind == "wrong"


def test_audit_ledger_tampering_is_caught(tmp_path):
    workload = smoke_workload("audit", tmp_path)
    job = next(j for j in workload.jobs if j.name == "audit:chain-7")
    honest = job.call

    def tampered():
        rc = honest()
        doc = json.loads(Path(job.check.out).read_text())
        doc["transfers"][0]["sixths"] += 6
        Path(job.check.out).write_text(json.dumps(doc))
        return rc

    job.call = tampered
    result = bench.run_job(job)
    assert result.kind == "wrong" and "transfers" in result.message


def test_a_crash_is_a_failure_charged_the_full_budget(monkeypatch):
    monkeypatch.setattr(bench, "time_reference", lambda: bench.REFERENCE_S)  # scale 1

    def crash():
        raise RecursionError("maximum recursion depth exceeded")

    def hang():
        time.sleep(2)

    def slow():
        time.sleep(0.4)

    def job(name, call):
        return workloads.Job(name, 10, call, lambda value, out: workloads.Outcome(),
                             budget_s=0.2)

    jobs = [job("crash", crash), job("hang", hang), job("slow", slow), job("fine", lambda: 0)]
    results = bench.run_pass(SimpleNamespace(jobs=jobs))
    assert [r.kind for r in results] == ["error", "error", "error", None]
    assert results[0].message.startswith("RecursionError")
    assert "stopped" in results[1].message and results[1].seconds < 1
    assert "over its" in results[2].message  # within the alarm, over the budget
    metrics = bench.end_to_end([results])
    assert metrics["verified_share"] == pytest.approx(1 / 4)
    assert metrics["job_p50_ms"] == pytest.approx(200)


def test_traced_self_times_add_up_to_the_traced_wall_time(tmp_path):
    import dpcolor.cli

    original_main = dpcolor.cli.main
    workload = smoke_workload("search", tmp_path)
    untraced = bench.run_pass(workload)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert dpcolor.cli.main is not original_main
        traced = bench.run_pass(workload, tracer=tracer)
    finally:
        tracer.remove()
    assert dpcolor.cli.main is original_main
    assert [r.kind for r in traced] == [r.kind for r in untraced] == [None] * len(traced)
    untraced_wall = sum(r.seconds for r in untraced)
    traced_wall = sum(r.seconds for r in traced)
    overhead = traced_wall / untraced_wall - 1
    self_total = tracer.self_total()
    assert self_total <= traced_wall
    assert traced_wall - self_total <= max(abs(overhead) * untraced_wall, 0.002)
    assert tracer.stats["cli.main"].calls == len(workload.jobs)
    assert sum(tracer.layer_self().values()) == pytest.approx(self_total)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "benchmarks" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "theorem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_refuses_to_run_optimized():
    done = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0 and "-O" in done.stderr
    assert done.stdout == ""
