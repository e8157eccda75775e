"""dpcolor benchmark: one closed-loop client running a fixed job list.

Usage, from the repository root:

    python3 benchmarks/run.py --workload theorem --seed 1 --seconds 15 --trace 0

Workloads: theorem, audit, gen, search (see NOTES.md).  One client runs
the workload's jobs in order, each starting when the previous one ends,
calling ``dpcolor`` in-process from the ``src`` tree next to this
directory.  A pass is one run of the whole list.

``--trace 0`` makes as many untraced passes as fit ``--seconds`` on the
seed machine and reports the end-to-end metrics, from each job's median
time over the passes, rescaled by a reference loop timed before every
job (see NOTES.md).  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics; the traced pass wraps the
public functions of every ``dpcolor`` layer (see ``tracer.py``).
``--smoke`` keeps only the smallest rungs of each workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job fails when
it raises, runs past its budget or returns an answer that fails its
check (an unexpected exit code included); a failed job is charged its
full budget in every timing metric.  ``correct`` is false when some job
returned a wrong answer, or when the traced and untraced passes disagree
on a job's verdict.  The full breakdown is written to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 3
# Timings are rescaled to the speed at which reference_work() takes this
# long; on the seed machine (2-core x86 VM, Python 3.11.7) its median over a
# pass ranged from 0.35 to 1.7 ms as the host's load changed.  See
# speed_scale().
REFERENCE_S = 0.0005
# A job still running after this many times its budget, in wall seconds, is
# stopped; the budget itself is checked against the rescaled time.
ALARM_FACTOR = 4

END_TO_END_UNITS = {
    "nm_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "verified_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}
# Per-function metrics listed in BENCHMARK.json; results/ has every function.
REPORTED_FUNCTIONS = (
    "cli.main", "cli.build_parser",
    "graphs.build_graph", "graphs.induced_subgraph", "graphs.normalize_vertex_set",
    "graphs.list_cycles", "graphs.has_forbidden_cycles", "graphs.has_cycle_of_length",
    "embedding.trace_faces", "embedding.pendant_3faces",
    "covers.validate_cover", "covers.random_cover", "covers.enumerate_perfect_covers",
    "solver.impropriety", "solver.find_rep_set", "solver.brute_force_rep_set",
    "reduction.restrict", "reduction.residual", "reduction.merge",
    "reduction.find_reducible_config", "reduction.color_planar_no46",
    "reduction.verify_config_reducible",
    "discharging.apply_rules", "discharging.audit_cases",
    "discharging.ChargeLedger.incoming", "discharging.ChargeLedger.outgoing",
    "generate.generate_plane_no46",
    "fileio.plane_from_text", "fileio.trace_to_text", "fileio.cover_from_text",
    "fileio.audit_to_json_text",
)
OUTPUT_COUNTS = (
    "reduction.steps.low_vertex", "reduction.steps.adjacent_threes",
    "reduction.steps.four_three_threes", "discharging.transfers",
    "discharging.entries.pass", "discharging.entries.fail",
    "discharging.entries.out_of_analysis",
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


class JobTimeout(BaseException):
    """Raised into a job that outlives its budget (not an ``Exception``, so
    the command line's own error handling cannot swallow it)."""


@dataclass
class JobResult:
    name: str
    seconds: float
    kind: str | None  # None, "error" or "wrong"
    budget_s: float  # at the reference speed
    reference_s: float = 0.0  # median of reference_work() timed around the job
    message: str = ""
    nm: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    deferred: str | None = None

    @property
    def ok(self) -> bool:
        return self.kind is None


def load_program():
    """Import ``dpcolor`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dpcolor" / "__init__.py").is_file():
        raise BenchError(f"no dpcolor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dpcolor

    if Path(dpcolor.__file__).resolve().parent != (SRC / "dpcolor").resolve():
        raise BenchError(f"dpcolor was imported from {dpcolor.__file__}, not {SRC}")
    import tracer
    import workloads

    return workloads, tracer


# The reference's working set, allocated when this file loads, before
# dpcolor is imported.  reference_work() allocates nothing, so heap growth,
# allocator state or caches that the program leaves behind cannot enter it.
_REFERENCE_KEYS = [(i % 97, i % 89) for i in range(1000)]
_REFERENCE_TABLE = dict.fromkeys(_REFERENCE_KEYS, 0)


def reference_work() -> None:
    """Fixed pure-Python work with the library's kind of dict and tuple traffic."""
    table = _REFERENCE_TABLE
    for _ in range(4):
        for key in _REFERENCE_KEYS:
            table[key] = (table[key] + 1) & 127


def time_reference() -> float:
    """One timing of reference_work() with a warm cache and the collector off."""
    gc.disable()
    try:
        reference_work()  # brings the working set back into the cache
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_job(job, tracer=None) -> JobResult:
    """Run one job; check it after the timed span.

    The job is stopped after ALARM_FACTOR times its budget in wall
    seconds; ``run_pass`` checks the budget itself on the rescaled time.
    """
    budget_s = job.budget_s
    around = [time_reference(), time_reference()]
    captured = io.StringIO()
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            armed[0] = False
            raise JobTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    error = None
    value = None
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            signal.setitimer(signal.ITIMER_REAL, ALARM_FACTOR * budget_s)
            start = time.perf_counter()
            try:
                value = job.call()
            except JobTimeout:
                error = f"stopped after {ALARM_FACTOR * budget_s:.3g} s, over its budget"
            except SystemExit as exc:  # argparse refusing an argument: checked as an exit code
                value = exc.code
            except Exception as exc:  # a crash is a failed job, not a harness error
                error = f"{type(exc).__name__}: {exc}"[:300]
            finally:
                seconds = time.perf_counter() - start
                armed[0] = False
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
        if tracer is not None:
            tracer.stack.clear()
    around += [time_reference(), time_reference()]
    reference_s = statistics.median(around)
    if error is not None:
        return JobResult(job.name, seconds, "error", budget_s, reference_s, error)
    try:
        outcome = job.check(value, captured.getvalue())
    except Exception as exc:  # unreadable output is a wrong answer
        return JobResult(job.name, seconds, "wrong", budget_s, reference_s,
                         f"check raised {type(exc).__name__}: {exc}")
    nm = outcome.nm if outcome.nm is not None else job.nm
    return JobResult(job.name, seconds, outcome.kind, budget_s, reference_s, outcome.message,
                     nm, outcome.counts, outcome.deferred)


def run_pass(workload, tracer=None) -> list[JobResult]:
    """Run every job once; a job whose rescaled time exceeds its budget fails."""
    results = [run_job(job, tracer) for job in workload.jobs]
    scale = speed_scale(results)
    for r in results:
        if r.ok and r.seconds * scale > r.budget_s:
            r.kind, r.message = "error", f"over its {r.budget_s:.3g} s budget"
    return results


def finish_checks(workload, passes: list[list[JobResult]]) -> None:
    """Apply the checks deferred past the timed passes (networkx on ``gen``)."""
    bad = workload.deferred_checks()
    for results in passes:
        for r in results:
            if r.ok and r.deferred in bad:
                r.kind, r.message = "wrong", bad[r.deferred]


def speed_scale(results: list[JobResult]) -> float:
    """REFERENCE_S over the median reference time of one pass.

    On the 2-core VM this was built on, the same code ran up to three
    times slower for stretches of seconds to minutes.  The reference,
    timed around every job in the same process, slows with it, so
    multiplying a pass's times by this factor takes most of that out.
    Rescaling each job by its own reference times did worse: they are
    point samples of a speed that flips within seconds.
    """
    return REFERENCE_S / statistics.median(r.reference_s for r in results)


def job_times(passes: list[list[JobResult]], scaled: bool = True) -> list[float]:
    """Each job's median time over the passes, rescaled unless ``scaled``
    is false; a job that failed in any pass is charged its budget."""
    scales = [speed_scale(p) if scaled else 1.0 for p in passes]
    return [statistics.median(r.seconds * k for r, k in zip(runs, scales))
            if all(r.ok for r in runs) else runs[0].budget_s
            for runs in zip(*passes)]


def end_to_end(passes: list[list[JobResult]], scaled: bool = True) -> dict[str, float]:
    times = job_times(passes, scaled)
    jobs = list(zip(*passes))
    nm = sum(runs[0].nm for runs in jobs if all(r.ok for r in runs))
    ok = sum(r.ok for runs in jobs for r in runs)
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "nm_per_s": nm / sum(times),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_p90_ms": 1000 * cuts[89],
        "verified_share": ok / sum(len(p) for p in passes),
    }


def doubling_ratios(workload, passes: list[list[JobResult]]) -> dict[str, float]:
    """Per ladder family: mean job time at the largest rung whose jobs all
    verified, over the same at the rung below it."""
    rungs: dict[str, dict[int, list[tuple[bool, float]]]] = {}
    times = job_times(passes)
    for job, runs, seconds in zip(workload.jobs, zip(*passes), times):
        if job.family is not None:
            rungs.setdefault(job.family, {}).setdefault(job.rung, []).append(
                (all(r.ok for r in runs), seconds))
    out = {}
    for family, by_rung in rungs.items():
        sizes = sorted(by_rung)
        good = [i for i, n in enumerate(sizes) if all(ok for ok, _ in by_rung[n])]
        tops = [i for i in good if i - 1 in good]
        if tops:
            top, below = sizes[tops[-1]], sizes[tops[-1] - 1]
            out[family] = (statistics.mean(t for _, t in by_rung[top])
                           / statistics.mean(t for _, t in by_rung[below]))
    return out


def per_layer(workload, tracer, untraced: list[JobResult], traced: list[JobResult]) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    for name in REPORTED_FUNCTIONS:
        stat = tracer.stats.get(name)
        calls, self_s, failed = (stat.calls, stat.self_s, stat.failed) if stat else (0, 0.0, 0)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.failed"] = (failed, "count")
    enum = tracer.stats.get("covers.enumerate_perfect_covers")
    metrics["covers.enumerate_perfect_covers.yields"] = (enum.yields if enum else 0, "count")
    for layer, self_s in tracer.layer_self().items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    totals: dict[str, int] = {}
    for r in traced:
        for key, value in r.counts.items():
            totals[key] = totals.get(key, 0) + value
    for key in OUTPUT_COUNTS:
        metrics[key] = (totals.get(key, 0), "count")
    outcomes = tracer.stats["solver.find_rep_set"].outcomes
    metrics["solver.find_rep_set.sat"] = (outcomes.get("sat", 0), "count")
    metrics["solver.find_rep_set.unsat"] = (outcomes.get("unsat", 0), "count")
    ratios = doubling_ratios(workload, [untraced])
    metrics["ladder.doubling_ratio"] = (statistics.median(ratios.values()) if ratios else 0.0,
                                        "ratio")
    # Wall times as measured: each pass's rescaling rests on its own noisy
    # reference median, which would swamp an overhead of a few percent.
    untraced_wall = sum(r.seconds for r in untraced)
    traced_wall = sum(r.seconds for r in traced)
    metrics["trace.overhead_share"] = (traced_wall / untraced_wall - 1, "ratio")
    return metrics


def measure_setup(args, probes: int) -> float:
    """Median wall time of fresh interpreters that import, load and warm up.

    Each probe then times the reference itself, in its own process, and
    its wall time, less that block, is rescaled by it like a pass.
    """
    samples = []
    for _ in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe"] + (["--smoke"] if args.smoke else [])
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        reference_s, block_s = json.loads(done.stdout.splitlines()[-1])
        samples.append((wall - block_s) * REFERENCE_S / reference_s)
    return statistics.median(samples)


def probe(args, workloads) -> None:
    """The body of a setup probe: prepare, then time the reference."""
    workload = prepare(args, workloads)
    shutil.rmtree(workload.workdir, ignore_errors=True)
    start = time.perf_counter()
    reference_s = statistics.median(time_reference() for _ in range(15))
    print(json.dumps([reference_s, time.perf_counter() - start]))


def prepare(args, workloads):
    """Import is done; load the frozen inputs, write job inputs, warm up."""
    instances = json.loads((HERE / "instances.json").read_text())
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.Workload(args.workload, instances, args.seed, workdir, args.smoke)
    for job in workload.jobs:
        if job.smoke:
            run_job(job)
    return workload


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="only the smallest rungs")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "optimize": sys.flags.optimize,
        "nproc": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        raise BenchError("refusing to run under -O or PYTHONOPTIMIZE: the library's "
                         "asserts do real work and would be skipped")
    workloads, tracer_mod = load_program()
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        probe(args, workloads)
        return 0

    setup_s = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    workload = prepare(args, workloads)
    try:
        return report(args, workload, tracer_mod, setup_s)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)


def report(args, workload, tracer_mod, setup_s: float) -> int:
    tracer = None
    if args.trace == 0:
        # The same number of passes on every commit, whatever its speed.
        count = max(MIN_PASSES, round(args.seconds / workload.pass_s))
        passes = [run_pass(workload) for _ in range(count)]
    else:
        untraced = run_pass(workload)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, tracer)
        finally:
            tracer.remove()
        passes = [untraced, traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finish_checks(workload, passes)

    results = [r for p in passes for r in p]
    failed = [r for r in results if not r.ok]
    correct = not any(r.kind == "wrong" for r in results)
    disagree = []
    if args.trace == 1:
        disagree = [a.name for a, b in zip(passes[0], passes[1]) if a.kind != b.kind]
        correct = correct and not disagree

    raw = {}
    if args.trace == 0:
        values = end_to_end(passes)
        raw = end_to_end(passes, scaled=False)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    else:
        metrics = per_layer(workload, tracer, passes[0], passes[1])

    env = environment()
    print(f"# dpcolor benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''} python={env['python']} optimize={env['optimize']}"
          f" nproc={env['nproc']} recursion_limit={env['recursion_limit']}")
    print(f"# {len(passes)} pass(es) of {len(workload.jobs)} jobs: {len(results)} samples, "
          f"{len(failed)} failed (failed_share {len(failed) / len(results):.4f}); "
          f"pass times rescaled to the reference speed by "
          + " ".join(f"{speed_scale(p):.3f}" for p in passes))
    for name in sorted({r.name for r in failed}):
        first = next(r for r in failed if r.name == name)
        count = sum(r.name == name for r in failed)
        print(f"# FAILED {name} x{count} [{first.kind}]: {first.message}")
    for name in disagree:
        print(f"# VERDICT MISMATCH between untraced and traced pass: {name}")
    ratios = doubling_ratios(workload, passes[:1] if args.trace else passes)
    if ratios:
        print("# doubling ratios: " + ", ".join(f"{k} {v:.2f}" for k, v in ratios.items()))
    for key, (value, unit) in metrics.items():
        if args.trace == 0 or not key.endswith((".calls", ".failed")):
            unscaled = f" (unscaled {raw[key]:.6g})" if key in raw else ""
            print(f"# {key} = {value:.6g} {unit}{unscaled}")

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": env, "passes": len(passes),
        "jobs_per_pass": len(workload.jobs),
        "budget_s": {j.name: j.budget_s for j in workload.jobs},
        "failed_share": len(failed) / len(results),
        "speed_scales": [speed_scale(p) for p in passes],
        "failures": [{"job": r.name, "kind": r.kind, "message": r.message} for r in failed],
        "doubling_ratios": ratios,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": raw,
        "job_seconds": {j.name: [p[i].seconds for p in passes]
                        for i, j in enumerate(workload.jobs)},
        "reference_seconds": [[r.reference_s for r in p] for p in passes],
    }
    if tracer is not None:
        detail["functions"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "failed": s.failed,
                   "yields": s.yields, "outcomes": s.outcomes}
            for name, s in sorted(tracer.stats.items()) if s.calls
        }
        detail["traced_wall_s"] = sum(r.seconds for r in passes[1])
        detail["untraced_wall_s"] = sum(r.seconds for r in passes[0])
        detail["self_total_s"] = tracer.self_total()
    suffix = "-smoke" if args.smoke else ""
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(f"# breakdown written to {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
