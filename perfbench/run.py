"""Benchmark of katoforms: time to a verified answer, end to end and per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload oracle-bounds --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one process, one thread, every job submitted
only after the previous one returned, as a caller waiting on the library or
the CLI.  The job list (one *pass*) is built from ``--seed``; passes are
repeated until ``--seconds`` are used up.  Every answer is checked against
its outcome known by construction, and every certificate is re-verified.
End-to-end times are in reference seconds: each is scaled by a pure-Python
calibration run just before and after it (``speed.py``), so that a slow
spell of a shared host does not read as a slower program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for a third of the time, then three traced passes, and prints the
per-layer metrics of the first traced pass (counts are exact and repeat for
a seed).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics being
those that ``BENCHMARK.json`` lists for the mode; the full result
(environment, digest, slowest job, every counter, the raw times) is written to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# setup_s: the run's own input set and SETUP_INPUTS - 1 more derived from the
# seed, each set up SETUP_REPEATS times; the cost of making the inputs varies
# with them (one member can take 40 times the usual), so one input set per
# run would make setup_s a draw of the seed
SETUP_INPUTS = 11
SETUP_REPEATS = 2
SELFTEST_SAMPLES = 11
MIN_PASSES = 3
TRACED_PASSES = 3
TAIL_BEYOND = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "katoforms" or k.startswith("katoforms.")}


def load_katoforms():
    """Fresh import of the package from the checkout's sources."""
    for name in package_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    kf = importlib.import_module("katoforms")
    importlib.import_module("katoforms.cli")
    return kf


def setup(workload: str, seed: int, part: int = 0):
    """Import, fields, specs and the job list; timed as setup_s.  Part 0 is
    the run's input set, other parts are input sets timed for setup_s only."""
    kf = load_katoforms()
    rng = random.Random(f"{workload}:{seed}" if part == 0 else f"{workload}:{seed}:{part}")
    # relative to the checkout root (the working directory), so that reports
    # and the digest do not depend on where the checkout lives
    return kf, jobs_mod.WORKLOADS[workload](kf, rng, OUT.relative_to(ROOT) / "work")


def setup_seconds(track, workload: str, seed: int, part: int) -> tuple[float, float]:
    """Time of one more setup, in reference and raw seconds; the package
    loaded before stays in use."""
    loaded = package_modules()
    gc.collect()
    elapsed, raw, _ = track.measure(lambda: setup(workload, seed, part))
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return elapsed, raw


class Pass(NamedTuple):
    wall_s: float  # raw, with calibrations and the work between jobs
    latencies: list[float]  # per job, reference seconds
    raw_latencies: list[float]  # per job, seconds
    texts: list[str]  # digest texts
    failed: int


def run_pass(jobs, track, on_job=None, after_job=None) -> Pass:
    """One closed-loop pass, calibrating between jobs (see speed.py);
    ``after_job()`` runs after each job, outside its timing."""
    marks, raw, texts, failed = [], [], [], 0
    clock = time.perf_counter
    start = clock()
    for index, job in enumerate(jobs):
        marks.append(track.mark())
        if on_job is not None:
            on_job(index)
        t0 = clock()
        try:
            out = job.call()
        except Exception as exc:  # a job that raises is a failed job
            out = exc
        raw.append(clock() - t0)
        if on_job is not None:
            on_job(-1)
        try:
            if isinstance(out, Exception):
                raise jobs_mod.Mismatch(f"raised {type(out).__name__}: {out}")
            texts.append(job.check(out))
        except Exception as exc:  # wrong answers, and checks that cannot read them
            failed += 1
            texts.append(f"FAILED {job.label}: {exc}")
            print(f"job {index} ({job.label}) failed: {exc}", file=sys.stderr)
        if after_job is not None:
            after_job()
    track.close()
    latencies = [track.scale(t, i) for t, i in zip(raw, marks)]
    return Pass(clock() - start, latencies, raw, texts, failed)


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with >= TAIL_BEYOND samples beyond it, and its rank."""
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    return pct, max(1, math.ceil(pct * n / 100))


def measure_passes(jobs, track, budget: float, between=None) -> list[Pass]:
    """Repeat passes while the next one fits in the budget, at least
    MIN_PASSES unless the budget is spent.  ``between(progress)``, with
    progress the share of the budget used so far, runs after each job,
    outside the job timings."""
    passes = []
    start = time.perf_counter()

    def after_job() -> None:
        between((time.perf_counter() - start) / budget)

    while True:
        passes.append(run_pass(jobs, track, after_job=after_job if between else None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if elapsed + typical > budget and (len(passes) >= MIN_PASSES or elapsed > budget):
            return passes


def job_latencies(passes, raw: bool = False) -> list[float]:
    """Latency of each job of the list: its median over the passes.  The
    fastest pass would be an extreme of the calibration's own noise, which
    moves from run to run."""
    per_pass = (p.raw_latencies if raw else p.latencies for p in passes)
    return [statistics.median(lat) for lat in zip(*per_pass)]


def digest_of(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def environment(kf, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "kernels": sys.modules["katoforms.kernels"].IMPL_NAME,
        "KATOFORMS_PURE": os.environ.get("KATOFORMS_PURE"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def selftest_once(kf, track) -> tuple[float, float, bool]:
    """Time of one `katoforms selftest` at its default seed, in reference and
    raw seconds, and whether every section passed."""
    elapsed, raw, (code, report) = track.measure(
        lambda: kf.cli.run(kf.cli.JobSpec("selftest", {})))
    sections = report.get("result", {}).get("sections", [])
    ok = code == 0 and bool(sections) and all(s["status"] == "pass" for s in sections)
    if not ok:
        print(f"selftest failed: {json.dumps(report, sort_keys=True)}", file=sys.stderr)
    return elapsed, raw, ok


def timing_metrics(latencies, setup_times, selftest_times, rank: int) -> dict:
    """The end-to-end times from per-job latencies, set-up and selftest
    samples (all in the same unit), each a median."""
    ordered = sorted(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(latencies), "s"),
        "job_ms_p50": (1000 * statistics.median(ordered), "ms"),
        "job_ms_tail": (1000 * ordered[rank - 1], "ms"),
        "selftest_s": (statistics.median(selftest_times), "s"),
    }


def timed_run(args, kf, jobs, track, setup_times) -> tuple[dict, dict]:
    selftests: list[tuple[float, float, bool]] = []
    # setup_times already holds the first set-up of part 0, made by main()
    setup_plan = list(range(SETUP_INPUTS)) * SETUP_REPEATS

    def between(progress: float) -> None:
        # spread the set-up and selftest samples evenly over the run, so
        # that a slow spell of the host does not hit all of them
        while len(setup_times) < min(len(setup_plan), len(setup_plan) * progress):
            part = setup_plan[len(setup_times)]
            setup_times.append(setup_seconds(track, args.workload, args.seed, part))
        while len(selftests) < min(SELFTEST_SAMPLES, SELFTEST_SAMPLES * progress):
            selftests.append(selftest_once(kf, track))

    passes = measure_passes(jobs, track, args.seconds, between)
    between(1.0)
    digests = {digest_of(p.texts) for p in passes}
    failed = sum(p.failed for p in passes) + sum(not ok for *_, ok in selftests)
    attempted = sum(len(p.latencies) for p in passes) + len(selftests)
    latencies = job_latencies(passes)
    pct, rank = tail_rank(len(jobs))
    slow_index = max(range(len(jobs)), key=latencies.__getitem__)
    slow_job = jobs[slow_index]
    metrics = timing_metrics(latencies, [t for t, _ in setup_times],
                             [t for t, _, _ in selftests], rank)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = timing_metrics(job_latencies(passes, raw=True), [r for _, r in setup_times],
                         [r for _, r, _ in selftests], rank)
    detail = {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "tail_percentile": pct,
        "tail_samples": len(jobs),
        "failed_frac": failed / attempted,
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "digest_stable": len(digests) == 1,
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "calibrations_s": track.samples,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_latencies_s": [p.latencies for p in passes],
        "setup_times_s": setup_times,
        "selftest_times_s": [t for t, _, _ in selftests],
        "slowest_job": {
            "workload": args.workload,
            "job_index": slow_index,
            "label": slow_job.label,
            "p": slow_job.p,
            "seed": args.seed,
            "ms": 1000 * latencies[slow_index],
        },
    }
    return metrics, detail | {"attempted": attempted, "failed": failed}


def traced_run(args, kf, jobs, track) -> tuple[dict, dict]:
    from tracer import Tracer

    untraced = measure_passes(jobs, track, args.seconds / 3)
    traced, tracers = [], []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        tracers.append(tracer)
        tracer.install()

        def on_job(index: int) -> None:
            tracer.job = index
            tracer.active = index >= 0

        try:
            traced.append(run_pass(jobs, track, on_job))
        finally:
            tracer.active = False
            tracer.uninstall()
    # counts, times and spans come from the first traced pass alone, so that
    # the counts are exact and repeat for a seed; the later passes only give
    # each job its fastest traced latency for the overhead
    tracer = tracers[0]
    wall = sum(traced[0].raw_latencies)
    traced_wall = sum(job_latencies(traced))
    untraced_wall = sum(job_latencies(untraced))
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "frac")
    digests = {digest_of(p.texts) for p in untraced + traced}
    layer_self = tracer.layer_self_ms()
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "job"],
            "spans": tracer.spans,
            "dropped_spans": tracer.dropped_spans,
        }, fh)
    incl = tracer.incl_ms()
    detail = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "digest_stable": len(digests) == 1,
        "layer_self_ms": layer_self,
        "layer_self_share": {k: v / (1000 * wall) for k, v in layer_self.items()},
        "incl_share": {k: v / (1000 * wall) for k, v in sorted(incl.items())},
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "spans": len(tracer.spans),
    }
    runs = untraced + traced
    failed = sum(p.failed for p in runs)
    attempted = sum(len(p.latencies) for p in runs)
    return metrics, detail | {"attempted": attempted, "failed": failed}


def gated(metrics: dict, trace: int) -> dict:
    """The metrics that BENCHMARK.json lists for this mode; the result file
    keeps every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    return {n: metrics[n] for n in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if sys.flags.optimize:
        fail("refusing to run under -O: katoforms checks rely on assert")
    if not (SRC / "katoforms" / "__init__.py").is_file():
        fail(f"no katoforms sources under {SRC.relative_to(ROOT)}/")
    if args.workload not in jobs_mod.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(jobs_mod.WORKLOADS)}")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    track = SpeedTrack()
    elapsed, raw, (kf, jobs) = track.measure(lambda: setup(args.workload, args.seed))
    setup_times = [(elapsed, raw)]

    if args.trace:
        metrics, detail = traced_run(args, kf, jobs, track)
    else:
        metrics, detail = timed_run(args, kf, jobs, track, setup_times)
    correct = detail["failed"] == 0 and detail["digest_stable"]
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(kf, args.seed),
        "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    for key in ("environment", "digest", "slowest_job", "failed_frac", "tail_percentile",
                "passes", "jobs_per_pass", "layer_self_share"):
        if key in result:
            print(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": gated(result["metrics"], args.trace),
    }))
    return 0


sys.path.insert(0, str(HERE))
import jobs as jobs_mod  # noqa: E402  (sibling modules of this script)
from speed import SpeedTrack  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
