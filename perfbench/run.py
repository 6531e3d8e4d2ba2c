#!/usr/bin/env python3
"""Benchmark of brieskorn_wrt: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload levels|sweep|spectrum --seed N \\
        --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: import-only worker spawns time
the set-up, then repetitions of the workload run, each in a fresh worker
interpreter: as many whole periods of repetitions as fill S seconds at the
reference speed (workloads.repetitions).
--trace 1 runs repetition 0 twice, untraced and then traced, and reports
the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Details (environment, per-job latencies and digests,
cache bases, spans) go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Times are reported at a reference machine speed: divided by the run's
# calibration-loop time over this nominal one (see worker.calibrate).
# A shared machine's speed drifts by 20-40% over minutes; the calibration
# loop does not depend on the program, so a slower program still reads
# slower, and the unscaled values are kept in the details file.
REFERENCE_CALIBRATION_S = 0.040
SETUP_PROBES = 10  # import-only spawns; with the repetitions, setup_s is their median
DEADLINE_S = 170.0  # the whole run, every worker included
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10  # job_tail_s: highest percentile with this many jobs beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The run cannot produce a result: missing source, or a worker died."""


def _read(proc) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited early (code {proc.wait()})")
    return json.loads(line)


def spawn(deadline: float, jobs: list | None, trace: int = 0) -> tuple:
    """Run perfbench/worker.py in a fresh interpreter, killed at the deadline.

    Returns (setup seconds, the worker's ready message, its result); with
    ``jobs`` None the worker only imports the package, and the result is None.
    """
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
            "--trace", str(trace)] + (["--probe"] if jobs is None else [])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = _read(proc)["ready"]
        setup_s = time.perf_counter() - started
        result = None
        if jobs is not None:
            proc.stdin.write(json.dumps(jobs))
        proc.stdin.close()
        if jobs is not None:
            result = _read(proc)
        code = proc.wait()
    except OSError as exc:
        raise BenchError(f"lost the worker: {exc}") from None
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return setup_s, ready, result


def percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between order statistics."""
    pos = q / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """Highest percentile of PERCENTILES with at least TAIL_BEYOND jobs beyond it."""
    fitting = [q for q in PERCENTILES if count * (100 - q) / 100 >= TAIL_BEYOND]
    return max(fitting) if fitting else PERCENTILES[0]


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def environment(ready: dict, args) -> dict:
    return {
        **{k: v for k, v in ready.items() if k != "untraced"},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def job_records(jobs: list, result: dict) -> list:
    return [dict(record, job={k: v for k, v in job.items() if k != "id"})
            for job, record in zip(jobs, result["jobs"])]


def end_to_end(args, deadline: float) -> tuple:
    setups = []
    ready = None
    for _ in range(SETUP_PROBES):
        setup, ready, _ = spawn(deadline, None)
        setups.append(setup)
    records, walls, rss = [], [], []
    reps = workloads.repetitions(args.workload, args.seconds)
    for rep in range(reps):
        jobs = workloads.session(args.workload, args.seed, rep)
        setup, ready, result = spawn(deadline, jobs)
        setups.append(setup)
        records.extend(job_records(jobs, result))
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_kb"] / 1024)

    latencies = sorted(r["seconds"] for r in records)
    failed = sum(not r["ok"] for r in records)
    q = tail_percentile(len(latencies))
    raw = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": (len(records) - failed) / sum(walls),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": percentile(latencies, q),
    }
    speed = slowness(records)
    metrics = {name: value * speed if name == "jobs_per_s" else value / speed
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    details = {
        "env": environment(ready, args),
        "repetitions": reps,
        "jobs": len(records),
        "failed_frac": failed / len(records),
        "job_tail_percentile": q,
        "machine_slowness": speed,
        "unscaled": raw,
        "setup_samples_s": setups,
        "repetition_wall_s": walls,
        "repetition_peak_rss_mb": rss,
        "records": records,
    }
    return metrics, details, len(records), failed


def slowness(records: list) -> float:
    """Mean of the middle half of the calibration-loop times, over the reference one."""
    times = sorted(r["calibration_s"] for r in records)
    quarter = len(times) // 4
    return statistics.mean(times[quarter:len(times) - quarter]) / REFERENCE_CALIBRATION_S


def per_layer(args, deadline: float) -> tuple:
    jobs = workloads.session(args.workload, args.seed, 0)
    _, _, base = spawn(deadline, jobs, trace=0)
    _, ready, traced = spawn(deadline, jobs, trace=1)
    spans = traced.pop("spans")
    speed = slowness(traced["jobs"])
    totals = {name: (calls, seconds / speed)
              for name, (calls, seconds) in tracing.self_times(spans).items()}

    hits, lookups = {}, {}
    for record in traced["jobs"]:
        for fn, delta in record["cache"].items():
            if delta is not None:
                hits[fn] = hits.get(fn, 0) + delta[0]
                lookups[fn] = lookups.get(fn, 0) + delta[0] + delta[1]
    values = {}
    for fn in tracing.LAYER_MAP:
        calls, self_s = totals.get(fn, (0, 0.0))
        stat_values = {
            "self_s": self_s,
            "calls": calls,
            "cache_lookups": lookups.get(fn, 0),
            "cache_hit_ratio": hits.get(fn, 0) / lookups[fn] if lookups.get(fn) else 0.0,
            "cache_size": traced["cache_sizes"].get(fn) or 0,
            "term_count": traced["term_count"],
        }
        for stat in ("self_s", *tracing.STATS.get(fn, ())):
            values[f"{fn}.{stat}"] = stat_values[stat]
    values["trace_overhead_frac"] = (traced["wall_s"] / speed) / (
        base["wall_s"] / slowness(base["jobs"])) - 1
    metrics = {name: values[name] for name in tracing.per_layer_metrics()}

    # every job-phase second is some span's self time, "job" holding the rest
    job_time = sum(s for _, s in totals.values())
    records = job_records(jobs, base) + job_records(jobs, traced)
    failed = sum(not r["ok"] for r in records)
    details = {
        "env": environment(ready, args),
        "jobs": len(jobs),
        "untraced_wall_s": base["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "machine_slowness": speed,
        "untraced_functions": ready.get("untraced", []),
        "absent_caches": sorted(fn for fn, size in traced["cache_sizes"].items() if size is None),
        "cache_bases": lookups,
        "self_share": {name: s / job_time for name, (_, s) in
                       sorted(totals.items(), key=lambda item: -item[1][1])},
        "records": records,
    }
    return metrics, details, len(records), failed, spans


def write_out(name: str, payload) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "brieskorn_wrt", "__init__.py")):
        print(f"error: no brieskorn_wrt package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, details, attempted, failed, spans = per_layer(args, deadline)
            write_out(f"{stem}-spans.json", spans)
            units = {name: unit for name, (unit, _) in tracing.per_layer_metrics().items()}
        else:
            metrics, details, attempted, failed = end_to_end(args, deadline)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details["metrics"] = metrics
    path = write_out(f"{stem}.json", details)

    env = details["env"]
    print(f"# env: python {env['python']}, mpmath {env['mpmath']} ({env['mpmath_backend']}), "
          f"nproc {env['nproc']}, git {env['git_sha']}, seed {args.seed}")
    if args.trace:
        shares = ", ".join(f"{name} {share:.1%}"
                           for name, share in list(details["self_share"].items())[:5])
        print(f"# largest self-time shares: {shares}")
    else:
        print(f"# {details['jobs']} jobs in {details['repetitions']} repetitions; "
              f"job_tail_s is p{details['job_tail_percentile']:g}; "
              f"failed_frac {details['failed_frac']:g}")
    print(f"# details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
