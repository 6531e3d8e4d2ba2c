"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        tracing.per_layer_metrics()
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sessions_depend_only_on_seed_and_repetition(workload):
    assert workloads.session(workload, 7, 2) == workloads.session(workload, 7, 2)
    assert workloads.session(workload, 7, 2) != workloads.session(workload, 8, 2)
    for rep in range(4):
        jobs = workloads.session(workload, 7, rep)
        keys = [json.dumps(job.get("argv", job.get("p"))) for job in jobs]
        assert len(set(keys)) == len(keys)


def test_a_period_of_repetitions_covers_every_band():
    seen = set()
    for rep in range(workloads.PERIOD["spectrum"]):
        for job in workloads.session("spectrum", 3, rep):
            seen.add(job["argv"][2])
    assert seen == {
        ",".join(map(str, ps)) for band in workloads.SPECTRUM_BANDS for ps in band
    }
    period = workloads.PERIOD["sweep"]
    lo, hi = workloads.THIN_P
    visits, fat = set(), set()
    for rep in range(period):
        for job in workloads.session("sweep", 3, rep):
            a, b, p = job["p"]
            if a < 7:
                visits.add((a, b, (p - lo) * period // (hi - lo)))
            else:
                fat.add((a, b, p))
    assert len(visits) == len(workloads.THIN_FAMILIES) * period
    assert len(fat) == workloads.FAT_PER_REP * period


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_repetitions_are_whole_periods_set_by_seconds_alone(workload):
    period = workloads.PERIOD[workload]
    for seconds in (1, 10, 30, 60):
        reps = workloads.repetitions(workload, seconds)
        assert reps >= period and reps % period == 0
    assert workloads.repetitions(workload, 60) >= workloads.repetitions(workload, 30)


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(39) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert run.percentile([1.0, 2.0], 75) == 1.75


def _short_session(workload: str) -> list:
    """A few jobs of repetition 0 that reach every function mapped to the workload."""
    jobs = workloads.session(workload, 0, 0)
    if workload == "spectrum":
        small = {",".join(map(str, ps)) for ps in workloads.SPECTRUM_BANDS[0]}
        return [job for job in jobs if job["argv"][2] in small]
    return jobs[:1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_layer_function_records_a_span_on_its_workload(workload):
    jobs = _short_session(workload)
    _, ready, result = run.spawn(time.monotonic() + 120, jobs, trace=1)
    assert ready["untraced"] == []
    assert None not in result["cache_sizes"].values()
    assert all(record["ok"] for record in result["jobs"])
    names = {span[0] for span in result["spans"]}
    expected = {fn for fn, home in tracing.LAYER_MAP.items() if home == workload}
    assert expected <= names, sorted(expected - names)


def test_self_time_subtracts_direct_children():
    spans = [
        ["job", 0.0, 10.0, None, "j", "job"],
        ["a", 1.0, 6.0, 0, "j", "job"],
        ["b", 2.0, 4.0, 1, "j", "job"],
        ["b", 7.0, 8.0, 0, "j", "check"],
    ]
    totals = tracing.self_times(spans)
    assert totals["job"] == (1, 4.0)
    assert totals["a"] == (1, 3.0)
    assert totals["b"] == (1, 2.0)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "levels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
