"""One repetition of a workload in a fresh interpreter.

Protocol (stdout, one JSON object per line):
  1. after ``brieskorn_wrt`` and ``brieskorn_wrt.cli`` are imported (and,
     with ``--trace 1``, the layer functions wrapped): {"ready": env}.
  2. with ``--probe``: exit.  Otherwise read the job list (JSON) from stdin,
     run the jobs serially, then check each one outside the timed region,
     and print {"jobs": [...], "wall_s": ..., ...}.

Run as ``python3 perfbench/worker.py --src SRC [--trace 0|1] [--probe]``
with SRC on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

# stdout carries the protocol; anything the library prints goes to stderr
PROTOCOL = sys.stdout
sys.stdout = sys.stderr

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

import brieskorn_wrt  # noqa: E402
from brieskorn_wrt import cli  # noqa: E402

import tracing  # noqa: E402

DIGEST_DIGITS = 40
CALIBRATION_LOOP = 400_000  # about 40 ms


def _emit(obj) -> None:
    PROTOCOL.write(json.dumps(obj) + "\n")
    PROTOCOL.flush()


def _env() -> dict:
    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "package_file": brieskorn_wrt.__file__,
    }


# ---------------------------------------------------------------------------
# jobs


def run_job(job: dict):
    """The timed call: a bwrt verb through parse/execute/render, or the quartet."""
    if job["kind"] == "verb":
        cmd = cli.parse(job["argv"])
        report, code = cli.execute(cmd)
        text = cli.render(cmd, report)
        return cmd, code, text
    p = brieskorn_wrt.BrieskornTriple(*job["p"])
    _, gamma = brieskorn_wrt.admissible_triples(p)
    closed = brieskorn_wrt.gamma_closed_form(p)
    direct = p.D - brieskorn_wrt.mordell_count(p)
    lam = brieskorn_wrt.casson(p)
    return gamma, closed, direct, lam


# ---------------------------------------------------------------------------
# checks, outside the timed region; each returns (ok, digest)


def _digest(text: str) -> str:
    if len(text) <= 96:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _mpc(value: dict):
    return mp.mpc(mp.mpf(value["re"]), mp.mpf(value["im"]))


def _sig(value, digits: int) -> str:
    """Leading significant digits, min(40, digits - 10): within the tolerance."""
    k = min(DIGEST_DIGITS, digits - 10)
    if isinstance(value, mp.mpc):
        return f"{mp.nstr(value.real, k)},{mp.nstr(value.imag, k)}"
    return mp.nstr(value, k)


def _theorem51(p, n: int, ctx):
    """0.5 * eichler_limit(p, (1,1,1), 1, N), plus e^{pi i/60N} for (2,3,5)."""
    rhs = brieskorn_wrt.eichler_limit(p, brieskorn_wrt.EllTriple(1, 1, 1), 1, n, ctx) / 2
    if p.is_poincare:
        rhs += mp.expjpi(mp.mpf(1) / (60 * n))
    return rhs


def _rational(value: dict) -> str:
    return value["num"] if value["den"] == "1" else f'{value["num"]}/{value["den"]}'


@functools.lru_cache(maxsize=None)
def _table1() -> dict:
    return {tuple(ps): values for ps, values in brieskorn_wrt.load_table1()}


def _check_verb(cmd, code: int, text: str):
    if code != cli.EXIT_OK:
        return False, f"exit {code}"
    results = json.loads(text)["results"]
    ctx = brieskorn_wrt.PrecisionContext(cmd.precision)
    d = cmd.precision
    p = brieskorn_wrt.BrieskornTriple(*cmd.p)
    with ctx.workdps():
        if cmd.verb == "invariant":
            got = _mpc(results["normalized"])
            ok = abs(got - _theorem51(p, cmd.n_level, ctx)) <= ctx.tolerance
            return ok, _sig(got, d)
        if cmd.verb == "asymptotic":
            exact = _mpc(results["exact"])
            ok = abs(exact - _theorem51(p, cmd.n_level, ctx)) <= ctx.tolerance
            text = ";".join(_sig(_mpc(results[k]), d) for k in ("dominant", "tail", "exact"))
            return ok, _digest(text)
        if cmd.verb == "flat":
            records = results["flat_connections"]
            flows = [r["spectral_flow"] for r in records]
            ok = all(isinstance(f, int) and 0 <= f < 8 for f in flows)
            residual = brieskorn_wrt.verify_s_torsion(p, ctx)
            ok = ok and residual <= mp.mpf(10) ** (-(d - 15))
            text = ";".join(
                f'{r["ell"]}:{_rational(r["cs"])}:{r["spectral_flow"]}:'
                f'{_sig(mp.mpf(r["torsion_sqrt"]), d)}'
                for r in records
            )
            return ok, _digest(text)
        if cmd.verb == "ohtsuki":
            lambdas = [_rational(lam) for lam in results["lambdas"]]
            ok = results["all_integer"]
            expected = _table1().get(p.p)
            if expected is not None:
                ok = ok and lambdas == [str(v) for v in expected[: len(lambdas)]]
            return ok, _digest(",".join(lambdas))
    return False, f"no check for verb {cmd.verb}"


def check_job(job: dict, output):
    if job["kind"] == "verb":
        return _check_verb(*output)
    gamma, closed, direct, lam = output
    ok = closed == gamma and direct == gamma and lam == Fraction(-gamma, 2) and lam.denominator == 1
    return ok, f"gamma={gamma};casson={lam}"


# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python integer loop: the machine's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def run(jobs: list, recorder) -> dict:
    records = []
    outputs = []
    started = time.perf_counter()
    for job in jobs:
        calibration = calibrate()
        before = tracing.cache_counts()
        span = None
        if recorder is not None:
            recorder.job = job["id"]
            span = recorder.open("job")
        t0 = time.perf_counter()
        try:
            output, error = run_job(job), None
        except (Exception, SystemExit) as exc:  # a failed job counts, the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if span is not None:
            recorder.close(span)
        after = tracing.cache_counts()
        cache = {
            fn: None if after[fn] is None or before[fn] is None
            else [after[fn][0] - before[fn][0], after[fn][1] - before[fn][1]]
            for fn in after
        }
        records.append({"id": job["id"], "seconds": seconds, "calibration_s": calibration,
                        "error": error, "cache": cache})
        outputs.append(output)
    # the job lists' wall time, without the calibration loops between jobs
    wall = time.perf_counter() - started - sum(r["calibration_s"] for r in records)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sizes = {fn: None if c is None else c[2] for fn, c in tracing.cache_counts().items()}

    if recorder is not None:
        recorder.phase = "check"
    for job, record, output in zip(jobs, records, outputs):
        if record["error"] is not None:
            record["ok"], record["digest"] = False, None
            continue
        if recorder is not None:
            recorder.job = job["id"]
        try:
            record["ok"], record["digest"] = check_job(job, output)
        except Exception as exc:  # a check that raises is a failed job
            record["ok"], record["digest"] = False, None
            record["error"] = f"check {type(exc).__name__}: {exc}"
    result = {"jobs": records, "wall_s": wall, "peak_rss_kb": peak_rss_kb, "cache_sizes": sizes}
    if recorder is not None:
        result["spans"] = recorder.spans
        result["term_count"] = recorder.term_count
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    src = os.path.realpath(args.src)
    if not os.path.realpath(brieskorn_wrt.__file__).startswith(src + os.sep):
        print(f"brieskorn_wrt imported from {brieskorn_wrt.__file__}, not {src}", file=sys.stderr)
        return 2
    recorder = None
    env = _env()
    if args.trace:
        recorder = tracing.Recorder()
        env["untraced"] = tracing.install(recorder)
    _emit({"ready": env})
    if args.probe:
        return 0
    jobs = json.load(sys.stdin)
    _emit(run(jobs, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
