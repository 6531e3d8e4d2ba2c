"""Seeded job lists for the three benchmark workloads.

A job is one call into a public entry point of ``brieskorn_wrt``: a ``bwrt``
verb given as argv, or the gamma/Casson quartet on one triple where no verb
covers a single input.  ``session(workload, seed, rep)`` returns the jobs of
one repetition, which runs in a fresh interpreter.

Variance reduction: every input axis (level, precision, triple size) is cut
into strata, and a rotation over a period of repetitions gives each
manifold or family every stratum exactly once.  A run makes whole periods,
so whatever the seed it runs the same mix of job sizes; the seed picks the
rotation offsets, the value inside each stratum and the job order.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("levels", "sweep", "spectrum")

# levels: `bwrt invariant` on small manifolds (P <= 78), N in [100, 140),
# 30 to 100 digits.  The Poincare sphere is always present because its
# tau_N carries the extra e^{pi i/60N} term.  Jobs of about half a second
# give the 40+ jobs per run that job_tail_s needs.
LEVEL_MANIFOLDS = ((2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 3, 11), (2, 5, 7), (2, 3, 13))
LEVEL_N = (100, 140)
LEVEL_DIGITS = (30, 100)

# sweep: "fat" triples (all p_i >= 7, P in [2000, 8000)) spend their time
# enumerating the lattice; "thin" triples (a, b, p) with p in [1e4, 1.5e4)
# spend it in O(p) Dedekind sums as well.  A third of the jobs are thin so
# that job_tail_s falls among them.
FAT_PER_REP = 6
FAT_P = (2000, 8000)
THIN_FAMILIES = ((2, 3), (2, 5), (3, 4))
THIN_P = (10_000, 15_000)

# spectrum: a full report per manifold, D from 48 to 180, one manifold per
# band per repetition.  (2, 11, 21) is in the bundled lambda table.
SPECTRUM_BANDS = (
    ((5, 7, 9), (2, 11, 21), (5, 8, 9), (5, 7, 11)),
    ((5, 8, 11), (5, 7, 13), (5, 9, 11), (7, 8, 9)),
    ((7, 9, 10), (7, 9, 11), (7, 10, 11), (7, 11, 13)),
)
SPECTRUM_DIGITS = (30, 51)
SPECTRUM_LEVELS = (3, 4, 5, 6)  # small, so the S-matrix build stays the largest share
SPECTRUM_K = 3
SPECTRUM_ORDER = 8

# Repetitions per period of the rotation, and the nominal seconds of one
# repetition at the reference speed; together they turn --seconds into a
# number of repetitions.
PERIOD = {"levels": 8, "sweep": 6, "spectrum": 4}
NOMINAL_REP_S = {"levels": 3.5, "sweep": 4.5, "spectrum": 6.0}


def repetitions(workload: str, seconds: float) -> int:
    """Whole periods of repetitions that fill ``seconds`` at the reference speed.

    The count depends on ``seconds`` only, never on how fast the program
    runs, so a change and its parent run the same jobs and report the same
    tail percentile.
    """
    period = PERIOD[workload]
    return period * max(1, int(seconds / (period * NOMINAL_REP_S[workload])))


def _offsets(workload: str, seed: int, count: int) -> list:
    """Seeded rotation offsets, one per input axis, fixed for the whole run."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(PERIOD[workload]) for _ in range(count)]


def _stratum(rng: random.Random, lo: int, hi: int, count: int, index: int) -> int:
    """An integer from sub-band ``index`` of ``count`` equal sub-bands of [lo, hi)."""
    return lo + int((hi - lo) / count * (index + rng.random()))


def _coprime(*ps: int) -> bool:
    return all(math.gcd(a, b) == 1 for i, a in enumerate(ps) for b in ps[i + 1:])


def _p_arg(ps) -> str:
    return ",".join(str(x) for x in ps)


def _levels(seed: int, rep: int) -> list:
    # manifold m takes level stratum m + rep and precision stratum 3m + rep
    # (3 is prime to the period): over a period each manifold meets every
    # level and every precision stratum once
    period = PERIOD["levels"]
    rng = random.Random(f"levels:{seed}:{rep}")
    shift_n, shift_d = _offsets("levels", seed, 2)
    jobs = []
    for m, ps in enumerate(LEVEL_MANIFOLDS):
        n = _stratum(rng, *LEVEL_N, period, (m + rep + shift_n) % period)
        d = _stratum(rng, *LEVEL_DIGITS, period, (3 * m + rep + shift_d) % period)
        jobs.append({"kind": "verb", "argv": [
            "invariant", "--p", _p_arg(ps), "--N", str(n), "--precision", str(d)]})
    rng.shuffle(jobs)
    return jobs


def fat_pool() -> list:
    """Pairwise coprime triples with every p_i >= 7 and P in FAT_P, by P."""
    lo, hi = FAT_P
    pool = []
    for a in range(7, math.isqrt(hi) + 1):
        for b in range(a + 1, hi // (a * a) + 2):
            for c in range(b + 1, hi // (a * b) + 1):
                if lo <= a * b * c < hi and _coprime(a, b, c):
                    pool.append((a, b, c))
    pool.sort(key=lambda t: (t[0] * t[1] * t[2], t))
    return pool


def _sweep(seed: int, rep: int) -> list:
    # fat: the pool (sorted by P) is cut into FAT_PER_REP coarse parts of
    # `period` fine strata each; repetition rep takes fine stratum
    # rep + shift of every coarse part.  thin: family f takes p stratum
    # 2f + rep + shift.  Over a period every fine stratum and every
    # (family, p stratum) pair is used once.
    period = PERIOD["sweep"]
    rng = random.Random(f"sweep:{seed}:{rep}")
    shift_fat, shift_thin = _offsets("sweep", seed, 2)
    pool = fat_pool()
    strata = FAT_PER_REP * period
    jobs = []
    for k in range(FAT_PER_REP):
        index = _stratum(rng, 0, len(pool), strata, k * period + (rep + shift_fat) % period)
        jobs.append({"kind": "quartet", "p": list(pool[index])})
    for f, (a, b) in enumerate(THIN_FAMILIES):
        p = _stratum(rng, *THIN_P, period, (2 * f + rep + shift_thin) % period)
        while not _coprime(a, b, p):
            p += 1
        jobs.append({"kind": "quartet", "p": [a, b, p]})
    rng.shuffle(jobs)
    return jobs


def _spectrum(seed: int, rep: int) -> list:
    # band b takes member order_b[rep] (a seeded permutation) and precision
    # stratum b + rep + shift: over a period every member runs once
    period = PERIOD["spectrum"]
    rng = random.Random(f"spectrum:{seed}:{rep}")
    (shift_d,) = _offsets("spectrum", seed, 1)
    reports = []
    for b, band in enumerate(SPECTRUM_BANDS):
        order = list(range(len(band)))
        random.Random(f"spectrum/band{b}:{seed}").shuffle(order)
        d = _stratum(rng, *SPECTRUM_DIGITS, period, (b + rep + shift_d) % period)
        reports.append((band[order[rep % len(band)]], d))
    rng.shuffle(reports)
    jobs = []
    for ps, d in reports:
        common = ["--p", _p_arg(ps), "--precision", str(d)]
        jobs.append({"kind": "verb", "argv": ["flat", *common]})
        jobs.append({"kind": "verb", "argv": ["ohtsuki", *common, "--order", str(SPECTRUM_ORDER)]})
        for n in SPECTRUM_LEVELS:
            jobs.append({"kind": "verb", "argv": [
                "asymptotic", *common, "--N", str(n), "--K", str(SPECTRUM_K)]})
    return jobs


_BUILDERS = {"levels": _levels, "sweep": _sweep, "spectrum": _spectrum}


def session(workload: str, seed: int, rep: int) -> list:
    """Jobs of repetition ``rep``; each job dict gets a stable ``id``."""
    jobs = _BUILDERS[workload](seed, rep)
    for index, job in enumerate(jobs):
        job["id"] = f"{workload}-s{seed}-r{rep}-j{index}"
    return jobs
