"""Command-line surface: compute, verify and export with explicit precision.

Verbs: invariant, ohtsuki, cs, flat, asymptotic, verify, table.  Output is
JSON (default), CSV or text, written to stdout or --out.  Exit codes:
0 success, 1 verification failure (including a suite that ran no checks),
2 usage error (among them --N above 10^6, --precision above 10^4, --order
or --K above 100, --pmax outside 30..10^5 and --nmax outside 3..50).
Rationals are serialized as {"num", "den"} strings and complex values as
{"re", "im"} decimal strings so arbitrarily large results survive any JSON
consumer.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from . import __version__
from .chi import (
    BrieskornTriple,
    admissible_count,
    gamma_closed_form,
    mordell_count,
)
from .exactmath import PrecisionContext, to_mpf
from .modularform import modular_data, t_exponent, theta_eval
from .ohtsuki import lambda_coefficients, table1_verify
from .topology import casson, flat_connections, verify_s_torsion
from .wrt import asymptotic_approx, rozansky_normalized, tau_n

VERBS = ("invariant", "ohtsuki", "cs", "flat", "asymptotic", "verify", "table")
SUITES = ("theorem51", "table1", "modular", "torsion", "gamma")
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Input bounds: the Eichler limit holds O(N) integers and the surgery sum an
# O(PN) phase cache, so N and the precision are capped; the lambda_n
# re-expansion is O(order^3) and the L-values behind --order and --K fill
# the unbounded Bernoulli-number cache, so both are capped; the theorem51
# suite runs the O(PN) surgery sum at every level up to --nmax, so that is
# capped too; the gamma suite checks every sphere with P <= --pmax, each
# with O(log P) Dedekind sums and O(p1 p2) lattice counts, so --pmax is
# capped (10^5 takes about a minute).  No Brieskorn sphere has P below
# 2*3*5 and no level is below 3, so smaller --pmax and --nmax would select
# nothing.
MAX_LEVEL = 10**6
MAX_PRECISION = 10**4
MAX_ORDER = 100
MAX_K = 100
MIN_PMAX = 30
MAX_PMAX = 10**5
MIN_NMAX = 3
MAX_NMAX = 50


@dataclass(frozen=True)
class Command:
    verb: str
    p: tuple | None = None
    n_level: int | None = None
    order: int = 8
    k_max: int = 4
    precision: int = 50
    fmt: str = "json"
    out: str | None = None
    suite: str | None = None
    pmax: int = 1000
    nmax: int = 25


@dataclass
class Report:
    command: dict
    results: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    status: str = "ok"
    failure: list = field(default_factory=list)


def rational_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def complex_json(z, digits: int) -> dict:
    with mp.workdps(digits):
        return {"re": mp.nstr(mp.re(z), digits), "im": mp.nstr(mp.im(z), digits)}


def real_json(x, digits: int) -> str:
    with mp.workdps(digits):
        return mp.nstr(mp.mpf(x), digits)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep errors as exceptions so parse() is testable
        raise _UsageError(message)


def _parse_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--p expects three comma-separated integers, got {text!r}")
    try:
        ps = tuple(int(t) for t in parts)
    except ValueError:
        raise _UsageError(f"--p expects integers, got {text!r}") from None
    return ps


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="bwrt", description=__doc__)
    sub = parser.add_subparsers(dest="verb", metavar="|".join(VERBS))

    def add_common(sp, with_p=True):
        if with_p:
            sp.add_argument("--p", required=True, help="p1,p2,p3 (pairwise coprime, each >= 2)")
        sp.add_argument("--precision", type=int, default=50, help="decimal digits (default 50)")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        sp.add_argument("--out", default=None, help="write output to FILE instead of stdout")

    sp = sub.add_parser("invariant", help="quantum invariant tau_N and friends")
    add_common(sp)
    sp.add_argument("--N", dest="n_level", type=int, required=True)

    sp = sub.add_parser("ohtsuki", help="perturbative coefficients lambda_0..lambda_order")
    add_common(sp)
    sp.add_argument("--order", type=int, default=8)

    sp = sub.add_parser("cs", help="Chern-Simons spectrum of flat connections")
    add_common(sp)

    sp = sub.add_parser("flat", help="full flat-connection records")
    add_common(sp)

    sp = sub.add_parser("asymptotic", help="stationary-phase approximation quality")
    add_common(sp)
    sp.add_argument("--N", dest="n_level", type=int, required=True)
    sp.add_argument("--K", dest="k_max", type=int, default=4)

    sp = sub.add_parser("verify", help="named verification suites")
    add_common(sp, with_p=False)
    sp.add_argument("--suite", choices=SUITES, required=True)
    sp.add_argument("--pmax", type=int, default=1000)
    sp.add_argument("--nmax", type=int, default=25)

    sp = sub.add_parser("table", help="emit the bundled reference table as CSV")
    add_common(sp, with_p=False)
    return parser


def parse(argv: list) -> Command:
    """Parse and validate argv into a Command; raises SystemExit on errors."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.verb is None:
            raise _UsageError(f"missing verb; expected one of {', '.join(VERBS)}")
        p = None
        if getattr(ns, "p", None) is not None:
            ps = _parse_triple(ns.p)
            try:
                p = BrieskornTriple(*ps).p
            except ValueError as exc:
                raise _UsageError(str(exc)) from None
        n_level = getattr(ns, "n_level", None)
        if n_level is not None and not 3 <= n_level <= MAX_LEVEL:
            raise _UsageError(f"--N must be between 3 and {MAX_LEVEL}")
        if not 15 <= ns.precision <= MAX_PRECISION:
            raise _UsageError(f"--precision must be between 15 and {MAX_PRECISION}")
        if not MIN_PMAX <= getattr(ns, "pmax", MIN_PMAX) <= MAX_PMAX:
            raise _UsageError(
                f"--pmax must be between {MIN_PMAX} (the least P of a sphere) and {MAX_PMAX}"
            )
        if not MIN_NMAX <= getattr(ns, "nmax", MIN_NMAX) <= MAX_NMAX:
            raise _UsageError(
                f"--nmax must be between {MIN_NMAX} (the least level) and {MAX_NMAX}"
            )
        if not 0 <= getattr(ns, "order", 8) <= MAX_ORDER:
            raise _UsageError(f"--order must be between 0 and {MAX_ORDER}")
        if not 0 <= getattr(ns, "k_max", 4) <= MAX_K:
            raise _UsageError(f"--K must be between 0 and {MAX_K}")
        return Command(
            verb=ns.verb,
            p=p,
            n_level=n_level,
            order=getattr(ns, "order", 8),
            k_max=getattr(ns, "k_max", 4),
            precision=ns.precision,
            fmt=ns.format,
            out=ns.out,
            suite=getattr(ns, "suite", None),
            pmax=getattr(ns, "pmax", 1000),
            nmax=getattr(ns, "nmax", 25),
        )
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


# ---------------------------------------------------------------------------
# verb implementations


def _run_invariant(cmd: Command, ctx: PrecisionContext) -> dict:
    p = BrieskornTriple(*cmd.p)
    result = tau_n(p, cmd.n_level, ctx)
    d = ctx.decimal_digits
    return {
        "p": list(p.p),
        "N": result.level,
        "normalized": complex_json(result.normalized, d),
        "tau": complex_json(result.tau, d),
        "z_witten": complex_json(result.z_witten, d),
        "term_count": result.term_count,
        "error_budget": real_json(result.error_budget, 5),
    }


def _run_ohtsuki(cmd: Command, ctx: PrecisionContext) -> dict:
    p = BrieskornTriple(*cmd.p)
    series = lambda_coefficients(p, cmd.order)
    return {
        "p": list(p.p),
        "order": series.order,
        "lambdas": [rational_json(lam) for lam in series.lambdas],
        "all_integer": series.all_integer,
    }


def _run_cs(cmd: Command, ctx: PrecisionContext) -> dict:
    p = BrieskornTriple(*cmd.p)
    records = flat_connections(p, ctx)
    return {
        "p": list(p.p),
        "cs_spectrum": [
            {"ell": list(r.triple.ell), "cs": rational_json(r.cs)} for r in records
        ],
    }


def _run_flat(cmd: Command, ctx: PrecisionContext) -> dict:
    p = BrieskornTriple(*cmd.p)
    d = ctx.decimal_digits
    records = flat_connections(p, ctx)
    return {
        "p": list(p.p),
        "flat_connections": [
            {
                "ell": list(r.triple.ell),
                "cs": rational_json(r.cs),
                "torsion_sqrt": real_json(r.torsion_sqrt, d),
                "spectral_flow": r.spectral_flow,
                "conjugacy_angles": [rational_json(a) for a in r.conjugacy_angles],
            }
            for r in records
        ],
    }


def _run_asymptotic(cmd: Command, ctx: PrecisionContext) -> dict:
    p = BrieskornTriple(*cmd.p)
    approx = asymptotic_approx(p, cmd.n_level, cmd.k_max, ctx)
    d = ctx.decimal_digits
    return {
        "p": list(p.p),
        "N": cmd.n_level,
        "K": cmd.k_max,
        "dominant": complex_json(approx.dominant, d),
        "tail": complex_json(approx.tail, d),
        "exact": complex_json(approx.exact, d),
        "abs_error": real_json(approx.abs_error, 10),
    }


def coprime_triples(pmax: int):
    """All pairwise coprime p1 < p2 < p3, each >= 2, with product <= pmax."""
    for p1 in range(2, pmax + 1):
        if p1**3 > pmax:
            break
        for p2 in range(p1 + 1, pmax // p1 + 1):
            if math.gcd(p1, p2) != 1 or p1 * p2 * (p2 + 1) > pmax:
                continue
            for p3 in range(p2 + 1, pmax // (p1 * p2) + 1):
                if math.gcd(p1, p3) == 1 and math.gcd(p2, p3) == 1:
                    yield BrieskornTriple(p1, p2, p3)


def _suite_theorem51(cmd: Command, ctx: PrecisionContext):
    """The surgery sum against tau_N's Eichler-limit route (Theorem 5.1)."""
    manifolds = [(2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 3, 11), (2, 3, 5)]
    manifolds = [m for m in manifolds if m[0] * m[1] * m[2] <= cmd.pmax]
    failures = []
    checks = 0
    with ctx.workdps():
        for ps in manifolds:
            p = BrieskornTriple(*ps)
            for n in range(3, cmd.nmax + 1):
                lhs = rozansky_normalized(p, n, ctx)
                rhs = tau_n(p, n, ctx).normalized
                residual = abs(lhs - rhs)
                checks += 1
                if residual > ctx.tolerance:
                    failures.append(
                        {"p": list(ps), "N": n, "residual": real_json(residual, 5)}
                    )
    return {"suite": "theorem51", "checks": checks, "manifolds": [list(m) for m in manifolds]}, failures


def _suite_table1(cmd: Command, ctx: PrecisionContext):
    report = table1_verify()
    failures = [
        {
            "p": list(m.manifold),
            "order": m.order,
            "expected": str(m.expected),
            "got": rational_json(m.got),
        }
        for m in report.mismatches
    ]
    return {"suite": "table1", "checks": report.cells_checked}, failures


def _suite_modular(cmd: Command, ctx: PrecisionContext):
    failures = []
    checks = 0
    with ctx.workdps():
        taus = [mp.mpc(0, 1), (1 + 2j) / mp.mpf(3), mp.mpc(0, 1) / 5]
        threshold = mp.mpf(10) ** (-(ctx.decimal_digits - 15))
        for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (3, 5, 8)]:
            p = BrieskornTriple(*ps)
            md = modular_data(p, ctx)
            s_rows = [md.s_row(ell) for ell in md.triples]
            for tau in taus:
                values = [theta_eval(p, ell, -1 / tau, ctx) for ell in md.triples]
                front = (mp.mpc(0, 1) / tau) ** mp.mpf(1.5)
                for ell, row in zip(md.triples, s_rows):
                    lhs = theta_eval(p, ell, tau, ctx)
                    rhs = front * sum(s * v for s, v in zip(row, values))
                    t_lhs = theta_eval(p, ell, tau + 1, ctx)
                    t_rhs = mp.expjpi(to_mpf(t_exponent(p, ell))) * lhs
                    checks += 2
                    for name, res in (("S", abs(lhs - rhs)), ("T", abs(t_lhs - t_rhs))):
                        if res > threshold:
                            failures.append(
                                {
                                    "p": list(ps),
                                    "transform": name,
                                    "tau": complex_json(tau, 10),
                                    "residual": real_json(res, 5),
                                }
                            )
    return {"suite": "modular", "checks": checks}, failures


def _suite_torsion(cmd: Command, ctx: PrecisionContext):
    failures = []
    checks = 0
    with ctx.workdps():
        threshold = mp.mpf(10) ** (-(ctx.decimal_digits - 15))
        for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (3, 5, 8), (5, 7, 9), (7, 11, 13)]:
            residual = verify_s_torsion(BrieskornTriple(*ps), ctx)
            checks += 1
            if residual > threshold:
                failures.append({"p": list(ps), "residual": real_json(residual, 5)})
    return {"suite": "torsion", "checks": checks}, failures


def _suite_gamma(cmd: Command, ctx: PrecisionContext):
    failures = []
    checks = 0
    for p in coprime_triples(cmd.pmax):
        gamma = admissible_count(p)
        closed = gamma_closed_form(p)
        direct = p.D - mordell_count(p)
        lam = casson(p)
        checks += 1
        ok = (
            closed == gamma
            and direct == gamma
            and lam == Fraction(-gamma, 2)
            and lam.denominator == 1
        )
        if not ok:
            failures.append(
                {
                    "p": list(p.p),
                    "gamma_enumerated": gamma,
                    "gamma_closed_form": rational_json(closed),
                    "gamma_lattice": direct,
                    "casson": rational_json(lam),
                }
            )
    return {"suite": "gamma", "checks": checks, "pmax": cmd.pmax}, failures


_SUITE_RUNNERS = {
    "theorem51": _suite_theorem51,
    "table1": _suite_table1,
    "modular": _suite_modular,
    "torsion": _suite_torsion,
    "gamma": _suite_gamma,
}


def _run_table_csv() -> str:
    report = table1_verify()
    lines = ["p1,p2,p3," + ",".join(f"lambda_{n}" for n in range(9))]
    for ps, values in report.rows:
        lines.append(",".join(str(x) for x in (*ps, *values)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# formatting


def _format_text(report: Report) -> str:
    lines = [f"status: {report.status}"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v) if isinstance(v, (dict, list)) else lines.append(
                    f"{prefix}{k} = {v}"
                )
        elif isinstance(value, list):
            for i, v in enumerate(value):
                if isinstance(v, (dict, list)):
                    walk(f"{prefix}{i}.", v)
                else:
                    lines.append(f"{prefix}{i} = {v}")

    walk("", report.results)
    for key, value in report.metadata.items():
        lines.append(f"metadata.{key} = {value}")
    return "\n".join(lines) + "\n"


def _format_csv(cmd: Command, report: Report) -> str:
    if cmd.verb == "table":
        return report.results["csv"]
    if cmd.verb == "ohtsuki":
        lams = report.results["lambdas"]
        header = "p1,p2,p3," + ",".join(f"lambda_{n}" for n in range(len(lams)))
        row = ",".join(
            str(x)
            for x in (
                *report.results["p"],
                *(
                    lam["num"] if lam["den"] == "1" else f'{lam["num"]}/{lam["den"]}'
                    for lam in lams
                ),
            )
        )
        return header + "\n" + row + "\n"
    if cmd.verb == "cs":
        lines = ["ell1,ell2,ell3,cs_num,cs_den"]
        for entry in report.results["cs_spectrum"]:
            lines.append(
                ",".join(
                    str(x)
                    for x in (*entry["ell"], entry["cs"]["num"], entry["cs"]["den"])
                )
            )
        return "\n".join(lines) + "\n"
    # fall back to JSON for verbs without a natural tabular form
    return json.dumps(_report_dict(report), indent=2) + "\n"


def _report_dict(report: Report) -> dict:
    out = {
        "command": report.command,
        "results": report.results,
        "metadata": report.metadata,
        "status": report.status,
    }
    if report.failure:
        out["failure"] = report.failure
    return out


def execute(cmd: Command) -> tuple:
    """Run a validated command; returns (Report, exit_code)."""
    ctx = PrecisionContext(cmd.precision)
    started = time.monotonic()
    report = Report(
        command={
            "verb": cmd.verb,
            "p": list(cmd.p) if cmd.p else None,
            "N": cmd.n_level,
            "order": cmd.order,
            "K": cmd.k_max,
            "precision": cmd.precision,
            "format": cmd.fmt,
            "suite": cmd.suite,
            "pmax": cmd.pmax if cmd.verb == "verify" else None,
        }
    )
    exit_code = EXIT_OK
    if cmd.verb == "invariant":
        report.results = _run_invariant(cmd, ctx)
    elif cmd.verb == "ohtsuki":
        report.results = _run_ohtsuki(cmd, ctx)
    elif cmd.verb == "cs":
        report.results = _run_cs(cmd, ctx)
    elif cmd.verb == "flat":
        report.results = _run_flat(cmd, ctx)
    elif cmd.verb == "asymptotic":
        report.results = _run_asymptotic(cmd, ctx)
    elif cmd.verb == "verify":
        results, failures = _SUITE_RUNNERS[cmd.suite](cmd, ctx)
        if results["checks"] == 0:  # a suite that checked nothing proves nothing
            failures.append({"error": "suite ran no checks"})
        report.results = results
        if failures:
            report.status = "fail"
            report.failure = failures
            exit_code = EXIT_FAIL
    elif cmd.verb == "table":
        report.results = {"csv": _run_table_csv()}
    else:  # unreachable after parse()
        raise ValueError(f"unknown verb {cmd.verb!r}")
    report.metadata = {
        "precision_digits": cmd.precision,
        "tolerance": f"1e-{cmd.precision - 10}",
        "wall_time_seconds": round(time.monotonic() - started, 3),
        "version": __version__,
    }
    if cmd.verb in ("invariant", "asymptotic"):  # the route that computed tau_N
        report.metadata["route"] = "eichler_limit"
    return report, exit_code


def render(cmd: Command, report: Report) -> str:
    if cmd.fmt == "json":
        return json.dumps(_report_dict(report), indent=2) + "\n"
    if cmd.fmt == "csv":
        return _format_csv(cmd, report)
    return _format_text(report)


def main(argv: list | None = None) -> int:
    cmd = parse(sys.argv[1:] if argv is None else argv)
    report, exit_code = execute(cmd)
    text = render(cmd, report)
    if cmd.out:
        with open(cmd.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
