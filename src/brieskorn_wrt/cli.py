"""Command-line surface: compute, verify and export with explicit precision.

Verbs: invariant, ohtsuki, cs, flat, asymptotic, verify, table.  Output is
JSON (default), CSV or text, written to stdout or --out.  Exit codes:
0 success, 1 verification failure (including a suite that ran no checks),
2 usage error (among them --N above 10^6, --precision above 10^4, --order
or --K above 100, --pmax outside 30..10^5, --nmax outside 3..50, a --p with
more than 10^6 canonical triples on cs, flat or asymptotic, and an --out
that cannot be written, found before any work).
Verb runners return library values, and one encoder serializes results and
failures: rationals as {"num", "den"} strings and complex values as
{"re", "im"} decimal strings, so arbitrarily large results survive any JSON
consumer.  Each verify suite yields one (failure, passed) pair per check to
one loop, which counts the checks and keeps the failures.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from mpmath import mp

from . import __version__
from .chi import (
    BrieskornTriple,
    admissible_count,
    admissible_triples,
    gamma_closed_form,
    mordell_count,
)
from .exactmath import PrecisionContext, to_mpf
from .modularform import modular_data, t_exponent, theta_eval
from .ohtsuki import lambda_coefficients, load_table1
from .topology import casson, chern_simons, flat_connections, verify_s_torsion
from .wrt import asymptotic_approx, rozansky_normalized, tau_n

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Bounded flags: Command field, least and greatest value, and the note the
# usage message puts after the least.  The Eichler limit holds O(N) integers
# and the surgery sum takes O(PN) time; the lambda_n re-expansion is
# O(order^3) and --order and --K fill the unbounded Bernoulli cache; the
# theorem51 suite runs the surgery sum at every level up to --nmax; gamma
# checks every sphere with P <= --pmax (10^5 takes about a minute).  No
# sphere has P below 2*3*5 and no level is below 3, so smaller --pmax and
# --nmax would select nothing.
_Bound = namedtuple("_Bound", "field least greatest note")
_BOUNDS = {
    "--N": _Bound("n_level", 3, 10**6, ""),
    "--precision": _Bound("precision", 15, 10**4, ""),
    "--pmax": _Bound("pmax", 30, 10**5, " (the least P of a sphere)"),
    "--nmax": _Bound("nmax", 3, 50, " (the least level)"),
    "--order": _Bound("order", 0, 100, ""),
    "--K": _Bound("k_max", 0, 100, ""),
}
MAX_LEVEL, MAX_PRECISION, MAX_PMAX, MAX_NMAX, MAX_ORDER, MAX_K = (
    bound.greatest for bound in _BOUNDS.values()
)
# cs and flat print one record per canonical triple and asymptotic's cost
# grows with p1 p2, so on those verbs --p is capped at D canonical triples.
MAX_D = 10**6


@dataclass(frozen=True)
class Command:
    """A validated command; the only place the flags' defaults live."""

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
    return {"num": str(x.numerator), "den": str(x.denominator)}


def complex_json(z, digits: int, held: bool = False) -> dict:
    """z as {"re", "im"} strings of ``digits`` digits; held: mp.workdps(digits) is entered."""
    if not held:
        with mp.workdps(digits):
            return complex_json(z, digits, held=True)
    return {"re": mp.nstr(mp.re(z), digits), "im": mp.nstr(mp.im(z), digits)}


def real_json(x, digits: int, held: bool = False) -> str:
    """x as a string of ``digits`` digits; held: mp.workdps(digits) is entered."""
    if not held:
        with mp.workdps(digits):
            return real_json(x, digits, held=True)
    return mp.nstr(mp.mpf(x), digits)


def _json(value, digits: int, held: bool = False):
    """A library value in JSON terms; mpmath numbers at ``digits`` digits.

    One precision context covers the whole value, not one per number.
    """
    if not held:
        with mp.workdps(digits):
            return _json(value, digits, held=True)
    if isinstance(value, Fraction):
        return rational_json(value)
    if isinstance(value, mp.mpc):
        return complex_json(value, digits, held=True)
    if isinstance(value, mp.mpf):
        return real_json(value, digits, held=True)
    if isinstance(value, dict):
        return {key: _json(item, digits, held=True) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item, digits, held=True) for item in value]
    return value


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep errors as exceptions so parse() is testable
        raise _UsageError(message)


def _parse_triple(text: str, verb: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--p expects three comma-separated integers, got {text!r}")
    try:
        ps = tuple(int(t) for t in parts)
    except ValueError:
        raise _UsageError(f"--p expects integers, got {text!r}") from None
    try:
        p = BrieskornTriple(*ps)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if _VERBS[verb].d_bounded and p.D > MAX_D:  # D is O(1); nothing is enumerated
        raise _UsageError(f"--p has D = {p.D} canonical triples; {verb} takes at most {MAX_D}")
    return p.p


# Two readers of argv: a plain argv, VERB (--FLAG VALUE)*, is read straight off
# the verb's option table, which _VERBS and _BOUNDS build; argparse, built from
# the same table, reads every other form and writes every usage and help
# message.  JSON reports are laid out by hand in json.dumps' indent=2 form, with
# every string quoted by the C encoder (_indented_json).
@functools.lru_cache(maxsize=None)
def _options(verb: str) -> dict:
    """The verb's flags, in help order, as {flag: add_argument keywords}."""
    spec = _VERBS[verb]
    options = {}
    if spec.takes_p:
        p_help = "p1,p2,p3 (pairwise coprime, each >= 2)"
        options["--p"] = dict(dest="p", required=True, help=p_help)
    digits_help = f"decimal digits (default {Command.precision})"
    options["--precision"] = dict(dest="precision", type=int, help=digits_help)
    options["--format"] = dict(dest="fmt", choices=("json", "csv", "text"))
    options["--out"] = dict(dest="out", help="write output to FILE instead of stdout")
    for flag in spec.flags:
        if flag == "--suite":
            options[flag] = dict(dest="suite", choices=SUITES, required=True)
        else:
            options[flag] = dict(dest=_BOUNDS[flag].field, type=int, required=flag == "--N")
    return options


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="bwrt", description=__doc__)
    sub = parser.add_subparsers(dest="verb", metavar="|".join(VERBS))
    for verb, spec in _VERBS.items():
        sp = sub.add_parser(verb, help=spec.help)
        for flag, keywords in _options(verb).items():
            sp.add_argument(flag, **keywords)
    return parser


def _read_plain(argv: list) -> dict | None:
    """The fields of a plain argv, VERB (--FLAG VALUE)*, read off the verb's options.

    Plain means exact flag names, no value that starts with "-", values that
    int() or the choices accept, and every required flag: argparse would read
    the same fields.  Any other argv returns None, for argparse to read.
    """
    if not argv or argv[0] not in _VERBS or len(argv) % 2 == 0:
        return None
    options = _options(argv[0])
    given = {"verb": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or value[:1] == "-":
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        if "type" in option:
            try:
                value = int(value)
            except ValueError:
                return None
        given[option["dest"]] = value
    if any(option.get("required") and option["dest"] not in given for option in options.values()):
        return None
    return given


def parse(argv: list) -> Command:
    """Parse and validate argv into a Command; raises SystemExit on errors."""
    try:
        given = _read_plain(argv)
        if given is None:
            ns = _build_parser().parse_args(argv)
            if ns.verb is None:
                raise _UsageError(f"missing verb; expected one of {', '.join(VERBS)}")
            given = {key: value for key, value in vars(ns).items() if value is not None}
        if "p" in given:
            given["p"] = _parse_triple(given["p"], given["verb"])
        for flag, (name, least, greatest, note) in _BOUNDS.items():
            if not least <= given.get(name, least) <= greatest:
                raise _UsageError(f"{flag} must be between {least}{note} and {greatest}")
        return Command(**given)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


# ---------------------------------------------------------------------------
# verb implementations


def _fields(record, names: str) -> dict:
    """The named fields of a library record, in order, as result entries."""
    return {name: getattr(record, name) for name in names.split()}


def _run_invariant(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    result = tau_n(p, cmd.n_level, ctx)
    fields = _fields(result, "normalized tau z_witten term_count")
    budget = real_json(result.error_budget, 5)
    return {"p": p.p, "N": result.level, **fields, "error_budget": budget}, []


def _run_ohtsuki(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    return {"p": p.p, **_fields(lambda_coefficients(p, cmd.order), "order lambdas all_integer")}, []


def _run_cs(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    spectrum = [{"ell": ell, "cs": chern_simons(p, ell)} for ell in admissible_triples(p)[0]]
    return {"p": p.p, "cs_spectrum": spectrum}, []


def _run_flat(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    names = "cs torsion_sqrt spectral_flow conjugacy_angles"
    records = [{"ell": r.triple, **_fields(r, names)} for r in flat_connections(p, ctx)]
    return {"p": p.p, "flat_connections": records}, []


def _run_asymptotic(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    approx = asymptotic_approx(p, cmd.n_level, cmd.k_max, ctx)
    fields = _fields(approx, "dominant tail exact")
    error = real_json(approx.abs_error, 10)
    return {"p": p.p, "N": cmd.n_level, "K": cmd.k_max, **fields, "abs_error": error}, []


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


def _suite_theorem51(cmd: Command, ctx: PrecisionContext, results: dict):
    manifolds = [(2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 3, 11), (2, 3, 5)]
    results["manifolds"] = manifolds = [m for m in manifolds if math.prod(m) <= cmd.pmax]
    for ps in manifolds:
        p = BrieskornTriple(*ps)
        for n in range(3, cmd.nmax + 1):
            residual = abs(rozansky_normalized(p, n, ctx) - tau_n(p, n, ctx).normalized)
            yield {"p": ps, "N": n, "residual": real_json(residual, 5)}, residual <= ctx.tolerance


def _suite_table1(cmd: Command, ctx: PrecisionContext, results: dict):
    for ps, values in load_table1():
        lambdas = lambda_coefficients(BrieskornTriple(*ps), len(values) - 1).lambdas
        for n, (expected, got) in enumerate(zip(values, lambdas)):
            yield {"p": ps, "order": n, "expected": str(expected), "got": got}, got == expected


def _suite_modular(cmd: Command, ctx: PrecisionContext, results: dict):
    taus = [mp.mpc(0, 1), (1 + 2j) / mp.mpf(3), mp.mpc(0, 1) / 5]
    threshold = mp.mpf(10) ** (-(ctx.decimal_digits - 15))
    for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (3, 5, 8)]:
        p = BrieskornTriple(*ps)
        md = modular_data(p, ctx)
        s_rows = [md.s_row(ell) for ell in md.triples]
        for tau in taus:
            tau_text = complex_json(tau, 10)
            values = [theta_eval(p, ell, -1 / tau, ctx) for ell in md.triples]
            front = (mp.mpc(0, 1) / tau) ** mp.mpf(1.5)
            for ell, row in zip(md.triples, s_rows):
                lhs = theta_eval(p, ell, tau, ctx)
                rhs = front * sum(s * v for s, v in zip(row, values))
                t_lhs = theta_eval(p, ell, tau + 1, ctx)
                t_rhs = mp.expjpi(to_mpf(t_exponent(p, ell))) * lhs
                for name, res in (("S", abs(lhs - rhs)), ("T", abs(t_lhs - t_rhs))):
                    failure = dict(p=ps, transform=name, tau=tau_text, residual=real_json(res, 5))
                    yield failure, res <= threshold


def _suite_torsion(cmd: Command, ctx: PrecisionContext, results: dict):
    threshold = mp.mpf(10) ** (-(ctx.decimal_digits - 15))
    for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (3, 5, 8), (5, 7, 9), (7, 11, 13)]:
        residual = verify_s_torsion(BrieskornTriple(*ps), ctx)
        yield {"p": ps, "residual": real_json(residual, 5)}, residual <= threshold


def _suite_gamma(cmd: Command, ctx: PrecisionContext, results: dict):
    results["pmax"] = cmd.pmax
    for p in coprime_triples(cmd.pmax):
        failure = {
            "p": p.p,
            "gamma_enumerated": admissible_count(p),
            "gamma_closed_form": gamma_closed_form(p),
            "gamma_lattice": p.D - mordell_count(p),
            "casson": casson(p),
        }
        _, gamma, closed, direct, lam = failure.values()
        yield failure, closed == direct == gamma == -2 * lam and lam.denominator == 1


_SUITE_RUNNERS = {
    "theorem51": _suite_theorem51,  # the surgery sum against tau_N's route (Theorem 5.1)
    "table1": _suite_table1,  # every reference-table cell against lambda_coefficients
    "modular": _suite_modular,  # S and T laws of the weight-3/2 theta vector
    "torsion": _suite_torsion,  # the S row of (1, 1, 1) against the Reidemeister torsion
    "gamma": _suite_gamma,  # gamma three ways against -2 Casson
}
SUITES = tuple(_SUITE_RUNNERS)


def _run_verify(cmd: Command, ctx: PrecisionContext) -> tuple:
    """Drive one suite: it yields a (failure, passed) pair per check and may add result keys."""
    results = {"suite": cmd.suite, "checks": 0}
    failures = []
    with ctx.workdps():
        for failure, passed in _SUITE_RUNNERS[cmd.suite](cmd, ctx, results):
            results["checks"] += 1
            if not passed:
                failures.append(failure)
    if results["checks"] == 0:  # a suite that checked nothing proves nothing
        failures.append({"error": "suite ran no checks"})
    return results, failures


def _run_table(cmd: Command, ctx: PrecisionContext) -> tuple:
    return {"csv": _lambda_csv(load_table1(), 9)}, []


# ---------------------------------------------------------------------------
# formatting


def _lambda_csv(rows, count: int) -> str:
    """One CSV line per (p, lambda values) row under a lambda_0.. header."""
    lines = ["p1,p2,p3," + ",".join(f"lambda_{n}" for n in range(count))]
    lines += [",".join(str(x) for x in (*ps, *values)) for ps, values in rows]
    return "\n".join(lines) + "\n"


def _ohtsuki_csv(results: dict) -> str:
    lams = [str(Fraction(int(x["num"]), int(x["den"]))) for x in results["lambdas"]]
    return _lambda_csv([(results["p"], lams)], len(lams))


def _cs_csv(results: dict) -> str:
    lines = ["ell1,ell2,ell3,cs_num,cs_den"]
    for e in results["cs_spectrum"]:
        lines.append(",".join(map(str, (*e["ell"], e["cs"]["num"], e["cs"]["den"]))))
    return "\n".join(lines) + "\n"


def _format_text(report: Report) -> str:
    lines = [f"status: {report.status}"]

    def walk(prefix, value):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            if isinstance(v, (dict, list)):
                walk(f"{prefix}{k}.", v)
            else:
                lines.append(f"{prefix}{k} = {v}")

    walk("", report.results)
    walk("failure.", report.failure)
    for key, value in report.metadata.items():
        lines.append(f"metadata.{key} = {value}")
    return "\n".join(lines) + "\n"


def _indented_json(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), nested at ``newline``, with C quoting.

    json.dumps runs its pure-Python encoder whenever indent is set, so the
    layout is written here and each scalar goes to a C routine.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [f"{_quote(key)}: {_indented_json(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [_indented_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)  # a float, {} or []; TypeError for what JSON cannot hold


def _report_dict(report: Report) -> dict:
    out = {key: getattr(report, key) for key in ("command", "results", "metadata", "status")}
    if report.failure:
        out["failure"] = report.failure
    return out


# ---------------------------------------------------------------------------
# the verb table: both argv readers, validation and dispatch are derived from it


class _Verb(NamedTuple):
    help: str
    run: Callable  # (Command, PrecisionContext) -> (results, failures) as library values
    flags: tuple = ()  # beyond --p, --precision, --format and --out
    takes_p: bool = True
    d_bounded: bool = False  # --p capped at MAX_D canonical triples
    csv: Callable | None = None  # results -> CSV text; None means JSON
    route: str | None = None  # metadata["route"]: what computed tau_N


_VERBS = {
    "invariant": _Verb(
        "quantum invariant tau_N and friends", _run_invariant, ("--N",), route="eichler_limit"
    ),
    "ohtsuki": _Verb(
        "perturbative coefficients lambda_0..lambda_order",
        _run_ohtsuki,
        ("--order",),
        csv=_ohtsuki_csv,
    ),
    "cs": _Verb("Chern-Simons spectrum of flat connections", _run_cs, d_bounded=True, csv=_cs_csv),
    "flat": _Verb("full flat-connection records", _run_flat, d_bounded=True),
    "asymptotic": _Verb(
        "stationary-phase approximation quality",
        _run_asymptotic,
        ("--N", "--K"),
        d_bounded=True,
        route="eichler_limit",
    ),
    "verify": _Verb(
        "named verification suites", _run_verify, ("--suite", "--pmax", "--nmax"), takes_p=False
    ),
    "table": _Verb(
        "emit the bundled reference table as CSV",
        _run_table,
        takes_p=False,
        csv=lambda results: results["csv"],
    ),
}
VERBS = tuple(_VERBS)


def execute(cmd: Command) -> tuple:
    """Run a validated command; returns (Report, exit_code)."""
    spec = _VERBS[cmd.verb]
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
            "pmax": cmd.pmax if "--pmax" in spec.flags else None,
        }
    )
    report.results, report.failure = _json(spec.run(cmd, ctx), ctx.decimal_digits)
    if report.failure:
        report.status = "fail"
    report.metadata = {
        "precision_digits": cmd.precision,
        "tolerance": f"1e-{cmd.precision - 10}",
        "wall_time_seconds": round(time.monotonic() - started, 3),
        "version": __version__,
    }
    if spec.route:
        report.metadata["route"] = spec.route
    return report, EXIT_FAIL if report.failure else EXIT_OK


def render(cmd: Command, report: Report) -> str:
    csv = _VERBS[cmd.verb].csv
    if cmd.fmt == "csv" and csv:
        return csv(report.results)
    if cmd.fmt == "text":
        return _format_text(report)
    return _indented_json(_report_dict(report)) + "\n"


def _existing(path: str) -> os.stat_result | None:
    """The status of the file --out names, through symlinks; None where there is none."""
    try:
        return os.stat(path)
    except OSError:
        return None


def _replaceable(status: os.stat_result | None) -> bool:
    """Whether --out is written by a rename: a new file or a regular file with one name.

    A rename would swap a device or FIFO for a regular file and part a hard
    link from its other names, so those are written in place.
    """
    return status is None or stat.S_ISREG(status.st_mode) and status.st_nlink == 1


def _out_error(path: str) -> str | None:
    """Why --out cannot be written, found before any work and creating nothing; else None."""
    if not path or os.path.isdir(path):
        return os.strerror(errno.EISDIR if path else errno.ENOENT)
    status = _existing(path)
    if status is not None and not os.access(path, os.W_OK):
        return os.strerror(errno.EACCES)
    if not _replaceable(status):
        return None
    parent = os.path.dirname(os.path.realpath(path))  # where the rename happens
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOENT)
    return None if os.access(parent, os.W_OK) else os.strerror(errno.EACCES)


def _write_out(path: str, text: str) -> None:
    """Write --out; a replaceable target is written beside itself and renamed into place.

    A failed write then leaves neither the target nor the temporary file.  A
    replaced target keeps its permission bits; a new one gets the umask's.
    """
    status = _existing(path)
    if not _replaceable(status):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)  # through a symlink, as open(path, "w") writes
    temporary = os.path.join(os.path.dirname(target), f".bwrt-{os.urandom(8).hex()}.tmp")
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            if status is not None:
                os.fchmod(handle.fileno(), stat.S_IMODE(status.st_mode))
            handle.write(text)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def main(argv: list | None = None) -> int:
    cmd = parse(sys.argv[1:] if argv is None else argv)
    if cmd.out is not None and (reason := _out_error(cmd.out)):
        print(f"error: cannot write --out {cmd.out}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    report, exit_code = execute(cmd)
    text = render(cmd, report)
    if cmd.out is not None:
        try:
            _write_out(cmd.out, text)
        except OSError as exc:
            print(f"error: cannot write --out {cmd.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
