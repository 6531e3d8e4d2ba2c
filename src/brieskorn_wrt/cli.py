"""Command-line surface: compute, verify and export with explicit precision.

``DESCRIPTION``, the text of ``bwrt --help``, lists the verbs, the formats
and the exit codes.  Verb runners return library values, and one encoder lays
the report out straight from them, with one routine per kind of number:
rationals as {"num", "den"} strings, reals as decimal strings and complex
values as {"re", "im"} decimal strings, each decimal rounded once from the
working value's raw mpmath tuple to the report's digits, so arbitrarily large
results survive any JSON consumer.  Each verify suite yields one (failure,
passed) pair per check to a loop that counts the checks and keeps the failures.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
import sys
import time
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from mpmath import mp
from mpmath.libmp import to_str

from . import __version__
from .chi import (
    BrieskornTriple,
    EllTriple,
    admissible_count,
    admissible_triples,
    mordell_count,
    t_numerator,
)
from .exactmath import PrecisionContext
from .modularform import modular_data, theta_eval
from .ohtsuki import lambda_coefficients, load_table1, table1_path
from .topology import casson, chern_simons, flat_connections, verify_s_torsion
from .wrt import asymptotic_approx, jeffrey_tau, tau_n

DESCRIPTION = """Compute, verify and export with explicit precision.
Verbs: invariant, ohtsuki, cs, flat, asymptotic, verify, table.  Output is
JSON (default), CSV or text, written to stdout or --out.  Exit codes:
0 success, 1 verification failure (including a suite that ran no checks),
2 usage error (among them --N above 10^6, --precision above 10^4, --order
or --K above 100, --pmax outside 30..10^5, --nmax outside 3..50, a --p with
more than 10^6 canonical triples on cs, flat or asymptotic, and an --out
that cannot be written, found before any work)."""

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Bounded flags: Command field, least and greatest value, and the note the usage message puts
# after the least.  tau_N's Eichler-limit weights and exact coordinates take O(N) integers and
# time; lambda_n take O(order^2) integer steps and --order and --K set the size of the Bernoulli
# tables and tails; the theorem51 suite runs Jeffrey's O(N^2 s) route (s <= 11 S letters on its
# spheres) at every level up to --nmax; gamma checks every sphere with P <= --pmax in O(p1 p2)
# steps each (at 10^5, 181,624 spheres whose p1 p2 sum to about 3.9*10^7).  No sphere has P
# below 2*3*5 and no level is below 3, so smaller --pmax and --nmax would select nothing.
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


class Command(NamedTuple):
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


class Report(NamedTuple):
    """What ``execute`` found, built once: the command echoed, the results and
    failures as the library values the runners returned (``values``, ``failures``),
    whose numbers the report prints at ``digits`` digits, and metadata; ``status``
    follows the failures.  ``render`` lays it out; its JSON terms are that text, parsed.
    """

    command: dict
    digits: int
    values: dict
    failures: list
    metadata: dict

    @property
    def status(self) -> str:
        return "fail" if self.failures else "ok"


class _Fixed(NamedTuple):
    """A number the report prints at ``digits`` digits, whatever its --precision."""

    value: object
    digits: int


class _UsageError(Exception):
    pass


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
# message.  A report is one stream of text pieces (_pieces): CSV and text yield
# lines, and JSON, laid out in json.dumps' indent=2 form with C quoting, yields
# each flat or cs record, in the fixed layout _VERBS names, as a piece.
def _options(verb: str) -> dict:
    """The verb's flags, in help order, as {flag: add_argument keywords}."""
    spec = _VERBS[verb]
    options = {}
    if spec.takes_p:
        p_help = "p1,p2,p3 (pairwise coprime, each >= 2)"
        options["--p"] = dict(dest="p", required=True, help=p_help)
    digits_help = f"decimal digits (default {Command._field_defaults['precision']})"
    options["--precision"] = dict(dest="precision", type=int, help=digits_help)
    options["--format"] = dict(dest="fmt", choices=("json", "csv", "text"))
    options["--out"] = dict(dest="out", help="write output to FILE instead of stdout")
    for flag in spec.flags:
        if flag == "--suite":
            options[flag] = dict(dest="suite", choices=SUITES, required=True)
        else:
            options[flag] = dict(dest=_BOUNDS[flag].field, type=int, required=flag == "--N")
    return options


def _build_parser():
    """The argparse tree, built for each argv the plain reader cannot read.

    argparse is imported here, so a plain argv never loads it.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # keep errors as exceptions so parse() is testable
            raise _UsageError(message)

    parser = _Parser(prog="bwrt", description=DESCRIPTION)
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
    budget = _Fixed(result.error_budget, 5)
    return {"p": p.p, "N": result.level, **fields, "error_budget": budget}, []


def _run_ohtsuki(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    return {"p": p.p, **_fields(lambda_coefficients(p, cmd.order), "order lambdas all_integer")}, []


def _run_cs(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    spectrum = [(ell, chern_simons(p, ell)) for ell in admissible_triples(p)[0]]
    return {"p": p.p, "cs_spectrum": spectrum}, []


def _run_flat(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    return {"p": p.p, "flat_connections": flat_connections(p, ctx)}, []


def _run_asymptotic(cmd: Command, ctx: PrecisionContext) -> tuple:
    p = BrieskornTriple(*cmd.p)
    approx = asymptotic_approx(p, cmd.n_level, cmd.k_max, ctx)
    fields = _fields(approx, "dominant tail exact")
    error = _Fixed(approx.abs_error, 10)
    return {"p": p.p, "N": cmd.n_level, "K": cmd.k_max, **fields, "abs_error": error}, []


def coprime_triples(pmax: int):
    """All pairwise coprime p1 < p2 < p3, each >= 2, with product <= pmax."""
    for p1 in range(2, pmax + 1):
        if p1**3 > pmax:
            break
        for p2 in range(p1 + 1, pmax // p1 + 1):
            if p1 * p2 * (p2 + 1) > pmax:  # grows with p2: no later p2 fits
                break
            if math.gcd(p1, p2) != 1:
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
            tau, limit = tau_n(p, n, ctx), asymptotic_approx(p, n, 0, ctx).exact
            residual = max(abs(jeffrey_tau(p, n, ctx) - tau.tau), abs(limit - tau.normalized))
            yield {"p": ps, "N": n, "residual": _Fixed(residual, 5)}, residual <= ctx.tolerance


def _reference_table() -> list:
    try:  # a table that cannot be read is a usage error, not a failed check
        return load_table1()
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _UsageError(f"cannot read the reference table {table1_path()}: {reason}") from None


def _suite_table1(cmd: Command, ctx: PrecisionContext, results: dict):
    for ps, values in _reference_table():
        lambdas = lambda_coefficients(BrieskornTriple(*ps), len(values) - 1).lambdas
        for n, (expected, got) in enumerate(zip(values, lambdas)):
            yield {"p": ps, "order": n, "expected": str(expected), "got": got}, got == expected


def _suite_modular(cmd: Command, ctx: PrecisionContext, results: dict):
    taus = [mp.mpc(0, 1), (1 + 2j) / mp.mpf(3), mp.mpc(0, 1) / 5]
    for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (3, 5, 8)]:
        p = BrieskornTriple(*ps)
        md = modular_data(p, ctx)
        s_rows = [md.s_row(ell) for ell in md.triples]
        for tau in taus:
            tau_text = _Fixed(tau, 10)
            values = [theta_eval(p, ell, -1 / tau, ctx) for ell in md.triples]
            front = (mp.mpc(0, 1) / tau) ** mp.mpf(1.5)
            for ell, row in zip(md.triples, s_rows):
                lhs = theta_eval(p, ell, tau, ctx)
                rhs = front * sum(s * v for s, v in zip(row, values))
                t_lhs = theta_eval(p, ell, tau + 1, ctx)
                t_rhs = mp.expjpi(mp.mpf(t_numerator(p, ell)) / (2 * p.P)) * lhs
                for name, res in (("S", abs(lhs - rhs)), ("T", abs(t_lhs - t_rhs))):
                    failure = dict(p=ps, transform=name, tau=tau_text, residual=_Fixed(res, 5))
                    yield failure, res <= ctx.tolerance


def _suite_torsion(cmd: Command, ctx: PrecisionContext, results: dict):
    for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (3, 5, 8), (5, 7, 9), (7, 11, 13)]:
        residual = verify_s_torsion(BrieskornTriple(*ps), ctx)
        yield {"p": ps, "residual": _Fixed(residual, 5)}, residual <= ctx.tolerance


def _suite_gamma(cmd: Command, ctx: PrecisionContext, results: dict):
    results["pmax"] = cmd.pmax
    for p in coprime_triples(cmd.pmax):
        lam = casson(p)  # -1/2 the closed form, evaluated once per sphere
        failure = {
            "p": p.p,
            "gamma_enumerated": admissible_count(p),
            "gamma_closed_form": -2 * lam,
            "gamma_lattice": p.D - mordell_count(p),
            "casson": lam,
        }
        _, gamma, closed, direct, _ = failure.values()
        yield failure, closed == direct == gamma and lam.denominator == 1


_SUITE_RUNNERS = {
    "theorem51": _suite_theorem51,  # tau_N against Jeffrey's, normalized against Theorem 5.1
    "table1": _suite_table1,  # every reference-table cell against lambda_coefficients
    "modular": _suite_modular,  # S and T laws of the weight-3/2 theta vector
    "torsion": _suite_torsion,  # the S row of (1, 1, 1) against the Reidemeister torsion
    "gamma": _suite_gamma,  # gamma three ways, the closed form read off Casson
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
    return {"csv": "".join(_lambda_csv(_reference_table(), 9))}, []


# ---------------------------------------------------------------------------
# formatting


def _lambda_csv(rows, count: int):
    """One CSV line per (p, lambda values) row under a lambda_0.. header."""
    yield "p1,p2,p3," + ",".join(f"lambda_{n}" for n in range(count)) + "\n"
    for ps, values in rows:
        yield ",".join(str(x) for x in (*ps, *values)) + "\n"


def _ohtsuki_csv(values: dict):
    return _lambda_csv([(values["p"], values["lambdas"])], len(values["lambdas"]))


def _cs_csv(values: dict):
    yield "ell1,ell2,ell3,cs_num,cs_den\n"
    for (l1, l2, l3), cs in values["cs_spectrum"]:
        yield f"{l1},{l2},{l3},{cs.numerator},{cs.denominator}\n"


def _format_text(report: Report):
    # a line per scalar of the JSON report, parsed a field or a laid record at a time
    yield f"status: {report.status}\n"

    def walk(prefix, value):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            if isinstance(v, (dict, list)):
                yield from walk(f"{prefix}{k}.", v)
            else:
                yield f"{prefix}{k} = {v}\n"

    key, record = _VERBS[report.command["verb"]].layout or (None, None)
    for field, value in report.values.items():
        if field != key:
            yield from walk("", {field: json.loads(_indented_json(value, report.digits))})
            continue
        for index, entry in enumerate(value):
            yield from walk(f"{field}.{index}.", json.loads(record(entry, report.digits)))
    yield from walk("failure.", json.loads(_indented_json(report.failures, report.digits)))
    yield from walk("metadata.", report.metadata)


# One routine per kind of number writes its JSON text from mpmath's raw tuples in no precision
# context: a real and each complex component print as to_str of the working value, rounded once.
def _real(x, digits: int) -> str:
    return f'"{to_str(x._mpf_, digits)}"'


def _complex(z, digits: int, newline: str) -> str:
    (re, im), inner = z._mpc_, newline + "  "
    return f'{{{inner}"re": "{to_str(re, digits)}",{inner}"im": "{to_str(im, digits)}"{newline}}}'


def _rational(x: Fraction, newline: str) -> str:
    inner = newline + "  "
    return f'{{{inner}"num": "{x.numerator}",{inner}"den": "{x.denominator}"{newline}}}'


_MPF, _MPC = mp.mpf, mp.mpc


def _indented_json(value, digits: int, newline: str = "\n") -> str:
    """json.dumps(value, indent=2) of a library value, nested at ``newline``, with C
    quoting: numbers by their routines at ``digits`` digits, a _Fixed at its own.

    json.dumps runs its pure-Python encoder whenever indent is set, so the
    layout is written here and each scalar goes to a C routine.  The exact type
    picks the branch; ``EllTriple`` is the one subclass laid out as a list.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is Fraction:
        return _rational(value, newline)
    if kind is _MPF:
        return _real(value, digits)
    if kind is _MPC:
        return _complex(value, digits, newline)
    if kind is _Fixed:
        return _indented_json(value.value, value.digits, newline)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is dict and value:
        items = [f"{_quote(k)}: {_indented_json(v, digits, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if (kind is list or kind is tuple or kind is EllTriple) and value:
        items = [_indented_json(item, digits, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)  # a float, {} or []; TypeError for what JSON cannot hold


# The records of flat and cs, laid out by hand from the library records where
# they sit in the report (results.<key>[i], items eight spaces in): json.dumps'
# indent=2 form, numbers by their routines.  Unpacking fixes each list's
# length, so a record of another shape raises.
_AT8, _AT10 = ("\n" + " " * width for width in (8, 10))


def _ell_and_cs(ell: tuple, cs: Fraction) -> str:
    # the opening brace and the first two items, which both records share
    l1, l2, l3 = ell
    ell_text = f"[{_AT10}{l1},{_AT10}{l2},{_AT10}{l3}{_AT8}]"
    return f'{{{_AT8}"ell": {ell_text},{_AT8}"cs": {_rational(cs, _AT8)}'


def _cs_record(record: tuple, digits: int) -> str:
    return _ell_and_cs(*record) + "\n      }"


def _flat_record(record, digits: int) -> str:
    a1, a2, a3 = record.conjugacy_angles
    return (
        f"{_ell_and_cs(record.triple, record.cs)},"
        f'{_AT8}"torsion_sqrt": {_real(record.torsion_sqrt, digits)},'
        f'{_AT8}"spectral_flow": {record.spectral_flow},{_AT8}"conjugacy_angles": ['
        f"{_AT10}{_rational(a1, _AT10)},{_AT10}{_rational(a2, _AT10)},"
        f"{_AT10}{_rational(a3, _AT10)}{_AT8}]\n      }}"
    )


def _laid_json(report: Report):
    """The report as _indented_json lays it out, plus a newline, in pieces; under the
    verb's layout (key, record), each record of results[key] is a piece laid out by record."""
    key, record = _VERBS[report.command["verb"]].layout or (None, None)
    digits = report.digits
    laid = {"command": report.command, "results": report.values, "metadata": report.metadata}
    laid["status"] = report.status
    if report.failures:
        laid["failure"] = report.failures
    for top, (name, value) in enumerate(laid.items()):
        yield ("," if top else "{") + f"\n  {_quote(name)}: "
        if name != "results" or record is None:
            yield _indented_json(value, digits, "\n  ")
            continue
        for inner, (field, item) in enumerate(value.items()):
            yield ("," if inner else "{") + f"\n    {_quote(field)}: "
            if field != key:
                yield _indented_json(item, digits, "\n    ")
                continue
            for index, entry in enumerate(item):
                yield (",\n      " if index else "[\n      ") + record(entry, digits)
            yield "\n    ]"
        yield "\n  }"
    yield "\n}\n"


# ---------------------------------------------------------------------------
# the verb table: both argv readers, validation and dispatch are derived from it


class _Verb(NamedTuple):
    help: str
    run: Callable  # (Command, PrecisionContext) -> (results, failures) as library values
    flags: tuple = ()  # beyond --p, --precision, --format and --out
    takes_p: bool = True
    d_bounded: bool = False  # --p capped at MAX_D canonical triples
    csv: Callable | None = None  # library results -> CSV text in pieces; None means JSON
    layout: tuple | None = None  # (results key, (library record, digits) -> its JSON text)
    route: str | None = None  # metadata["route"]: what computed tau_N


_VERBS = {
    "invariant": _Verb(
        "quantum invariant tau_N and friends", _run_invariant, ("--N",), route="tau_coordinates"
    ),
    "ohtsuki": _Verb(
        "perturbative coefficients lambda_0..lambda_order",
        _run_ohtsuki,
        ("--order",),
        csv=_ohtsuki_csv,
    ),
    "cs": _Verb(
        "Chern-Simons spectrum of flat connections",
        _run_cs,
        d_bounded=True,
        csv=_cs_csv,
        layout=("cs_spectrum", _cs_record),
    ),
    "flat": _Verb(
        "full flat-connection records",
        _run_flat,
        d_bounded=True,
        layout=("flat_connections", _flat_record),
    ),
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
        csv=lambda results: (results["csv"],),
    ),
}
VERBS = tuple(_VERBS)


def execute(cmd: Command) -> tuple:
    """Run a validated command; returns (Report, exit_code)."""
    spec = _VERBS[cmd.verb]
    ctx = PrecisionContext(cmd.precision)
    started = time.monotonic()
    values, failures = spec.run(cmd, ctx)
    metadata = {
        "precision_digits": cmd.precision,
        "tolerance": f"1e-{ctx.tolerance_digits}",
        "wall_time_seconds": round(time.monotonic() - started, 3),
        "version": __version__,
    }
    if spec.route:
        metadata["route"] = spec.route
    command = {
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
    report = Report(command, ctx.decimal_digits, values, failures, metadata)
    return report, EXIT_FAIL if failures else EXIT_OK


def _pieces(cmd: Command, report: Report):
    """The report's text in the command's format, as a stream of pieces."""
    spec = _VERBS[cmd.verb]
    if cmd.fmt == "csv" and spec.csv:
        return spec.csv(report.values)
    if cmd.fmt == "text":
        return _format_text(report)
    return _laid_json(report)


def render(cmd: Command, report: Report) -> str:
    return "".join(_pieces(cmd, report))


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


def _open_stream(path: str):
    """The standard stream already open on the file --out names, as /dev/stdout or
    /dev/stderr is, or None.

    A rename over that file would cut it off from the shell's later output, so
    the report goes through the stream instead.
    """
    status = _existing(path)
    if status is None:
        return None
    for stream in (sys.stdout, sys.stderr):
        try:
            opened = os.fstat(stream.fileno())
        except (AttributeError, OSError, ValueError):  # a stream with no file behind it
            continue
        if (status.st_dev, status.st_ino) == (opened.st_dev, opened.st_ino):
            return stream
    return None


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


def _write_out(sink, pieces) -> None:
    """Write the pieces to a standard stream or to the file --out names.

    A replaceable file is written beside itself and renamed into place once
    whole, keeping its permission bits; other files are written in place.
    """
    if not isinstance(sink, str):
        try:
            sink.writelines(pieces)
            sink.flush()
        except BrokenPipeError:
            if sink is not sys.stdout:
                raise
            # the reader has gone: the rest of the report, and the flush at exit, go nowhere
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sink.fileno())
            os.close(null)
        return
    status = _existing(sink)
    if not _replaceable(status):
        with open(sink, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        return
    target = os.path.realpath(sink)  # through a symlink, as open(sink, "w") writes
    temporary = os.path.join(os.path.dirname(target), f".bwrt-{os.urandom(8).hex()}.tmp")
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            if status is not None:
                os.fchmod(handle.fileno(), stat.S_IMODE(status.st_mode))
            handle.writelines(pieces)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def main(argv: list | None = None) -> int:
    cmd = parse(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if cmd.out is None else _open_stream(cmd.out)
    if stream is None and (reason := _out_error(cmd.out)):
        print(f"error: cannot write --out {cmd.out}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, exit_code = execute(cmd)
    except _UsageError as exc:  # found while running, before a byte is written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write_out(stream or cmd.out, _pieces(cmd, report))
    except OSError as exc:
        if stream is not None:  # only a file --out names is reported as --out's error
            raise
        print(f"error: cannot write --out {cmd.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
